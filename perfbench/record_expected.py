#!/usr/bin/env python3
"""Record the exit code and stdout sha256 of every command the benchmark runs.

    python3 perfbench/record_expected.py

Run it only at a commit whose outputs are known to be right: run.py counts
every later difference from this record as a failed operation.
"""

import json
import time

import run


def main() -> None:
    run.build()
    prov = run.provenance(seed=0)
    cmds = sorted({c for cmds in run.WORKLOADS.values() for c in cmds} | set(run.SELFTEST_COMMANDS))
    commands = {}
    for cmd in cmds:
        s = run.run_command(cmd, None, time.monotonic() + 600)
        commands[cmd] = {"exit": s["exit"], "sha256": s["sha256"], "bytes": s["bytes"]}
        print(f"{cmd:<30} exit {s['exit']}  {s['bytes']:>8} bytes  {s['wall']:7.2f} s", flush=True)
    recorded_with = {k: prov[k] for k in ("commit", "python", "mpmath", "backend")}
    run.EXPECTED.write_text(json.dumps({"recorded_with": recorded_with, "commands": commands}, indent=2) + "\n")


if __name__ == "__main__":
    main()
