#!/usr/bin/env python3
"""Cold-process benchmark of the totprog CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds 32 --trace 0|1

Each workload is a fixed list of CLI commands at the CLI defaults (192 bits,
sieve limit 2e6).  Every command runs in its own fresh ``python -m
totprog.cli`` process, because every real invocation starts with cold caches.
Commands run one at a time (a closed loop with one client).  Each command's
exit code and stdout sha256 are checked against ``expected.json``; a mismatch,
crash or timeout counts as a failed operation and the run goes on.

--trace 0: whole passes over the workload, each in a seed-permuted order,
  until the next pass would end after S seconds (at least one pass).  Prints
  the end-to-end metrics; per-command times are medians over the passes.
--trace 1: one pass in which every command runs untraced, then under
  ``tracer.py``.  Prints the per-layer metrics and the tracing overhead.

The workloads are the paper's fixed inputs, so the seed only permutes the
order of commands.  The last line of stdout is the JSON result; provenance
and per-command lines come before it.  ``--workload all`` runs every workload
in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected.json"
TRACER = HERE / "tracer.py"

# Trimmed from the full paper runs so that two passes of each workload fit
# one run; see README.md for what each one should show.
WORKLOADS = {
    "tables": ("table T1", "table T3", "table T4", "table T5", "table T8"),
    "sweeps": ("sweep --q 3", "sweep --q 7", "sweep --q 12", "sweep --q 14"),
    "fullrange": ("sweep --q 1 --xmax 2000000", "sweep --q 7 --xmax 2000000"),
}
# Commands the self-tests run, besides the workloads.
SELFTEST_COMMANDS = ("table T9", "sweep --q 7 --xmax 2000")

SETUP_SAMPLES = 11
RUN_DEADLINE_S = 170.0  # a run must exit within 180 s
COMMAND_TIMEOUT_S = 60.0  # 5x the slowest command at 824ab6e


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, or a broken import)."""


def child_env() -> dict:
    """The environment of every child: no TOTPROG_* settings (they change
    precision, sieve limit and xmax) and no inherited PYTHON* settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("TOTPROG_", "PYTHON"))}
    env.update(PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    return env


def build() -> None:
    """Compile the package's bytecode once, before anything is timed.  Children
    never write bytecode, so every run starts from the same files."""
    if not (SRC / "totprog" / "cli.py").is_file():
        raise BenchError(f"no totprog source tree under {SRC}")
    (WORK / "cwd").mkdir(parents=True, exist_ok=True)
    env = dict(child_env(), PYTHONDONTWRITEBYTECODE="")
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
        env=env, cwd=WORK / "cwd", check=True, stdout=subprocess.DEVNULL,
    )


_PROBE = (
    "import json, os, sys, mpmath, mpmath.libmp, totprog.cli, totprog;"
    "print(json.dumps({'totprog': totprog.__file__, 'python': sys.version.split()[0],"
    "'mpmath': mpmath.__version__, 'backend': mpmath.libmp.BACKEND, 'nproc': os.cpu_count()}))"
)


def provenance(seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=child_env(), cwd=WORK / "cwd",
        capture_output=True, text=True, timeout=60,
    )
    if out.returncode != 0:
        raise BenchError(f"cannot import totprog.cli:\n{out.stderr}")
    info = json.loads(out.stdout)
    if not Path(info.pop("totprog")).resolve().is_relative_to(SRC.resolve()):
        raise BenchError("totprog was imported from outside this checkout's src/")
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "totprog").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    info.update(commit=git_commit(), src_sha256=src_hash.hexdigest(), seed=seed)
    return info


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None when the
    checkout is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def time_import() -> float:
    """Wall time of a fresh interpreter running `import totprog.cli`."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import totprog.cli"], env=child_env(), cwd=WORK / "cwd",
        check=True, timeout=60,
    )
    return time.perf_counter() - t0


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())["commands"]


def run_command(cmd: str, expected: dict | None, deadline: float, trace_path: Path | None = None) -> dict:
    """Run one CLI command in a fresh process and check its output against
    `expected` (None: record only).

    The returned sample always has `ok`; a command that crashes, times out or
    prints something other than the recorded output is a failed operation."""
    args = cmd.split()
    if trace_path is None:
        argv = [sys.executable, "-m", "totprog.cli", *args]
    else:
        argv = [sys.executable, str(TRACER), str(trace_path), *args]
    sample = {"cmd": cmd, "traced": trace_path is not None}
    remaining = min(deadline - time.monotonic(), COMMAND_TIMEOUT_S)
    if remaining <= 0:
        return dict(sample, ok=False, why="not run: run deadline reached")
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    timed_out = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=WORK / "cwd", env=child_env())

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(remaining, kill)
        timer.start()
        try:
            # wait4 gives this child's own rusage; RUSAGE_CHILDREN's ru_maxrss
            # would be the high-water mark over every child reaped so far
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_bytes()
    sample.update(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        exit=proc.returncode,
        sha256=hashlib.sha256(stdout).hexdigest(),
        bytes=len(stdout),
    )
    want = None if expected is None else expected.get(cmd)
    if timed_out.is_set():
        why = "timeout"
    elif expected is None:
        why = None
    elif want is None:
        why = "no recorded output"
    elif proc.returncode != want["exit"]:
        why = f"exit {proc.returncode}, expected {want['exit']}"
    elif sample["sha256"] != want["sha256"]:
        why = "stdout differs from the recorded digest"
    else:
        why = None
    sample.update(ok=why is None, why=why)
    if why is not None:
        tail = err_path.read_bytes()[-2000:].decode(errors="replace")
        print(f"FAILED {cmd!r}: {why}\n{tail}", file=sys.stderr)
    return sample


def measure(cmds, expected, seed: int, seconds: float, deadline: float) -> tuple[list, int]:
    """Whole passes, each in a fresh seed-permuted order, until the next pass
    would end after `seconds` (always at least one pass)."""
    rng = random.Random(seed)
    samples = []
    passes = 0
    t0 = time.monotonic()
    while True:
        for cmd in rng.sample(cmds, len(cmds)):
            samples.append(run_command(cmd, expected, deadline))
        passes += 1
        elapsed = time.monotonic() - t0
        per_pass = elapsed / passes
        if elapsed + per_pass > seconds or time.monotonic() + per_pass > deadline:
            return samples, passes


def end_to_end(cmds, samples, setup) -> dict:
    """Commands that never ran are failures in ok_frac and missing from the
    sums; the result is then not correct anyway."""
    ran = [c for c in cmds if any(s["cmd"] == c and "wall" in s for s in samples)]
    if not ran:
        raise BenchError("no command ran")

    def per_cmd(key):
        return [statistics.median(s[key] for s in samples if s["cmd"] == c and "wall" in s) for c in ran]

    return {
        "wall_s": (sum(per_cmd("wall")), "s"),
        "cpu_s": (sum(per_cmd("cpu")), "s"),
        "peak_rss_mb": (max(per_cmd("rss_mb")), "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "ok_frac": (sum(s["ok"] for s in samples) / len(samples), "fraction"),
    }


def trace_pass(cmds, expected, seed: int, deadline: float) -> tuple[list, list]:
    """One pass; each command runs untraced and then traced."""
    plain, traced = [], []
    for i, cmd in enumerate(random.Random(seed).sample(cmds, len(cmds))):
        plain.append(run_command(cmd, expected, deadline))
        path = WORK / f"trace{i}.json"
        path.unlink(missing_ok=True)
        sample = run_command(cmd, expected, deadline, trace_path=path)
        if path.is_file():
            sample["trace"] = json.loads(path.read_text())
        elif sample["ok"]:
            sample.update(ok=False, why="no trace written")
        traced.append(sample)
    return plain, traced


STATS = "primes.ProgressionStats.__init__"


def _get(section, key):
    return lambda t: t[section].get(key, 0)


# Per-layer metric -> (unit, names the tracer must have found, value for one
# traced command).  A metric whose names were not found (a later change
# removed or renamed the function) is reported absent.
PER_LAYER = {
    "lvalues.self_s": ("s", (), _get("self_s", "lvalues")),
    "lvalues.kernel_s": ("s", (), _get("kernel_s", "lvalues")),
    "lvalues.stieltjes_calls": ("count", ("mpmath.stieltjes",), _get("kernel_calls", "lvalues.stieltjes")),
    "lvalues.digamma_calls": ("count", ("mpmath.digamma",), _get("kernel_calls", "lvalues.digamma")),
    "lvalues.zeta_calls": ("count", ("mpmath.zeta",), _get("kernel_calls", "lvalues.zeta")),
    "lvalues.loggamma_calls": ("count", ("mpmath.loggamma",), _get("kernel_calls", "lvalues.loggamma")),
    "primes.self_s": ("s", (), _get("self_s", "primes")),
    "primes.sieve_s": ("s", ("primes.PrimeTable.__init__",), _get("incl_s", "primes.PrimeTable.__init__")),
    "primes.stats_builds": ("count", (STATS,), _get("calls", STATS)),
    "primes.primes_logged": ("count", (STATS,), _get("counters", "primes_logged")),
    "primes.primes_read": ("count", (STATS,), _get("counters", "primes_read")),
    "constants.self_s": ("s", (), _get("self_s", "constants")),
    "constants.kernel_s": ("s", (), _get("kernel_s", "constants")),
    "constants.zeta_calls": ("count", ("mpmath.zeta",), _get("kernel_calls", "constants.zeta")),
    "constants.mertens_calls": ("count", ("constants.mertens_C",), _get("calls", "constants.mertens_C")),
    "constants.mertens_builds": ("count", ("constants._mertens_cached",), _get("cache_misses", "constants._mertens_cached")),
    "criterion.self_s": ("s", (), _get("self_s", "criterion")),
    "criterion.points_evaluated": ("count", ("criterion.log_f_series",), _get("counters", "points_evaluated")),
    "characters.self_s": ("s", (), _get("self_s", "characters")),
    "characters.groups_built": ("count", ("characters.build_group",), _get("cache_misses", "characters.build_group")),
    "characters.by_label_calls": ("count", ("characters.CharacterGroup.by_label",), _get("calls", "characters.CharacterGroup.by_label")),
    "cli.self_s": ("s", (), _get("self_s", "cli")),
}


def per_layer(plain, traced) -> tuple[dict, list]:
    """Sum each per-layer metric over the traced commands."""
    metrics, absent = {}, []
    ran = [s["trace"] for s in traced if "trace" in s]
    for name, (unit, needs, get) in PER_LAYER.items():
        if not ran or any(n not in t["found"] or n in t["absent"] for t in ran for n in needs):
            absent.append(name)
            continue
        metrics[name] = (sum(get(t) for t in ran), unit)
    read = metrics.pop("primes.primes_read", None)
    if read is None:
        absent.append("primes.read_frac")
    else:  # a ratio of sums; nothing logged means nothing wasted
        logged = metrics["primes.primes_logged"][0]
        metrics["primes.read_frac"] = (read[0] / logged if logged else 1.0, "fraction")
    metrics["cli.stdout_bytes"] = (sum(s["bytes"] for s in traced if "bytes" in s), "bytes")
    traced_wall = sum(s["wall"] for s in traced if "wall" in s)
    # interpreter start, imports and exit, plus time outside every layer
    metrics["unwrapped_s"] = (traced_wall - sum(sum(t["self_s"].values()) for t in ran), "s")
    metrics["trace_overhead_s"] = (traced_wall - sum(s["wall"] for s in plain if "wall" in s), "s")
    return metrics, absent


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    build()
    prov = provenance(seed)
    expected = load_expected()
    cmds = WORKLOADS[name]
    if traced:
        plain, traced_samples = trace_pass(cmds, expected, seed, deadline)
        metrics, absent = per_layer(plain, traced_samples)
        samples, passes = plain + traced_samples, 1
    else:
        setup = [time_import() for _ in range(SETUP_SAMPLES)]
        samples, passes = measure(cmds, expected, seed, seconds, deadline)
        metrics, absent = end_to_end(cmds, samples, setup), []
    for s in samples:
        if "wall" in s:
            label = ("traced " if s["traced"] else "") + s["cmd"]
            print(f"  {label:<37} {s['wall']:8.3f} s  cpu {s['cpu']:8.3f} s"
                  f"  rss {s['rss_mb']:7.1f} MB  exit {s['exit']}  {'ok' if s['ok'] else 'FAILED: ' + s['why']}")
        else:
            print(f"  {s['cmd']:<37} {s['why']}")
    print(json.dumps({"workload": name, "passes": passes, "run_s": time.monotonic() - start,
                      "absent": absent, "provenance": prov}))
    for metric, (value, unit) in metrics.items():
        print(f"{name}: {metric} = {value} {unit}")
    failed = sum(not s["ok"] for s in samples)
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
