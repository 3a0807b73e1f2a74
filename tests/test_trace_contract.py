"""The names the benchmark's tracer reads are still there.

perfbench/tracer.py wraps functions, methods and caches of totprog by name,
and perfbench/run.py drops a per-layer metric from the result when a name it
needs was not found.  This runs the tracer, as the benchmark does, on two
cheap commands and checks that nothing it looks for is missing.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _per_layer():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PER_LAYER


@pytest.mark.parametrize("argv", [["sweep", "--q", "7", "--xmax", "2000"], ["table", "T9"]])
def test_tracer_finds_every_name_the_per_layer_metrics_need(argv, tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith(("TOTPROG_", "PYTHON"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py"), str(out), *argv],
        env=env, cwd=tmp_path, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    trace = json.loads(out.read_text())
    assert trace["absent"] == []
    needed = {n for _, needs, _ in _per_layer().values() for n in needs}
    assert needed - set(trace["found"]) == set()
