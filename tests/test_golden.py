"""CLI stdout, byte for byte, against outputs recorded in tests/golden/.

The large figure outputs, F1-F8 at their defaults, are pinned by their
sha256 digests in tests/golden/figures.sha256 instead of being stored.  The
stdout digests in perfbench/expected.json, which the benchmark's correctness
gate compares each run against, must match the golden of the same command.

The precision ladder runs every stored command again at 128 and 256 bits: a
kernel that loses bits at some precision changes a printed digit there.
"""

import hashlib
import json
import re
from pathlib import Path

import mpmath as mp
import pytest

from totprog import cli

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = Path(__file__).parent.parent / "perfbench" / "expected.json"

STORED = {
    "constants_q1_a1.json": ["constants", "--q", "1", "--a", "1"],
    "constants_q2_a1.json": ["constants", "--q", "2", "--a", "1"],
    "constants_q6_a5.json": ["constants", "--q", "6", "--a", "5"],
    "constants_q5_a3.json": ["constants", "--q", "5", "--a", "3"],
    "constants_q14_a3.json": ["constants", "--q", "14", "--a", "3"],
    "constants_q101_a2.json": ["constants", "--q", "101", "--a", "2"],
    "table_T1.json": ["table", "T1"],
    "table_T1.csv": ["table", "T1", "--format", "csv"],
    "table_T2.json": ["table", "T2"],
    "table_T3.json": ["table", "T3"],
    "table_T4.json": ["table", "T4"],
    "table_T5.json": ["table", "T5"],
    "table_T8.json": ["table", "T8"],
    "table_T9.json": ["table", "T9"],
    "sweep_q1.json": ["sweep", "--q", "1"],
    "sweep_q2.json": ["sweep", "--q", "2"],
    "sweep_q3.json": ["sweep", "--q", "3"],
    "sweep_q4.json": ["sweep", "--q", "4"],
    "sweep_q5.json": ["sweep", "--q", "5"],
    "sweep_q6.json": ["sweep", "--q", "6"],
    "sweep_q7.json": ["sweep", "--q", "7"],
    "sweep_q8.json": ["sweep", "--q", "8"],
    "sweep_q9.json": ["sweep", "--q", "9"],
    "sweep_q10.json": ["sweep", "--q", "10"],
    "sweep_q12.json": ["sweep", "--q", "12"],
    "sweep_q14.json": ["sweep", "--q", "14"],
    "sweep_q101.json": ["sweep", "--q", "101"],
    "sweep_q1_xmax2000000.json": ["sweep", "--q", "1", "--xmax", "2000000"],
    "sweep_q7_xmax2000.json": ["sweep", "--q", "7", "--xmax", "2000"],
    "sweep_q7_xmax2000000.json": ["sweep", "--q", "7", "--xmax", "2000000"],
    "scan_q14.json": ["scan", "--q", "14"],
    "scan_q60.json": ["scan", "--q", "60"],
    "figure_F7_xmax2000.json": ["figure", "F7", "--xmax", "2000"],
}

DIGESTED = {
    "figure_F1.json": ["figure", "F1"],
    "figure_F2.json": ["figure", "F2"],
    "figure_F3.json": ["figure", "F3"],
    "figure_F4.json": ["figure", "F4"],
    "figure_F5.json": ["figure", "F5"],
    "figure_F6.json": ["figure", "F6"],
    "figure_F7.json": ["figure", "F7"],
    "figure_F8.json": ["figure", "F8"],
}


def _digests() -> dict:
    lines = (GOLDEN / "figures.sha256").read_text().splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


def _stdout(argv, capsys) -> bytes:
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_OK
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("name", list(STORED))
def test_stdout_matches_golden_file(name, capsys):
    assert _stdout(STORED[name], capsys) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", list(DIGESTED))
def test_stdout_matches_golden_digest(name, capsys):
    out = _stdout(DIGESTED[name], capsys)
    assert hashlib.sha256(out).hexdigest() == _digests()[name]


# The value of a `C_err` or `error_budget` row: error bounds, which may fall
# as the precision rises.
_BOUND = re.compile(rb'("name": "(?:C_err|error_budget)",\s*"value": ")([^"]*)"')


def _split_bounds(out: bytes) -> tuple:
    """(out with the bound values blanked, the bound values)."""
    return _BOUND.sub(rb'\1"', out), [mp.mpf(v.decode()) for _, v in _BOUND.findall(out)]


@pytest.mark.parametrize("name", list(STORED))
def test_stdout_does_not_depend_on_precision(name, capsys):
    """At 128 and at 256 bits every stored command prints its golden, but for
    the error bounds, and those do not grow as the precision rises."""

    def rung(bits):
        return _split_bounds(_stdout([*STORED[name], "--prec-bits", str(bits)], capsys))

    golden = _split_bounds((GOLDEN / name).read_bytes())
    (low, low_err), (mid, mid_err), (high, high_err) = rung(128), golden, rung(256)
    assert low == mid == high
    assert all(a >= b >= c for a, b, c in zip(low_err, mid_err, high_err)), (low_err, mid_err, high_err)


def test_every_golden_file_is_checked():
    on_disk = {p.name for p in GOLDEN.iterdir()}
    assert on_disk == set(STORED) | {"figures.sha256"}
    assert set(_digests()) == set(DIGESTED)


def test_benchmark_digests_match_the_goldens():
    """Every command of the benchmark's correctness gate has a golden with
    the recorded sha256, byte count and exit code 0."""
    by_argv = {" ".join(argv): name for name, argv in STORED.items()}
    for command, want in json.loads(EXPECTED.read_text())["commands"].items():
        out = (GOLDEN / by_argv[command]).read_bytes()
        assert (hashlib.sha256(out).hexdigest(), len(out), 0) == (want["sha256"], want["bytes"], want["exit"]), command
