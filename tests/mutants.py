"""The mutation register: faults planted in src/ that named tests must catch.

Each entry is (id, file under src/, old text, new text, test ids).  Run

    python tests/mutants.py [id ...]

from anywhere: for each entry (or each id named) it copies src/ to a
temporary directory, replaces the old text there, which must occur exactly
once, runs `pytest -x -q` on the entry's tests against the copy, and prints
whether a test failed (killed) or all passed (survived).  It exits 1 if any
entry survives or cannot be run: old text not found exactly once, or pytest
exiting with anything but 0 or 1 (a test id that names no test, say).

tests/test_mutants.py checks in tier-1 that every old text still occurs
exactly once; this runner is not part of tier-1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_HURWITZ = [
    "tests/test_constants.py::test_hurwitz_rows_against_mpmath[7-53]",
    "tests/test_constants.py::test_hurwitz_rows_against_mpmath[7-192]",
    "tests/test_lvalues.py::test_psi_and_loggamma_rows_value_by_value[53-hurwitz2-1-50]",
]
_PSI = ["tests/test_lvalues.py::test_psi_and_loggamma_rows_value_by_value[53-psi-1-50]"]
_WINDING = ["tests/test_constants.py::test_partial_euler_sums_match_the_loop"]

MUTANTS = [
    (
        "hurwitz-closed-part-dropped",
        "totprog/lvalues.py",
        "                acc += scale // (d - u) ** m\n",
        "                pass\n",
        _HURWITZ,
    ),
    (
        "hurwitz-shift-dropped",
        "totprog/lvalues.py",
        "                    acc += scale // r**m\n",
        "                    pass\n",
        _HURWITZ,
    ),
    (
        "hurwitz-term-count-halved",
        "totprog/lvalues.py",
        "        n += 1\n    return n\n",
        "        n += 1\n    return n // 2\n",
        _HURWITZ,
    ),
    (
        "hurwitz-zeta-index-shifted",
        "totprog/lvalues.py",
        "c.append(binom * zeta[m + n])",
        "c.append(binom * zeta[m + n + 1])",
        _HURWITZ,
    ),
    (
        "psi-shift-dropped",
        "totprog/lvalues.py",
        "                    acc -= (d << w) // r\n",
        "                    pass\n",
        _PSI,
    ),
    (
        "psi-term-count-short",
        "totprog/lvalues.py",
        "math.ceil((w + 5) / math.log2(d / s))",
        "math.ceil((w - 20) / math.log2(d / s))",
        _PSI,
    ),
    (
        "horner-sign-of-y-lost",
        "totprog/lvalues.py",
        "acc = c + acc * u // d",
        "acc = c + acc * abs(u) // d",
        _PSI,
    ),
    (
        "char-sums-sine-sign-flipped",
        "totprog/lvalues.py",
        "            im += v * sin[k]\n",
        "            im -= v * sin[k]\n",
        ["tests/test_lvalues.py::test_char_sums_against_one_character_at_a_time[5-53]"],
    ),
    (
        "bernoulli-B4-sign-flipped",
        "totprog/lvalues.py",
        "(t[j - 1] if j % 2 else -t[j - 1],",
        "(t[j - 1] if j % 2 or j == 2 else -t[j - 1],",
        ["tests/test_lvalues.py::test_bernoulli_ratios_from_tangent_numbers"],
    ),
    (
        "euler-factor-sign-flipped",
        "totprog/lvalues.py",
        "            ll += val * mp.log(p) / (p - val)\n",
        "            ll -= val * mp.log(p) / (p - val)\n",
        [f"tests/test_lvalues.py::test_LpL1_matches_stieltjes_oracle[{q}]" for q in (6, 12, 20)],
    ),
    (
        "point-sums-partial-block-dropped",
        "totprog/primes.py",
        "self._block_sums(m, *self._products(m * BLOCK, k))",
        "self._block_sums(m, *self._products(m * BLOCK, m * BLOCK))",
        [
            "tests/test_primes.py::test_point_sums_match_the_running_sums",
            "tests/test_primes.py::test_point_bound_covers_a_finer_value_at_the_sieve_limit[qa1]",
        ],
    ),
    (
        "sums-seed-products-dropped",
        "totprog/primes.py",
        "        P, Q = self._products(m * BLOCK, lo)\n",
        "        P = Q = 1\n",
        ["tests/test_primes.py::test_logged_sums_match_mpmath_at_any_precision[3]"],
    ),
    (
        "sums-block-start-reset-dropped",
        "totprog/primes.py",
        "                self._prefix(m)\n                P = Q = 1\n",
        "                self._prefix(m)\n",
        ["tests/test_primes.py::test_logged_sums_match_mpmath_at_any_precision[3]"],
    ),
    (
        "sweep-screen-bound-scaled-1e-6",
        "totprog/criterion.py",
        "yield k0, ps, fs, math.inf if err is None else err\n",
        "yield k0, ps, fs, math.inf if err is None else err * 1e-6\n",
        ["tests/test_criterion.py::test_float_screen_bounds_the_series[7-1-None]"],
    ),
    (
        "sweep-libm-allowance-half-an-ulp",
        "totprog/criterion.py",
        "_LIBM = 4 * _U\n",
        "_LIBM = _U / 2\n",
        ["tests/test_criterion.py::test_libm_logs_within_the_allowance"],
    ),
    (
        "sweep-budget-mp-rounding-dropped",
        "totprog/criterion.py",
        "budget += mp.inf if err is None else err\n",
        "budget += mp.inf if err is None else 0\n",
        ["tests/test_criterion.py::test_sweep_budget_covers_the_mp_rounding[7]"],
    ),
    (
        "sweep-unbounded-points-not-counted",
        "totprog/criterion.py",
        "            checked += upper == math.inf  # the screen counted the bounded ones\n",
        "",
        ["tests/test_criterion.py::test_unbounded_points_go_to_the_mp_tier"],
    ),
    (
        "p_q-grid-column-2x-for-2(x-1)",
        "totprog/criterion.py",
        "lx, sx, twice = math.log(x), math.sqrt(x), 2 * (x - 1)\n",
        "lx, sx, twice = math.log(x), math.sqrt(x), 2 * x\n",
        ["tests/test_criterion.py::test_P_q_grid_evaluates_the_p_q_formula[7]"],
    ),
    (
        "p_q-cell-bound-first-term-smaller-end",
        "totprog/criterion.py",
        "return sum(map(max, ti, tj)) + ",
        "return min(ti[0], tj[0]) + sum(map(max, ti[1:], tj[1:])) + ",
        ["tests/test_criterion.py::test_P_q_search_matches_the_full_scan[7]"],
    ),
    (
        "p_q-cell-bound-allowance-dropped",
        "totprog/criterion.py",
        "return sum(map(max, ti, tj)) + _P_SLACK * (sum(map(abs, ti)) + sum(map(abs, tj)))\n",
        "return sum(map(max, ti, tj))\n",
        ["tests/test_criterion.py::test_P_q_search_matches_the_full_scan[7]"],
    ),
    (
        "winding-tail-h-plus-log-K-dropped",
        "totprog/constants.py",
        "[chi.label][1] + tail\n",
        "[chi.label][1]\n",
        _WINDING,
    ),
    (
        "winding-row-reciprocal-of-p-plus-1",
        "totprog/constants.py",
        "            row[r] += one // p\n",
        "            row[r] += one // (p + 1)\n",
        _WINDING,
    ),
    (
        "zeta2-harmonic-H_n-for-H_(n-1)",
        "totprog/lvalues.py",
        "        c.append(2 * (h.numerator * z[n] - h.denominator * dz) // (h.denominator * n))\n"
        "        h += Fraction(1, n)\n",
        "        h += Fraction(1, n)\n"
        "        c.append(2 * (h.numerator * z[n] - h.denominator * dz) // (h.denominator * n))\n",
        [
            "tests/test_lvalues.py::test_zeta2_sums_match_the_mpmath_row[5-53]",
            "tests/test_lvalues.py::test_zeta2_sums_match_the_mpmath_row[13-192]",
        ],
    ),
    (
        "row-log-guard-dropped",
        "totprog/lvalues.py",
        "    with mp.workprec(w + 40):\n",
        "    with mp.workprec(prec):\n",
        [
            "tests/test_lvalues.py::test_psi_and_loggamma_rows_value_by_value[53-loggamma-1-50]",
            "tests/test_lvalues.py::test_zeta2_sums_match_the_mpmath_row[5-53]",
        ],
    ),
    (
        "prime-zeta-mobius-j2-dropped",
        "totprog/constants.py",
        "            for j in range(2, top // k + 1):\n",
        "            for j in range(3, top // k + 1):\n",
        ["tests/test_constants.py::test_C_published_thresholds"],
    ),
    (
        "conductor-sign-case-dropped",
        "totprog/characters.py",
        "        c = max(c, 2 * eps)\n",
        "",
        ["tests/test_characters.py::test_conductor_known_cases"],
    ),
    (
        "point-sums-guard-32-to-2",
        "totprog/primes.py",
        "GUARD = 32  # bits",
        "GUARD = 2  # bits",
        ["tests/test_primes.py::test_point_sums_keep_the_guard_accuracy[14-53]"],
    ),
    (
        "half-sum-tail-second-term-sign-flipped",
        "totprog/constants.py",
        "        total -= v**4 / 2 * mp.zeta(4, shift)\n",
        "        total += v**4 / 2 * mp.zeta(4, shift)\n",
        ["tests/test_constants.py::test_abs_zero_sum_half_against_the_mp_loop[100-53]"],
    ),
    (
        "G_q-theta0-closed-form-subtracted",
        "totprog/constants.py",
        "                total += _signed_zero_sum_theta0(L)\n",
        "                total -= _signed_zero_sum_theta0(L)\n",
        ["tests/test_constants.py::test_G_q_published[3]"],
    ),
    (
        "sieve-starts-past-the-first-odd-multiple",
        "totprog/primes.py",
        "start += p  # the first odd multiple",
        "start += 3 * p  # the first odd multiple",
        ["tests/test_primes.py::test_segmented_matches_simple_sieve[197050]"],
    ),
    (
        "table-exception-taken-without-its-diff",
        "totprog/cli.py",
        "'MISMATCH' if off[1] else note",
        "'MISMATCH' if (key, col) not in bundled else note",
        [
            "tests/test_cli.py::test_erratum_cell_off_its_corrected_value_is_a_mismatch",
            "tests/test_cli.py::test_truncated_cell_off_its_true_value_is_a_mismatch",
        ],
    ),
]


def run(entry) -> str:
    """'killed', 'SURVIVED' or 'ERROR: ...' for one register entry."""
    _, path, old, new, tests = entry
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / path
        text = target.read_text()
        if text.count(old) != 1:
            return f"ERROR: the old text occurs {text.count(old)} times in {path}"
        target.write_text(text.replace(old, new))
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = str(src)
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-o", f"pythonpath={src}"]
        proc = subprocess.run([*command, *tests], cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode in (0, 1):
        return "SURVIVED" if proc.returncode == 0 else "killed"
    return f"ERROR: pytest exited {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]}"


def main(ids: list[str]) -> int:
    unknown = set(ids) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutant ids: {sorted(unknown)}", file=sys.stderr)
        return 1
    results = {}  # id -> (result, seconds)
    for entry in MUTANTS:
        if ids and entry[0] not in ids:
            continue
        start = time.perf_counter()
        results[entry[0]] = result, seconds = run(entry), time.perf_counter() - start
        print(f"{result:<10} {seconds:6.1f} s  {entry[0]}", flush=True)
    killed = [r for r, _ in results.values()].count("killed")
    slowest = max(results, key=lambda i: results[i][1])
    print(f"{killed} of {len(results)} killed; slowest {slowest} ({results[slowest][1]:.1f} s)")
    return 0 if killed == len(results) else 1

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
