"""Command-line interface.

Subcommands, and the options each reads besides --prec-bits, --out and
--format, which all take:
  constants  --q --a   per-(q,a) constant bundle (C, M, index data, F, G,
                       B, M0, P, x_q)
  table      (none)    recompute a published table (T1-T9) and diff against
                       the bundled expected values
  figure     --sieve-limit --xmax
                       emit the data series behind a figure (F1-F8);
                       F1 reads neither option, F2 and F3 not --xmax
  sweep      --q --a --sieve-limit --xmax
                       check log f(pbar_k; q, a) < 0 up to the unconditional
                       threshold
  scan       --q       Nicolas-type criterion scan over moduli
An option the subcommand does not read is a usage error.

Exit codes: 0 success / definite result, 1 usage error, 2 inconclusive
verdict, 3 table mismatch: some cell misses both its print and its bundled
value.  Numeric output is always rendered as decimal strings ('.' decimal
separator) so runs are byte-for-byte reproducible.

The precision must be at least 53 bits, the sieve limit at least 2 and
x_max at least 1.  The sieve limit (default 2000000) is a cap: a command
sieves only as far as the largest x it reads, and at least to 10^5.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import sys

import mpmath as mp

from . import criterion, reference_data
from .characters import totient
from .constants import _BRANCH_LIMITS, F_chi, F_q, gamma_p, index_data, mertens_C, nicolas_condition_scan
from .lvalues import DEFAULT_PREC, Lprime_over_L_at_1, b_sum_abs
from .primes import prime_table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2
EXIT_MISMATCH = 3
DEFAULT_LIMIT = 2_000_000  # --sieve-limit when none is given


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _check(args) -> None:
    """Range checks of the options the subcommand parsed."""
    given = vars(args)
    if given.get("q", 1) < 1:
        raise ValueError("modulus must be a positive integer")
    if given.get("xmax") is not None and args.xmax < 1:
        raise ValueError("--xmax must be a positive integer")
    if given.get("sieve_limit") is not None and args.sieve_limit < 2:
        raise ValueError("--sieve-limit must be at least 2")
    if args.prec_bits < criterion.MIN_PREC:
        raise ValueError(f"--prec-bits must be at least {criterion.MIN_PREC}, the precision of the sweep's float tier")


def _primes_to(x, args):
    """The PrimeTable to x, capped at --sieve-limit: a command sieves only as
    far as it reads.  It sieves at least to the winding guard's first limit,
    so that one cached table serves both; past the cap, the reader raises
    "x exceeds sieve limit" as it would at any limit."""
    cap = DEFAULT_LIMIT if args.sieve_limit is None else args.sieve_limit
    return prime_table(min(cap, max(math.ceil(x), _BRANCH_LIMITS[0])))


def fmt(x, digits: int = 12) -> str:
    """Decimal-string rendering used for all numeric output."""
    if isinstance(x, int):
        return str(x)
    return mp.nstr(mp.mpf(x) if not isinstance(x, (mp.mpf, mp.mpc)) else x, digits)


def _emit(rows, header, args) -> str:
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        for r in rows:
            w.writerow(r)
        return buf.getvalue()
    return json.dumps([dict(zip(header, r)) for r in rows], indent=2) + "\n"


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------


def cmd_constants(args) -> int:
    q, prec = args.q, args.prec_bits
    mc = mertens_C(q, args.a, prec)
    idx = index_data(q, args.a)
    bp = criterion.bound_params(q, prec)
    rows = [
        ("q", q),
        ("a", idx.a),
        ("C", fmt(mc.C.value)),
        ("C_err", fmt(mc.C.err, 3)),
        ("M", fmt(mc.M.value)),
        ("index_m", idx.m),
        ("R", idx.R),
        ("F_q", fmt(bp.F)),
        ("G_q", fmt(bp.G)),
        ("B_signed", fmt(bp.B_signed)),
        ("B_abs", fmt(b_sum_abs(q, prec).value)),
        ("M0", bp.M),
        ("P_q", fmt(bp.P)),
        ("x_q", bp.x_q if bp.x_q is not None else ""),
    ]
    _write(_emit(rows, ("name", "value"), args), args)
    return EXIT_OK


# -- table recomputation -----------------------------------------------------


_TABLE_IDS = ("T1", "T2", "T3", "T4", "T5", "T8", "T9")  # the ids _table_rows computes
# The cells of a table that do not reproduce their print, as a map from
# (row key, column) to the bundled true value, and the note they pass with.
_EXCEPTIONS = {
    "T2": (reference_data.TABLE2_TRUNCATED, "truncated-in-print"),
    "T8": (reference_data.TABLE8_ERRATA, "erratum"),
}


def _status(tid: str, key, cells) -> str:
    """The status of row `key` of table `tid`, from its cells (column, printed
    value, published value, tol).  A cell within tol of its published value
    passes.  A cell that the table's exceptions list passes as `column:note`
    when it is within the same tol of its bundled value.  Any other cell is
    `column:MISMATCH`.  The status is `ok`, or the flagged cells joined by ';'."""
    bundled, note = _EXCEPTIONS.get(tid, ({}, ""))
    flags = []
    for col, got, published, tol in cells:
        # an unlisted cell is held to its published value twice
        off = [abs(mp.mpf(got) - mp.mpf(v)) > mp.mpf(tol) for v in (published, bundled.get((key, col), published))]
        if off[0]:
            flags.append(f"{col}:{'MISMATCH' if off[1] else note}")
    return ";".join(flags) or "ok"


def _table_rows(tid: str, prec: int):
    """Return (header, rows); each row ends in its status (see _status), which
    judges every cell on the value the row prints."""
    rows = []
    if tid == "T1":
        for q, exp in reference_data.TABLE1_FQ.items():
            val = fmt(F_q(q, prec).value)
            rows.append((q, val, exp, _status(tid, q, [("F_q", val, exp, reference_data.TABLE1_TOL)])))
        return ("q", "F_q", "expected", "status"), rows
    if tid == "T2":
        tol = reference_data.TABLE2_TOL
        for p, (eg, ef) in reference_data.TABLE2.items():
            gp, fp = fmt(gamma_p(p, prec).value), fmt(F_q(p, prec).value)
            rows.append((p, gp, eg, fp, ef, _status(tid, p, [("gamma", gp, eg, tol), ("F", fp, ef, tol)])))
        return ("p", "gamma_p", "expected", "F_p", "expected_F", "status"), rows
    if tid in ("T3", "T4", "T5"):
        data = {"T3": reference_data.TABLE3, "T4": reference_data.TABLE4, "T5": reference_data.TABLE5}[tid]
        tol = reference_data.TABLE345_TOL
        from .characters import build_group

        for (d, label), (alpha, ell, ef) in data["chars"].items():
            chi = build_group(d).by_label(label)
            llv, fv = fmt(mp.re(Lprime_over_L_at_1(chi, prec))), fmt(F_chi(chi, prec))
            cells = [("alpha", chi.parity, alpha, 0), ("LpL1", llv, ell, tol), ("F_chi", fv, ef, tol)]
            rows.append((d, label, chi.parity, llv, ell, fv, ef, _status(tid, (d, label), cells)))
        return ("modulus", "label", "alpha", "LpL1", "expected", "F_chi", "expected_F", "status"), rows
    if tid == "T8":
        tol, tol_p = reference_data.TABLE8_TOL, reference_data.TABLE8_TOL_P
        for q, (eF, eG, eR, eB, eM, eP, efinal) in reference_data.TABLE8.items():
            bp = criterion.bound_params(q, prec)
            F, G, B, P = fmt(bp.F), fmt(bp.G), fmt(bp.B_signed), fmt(bp.P)
            final = fmt(bp.F - mp.mpf("1.2") * bp.R + bp.P)
            cells = [("F", F, eF, tol), ("G", G, eG, tol), ("R", bp.R, eR, 0), ("B", B, eB, tol),
                     ("M", bp.M, eM, 0), ("P", P, eP, tol_p), ("final", final, efinal, tol_p)]
            rows.append((q, F, G, bp.R, B, bp.M, P, final, _status(tid, q, cells)))
        return ("q", "F", "G", "R", "B", "M", "P", "final", "status"), rows
    for q, (c1, c2, exq) in reference_data.TABLE9.items():  # T9
        xq = criterion.x_q_threshold(q, c1)
        rows.append((q, c1, c2, xq, exq, _status(tid, q, [("floor_xq", xq, exq, reference_data.TABLE9_XQ_TOL)])))
    return ("q", "c1", "c2", "floor_xq", "expected", "status"), rows


def cmd_table(args) -> int:
    tid = args.table_id.upper()
    if tid in reference_data.TABLES_WITHOUT_DATA:
        sys.stderr.write(f"table {tid}: no published entries are bundled for this table\n")
        return EXIT_USAGE
    if tid not in _TABLE_IDS:
        sys.stderr.write(f"unknown table id {tid!r} (expected T1-T9)\n")
        return EXIT_USAGE
    header, rows = _table_rows(tid, args.prec_bits)
    _write(_emit(rows, header, args), args)
    return EXIT_MISMATCH if any("MISMATCH" in row[-1] for row in rows) else EXIT_OK


# -- figures -----------------------------------------------------------------


def cmd_figure(args) -> int:
    fid = args.figure_id.upper()
    meta = reference_data.FIGURES.get(fid)
    if meta is None:
        sys.stderr.write(f"unknown figure id {fid!r} (expected F1-F8)\n")
        return EXIT_USAGE
    given = {"--xmax": args.xmax is not None, "--sieve-limit": args.sieve_limit is not None}
    unread = {"landau": ("--xmax", "--sieve-limit"), "smooth-ratio": ("--xmax",)}.get(meta["kind"], ())
    for flag in unread:
        if given[flag]:
            raise ValueError(f"figure {fid} does not read {flag}")
    prec = args.prec_bits
    if meta["kind"] == "landau":
        lo, hi = meta["n_range"]
        rows = []
        with mp.workprec(prec):
            for n in range(lo, hi + 1):
                val = mp.mpf(n) / (totient(n) * mp.log(mp.log(n)))
                rows.append((n, fmt(val), "primorial" if n in meta["primorials"] else ""))
        _write(_emit(rows, ("n", "ratio", "marker"), args), args)
        return EXIT_OK
    if meta["kind"] == "smooth-ratio":
        from .primes import enumerate_smooth

        q, a, X = meta["q"], meta["a"], meta["range"][1]
        enum = enumerate_smooth(q, a, X, _primes_to(X, args))
        rows = []
        with mp.workprec(prec):
            inv_phi = mp.mpf(1) / totient(q)
            for n in enum.members:
                logn = mp.log(n)
                ratio = mp.mpf(n) / totient(n) / mp.log(totient(q) * logn) ** inv_phi
                rows.append((n, fmt(ratio), "primorial" if n in meta["primorials"] else ""))
        _write(_emit(rows, ("n", "ratio", "marker"), args), args)
        return EXIT_OK
    # log f series figures
    q = meta["q"]
    xmax = meta["xmax"] if args.xmax is None else args.xmax
    rows = []
    table = _primes_to(xmax, args)
    for a in meta["residues"]:
        ev = criterion.log_f_series(q, a, xmax, prec, table)
        for k, p, val in ev.rows:
            rows.append((q, a, k, p, fmt(val)))
    _write(_emit(rows, ("q", "a", "k", "pbar_k", "log_f"), args), args)
    return EXIT_OK


# -- sweep and scan ----------------------------------------------------------


def cmd_sweep(args) -> int:
    x_max = criterion.default_x_max(args.q) if args.xmax is None else args.xmax
    rep = criterion.sweep(args.q, args.a, args.prec_bits, _primes_to(x_max, args), x_max)
    rows = [
        ("q", rep.q),
        ("a", rep.a),
        ("x_max", rep.x_max),
        ("checked", rep.checked),
        ("max_log_f", fmt(rep.max_log_f)),
        ("argmax_prime", rep.argmax_prime),
        ("error_budget", fmt(rep.error_budget, 3)),
        ("verdict", rep.verdict),
    ]
    _write(_emit(rows, ("name", "value"), args), args)
    return EXIT_INCONCLUSIVE if rep.verdict == "inconclusive" else EXIT_OK


def cmd_scan(args) -> int:
    rows = []
    for q, Fv, minr, verdict in nicolas_condition_scan(args.q, args.prec_bits):
        rows.append((q, fmt(Fv), fmt(minr), "holds" if verdict else "fails"))
    _write(_emit(rows, ("q", "F_q", "min_2R", "criterion"), args), args)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="totprog", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    options = {
        "--q": dict(type=int, required=True),
        "--a": dict(type=int, default=1),
        "--prec-bits": dict(type=int, default=DEFAULT_PREC),
        "--sieve-limit": dict(type=int),
        "--xmax": dict(type=int),
        "--out": dict(type=str, default=None),
        "--format": dict(choices=("json", "csv"), default="json"),
    }
    # (name, help, positional argument and its help, handler, the options it reads)
    commands = (
        ("constants", "per-(q,a) constant bundle", None, cmd_constants,
         ("--q", "--a", "--prec-bits", "--out", "--format")),
        ("table", "recompute a published table and diff", ("table_id", "T1-T9"), cmd_table,
         ("--prec-bits", "--out", "--format")),
        ("figure", "emit data series for a figure", ("figure_id", "F1-F8"), cmd_figure,
         ("--prec-bits", "--sieve-limit", "--xmax", "--out", "--format")),
        ("sweep", "check log f < 0 up to the threshold", None, cmd_sweep, tuple(options)),
        ("scan", "Nicolas-type criterion scan over moduli", None, cmd_scan,
         ("--q", "--prec-bits", "--out", "--format")),
    )
    for name, help_, positional, func, flags in commands:
        sp = sub.add_parser(name, help=help_)
        if positional:
            sp.add_argument(positional[0], help=positional[1])
        for flag in flags:
            sp.add_argument(flag, **options[flag])
        sp.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check(args)
        return args.func(args)
    except (ValueError, KeyError, AssertionError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def run() -> None:
    """The console script: main() once gc.freeze() has moved the objects
    the imports made out of the collector's reach, so that no collection
    scans them again.  main() itself leaves the collector as it is, since
    tests call it in process."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
