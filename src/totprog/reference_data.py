"""Bundled published values: expected table entries, external constants
(c1, c2), figure metadata, and tolerances.

Numbers are stored as decimal strings so that output formatting and table
diffs never depend on binary float round-tripping.

A cell that does not reproduce its print is listed with its true value in
its table's own map (TABLE2_TRUNCATED, TABLE8_ERRATA), and the table diff
holds it to that value at the cell's tolerance.

Known errata in the published verification table (the computation disagrees
with the print at stated tolerance; each discrepancy is fully explained and
the headline conclusion -- every final column entry negative -- survives):

* q = 3: the printed P = 0.2668522 is a digit typo for 0.2669522; the
  printed final column -1.9736270 is consistent with the latter.
* q = 6: the printed G omits the principal character's contribution and the
  printed M is 1 although L(s, chi_0 mod 6) = zeta(s)(1-2^-s)(1-3^-s) has a
  double zero at s = 0 (correct G = 0.2561251, M = 2).  The printed P and
  final column are self-consistent with the erroneous G, M; the correct
  values are P = 0.2036587, final = -2.0369199.
* q = 8: the printed B is low by exactly log 2 (1.6412439 vs 2.3343911);
  P and the final column inherit the error (correct 0.6773711, -3.3693648).
* q = 12: the printed P was evaluated with B reduced by exactly (log 2)/2
  relative to the row's own (correct) printed B, consistent with using
  (log q)/2 instead of the sum of (log p)/2 over distinct p | q in the
  principal character's constant term.  Correct P = 0.5823331,
  final = -3.5725109.
* q = 14: the printed P was evaluated with M = 3 instead of the row's own
  (correct) printed M = 5.  Correct P = 0.5068062, final = -0.4790113.
"""

from __future__ import annotations

from fractions import Fraction

# ---------------------------------------------------------------------------
# Table T1: F_q for q = 1..14 (tolerance 1e-5)

TABLE1_FQ = {
    1: "0.04619",
    2: "0.04619",
    3: "0.15942",
    4: "0.20176",
    5: "0.60919",
    6: "0.15942",
    7: "1.41418",
    8: "0.75326",
    9: "1.41121",
    10: "0.60919",
    11: "4.26098",
    12: "0.64516",
    13: "6.45484",
    14: "1.41418",
}
TABLE1_TOL = "1e-5"

# ---------------------------------------------------------------------------
# Table T2: gamma_p and F_p for odd primes (tolerance 5e-6)

TABLE2 = {
    3: ("0.94550", "0.15942"),
    5: ("1.72062", "0.60919"),
    7: ("2.08759", "1.41418"),
    11: ("2.41542", "4.26098"),
    13: ("2.61076", "6.45484"),
    17: ("3.58198", "13.02067"),
    139: ("5.88917", "356.51847"),
    149: ("5.98342", "392.11323"),
}
TABLE2_TOL = "5e-6"

# (p, column) cells whose printed value was truncated rather than rounded to
# 5 decimals, so they sit just outside the 5e-6 rounding tolerance (by
# < 1e-6); the true value, which the diff holds them to instead.
TABLE2_TRUNCATED = {(11, "gamma"): "2.4154259", (13, "F"): "6.4548456"}

# ---------------------------------------------------------------------------
# Tables T3-T5: per-character data for q = 4, 8, 12 (tolerance 1e-6)
# rows: (modulus, label) -> (alpha, L'/L(1,chi), F(chi))

TABLE3 = {  # q = 4
    "chars": {(4, 3): (1, "0.2456096", "0.1555680")},
    "F1": "0.0461914",
    "Fq": "0.2017594",
}
TABLE4 = {  # q = 8
    "chars": {
        (8, 3): (1, "-0.0207114", "0.3160732"),
        (8, 5): (0, "0.6321150", "0.2354316"),
        (4, 3): (1, "0.2456096", "0.1555680"),
    },
    "F1": "0.0461914",
    "Fq": "0.7532641",
}
TABLE5 = {  # q = 12
    "chars": {
        (3, 2): (1, "0.3682816", "0.1132300"),
        (4, 3): (1, "0.2456096", "0.1555680"),
        (12, 11): (0, "0.4767499", "0.3301666"),
    },
    "F1": "0.0461914",
    "Fq": "0.6451560",
}
TABLE345_TOL = "1e-6"

# ---------------------------------------------------------------------------
# Table T8: verification constants per q
# columns: F, G, R (a=1), B (signed), M, P, final = F - 1.2 R + P
# tolerances: 1e-5 (F, G, B), exact (R, M), 1e-4 (P, final)

TABLE8 = {
    3: ("0.1594208", "0.0986123", 2, "2.2367697", 1, "0.2668522", "-1.9736270"),
    4: ("0.2017594", "0.0397208", 2, "2.2744923", 1, "0.2789234", "-1.9193172"),
    5: ("0.6091908", "0.2070784", 2, "2.3067140", 2, "0.3956888", "-1.3951204"),
    6: ("0.1594214", "0.1177920", 2, "1.5436226", 1, "0.2717779", "-1.9688008"),
    7: ("1.4141824", "0.2972734", 2, "1.7004570", 3, "0.6354003", "-0.3504173"),
    8: ("0.7532641", "0.0397208", 4, "1.6412439", 2, "0.6820415", "-3.3646943"),
    9: ("1.4112121", "0.0986123", 2, "2.0466109", 3, "0.6305706", "-0.3582173"),
    10: ("0.6091908", "0.8113486", 2, "0.9204197", 3, "0.3357980", "-1.4550112"),
    12: ("0.6451560", "0.5439353", 4, "1.2309413", 3, "0.5846683", "-3.5701757"),
    14: ("1.4141824", "0.9935082", 2, "-0.3789848", 5, "0.6550409", "-0.3307767"),
}
TABLE8_TOL = "1e-5"
TABLE8_TOL_P = "1e-4"

# (q, column) cells that do not reproduce (see module docstring); the
# corrected value, which the diff holds them to instead.
TABLE8_ERRATA = {
    (3, "P"): "0.2669524",
    (6, "G"): "0.2561251",
    (6, "M"): "2",
    (6, "P"): "0.2036587",
    (6, "final"): "-2.0369199",
    (8, "B"): "2.3343911",
    (8, "P"): "0.6773711",
    (8, "final"): "-3.3693648",
    (12, "P"): "0.5823331",
    (12, "final"): "-3.5725109",
    (14, "P"): "0.5068062",
    (14, "final"): "-0.4790113",
}

# ---------------------------------------------------------------------------
# Table T9: c1, c2 (external explicit-formula constants) and floor(x_q)

TABLE9 = {
    3: ("1.798158", "0.002238", 6535),
    4: ("1.780719", "0.002238", 6285),
    5: ("1.41248", "0.002785", 39805),
    6: ("1.798158", "0.002238", 6535),
    7: ("1.116838", "0.003248", 78764),
    8: ("1.817557", "0.002811", 109133),
    9: ("1.108042", "0.003228", 76312),
    10: ("1.41248", "0.002785", 39805),
    12: ("1.735501", "0.002781", 90720),
    14: ("1.105822", "0.003248", 75702),
}
TABLE9_XQ_TOL = 1  # floor(x_q) may differ by one unit in the last place of c1


def c1_of(q: int) -> Fraction | None:
    row = TABLE9.get(q)
    return Fraction(row[0]) if row else None


def printed_xq_floor(q: int) -> int | None:
    row = TABLE9.get(q)
    return row[2] if row else None


# ---------------------------------------------------------------------------
# Figure metadata.  Each log f figure plots the series at progression primes
# pbar_k < 50000 for the listed residues, with reference primorials and the
# threshold constant C(q, a) where the figure marks one.

FIGURES = {
    "F1": {
        "kind": "landau",
        "n_range": (29, 30055),
        "primorials": [30, 210, 2310, 30030],
        "description": "n/(phi(n) loglog n) over all n, with primorial markers",
    },
    "F2": {
        "kind": "smooth-ratio",
        "q": 5,
        "a": 1,
        "range": (11, 49991),
        "primorials": [11, 341, 13981],
        "threshold": "1.2252",
    },
    "F3": {
        "kind": "smooth-ratio",
        "q": 5,
        "a": 3,
        "range": (3, 49993),
        "primorials": [3, 39, 897, 38571],
        "threshold": "0.8060",
    },
    "F4": {"kind": "logf", "q": 3, "residues": [1, 2], "xmax": 50000},
    "F5": {"kind": "logf", "q": 5, "residues": [1, 4, 2, 3], "xmax": 50000},
    "F6": {"kind": "logf", "q": 6, "residues": [1, 5], "xmax": 50000},
    "F7": {"kind": "logf", "q": 7, "residues": [1, 2, 3, 4, 5, 6], "xmax": 50000},
    "F8": {"kind": "logf", "q": 10, "residues": [1, 9, 3, 7], "xmax": 50000},
}

TABLES_WITHOUT_DATA = ("T6", "T7")  # referenced ids with no published entries
