"""End-to-end acceptance checks against the bundled reference values.

Every numeric target and tolerance here comes from reference_data.  Cells
that the computation reproducibly disagrees with (documented errata in
reference_data's docstring) are strict xfails: the faithful computation is
asserted against the bundled value at the stated tolerance and is expected
to fail, with the corrected value checked in the companion erratum test.
"""

import time
from fractions import Fraction

import mpmath as mp
import pytest

import totprog.criterion as cr
import totprog.reference_data as rd
from lemmas import F_s, rs_bound
from oracles import F_p_primecalc, F_q_via_divisors, index_data_bruteforce, laurent_fit, log_f, mertens_C_naive
from totprog.characters import build_group, totient, units
from totprog.constants import (
    F_chi,
    F_q,
    G_q,
    gamma_p,
    index_data,
    mertens_C,
)
from totprog.lvalues import Lprime_over_L_at_1, structural_m0
from totprog.primes import enumerate_smooth, stats


def close(got, expected: str, tol: str) -> bool:
    return abs(mp.mpf(got) - mp.mpf(expected)) <= mp.mpf(tol)


# -- 1: F_q table ------------------------------------------------------------


def test_Fq_table_all_q_within_tolerance_and_time(prec):
    t0 = time.monotonic()
    for q, expected in rd.TABLE1_FQ.items():
        assert close(F_q(q, prec).value, expected, rd.TABLE1_TOL), q
    assert time.monotonic() - t0 < 120


# -- 2: gamma_p / F_p table --------------------------------------------------


@pytest.mark.parametrize("p,col", [(p, c) for p in rd.TABLE2 for c in ("gamma", "F")])
def test_prime_table_cells(p, col, prec):
    expected = rd.TABLE2[p][0 if col == "gamma" else 1]
    got = gamma_p(p, prec).value if col == "gamma" else F_p_primecalc(p, prec)
    if (p, col) in rd.TABLE2_TRUNCATED:
        # these entries were truncated, not rounded, in print: they sit just
        # outside the rounding tolerance, and the bundled value is the true one
        assert not close(got, expected, rd.TABLE2_TOL)
        assert close(got, rd.TABLE2_TRUNCATED[(p, col)], rd.TABLE2_TOL)
        assert mp.floor(mp.mpf(got) * 10**5) == int(expected.replace(".", ""))
    else:
        assert close(got, expected, rd.TABLE2_TOL)


@pytest.mark.parametrize("p", sorted(rd.TABLE2))
def test_prime_F_two_routes_agree(p, prec):
    # the closed form for prime modulus vs the general character sum
    assert abs(F_p_primecalc(p, prec) - F_q(p, prec).value) < 1e-9


# -- 3: per-character tables -------------------------------------------------


@pytest.mark.parametrize("tid", ["T3", "T4", "T5"])
def test_character_tables(tid, prec):
    data = {"T3": rd.TABLE3, "T4": rd.TABLE4, "T5": rd.TABLE5}[tid]
    q = {"T3": 4, "T4": 8, "T5": 12}[tid]
    for (d, label), (alpha, ell, ef) in data["chars"].items():
        chi = build_group(d).by_label(label)
        assert chi.parity == alpha
        assert close(mp.re(Lprime_over_L_at_1(chi, prec)), ell, rd.TABLE345_TOL)
        assert close(F_chi(chi, prec), ef, rd.TABLE345_TOL)
    assert close(F_q(q, prec).value, data["Fq"], rd.TABLE345_TOL)


# -- 4: verification-constants table -----------------------------------------

T8_COLS = ("F", "G", "R", "B", "M", "P", "final")


def _t8_computed(q, prec):
    bp = cr.bound_params(q, prec)
    final = bp.F - mp.mpf("1.2") * bp.R + bp.P
    return {"F": bp.F, "G": bp.G, "R": bp.R, "B": bp.B_signed, "M": bp.M,
            "P": bp.P, "final": final}


def _t8_check(q, col, expected, prec):
    got = _t8_computed(q, prec)[col]
    if col in ("R", "M"):
        assert got == int(expected)
    else:
        tol = rd.TABLE8_TOL_P if col in ("P", "final") else rd.TABLE8_TOL
        assert close(got, expected, tol)


@pytest.mark.parametrize(
    "q,col",
    [(q, c) for q in rd.TABLE8 for c in T8_COLS if (q, c) not in rd.TABLE8_ERRATA],
)
def test_verification_constants_cells(q, col, prec):
    _t8_check(q, col, rd.TABLE8[q][T8_COLS.index(col)], prec)


@pytest.mark.parametrize("q,col", sorted(rd.TABLE8_ERRATA))
@pytest.mark.xfail(
    strict=True,
    reason="bundled reference cell does not reproduce; see reference_data "
    "docstring for the analysis of each erratum",
)
def test_verification_constants_errata_cells_as_printed(q, col, prec):
    _t8_check(q, col, rd.TABLE8[q][T8_COLS.index(col)], prec)


@pytest.mark.parametrize("q,col", sorted(rd.TABLE8_ERRATA))
def test_verification_constants_errata_cells_corrected(q, col, prec):
    _t8_check(q, col, rd.TABLE8_ERRATA[(q, col)], prec)


def test_all_final_columns_negative(prec):
    for q in rd.TABLE8:
        assert _t8_computed(q, prec)["final"] < 0, q


# -- 5: unconditional thresholds ---------------------------------------------


def test_xq_floors_within_one():
    for q, (c1, _c2, expected) in rd.TABLE9.items():
        assert abs(cr.x_q_threshold(q, Fraction(c1)) - expected) <= rd.TABLE9_XQ_TOL


# -- 6: sweep below the thresholds -------------------------------------------


def test_sweep_all_moduli(prec, table):
    t0 = time.monotonic()
    for q in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14):
        rep = cr.sweep(q, 1, prec, table, cr.default_x_max(q))
        assert rep.verdict == "all negative", q
        assert rep.x_max >= max(rd.printed_xq_floor(q) or 0, 22027)
        # margin beats the propagated error of the Mertens-type constant
        assert -rep.max_log_f > rep.error_budget, q
    assert time.monotonic() - t0 < 300


# -- 7: figure datasets ------------------------------------------------------


def test_landau_figure_primorials():
    lo, hi = rd.FIGURES["F1"]["n_range"]
    marked = rd.FIGURES["F1"]["primorials"]
    assert all(lo <= n <= hi for n in marked)
    # each marker is a primorial: 2*3*...*p_k
    prod, p, sieve = 1, 2, [30, 210, 2310, 30030]
    found = []
    while prod <= hi:
        prod *= p
        if prod in marked:
            found.append(prod)
        p = next(m for m in range(p + 1, 2 * p) if all(m % d for d in range(2, m)))
    assert found == sieve == marked


@pytest.mark.parametrize("fid", ["F2", "F3"])
def test_smooth_figure_primorials_and_threshold(fid, prec, table):
    meta = rd.FIGURES[fid]
    q, a = meta["q"], meta["a"]
    enum = enumerate_smooth(q, a, meta["range"][1], table)
    members = set(enum.members)
    for n in meta["primorials"]:
        assert n in members
    seq = stats(q, a, table).primorials(len(meta["primorials"]))
    assert [round(mp.e**logn) for _, _, logn, _ in seq.entries] == meta["primorials"]
    # the threshold line of the figure is the Mertens-type constant itself
    c = mertens_C(q, a, prec).C.value
    assert abs(c - mp.mpf(meta["threshold"])) < 1e-4


def test_logf_figure_has_positive_value_for_nonsquare_mod_7(prec, table):
    meta = rd.FIGURES["F7"]
    squares = {pow(b, 2, 7) for b in units(7)}
    hit = False
    for a in meta["residues"]:
        ev = cr.log_f_series(7, a, meta["xmax"], prec, table)
        if a not in squares and any(v > 0 for _, _, v in ev.rows):
            hit = True
    assert hit


# -- 8: oracle equivalences --------------------------------------------------


def test_index_closed_form_equals_bruteforce_up_to_200():
    for q in range(1, 201):
        for a in units(q):
            assert index_data(q, a) == index_data_bruteforce(q, a), (q, a)


@pytest.mark.parametrize("q", list(range(1, 15)))
def test_structural_order_matches_laurent_fit(q, prec):
    for chi in build_group(q):
        fit_m0, _ = laurent_fit(chi, prec)
        assert abs(fit_m0 - structural_m0(chi)) < 1e-8, chi.label


@pytest.mark.parametrize("q", list(range(3, 15)))
def test_Fq_character_route_equals_divisor_route(q, prec):
    assert abs(F_q(q, prec).value - F_q_via_divisors(q, prec)) < 1e-9


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.xfail(
    strict=True,
    reason="the divisor regrouping of F_q is an identity only for q > 2; "
    "for q = 1, 2 it differs from the character sum by log 2, and the "
    "implementation rejects those moduli",
)
def test_Fq_divisor_route_small_q(q, prec):
    assert abs(F_q(q, prec).value - F_q_via_divisors(q, prec)) < 1e-9


def test_accelerated_C_consistent_with_naive_product(prec, table):
    for q, a in ((3, 1), (5, 1), (7, 3)):
        c = mertens_C(q, a, prec).C.value
        gaps = [abs(mertens_C_naive(q, a, x, table, prec) - c) for x in (10**4, 10**5, 10**6)]
        assert gaps[0] > gaps[1] > gaps[2]


@pytest.mark.parametrize("q,a", [(3, 2), (5, 3)])
@pytest.mark.xfail(
    strict=True,
    reason="truncated-product convergence oscillates for these progressions, "
    "so the discrepancy is not monotone at x = 1e4/1e5/1e6",
)
def test_accelerated_C_naive_monotonicity_oscillating_pairs(q, a, prec, table):
    c = mertens_C(q, a, prec).C.value
    gaps = [abs(mertens_C_naive(q, a, x, table, prec) - c) for x in (10**4, 10**5, 10**6)]
    assert gaps[0] > gaps[1] > gaps[2]


# -- 9: analytical invariants ------------------------------------------------


def test_orthogonality_exhaustive():
    import cmath

    for q in range(1, 201):
        grp = build_group(q)
        phi = totient(q)
        # pairwise orthogonality reduces to row sums via label arithmetic:
        # sum_n chi(n) conj(psi(n)) is the row sum of chi * conj(psi)
        for chi in grp:
            s = sum(
                cmath.exp(2j * cmath.pi * float(chi.exponent(n)))
                for n in units(q)
            )
            target = phi if chi.is_principal else 0
            assert abs(s - target) < 1e-9 * phi, (q, chi.label)
        for n in units(q):
            s = sum(
                cmath.exp(2j * cmath.pi * float(chi.exponent(n))) for chi in grp
            )
            target = phi if n % max(q, 2) == 1 % max(q, 2) else 0
            assert abs(s - target) < 1e-9 * phi, (q, n)


def test_logf_piecewise_constant(prec, table):
    for q, a in ((1, 1), (5, 3), (7, 1)):
        st = stats(q, a, table)
        ps = [p for p in st.pbar if p <= 2000][:20]
        for p, p_next in zip(ps, ps[1:]):
            if st.phi * float(st.theta(p)) <= 1:
                continue  # log f not yet defined
            mid = (p + p_next) // 2
            if mid == p:
                continue  # consecutive integers, no interior point
            left = log_f(p, q, a, prec, table)
            assert left == log_f(mid, q, a, prec, table)
            assert left != log_f(p_next, q, a, prec, table)


def test_totient_inequality_equivalent_to_logf_sign(prec, table):
    for q, a in ((5, 1), (5, 3)):
        mc = mertens_C(q, a, prec)
        seq = stats(q, a, table).primorials(50)
        with mp.workprec(prec):
            inv_c = 1 / mc.C.value
            for _k, p, logn, logphin in seq.entries:
                ratio = mp.e ** (logn - logphin) / mp.log(4 * logn) ** (mp.mpf(1) / 4)
                assert (log_f(p, q, a, prec, table) < 0) == (ratio > inv_c)


@pytest.mark.parametrize("x", [100, 10_000, 1_000_000])
def test_F_half_remainder_bound(x, prec):
    s = mp.mpf(1) / 2
    with mp.workprec(prec):
        lead = -mp.power(x, s - 1) / ((s - 1) * mp.log(x))
        assert abs(F_s(x, s, prec) - lead) <= rs_bound(x, s, prec)


def test_precision_doubling_of_published_constants():
    lo, hi = 128, 256
    for q in rd.TABLE1_FQ:
        assert abs(F_q(q, lo).value - F_q(q, hi).value) < 1e-20
    for q in (3, 10, 14):
        assert abs(G_q(q, lo).value - G_q(q, hi).value) < 1e-20
    for p in (3, 139):
        assert abs(gamma_p(p, lo).value - gamma_p(p, hi).value) < 1e-20
    assert abs(mertens_C(5, 3, lo).C.value - mertens_C(5, 3, hi).C.value) < 1e-20
    assert abs(cr.bound_params(7, lo).P - cr.bound_params(7, hi).P) < 1e-12
