"""log f evaluation, auxiliary integrals/bounds, thresholds, sweeps."""

import itertools
import math
import random

import mpmath as mp
import pytest
from mpmath import iv

from lemmas import (
    F_s,
    S,
    XqCheckReport,
    empirical_xq_check,
    g,
    grh_bound_check,
    jhat_bound,
    jhat_signed_bound,
    k_truncated,
    p_q_of_x,
    rs_bound,
)
from oracles import (
    P_q_trisection_mp,
    float_screen_per_point,
    log_f,
    p_q_grid,
    p_q_grid_argmax,
    p_q_mp,
    running_sums,
    running_sums_bound,
)
from totprog import criterion as cr
from totprog import reference_data
from totprog.characters import totient, units
from totprog.constants import F_q, mertens_C
from totprog.lvalues import Approx, eps
from totprog.primes import PrimeTable, ProgressionStats, stats


# -- g and F_s ---------------------------------------------------------------


def test_g_values():
    assert abs(g(mp.e) - 2 / mp.e**2) < 1e-15
    assert abs(g(mp.e**2) - 3 / (4 * mp.e**4)) < 1e-15
    with pytest.raises(ValueError):
        g(1)


def test_F0_exact(prec):
    # int_x^inf g dt = 1/(x log x)
    for x in (10, 100, 5000):
        with mp.workprec(prec):
            want = 1 / (mp.mpf(x) * mp.log(x))
        assert abs(F_s(x, 0, prec) - want) < 1e-20


@pytest.mark.parametrize("s", [0.5, -1, 0.25, complex(0.5, 14.13)])
def test_F_s_against_direct_quadrature(s, prec):
    x = 50
    with mp.workprec(prec):
        direct = mp.quad(lambda t: mp.power(t, s) * g(t), [x, mp.inf])
    assert abs(F_s(x, s, prec) - direct) < 1e-18


def test_F_s_domain(prec):
    with pytest.raises(ValueError):
        F_s(100, 1.5, prec)
    with pytest.raises(ValueError):
        F_s(0.5, 0, prec)


@pytest.mark.parametrize("x", [100, 10_000, 1_000_000])
def test_F_half_remainder_within_bound(x, prec):
    """Lemma-style bound: F_{1/2}(x) = -x^{-1/2}/((s-1) log x) + r with
    |r| <= |s/(1-s)^2| x^{-1/2}/log^2 x (1 + 2/(log x / 2))."""
    s = mp.mpf(1) / 2
    with mp.workprec(prec):
        lead = -mp.power(x, s - 1) / ((s - 1) * mp.log(x))
        r = F_s(x, s, prec) - lead
        assert abs(r) <= rs_bound(x, s, prec)
        # the remainder is genuinely smaller than the leading term here
        assert abs(r) < abs(lead)


def test_rs_bound_positive_and_decreasing(prec):
    vals = [rs_bound(x, 0.5, prec) for x in (100, 10_000, 1_000_000)]
    assert vals[0] > vals[1] > vals[2] > 0


@pytest.mark.parametrize("x,s", [(0.5, 0.5), (1, 0.5), (10, 2), (10, 1)])
def test_rs_bound_domain(x, s, prec):
    # outside F_s's domain the closed form used to return a number, as
    # -28.09 at (0.5, 0.5) and 7.05 at (10, 2)
    with pytest.raises(ValueError):
        rs_bound(x, s, prec)


# -- log f -------------------------------------------------------------------


def test_log_f_hand_oracle_first_step(prec, table):
    """At x = pbar_1 = 3 for (5,3): log f = loglog(4 log 3)/4 + log(2/3) - log C."""
    with mp.workprec(prec):
        want = (
            mp.log(mp.log(4 * mp.log(3))) / 4
            + mp.log(mp.mpf(2) / 3)
            - mertens_C(5, 3, prec).log_C
        )
        assert abs(log_f(3, 5, 3, prec, table) - want) < eps(prec, 10)


def test_log_f_piecewise_constant(prec, table):
    """f only changes at progression primes: values at interior points match
    the value at the previous step point."""
    for q, a in ((3, 1), (5, 3), (10, 9)):
        st = stats(q, a, table)
        for i in range(min(50, len(st.pbar) - 1)):
            p, nxt = st.pbar[i], st.pbar[i + 1]
            mid = (p + nxt) // 2
            if mid == p:
                continue
            assert log_f(mid, q, a, prec, table) == log_f(p, q, a, prec, table)


def test_log_f_requires_a_prime_below(prec, table):
    with pytest.raises(ValueError):
        log_f(10, 5, 1, prec, table)  # first prime = 1 mod 5 is 11


def test_log_f_series_matches_pointwise(prec, table):
    ev = cr.log_f_series(7, 1, 5000, prec, table)
    assert ev.rows[0][1] == 29
    for k, p, val in ev.rows[:20]:
        assert abs(val - log_f(p, 7, 1, prec, table)) < 1e-40


def test_log_f_negative_for_q1(prec, table):
    ev = cr.log_f_series(1, 1, 49_999, prec, table)
    # log f is undefined at x = 2 (theta = log 2 < 1); the series starts at 3
    assert ev.rows[0][1] == 3
    assert all(v < 0 for _, _, v in ev.rows)
    with pytest.raises(ValueError):
        log_f(2, 1, 1, prec, table)


def test_log_f_positive_for_nonsquare_mod_7(prec, table):
    # nonsquare residues mod 7 carry C < 1 progressions with positive log f
    ev = cr.log_f_series(7, 3, 50_000, prec, table)
    positives = [p for _, p, v in ev.rows if v > 0]
    assert positives


def test_primorial_inequality_equivalence(prec, table):
    """log f(pbar_k) < 0 iff Nbar/(phi(Nbar)(log(phi log Nbar))^(1/phi))
    exceeds 1/C, on the first 50 primorials of (5,1) and (5,3)."""
    for q, a in ((5, 1), (5, 3)):
        mc = mertens_C(q, a, prec)
        seq = stats(q, a, table).primorials(50)
        with mp.workprec(prec):
            inv_c = 1 / mc.C.value
            for k, p, logn, logphin in seq.entries:
                ratio = mp.e ** (logn - logphin) / mp.log(4 * logn) ** (mp.mpf(1) / 4)
                lf = log_f(p, q, a, prec, table)
                assert (lf < 0) == (ratio > inv_c)
                # and the identity log f = log(1/C) - log(ratio-ish) holds:
                assert abs(lf - (mp.log(inv_c) - mp.log(ratio))) < 1e-12


# -- truncated K integral ----------------------------------------------------


def test_k_truncated_against_quadrature(prec, table):
    """Piecewise-exact integral of S(t) g(t) vs adaptive quadrature with
    step points listed as singularities."""
    q, a, x, T = 3, 1, 10, 500
    st = stats(q, a, table)
    pts = [x] + [p for p in st.pbar if x < p <= T] + [T]
    with mp.workprec(prec):
        direct = mp.quad(lambda t: S(st, t) * g(t), pts)
    val = k_truncated(x, T, q, a, prec, table)
    assert abs(val.value - direct) < 1e-12
    assert val.tail_estimate > 0


def test_k_truncated_mertens_identity(prec, table):
    """sum 1/pbar = S/(x log x) + loglog(x)/phi - K + M: with K truncated at
    T near the sieve limit the drift is below the heuristic tail estimate."""
    q, a = 4, 1
    st = stats(q, a, table)
    mc = mertens_C(q, a, prec)
    x = 10_001
    T = 1_999_999
    kt = k_truncated(x, T, q, a, prec, table)
    with mp.workprec(prec):
        recip = mp.fsum(mp.mpf(1) / p for p in st.pbar if p <= x)
        rhs = (
            S(st, x) / (x * mp.log(x))
            + mp.log(mp.log(x)) / st.phi
            - (kt.value + 0)
            + mc.M.value
        )
        assert abs(recip - rhs) < 10 * kt.tail_estimate + 1e-6


def test_k_truncated_tail_on_a_fresh_build(prec):
    """The tail estimate reads theta at the sieve limit, so k_truncated gives
    the same bits on a fresh object and after a walk over every progression
    prime has stored every whole-block checkpoint."""
    small = PrimeTable(20_000)
    fresh = k_truncated(100, 1000, 3, 1, prec, small)
    st_ = stats(3, 1, small)
    st_.primorials(len(st_.pbar))  # walk every progression prime, keeping every whole block
    full = k_truncated(100, 1000, 3, 1, prec, small)
    assert fresh.value._mpf_ == full.value._mpf_
    assert fresh.tail_estimate._mpf_ == full.tail_estimate._mpf_


def test_k_truncated_validations(prec, table):
    with pytest.raises(ValueError):
        k_truncated(100, 50, 3, 1, prec, table)
    with pytest.raises(ValueError):
        k_truncated(10, 10**9, 3, 1, prec, table)


# -- J-hat bounds and p_q ----------------------------------------------------


def test_jhat_bounds(prec):
    # absolute-aggregate bound is positive; both shrink like 1/(x log x)
    for q in (3, 8, 14):
        b1 = jhat_bound(10**4, q, prec)
        b2 = jhat_bound(10**6, q, prec)
        assert b1 > b2 > 0
    with pytest.raises(ValueError):
        jhat_bound(10, 3, prec)
    # signed variant can be negative (it is an upper bound, not a magnitude)
    assert jhat_signed_bound(10**4, 3, prec) < jhat_bound(10**4, 3, prec)


P_EXPECTED = {  # corrected values; print differs for 3, 6, 8, 12, 14
    3: "0.2669524",
    4: "0.2789234",
    5: "0.3956888",
    6: "0.2036587",
    7: "0.6354003",
    8: "0.6773711",
    9: "0.6305706",
    10: "0.3357980",
    12: "0.5823331",
    14: "0.5068062",
}


@pytest.mark.parametrize("q", list(P_EXPECTED))
def test_P_q(q, prec):
    assert abs(cr.bound_params(q, prec).P - mp.mpf(P_EXPECTED[q])) < 1e-6


def test_P_q_attained_at_left_endpoint(prec):
    # p_q decreases from e^10 on for these moduli
    for q in (3, 7, 14):
        p_left = p_q_of_x(mp.e**10, q, prec)
        assert abs(cr.bound_params(q, prec).P - p_left) < 1e-12
        assert p_q_of_x(10**12, q, prec) < p_left


@pytest.mark.parametrize("q", [3, 7, 14])
def test_P_q_grid_evaluates_the_p_q_formula(q, prec, monkeypatch):
    """_P_q_from reads p_q in doubles at the grid points _p_q_search
    evaluates; those values are the mp formula's to 1e-12, P is bound_params'
    bit for bit, and the refined P is at least their maximum."""
    bp = cr.bound_params(q, prec)
    real, searched = cr._p_q_search, []
    monkeypatch.setattr(cr, "_p_q_search", lambda *args: searched.append(real(*args)) or searched[-1])
    P = cr._P_q_from(q, bp.F, bp.G, bp.R, bp.B_signed, bp.M, prec)
    (points,) = searched
    assert P._mpf_ == bp.P._mpf_
    with mp.workprec(prec):
        for i, (v, _) in points.items():
            x = math.exp(cr._P_LO + i * cr._P_STEP)
            assert abs(v - p_q_mp(mp.mpf(x), totient(q), bp.F, bp.G, bp.R, bp.B_signed, bp.M)) < 1e-12
        assert P >= max(v for v, _ in points.values()) - 1e-12


def _p_q_floats(q, prec):
    bp = cr.bound_params(q, prec)
    return totient(q), float(bp.F), float(bp.G), bp.R, float(bp.B_signed), bp.M


def test_p_q_grid_points_rise():
    """The grid points exp(_P_LO + i _P_STEP) rise with i, as _p_q_search's
    bound needs: math.exp keeps their order."""
    xs = [math.exp(cr._P_LO + i * cr._P_STEP) for i in range(cr._P_GRID + 1)]
    assert all(a < b for a, b in zip(xs, xs[1:])) and xs[0] > math.exp(9)


@pytest.mark.parametrize("q", [*range(1, 61), 101, 139, 149])
def test_P_q_search_matches_the_full_scan(q, prec):
    """Branch and bound returns the full scan's argmax (the first on ties)
    and its value, bit for bit, from at most 500 evaluations; every value it
    reads is the scan's; and each cell it leaves, between consecutive
    evaluated indices, has a bound at least every scanned value in it and,
    where it holds a grid point inside, below the maximum.  The bound at a
    single point covers the value there, which needs the rounding
    allowance."""
    args = _p_q_floats(q, prec)
    grid = p_q_grid(*args)
    points = cr._p_q_search(*args)
    best = max(v for v, _ in points.values())
    assert (min(i for i, (v, _) in points.items() if v == best), best) == p_q_grid_argmax(*args)
    assert len(points) <= 500
    assert all(v == grid[i] for i, (v, _) in points.items())
    ends = sorted(points)
    assert ends[0] == 0 and ends[-1] == cr._P_GRID
    for i, j in zip(ends, ends[1:]):
        bound = cr._p_q_bound(points[i][1], points[j][1])
        assert max(grid[i : j + 1]) <= bound
        assert j - i == 1 or bound < best
    for v, terms in points.values():
        assert v <= cr._p_q_bound(terms, terms)


def test_P_q_against_the_mp_trisection(prec):
    """The double-precision trisection gives the mpf trisection's P bit for
    bit where the maximum is at an end of [e^10, 1e16] (every q <= 30 but
    2 and 6), and to 1e-15 where it is inside."""
    inside = []
    for q in range(1, 31):
        bp = cr.bound_params(q, prec)
        want = P_q_trisection_mp(q, bp.F, bp.G, bp.R, bp.B_signed, bp.M, prec)
        with mp.workprec(prec):
            ends = [p_q_mp(x, totient(q), bp.F, bp.G, bp.R, bp.B_signed, bp.M) for x in (mp.e**10, mp.mpf(10) ** 16)]
        if any(want._mpf_ == end._mpf_ for end in ends):
            assert bp.P._mpf_ == want._mpf_
        else:
            inside.append(q)
            assert abs(bp.P - want) < 1e-15
    assert inside == [2, 6]


def test_final_column_negative(prec):
    for q in P_EXPECTED:
        bp = cr.bound_params(q, prec)
        assert bp.F - mp.mpf("1.2") * bp.R + bp.P < 0


def _p_q_term_uppers(X, phi, F, G, R, B, M) -> list:
    """Upper ends of outward-rounded enclosures of p_q's five terms, with
    the mp constants F, G and B, on the interval X (mpmath iv)."""
    F, G, B = iv.mpf(F), iv.mpf(G), iv.mpf(B)
    lx, sx = iv.log(X), iv.sqrt(X)
    n_log, n_sqrt = 3 * F + iv.mpf("1.2") * R, iv.mpf("0.01") * phi - B - M
    terms = n_log / lx, (1 + 2 / lx) * G / sx, n_sqrt / sx, -M * lx / sx, phi * sx * lx / (2 * (X - 1))
    return [t.b for t in terms]


def _p_q_certified_upper(q, prec) -> mp.mpf:
    """An upper bound on p_q over [e^10, inf), for the exact p_q with
    bound_params' F, G and B: over each cell _p_q_search leaves, the sum of
    each term's larger end (the terms are monotone there), each end an
    outward-rounded enclosure at iv's 53 bits, the first end hulled with
    e^10; and beyond 1e16 <= x_(_P_GRID), the positive parts of the five
    terms at 1e16, since each term is monotone and tends to 0."""
    bp = cr.bound_params(q, prec)
    args = totient(q), bp.F, bp.G, bp.R, bp.B_signed, bp.M
    ends = sorted(cr._p_q_search(*_p_q_floats(q, prec)))
    e10 = iv.exp(10)
    xs = [iv.mpf(math.exp(cr._P_LO + i * cr._P_STEP)) for i in ends]
    xs[0] = iv.mpf([min(e10.a, xs[0].a), max(e10.b, xs[0].b)])
    uppers = [_p_q_term_uppers(X, *args) for X in xs]
    cells = [sum((iv.mpf(max(a, b)) for a, b in zip(ui, uj)), iv.mpf(0)).b for ui, uj in zip(uppers, uppers[1:])]
    tail = sum((iv.mpf(max(t, 0)) for t in _p_q_term_uppers(iv.mpf(10) ** 16, *args)), iv.mpf(0)).b
    return mp.mpf(max(*cells, tail))


@pytest.mark.parametrize("q", list(P_EXPECTED))
def test_P_q_certified_upper_bound(q, prec):
    """The outward-rounded cell bounds over _p_q_search's final cells, with
    the tail beyond 1e16, bound p_q: they are at least a dense mp evaluation
    of p_q and the printed P; each of p_q's five terms is monotone on a
    20,000-cell log grid of [e^10, 1e16]; and F + F.err - 1.2 R plus the
    bound is negative, as every published final value is."""
    bp = cr.bound_params(q, prec)
    phi = totient(q)
    upper = _p_q_certified_upper(q, prec)
    with mp.workprec(prec):
        dense = (mp.e ** (10 + k * (16 * mp.log(10) - 10) / 2000) for k in range(2001))
        assert upper >= max(p_q_mp(x, phi, bp.F, bp.G, bp.R, bp.B_signed, bp.M) for x in dense)
        assert upper >= bp.P
    _, F, G, R, B, M = _p_q_floats(q, prec)
    n_log, n_sqrt = 3 * F + 1.2 * R, 0.01 * phi - B - M
    step = (math.log(1e16) - 10) / 20_000
    xs = [math.exp(10 + i * step) for i in range(20_001)]
    columns = [
        [n_log / math.log(x) for x in xs],
        [(1 + 2 / math.log(x)) * G / math.sqrt(x) for x in xs],
        [n_sqrt / math.sqrt(x) for x in xs],
        [-M * math.log(x) / math.sqrt(x) for x in xs],
        [phi * math.sqrt(x) * math.log(x) / (2 * (x - 1)) for x in xs],
    ]
    for column in columns:
        steps = [b - a for a, b in zip(column, column[1:])]
        assert all(d <= 0 for d in steps) or all(d >= 0 for d in steps)
    assert mp.mpf(reference_data.TABLE8[q][-1]) < 0
    Fq = F_q(q, prec)
    assert (iv.mpf(Fq.value) + iv.mpf(Fq.err) - iv.mpf("1.2") * bp.R + iv.mpf(upper)).b < 0


def test_grh_bound_negative_beyond_threshold(prec):
    for q in (3, 7, 12):
        assert grh_bound_check(q, 10**6, prec) < 0
    with pytest.raises(ValueError):
        grh_bound_check(3, 100, prec)


def test_grh_bound_needs_a_bundled_x_q(prec):
    # with x_q(11) unknown the range check used to be skipped: 0.1085 at x = 10 < e^4
    assert cr.bound_params(11, prec).x_q is None
    with pytest.raises(ValueError):
        grh_bound_check(11, 10, prec)
    with pytest.raises(ValueError):
        grh_bound_check(11, 10**6, prec)


# -- x_q and the sweep -------------------------------------------------------


XQ_PRINTED = {3: 6535, 4: 6285, 5: 39805, 6: 6535, 7: 78764, 8: 109133,
              9: 76312, 10: 39805, 12: 90720, 14: 75702}


def test_x_q_threshold_within_one(prec):
    from totprog.reference_data import c1_of

    for q, printed in XQ_PRINTED.items():
        ours = cr.x_q_threshold(q, c1_of(q))
        assert abs(ours - printed) <= 1
    with pytest.raises(ValueError):
        cr.x_q_threshold(3, 0)


def test_x_q_exact_rational():
    # floor((2 * 1.798158 * 5/2)^4) computed without float rounding
    from fractions import Fraction

    v = (Fraction(2) * Fraction("1.798158") * Fraction(5, 2)) ** 4
    assert cr.x_q_threshold(3, "1.798158") == v.numerator // v.denominator


def test_empirical_xq_check(prec, table):
    rep = empirical_xq_check(3, 10**8, prec, table)
    assert rep.holds and rep.first_violation is None
    rep5 = empirical_xq_check(5, 10**8, prec, table)
    assert rep5.holds


def _first_failure_by_scan(q, x_q, X, table):
    """Least integer x in (x_q, X] with theta(sqrt x; q, b) phi <= 0.6 sqrt x
    for some unit b, by trying every x (theta(sqrt x) = theta(isqrt x))."""
    phi = totient(q)
    per_unit = [stats(q, b, table) for b in units(q)]
    with mp.workprec(192):
        for x in range(x_q + 1, X + 1):
            if any(s.theta(math.isqrt(x)) * phi <= mp.mpf("0.6") * mp.sqrt(x) for s in per_unit):
                return x
    return None


@pytest.mark.parametrize(
    "q,x_q,first",
    [
        (3, 4, 5),
        (5, 2, 3),
        (3, 500, 618),
        (3, 1000, 1318),
        (4, 1000, 1196),
        (5, 1000, 1331),
        (3, 30, 31),  # sqrt(30) is irrational: a rounded y^2 must not push this to 32
        (3, 150, 151),
    ],
)
def test_empirical_xq_check_reports_first_violation(q, x_q, first, prec, table, monkeypatch):
    """Below the true threshold theta(sqrt x)/sqrt x > 0.6/phi fails early;
    the report names the least failing x, as a scan over every x finds."""
    real = cr.bound_params
    monkeypatch.setattr(cr, "bound_params", lambda q, c: real(q, c)._replace(x_q=x_q))
    assert _first_failure_by_scan(q, x_q, 10**4, table) == first
    rep = empirical_xq_check(q, 10**4, prec, table)
    assert rep == XqCheckReport(q, x_q, 10**4, False, first)


def test_log_f_series_refuses_xmax_past_the_sieve(prec):
    with pytest.raises(ValueError, match="exceeds sieve limit"):
        cr.log_f_series(7, 1, 50_001, prec, PrimeTable(50_000))


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14])
def test_sweep_all_negative(q, prec, table):
    rep = cr.sweep(q, 1, prec, table, cr.default_x_max(q))
    assert rep.verdict == "all negative"
    assert rep.max_log_f < 0
    assert -rep.max_log_f > rep.error_budget
    assert rep.x_max >= 22027
    assert rep.checked > 0


# max(floor(x_q), printed floor(x_q), 22027) per modulus
_DEFAULT_X_MAX = {1: 22027, 2: 22027, 3: 22027, 4: 22027, 5: 39805, 6: 22027, 7: 78764, 8: 109133, 9: 76312, 10: 39805, 12: 90720, 14: 75702}


def test_sweep_default_x_max_needs_no_bound_params(prec, table, monkeypatch):
    """The default x_max reads x_q from the bundled c1 alone: a sweep
    computes none of F_q, G_q, B, M and P_q."""

    def refuse(*_args):
        raise AssertionError("sweep called bound_params")

    monkeypatch.setattr(cr, "bound_params", refuse)
    assert {q: cr.sweep(q, 1, prec, table, cr.default_x_max(q)).x_max for q in _DEFAULT_X_MAX} == _DEFAULT_X_MAX


def test_sweep_detects_violation(prec, table):
    rep = cr.sweep(7, 3, prec, table, cr.default_x_max(7))  # nonsquare residue: f exceeds 1
    assert rep.verdict == "violation"


@pytest.mark.parametrize("a", [1, 3])
def test_sweep_verdict_weighs_the_budget(a, prec, table, monkeypatch):
    """A maximum within the budget of 0 is inconclusive, whichever its sign:
    for (7, 1) it is -2.2e-4, for (7, 3) positive."""
    real = cr.mertens_C

    def loose(q, a, c):
        mc = real(q, a, c)
        return mc._replace(C=Approx(mc.C.value, mc.C.value))

    monkeypatch.setattr(cr, "mertens_C", loose)
    rep = cr.sweep(7, a, prec, table, cr.default_x_max(7))
    assert (rep.max_log_f > 0) == (a == 3)
    assert abs(rep.max_log_f) <= rep.error_budget
    assert rep.verdict == "inconclusive"


@pytest.mark.parametrize("q", [3, 7, 14])
def test_sweep_budget_covers_the_mp_rounding(q, prec, table):
    """The budget adds the prec rounding of theta and log(1 - 1/p) at the
    maximum to the error of C, and covers the change at 64 more bits."""
    rep = cr.sweep(q, 1, prec, table, cr.default_x_max(q))
    finer = cr.sweep(q, 1, prec + 64, table, rep.x_max)
    assert finer.argmax_prime == rep.argmax_prime
    assert abs(rep.max_log_f - finer.max_log_f) <= rep.error_budget
    mc = mertens_C(q, 1, prec)
    with mp.workprec(prec):
        assert rep.error_budget > mc.C.err / mc.C.value + 2 * eps(prec, 1)


# the 12 moduli of the paper's sweep at their default x_max, a residue with
# log f > 0, and two longer runs
SWEEP_CASES = [(q, 1, None) for q in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14)] + [
    (7, 3, None),
    (1, 1, 200_000),
    (7, 1, 200_000),
]


def _point_bound(st_, k, log_C, prec):
    """Bound on the prec rounding of log f at the k-th point, from
    point_sums' stated bound: _rounding_bound as _sweep_report takes it."""
    (theta, log1m), errs = st_.point_sums(k), st_.point_bound(k)
    with mp.workprec(prec):
        u = mp.ldexp(1, -prec)
        lam = mp.log(st_.phi * theta)
        g = mp.log(lam) / st_.phi
        return cr._rounding_bound(errs[0] / theta, errs[1], st_.phi, lam, lam, g, log1m, log_C, u, 4 * u)


@pytest.mark.parametrize("q,a,x_max", SWEEP_CASES)
def test_two_tier_sweep_matches_the_series(q, a, x_max, prec, table):
    """The sweep reports what the rows of log_f_series give, bit for bit:
    their number, their maximum and its prime (the first on ties), the
    verdict and the budget, after evaluating at most 5 points at prec.
    A sweep at 64 more bits agrees within point_sums' stated bounds."""
    rep = cr.sweep(q, a, prec, table, x_max or cr.default_x_max(q))
    assert 1 <= rep.escalated <= 5
    ev = cr.log_f_series(q, a, rep.x_max, prec, table)
    k, p, worst = max(ev.rows, key=lambda row: row[2])
    st_, mc = stats(q, a, table), mertens_C(q, a, prec)
    want = cr._sweep_report(q, a, rep.x_max, st_, mc, prec, len(ev.rows), (worst, k, p), rep.escalated)
    assert rep == want
    assert rep.max_log_f._mpf_ == want.max_log_f._mpf_
    assert rep.error_budget._mpf_ == want.error_budget._mpf_

    fine = prec + 64
    finer = cr.sweep(q, a, fine, table, rep.x_max)
    assert (finer.checked, finer.argmax_prime, finer.verdict) == (rep.checked, rep.argmax_prime, rep.verdict)
    fine_C = mertens_C(q, a, fine).log_C
    with mp.workprec(fine):  # log f less log C at each precision
        gap = abs(rep.max_log_f + mc.log_C - finer.max_log_f - fine_C)
    assert gap <= _point_bound(st_, k, mc.log_C, prec) + _point_bound(stats(q, a, table, fine), k, fine_C, fine)


# the escalated points of the sweeps above, and of the two fullrange ones
FULLRANGE = [(1, 1, 2_000_000), (7, 1, 2_000_000)]
ORACLE_CASES = SWEEP_CASES[:-2] + FULLRANGE


@pytest.mark.parametrize("q,a,x_max", SWEEP_CASES + FULLRANGE)
def test_chunked_screen_is_the_per_point_screen(q, a, x_max, prec, table):
    """Point by point, the chunked screen's value is the per-point
    recurrence's bit for bit, and its chunk's bound E is at least the
    point's own bound.  Chunks hold 1, 1, 2, 4, ... points, up to _CHUNK."""
    x_max = x_max or cr.default_x_max(q)
    st_, log_C = stats(q, a, table), mertens_C(q, a, prec).log_C
    points = float_screen_per_point(st_, x_max, log_C, prec)
    sizes = []
    for k0, ps, fs, err in cr._float_screen(st_, x_max, log_C, prec):
        sizes.append(len(ps))
        for k, p, f in zip(itertools.count(k0), ps, fs):
            want_k, want_p, want_f, own = next(points)
            assert (k, p, f.hex()) == (want_k, want_p, want_f.hex())
            assert own <= err, (k, own, err)
    assert next(points, None) is None
    assert sizes[:-1] == [min(max(k - 1, 1), cr._CHUNK) for k in itertools.accumulate(sizes[:-2], initial=1)]
    assert 1 <= sizes[-1] <= cr._CHUNK


@pytest.mark.parametrize("q,a,x_max", ORACLE_CASES)
def test_point_sums_match_the_running_sums_where_the_sweep_reads_them(q, a, x_max, prec, table, monkeypatch):
    """At every point the sweep evaluates in mp, point_sums is within
    point_bound plus running_sums_bound of the oracle's running sums."""
    read = set()
    real = ProgressionStats.point_sums
    monkeypatch.setattr(ProgressionStats, "point_sums", lambda self, k: read.add(k) or real(self, k))
    rep = cr.sweep(q, a, prec, table, x_max or cr.default_x_max(q))
    assert len(read) == rep.escalated
    st_ = stats(q, a, table)
    theta, log1m = running_sums(st_.pbar[: max(read)], prec)
    with mp.workprec(prec + 64):
        for k in read:
            got = real(st_, k)
            want = theta[k - 1], log1m[k - 1]
            bounds = [b + r for b, r in zip(st_.point_bound(k), running_sums_bound(k, *want, prec))]
            for g, w, b in zip(got, want, bounds):
                assert abs(g - w) <= b, (k, g, w, b)


def test_sweep_leaves_the_running_sums_empty(prec):
    small = PrimeTable(200_000)
    rep = cr.sweep(1, 1, prec, small, 200_000)
    log_f(150_000, 1, 1, prec, small)
    st_ = stats(1, 1, small)
    assert rep.argmax_prime == st_.pbar[-1] and rep.verdict == "all negative"
    assert st_.theta_cum == st_.log1m_cum == []


def test_near_tie_goes_to_the_mp_tier(prec, table, monkeypatch):
    """A point whose float value falls below the largest lower bound so far
    still holds the maximum when its bound E reaches it: the screen keeps
    it for the mp tier.  Here the float value at the true argmax is moved
    just below that floor, and E widened to cover the move."""
    want = cr.sweep(7, 1, prec, table, cr.default_x_max(7))
    k_max = stats(7, 1, table).pbar.index(want.argmax_prime) + 1
    assert k_max > 1
    real = cr._float_screen

    def tied(st_, x_max, log_C, prec):
        # the chunk holding k_max is yielded in three, k_max alone in the middle
        floor = -math.inf
        for k0, ps, fs, err in real(st_, x_max, log_C, prec):
            i = k_max - k0
            cuts = (0, i, i + 1, len(ps)) if 0 <= i < len(ps) else (0, len(ps))
            for lo, hi in zip(cuts, cuts[1:]):
                part, e = fs[lo:hi], err
                if k0 + lo == k_max:
                    low = min(part[0], floor) - e
                    part, e = [low], e + abs(part[0] - low)
                if part:
                    floor = max(floor, max(part) - e)
                    yield k0 + lo, ps[lo:hi], part, e

    monkeypatch.setattr(cr, "_float_screen", tied)
    rep = cr.sweep(7, 1, prec, table, cr.default_x_max(7))
    assert rep.escalated == want.escalated + 1  # the point that set the floor is kept too
    assert rep == want._replace(escalated=rep.escalated)


@pytest.mark.parametrize("q,a,x_max", SWEEP_CASES)
def test_float_screen_bounds_the_series(q, a, x_max, prec, table):
    """At every point of log_f_series, the float tier's value is within its
    bound E of the mp value; where log f is undefined, E is inf."""
    x_max = x_max or cr.default_x_max(q)
    rows = {k: val for k, _, val in cr.log_f_series(q, a, x_max, prec, table).rows}
    screened = 0
    with mp.workprec(prec):
        for k0, _, fs, err in cr._float_screen(stats(q, a, table), x_max, mertens_C(q, a, prec).log_C, prec):
            for k, f in enumerate(fs, k0):
                if k in rows:
                    assert abs(f - rows[k]) <= err, k
                    screened += 1
                else:
                    assert err == math.inf
    assert screened == len(rows)


def test_unbounded_points_go_to_the_mp_tier(prec, table, monkeypatch):
    """Points the float tier cannot bound are evaluated at prec and
    counted where log f is defined, so the report does not change."""
    want = cr.sweep(1, 1, prec, table, 5000)
    real = cr._float_screen
    # the chunks of k = 1, 2 and 3..4
    monkeypatch.setattr(
        cr, "_float_screen", lambda *args: ((k0, ps, fs, math.inf if k0 <= 4 else e) for k0, ps, fs, e in real(*args))
    )
    rep = cr.sweep(1, 1, prec, table, 5000)
    assert rep.escalated == want.escalated + 3  # k = 2, 3, 4; k = 1 has phi theta < 1
    assert rep == want._replace(escalated=rep.escalated)


def test_libm_logs_within_the_allowance(table):
    """The float tier's bound takes every double log within cr._LIBM of the
    exact one, relative: log p and log(1 - 1/p) (with -1/p rounded) for every
    prime below 2e5 and every 10th one above, and log at sampled arguments
    of the ranges log log meets (phi theta up to 1e8, log(phi theta) > 0)."""
    below = [p for p in table.primes if p <= 200_000]
    rng = random.Random(5)
    args = [math.exp(rng.uniform(0, 18.5)) for _ in range(2000)] + [1 + rng.random() for _ in range(2000)]
    with mp.workprec(113):
        for p in below + list(table.primes[len(below) :: 10]):
            for got, want in ((math.log(p), mp.log(p)), (math.log1p(-1.0 / p), mp.log1p(mp.mpf(-1) / p))):
                assert abs(got - want) <= cr._LIBM * abs(want), p
        for y in args:
            assert abs(math.log(y) - mp.log(y)) <= cr._LIBM * abs(mp.log(y)), y


def test_sweep_refuses_less_than_a_double(table):
    with pytest.raises(ValueError, match="at least 53 bits"):
        cr.sweep(7, 1, 52, table, cr.default_x_max(7))


def test_precision_doubling_stability(table):
    lo, hi = 128, 256
    for q in (5, 12):
        a, b = cr.bound_params(q, lo), cr.bound_params(q, hi)
        assert abs(a.P - b.P) < 1e-12
        assert abs(a.F - b.F) < 1e-25
        assert a.x_q == b.x_q
    assert abs(log_f(1000, 3, 1, lo, table) - log_f(1000, 3, 1, hi, table)) < 1e-25
