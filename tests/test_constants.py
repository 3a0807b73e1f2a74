"""Index data, Mertens-type constants, zero sums F_q / G_q."""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    F_chi_via_LpL1,
    F_p_primecalc,
    F_q_via_divisors,
    G_q_absolute,
    abs_zero_sum_half_mp,
    hurwitz_row_mp,
    index_data_bruteforce,
    mertens_C_naive,
    partial_euler_sum,
    reciprocal_sum,
)
from totprog import constants, lvalues, primes
from totprog.characters import build_group, factorint, totient, units
from totprog.constants import (
    F1,
    F_chi,
    F_q,
    G_q,
    _winding_number,
    gamma_p,
    index_data,
    mertens_C,
    nicolas_condition_scan,
)
from totprog.lvalues import DEFAULT_PREC, Approx, b_sum_abs, b_sum_signed, eps


# -- index data (m, R) -------------------------------------------------------


def test_index_data_known():
    # m is the least exponent >= 2 with a an m-th power residue; for a = 1
    # that is 2, so R_{q,1} counts square roots of unity
    assert index_data(1, 1).m == 2 and index_data(1, 1).R == 1
    assert index_data(5, 1).m == 2 and index_data(5, 1).R == 2
    assert index_data(5, 3).m == 3 and index_data(5, 3).R == 1  # 3 generates mod 5
    assert index_data(7, 1).R == 2
    assert index_data(8, 1).R == 4  # 4 | q doubles the count
    assert index_data(12, 1).R == 4


@pytest.mark.parametrize("q", list(range(1, 201)))
def test_index_R_closed_form_matches_bruteforce(q):
    for a in units(q):
        closed = index_data(q, a)
        brute = index_data_bruteforce(q, a)
        assert closed.m == brute.m
        assert closed.R == brute.R


@given(q=st.integers(1, 500), i=st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_index_data_matches_bruteforce_at_random_moduli(q, i):
    a = units(q)[i % totient(q)]
    assert index_data(q, a) == index_data_bruteforce(q, a)


def test_R_counts_solutions():
    # R(q, a) = #{b mod q : b^m = a} for the least such m
    for q, a in ((5, 1), (8, 1), (9, 4), (12, 1), (15, 2)):
        d = index_data(q, a)
        count = sum(1 for b in units(q) if pow(b, d.m, max(q, 2)) == a % max(q, 2))
        assert count == d.R


# -- Mertens-type constant ---------------------------------------------------


def test_C_q1_is_exp_minus_gamma(prec):
    with mp.workprec(prec):
        c = mertens_C(1, 1, prec)
        assert abs(c.C.value - mp.e**-mp.euler) < eps(prec, 4)
        c2 = mertens_C(2, 1, prec)
        assert abs(c2.C.value - 2 * mp.e**-mp.euler) < eps(prec, 8)


def test_C_published_thresholds(prec):
    assert abs(mertens_C(5, 1, prec).C.value - mp.mpf("1.2252")) < 1e-4
    assert abs(mertens_C(5, 3, prec).C.value - mp.mpf("0.8060")) < 1e-4


def test_C_against_naive_product_discrepancy_decreases(prec, table):
    """The truncated product converges to the accelerated value: the
    discrepancy shrinks as the cutoff grows (consistency oracle)."""
    for q, a in ((3, 1), (5, 1), (7, 3)):
        c = mertens_C(q, a, prec).C.value
        gaps = [abs(mertens_C_naive(q, a, x, table, prec) - c) for x in (10**4, 10**5, 10**6)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 2e-4


@pytest.mark.parametrize("q,a", [(3, 2), (5, 3)])
@pytest.mark.xfail(
    strict=True,
    reason="truncated-product convergence oscillates for these progressions; "
    "the discrepancy is not monotone at x = 1e4/1e5/1e6 (it still shrinks "
    "overall, as the companion test's pairs show)",
)
def test_C_naive_discrepancy_monotone_oscillating_pairs(q, a, prec, table):
    c = mertens_C(q, a, prec).C.value
    gaps = [abs(mertens_C_naive(q, a, x, table, prec) - c) for x in (10**4, 10**5, 10**6)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_C_decomposition_reconstructs_mertens_sum(prec, table):
    """exp(M(q,a)) consistency: log C + sum log(1-1/p) telescopes against
    (1/phi) loglog x + M(q,a) - sum_{p<=x} 1/p -> 0."""
    import math as _m

    q, a = 4, 3
    c = mertens_C(q, a, prec)
    x = 10**6
    with mp.workprec(prec):
        s = mp.fsum(mp.mpf(1) / p for p in table.primes if p <= x and p % q == a)
        drift = s - mp.log(mp.log(x)) / totient(q) - c.M.value
        assert abs(drift) < 1e-3  # ~ 1/log x tail


@pytest.mark.parametrize("turns", [0.5, 1.4, -0.3])
def test_winding_number_rejects_ambiguous_estimate(turns):
    with pytest.raises(ArithmeticError):
        _winding_number(turns)


@pytest.mark.parametrize("turns,k", [(0.0, 0), (1.02, 1), (-2.2, -2), (3.25, 3)])
def test_winding_number_clean_estimate(turns, k):
    assert _winding_number(turns) == k


def test_ambiguous_winding_estimate_retries_over_more_primes(monkeypatch):
    """A first prime list whose winding estimate winds too far (2 six times:
    0.436 turns off for the complex characters mod 5) is retried over the
    primes up to the next limit, asked for once for the group, and log C
    comes out unchanged."""
    real = primes.prime_table
    asked = []

    def prime_table(limit):
        asked.append(limit)
        return SimpleNamespace(primes=[2] * 6) if limit == constants._BRANCH_LIMITS[0] else real(limit)

    _clear("_mertens_cached", "_reciprocal_sums")
    want = mertens_C(5, 2).log_C
    _clear("_mertens_cached", "_reciprocal_sums")
    monkeypatch.setattr(primes, "prime_table", prime_table)
    try:
        got = mertens_C(5, 2).log_C
    finally:
        _clear("_mertens_cached", "_reciprocal_sums")
    first, second = constants._BRANCH_LIMITS[:2]
    assert asked.count(second) == 1 and set(asked) == {first, second}
    assert got._mpf_ == want._mpf_


def test_partial_euler_sums_match_the_loop(monkeypatch):
    """For every character mod q <= 30 and mod 101, over the primes to
    X = 10^5: the winding guard's reciprocal sums are the loop's sum of
    chi(p)/p; as C(q, 1) is computed, the estimate the guard hands
    _winding_number (those sums plus h + log K) is within 1/X of the loop's
    partial Euler sum (_branched_log_L1's bound; 10^-10 more covers the
    loop's doubles); and the two give one winding number."""
    limit, w = constants._BRANCH_LIMITS[0], DEFAULT_PREC + 40
    turns = []
    monkeypatch.setattr(constants, "_winding_number", lambda t: turns.append(t) or _winding_number(t))
    for q in [*range(1, 31), 101]:
        got = constants._reciprocal_sums(q, limit, DEFAULT_PREC)
        for chi in build_group(q):
            re, im = got[chi.label]
            assert abs(complex(re / 2**w, im / 2**w) - reciprocal_sum(chi, limit)) < 1e-12, (q, chi.label)
        turns.clear()
        constants._mertens_cached.__wrapped__(q, 1, DEFAULT_PREC)
        nonprincipal = build_group(q).nonprincipal()
        assert len(turns) == len(nonprincipal), q  # one estimate each, at the first limit
        for chi, got_turns in zip(nonprincipal, turns):
            arg = float(mp.im(mp.log(lvalues.L_at_1(chi, 53))))
            want = (partial_euler_sum(chi, limit).imag - arg) / (2 * math.pi)
            assert abs(got_turns - want) < (1 / limit + 1e-10) / (2 * math.pi), (q, chi.label)
            assert _winding_number(got_turns) == _winding_number(want), (q, chi.label)


# -- Hurwitz rows zeta(m, r/q) -----------------------------------------------


def _half_ulp(v, prec):
    """Half a unit in the last place of v at prec bits, plus 2^-30 of one:
    the Hurwitz row's bound before its rounding to prec bits is 6 * 2^-40 ulp,
    and a reference at prec + 40 bits is off by a few 2^-40 ulp at most."""
    return mp.ldexp(1 + mp.ldexp(1, -29), mp.mag(v) - prec - 1)


def _hurwitz_row(q, m, prec):
    """The Hurwitz row lvalues._row(("hurwitz", m), q, prec) that _log_L
    sums, each integer at scale 2^-(prec + 40) rounded to prec bits."""
    with mp.workprec(prec):
        return {r: mp.mpf((v, -(prec + 40))) for r, v in lvalues._row(("hurwitz", m), q, prec).items()}


def _correctly_rounded(row, q, m, prec, rs):
    """Each row[r] within _half_ulp of the mpmath value at prec + 40 bits
    (so that mpmath's own error at prec bits stays out)."""
    ref = hurwitz_row_mp(q, m, prec + 40, rs)
    with mp.workprec(prec + 40):
        for r in rs:
            assert abs(row[r] - ref[r]) <= _half_ulp(row[r], prec), (q, m, r, prec)


@pytest.mark.parametrize("prec", [53, 192])
@pytest.mark.parametrize("q", [*range(1, 11), 12, 14])
def test_hurwitz_rows_against_mpmath(q, prec):
    for m in range(2, 66):
        _correctly_rounded(_hurwitz_row(q, m, prec), q, m, prec, units(q))


@pytest.mark.parametrize("prec", [53, 192])
@pytest.mark.parametrize("q", [997, 1009])
def test_hurwitz_rows_against_mpmath_sampled(q, prec):
    """Seeded rows and units, with r = 1, q - 1 and r/q either side of 1/2."""
    rng = random.Random(q * prec)
    for m in (2, *rng.sample(range(3, 66), 3)):
        rs = {1, q - 1, q // 2, q // 2 + 1, *rng.sample(units(q), 6)}
        _correctly_rounded(_hurwitz_row(q, m, prec), q, m, prec, rs)


@pytest.mark.parametrize("prec", [53, 192])
def test_hurwitz_row_at_one_half(prec):
    """zeta(m, 1/2) = (2^m - 1) zeta(m): the q = 2 row, against zeta at an
    integer alone."""
    for m in range(2, 66):
        v = _hurwitz_row(2, m, prec)[1]
        with mp.workprec(prec + 40):
            assert abs(v - (2**m - 1) * mp.zeta(m)) <= _half_ulp(v, prec)


@given(q=st.integers(1, 500), m=st.integers(2, 64))
@settings(max_examples=25, deadline=None)
def test_hurwitz_row_sums_to_principal_L(q, m):
    """sum_r zeta(m, r/q) over the units r = q^m zeta(m) prod_{p|q}(1 - p^-m),
    which is q^m L(m, chi_0): no Hurwitz kernel on this side.  The row is
    within _half_ulp per value at 53 bits."""
    row = _hurwitz_row(q, m, 53)
    with mp.workprec(200):
        want = mp.mpf(q) ** m * mp.zeta(m)
        for p in factorint(q):
            want *= 1 - mp.mpf(p) ** -m
        slack = mp.fsum(_half_ulp(v, 53) for v in row.values())
        assert abs(mp.fsum(row.values()) - want) <= slack


# -- per-character caches ----------------------------------------------------

# the caches whose values depend on _PZ_BITS, which their keys leave out
_CUT_CACHES = ("_mertens_cached", "_prime_zeta_sums")


def _clear(*names):
    """Clear the named caches of constants, or with no names _CUT_CACHES, the
    log L rows, the half sums, the winding guard's reciprocal sums, and the
    lvalues zeta table with the series coefficients read from it."""
    for name in names or _CUT_CACHES + ("_log_L", "_abs_zero_sum_half", "_reciprocal_sums"):
        getattr(constants, name).cache_clear()
    if not names:
        lvalues._zeta_ints.cache_clear()
        lvalues._series.cache_clear()


def _module_caches():
    return [n for n, f in vars(constants).items() if hasattr(f, "cache_clear") and f.__module__ == constants.__name__]


def test_per_character_sums_are_computed_once_per_key(monkeypatch):
    """C(14, 1) reads P(k, chi) for every chi mod 14 from one table of
    integer Moebius sums, and G_q(14) asks eight times for an Euler-factor
    half sum, computed once per distinct key, exactly 2.  The Moebius sums
    read at most 48 rows of log L(m, chi), m = 2...49, each for every
    character at once, from at most 48 Hurwitz rows mod 14 and one integer
    zeta(k) table per precision (lvalues._zeta_ints).  The winding guard
    reads one row of reciprocal sums for the group."""
    rows = []

    def row(kernel, d, prec):
        rows.append((kernel, d))
        return lvalues._row(kernel, d, prec)

    _clear()
    monkeypatch.setattr(constants, "_row", row)
    mertens_C(14, 1)
    assert constants._prime_zeta_sums.cache_info().misses == 1
    assert constants._log_L.cache_info().misses <= 48
    assert 0 < len(rows) <= 48 and all(kernel[0] == "hurwitz" and d == 14 for kernel, d in rows)
    assert constants._reciprocal_sums.cache_info().misses == 1
    assert lvalues._zeta_ints.cache_info().misses == 1
    mertens_C(14, 1, 53)
    assert lvalues._zeta_ints.cache_info().misses == 2
    G_q(14)
    assert constants._abs_zero_sum_half.cache_info().misses == 2


_CACHED_CALLS = [
    *((G_q, (14, prec)) for prec in (53, 192)),
    # the half sum at 2 pi/3 that G_q(14) takes at p = 2, at kmax = 2000 and not
    *((constants._abs_zero_sum_half, (2, Fraction(1, 3), kmax, prec)) for prec in (53, 192) for kmax in (2000, 4000)),
    *((mertens_C, (q, 1, prec)) for prec in (53, 192) for q in (7, 14)),
]


def _bits(call):
    fn, args = call
    r = fn(*args)
    values = r if isinstance(r, Approx) else (r.C.value, r.C.err, r.M.value, r.M.err, r.log_C)
    return [v._mpf_ for v in values]


def test_cached_values_do_not_depend_on_call_order():
    """Every call sees the value it gets from cold caches, whichever calls at
    other precisions or kmax came first: the keys hold both."""
    cold = []
    for call in _CACHED_CALLS:
        _clear()
        cold.append(_bits(call))
    _clear()
    assert [_bits(c) for c in _CACHED_CALLS] == cold
    _clear()
    assert [_bits(c) for c in reversed(_CACHED_CALLS)] == cold[::-1]


@pytest.mark.parametrize("q", [3, 7, 14])
def test_prime_zeta_cut_is_within_its_stated_tail(q, monkeypatch):
    """log C(q, 1) with the prime-zeta sums cut at 64 bits instead of
    _PZ_BITS = 48 moves by no more than the tail _mertens_cached adds to the
    error, 2^(2 - 48) (phi + 1).  Clearing the caches _CUT_CACHES names
    gives the value that clearing every cache of the module gives, so no
    other cache holds a value of the old cut; and the 48-bit value comes
    back."""
    _clear(*_CUT_CACHES)
    at48 = mertens_C(q, 1).log_C
    with monkeypatch.context() as m:
        m.setattr(constants, "_PZ_BITS", 64)
        _clear(*_CUT_CACHES)
        try:
            at64 = mertens_C(q, 1).log_C
            _clear(*_module_caches())
            assert mertens_C(q, 1).log_C._mpf_ == at64._mpf_
        finally:
            _clear(*_CUT_CACHES)
    diff = abs(at64 - at48)
    assert 0 < diff <= mp.mpf(2) ** (2 - 48) * (totient(q) + 1)
    assert mertens_C(q, 1).log_C._mpf_ == at48._mpf_


# -- F constants -------------------------------------------------------------


TABLE1 = {
    1: "0.04619", 2: "0.04619", 3: "0.15942", 4: "0.20176", 5: "0.60919",
    6: "0.15942", 7: "1.41418", 8: "0.75326", 9: "1.41121", 10: "0.60919",
    11: "4.26098", 12: "0.64516", 13: "6.45484", 14: "1.41418",
}


def test_F1_value(prec):
    with mp.workprec(prec):
        expect = 2 + mp.euler - mp.log(mp.pi) - 2 * mp.log(2)
        assert abs(F1(prec) - expect) < eps(prec, 4)


@pytest.mark.parametrize("q", list(TABLE1))
def test_F_q_published(q, prec):
    assert abs(F_q(q, prec).value - mp.mpf(TABLE1[q])) < 1e-5


@pytest.mark.parametrize("q", list(range(3, 15)))
def test_F_q_two_routes_agree(q, prec):
    """Sum over characters vs the divisor/primitive-character regrouping
    (the regrouping is stated for q > 2 only)."""
    assert abs(F_q(q, prec).value - F_q_via_divisors(q, prec)) < 1e-9


def test_F_q_divisor_route_rejects_small_q(prec):
    for q in (1, 2):
        with pytest.raises(ValueError):
            F_q_via_divisors(q, prec)


def test_F_q_depends_on_kernel():
    # F_{2p} = F_p since the character groups are isomorphic
    for q in (3, 5, 7):
        assert abs(F_q(2 * q).value - F_q(q).value) < 1e-12


def test_F_chi_published(prec):
    cases = [
        (4, 3, "0.1555680"),
        (8, 3, "0.3160732"),
        (8, 5, "0.2354316"),
        (3, 2, "0.1132300"),
        (12, 11, "0.3301666"),
    ]
    for q, label, expected in cases:
        chi = build_group(q).by_label(label)
        assert abs(F_chi(chi, prec) - mp.mpf(expected)) < 1e-6


@pytest.mark.parametrize("q", [*range(3, 61), 139, 149])
def test_F_chi_matches_the_LpL1_route(q):
    """F(chi) from b(chi') against the reflection through L'/L(1, conj chi'),
    to 2^-185 relative at 192 bits, for every nonprincipal chi mod q."""
    for chi in build_group(q).nonprincipal():
        want = F_chi_via_LpL1(chi, 192)
        assert abs(F_chi(chi, 192) - want) <= mp.ldexp(abs(want), -185), chi.label


def test_each_b_is_computed_once():
    """F_q, both B sums and gamma_p read one cached b(psi) per primitive psi:
    mod 14 every nonprincipal character is induced from one mod 7, so the
    four ask for b of the 5 nonprincipal characters mod 7 and nothing else."""
    lvalues._b_primitive.cache_clear()
    F_q(14)
    b_sum_signed(14)
    b_sum_abs(14)
    gamma_p(7)
    assert lvalues._b_primitive.cache_info().misses == 5


def test_gamma_p_and_primecalc(prec):
    cases = {3: "0.94550", 5: "1.72062", 7: "2.08759", 17: "3.58198", 149: "5.98342"}
    for p, expected in cases.items():
        assert abs(gamma_p(p, prec).value - mp.mpf(expected)) < 5e-6
    with pytest.raises(ValueError):
        gamma_p(4, prec)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_primecalc_agrees_with_character_sum(p, prec):
    """Closed form for prime modulus vs the general character sum."""
    assert abs(F_p_primecalc(p, prec) - F_q(p, prec).value) < 1e-9


# -- G_q ---------------------------------------------------------------------


G_PUBLISHED = {
    3: "0.0986123", 4: "0.0397208", 5: "0.2070784", 7: "0.2972734",
    8: "0.0397208", 9: "0.0986123", 10: "0.8113486", 12: "0.5439353",
    14: "0.9935082",
}


@pytest.mark.parametrize("q", list(G_PUBLISHED))
def test_G_q_published(q, prec):
    assert abs(G_q(q, prec).value - mp.mpf(G_PUBLISHED[q])) < 1e-6


def test_G_q_6_published_row_omits_principal(prec):
    """The printed 0.1177920 for q = 6 is the nonprincipal contribution
    alone; the full sum is 0.2561251."""
    full = G_q(6, prec).value
    assert abs(full - mp.mpf("0.2561251")) < 1e-6
    assert full > mp.mpf("0.1177920")


def test_G_q_kmax_doubling(prec, monkeypatch):
    for q in (6, 10, 12, 14):
        a = G_q(q, prec)
        with monkeypatch.context() as m:
            m.setattr(constants, "_KMAX", 4000)
            b = G_q(q, prec)
        assert abs(a.value - b.value) <= a.err + b.err


def test_G_q_conventions(prec):
    # absolute >= published: for zeros at i t, 2/(t sqrt(1+t^2)) >= 2/(1+t^2)
    # term by term, so the literal absolute sum dominates the signed one
    for q in (3, 6, 8, 9, 12):
        assert G_q_absolute(q, prec) > G_q(q, prec).value


def test_G_q_edge_moduli(prec):
    # q = 1 has no Euler-factor zeros; q = 2, 4, 8 share the single
    # principal-character factor 1 - 2^-s
    assert G_q(1, prec).value == 0
    g2 = G_q(2, prec).value
    assert abs(g2 - G_q(4, prec).value) < 1e-20
    assert abs(g2 - G_q(8, prec).value) < 1e-20
    assert abs(g2 - mp.mpf("0.0397208")) < 1e-6


def _half_sum_angles():
    """(p, theta/2pi) of every Euler-factor half sum G_q takes for q <= 30,
    and three at p = 1009, the smallest first t_0 = theta/log p among them."""
    angles = {(1009, Fraction(1, 1008)), (1009, Fraction(1, 2)), (1009, Fraction(1007, 1008))}
    for q in range(1, 31):
        for p, tf in (f for chi in build_group(q) for f in chi.euler_factors):
            angles.update({(p, 1)} if tf == 0 else {(p, tf), (p, 1 - tf)})
    return sorted(angles)


@pytest.mark.parametrize("prec", [53, 192])
@pytest.mark.parametrize("kmax", [100, 2000])
def test_abs_zero_sum_half_against_the_mp_loop(prec, kmax):
    """The fixed-point half sum is within its stated err of the term-by-term
    mpf sum at prec + 64 bits, the same kmax and the same tail terms; and
    its guard bits keep that err within twice the rounding to prec bits."""
    for p, tf in _half_sum_angles():
        got = constants._abs_zero_sum_half(p, tf, kmax, prec)
        want = abs_zero_sum_half_mp(p, tf, kmax, prec + 64)
        assert abs(got.value - want) <= got.err <= mp.ldexp(abs(got.value), 4 - prec), (p, tf)


def test_G_q_err_adds_each_half_sum_err(monkeypatch):
    """With every half sum's err raised to 1, G_q's err is at least the
    number of half sums it took."""
    real, calls = constants._abs_zero_sum_half, []
    monkeypatch.setattr(constants, "_abs_zero_sum_half", lambda *args: calls.append(args) or Approx(real(*args).value, 1))
    err = G_q(14).err
    assert len(calls) == 8 and err >= 8


def test_G_q_evaluates_zeta_8_once(monkeypatch):
    """G_q bounds the asymptotic tail of every half sum with one
    zeta(8, _KMAX + 1), evaluated once per precision however many angles and
    moduli it sums, and none where it sums none: q = 1 has no Euler factors
    and q = 3 only factors with theta = 0."""
    real, orders = mp.zeta, []
    monkeypatch.setattr(mp, "zeta", lambda s, *args: orders.append(s) or real(s, *args))
    constants._zeta_8.cache_clear()
    P = DEFAULT_PREC
    for q, prec, count in ((1, P, 0), (3, P, 0), (6, P, 1), (14, P, 0), (14, 53, 1)):
        orders.clear()
        G_q(q, prec)
        assert orders.count(8) == count, (q, prec)


# -- criterion scan ----------------------------------------------------------


def test_nicolas_scan(prec):
    rows = {q: verdict for q, _, _, verdict in nicolas_condition_scan(14, prec)}
    for q in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14):
        assert rows[q] is True
    assert rows[11] is False
    assert rows[13] is False
