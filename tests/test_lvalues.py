"""Digamma helper, the Stieltjes oracle, the integer kernels, L(1), L'/L(1), and the Laurent data at s=0."""

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import pytest

from totprog import constants, lvalues
from totprog.characters import build_group, factorint
from totprog.constants import F_q, mertens_C
from totprog.lvalues import (
    L_at_1,
    Lprime_over_L_at_1,
    b_sum_abs,
    b_sum_signed,
    eps,
    laurent_at_zero,
    m0_sum,
    structural_m0,
)
from oracles import Lprime_at_1, char_sum, digamma, hurwitz_row_mp, kernel_row_mp, laurent_fit, stieltjes_gamma1, zeta_table_mp


def test_digamma_special_values(prec):
    with mp.workprec(prec):
        assert abs(digamma(1, prec) + mp.euler) < eps(prec)
        assert abs(digamma(mp.mpf(1) / 2, prec) + mp.euler + 2 * mp.log(2)) < eps(prec, 4)
        # recurrence psi(x+1) = psi(x) + 1/x
        for x in ("0.25", "0.7", "1.9"):
            x = mp.mpf(x)
            assert abs(digamma(x + 1, prec) - digamma(x, prec) - 1 / x) < eps(prec, 10)


def test_digamma_rejects_nonpositive(prec):
    with pytest.raises(ValueError):
        digamma(0, prec)
    with pytest.raises(ValueError):
        stieltjes_gamma1(-1, prec)


def test_gamma1_at_1_matches_series_oracle(prec):
    """gamma_1(1) = lim sum log(k)/k - log(x)^2/2, Richardson-accelerated."""
    with mp.workprec(80):
        n = 16000
        # Euler-Maclaurin: partial sum = log^2(n)/2 + gamma_1 + log(n)/(2n) + O(log n / n^2)
        oracle = (
            mp.fsum(mp.log(k) / k for k in range(1, n + 1))
            - mp.log(n) ** 2 / 2
            - mp.log(n) / (2 * n)
        )
    val = stieltjes_gamma1(1, prec)
    assert abs(val - mp.mpf("-0.0728158454836767")) < 1e-14
    assert abs(oracle - val) < 1e-6


def test_gamma1_distribution_relation(prec):
    """sum_{r=1}^{q} gamma_1(r/q) relates to gamma_1 and log q:
    sum_r zeta(s, r/q) = q^s zeta(s) forces
    sum_r gamma_1(r/q) = q (gamma_1 - gamma log q - log^2 q / 2)."""
    q = 3
    with mp.workprec(prec):
        lhs = mp.fsum(stieltjes_gamma1(mp.mpf(r) / q, prec) for r in range(1, q + 1))
        g1 = stieltjes_gamma1(1, prec)
        rhs = q * (g1 - mp.euler * mp.log(q) - mp.log(q) ** 2 / 2)
        assert abs(lhs - rhs) < eps(prec, 100)


# -- L(1, chi) ---------------------------------------------------------------


def _rows(q, prec):
    """The psi and log Gamma rows that _row_sums sums, and the Hurwitz rows
    m = 2 and 49 that _log_L sums, as integers at scale 2^-(prec + 40)."""
    return [lvalues._row(k, q, prec) for k in ("psi", "loggamma", ("hurwitz", 2), ("hurwitz", 49))]


@pytest.mark.parametrize("prec", [53, 192])
@pytest.mark.parametrize("q", [*range(1, 61), 101, 149])
def test_char_sums_against_one_character_at_a_time(q, prec):
    """Every chi mod q, on four rows: _char_sums is within its docstring bound
    of the sum taken one character value at a time at 40 bits more, in each
    component.  The rows are exact, so the bound is 1.01 sum |row| + 1 units
    of 2^-w; 2^-20 sum |row| more covers the reference's own rounding."""
    w = prec + 40
    for row in _rows(q, prec):
        got = lvalues._char_sums(row, q, w)
        with mp.workprec(w + 40):
            values = {r: mp.ldexp(v, -w) for r, v in row.items()}
            size = mp.fsum(abs(v) for v in values.values())
            bound = mp.ldexp(mp.mpf("1.01") * size + 1 + mp.ldexp(size, -20), -w)
            for chi in build_group(q):
                want = char_sum(chi, values, w + 40)
                re, im = (mp.ldexp(x, -w) for x in got[chi.label])
                assert abs(re - want.real) <= bound and abs(im - want.imag) <= bound, (q, chi.label, prec)


# -- the integer kernels ------------------------------------------------------


@pytest.mark.parametrize("prec", [53, 192, 256])
def test_zeta_ints_against_mpmath(prec):
    """The zeta(k) - 1 list is the mp.zeta route's entry for entry, length
    included; both lists are within their 1.01 units of 2^-W of mp.zeta(k) - 1
    and -mp.zeta(k, 1, 1) at W + 30 bits, and the first omitted k is below
    1.01 units in both."""
    w = prec + 40
    zeta, dzeta = lvalues._zeta_ints(prec)
    assert zeta == zeta_table_mp(prec) and len(dzeta) == len(zeta)
    with mp.workprec(w + 30):
        for k in range(2, len(zeta) + 1):
            z, dz = (mp.ldexp(v, w) for v in (mp.zeta(k) - 1, -mp.zeta(k, 1, 1)))
            if k == len(zeta):
                assert z < mp.mpf("1.01") and dz < mp.mpf("1.01")
            else:
                assert abs(zeta[k] - z) < mp.mpf("1.01") and abs(dzeta[k] - dz) < mp.mpf("1.01"), k


def test_bernoulli_ratios_from_tangent_numbers():
    """B_2j/(2j)! for j = 1 ... 40 against mpmath's exact Bernoulli numbers."""
    for j, (a, b) in enumerate(lvalues._bernoulli_ratios(40), 1):
        assert Fraction(a, b) == Fraction(*mp.bernfrac(2 * j)) / math.factorial(2 * j), j


# the docstring bound B of lvalues._row, in units of 2^-(prec + 40); the
# Hurwitz family's is 6 times the value
ROW_BOUND = {"psi": 6, "loggamma": 5}
ROW_MODULI = [range(1, 51), range(51, 101), range(101, 151), range(151, 201), [1009]]
# the oracle rows' precision: w + 20 bits of the 192-bit case, at least that
# of the 53-bit case, which shares them
ROW_ORACLE_BITS = 192 + 40 + 20


@lru_cache(maxsize=None)
def _row_oracle(kernel, d):
    """mpmath's row of the kernel mod d at ROW_ORACLE_BITS, once per (kernel, d)."""
    if isinstance(kernel, tuple):
        return hurwitz_row_mp(d, kernel[1], ROW_ORACLE_BITS)
    return kernel_row_mp(kernel, d, ROW_ORACLE_BITS)


@pytest.mark.parametrize("moduli", ROW_MODULI, ids=lambda ds: f"{ds[0]}-{ds[-1]}")
@pytest.mark.parametrize(
    "kernel", ["psi", "loggamma", ("hurwitz", 2), ("hurwitz", 25), ("hurwitz", 49)], ids=lambda k: "".join(map(str, k))
)
@pytest.mark.parametrize("prec", [53, 192])
def test_psi_and_loggamma_rows_value_by_value(prec, kernel, moduli):
    """Every value of the psi, log Gamma and Hurwitz zeta(m, .) rows mod d,
    for every d <= 200 and d = 1009, is within its stated B of mpmath's
    value at 20 bits or more above w (_row_oracle)."""
    w, hurwitz = prec + 40, isinstance(kernel, tuple)
    for d in moduli:
        want = _row_oracle(kernel, d)
        with mp.workprec(w + 20):
            for r, v in lvalues._row(kernel, d, prec).items():
                bound = 6 * want[r] if hurwitz else ROW_BOUND[kernel]
                assert abs(v - mp.ldexp(want[r], w)) <= bound, (d, r)


@pytest.mark.parametrize("prec", [53, 192])
@pytest.mark.parametrize("d", [*range(3, 61), 149])
def test_zeta2_sums_match_the_mpmath_row(d, prec):
    """For every even primitive psi mod d, the zeta2 row's sum is the sum of
    zeta''(0, r/d) itself, within _char_sums' bound with the row's B = 5 (the
    terms the row drops sum to zero), plus 2^-20 sum |row| for the oracle's
    own rounding at 40 bits more."""
    w = prec + 40
    evens = [chi for chi in build_group(d) if chi.is_primitive and not chi.parity and not chi.is_principal]
    if not evens:
        return
    row = lvalues._row("zeta2", d, prec)
    sums = lvalues._row_sums("zeta2", d, prec)
    values = kernel_row_mp("zeta2", d, w + 40)
    with mp.workprec(w + 40):
        size = mp.fsum(abs(mp.ldexp(v, -w)) for v in row.values())
        bound = mp.ldexp(mp.mpf("1.01") * size + 1 + 5 * len(row) + mp.ldexp(size, -20), -w)
        for chi in evens:
            want = char_sum(chi, values, w + 40)
            re, im = (mp.ldexp(x, -w) for x in sums[chi.label])
            assert abs(re - want.real) <= bound and abs(im - want.imag) <= bound, (d, chi.label)


def test_kernels_need_no_mpmath_special_function(monkeypatch):
    """With mp.digamma, mp.loggamma, mp.zeta and mp.stieltjes raising and
    every cache of lvalues and constants cleared, F_q(13), L'/L(1) mod 12,
    L(1) mod 7 and C(14, 1) still come out, bit for bit as before."""

    def calls():
        values = [
            F_q(13).value,
            *(Lprime_over_L_at_1(chi) for chi in build_group(12).nonprincipal()),
            *(L_at_1(chi) for chi in build_group(7).nonprincipal()),
            mertens_C(14, 1).log_C,
        ]
        return [(x.real._mpf_, x.imag._mpf_) for x in map(mp.mpc, values)]

    def clear():
        for module in (lvalues, constants):
            for f in vars(module).values():
                if hasattr(f, "cache_clear") and f.__module__ == module.__name__:
                    f.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("an mpmath special function was called")

    before = calls()
    clear()
    with monkeypatch.context() as m:
        for name in ("digamma", "loggamma", "zeta", "stieltjes"):
            m.setattr(mp, name, refuse)
        try:
            after = calls()
        finally:
            clear()
    assert after == before


def test_L1_closed_forms(prec):
    with mp.workprec(prec):
        chi4 = build_group(4).by_label(3)
        assert abs(L_at_1(chi4, prec) - mp.pi / 4) < eps(prec, 4)
        chi3 = build_group(3).by_label(2)
        assert abs(L_at_1(chi3, prec) - mp.pi / (3 * mp.sqrt(3))) < eps(prec, 4)


def test_L1_conjugation(prec):
    for q, label in ((5, 2), (7, 3), (13, 2)):
        chi = build_group(q).by_label(label)
        with mp.workprec(prec):
            assert abs(L_at_1(chi.conjugate(), prec) - mp.conj(L_at_1(chi, prec))) < eps(prec, 4)


def test_L1_rejects_principal(prec):
    with pytest.raises(ValueError):
        L_at_1(build_group(5).principal, prec)
    with pytest.raises(ValueError):
        Lprime_over_L_at_1(build_group(5).principal, prec)


def test_L1_euler_product_cross_check(prec, table):
    """Partial Euler product over primes to 2e6 agrees to ~1e-4 (the tail
    of a conditionally convergent product decays slowly)."""
    chi = build_group(4).by_label(3)
    with mp.workprec(60):
        prod = mp.mpf(1)
        for p in table.primes:
            v = mp.re(chi.value(p, 53)) if p % 2 else 0
            if v:
                prod *= 1 / (1 - v / p)
        assert abs(prod - L_at_1(chi, prec)) < 1e-4


@pytest.mark.parametrize(
    "q,label,expected",
    [
        (4, 3, "0.2456096"),
        (8, 3, "-0.0207114"),
        (8, 5, "0.6321150"),
        (3, 2, "0.3682816"),
        (12, 11, "0.4767499"),
    ],
)
def test_LpL1_published_values(q, label, expected, prec):
    chi = build_group(q).by_label(label)
    val = mp.re(Lprime_over_L_at_1(chi, prec))
    assert abs(val - mp.mpf(expected)) < 1e-6


ORACLE_MODULI = list(range(3, 17)) + [20, 21, 24, 28]


@pytest.mark.parametrize("q", ORACLE_MODULI)
def test_LpL1_matches_stieltjes_oracle(q, prec):
    """Functional-equation route vs L'(1)/L(1) from gamma_1(r/q) rows."""
    tol = mp.mpf(2) ** -(prec - 16)
    for chi in build_group(q).nonprincipal():
        with mp.workprec(prec):
            oracle = Lprime_at_1(chi, prec) / L_at_1(chi, prec)
        assert abs(Lprime_over_L_at_1(chi, prec) - oracle) < tol, (q, chi.label)


def test_stieltjes_oracle_moduli_cover_every_kind():
    """The oracle comparison sees odd and even characters, and imprimitive
    ones whose extra Euler factor has chi'(p) = 1 and chi'(p) != 1."""
    kinds = set()
    for q in ORACLE_MODULI:
        for chi in build_group(q).nonprincipal():
            prim = chi.primitive()
            kinds.add("odd" if chi.parity else "even")
            for p in factorint(q):
                if prim.modulus % p:
                    kinds.add("chi'(p) = 1" if prim.exponent(p) == 0 else "chi'(p) != 1")
    assert kinds == {"odd", "even", "chi'(p) = 1", "chi'(p) != 1"}


# -- Laurent data at s = 0 ---------------------------------------------------


def test_structural_m0_cases():
    assert structural_m0(build_group(1).principal) == 0
    assert structural_m0(build_group(6).principal) == 2  # zeta (1-2^-s)(1-3^-s)
    assert structural_m0(build_group(8).principal) == 1
    assert structural_m0(build_group(4).by_label(3)) == 0  # odd primitive
    assert structural_m0(build_group(8).by_label(5)) == 1  # even primitive
    # chi mod 14 induced by the quadratic character mod 7: chi'(2) = 1
    chi14 = build_group(14).by_label(13)
    assert chi14.primitive().modulus == 7
    assert structural_m0(chi14) == 1


@pytest.mark.parametrize("q", list(range(1, 15)))
def test_laurent_structural_matches_numerical_fit(q, prec):
    """Independent oracle: fit m0/s + b from L'/L sampled near s = 0 via
    Hurwitz-zeta series, compare with the structural evaluation."""
    for chi in build_group(q):
        m0_fit, b_fit = laurent_fit(chi, prec)
        assert abs(m0_fit - structural_m0(chi)) < 1e-8
        assert abs(b_fit - laurent_at_zero(chi, prec)) < 1e-8


M0_EXPECTED = {3: 1, 4: 1, 5: 2, 6: 2, 7: 3, 8: 2, 9: 3, 10: 3, 12: 3, 14: 5}
B_EXPECTED = {
    3: "2.2367697",
    4: "2.2744923",
    5: "2.3067140",
    6: "1.5436226",
    7: "1.7004570",
    9: "2.0466109",
    10: "0.9204197",
    12: "1.2309413",
    14: "-0.3789848",
}


def test_m0_sums():
    for q, want in M0_EXPECTED.items():
        assert m0_sum(q) == want
    # published table prints 1 for q = 6; the extra Euler factor makes it 2


def test_b_sums(prec):
    for q, want in B_EXPECTED.items():
        assert abs(b_sum_signed(q, prec).value - mp.mpf(want)) < 1e-6
    # q = 8: print is low by exactly log 2 (modulus/conductor slip)
    b8 = b_sum_signed(8, prec).value
    assert abs(b8 - mp.mpf("2.3343911")) < 1e-6
    assert abs(b8 - mp.log(2) - mp.mpf("1.6412439")) < 1e-6


def test_abs_sum_dominates_signed(prec):
    for q in (3, 5, 8, 12, 14):
        with mp.workprec(prec):
            assert b_sum_abs(q, prec).value >= abs(b_sum_signed(q, prec).value) - eps(prec, 10)


def test_precision_doubling_stability():
    lo = 128
    hi = 256
    for q in (7, 12):
        assert abs(b_sum_signed(q, lo).value - b_sum_signed(q, hi).value) < 1e-25
