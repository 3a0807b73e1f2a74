"""Digamma helper, the Stieltjes oracle, L(1), L'/L(1), and the Laurent data at s=0."""

import mpmath as mp
import pytest

from totprog.characters import build_group, factorint
from totprog.lvalues import (
    L_at_1,
    Lprime_over_L_at_1,
    PrecisionContext,
    b_sum_abs,
    b_sum_signed,
    digamma,
    laurent_at_zero,
    laurent_fit,
    m0_sum,
    structural_m0,
)
from oracles import Lprime_at_1, stieltjes_gamma1


def test_digamma_special_values(ctx):
    with ctx.workprec():
        assert abs(digamma(1, ctx) + mp.euler) < ctx.eps()
        assert abs(digamma(mp.mpf(1) / 2, ctx) + mp.euler + 2 * mp.log(2)) < ctx.eps(4)
        # recurrence psi(x+1) = psi(x) + 1/x
        for x in ("0.25", "0.7", "1.9"):
            x = mp.mpf(x)
            assert abs(digamma(x + 1, ctx) - digamma(x, ctx) - 1 / x) < ctx.eps(10)


def test_digamma_rejects_nonpositive(ctx):
    with pytest.raises(ValueError):
        digamma(0, ctx)
    with pytest.raises(ValueError):
        stieltjes_gamma1(-1, ctx)


def test_gamma1_at_1_matches_series_oracle(ctx):
    """gamma_1(1) = lim sum log(k)/k - log(x)^2/2, Richardson-accelerated."""
    with mp.workprec(80):
        n = 16000
        # Euler-Maclaurin: partial sum = log^2(n)/2 + gamma_1 + log(n)/(2n) + O(log n / n^2)
        oracle = (
            mp.fsum(mp.log(k) / k for k in range(1, n + 1))
            - mp.log(n) ** 2 / 2
            - mp.log(n) / (2 * n)
        )
    val = stieltjes_gamma1(1, ctx)
    assert abs(val - mp.mpf("-0.0728158454836767")) < 1e-14
    assert abs(oracle - val) < 1e-6


def test_gamma1_distribution_relation(ctx):
    """sum_{r=1}^{q} gamma_1(r/q) relates to gamma_1 and log q:
    sum_r zeta(s, r/q) = q^s zeta(s) forces
    sum_r gamma_1(r/q) = q (gamma_1 - gamma log q - log^2 q / 2)."""
    q = 3
    with ctx.workprec():
        lhs = mp.fsum(stieltjes_gamma1(mp.mpf(r) / q, ctx) for r in range(1, q + 1))
        g1 = stieltjes_gamma1(1, ctx)
        rhs = q * (g1 - mp.euler * mp.log(q) - mp.log(q) ** 2 / 2)
        assert abs(lhs - rhs) < ctx.eps(100)


# -- L(1, chi) ---------------------------------------------------------------


def test_L1_closed_forms(ctx):
    with ctx.workprec():
        chi4 = build_group(4).by_label(3)
        assert abs(L_at_1(chi4, ctx) - mp.pi / 4) < ctx.eps(4)
        chi3 = build_group(3).by_label(2)
        assert abs(L_at_1(chi3, ctx) - mp.pi / (3 * mp.sqrt(3))) < ctx.eps(4)


def test_L1_conjugation(ctx):
    for q, label in ((5, 2), (7, 3), (13, 2)):
        chi = build_group(q).by_label(label)
        with ctx.workprec():
            assert abs(L_at_1(chi.conjugate(), ctx) - mp.conj(L_at_1(chi, ctx))) < ctx.eps(4)


def test_L1_rejects_principal(ctx):
    with pytest.raises(ValueError):
        L_at_1(build_group(5).principal, ctx)
    with pytest.raises(ValueError):
        Lprime_over_L_at_1(build_group(5).principal, ctx)


def test_L1_euler_product_cross_check(ctx, table):
    """Partial Euler product over primes to 2e6 agrees to ~1e-4 (the tail
    of a conditionally convergent product decays slowly)."""
    chi = build_group(4).by_label(3)
    with mp.workprec(60):
        prod = mp.mpf(1)
        for p in table.primes:
            v = mp.re(chi(p)) if p % 2 else 0
            if v:
                prod *= 1 / (1 - v / p)
        assert abs(prod - L_at_1(chi, ctx)) < 1e-4


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
def test_LpL1_published_values(q, label, expected, ctx):
    chi = build_group(q).by_label(label)
    val = mp.re(Lprime_over_L_at_1(chi, ctx))
    assert abs(val - mp.mpf(expected)) < 1e-6


ORACLE_MODULI = list(range(3, 17)) + [20, 21, 24, 28]


@pytest.mark.parametrize("q", ORACLE_MODULI)
def test_LpL1_matches_stieltjes_oracle(q, ctx):
    """Functional-equation route vs L'(1)/L(1) from gamma_1(r/q) rows."""
    tol = mp.mpf(2) ** -(ctx.prec - 16)
    for chi in build_group(q).nonprincipal():
        with ctx.workprec():
            oracle = Lprime_at_1(chi, ctx) / L_at_1(chi, ctx)
        assert abs(Lprime_over_L_at_1(chi, ctx) - oracle) < tol, (q, chi.label)


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
def test_laurent_structural_matches_numerical_fit(q, ctx):
    """Independent oracle: fit m0/s + b from L'/L sampled near s = 0 via
    Hurwitz-zeta series, compare with the structural evaluation."""
    for chi in build_group(q):
        la = laurent_at_zero(chi, ctx)
        m0_fit, b_fit = laurent_fit(chi, ctx)
        assert abs(m0_fit - la.m0) < 1e-8
        assert abs(b_fit - la.b) < 1e-8
        assert structural_m0(chi) == la.m0


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


def test_b_sums(ctx):
    for q, want in B_EXPECTED.items():
        assert abs(b_sum_signed(q, ctx).value - mp.mpf(want)) < 1e-6
    # q = 8: print is low by exactly log 2 (modulus/conductor slip)
    b8 = b_sum_signed(8, ctx).value
    assert abs(b8 - mp.mpf("2.3343911")) < 1e-6
    assert abs(b8 - mp.log(2) - mp.mpf("1.6412439")) < 1e-6


def test_abs_sum_dominates_signed(ctx):
    for q in (3, 5, 8, 12, 14):
        with ctx.workprec():
            assert b_sum_abs(q, ctx).value >= abs(b_sum_signed(q, ctx).value) - ctx.eps(10)


def test_precision_doubling_stability():
    lo = PrecisionContext(prec=128)
    hi = PrecisionContext(prec=256)
    for q in (7, 12):
        assert abs(b_sum_signed(q, lo).value - b_sum_signed(q, hi).value) < 1e-25
