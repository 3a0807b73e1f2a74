"""Index data, Mertens-type constants, zero sums F_q / G_q."""

import math

import mpmath as mp
import pytest

from totprog.characters import build_group, totient, units
from totprog.constants import (
    F1,
    F_chi,
    F_p_primecalc,
    F_q,
    F_q_via_divisors,
    G_q,
    _winding_number,
    gamma_p,
    index_data,
    index_data_bruteforce,
    mertens_C,
    mertens_C_naive,
    nicolas_condition_scan,
)
from totprog.lvalues import PrecisionContext


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


def test_R_counts_solutions():
    # R(q, a) = #{b mod q : b^m = a} for the least such m
    for q, a in ((5, 1), (8, 1), (9, 4), (12, 1), (15, 2)):
        d = index_data(q, a)
        count = sum(1 for b in units(q) if pow(b, d.m, max(q, 2)) == a % max(q, 2))
        assert count == d.R


# -- Mertens-type constant ---------------------------------------------------


def test_C_q1_is_exp_minus_gamma(ctx):
    with ctx.workprec():
        c = mertens_C(1, 1, ctx)
        assert abs(c.C.value - mp.e**-mp.euler) < ctx.eps(4)
        c2 = mertens_C(2, 1, ctx)
        assert abs(c2.C.value - 2 * mp.e**-mp.euler) < ctx.eps(8)


def test_C_published_thresholds(ctx):
    assert abs(mertens_C(5, 1, ctx).C.value - mp.mpf("1.2252")) < 1e-4
    assert abs(mertens_C(5, 3, ctx).C.value - mp.mpf("0.8060")) < 1e-4


def test_C_against_naive_product_discrepancy_decreases(ctx, table):
    """The truncated product converges to the accelerated value: the
    discrepancy shrinks as the cutoff grows (consistency oracle)."""
    for q, a in ((3, 1), (5, 1), (7, 3)):
        c = mertens_C(q, a, ctx).C.value
        gaps = [abs(mertens_C_naive(q, a, x, table, ctx) - c) for x in (10**4, 10**5, 10**6)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 2e-4


@pytest.mark.parametrize("q,a", [(3, 2), (5, 3)])
@pytest.mark.xfail(
    strict=True,
    reason="truncated-product convergence oscillates for these progressions; "
    "the discrepancy is not monotone at x = 1e4/1e5/1e6 (it still shrinks "
    "overall, as the companion test's pairs show)",
)
def test_C_naive_discrepancy_monotone_oscillating_pairs(q, a, ctx, table):
    c = mertens_C(q, a, ctx).C.value
    gaps = [abs(mertens_C_naive(q, a, x, table, ctx) - c) for x in (10**4, 10**5, 10**6)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_C_decomposition_reconstructs_mertens_sum(ctx, table):
    """exp(M(q,a)) consistency: log C + sum log(1-1/p) telescopes against
    (1/phi) loglog x + M(q,a) - sum_{p<=x} 1/p -> 0."""
    import math as _m

    q, a = 4, 3
    c = mertens_C(q, a, ctx)
    x = 10**6
    with ctx.workprec():
        s = mp.fsum(mp.mpf(1) / p for p in table.upto(x) if p % q == a)
        drift = s - mp.log(mp.log(x)) / totient(q) - c.M.value
        assert abs(drift) < 1e-3  # ~ 1/log x tail


@pytest.mark.parametrize("turns", [0.5, 1.4, -0.3])
def test_winding_number_rejects_ambiguous_estimate(turns):
    with pytest.raises(ArithmeticError):
        _winding_number(turns)


@pytest.mark.parametrize("turns,k", [(0.0, 0), (1.02, 1), (-2.2, -2), (3.25, 3)])
def test_winding_number_clean_estimate(turns, k):
    assert _winding_number(turns) == k


# -- F constants -------------------------------------------------------------


TABLE1 = {
    1: "0.04619", 2: "0.04619", 3: "0.15942", 4: "0.20176", 5: "0.60919",
    6: "0.15942", 7: "1.41418", 8: "0.75326", 9: "1.41121", 10: "0.60919",
    11: "4.26098", 12: "0.64516", 13: "6.45484", 14: "1.41418",
}


def test_F1_value(ctx):
    with ctx.workprec():
        expect = 2 + mp.euler - mp.log(mp.pi) - 2 * mp.log(2)
        assert abs(F1(ctx) - expect) < ctx.eps(4)


@pytest.mark.parametrize("q", list(TABLE1))
def test_F_q_published(q, ctx):
    assert abs(F_q(q, ctx).value - mp.mpf(TABLE1[q])) < 1e-5


@pytest.mark.parametrize("q", list(range(3, 15)))
def test_F_q_two_routes_agree(q, ctx):
    """Sum over characters vs the divisor/primitive-character regrouping
    (the regrouping is stated for q > 2 only)."""
    assert abs(F_q(q, ctx).value - F_q_via_divisors(q, ctx)) < 1e-9


def test_F_q_divisor_route_rejects_small_q(ctx):
    for q in (1, 2):
        with pytest.raises(ValueError):
            F_q_via_divisors(q, ctx)


def test_F_q_depends_on_kernel():
    # F_{2p} = F_p since the character groups are isomorphic
    for q in (3, 5, 7):
        assert abs(F_q(2 * q).value - F_q(q).value) < 1e-12


def test_F_chi_published(ctx):
    cases = [
        (4, 3, "0.1555680"),
        (8, 3, "0.3160732"),
        (8, 5, "0.2354316"),
        (3, 2, "0.1132300"),
        (12, 11, "0.3301666"),
    ]
    for q, label, expected in cases:
        chi = build_group(q).by_label(label)
        assert abs(F_chi(chi, ctx) - mp.mpf(expected)) < 1e-6


def test_gamma_p_and_primecalc(ctx):
    cases = {3: "0.94550", 5: "1.72062", 7: "2.08759", 17: "3.58198", 149: "5.98342"}
    for p, expected in cases.items():
        assert abs(gamma_p(p, ctx).value - mp.mpf(expected)) < 5e-6
    with pytest.raises(ValueError):
        gamma_p(4, ctx)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_primecalc_agrees_with_character_sum(p, ctx):
    """Closed form for prime modulus vs the general character sum."""
    assert abs(F_p_primecalc(p, ctx) - F_q(p, ctx).value) < 1e-9


# -- G_q ---------------------------------------------------------------------


G_PUBLISHED = {
    3: "0.0986123", 4: "0.0397208", 5: "0.2070784", 7: "0.2972734",
    8: "0.0397208", 9: "0.0986123", 10: "0.8113486", 12: "0.5439353",
    14: "0.9935082",
}


@pytest.mark.parametrize("q", list(G_PUBLISHED))
def test_G_q_published(q, ctx):
    assert abs(G_q(q, ctx).value - mp.mpf(G_PUBLISHED[q])) < 1e-6


def test_G_q_6_published_row_omits_principal(ctx):
    """The printed 0.1177920 for q = 6 is the nonprincipal contribution
    alone; the full sum is 0.2561251."""
    full = G_q(6, ctx).value
    assert abs(full - mp.mpf("0.2561251")) < 1e-6
    assert full > mp.mpf("0.1177920")


def test_G_q_kmax_doubling(ctx):
    for q in (6, 10, 12, 14):
        a = G_q(q, ctx, kmax=2000)
        b = G_q(q, ctx, kmax=4000)
        assert abs(a.value - b.value) <= a.err + b.err


def test_G_q_conventions(ctx):
    # absolute >= published: for zeros at i t, 2/(t sqrt(1+t^2)) >= 2/(1+t^2)
    # term by term, so the literal absolute sum dominates the signed one
    for q in (3, 6, 8, 9, 12):
        assert G_q(q, ctx, convention="absolute").value > G_q(q, ctx).value
    with pytest.raises(ValueError):
        G_q(6, ctx, convention="bogus")


def test_G_q_edge_moduli(ctx):
    # q = 1 has no Euler-factor zeros; q = 2, 4, 8 share the single
    # principal-character factor 1 - 2^-s
    assert G_q(1, ctx).value == 0
    g2 = G_q(2, ctx).value
    assert abs(g2 - G_q(4, ctx).value) < 1e-20
    assert abs(g2 - G_q(8, ctx).value) < 1e-20
    assert abs(g2 - mp.mpf("0.0397208")) < 1e-6


# -- criterion scan ----------------------------------------------------------


def test_nicolas_scan(ctx):
    rows = {q: verdict for q, _, _, verdict in nicolas_condition_scan(14, ctx)}
    for q in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14):
        assert rows[q] is True
    assert rows[11] is False
    assert rows[13] is False
