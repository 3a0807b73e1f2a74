"""The lemmas of the paper's proof, as the tests check them numerically.

No command reads these; they stand beside tests/oracles.py so that the
tests can check the analytic steps behind the criterion:

* g(t) = -d^2/dt^2 loglog t, the integral F_s(x) = int_x^inf t^s g(t) dt
  and the closed bound on its remainder r_s(x);
* the truncated integral int_x^T S(t;q,a) g(t) dt of the error term
  S(x) = theta(x) - x/phi(q), taken exactly over the flat steps of theta,
  with R(x) = psi(x) - x/phi(q) beside it;
* the J-hat bounds, p_q(x) at one point and the conditional bound on
  log f(x;q,1) beyond x_q;
* the empirical check theta(sqrt x;q,b)/sqrt x > 0.6/phi(q) on (x_q, X].

k_truncated and the x_q check read the ProgressionStats of the PrimeTable
their caller passes; p_q(x), the conditional bound and the x_q check read
the constants of totprog.criterion.bound_params.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import mpmath as mp

from totprog import criterion as cr
from totprog import primes as primes_mod
from totprog.characters import totient, units
from totprog.lvalues import DEFAULT_PREC, b_sum_abs, b_sum_signed, m0_sum

# --------------------------------------------------------------------------
# Step functions of a ProgressionStats


def steps(st, lo, hi):
    """Yield (start, end, theta) for the intervals that tile [lo, hi] with
    theta flat on each: the cuts are the progression primes in (lo, hi),
    and theta is the value on [start, end).  Ends are mpf at the caller's
    working precision.  Only the points i ... j are walked, i and j the
    counts of progression primes to lo and to hi."""
    i0 = i = st._count(lo)
    j = st._count(hi)
    thetas = [st.point_sums(i)[0]] + [theta for theta, _ in st.sums(i, j)]
    start = mp.mpf(lo)
    while start < hi:
        end = mp.mpf(st.pbar[i]) if i < j else mp.mpf(hi)
        yield start, end, thetas[i - i0]
        start = end
        i += 1


def S(st, x) -> mp.mpf:
    return st.theta(x) - mp.mpf(x) / st.phi


def R(st, x) -> mp.mpf:
    return st.psi(x) - mp.mpf(x) / st.phi


# --------------------------------------------------------------------------
# g and F_s


def g(t) -> mp.mpf:
    """g(t) = -d^2/dt^2 loglog t = (1 + log t)/(t^2 log^2 t), t > 1."""
    if t <= 1:
        raise ValueError("g is defined for t > 1")
    t = mp.mpf(t)
    lt = mp.log(t)
    return (1 + lt) / (t * t * lt * lt)


def _F_s_domain(x, s) -> tuple:
    """(x, s) as mpmath numbers; raises unless x > 1 and Re(s) < 1, the
    domain of F_s and of r_s."""
    s, x = mp.mpc(s), mp.mpf(x)
    if mp.re(s) >= 1:
        raise ValueError("F_s and r_s require Re(s) < 1")
    if x <= 1:
        raise ValueError("F_s and r_s require x > 1")
    return x, s


def F_s(x, s, prec: int = DEFAULT_PREC):
    """F_s(x) = int_x^inf t^s g(t) dt = -x^(s-1)/((s-1) log x) + r_s(x),
    with r_s evaluated by quadrature of its integral form."""
    with mp.workprec(prec):
        x, s = _F_s_domain(x, s)
        lead = -mp.power(x, s - 1) / ((s - 1) * mp.log(x))
        integral = mp.quad(
            lambda t: 2 * mp.power(t, s - 2) / ((s - 1) * mp.log(t) ** 3), [x, mp.inf]
        )
        r = -s / (1 - s) * (mp.power(x, s - 1) / ((1 - s) * mp.log(x) ** 2) + integral)
        return lead + r


def rs_bound(x, s, prec: int = DEFAULT_PREC) -> mp.mpf:
    """Closed bound on |r_s(x)|:
    |s/(1-s)^2| x^(Re s - 1)/log^2 x * (1 + 2/(|Re s - 1| log x))."""
    with mp.workprec(prec):
        x, s = _F_s_domain(x, s)
        sig = mp.re(s)
        return (
            abs(s / (1 - s) ** 2)
            * mp.power(x, sig - 1)
            / mp.log(x) ** 2
            * (1 + 2 / (abs(sig - 1) * mp.log(x)))
        )


# --------------------------------------------------------------------------
# The truncated K integral


class KTruncated(NamedTuple):
    value: mp.mpf
    tail_estimate: mp.mpf  # heuristic: sup over sieved t>=T of |S| times 1/(T log T)


def k_truncated(x, T, q: int, a: int, prec: int, table) -> KTruncated:
    """int_x^T S(t;q,a) g(t) dt, exactly over the step structure of theta:
    on each segment theta is constant and both antiderivatives are explicit
    (int g = -1/(t log t), int t g = loglog t - 1/log t)."""
    st = primes_mod.stats(q, a, table, prec)
    if not (T > x > 1):
        raise ValueError("need T > x > 1")
    with mp.workprec(prec):

        def anti_g(t):
            t = mp.mpf(t)
            return -1 / (t * mp.log(t))

        def anti_tg(t):
            t = mp.mpf(t)
            return mp.log(mp.log(t)) - 1 / mp.log(t)

        total = mp.mpf(0)
        for lo, hi, theta_val in steps(st, x, T):
            total += theta_val * (anti_g(hi) - anti_g(lo))
        total -= (anti_tg(T) - anti_tg(mp.mpf(x))) / st.phi
        # heuristic tail estimate from the observed sup of |S| past T: S is
        # linear between steps, so the sup sits on both sides of each
        # progression prime >= floor(T), or at the sieve limit
        sup_S = abs(st.theta(st.table.limit) - mp.mpf(st.table.limit) / st.phi)
        for lo, hi, theta_val in steps(st, int(T) - 1, st.table.limit):
            ends = (lo, hi) if lo >= int(T) else (hi,)
            sup_S = max(sup_S, *(abs(theta_val - t / st.phi) for t in ends))
        return KTruncated(total, sup_S / (mp.mpf(T) * mp.log(T)))


# --------------------------------------------------------------------------
# J-hat bounds, p_q and the conditional bound


def jhat_bound(x, q: int, prec: int = DEFAULT_PREC) -> mp.mpf:
    """|J-hat(x;q,a)| <= (0.01 phi + B_q + M_q)/(phi x log x) + M_q/(phi x)
    with the absolute-value aggregates (valid for x > e^4)."""
    if x <= mp.e**4:
        raise ValueError("bound requires x > e^4")
    phi = totient(q)
    with mp.workprec(prec):
        B = b_sum_abs(q, prec).value
        M = m0_sum(q)
        x = mp.mpf(x)
        return (mp.mpf("0.01") * phi + B + M) / (phi * x * mp.log(x)) + mp.mpf(M) / (phi * x)


def jhat_signed_bound(x, q: int, prec: int = DEFAULT_PREC) -> mp.mpf:
    """One-sided variant keeping signs:
    J-hat(x;q,1) <= (0.01 phi - B_q - M_q)/(x log x) - M_q/x."""
    if x <= mp.e**4:
        raise ValueError("bound requires x > e^4")
    phi = totient(q)
    with mp.workprec(prec):
        B = b_sum_signed(q, prec).value
        M = m0_sum(q)
        x = mp.mpf(x)
        return (mp.mpf("0.01") * phi - B - M) / (x * mp.log(x)) - mp.mpf(M) / x


def p_q_of_x(x, q: int, prec: int = DEFAULT_PREC) -> mp.mpf:
    bp = cr.bound_params(q, prec)
    with mp.workprec(prec):
        return next(cr._p_q_values([mp.mpf(x)], totient(q), bp.F, bp.G, bp.R, bp.B_signed, bp.M))[1]


def grh_bound_check(q: int, x, prec: int = DEFAULT_PREC) -> mp.mpf:
    """(F_q - 1.2 R_{q,1} + p_q(x)) / (phi(q) sqrt(x) log x) -- the
    conditional upper bound on log f(x;q,1) for x > max(x_q, e^4)."""
    bp = cr.bound_params(q, prec)
    if bp.x_q is None:
        raise ValueError(f"x_q is not bundled for q = {q}, so the bound's range is unknown")
    with mp.workprec(prec):
        x = mp.mpf(x)
        if x <= max(bp.x_q, mp.e**4):
            raise ValueError("bound valid for x > max(x_q, e^4)")
        num = bp.F - mp.mpf("1.2") * bp.R + p_q_of_x(x, q, prec)
        return num / (totient(q) * mp.sqrt(x) * mp.log(x))


# --------------------------------------------------------------------------
# The empirical x_q check


@dataclass(frozen=True)
class XqCheckReport:
    q: int
    x_q: int
    X: int
    holds: bool
    first_violation: int | None


def empirical_xq_check(q: int, X: int, prec: int, table) -> XqCheckReport:
    """Verify theta(sqrt(x);q,b)/sqrt(x) > 0.6/phi(q) for every unit b and
    every x in (x_q, X], scanning the step points of theta."""
    bp = cr.bound_params(q, prec)
    xq = bp.x_q if bp.x_q is not None else 0
    if X <= xq:
        return XqCheckReport(q, xq, X, True, None)
    phi = totient(q)
    worst = None
    for b in units(q):
        st = primes_mod.stats(q, b, table, prec)
        # theta(sqrt x) = theta_val for y^2 <= x < nxt^2 (the ends are
        # integers), and there it fails from x >= (theta_val phi / 0.6)^2 on
        for y, nxt, theta_val in steps(st, math.isqrt(xq), math.isqrt(X) + 1):
            man, exp = theta_val.man_exp  # theta_val = man * 2^exp exactly
            bound = (Fraction(5 * man * phi, 3) * Fraction(2) ** exp) ** 2
            xbad = max(xq + 1, int(y) ** 2, math.ceil(bound))
            if xbad < int(nxt) ** 2 and xbad <= X and (worst is None or xbad < worst):
                worst = xbad
    return XqCheckReport(q, xq, X, worst is None, worst)
