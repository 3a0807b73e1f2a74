"""The log f criterion and its finite verification.

log f(x;q,a) = loglog(phi(q) theta(x;q,a))/phi(q)
               + sum_{pbar<=x} log(1-1/pbar) - log C(q,a)

is negative exactly when the primorial inequality

    Nbar_k / (phi(Nbar_k) (log(phi(q) log Nbar_k))^{1/phi(q)}) > 1/C(q,a)

holds on [pbar_k, pbar_{k+1}).  This module evaluates log f on progression
primes (it is constant in between, so step points are exhaustive), the
constants of the conditional bound (F_q, G_q, R, B, M and the estimate P_q
of max p_q), the threshold x_q, and the sweep that checks log f < 0 up to
max(floor(x_q), ceil(e^10) = 22027) (default_x_max): in doubles at every
step point, in chunks of up to 1024 points that map and accumulate passes
evaluate bit for bit as a per-point loop would, with one stated rounding
bound per chunk that covers each of its points; and in mpmath at the few
points that may hold the maximum.  Every mp value of theta and of the
log(1 - 1/p) sum comes from ProgressionStats.point_sums, two logs at any
point, with its stated bound: the sweep's mp tier calls it at single
points, and log_f_series reads its values at every step point through
ProgressionStats.sums.  Both read the PrimeTable their caller sized.  The
lemmas of the proof (g, F_s, the truncated K integral, the J-hat bounds,
p_q(x) and the conditional bound) are checked numerically in
tests/lemmas.py.
"""

from __future__ import annotations

import heapq
import math
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, islice, repeat
from operator import add, mul, sub, truediv
from typing import NamedTuple

import mpmath as mp

from . import primes as primes_mod
from . import reference_data
from .characters import totient
from .constants import F_q, G_q, index_data, mertens_C
from .lvalues import DEFAULT_PREC, b_sum_signed, eps, m0_sum

__all__ = [
    "log_f_series",
    "BoundParams",
    "bound_params",
    "x_q_threshold",
    "default_x_max",
    "sweep",
]

E10_CEIL = 22027  # ceil(e^10)


# --------------------------------------------------------------------------
# log f


def _log_f(phi: int, theta, log1m, log_C) -> mp.mpf:
    return mp.log(mp.log(phi * theta)) / phi + log1m - log_C


class FEvaluation(NamedTuple):
    q: int
    a: int
    log_C: mp.mpf
    rows: tuple  # (k, pbar_k, log f(pbar_k))


def log_f_series(q: int, a: int, xmax, prec: int, table) -> FEvaluation:
    """log f at every progression prime <= xmax (f is constant in between)."""
    st = primes_mod.stats(q, a, table, prec)
    if xmax > st.table.limit:
        raise ValueError(f"xmax={xmax} exceeds sieve limit {st.table.limit}")
    mc = mertens_C(q, a, prec)
    rows = []
    with mp.workprec(prec):
        for k, (theta, log1m) in enumerate(st.sums(0, st._count(xmax)), 1):
            if st.phi * theta <= 1:
                continue  # log f not yet defined (q = 1 at x = 2)
            rows.append((k, st.pbar[k - 1], _log_f(st.phi, theta, log1m, mc.log_C)))
    return FEvaluation(q, st.a, mc.log_C, tuple(rows))


class BoundParams(NamedTuple):
    q: int
    F: mp.mpf
    G: mp.mpf
    R: int
    B_signed: mp.mpf
    M: int
    x_q: int | None
    P: mp.mpf


@lru_cache(maxsize=None)
def bound_params(q: int, prec: int = DEFAULT_PREC) -> BoundParams:
    with mp.workprec(prec):
        F = F_q(q, prec).value
        G = G_q(q, prec).value
        R = index_data(q, 1).R
        B = b_sum_signed(q, prec).value
        M = m0_sum(q)
        c1 = reference_data.c1_of(q)
        xq = x_q_threshold(q, c1) if c1 is not None else None
        P = _P_q_from(q, F, G, R, B, M, prec)
        return BoundParams(q, F, G, R, B, M, xq, P)


def _p_q_values(xs, phi, F, G, R, B, M, m=mp):
    """(x, p_q(x)) for each x of xs: in doubles when m is math (F, G and B
    floats too), else in mpf at the working precision."""
    log, sqrt = m.log, m.sqrt
    return _p_q_rows(((x, log(x), sqrt(x), 2 * (x - 1)) for x in xs), phi, F, G, R, B, M, m)


def _p_q_rows(points, phi, F, G, R, B, M, m):
    """(x, p_q(x)) for each (x, log x, sqrt x, 2 (x - 1)) of points, the one
    evaluation of the p_q formula.  The two numerators that do not depend on
    x are computed once."""
    c12, c001 = (1.2, 0.01) if m is math else (mp.mpf("1.2"), mp.mpf("0.01"))
    num_log = 3 * F + c12 * R
    num_sqrt = c001 * phi - B - M
    for x, lx, sx, twice in points:
        yield x, num_log / lx + (1 + 2 / lx) * G / sx + num_sqrt / sx - (M / x - phi / twice) * sx * lx


_P_GRID = 10_000  # intervals of the coarse log-x grid in _P_q_from
_P_LO = 10.0  # its first point, log e^10; its last is log 1e16
_P_STEP = (math.log(1e16) - _P_LO) / _P_GRID


@lru_cache(maxsize=None)
def _p_q_columns() -> tuple:
    """x = e^(_P_LO + i _P_STEP), i = 0 ... _P_GRID, and log x, sqrt x and
    2 (x - 1) at each, as array("d") columns: they do not depend on q."""
    xs = array("d", (math.exp(_P_LO + i * _P_STEP) for i in range(_P_GRID + 1)))
    return xs, array("d", map(math.log, xs)), array("d", map(math.sqrt, xs)), array("d", (2 * (x - 1) for x in xs))


def _p_q_grid(phi, F, G, R, B, M):
    """(x, p_q(x)) in doubles at the points of _p_q_columns."""
    return _p_q_rows(zip(*_p_q_columns()), phi, F, G, R, B, M, math)


def _P_q_from(q, F, G, R, B, M, prec) -> mp.mpf:
    """Estimate of max p_q over [e^10, inf), not a bound: a coarse
    double-precision log grid on [e^10, 1e16] locates the argmax, a 60-step
    trisection in doubles refines it within the two grid cells beside it,
    and p_q in mpf at the refined point and at both ends gives the value;
    the value at 1e16 stands for the tail.  That last step is not certified:
    a term with a negative coefficient, such as (0.01 phi - B - M)/sqrt(x)
    (that coefficient is -3.2 to -5.0 for the T8 moduli), rises toward 0
    beyond 1e16 instead of staying below its value there."""
    phi = totient(q)
    floats = float(F), float(G), R, float(B), M
    best_i, best = 0, -math.inf
    for i, (_, value) in enumerate(_p_q_grid(phi, *floats)):
        if value > best:
            best_i, best = i, value
    a = _P_LO + max(best_i - 1, 0) * _P_STEP
    b = _P_LO + min(best_i + 1, _P_GRID) * _P_STEP
    for _ in range(60):  # golden-section style trisection in log x
        m1 = a + (b - a) / 3
        m2 = b - (b - a) / 3
        (_, f1), (_, f2) = _p_q_values((math.exp(m1), math.exp(m2)), phi, *floats, math)
        if f1 < f2:
            a = m1
        else:
            b = m2
    with mp.workprec(prec):
        points = (mp.e ** mp.mpf((a + b) / 2), mp.e**10, mp.mpf(10) ** 16)
        return max(value for _, value in _p_q_values(points, phi, F, G, R, B, M))


def x_q_threshold(q: int, c1) -> int:
    """floor((phi(q) c1 / 0.4)^4), computed in exact rational arithmetic."""
    c1 = Fraction(str(c1)) if not isinstance(c1, Fraction) else c1
    if c1 <= 0:
        raise ValueError("c1 must be positive")
    val = (Fraction(totient(q)) * c1 * Fraction(5, 2)) ** 4
    return val.numerator // val.denominator


# --------------------------------------------------------------------------
# Sweeps


class SweepReport(NamedTuple):
    q: int
    a: int
    x_max: int
    checked: int
    max_log_f: mp.mpf
    argmax_prime: int
    error_budget: mp.mpf
    verdict: str  # "all negative" | "violation" | "inconclusive"
    escalated: int  # points evaluated at prec; not printed


MIN_PREC = 53  # bits of a double: the sweep's float tier needs no less from its mp tier
_U = 2.0**-MIN_PREC  # unit roundoff of a double
# Allowance per double log, relative: math.log(x), and math.log1p(-1.0 / p)
# with its rounded argument, stay within two ulps (tests/test_criterion.py
# checks every prime of the default sieve below 2e5 and a sample above).
_LIBM = 4 * _U


def _rounding_bound(th_rel, lm_abs, phi, lam_lo, lam_hi, g, log1m, log_C, u, a):
    """Bound on |log f as computed - log f| at a step point, when the computed
    theta is within relative error th_rel of the exact sum and log1m within
    absolute error lm_abs, both logs of log log are within relative error a
    of the exact ones, and every other operation rounds with unit roundoff u;
    the computed lam = log(phi theta) lies in [lam_lo, lam_hi] (a single
    point passes its lam twice), g = log(lam)/phi.  Sum of the first-order
    terms (through log log and the two final additions), doubled to cover
    the higher-order ones and the rounding of the bound itself.  None when
    lam_lo is too near 0, i.e. phi theta too near 1, to bound log log.

    The bound is monotone: it does not fall when any of th_rel, lm_abs,
    lam_hi, |g|, |log1m|, |log_C|, u or a rises or lam_lo falls, and it
    only turns None then.  Proof: lam_err = 2 (th_rel + 2u) + 2 a lam_hi
    rises with th_rel, u, a and lam_hi; while lam_lo > 3 lam_err,
    sigma = lam_err / (lam_lo - lam_err) has a positive numerator that does
    not fall and a positive denominator that does not rise, so sigma does
    not fall; every other term is a product of nonnegative factors that do
    not fall; and lam_lo <= 3 lam_err, the None case, stays true.  Each
    rounded operation is monotone too, so this holds for the computed
    bound, and on the hull of a run of points it bounds each point."""
    lam_err = 2 * (th_rel + 2 * u) + 2 * a * lam_hi  # |lam - log(phi theta)|
    if lam_lo <= 3 * lam_err:
        return None
    sigma = lam_err / (lam_lo - lam_err)  # relative error of lam, < 1/2
    g_err = 2 * sigma / phi + 2 * (a + u) * abs(g)
    return 2 * (g_err + lm_abs + 2 * u * (abs(g) + abs(log1m) + 2 * abs(log_C)))


_CHUNK = 1024  # the most points _float_screen bounds together


def _float_screen(st, x_max, log_C, prec):
    """log f in doubles at the progression primes pbar_k <= x_max, in chunks
    of consecutive points: yields (k0, ps, fs, E) where fs[i] is log f at
    ps[i] = pbar_(k0+i) and E >= |fs[i] - log f at prec bits| at every
    point of the chunk, as the sweep's mp tier and log_f_series both take
    it from point_sums.  E is inf where phi theta is too near 1 to bound,
    and log f may be undefined there (fs[i] is then nan).  Chunks hold
    1, 1, 2, 4, ... points, up to _CHUNK, so a chunk's last k is at most
    twice its first and the first points, where phi theta is near 1, are
    bounded nearly one by one.

    Each value is the per-point recurrence (theta += log p, log1m +=
    log1p(-1/p), lam = log(phi theta), g = log(lam)/phi, f = g + log1m -
    log C), bit for bit, done a chunk at a time in map and accumulate
    passes.  A point's sums are running sums of k double logs, each within
    _LIBM, so their relative error is k u + a to first order (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 4), doubled:
    c = 2 (k u + a).  u and a add the mp tier's own rounding to the
    double's, u_p = 2^-prec and 4 u_p, so that term also covers
    point_sums' bound on theta over theta, at most
    (2^-61 m + 3 2^-32 + 1) u_p with m = floor(k/64) <= k (theta >= log 2),
    and the relative part of its bound on log1m, (3 2^-32 + 1) u_p.  The
    extra u_p on log1m covers that bound's absolute part,
    (2^-62 m + 3 2^-32) u_p.  E is _rounding_bound on the chunk's hull: c and
    |log1m| at its last point (both grow with k), the largest |g| and
    lam's least and greatest values; it is monotone, so E is at least
    each point's own bound."""
    phi, log_C = float(st.phi), float(log_C)  # phi exact: products and quotients round as with the int
    u_p = 2.0**-prec
    u, a = _U + u_p, _LIBM + 4 * u_p  # the double and the mp rounding
    n = st._count(x_max)
    theta = log1m = 0.0
    k0 = 1
    while k0 <= n:
        size = min(max(k0 - 1, 1), _CHUNK)  # 1, 1, 2, 4, ..., _CHUNK
        ps = st.pbar[k0 - 1 : min(k0 - 1 + size, n)]
        thetas = list(islice(accumulate(map(math.log, ps), initial=theta), 1, None))
        log1ms = list(islice(accumulate(map(math.log1p, map(truediv, repeat(-1.0), ps)), initial=log1m), 1, None))
        theta, log1m = thetas[-1], log1ms[-1]
        lams = list(map(math.log, map(mul, repeat(phi), thetas)))
        if lams[0] > 0:
            gs = list(map(truediv, map(math.log, lams), repeat(phi)))
        else:  # log f is undefined while phi theta <= 1
            gs = [math.log(lam) / phi if lam > 0 else math.nan for lam in lams]
        fs = list(map(sub, map(add, gs, log1ms), repeat(log_C)))
        c = 2 * ((k0 + len(ps) - 1) * u + a)
        g_abs = max(map(abs, gs))
        err = _rounding_bound(c, c * abs(log1m) + u_p, phi, min(lams), max(lams), g_abs, log1m, log_C, u, a)
        yield k0, ps, fs, math.inf if err is None else err
        k0 += len(ps)


def _sweep_report(q, a, x_max, st, mc, prec, checked, best, escalated) -> SweepReport:
    """The report on `checked` points whose largest log f is best = (log f,
    k, pbar_k), or None; the budget adds the prec rounding of log f at
    pbar_k, from point_sums' stated bound on theta and log1m, to the error
    of C."""
    with mp.workprec(prec):
        budget = mc.C.err / mc.C.value + 2 * eps(prec, 1)
        if best is None:
            return SweepReport(q, a, x_max, 0, mp.mpf("nan"), 0, budget, "inconclusive", escalated)
        worst, k, p = best
        theta, log1m = st.point_sums(k)
        th_err, lm_err = st.point_bound(k)
        lam = mp.log(st.phi * theta)
        u = mp.mpf(2) ** -prec  # and each mp log within 4u, as in _float_screen
        err = _rounding_bound(th_err / theta, lm_err, st.phi, lam, lam, mp.log(lam) / st.phi, log1m, mc.log_C, u, 4 * u)
        budget += mp.inf if err is None else err
        if worst > budget:
            verdict = "violation"
        elif -worst > budget:
            verdict = "all negative"
        else:
            verdict = "inconclusive"
        return SweepReport(q, a, x_max, checked, worst, p, budget, verdict, escalated)


def default_x_max(q: int) -> int:
    """The range of the paper's sweep for q: max(floor(x_q), printed
    floor(x_q), 22027), each of the first two where it is bundled."""
    c1 = reference_data.c1_of(q)
    candidates = [E10_CEIL]
    if c1 is not None:
        candidates.append(x_q_threshold(q, c1))
    printed = reference_data.printed_xq_floor(q)
    if printed is not None:
        candidates.append(printed)
    return max(candidates)


def sweep(q: int, a: int, prec: int, table, x_max) -> SweepReport:
    """Check log f < 0 at every progression prime pbar_k <= x_max (the
    paper's range is default_x_max(q)) and report the worst margin.

    Two tiers.  _float_screen bounds log f at every point in doubles, a
    chunk of points at a time; a chunk whose largest value plus its bound E
    falls below the largest lower bound so far (the floor) holds no
    candidate.  Only the points whose upper bound reaches the floor, which
    include every point that can hold the maximum, and those where phi
    theta is too near 1 to bound, are evaluated at prec from
    ProgressionStats.point_sums.  The maximum (the first point on ties), its
    prime and the count of points where log f is defined are those of
    log_f_series' rows, bit for bit, since those read the same point_sums
    values."""
    if prec < MIN_PREC:
        raise ValueError(f"the sweep needs at least {MIN_PREC} bits, the precision of its float tier")
    st = primes_mod.stats(q, a, table, prec)
    if x_max > st.table.limit:
        raise ValueError(f"xmax={x_max} exceeds sieve limit {st.table.limit}")
    mc = mertens_C(q, a, prec)
    floor = -math.inf  # the largest f - E so far: log f's maximum is at least this
    heap = []  # (f + E, k, pbar_k) of the points that may reach the maximum
    checked = 0
    for k0, ps, fs, err in _float_screen(st, x_max, mc.log_C, prec):
        if err == math.inf:
            for k, p in enumerate(ps, k0):
                heapq.heappush(heap, (err, k, p))
            continue
        checked += len(fs)
        top = max(fs)
        if top + err < floor:
            continue
        floor = max(floor, top - err)
        # the points whose upper bound f + E reaches the floor
        for i in compress(range(len(fs)), map((floor - err).__le__, fs)):
            heapq.heappush(heap, (fs[i] + err, k0 + i, ps[i]))
        while heap[0][0] < floor:
            heapq.heappop(heap)
    best = None
    with mp.workprec(prec):
        for upper, k, p in sorted(heap, key=lambda c: c[1]):
            theta, log1m = st.point_sums(k)
            if st.phi * theta <= 1:
                continue  # log f not yet defined (q = 1 at x = 2)
            checked += upper == math.inf  # the screen counted the bounded ones
            val = _log_f(st.phi, theta, log1m, mc.log_C)
            if best is None or val > best[0]:
                best = (val, k, p)
    return _sweep_report(q, st.a, int(x_max), st, mc, prec, checked, best, len(heap))
