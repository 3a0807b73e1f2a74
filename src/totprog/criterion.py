"""The log f criterion and its finite verification.

log f(x;q,a) = loglog(phi(q) theta(x;q,a))/phi(q)
               + sum_{pbar<=x} log(1-1/pbar) - log C(q,a)

is negative exactly when the primorial inequality

    Nbar_k / (phi(Nbar_k) (log(phi(q) log Nbar_k))^{1/phi(q)}) > 1/C(q,a)

holds on [pbar_k, pbar_{k+1}).  This module evaluates log f on progression
primes (it is constant in between, so step points are exhaustive), the
constants of the conditional bound (F_q, G_q, R, B, M and the estimate P_q
of max p_q, whose grid argmax a branch and bound over p_q's five monotone
terms finds), the threshold x_q, and the sweep that checks log f < 0 up to
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


def _p_q_numerators(phi, F, R, B, M, m):
    """The two numerators of p_q that do not depend on x, 3 F + 1.2 R over
    log x and 0.01 phi - B - M over sqrt x, in doubles when m is math."""
    c12, c001 = (1.2, 0.01) if m is math else (mp.mpf("1.2"), mp.mpf("0.01"))
    return 3 * F + c12 * R, c001 * phi - B - M


def _p_q_rows(points, phi, F, G, R, B, M, m):
    """(x, p_q(x)) for each (x, log x, sqrt x, 2 (x - 1)) of points, the one
    evaluation of the p_q formula."""
    num_log, num_sqrt = _p_q_numerators(phi, F, R, B, M, m)
    for x, lx, sx, twice in points:
        yield x, num_log / lx + (1 + 2 / lx) * G / sx + num_sqrt / sx - (M / x - phi / twice) * sx * lx


_P_GRID = 10_000  # intervals of the log-x grid that locates max p_q
_P_LO = 10.0  # its first point, log e^10; its last is log 1e16
_P_STEP = (math.log(1e16) - _P_LO) / _P_GRID
_P_CELLS = 8  # cells of the coarse partition _p_q_search starts from
_P_SLACK = 2.0**-47  # 64 u: a cell bound's rounding allowance per unit of sum |t_m| at its ends


def _p_q_bound(ti, tj) -> float:
    """Upper bound on p_q as computed at every grid point of the cell whose
    ends have the five terms ti and tj (see _p_q_search)."""
    return sum(map(max, ti, tj)) + _P_SLACK * (sum(map(abs, ti)) + sum(map(abs, tj)))


def _p_q_search(phi, F, G, R, B, M) -> dict:
    """{i: (p_q(x_i), terms)} in doubles at the grid points x_i =
    exp(_P_LO + i _P_STEP) it evaluates, i = 0 ... _P_GRID, among them every
    i where the grid's largest value is taken; terms are p_q's five terms at
    x_i, t_1 ... t_5 =

        num_log/log x,  (1 + 2/log x) G/sqrt x,  num_sqrt/sqrt x,
        -M log x/sqrt x,  phi sqrt x log x/(2 (x - 1)).

    Branch and bound (Hansen and Walster, Global Optimization Using Interval
    Analysis, 2004): it evaluates the ends of _P_CELLS coarse cells, then
    splits the cell of largest _p_q_bound at its middle index while that
    bound is at least the best value so far.  A cell is dropped only when
    its bound is below that value, so each grid point it holds is too; the
    indices evaluated, in order, are the ends of the cells left, each of
    width 1 or dropped.  Each value is _p_q_rows', bit for bit.

    Why the bound covers the computed values.  Each term is a constant
    times 1/log x, (1 + 2/log x)/sqrt x, 1/sqrt x, log x/sqrt x or
    sqrt x log x/(x - 1), each positive and falling for x > e^2: the first
    three are products of positive falling factors; log x/sqrt x has
    derivative (2 - log x)/(2 x^1.5); and sqrt x log x/(x - 1) has
    logarithmic derivative 1/(2x) + 1/(x log x) - 1/(x - 1) < 1/x - 1/(x - 1)
    once log x > 2.  So on [e^10, inf), from x_0 > e^9 on, each term t_m
    (taken exactly, with the doubles num_log, G, num_sqrt, M and phi that
    _p_q_rows uses) is monotone and keeps its sign, and between the ends
    x_i <= x <= x_j of a cell t_m(x) <= max(t_m(x_i), t_m(x_j)) and
    |t_m(x)| <= |t_m(x_i)| + |t_m(x_j)|.  The grid points rise with i
    (tests/test_criterion.py checks all of them), so this holds at each x_k,
    i <= k <= j.  Rounding, to first order, with u = 2^-53 for sqrt and
    each operation and a = _LIBM = 4u for math.log: _p_q_rows computes
    t_1, t_2 and t_3 within (a + u)|t_1|, (a + 5u)|t_2| and 2u |t_3|, its
    last product within (a + 6u)(|t_4| + |t_5|) (3u from M/x - phi/twice,
    2u from sqrt x, a + u from log x), and its three additions add 3u S,
    so its value is within (a + 9u) S(x_k) of sum t_m(x_k), S = sum |t_m|.
    Each computed term here is within (a + 6u)|t_m| and the sum of the five
    maxima adds 4u (S_i + S_j).  So the computed value at x_k is at most the
    computed sum of maxima plus (2a + 19u)(S_i + S_j) = 27u (S_i + S_j);
    _P_SLACK, 64u, more than doubles that, which covers the higher orders,
    the use of the computed sums of |t_m| and the last addition's rounding."""
    num_log, num_sqrt = _p_q_numerators(phi, F, R, B, M, math)
    points = {}

    def point(i):
        if i not in points:
            x = math.exp(_P_LO + i * _P_STEP)
            lx, sx, twice = math.log(x), math.sqrt(x), 2 * (x - 1)
            ((_, value),) = _p_q_rows([(x, lx, sx, twice)], phi, F, G, R, B, M, math)
            terms = num_log / lx, (1 + 2 / lx) * G / sx, num_sqrt / sx, -M / x * sx * lx, phi / twice * sx * lx
            points[i] = value, terms
        return points[i]

    def cell(i, j):
        return -_p_q_bound(point(i)[1], point(j)[1]), i, j

    ends = [c * _P_GRID // _P_CELLS for c in range(_P_CELLS + 1)]
    heap = [cell(i, j) for i, j in zip(ends, ends[1:])]
    heapq.heapify(heap)
    best = max(value for value, _ in points.values())
    while heap and -heap[0][0] >= best:
        _, i, j = heapq.heappop(heap)
        mid = (i + j) // 2
        best = max(best, point(mid)[0])
        for lo, hi in ((i, mid), (mid, j)):
            if hi - lo > 1 and -(c := cell(lo, hi))[0] >= best:
                heapq.heappush(heap, c)
    return points


def _P_q_from(q, F, G, R, B, M, prec) -> mp.mpf:
    """Estimate of max p_q over [e^10, inf), not a bound: the largest value
    of p_q in doubles on a 10,001-point log grid over [e^10, 1e16] (the
    first on ties), located by _p_q_search without evaluating the whole
    grid; a 60-step trisection in doubles refines it within the two grid
    cells beside it, and p_q in mpf at the refined point and at both ends
    gives the value; the value at 1e16 stands for the tail.  That last step
    is not certified: a term with a negative coefficient, such as
    (0.01 phi - B - M)/sqrt(x) (that coefficient is -3.2 to -5.0 for the T8
    moduli), rises toward 0 beyond 1e16 instead of staying below its value
    there."""
    phi = totient(q)
    floats = float(F), float(G), R, float(B), M
    points = _p_q_search(phi, *floats)
    best_i = max(sorted(points), key=lambda i: points[i][0])  # the first on ties
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
