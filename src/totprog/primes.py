"""Sieving and progression-restricted prime counting.

Provides theta(x;q,a), psi(x;q,a) and the derived error terms S and R, the
progression primorials N-bar_k, and enumeration of the multiplicative sets
S_{q,a} = {n : p | n => p = a mod q}.  Log-domain accumulations are done in
mpmath arbitrary precision, by two routes.  Readers that walk every step
point (log f series, steps, primorials) read running sums of one log per
progression prime.  Readers of a single point (log f at x, the sweep's few
candidates for the maximum) read point_sums: one log per exact integer
product of BLOCK progression primes, with a stated rounding bound, and no
per-prime log.  The sweep screens every step point first in doubles (about
1e-13 where the smallest margin is 2.2e-4) and reads point_sums only where
that bound cannot rule out the maximum (criterion.sweep).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
from mpmath.libmp import fnone, fone, from_int, fzero, mpf_add, mpf_div, mpf_log, mpf_pos, round_nearest as _RND

from .characters import totient

__all__ = [
    "PrimeTable",
    "ProgressionStats",
    "PrimorialSeq",
    "SmoothSetEnumeration",
    "theta",
    "psi",
    "primorials",
    "enumerate_smooth",
]

_SEGMENT = 1 << 16
_PI_1E6 = 78498  # pi(10^6), build-time sanity pin
BLOCK = 64  # progression primes per exact product in point_sums
GUARD = 32  # bits point_sums works with beyond prec


class PrimeTable:
    """Sorted primes up to `limit`, produced by a segmented sieve."""

    def __init__(self, limit: int):
        if limit < 2:
            limit = 2
        self.limit = int(limit)
        self.primes = _segmented_sieve(self.limit)
        if self.limit >= 10**6:
            n = bisect.bisect_right(self.primes, 10**6)
            if n != _PI_1E6:
                raise AssertionError(f"sieve self-check failed: pi(1e6) = {n}")

    def __len__(self):
        return len(self.primes)

    def upto(self, x) -> list[int]:
        if x > self.limit:
            raise ValueError(f"x={x} exceeds sieve limit {self.limit}")
        return self.primes[: bisect.bisect_right(self.primes, int(x))]


def _segmented_sieve(limit: int) -> list[int]:
    root = int(math.isqrt(limit))
    base = bytearray([1]) * (root + 1)
    base[0:2] = b"\x00\x00"
    for i in range(2, int(math.isqrt(root)) + 1):
        if base[i]:
            base[i * i :: i] = bytearray(len(base[i * i :: i]))
    base_primes = [i for i in range(2, root + 1) if base[i]]
    primes = list(base_primes)
    lo = root + 1
    while lo <= limit:
        hi = min(lo + _SEGMENT, limit + 1)
        seg = bytearray([1]) * (hi - lo)
        for p in base_primes:
            start = max(p * p, (lo + p - 1) // p * p)
            seg[start - lo :: p] = bytearray(len(seg[start - lo :: p]))
        primes.extend(i + lo for i, flag in enumerate(seg) if flag)
        lo = hi
    return primes


@lru_cache(maxsize=4)
def default_table(limit: int = 2_000_000) -> PrimeTable:
    return PrimeTable(limit)


@dataclass(frozen=True)
class PrimorialSeq:
    q: int
    a: int
    entries: tuple  # (k, pbar_k, log Nbar_k, log phi(Nbar_k))


@dataclass(frozen=True)
class SmoothSetEnumeration:
    q: int
    a: int
    bound: int
    members: tuple  # sorted n <= bound with every prime factor = a mod q


class ProgressionStats:
    """theta/psi step data for primes (and prime powers) = a mod q.

    Cumulative sums are mpf at `prec` bits.  The prime-power sums are built
    with the object; theta_cum and log1m_cum grow on demand to the progression
    primes a reader has asked for, by the same additions in the same order, so
    every stored entry is bit-identical to an eager build.  point_sums reads
    one point from block products instead and never grows them.  S(x) =
    theta(x) - x/phi(q) and R(x) = psi(x) - x/phi(q) are derived on demand,
    never stored.
    """

    def __init__(self, q: int, a: int, table: PrimeTable, prec: int = 192):
        if math.gcd(q, a) != 1:
            raise ValueError("q and a must be coprime")
        self.q, self.a = q, a % q if q > 1 else 1
        self.table = table
        self.prec = prec
        self.phi = totient(q)
        self.pbar = [p for p in table.primes if (p - self.a) % q == 0 or q == 1]
        self.theta_cum = []  # running sum of log(pbar), see _extend
        self.log1m_cum = []  # running sum of log(1 - 1/pbar)
        self._blocks = [(fzero, fzero)]  # point_sums' sums over each whole BLOCK prefix
        with mp.workprec(prec):
            # prime powers p^k <= limit with p^k = a mod q (k >= 2)
            powers = []
            for p in table.primes:
                pk = p * p
                if pk > table.limit:
                    break
                while pk <= table.limit:
                    if (pk - self.a) % q == 0 or q == 1:
                        powers.append((pk, p))
                    pk *= p
            powers.sort()
            self.power_points = [pk for pk, _ in powers]
            acc = mp.mpf(0)
            self.power_cum = []
            for _, p in powers:
                acc += mp.log(p)
                self.power_cum.append(acc)

    def _extend(self, n: int) -> None:
        """Log the first n progression primes into theta_cum and log1m_cum.
        Appends in place: the lists may be replaced by wrappers that track
        reads, and those must see the new entries.  The k-th entry of either
        is within 2 (k + 4) 2^-prec of the exact sum, relative: k logs, each
        within 4 2^-prec relative, and k - 1 additions, to first order,
        doubled."""
        done = len(self.theta_cum)
        if n <= done:
            return
        # mp.log and mp.log1p's own recipes, called in libmp without their
        # wrappers: the sums are bit-identical to `acc += mp.log(p)` and
        # `acc += mp.log1p(mp.mpf(-1) / p)` under mp.workprec(prec)
        prec, wp = self.prec, self.prec + 10
        th = self.theta_cum[-1]._mpf_ if done else fzero
        lm = self.log1m_cum[-1]._mpf_ if done else fzero
        for p in self.pbar[done:n]:
            pf = from_int(p)
            th = mpf_add(th, mpf_log(pf, prec, _RND), prec, _RND)
            x = mpf_div(fnone, pf, prec, _RND)
            if x[2] + x[3] < -wp:  # mp.log1p's tiny-x branch, once 2^wp < p
                with mp.workprec(prec):
                    t = mp.log1p(mp.make_mpf(x))._mpf_
            else:
                t = mpf_pos(mpf_log(mpf_add(fone, x, 2 * wp, _RND), wp, _RND), prec, _RND)
            lm = mpf_add(lm, t, prec, _RND)
            # make_mpf stores the tuple as is; mp.mpf(tuple) would round it
            # to the ambient precision
            self.theta_cum.append(mp.make_mpf(th))
            self.log1m_cum.append(mp.make_mpf(lm))

    def _block_logs(self, lo: int, hi: int, wp: int) -> tuple:
        """log prod pbar and log prod (1 - 1/pbar) over pbar[lo:hi], at wp bits:
        one mpf_log of the exact product, and one of the correctly rounded
        quotient prod (pbar - 1) / prod pbar, which log(prod (pbar - 1)) -
        log(prod pbar) would lose to cancellation."""
        ps = self.pbar[lo:hi]
        P = from_int(math.prod(ps))
        ratio = mpf_div(from_int(math.prod([p - 1 for p in ps])), P, wp, _RND)
        return mpf_log(P, wp, _RND), mpf_log(ratio, wp, _RND)

    def point_sums(self, k: int) -> tuple:
        """(theta, log1m): the sums of log pbar and of log(1 - 1/pbar) over the
        first k progression primes, rounded to prec bits, from
        n = ceil(k/BLOCK) block logs (_block_logs) added in order at
        w = prec + GUARD bits.  The sums over whole-block prefixes are kept, so
        a repeated query costs one partial block; theta_cum and log1m_cum are
        not touched.

        Rounding bound, with u = 2^-prec and u_w = 2^-w, each mpf_log within
        2 u_w of the exact log (relative) and mpf_div and mpf_add correctly
        rounded.  Recursive summation of n terms of one sign adds at most
        (n - 1) u_w times their sum (Higham, Accuracy and Stability of
        Numerical Algorithms, ch. 4), to first order.  For theta the logs add
        2 u_w theta.  For log1m each quotient's rounding adds at most u_w,
        absolute, and its log 2 u_w |log1m|.  One more u_w term covers the
        higher orders, the bound's own rounding and its use of the computed
        sums for the exact ones, then the rounding to prec adds u:

            |theta - exact| <= (n + 3) u_w theta + u theta
            |log1m - exact| <= (n + 3) u_w (1 + |log1m|) + u |log1m|

        point_bound returns these.  They hold while (n + 3) u <= 1/2 and
        n < 2^31: at any prec of 53 bits or more (the sweep's least) and
        any sieve held in memory."""
        if not 0 <= k <= len(self.pbar):
            raise ValueError(f"k={k} outside 0..{len(self.pbar)}, the progression primes of the sieve")
        wp = self.prec + GUARD
        m, r = divmod(k, BLOCK)
        while len(self._blocks) <= m:
            j = len(self._blocks) - 1
            (th, lm), (bt, bl) = self._blocks[j], self._block_logs(j * BLOCK, (j + 1) * BLOCK, wp)
            self._blocks.append((mpf_add(th, bt, wp, _RND), mpf_add(lm, bl, wp, _RND)))
        th, lm = self._blocks[m]
        if r:
            bt, bl = self._block_logs(m * BLOCK, k, wp)
            th, lm = mpf_add(th, bt, wp, _RND), mpf_add(lm, bl, wp, _RND)
        return mp.make_mpf(mpf_pos(th, self.prec, _RND)), mp.make_mpf(mpf_pos(lm, self.prec, _RND))

    def point_bound(self, k: int) -> tuple:
        """Bounds on |theta - exact| and |log1m - exact| for point_sums(k),
        as its docstring states them."""
        theta, log1m = self.point_sums(k)
        n = -(-k // BLOCK)
        with mp.workprec(self.prec):
            u, u_w = mp.ldexp(1, -self.prec), mp.ldexp(1, -self.prec - GUARD)
            return (n + 3) * u_w * theta + u * theta, (n + 3) * u_w * (1 - log1m) - u * log1m

    # --- step functions --------------------------------------------------

    def _count(self, x) -> int:
        """Number of progression primes <= x."""
        if x > self.table.limit:
            raise ValueError(f"x={x} exceeds sieve limit {self.table.limit}")
        return bisect.bisect_right(self.pbar, int(x))

    def _index(self, x) -> int:
        """Number of progression primes <= x; their running sums are logged."""
        i = self._count(x)
        self._extend(i)
        return i

    def theta(self, x) -> mp.mpf:
        i = self._index(x)
        return self.theta_cum[i - 1] if i else mp.mpf(0)

    def psi(self, x) -> mp.mpf:
        j = bisect.bisect_right(self.power_points, int(x))
        extra = self.power_cum[j - 1] if j else mp.mpf(0)
        return self.theta(x) + extra

    def log_one_minus(self, x) -> mp.mpf:
        """Sum of log(1 - 1/pbar) over progression primes pbar <= x."""
        i = self._index(x)
        return self.log1m_cum[i - 1] if i else mp.mpf(0)

    def steps(self, lo, hi):
        """Yield (start, end, theta) for the intervals that tile [lo, hi] with
        theta flat on each: the cuts are the progression primes in (lo, hi),
        and theta is the value on [start, end).  Ends are mpf at the caller's
        working precision."""
        i, j = self._index(lo), self._index(hi)
        start = mp.mpf(lo)
        while start < hi:
            end = mp.mpf(self.pbar[i]) if i < j else mp.mpf(hi)
            yield start, end, self.theta_cum[i - 1] if i else mp.mpf(0)
            start = end
            i += 1

    def S(self, x) -> mp.mpf:
        return self.theta(x) - mp.mpf(x) / self.phi

    def R(self, x) -> mp.mpf:
        return self.psi(x) - mp.mpf(x) / self.phi

    # --- derived sequences ------------------------------------------------

    def primorials(self, k_max: int) -> PrimorialSeq:
        if k_max > len(self.pbar):
            raise ValueError("sieve exhausted before k_max progression primes")
        self._extend(k_max)
        entries = tuple(
            (k + 1, self.pbar[k], self.theta_cum[k], self.theta_cum[k] + self.log1m_cum[k])
            for k in range(k_max)
        )
        return PrimorialSeq(self.q, self.a, entries)


def stats(q: int, a: int, table: PrimeTable | None = None, prec: int = 192) -> ProgressionStats:
    return _stats_cached(q, a, table or default_table(), prec)


@lru_cache(maxsize=64)
def _stats_cached(q, a, table, prec):
    return ProgressionStats(q, a, table, prec)


def theta(x, q: int, a: int, table: PrimeTable | None = None) -> mp.mpf:
    return stats(q, a, table).theta(x)


def psi(x, q: int, a: int, table: PrimeTable | None = None) -> mp.mpf:
    return stats(q, a, table).psi(x)


def primorials(q: int, a: int, k_max: int, table: PrimeTable | None = None) -> PrimorialSeq:
    return stats(q, a, table).primorials(k_max)


def enumerate_smooth(q: int, a: int, X: int, table: PrimeTable | None = None) -> SmoothSetEnumeration:
    """All n <= X whose prime factors are all = a mod q (excluding 1),
    by depth-first products over the progression primes."""
    st = stats(q, a, table)
    admissible = [p for p in st.pbar if p <= X]
    found: list[int] = []

    def extend(value: int, start: int) -> None:
        for i in range(start, len(admissible)):
            nxt = value * admissible[i]
            if nxt > X:
                break
            found.append(nxt)
            extend(nxt, i)

    extend(1, 0)
    return SmoothSetEnumeration(q, a % q if q > 1 else 1, X, tuple(sorted(found)))
