"""Sieving and progression-restricted prime counting.

Provides theta(x;q,a), psi(x;q,a), the progression primorials N-bar_k, and
enumeration of the multiplicative sets S_{q,a} = {n : p | n => p = a mod q}.
The sums of log pbar and of log(1 - 1/pbar) are taken in mpmath arbitrary
precision by one route, ProgressionStats.point_sums, with one stated
rounding bound: two logs at any point, of the product of the progression
primes up to it and of the quotient of prod (pbar - 1) by that product.
The products over whole blocks of BLOCK primes are kept as integer
mantissas floored to a fixed width.  Readers of a single point (theta, the
sweep's few candidates for the maximum) call it; walkers of every step
point (log f series, primorials) call ProgressionStats.sums, its values
over a run of points, which stores nothing.  The sweep screens every step
point first in doubles, in chunks of up to 1024 points with one rounding
bound each (about 1e-13 where the smallest margin is 2.2e-4), and reads
point_sums only where that bound cannot rule out the maximum
(criterion.sweep).
Every reader takes the PrimeTable its caller sized: a table holds every
prime to its limit, sieved over the odd integers alone and packed as
4-byte words in an array("I") (so limits stop below 2^32), and cli sieves
to min(--sieve-limit, max(x, 10^5)) for the largest x a command reads;
10^5 is the winding guard's first limit, so one cached table serves both.
A progression's share, ProgressionStats.pbar, is an array of the same
kind, and for q = 1 the table's own.  Readers slice, bisect, map and index
these arrays as they would lists, and get Python ints.
"""

from __future__ import annotations

import bisect
import itertools
import math
from array import array
from functools import lru_cache
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_div, mpf_log, mpf_pos, round_nearest as _RND

from .characters import residue, totient
from .lvalues import DEFAULT_PREC

__all__ = [
    "PrimeTable",
    "ProgressionStats",
    "PrimorialSeq",
    "prime_table",
    "SmoothSetEnumeration",
    "enumerate_smooth",
]

_SEGMENT = 1 << 16  # bytes of a sieve segment, one per odd integer
_WORD_LIMIT = 1 << 32  # array("I") holds primes below it
_PI_1E5 = 9592  # pi(10^5) and pi(10^6), build-time sanity pins
_PI_1E6 = 78498
BLOCK = 64  # progression primes per whole-block product point_sums keeps
GUARD = 32  # bits point_sums works with beyond prec
_CARRY = 32  # bits the whole-block products keep beyond prec + GUARD


class PrimeTable:
    """Sorted primes up to `limit` in an array("I"), produced by a segmented
    sieve of the odd integers; raises ValueError, before sieving, for a limit
    of 2^32 or more."""

    def __init__(self, limit: int):
        if limit < 2:
            limit = 2
        if limit >= _WORD_LIMIT:
            raise ValueError(f"sieve limit {limit} must be below 2^32, the most a packed prime table holds")
        self.limit = int(limit)
        self.primes = _segmented_sieve(self.limit)
        for e, pinned in ((5, _PI_1E5), (6, _PI_1E6)):
            if self.limit >= 10**e and (n := bisect.bisect_right(self.primes, 10**e)) != pinned:
                raise AssertionError(f"sieve self-check failed: pi(1e{e}) = {n}")


def _segmented_sieve(limit: int) -> array:
    """2, then the odd primes to `limit`: the odd base primes to isqrt(limit)
    cross off their odd multiples in segments of _SEGMENT bytes, one byte
    per odd integer."""
    root = int(math.isqrt(limit))
    base = bytearray([1]) * (root + 1)
    for i in range(3, int(math.isqrt(root)) + 1, 2):
        if base[i]:
            base[i * i :: 2 * i] = bytes(len(range(i * i, root + 1, 2 * i)))
    base_primes = [i for i in range(3, root + 1, 2) if base[i]]
    primes = array("I", [2, *base_primes])
    lo = (root + 1) | 1  # the first odd integer past root
    while lo <= limit:
        hi = min(lo + 2 * _SEGMENT, limit + 1)
        seg = bytearray([1]) * len(range(lo, hi, 2))
        for p in base_primes:
            start = max(p * p, (lo + p - 1) // p * p)
            if not start & 1:
                start += p  # the first odd multiple
            seg[(start - lo) >> 1 :: p] = bytes(len(range(start, hi, 2 * p)))
        primes.extend(itertools.compress(range(lo, hi, 2), seg))
        lo += 2 * _SEGMENT
    return primes


@lru_cache(maxsize=4)
def prime_table(limit: int) -> PrimeTable:
    """The PrimeTable to `limit`, sieved once per limit.  Few are held: the
    table to 10^7 alone holds 664,579 primes, about 2.7 MB."""
    return PrimeTable(limit)


class PrimorialSeq(NamedTuple):
    q: int
    a: int
    entries: tuple  # (k, pbar_k, log Nbar_k, log phi(Nbar_k))


class SmoothSetEnumeration(NamedTuple):
    q: int
    a: int
    bound: int
    members: tuple  # sorted n <= bound with every prime factor = a mod q


class ProgressionStats:
    """theta/psi step data for primes (and prime powers) = a mod q.

    Cumulative sums are mpf at `prec` bits.  The prime-power sums are built
    with the object.  theta and log(1 - 1/pbar) sums come from point_sums
    alone: single-point readers (theta, log_one_minus, psi) call it, and the
    walkers of every step point (primorials, criterion.log_f_series) call
    sums, its values over a run of points.
    """

    def __init__(self, q: int, a: int, table: PrimeTable, prec: int = DEFAULT_PREC):
        self.q, self.a = q, residue(q, a)
        self.table = table
        self.prec = prec
        self.phi = totient(q)
        # q = 1 keeps every prime, so its share is the table's own array
        self.pbar = table.primes if q == 1 else array("I", (p for p in table.primes if (p - self.a) % q == 0))
        # filled by nothing: perfbench/tracer.py reads them when __init__ returns (ROADMAP.md, item 16)
        self.theta_cum, self.log1m_cum = [], []
        self._blocks = [(1, 0, 1, 0)]  # (Pm, Pe, Qm, Qe) of each whole BLOCK prefix, see _prefix
        with mp.workprec(prec):
            # prime powers p^k <= limit with p^k = a mod q (k >= 2)
            powers = []
            for p in table.primes:
                pk = p * p
                if pk > table.limit:
                    break
                while pk <= table.limit:
                    if (pk - self.a) % q == 0:
                        powers.append((pk, p))
                    pk *= p
            powers.sort()
            self.power_points = [pk for pk, _ in powers]
            acc = mp.mpf(0)
            self.power_cum = []
            for _, p in powers:
                acc += mp.log(p)
                self.power_cum.append(acc)

    def _block_sums(self, j: int, P: int, Q: int) -> tuple:
        """The sums over the first j whole blocks and then a run of progression
        primes whose exact products are P = prod pbar and Q = prod (pbar - 1),
        at w = prec + GUARD bits: the only logs point_sums takes.  One mpf_log
        of the product _blocks[j] times P, and one of the correctly rounded
        quotient of the two products, which log Q - log P would lose to
        cancellation."""
        wp = self.prec + GUARD
        Pm, Pe, Qm, Qe = self._blocks[j]
        Pf = from_man_exp(Pm * P, Pe)
        return mpf_log(Pf, wp, _RND), mpf_log(mpf_div(from_man_exp(Qm * Q, Qe), Pf, wp, _RND), wp, _RND)

    def _prefix(self, m: int) -> tuple:
        """_blocks[m], the products over the first m whole blocks, multiplying
        in the blocks up to it: _blocks[j + 1] is _blocks[j] times the exact
        products of block j, each mantissa floored to prec + GUARD + _CARRY
        bits."""
        w = self.prec + GUARD + _CARRY
        while len(self._blocks) <= m:
            j = len(self._blocks) - 1
            (Pm, Pe, Qm, Qe), (P, Q) = self._blocks[j], self._products(j * BLOCK, (j + 1) * BLOCK)
            Pm, Qm = Pm * P, Qm * Q
            ps, qs = max(Pm.bit_length() - w, 0), max(Qm.bit_length() - w, 0)
            self._blocks.append((Pm >> ps, Pe + ps, Qm >> qs, Qe + qs))
        return self._blocks[m]

    def _products(self, lo: int, hi: int) -> tuple:
        """The exact products prod pbar and prod (pbar - 1) over pbar[lo:hi]."""
        ps = self.pbar[lo:hi]
        return math.prod(ps), math.prod([p - 1 for p in ps])

    def _rounded(self, sums: tuple) -> tuple:
        # make_mpf stores the tuple as is; mp.mpf(tuple) would round it to
        # the ambient precision
        return tuple(mp.make_mpf(mpf_pos(v, self.prec, _RND)) for v in sums)

    def point_sums(self, k: int) -> tuple:
        """(theta, log1m): the sums of log pbar and of log(1 - 1/pbar) over the
        first k progression primes, rounded to prec bits, from two logs at
        w = prec + GUARD bits (_block_sums): of the products over the first
        m = floor(k/BLOCK) whole blocks (_blocks[m]) times the exact products
        over the rest.  The whole-block products are kept, so a repeated query
        costs two logs and two products of fewer than BLOCK primes.  sums
        gives these values over a run of points.

        Rounding bound, with u = 2^-prec, u_w = 2^-w and w' = w + _CARRY.
        Each of the m checkpoints floors its mantissas to w' bits, a relative
        error in [0, 2^(1 - w')), so the logs of both whole-block products are
        low by less than e = m 2^(2 - w'), and their difference, log1m's, is
        off by less than e too.  mpf_log is within 2 u_w of the exact log
        (relative), and the quotient's correct rounding adds at most u_w to
        log1m, absolute.  One more u_w term covers the higher orders, the
        bound's own rounding and its use of the computed sums for the exact
        ones, then the rounding to prec adds u:

            |theta - exact| <= e + 3 u_w theta + u theta
            |log1m - exact| <= e + 3 u_w (1 + |log1m|) + u |log1m|

        point_bound returns these.  They hold at any prec of 53 bits or more
        (the sweep's least) and any sieve, which stops below 2^32, so that
        m < 2^22 and e < 2^-8 u_w."""
        if not 0 <= k <= len(self.pbar):
            raise ValueError(f"k={k} outside 0..{len(self.pbar)}, the progression primes of the sieve")
        m = k // BLOCK
        self._prefix(m)
        return self._rounded(self._block_sums(m, *self._products(m * BLOCK, k)))

    def sums(self, lo: int, hi: int) -> list:
        """[point_sums(k) for k = lo + 1 ... hi], bit for bit: the exact
        products over the current block are seeded at lo and carried from one
        prime to the next, so each k costs point_sums' two logs.  A list, not
        a generator, so that every sum is taken before the caller's own logs:
        interleaving logs at prec + GUARD and at prec made log_f_series 13%
        slower."""
        m = lo // BLOCK
        self._prefix(m)
        P, Q = self._products(m * BLOCK, lo)
        out = []
        for k in range(lo + 1, hi + 1):
            m, r = divmod(k, BLOCK)
            if r:
                p = self.pbar[k - 1]
                P, Q = P * p, Q * (p - 1)
            else:
                self._prefix(m)
                P = Q = 1
            out.append(self._rounded(self._block_sums(m, P, Q)))
        return out

    def point_bound(self, k: int) -> tuple:
        """Bounds on |theta - exact| and |log1m - exact| for point_sums(k),
        as its docstring states them."""
        theta, log1m = self.point_sums(k)
        w = self.prec + GUARD
        with mp.workprec(self.prec):
            u, u_w, e = mp.ldexp(1, -self.prec), mp.ldexp(1, -w), mp.ldexp(k // BLOCK, 2 - w - _CARRY)
            return e + 3 * u_w * theta + u * theta, e + 3 * u_w * (1 - log1m) - u * log1m

    # --- step functions --------------------------------------------------

    def _count(self, x) -> int:
        """Number of progression primes <= x."""
        if x > self.table.limit:
            raise ValueError(f"x={x} exceeds sieve limit {self.table.limit}")
        return bisect.bisect_right(self.pbar, int(x))

    def theta(self, x) -> mp.mpf:
        return self.point_sums(self._count(x))[0]

    def psi(self, x) -> mp.mpf:
        j = bisect.bisect_right(self.power_points, int(x))
        extra = self.power_cum[j - 1] if j else mp.mpf(0)
        return self.theta(x) + extra

    def log_one_minus(self, x) -> mp.mpf:
        """Sum of log(1 - 1/pbar) over progression primes pbar <= x."""
        return self.point_sums(self._count(x))[1]

    # --- derived sequences ------------------------------------------------

    def primorials(self, k_max: int) -> PrimorialSeq:
        if k_max > len(self.pbar):
            raise ValueError("sieve exhausted before k_max progression primes")
        with mp.workprec(self.prec):
            entries = tuple((k, self.pbar[k - 1], th, th + lm) for k, (th, lm) in enumerate(self.sums(0, k_max), 1))
        return PrimorialSeq(self.q, self.a, entries)


def stats(q: int, a: int, table: PrimeTable, prec: int = DEFAULT_PREC) -> ProgressionStats:
    """The ProgressionStats of the class a mod q, one per reduced residue."""
    return _stats_cached(q, residue(q, a), table, prec)


@lru_cache(maxsize=64)
def _stats_cached(q, a, table, prec):
    return ProgressionStats(q, a, table, prec)


def enumerate_smooth(q: int, a: int, X: int, table: PrimeTable) -> SmoothSetEnumeration:
    """All n <= X whose prime factors are all = a mod q (excluding 1),
    by depth-first products over the progression primes; raises ValueError
    when X exceeds the sieve limit."""
    st = stats(q, a, table)
    admissible = st.pbar[: st._count(X)]
    found: list[int] = []

    def extend(value: int, start: int) -> None:
        for i in range(start, len(admissible)):
            nxt = value * admissible[i]
            if nxt > X:
                break
            found.append(nxt)
            extend(nxt, i)

    extend(1, 0)
    return SmoothSetEnumeration(q, st.a, X, tuple(sorted(found)))
