"""Sieve, progression step functions, primorials, smooth sets."""

import bisect
import itertools
import math
import tracemalloc
from functools import lru_cache

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.libmp import mpf_add, mpf_log, round_nearest

from lemmas import R, S, steps
from oracles import exact_prefix_products, exact_product_sums, running_sums, running_sums_bound
from totprog import primes
from totprog.cli import DEFAULT_LIMIT
from totprog.primes import (
    BLOCK,
    GUARD,
    PrimeTable,
    ProgressionStats,
    _SEGMENT,
    enumerate_smooth,
    prime_table,
    stats,
)


def test_pi_of_1e6(table):
    assert len([p for p in table.primes if p <= 10**6]) == 78498


def test_small_primes(table):
    assert [p for p in table.primes if p <= 30] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


_THREE_SEGMENTS = 443 + 3 * _SEGMENT


@lru_cache(maxsize=None)
def _simple_sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(limit + 1) if flags[i]]


@pytest.mark.parametrize("limit", [10_000, _THREE_SEGMENTS - 1, _THREE_SEGMENTS, _THREE_SEGMENTS + 1, 5 * _SEGMENT])
def test_segmented_matches_simple_sieve(limit):
    assert list(PrimeTable(limit).primes) == _simple_sieve(limit)


def _ends_segment(n):
    """The odd limit that ends the n-th segment exactly: segments take the
    odd integers from isqrt(limit) + 1 | 1 on, _SEGMENT at a time."""
    limit = 2 * n * _SEGMENT
    while (end := ((math.isqrt(limit) + 1) | 1) + 2 * (n * _SEGMENT - 1)) != limit:
        limit = end
    return limit


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("step", [-1, 0, 1, 2])
def test_sieve_segments_end_at_the_limit(n, step, monkeypatch):
    """Limits that end the first or third segment exactly, and their
    neighbours: the sieve passes the odd integers from isqrt(limit) + 1 | 1
    to the limit, _SEGMENT at a time (n full segments at that limit and the
    one after it, the n-th one short by one below it, and one segment more,
    of one, two past it), and finds the simple sieve's primes."""
    limit = _ends_segment(n) + step
    compress, spans = itertools.compress, []
    monkeypatch.setattr(itertools, "compress", lambda r, seg: spans.append(r) or compress(r, seg))
    got = list(PrimeTable(limit).primes)
    monkeypatch.undo()
    odd = range((math.isqrt(limit) + 1) | 1, limit + 1, 2)
    assert [x for r in spans for x in r] == list(odd)
    assert [len(r) for r in spans] == [_SEGMENT] * (n - (step < 0)) + [_SEGMENT - 1] * (step < 0) + [1] * (step == 2)
    assert got == _simple_sieve(limit)


@pytest.mark.parametrize("limit", [2, 3, 4, 9, 25, 26, 49, 121])
def test_segmented_matches_simple_sieve_at_small_limits(limit):
    assert list(PrimeTable(limit).primes) == _simple_sieve(limit)


_SIEVE_ORACLE = 300_000


@given(limit=st.integers(2, _SIEVE_ORACLE))
@settings(max_examples=60, deadline=None)
def test_segmented_matches_simple_sieve_at_any_limit(limit):
    primes_ = _simple_sieve(_SIEVE_ORACLE)
    assert list(PrimeTable(limit).primes) == primes_[: bisect.bisect_right(primes_, limit)]


def test_sieved_primes_are_packed_words():
    """The table holds each prime in at most 8 bytes (a list of ints takes
    about 40), and the q = 1 share is the table's own array: no allocation
    the q = 1 build adds is the size of a copy, 4 bytes a prime.  The (7, 1)
    build first warms mpmath's caches, which the diff would otherwise hold."""
    tracemalloc.start()
    try:
        tab = PrimeTable(_THREE_SEGMENTS + 1)
        held = tracemalloc.get_traced_memory()[0]
        built = [ProgressionStats(7, 1, tab)]  # held, so the snapshots see what each build keeps
        before = tracemalloc.take_snapshot()
        built.append(ProgressionStats(1, 1, tab))
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    n = len(tab.primes)
    assert held <= 8 * n
    assert max(d.size_diff for d in after.compare_to(before, "traceback")) < n


def test_a_limit_of_2_to_the_32_is_refused_before_sieving(monkeypatch):
    monkeypatch.setattr(primes, "_segmented_sieve", lambda limit: pytest.fail(f"sieved to {limit}"))
    with pytest.raises(ValueError, match=r"must be below 2\^32"):
        PrimeTable(2**32)


# -- theta / psi -------------------------------------------------------------


def _theta_brute(x, q, a, table):
    return mp.fsum(mp.log(p) for p in table.primes if p <= x and (p % max(q, 2) == a % max(q, 2) or q == 1))


def _psi_brute(x, q, a, table):
    total = mp.mpf(0)
    for p in table.primes[: bisect.bisect_right(table.primes, int(x))]:
        pk = p
        while pk <= x:
            if q == 1 or pk % q == a % q:
                total += mp.log(p)
            pk *= p
    return total


@pytest.mark.parametrize("q,a", [(1, 1), (3, 1), (3, 2), (4, 1), (5, 3), (7, 6), (10, 9)])
def test_theta_psi_against_bruteforce(q, a, table):
    st_ = stats(q, a, table)
    for x in (10, 100, 1234, 10_000):
        tol = 1e-12 * (1 + x)  # brute sums accumulate double-rounding
        assert abs(st_.theta(x) - _theta_brute(x, q, a, table)) < tol
        assert abs(st_.psi(x) - _psi_brute(x, q, a, table)) < tol


SMALL = PrimeTable(20_000)


def _endpoint():
    return st.one_of(
        st.integers(0, SMALL.limit),
        st.sampled_from(SMALL.primes),
        st.floats(0, SMALL.limit).filter(lambda v: v != int(v)),
    )


@given(
    qa=st.sampled_from([(1, 1), (3, 1), (3, 2), (7, 1), (7, 3), (7, 6)]),
    ends=st.lists(_endpoint(), min_size=2, max_size=2, unique=True).map(sorted),
)
@settings(max_examples=100, deadline=None)
def test_steps_tile_the_interval(qa, ends):
    """steps() covers [lo, hi] without gaps, cuts exactly at the progression
    primes strictly inside, and carries theta's value on each piece."""
    lo, hi = ends
    st_ = stats(*qa, SMALL)
    pieces = list(steps(st_, lo, hi))
    assert pieces[0][0] == lo and pieces[-1][1] == hi
    for (_, end, _), (start, _, _) in zip(pieces, pieces[1:]):
        assert end == start
    for start, end, theta in pieces:
        assert start < end
        assert theta == st_.theta(start)
    assert [end for _, end, _ in pieces[:-1]] == [p for p in st_.pbar if lo < p < hi]


def test_step_lookups_refuse_x_past_the_sieve():
    st_ = stats(3, 1, SMALL)
    for lookup in (st_.theta, st_.psi, st_.log_one_minus):
        with pytest.raises(ValueError):
            lookup(SMALL.limit + 1)
    with pytest.raises(ValueError):
        list(steps(st_, 10, SMALL.limit + 1))


@lru_cache(maxsize=None)
def _point_sums(q, a, prec=192):
    """The progression primes of SMALL, and point_sums(k) for every k from 0
    to their number, on a fresh object: what every read must give."""
    st_ = ProgressionStats(q, a, SMALL, prec)
    return st_.pbar, [st_.point_sums(k) for k in range(len(st_.pbar) + 1)]


@lru_cache(maxsize=None)
def _running_sums(q, a, prec):
    return running_sums(ProgressionStats(q, a, SMALL).pbar, prec)


def _k(n):
    """Point counts up to n: below a block, at a block boundary mB and at
    mB - 1, mB + 1, or anywhere."""
    boundary = st.integers(0, n // BLOCK).flatmap(lambda m: st.sampled_from([m * BLOCK - 1, m * BLOCK, m * BLOCK + 1]))
    return st.one_of(st.integers(0, BLOCK - 1), boundary.filter(lambda k: 0 <= k <= n), st.integers(0, n))


_x = st.integers(0, SMALL.limit)
_read = st.one_of(
    st.tuples(st.sampled_from(["theta", "log_one_minus", "psi"]), _x),
    st.tuples(st.just("steps"), st.lists(_x, min_size=2, max_size=2, unique=True).map(sorted)),
    st.tuples(st.sampled_from(["primorials", "point_sums"]), _k(400)),
)


_QA = [(1, 1), (3, 1), (3, 2), (7, 1), (7, 3)]


@given(qa=st.sampled_from(_QA), prec=st.sampled_from([53, 192]), reads=st.lists(_read, min_size=1, max_size=8))
@example(qa=(7, 1), prec=192, reads=[("primorials", 378)])  # (7, 1) has 377 progression primes in SMALL
@settings(max_examples=100, deadline=None)
def test_lazy_build_matches_an_eager_build(qa, prec, reads):
    """Reads in any order see point_sums' values on a fresh object, bit for
    bit: the single-point reads (theta, log_one_minus, psi, point_sums) and
    the walkers (steps, primorials) alike.  Asking for more points than the
    sieve holds raises.  Nothing fills theta_cum or log1m_cum."""
    pbar, sums = _point_sums(*qa, prec)
    st_ = ProgressionStats(*qa, SMALL, prec)

    def at(x, part=0):
        return sums[bisect.bisect_right(pbar, x)][part]

    for kind, arg in reads:
        if kind == "theta":
            got, want = [st_.theta(arg)], [at(arg)]
        elif kind == "log_one_minus":
            got, want = [st_.log_one_minus(arg)], [at(arg, 1)]
        elif kind == "psi":
            j = bisect.bisect_right(st_.power_points, arg)
            got, want = [st_.psi(arg)], [at(arg) + (st_.power_cum[j - 1] if j else 0)]
        elif kind == "steps":
            pieces = list(steps(st_, *arg))
            got, want = [v for _, _, v in pieces], [at(int(start)) for start, _, _ in pieces]
        elif arg > len(pbar):
            with pytest.raises(ValueError, match="sieve exhausted" if kind == "primorials" else "outside"):
                getattr(st_, kind)(arg)
            continue
        elif kind == "point_sums":
            got, want = st_.point_sums(arg), sums[arg]
        else:
            entries = st_.primorials(arg).entries
            assert [e[:2] for e in entries] == [(k + 1, pbar[k]) for k in range(arg)]
            got = [v for e in entries for v in e[2:]]
            want = [v for k in range(1, arg + 1) for v in (sums[k][0], _sum_at(prec, *sums[k]))]
        assert [v._mpf_ for v in got] == [v._mpf_ for v in want]
    assert st_.theta_cum == [] and st_.log1m_cum == []


def _sum_at(prec, a, b):
    return mp.make_mpf(mpf_add(a._mpf_, b._mpf_, prec, round_nearest))


def _mpfs(values):
    return [v._mpf_ for v in values]


def test_single_point_reads_after_a_walk_take_one_partial_block(table, monkeypatch):
    """theta and log_one_minus after a walk give the bits a fresh point_sums
    gives, each read taking at most one block log pair: the walk has stored
    every whole block before the point."""
    st_ = ProgressionStats(7, 3, table)
    xs = [1, st_.pbar[0], st_.pbar[63], st_.pbar[64] + 1, st_.pbar[299]]
    want = [_mpfs(st_.point_sums(bisect.bisect_right(st_.pbar, x))) for x in xs]
    st_ = ProgressionStats(7, 3, table)
    st_.primorials(300)
    calls = []
    block_sums = ProgressionStats._block_sums
    monkeypatch.setattr(ProgressionStats, "_block_sums", lambda self, *a: calls.append(a) or block_sums(self, *a))
    for x, w in zip(xs, want):
        got = []
        for read in (st_.theta, st_.log_one_minus):
            calls.clear()
            got.append(read(x))
            assert len(calls) <= 1
        assert _mpfs(got) == w


def test_a_point_at_the_sieve_limit_takes_two_logs(table, monkeypatch):
    """point_sums(k) takes one log of the product over the first k primes and
    one of the quotient, however many blocks those span: the whole-block
    products are kept as numbers, not as sums of block logs."""
    st_ = ProgressionStats(1, 1, table)
    calls = []
    monkeypatch.setattr(primes, "mpf_log", lambda *a: calls.append(a) or mpf_log(*a))
    st_.point_sums(len(st_.pbar))
    assert len(calls) == 2


@pytest.mark.parametrize("qa", [(1, 1), (7, 1)])
def test_checkpoints_floor_the_exact_prefix_products(qa):
    """_blocks[j] = (Pm, Pe, Qm, Qe) holds the products over the first j whole
    blocks, floored j times to w' = prec + GUARD + 32 bits:
    0 <= exact - Pm 2^Pe < j 2^(1 - w') exact.  Each is its predecessor
    times the block's exact product, floored once: below that by less than
    2^(1 - w') of it."""
    st_ = ProgressionStats(*qa, PrimeTable(200_000))
    st_.point_sums(len(st_.pbar))
    exact = exact_prefix_products(st_.pbar, BLOCK)
    assert len(st_._blocks) == len(exact) > 40
    w = st_.prec + GUARD + 32

    def floored(x, m, e, floors):
        """m has at most w bits, and m 2^e is x itself (no floors) or below it
        by less than floors 2^(1 - w) x."""
        low = x - (m << e)
        within = low << (w - 1) < floors * x if floors else low == 0
        return m.bit_length() <= w and e >= 0 and low >= 0 and within

    for j, (P, Q) in enumerate(exact):
        Pm, Pe, Qm, Qe = st_._blocks[j]
        assert floored(P, Pm, Pe, j) and floored(Q, Qm, Qe, j), j
        if j:
            pm, pe, qm, qe = st_._blocks[j - 1]
            bP, bQ = P // exact[j - 1][0], Q // exact[j - 1][1]
            assert floored(pm * bP << pe, Pm, Pe, 1) and floored(qm * bQ << qe, Qm, Qe, 1), j


def test_stats_are_shared_by_every_representative_of_a_class(table):
    assert stats(7, 8, table) is stats(7, 1, table) is stats(7, -6, table)
    assert stats(1, 5, table) is stats(1, 1, table)


def test_primorials_add_at_the_working_precision(table):
    """log phi(Nbar_k) = theta + log1m is rounded to prec, as log Nbar_k is,
    not to the caller's precision."""
    st_ = stats(5, 1, table)
    for k, (_, _, th, lphi) in enumerate(st_.primorials(40).entries):
        assert lphi._mpf_ == mpf_add(th._mpf_, st_.point_sums(k + 1)[1]._mpf_, st_.prec, round_nearest)


@pytest.mark.parametrize("prec", [3, 53, 300])
def test_logged_sums_match_mpmath_at_any_precision(prec):
    """Walking the progression primes after single-point reads, in pieces
    that start and end inside blocks, gives point_sums(k) of a fresh object
    at any precision, bit for bit.  From 53 bits on, where point_bound
    holds, the values are within it (plus running_sums_bound) of the running
    sums of mp.log and mp.log1p."""
    pbar, sums = _point_sums(3, 2, prec)
    st_ = ProgressionStats(3, 2, SMALL, prec)
    st_.point_sums(2 * BLOCK + 5)
    walked = st_.sums(0, BLOCK + 3)
    st_.point_sums(9 * BLOCK)
    for lo, hi in [(BLOCK + 3, 3 * BLOCK - 7), (3 * BLOCK - 7, 3 * BLOCK), (3 * BLOCK, len(pbar))]:
        walked += st_.sums(lo, hi)
    assert [(th._mpf_, lm._mpf_) for th, lm in walked] == [(th._mpf_, lm._mpf_) for th, lm in sums[1:]]
    if prec < 53:
        return
    theta, log1m = _running_sums(3, 2, prec)
    for k in range(1, len(pbar) + 1):
        want = theta[k - 1], log1m[k - 1]
        bounds = [b + r for b, r in zip(st_.point_bound(k), running_sums_bound(k, *want, prec))]
        _within(sums[k], want, bounds)


def _within(got, want, bounds) -> None:
    with mp.workprec(512):
        for g, w, b in zip(got, want, bounds):
            assert abs(g - w) <= b, (g, w, b)


@given(qa=st.sampled_from(_QA), prec=st.sampled_from([53, 192]), data=st.data())
@example(qa=(1, 1), prec=192, data=None)
@settings(max_examples=100, deadline=None)
def test_point_sums_match_the_running_sums(qa, prec, data):
    """point_sums agrees with the oracle's running sums (one mp.log and one
    mp.log1p per prime) within point_bound plus running_sums_bound, at any k
    and in any order of queries, and logs nothing into theta_cum and
    log1m_cum."""
    st_ = ProgressionStats(*qa, SMALL, prec)
    pbar, (theta, log1m) = st_.pbar, _running_sums(*qa, prec)
    ks = [len(pbar), len(pbar) - 1, 0] if data is None else data.draw(st.lists(_k(len(pbar)), min_size=1, max_size=6))
    for k in ks:
        got = st_.point_sums(k)
        if k == 0:
            assert got == (0, 0)
            continue
        want = theta[k - 1], log1m[k - 1]
        bounds = [b + r for b, r in zip(st_.point_bound(k), running_sums_bound(k, *want, prec))]
        _within(got, want, bounds)
    assert st_.theta_cum == [] and st_.log1m_cum == []


@pytest.mark.parametrize("prec", [53, 192])
@pytest.mark.parametrize("q", [1, 7, 14])
def test_point_sums_keep_the_guard_accuracy(q, prec):
    """point_sums(k) is within (1 + 2^-16) 2^-prec |value| of 600-bit
    running sums, at every k below 200 and every 97th beyond: the accuracy
    GUARD buys, about the rounding to prec alone (point_bound allows more)."""
    st_ = ProgressionStats(q, 1, SMALL, prec)
    theta, log1m = _running_sums(q, 1, 600)
    with mp.workprec(700):
        for k in [*range(1, 200), *range(200, len(st_.pbar) + 1, 97)]:
            for got, want in zip(st_.point_sums(k), (theta[k - 1], log1m[k - 1])):
                assert abs(got - want) <= (1 + mp.ldexp(1, -16)) * mp.ldexp(abs(got), -prec), (k, got, want)


def _covers_finer(st_, ks):
    """point_sums(k) is within point_bound(k) of the exact sums, taken at 64
    more bits from one log of each exact product (plus that value's error)."""
    for k, finer in exact_product_sums(st_.pbar, ks, st_.prec + 64).items():
        slack = [mp.ldexp(3 + 2 * abs(v), -st_.prec - 64) for v in finer]
        _within(st_.point_sums(k), finer, [b + s for b, s in zip(st_.point_bound(k), slack)])


@given(qa=st.sampled_from(_QA), prec=st.sampled_from([53, 192]), data=st.data())
@settings(max_examples=100, deadline=None)
def test_point_bound_covers_a_finer_value(qa, prec, data):
    st_ = ProgressionStats(*qa, SMALL, prec)
    _covers_finer(st_, data.draw(st.lists(_k(len(st_.pbar)), min_size=1, max_size=4)))


@pytest.mark.parametrize("qa", [(1, 1), (7, 1)])
def test_point_bound_covers_a_finer_value_at_the_sieve_limit(qa, table):
    st_ = ProgressionStats(*qa, table)
    n = len(st_.pbar)
    _covers_finer(st_, [n, n - 1, n // BLOCK * BLOCK, n // BLOCK * BLOCK - 1, n // 2 // BLOCK * BLOCK + 1])


def test_point_sums_refuse_k_past_the_sieve():
    st_ = ProgressionStats(7, 1, SMALL)
    for k in (-1, len(st_.pbar) + 1):
        with pytest.raises(ValueError, match="outside"):
            st_.point_sums(k)


def test_theta_step_values(table):
    # 9 = 3^2 is 1 mod 4 even though 3 is not: psi(9;4,1) includes it
    st_ = stats(4, 1, table)
    assert abs(st_.theta(9) - mp.log(5)) < 1e-12
    assert abs(st_.psi(9) - mp.log(5) - mp.log(3)) < 1e-12


def test_S_and_R_are_derived(table):
    st_ = stats(3, 1, table)
    x = 997
    assert abs(S(st_, x) - (st_.theta(x) - mp.mpf(x) / 2)) < 1e-12
    assert abs(R(st_, x) - (st_.psi(x) - mp.mpf(x) / 2)) < 1e-12


@given(x=st.integers(min_value=2, max_value=200_000))
@settings(max_examples=60, deadline=None)
def test_theta_monotone_and_bounded(x):
    st_ = stats(5, 1, prime_table(DEFAULT_LIMIT))
    assert st_.theta(x) <= st_.theta(x + 1000)
    assert st_.theta(x) <= st_.psi(x)


# -- primorials --------------------------------------------------------------


def test_primorial_sequences(table):
    seq = stats(5, 1, table).primorials(3)
    assert [e[1] for e in seq.entries] == [11, 31, 41]
    seq3 = stats(5, 3, table).primorials(4)
    assert [e[1] for e in seq3.entries] == [3, 13, 23, 43]
    # log N: 11*31*41 = 13981
    assert abs(seq.entries[2][2] - mp.log(13981)) < 1e-12
    # log phi(N) = log(10*30*40)
    assert abs(seq.entries[2][3] - mp.log(12000)) < 1e-12


def test_landau_primorial_ratio_tends_to_inverse_C(table):
    """n/(phi(n) (log(phi(q) log n))^(1/phi)) at progression primorials gets
    within 2% of 1/C(q,a)."""
    from totprog.constants import mertens_C

    for q, a, inv_c_digits in ((5, 1, "0.8162"), (5, 3, "1.2407")):
        inv_c = 1 / mertens_C(q, a).C.value
        assert abs(inv_c - mp.mpf(inv_c_digits)) < 1e-4
        seq = stats(q, a, table).primorials(40)
        k, p, logn, logphin = seq.entries[-1]
        ratio = mp.e ** (logn - logphin) / mp.log(len([u for u in range(1, q) if math.gcd(u, q) == 1]) * logn) ** (mp.mpf(1) / 4)
        assert abs(ratio - inv_c) / inv_c < 0.02


# -- smooth sets -------------------------------------------------------------


def test_smooth_set_small(table):
    enum = enumerate_smooth(5, 3, 100, table)
    # primes 3, 13, 23, 43, 53, 73, 83 and products of them up to 100
    assert enum.members[:8] == (3, 9, 13, 23, 27, 39, 43, 53)
    assert 69 in enum.members  # 3 * 23
    assert 81 in enum.members
    for n in enum.members:
        m = n
        for p in (3, 13, 23, 43, 53, 73, 83):
            while m % p == 0:
                m //= p
        assert m == 1


def test_smooth_set_counts_match_figure_ranges(table):
    e2 = enumerate_smooth(5, 1, 49991, table)
    assert e2.members[0] == 11 and e2.members[-1] == 49991
    assert 13981 in e2.members and 341 in e2.members
    e3 = enumerate_smooth(5, 3, 49993, table)
    assert e3.members[0] == 3 and e3.members[-1] == 49993
    assert {39, 897, 38571} <= set(e3.members)
