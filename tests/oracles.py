"""Slow reference routes, kept as test oracles for the fast ones in totprog.

L'(1, chi) through generalized Stieltjes constants at rationals r/q, on the
(possibly imprimitive) L-series mod q -- independent of the functional
equation that totprog.lvalues reflects L'/L(1, chi) from:

    L'(1,chi) = -log(q) L(1,chi) - (1/q) sum_r chi(r) gamma_1(r/q)

The sums of log p and log(1 - 1/p) over the first k progression primes from
one log of each exact product, built by a product tree -- independent of the
per-prime running sums and of the block sums of ProgressionStats.point_sums.
"""

import math
from functools import lru_cache

import mpmath as mp

from totprog.characters import DirichletCharacter, units
from totprog.lvalues import DEFAULT_CTX, L_at_1, PrecisionContext, _as_mpf


def stieltjes_gamma1(x, ctx: PrecisionContext = DEFAULT_CTX) -> mp.mpf:
    """Generalized Stieltjes constant gamma_1(x),
    gamma_1(x) = lim_N [ sum_{k<=N} log(k+x)/(k+x) - log^2(N+x)/2 ]."""
    if x <= 0:
        raise ValueError("gamma_1 argument must be positive")
    with ctx.workprec():
        return mp.stieltjes(1, _as_mpf(x))


@lru_cache(maxsize=None)
def _gamma1_row(q: int, prec: int) -> dict:
    with mp.workprec(prec):
        return {r: mp.stieltjes(1, mp.mpf(r) / q) for r in units(q)}


def Lprime_at_1(chi: DirichletCharacter, ctx: PrecisionContext = DEFAULT_CTX) -> mp.mpc:
    if chi.is_principal:
        raise ValueError("L(s, chi0) has a pole at s = 1")
    q = chi.modulus
    row = _gamma1_row(q, ctx.prec)
    with ctx.workprec():
        tail = -sum(chi.value(r, ctx.prec) * row[r] for r in units(q)) / q
        return -mp.log(q) * L_at_1(chi, ctx) + tail


def _product(xs) -> int:
    while len(xs) > 1:
        xs = [math.prod(xs[i : i + 2]) for i in range(0, len(xs), 2)]
    return xs[0] if xs else 1


def exact_product_sums(pbar, ks, prec: int) -> dict:
    """k -> (sum of log p, sum of log(1 - 1/p)) over pbar[:k] at prec bits,
    for each k in ks, each within 2^-prec (3 + 2 |sum|) of the exact sum:
    the roundings of P, Q and Q/P, and the log's own."""
    out, P, Q, done = {}, 1, 1, 0
    for k in sorted(set(ks)):
        P *= _product(pbar[done:k])
        Q *= _product([p - 1 for p in pbar[done:k]])
        done = k
        with mp.workprec(prec):
            out[k] = mp.log(_mpf(P)), mp.log(_mpf(Q) / _mpf(P))
    return out


def _mpf(n: int) -> mp.mpf:
    """mp.mpf(n), rounded to the working precision, with the trailing zero
    bits shifted out first: the pure-Python backend strips them slowly."""
    zeros = (n & -n).bit_length() - 1
    return mp.ldexp(mp.mpf(n >> zeros), zeros)


def running_sums_bound(k: int, theta, log1m, prec: int) -> tuple:
    """Bounds on |theta - exact| and |log1m - exact| for the k-th running
    sums theta_cum and log1m_cum, as ProgressionStats._extend states them:
    2 (k + 4) 2^-prec of either sum."""
    c = 2 * (k + 4) * mp.ldexp(1, -prec)
    return c * theta, c * abs(log1m)
