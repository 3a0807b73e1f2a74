"""Slow reference routes, kept as test oracles for the fast ones in totprog.

L'(1, chi) through generalized Stieltjes constants at rationals r/q, on the
(possibly imprimitive) L-series mod q -- independent of the functional
equation that totprog.lvalues reflects L'/L(1, chi) from:

    L'(1,chi) = -log(q) L(1,chi) - (1/q) sum_r chi(r) gamma_1(r/q)
"""

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
