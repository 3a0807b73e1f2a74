"""L-function special values and Laurent data at s = 0.

All values are finite character sums of special functions at rationals, with
no conditionally convergent tails.  L(1,chi) = -(1/q) sum_r chi(r) psi(r/q).

L'/L(1,chi) comes from the functional equation.  For primitive psi mod d let
Z(s) = sum_r psi(r) zeta(s, r/d), so that L(s,psi) = d^-s Z(s).  The constant
term b(psi) of L'/L(s,psi) at s = 0 is -log d + Z'(0)/Z(0) for odd psi, with
Z(0) = -(1/d) sum_r psi(r) r and Z'(0) = sum_r psi(r) log Gamma(r/d) (Lerch);
for even psi, Z(0) = 0 and b = -log d + Z''(0)/(2 Z'(0)), with
Z''(0) = sum_r psi(r) zeta''(0, r/d) (Deninger).  For chi mod q induced by
the primitive chi' mod d,

    L'/L(1,chi) = -log(d/pi) + gamma + log 2 - b(conj chi')
                  + sum_{p | q, p not| d} chi'(p) log p / (p - chi'(p)).

Every character sum goes through one seam, _char_sums(row, q, w): a row of
integers at scale 2^-w against every chi mod q at once, summed over the
exponents of characters._log_table with roots floored to w bits, under a
stated bound.  The kernel rows (psi, log Gamma, zeta''(0) at r/d, and r)
are floored to w = prec + 40 bits and summed once per (kernel, d, prec);
constants sums its Hurwitz rows through the same seam.

b(psi) is cached once per (psi, prec); L'/L(1, chi), F(chi) and the Laurent
data at s = 0 all read it.  The Laurent data (structural_m0, laurent_at_zero)
add the Euler factors of chi mod q to b(chi'); a numerical Laurent fit
(Hurwitz zeta around s = 0, in tests/oracles.py) is the independent oracle.

Precision is one int, prec: the mantissa bits of all floating work, passed
positionally from every public function here and in constants, criterion
and primes to the caches under it, so that a value is cached once per
(arguments, prec).  DEFAULT_PREC is its one default; eps(prec, scale) is
the nominal error allowance at prec bits.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import to_fixed

from .characters import DirichletCharacter, _log_table, build_group, factorint, units

__all__ = [
    "DEFAULT_PREC",
    "eps",
    "Approx",
    "L_at_1",
    "Lprime_over_L_at_1",
    "laurent_at_zero",
    "b_sum_signed",
    "b_sum_abs",
    "m0_sum",
]


DEFAULT_PREC = 192  # mantissa bits for all floating work


def eps(prec: int, scale: float = 1.0) -> mp.mpf:
    # coarse but honest: leave 24 guard bits against the mantissa
    return mp.mpf(2) ** (-(prec - 24)) * max(1.0, abs(scale))


class Approx(NamedTuple):
    """A numeric result with an absolute error bound."""

    value: object
    err: object


@lru_cache(maxsize=None)
def _roots(n: int, w: int) -> tuple:
    """(cos, sin): floor(cos(2 pi k/n) 2^w) and floor(sin(2 pi k/n) 2^w) for
    k < n, from mpmath at w + 20 bits, so each is within 1.01 units of its
    value."""
    with mp.workprec(w + 20):
        arg = [mp.mpf(2 * k) / n for k in range(n)]
        return tuple(tuple(to_fixed(f(x)._mpf_, w) for x in arg) for f in (mp.cospi, mp.sinpi))


def _char_sums(row: dict, q: int, w: int) -> dict:
    """label -> (re, im) of Z(chi) = sum_r chi(r) row[r] for every chi mod q,
    with row a map from the units r mod q to integers at scale 2^-w, and Z
    at the same scale.  chi_q(l, r) = e(k/N) with k = sum_i a_i s_i mod N
    over the logs a of l and the scaled logs s of r (characters._log_table),
    and each component sums row[r] times the root floored to w bits
    (_roots), then floors once.  The row is real, so the sums of conj chi
    are the conjugates of those of chi: the imaginary part is negated, not
    floored.

    Bound, in units of 2^-w and per component: 1.01 sum_r |row[r]| 2^-w for
    the roots, plus 1 for the final floor, plus phi(q) B when each row[r] is
    within B units of the value it stands for (|chi(r)| = 1)."""
    logs, scaled, exps = _log_table(q)
    n = len(exps)
    cos, sin = _roots(n, w)
    items = [(scaled[r % q], v) for r, v in row.items()]
    sums = {}
    for label in units(q):
        if (conj := pow(label, -1, q) if q > 1 else label) in sums:
            re, im = sums[conj]  # the row is real, so Z(conj chi) = conj Z(chi)
            sums[label] = (re, -im)
            continue
        a = logs[label % q]
        re = im = 0
        for s, v in items:
            k = sum(map(mul, a, s)) % n
            re += v * cos[k]
            im += v * sin[k]
        sums[label] = (re >> w, im >> w)
    return sums


def _mpc(z: tuple, w: int) -> mp.mpc:
    """The Gaussian integer z = (re, im) at scale 2^-w, rounded to the
    working precision."""
    return mp.mpc(mp.mpf((z[0], -w)), mp.mpf((z[1], -w)))


@lru_cache(maxsize=None)
def _row_sums(f, d: int, prec: int, *args, **kwargs) -> dict:
    """_char_sums of the row r -> f(*args, r/d, **kwargs) over the units r
    mod d, with f the mpmath kernel as looked up at the call (f = None gives
    the row r -> r), its values at prec bits floored to w = prec + 40 bits:
    exactly, unless below 2^-40, so B <= 1 in _char_sums' bound."""
    w = prec + 40
    with mp.workprec(prec):
        if f is None:
            row = {r: r << w for r in units(d)}
        else:
            row = {r: to_fixed(f(*args, mp.mpf(r) / d, **kwargs)._mpf_, w) for r in units(d)}
    return _char_sums(row, d, w)


def _row_sum(chi: DirichletCharacter, prec: int, f, *args, **kwargs) -> mp.mpc:
    """sum_r chi(r) f(*args, r/d, **kwargs) over the units r mod d =
    chi.modulus, read from _row_sums and rounded to prec bits."""
    sums = _row_sums(f, chi.modulus, prec, *args, **kwargs)
    with mp.workprec(prec):
        return _mpc(sums[chi.label], prec + 40)


def L_at_1(chi: DirichletCharacter, prec: int = DEFAULT_PREC) -> mp.mpc:
    if chi.is_principal:
        raise ValueError("L(s, chi0) has a pole at s = 1")
    q = chi.modulus
    with mp.workprec(prec):
        return -_row_sum(chi, prec, mp.digamma) / q


@lru_cache(maxsize=None)
def _b_primitive(psi: DirichletCharacter, prec: int) -> mp.mpc:
    """Constant term b of L'/L(s, psi) at s = 0, psi primitive nonprincipal
    (the Lerch / Deninger sums of the module docstring)."""
    d = psi.modulus
    with mp.workprec(prec):
        z1 = _row_sum(psi, prec, mp.loggamma)
        if psi.parity:
            z0 = -_row_sum(psi, prec, None) / d
            return -mp.log(d) + z1 / z0
        return -mp.log(d) + _row_sum(psi, prec, mp.zeta, 0, derivative=2) / (2 * z1)


def Lprime_over_L_at_1(chi: DirichletCharacter, prec: int = DEFAULT_PREC) -> mp.mpc:
    """L'/L(1, chi) of the L-series mod chi.modulus (Euler factors included)."""
    if chi.is_principal:
        raise ValueError("L(s, chi0) has a pole at s = 1")
    prim = chi.primitive()
    with mp.workprec(prec):
        ll = -mp.log(mp.mpf(prim.modulus) / mp.pi) + mp.euler + mp.log(2) - _b_primitive(prim.conjugate(), prec)
        for p, _ in chi.euler_factors:
            val = prim.value(p, prec)
            ll += val * mp.log(p) / (p - val)
        return ll


def structural_m0(chi: DirichletCharacter) -> int:
    """Order of vanishing of L(s,chi) at s = 0: one for each Euler factor
    with chi'(p) = 1, plus one from L(s, chi') when chi is nonprincipal and
    even."""
    m0 = sum(t == 0 for _, t in chi.euler_factors)
    return m0 if chi.is_principal else m0 + 1 - chi.parity


def laurent_at_zero(chi: DirichletCharacter, prec: int = DEFAULT_PREC) -> mp.mpc:
    """b in L'/L(s, chi) = m0/s + b + O(s) at s = 0 on the L-series mod q, with
    m0 = structural_m0(chi); for a primitive chi, the cached b(chi)."""
    q = chi.modulus
    with mp.workprec(prec):
        if chi.is_principal:
            b = mp.log(2 * mp.pi) - sum(mp.log(p) for p in factorint(q)) / 2
        else:
            prim = chi.primitive()
            b = _b_primitive(prim, prec)
            for p, t in chi.euler_factors:
                # 1 - chi'(p) p^-s has a simple zero at s = 0 when chi'(p) = 1
                val = prim.value(p, prec)
                b += -mp.log(p) / 2 if t == 0 else mp.log(p) * val / (1 - val)
        return b


# --- aggregates over the full group ---------------------------------------


def m0_sum(q: int) -> int:
    return sum(structural_m0(chi) for chi in build_group(q))


def b_sum_signed(q: int, prec: int = DEFAULT_PREC) -> Approx:
    with mp.workprec(prec):
        total = sum(laurent_at_zero(chi, prec) for chi in build_group(q))
        return Approx(mp.re(total), eps(prec, abs(total)) * max(1, q))


def b_sum_abs(q: int, prec: int = DEFAULT_PREC) -> Approx:
    with mp.workprec(prec):
        total = sum(abs(laurent_at_zero(chi, prec)) for chi in build_group(q))
        return Approx(total, eps(prec, abs(total)) * max(1, q))
