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

The Laurent data (m0, b) at s = 0 adds the Euler factors of chi mod q to
b(chi'); a numerical Laurent fit (Hurwitz zeta around s = 0) is the
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import mpmath as mp

from .characters import DirichletCharacter, build_group, factorint, units

__all__ = [
    "PrecisionContext",
    "Approx",
    "LaurentAtZero",
    "digamma",
    "L_at_1",
    "Lprime_over_L_at_1",
    "laurent_at_zero",
    "laurent_fit",
    "b_sum_signed",
    "b_sum_abs",
    "m0_sum",
]


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision and truncation policy.

    prec: mantissa bits for all floating work (default 192).
    em_shift: Euler-Maclaurin shift passed to the special-function kernels.
    p0: prime cutoff used when an Euler-product branch needs locating.
    target: advertised absolute error per published constant.
    """

    prec: int = 192
    em_shift: int = 50
    p0: int = 10**7
    target: float = 1e-12

    def workprec(self):
        return mp.workprec(self.prec)

    def eps(self, scale: float = 1.0) -> mp.mpf:
        # coarse but honest: leave 24 guard bits against the mantissa
        return mp.mpf(2) ** (-(self.prec - 24)) * max(1.0, abs(scale))


DEFAULT_CTX = PrecisionContext()


class Approx(NamedTuple):
    """A numeric result with an absolute error bound."""

    value: object
    err: object


def _as_mpf(x) -> mp.mpf:
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def digamma(x, ctx: PrecisionContext = DEFAULT_CTX) -> mp.mpf:
    """psi(x) for rational x in (0, 1] (delegated to mpmath's
    Euler-Maclaurin kernel at ctx.prec bits)."""
    if x <= 0:
        raise ValueError("digamma argument must be positive")
    with ctx.workprec():
        return mp.digamma(_as_mpf(x))


@lru_cache(maxsize=None)
def _digamma_row(q: int, prec: int) -> dict:
    with mp.workprec(prec):
        return {r: mp.digamma(mp.mpf(r) / q) for r in units(q)}


@lru_cache(maxsize=None)
def _loggamma_row(d: int, prec: int) -> dict:
    with mp.workprec(prec):
        return {r: mp.loggamma(mp.mpf(r) / d) for r in units(d)}


@lru_cache(maxsize=None)
def _zeta2_row(d: int, prec: int) -> dict:
    """zeta''(0, r/d), the s-second derivative of the Hurwitz zeta."""
    with mp.workprec(prec):
        return {r: mp.zeta(0, mp.mpf(r) / d, 2) for r in units(d)}


def L_at_1(chi: DirichletCharacter, ctx: PrecisionContext = DEFAULT_CTX) -> mp.mpc:
    if chi.is_principal:
        raise ValueError("L(s, chi0) has a pole at s = 1")
    q = chi.modulus
    row = _digamma_row(q, ctx.prec)
    with ctx.workprec():
        return -sum(chi.value(r, ctx.prec) * row[r] for r in units(q)) / q


def _b_primitive(psi: DirichletCharacter, prec: int) -> mp.mpc:
    """Constant term b of L'/L(s, psi) at s = 0, psi primitive nonprincipal
    (the Lerch / Deninger sums of the module docstring)."""
    d = psi.modulus

    def Z(row):
        return sum(psi.value(r, prec) * row[r] for r in units(d))

    with mp.workprec(prec):
        z1 = Z(_loggamma_row(d, prec))
        if psi.parity:
            z0 = -Z({r: r for r in units(d)}) / d
            return -mp.log(d) + z1 / z0
        return -mp.log(d) + Z(_zeta2_row(d, prec)) / (2 * z1)


@lru_cache(maxsize=None)
def _ll1_cached(modulus: int, label: int, prec: int) -> mp.mpc:
    prim = build_group(modulus).by_label(label).primitive()
    d = prim.modulus
    with mp.workprec(prec):
        ll = -mp.log(mp.mpf(d) / mp.pi) + mp.euler + mp.log(2) - _b_primitive(prim.conjugate(), prec)
        for p in factorint(modulus):
            if d % p:
                val = prim.value(p, prec)
                ll += val * mp.log(p) / (p - val)
        return ll


def Lprime_over_L_at_1(chi: DirichletCharacter, ctx: PrecisionContext = DEFAULT_CTX) -> mp.mpc:
    """L'/L(1, chi) of the L-series mod chi.modulus (Euler factors included)."""
    if chi.is_principal:
        raise ValueError("L(s, chi0) has a pole at s = 1")
    return _ll1_cached(chi.modulus, chi.label, ctx.prec)


@dataclass(frozen=True)
class LaurentAtZero:
    """L'/L(s,chi) = m0/s + b + O(s) at s = 0 (imprimitive L-series,
    Euler-factor zeros included in m0)."""

    m0: int
    b: mp.mpc


def structural_m0(chi: DirichletCharacter) -> int:
    """Order of vanishing of L(s,chi) at s = 0."""
    q = chi.modulus
    if chi.is_principal:
        return len(factorint(q))
    prim = chi.primitive()
    d = prim.modulus
    m0 = 1 - chi.parity
    for p in factorint(q):
        if d % p != 0 and prim.exponent(p) == 0:
            m0 += 1
    return m0


def laurent_at_zero(chi: DirichletCharacter, ctx: PrecisionContext = DEFAULT_CTX) -> LaurentAtZero:
    q = chi.modulus
    with ctx.workprec():
        if chi.is_principal:
            b = mp.log(2 * mp.pi) - sum(mp.log(p) for p in factorint(q)) / 2
        else:
            prim = chi.primitive()
            b = _b_primitive(prim, ctx.prec)
            for p in factorint(q):
                if prim.modulus % p:
                    # 1 - chi'(p) p^-s has a simple zero at s = 0 when chi'(p) = 1
                    val = prim.value(p, ctx.prec)
                    b += -mp.log(p) / 2 if prim.exponent(p) == 0 else mp.log(p) * val / (1 - val)
        return LaurentAtZero(structural_m0(chi), b)


# --- numerical Laurent-fit oracle ----------------------------------------


def _L_and_deriv(chi: DirichletCharacter, s, prec: int):
    """L(s,chi) and L'(s,chi) of the (possibly imprimitive) L-series mod q,
    via L(s) = q^{-s} sum_r chi(r) zeta(s, r/q)."""
    q = chi.modulus
    with mp.workprec(prec):
        s = mp.mpf(s)
        zs = {r: mp.zeta(s, mp.mpf(r) / q) for r in units(q)}
        zps = {r: mp.zeta(s, mp.mpf(r) / q, 1) for r in units(q)}
        qs = mp.power(q, -s)
        L = qs * sum(chi.value(r, prec) * zs[r] for r in units(q))
        Lp = qs * sum(chi.value(r, prec) * zps[r] for r in units(q)) - mp.log(q) * L
        return L, Lp


def laurent_fit(chi: DirichletCharacter, ctx: PrecisionContext = DEFAULT_CTX, h: float = 1e-4):
    """Fit L'/L(s,chi) = m0/s + b + O(s^2-extrapolated) from samples at
    s = +-h, +-h/2.  Returns (m0_estimate: mpf, b_estimate: mpc)."""

    def ratio(s):
        L, Lp = _L_and_deriv(chi, s, ctx.prec)
        return Lp / L

    with ctx.workprec():
        h = mp.mpf(h)
        out = []
        for step in (h, h / 2):
            fp, fm = ratio(step), ratio(-step)
            out.append(((fp - fm) / 2 * step, (fp + fm) / 2))
        m_h, b_h = out[0]
        m_h2, b_h2 = out[1]
        return (4 * m_h2 - m_h) / 3, (4 * b_h2 - b_h) / 3


# --- aggregates over the full group ---------------------------------------


def m0_sum(q: int) -> int:
    return sum(structural_m0(chi) for chi in build_group(q))


def b_sum_signed(q: int, ctx: PrecisionContext = DEFAULT_CTX) -> Approx:
    with ctx.workprec():
        total = sum(laurent_at_zero(chi, ctx).b for chi in build_group(q))
        return Approx(mp.re(total), ctx.eps(abs(total)) * max(1, q))


def b_sum_abs(q: int, ctx: PrecisionContext = DEFAULT_CTX) -> Approx:
    with ctx.workprec():
        total = sum(abs(laurent_at_zero(chi, ctx).b) for chi in build_group(q))
        return Approx(total, ctx.eps(abs(total)) * max(1, q))
