"""Named constants for totients on progressions.

Highlights:

* ``mertens_C`` computes the progression Mertens constant C(q,a) (the limit of
  prod_{p<=x, p=a mod q}(1-1/p) * (log x)^{1/phi(q)}) through a character
  decomposition in terms of L(1,chi) plus rapidly convergent prime-zeta
  corrections, so the naive 1/log-x-converging product is only a consistency
  oracle (tests/oracles.py).  The companion constant
  M(q,a) = sum_{p=a} {log(1-1/p)+1/p} - log C uses the same machinery.
  The corrections read log L(m, chi) at integers m >= 2, as character sums
  of Hurwitz rows zeta(m, r/q); ``_hurwitz_row`` evaluates those in fixed
  point from one table of zeta(k) - 1 at the integers per precision (the
  expansion about a = 1, DLMF 25.11.10), with a stated error bound.

* ``F_q`` sums 1/(rho(1-rho)) over nontrivial zeros of the primitive
  L-functions via the closed form -log(d/pi) + gamma + 2 alpha log 2
  - 2 Re b(chi') per nonprincipal character, from lvalues' cached b(chi').

* ``G_q`` covers the purely imaginary Euler-factor zeros of imprimitive
  L-series as the reference tables evaluate it: the literal
  sum of 1/|rho(1-rho)|, except that a factor with chi'(p) = 1 takes the
  signed closed form (L/2)coth(L/2) - 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import repeat
from operator import mod, sub, truediv

import mpmath as mp

from .characters import DirichletCharacter, build_group, factorint, residue, totient, units
from .lvalues import DEFAULT_PREC, Approx, L_at_1, Lprime_over_L_at_1, _char_sum, eps, laurent_at_zero
from . import primes as primes_mod

__all__ = [
    "IndexData",
    "MertensConstant",
    "index_data",
    "mertens_C",
    "F1",
    "F_chi",
    "F_q",
    "gamma_p",
    "G_q",
    "nicolas_condition_scan",
]


# --------------------------------------------------------------------------
# Ind_q(a) and R_{q,a}


@dataclass(frozen=True)
class IndexData:
    q: int
    a: int
    m: int  # Ind_q(a): least n > 1 with a an n-th power mod q
    R: int  # number of m-th roots of a mod q


@lru_cache(maxsize=None)
def _power_image(q: int, n: int) -> frozenset:
    """The reduced residues of the n-th powers of the units mod q."""
    return frozenset(residue(q, pow(b, n, q)) for b in units(q))


def index_data(q: int, a: int) -> IndexData:
    """m by ascending search; R by the prime-power closed form
    R = (m,2)(m,2^(alpha-2)) * prod_i (m, phi(q_i^alpha_i)) (the 2-part
    factors appearing only when 4 | q)."""
    a = residue(q, a)
    m = 2
    while m <= totient(q) + 2:
        if a in _power_image(q, m):
            break
        m += 1
    else:  # pragma: no cover - unreachable: some n>1 coprime to phi(q) works
        raise AssertionError("index search failed")
    R = 1
    for p, e in factorint(q).items():
        if p == 2:
            if e >= 2:
                R *= math.gcd(m, 2) * math.gcd(m, 2 ** (e - 2))
        else:
            R *= math.gcd(m, p ** (e - 1) * (p - 1))
    return IndexData(q, a, m, R)


# --------------------------------------------------------------------------
# Mertens constants on progressions


@dataclass(frozen=True)
class MertensConstant:
    q: int
    a: int
    C: Approx
    M: Approx
    log_C: mp.mpf


@lru_cache(maxsize=None)
def _zeta_table(prec: int) -> tuple:
    """floor((zeta(k) - 1) 2^W) for k = 0, 1, 2, ... at W = prec + 40, from
    mp.zeta(k) at W + 20 bits, so each entry is within 1.01 units of its
    value.  The table ends before its first zero entry: zeta(k) - 1 falls
    with k, so every later entry is zero too.  Entries 0 and 1 are unused."""
    w = prec + 40
    table = [0, 0]
    with mp.workprec(w + 20):
        while z := int(mp.floor(mp.ldexp(mp.zeta(len(table)) - 1, w))):
            table.append(z)
    return tuple(table)


def _hurwitz_terms(m: int, u: int, q: int, w: int) -> int:
    """The first n with t_n = C(m+n-1, n) 2^-(m+n) (u/q)^n below 2^-(w+4)
    and t_{n+1}/t_n = (m+n) u / (2 (n+1) q) <= 1/2, which then holds for
    every later n too; for 0 <= u <= q/2."""
    n, binom, num, den = 0, 1, 1 << (w + 4), 1 << m
    while (m + n) * u > (n + 1) * q or binom * num >= den:
        binom = binom * (m + n) // (n + 1)
        n += 1
        num *= u
        den *= 2 * q
    return n


@lru_cache(maxsize=None)
def _hurwitz_row(q: int, m: int, prec: int) -> dict:
    """r -> zeta(m, r/q) over the units r mod q, for integer m >= 2, at prec
    bits, in fixed point at W = prec + 40 bits from _zeta_table alone.

    For 2r <= q take zeta(m, a) = a^-m + zeta(m, a + 1) and y = -r/q, else
    y = (q - r)/q; so |y| <= 1/2, and with a' = 1 - y (DLMF 25.11.10)

        zeta(m, a) = [a^-m] + a'^-m + sum_{n>=0} C(m+n-1, n) (zeta(m+n) - 1) y^n.

    The sum is an integer Horner loop over coefficients c_n shared by the
    row; it stops before the n = N that _hurwitz_terms returns, and every
    c_n past the table is zero.  Bound, in units of 2^-W: the two powers are
    floored (< 2); each c_n carries its table entry's error times
    C(m+n-1, n), < 1.01 (1 - |y|)^-m in all; each Horner step floors once,
    and step n is damped by |y|^n (< 2); the omitted terms n >= N, with
    zeta(k) - 1 <= 2^(1-k) for k >= 3, are below 4 t_N < 1/4.  Since
    zeta(m, a) >= (1 - |y|)^-m >= 1, the fixed
    point value is zeta(m, a) (1 + delta) with |delta| < 6 * 2^-W, before
    its rounding to prec bits."""
    w = prec + 40
    zeta = _zeta_table(prec)
    coeffs = []
    row = {}
    for r in units(q):
        u = -r if 2 * r <= q else q - r  # y = u/q
        total = (q**m << w) // (q - u) ** m
        if u < 0:
            total += (q**m << w) // r**m
        n_terms = max(0, min(_hurwitz_terms(m, abs(u), q, w), len(zeta) - m))
        while (n := len(coeffs)) < n_terms:
            coeffs.append(math.comb(m + n - 1, n) * zeta[m + n])
        acc = 0
        for c in reversed(coeffs[:n_terms]):
            acc = c + acc * u // q
        row[r] = total + acc
    with mp.workprec(prec):
        return {r: mp.mpf((v, -w)) for r, v in row.items()}


@lru_cache(maxsize=None)
def _log_L_int(chi: DirichletCharacter, m: int, prec: int) -> mp.mpc:
    """log L(m, chi) for integer m >= 2 (imprimitive L-series mod q).
    The principal branch agrees with the Euler-sum branch since
    sum_p |arg local factor| < sum_p p^-m / (1 - p^-m) < pi.  Cached on
    (chi, m, prec): a character hashes on (modulus, label)."""
    q = chi.modulus
    with mp.workprec(prec):
        return mp.log(_char_sum(chi, _hurwitz_row(q, m, prec), prec) / mp.mpf(q) ** m)


# The prime-zeta sums sum_k P(k, chi)/k are cut after k = _PZ_BITS (and each
# P(k, chi) after its Moebius terms j k - 1 > _PZ_BITS).  Their terms decay
# like 2^-k, so the cut leaves less than 4 * 2^-_PZ_BITS per character:
# _mertens_cached adds 2^(2 - _PZ_BITS) (phi + 1) to the error of log C.
# Its cache and _prime_zeta's leave _PZ_BITS out of the key: clear both after
# changing it.
_PZ_BITS = 48


@lru_cache(maxsize=None)
def _prime_zeta(chi: DirichletCharacter, k: int, prec: int) -> mp.mpc:
    """P(k, chi) = sum_p chi(p)/p^k via Moebius inversion of log L, cached on
    (chi, k, prec)."""
    with mp.workprec(prec):
        total = mp.mpc(0)
        j = 1
        while (j * k - 1) <= _PZ_BITS:
            mu = _mobius(j)
            if mu:
                total += mp.mpf(mu) / j * _log_L_int(chi.power(j), j * k, prec)
            j += 1
        return total


@lru_cache(maxsize=None)
def _mobius(n: int) -> int:
    fac = factorint(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


# The primes of the partial Euler sum in _branched_log_L1: up to the first
# limit, and up to each later one in turn while the estimate stays ambiguous.
_BRANCH_LIMITS = (100_000, 1_000_000, 10_000_000)


def _branched_log_L1(chi: DirichletCharacter, prec: int) -> mp.mpc:
    """log L(1, chi) on the branch continued along the Euler product
    (the branch entering P(1,chi) = sum_p chi(p)/p).  The partial Euler sum
    in double precision pins the winding number: over the primes up to each
    limit of _BRANCH_LIMITS in turn, until the estimate lies within 0.25 of
    an integer, raising past the last.  The value itself comes from the
    exact L(1,chi)."""
    with mp.workprec(prec):
        principal = mp.log(L_at_1(chi, prec))
    for limit in _BRANCH_LIMITS:
        s0 = _partial_euler_sum(chi, limit)
        try:
            k = _winding_number((s0.imag - float(mp.im(principal))) / (2 * math.pi))
            break
        except ArithmeticError:
            if limit == _BRANCH_LIMITS[-1]:
                raise
    with mp.workprec(prec):
        return principal + 2j * mp.pi * k


def _partial_euler_sum(chi: DirichletCharacter, limit: int) -> complex:
    """-sum log(1 - chi(p)/p) over the primes p <= limit in doubles, in
    C-level passes: chi(p) from one double per residue class p mod q, and 0
    for a prime dividing q, whose term log 1 = 0 changes nothing.  The terms
    are subtracted from 0j in order, as a loop of s -= term would, so the
    result does not depend on how sum() adds complex numbers."""
    q = chi.modulus
    rot = {r: cmath.exp(2j * math.pi * float(t)) for r in range(q) if (t := chi.exponent(r)) is not None}
    ps = primes_mod.prime_table(limit).primes
    zs = map(rot.get, map(mod, ps, repeat(q)), repeat(0j))
    return reduce(sub, map(cmath.log, map(sub, repeat(1 + 0j), map(truediv, zs, ps))), 0j)


def _winding_number(turns: float) -> int:
    """The integer a double-precision winding estimate stands for; raises
    ArithmeticError unless the estimate lies within 0.25 of it."""
    k = round(turns)
    if abs(turns - k) > 0.25:
        raise ArithmeticError(f"winding estimate {turns!r} is not within 0.25 of an integer")
    return k


@lru_cache(maxsize=None)
def _mertens_cached(q: int, a: int, prec: int) -> MertensConstant:
    group = build_group(q)
    phi = totient(q)
    with mp.workprec(prec):
        # phi * log C = -gamma - sum_{p|q} log(1-1/p)
        #               + sum_{chi != chi0} conj(chi(a)) [ -log L(1,chi) + log K(chi) ]
        # with K(chi) = prod_p (1-1/p)^chi(p) (1-chi(p)/p)^-1, i.e.
        # log K = sum_{k>=2} (1/k) (P(k, chi^k) - P(k, chi)).
        acc = mp.mpc(-mp.euler)
        for p in factorint(q):
            acc -= mp.log(1 - mp.mpf(1) / p)
        mean_h = mp.mpc(0)  # (1/phi) sum_chi conj(chi(a)) sum_{k>=2} P(k,chi)/k
        for chi in group:
            coef = mp.conj(chi.value(a, prec))
            pz = sum(_prime_zeta(chi, k, prec) / k for k in range(2, _PZ_BITS + 1))
            mean_h += coef * pz
            if not chi.is_principal:
                logK = sum(
                    (_prime_zeta(chi.power(k), k, prec) - _prime_zeta(chi, k, prec)) / k
                    for k in range(2, _PZ_BITS + 1)
                )
                acc += coef * (-_branched_log_L1(chi, prec) + logK)
        log_C = mp.re(acc) / phi
        tail = mp.mpf(2) ** (2 - _PZ_BITS) * (phi + 1)  # see _PZ_BITS
        C = mp.e**log_C
        M_val = mp.re(-mean_h) / phi - log_C
        return MertensConstant(
            q,
            a,
            Approx(C, (tail + eps(prec, abs(log_C))) * C),
            Approx(M_val, 2 * tail + eps(prec, abs(M_val))),
            log_C,
        )


def mertens_C(q: int, a: int, prec: int = DEFAULT_PREC) -> MertensConstant:
    return _mertens_cached(q, residue(q, a), prec)


# --------------------------------------------------------------------------
# Zero sums F_q, G_q and the Euler-Kronecker constants


def F1(prec: int = DEFAULT_PREC) -> mp.mpf:
    """Contribution of a principal (trivially induced) character:
    sum over nontrivial zeta zeros of 1/(rho(1-rho))."""
    with mp.workprec(prec):
        return 2 + mp.euler - mp.log(mp.pi) - 2 * mp.log(2)


def F_chi(chi: DirichletCharacter, prec: int = DEFAULT_PREC) -> mp.mpf:
    """Zero sum for a nonprincipal character, through its primitive part
    chi' of conductor d:  -log(d/pi) + gamma + 2 alpha log 2 - 2 Re b(chi'),
    b(chi') the constant term of L'/L(s, chi') at s = 0 (laurent_at_zero)."""
    if chi.is_principal:
        raise ValueError("use F1() for the principal character")
    prim = chi.primitive()
    with mp.workprec(prec):
        b = laurent_at_zero(prim, prec)
        return -mp.log(mp.mpf(prim.modulus) / mp.pi) + mp.euler + chi.parity * 2 * mp.log(2) - 2 * mp.re(b)


def F_q(q: int, prec: int = DEFAULT_PREC) -> Approx:
    group = build_group(q)
    with mp.workprec(prec):
        total = F1(prec) + sum(F_chi(chi, prec) for chi in group.nonprincipal())
        return Approx(total, eps(prec, abs(total)) * max(1, totient(q)))


def gamma_p(p: int, prec: int = DEFAULT_PREC) -> Approx:
    """Euler-Kronecker constant of the p-th cyclotomic field:
    gamma + sum_{chi != chi0 mod p} L'/L(1, chi)."""
    if p < 3 or factorint(p) != {p: 1}:
        raise ValueError("gamma_p requires an odd prime")
    group = build_group(p)
    with mp.workprec(prec):
        total = mp.euler + mp.re(
            sum(Lprime_over_L_at_1(chi, prec) for chi in group.nonprincipal())
        )
        return Approx(total, eps(prec, abs(total)) * p)


# --------------------------------------------------------------------------
# G_q: purely imaginary Euler-factor zeros of imprimitive L-series


@lru_cache(maxsize=None)
def _abs_zero_sum_half(p: int, theta_frac, kmax: int, prec: int) -> Approx:
    """sum over k >= 0 of f(t_k), t_k = (theta + 2 pi k)/L with L = log p,
    theta = 2 pi theta_frac (a Fraction, or 1) and f(t) = 1/(t sqrt(1+t^2)),
    for 0 < theta <= 2 pi: the terms k <= kmax in fixed point, the rest as
    Hurwitz zetas in mpmath.  Cached on (p, theta/2pi, kmax, prec), which all
    characters and moduli with the same chi'(p) share, as do the halves
    theta and 2 pi - theta.

    With theta_frac = a/b, P = floor(2 pi 2^W) and Lw = floor(L 2^W), term k
    is, in units u = 2^-W,

        T = ((P a // b + k P) << W) // Lw,   f = 2^3W // (T isqrt(2^2W + T^2)),

    at W = prec + 40 + g, where g = 2 bitlen(floor(1/t_0)) guard bits absorb
    the amplification |f'(t)| ~ t^-2 at a small first t_0 = theta/L.  Bound,
    in units u, per term: the final floor (< 1) and the isqrt floor
    (< 2 f(t)); and T u is within u + 2 t r_k u of t, where r_k = 1/(2 pi)
    + 1/(theta + 2 pi k) + 1/L covers the roundings of P, Lw and P a // b,
    which moves f by at most 2 |f'(t)| + 8 f(t) r_k: t |f'(t)| <= 2 f(t),
    and as u is far below t_0/16, |f'| at most doubles (and f grows by
    under 4/3) between t and T u.  Since f(t) <= t^-2, |f'(t)| <= 2 t^-3,
    t_k >= 2 pi k/L and r_k < 1.8 for k >= 1, the sum is within

        kmax + 1 + 2 |f'(t_0)| + (2 + 8 r_0) f(t_0) + 4.9 v^3 + 28 v^2,   v = L/(2 pi).

    The err returned adds 2^(3 - prec) |total| for the rounding of the sum
    to prec bits and of the three tail terms (at most 4 units in its last
    place); the tail's truncated asymptotic series is G_q's to bound."""
    a, b = theta_frac.numerator, theta_frac.denominator
    w = prec + 40 + 2 * int(b * math.log(p) / (2 * math.pi * a)).bit_length()
    with mp.workprec(w + 20):
        P = int(mp.floor(mp.ldexp(2 * mp.pi, w)))
        Lw = int(mp.floor(mp.ldexp(mp.log(p), w)))
    one, cube = 1 << (2 * w), 1 << (3 * w)
    acc = 0
    first = P * a // b  # then P (a + k b) // b = first + k P
    for n in range(first, first + (kmax + 1) * P, P):
        T = (n << w) // Lw
        acc += cube // (T * math.isqrt(one + T * T))
    with mp.workprec(prec):
        two_pi, L = 2 * mp.pi, mp.log(p)
        tf = mp.mpf(a) / b
        t0 = two_pi * tf / L
        total = mp.mpf((acc, -w))
        # f(t) = t^-2 - t^-4/2 + 3 t^-6/8 - ...; sum tails as Hurwitz zetas
        v = L / two_pi
        shift = kmax + 1 + tf
        total += v**2 * mp.zeta(2, shift)
        total -= v**4 / 2 * mp.zeta(4, shift)
        total += 3 * v**6 / 8 * mp.zeta(6, shift)
        f0 = 1 / (t0 * mp.sqrt(1 + t0 * t0))
        df0 = (1 + 2 * t0 * t0) / (t0 * t0 * (1 + t0 * t0) ** 1.5)
        r0 = 1 / two_pi + 1 / (two_pi * tf) + 1 / L
        units = kmax + 1 + 2 * df0 + (2 + 8 * r0) * f0 + mp.mpf(4.9) * v**3 + 28 * v**2
        return Approx(total, mp.ldexp(units, -w) + mp.ldexp(abs(total), 3 - prec))


def _signed_zero_sum_theta0(L: mp.mpf) -> mp.mpf:
    """Closed form of sum_{k != 0} 1/(rho_k (1 - rho_k)) over
    rho_k = 2 pi i k / L:  (L/2) coth(L/2) - 1."""
    return (L / 2) * mp.coth(L / 2) - 1


# the terms of each half sum evaluated one by one; the rest are Hurwitz zetas
_KMAX = 2000


def G_q(q: int, prec: int = DEFAULT_PREC) -> Approx:
    """Zero sum over the purely imaginary (Re rho = 0) zeros rho =
    i(theta + 2 pi k)/log p of the Euler factors of imprimitive L-series:
    for each chi mod q, the factors 1 - chi'(p) p^-s of chi.euler_factors,
    with chi'(p) = e(theta/2 pi).  A factor with theta = 0 takes the signed
    closed form (L/2)coth(L/2) - 1, any other the sum of 1/|rho(1-rho)|;
    this is the evaluation the reference tables contain.
    """
    with mp.workprec(prec):
        total = mp.mpf(0)
        err = mp.mpf(0)
        tail = mp.mpf(0)  # sum of (L/2pi)^8 over the angles summed in absolute value
        for p, theta_frac in (f for chi in build_group(q) for f in chi.euler_factors):
            L = mp.log(p)
            if theta_frac == 0:
                total += _signed_zero_sum_theta0(L)
            else:
                # the full line sum_k f(|t_k|), k in Z: the halves k >= 0 at
                # theta and at 2 pi - theta
                sums = [_abs_zero_sum_half(p, h, _KMAX, prec) for h in (theta_frac, 1 - theta_frac)]
                total += sum(s.value for s in sums)
                err += sum(s.err for s in sums)
                tail += (L / (2 * mp.pi)) ** 8
        if tail:
            # the first omitted asymptotic order, 5 t^-8/16 per term, bounds
            # each half's tail; zeta(8, _KMAX + 1) covers every shift
            err += tail * _zeta_8(_KMAX, prec) * mp.mpf(5) / 8
        return Approx(total, err + eps(prec, abs(total)))


@lru_cache(maxsize=None)
def _zeta_8(kmax: int, prec: int) -> mp.mpf:
    """zeta(8, kmax + 1) at prec bits, G_q's tail factor."""
    with mp.workprec(prec):
        return mp.zeta(8, kmax + 1)


# --------------------------------------------------------------------------
# Nicolas condition scan


def nicolas_condition_scan(q_max: int, prec: int = DEFAULT_PREC):
    """Rows (q, F_q, min over squares a of 2 R_{q,a}, F_q < that bound)."""
    rows = []
    for q in range(1, q_max + 1):
        fq = F_q(q, prec).value
        bound = min(2 * index_data(q, a).R for a in _power_image(q, 2))
        rows.append((q, fq, bound, bool(fq < bound)))
    return rows
