"""Named constants for totients on progressions.

Highlights:

* ``mertens_C`` computes the progression Mertens constant C(q,a) (the limit of
  prod_{p<=x, p=a mod q}(1-1/p) * (log x)^{1/phi(q)}) through a character
  decomposition in terms of L(1,chi) plus rapidly convergent prime-zeta
  corrections, so the naive 1/log-x-converging product is only a consistency
  oracle (tests/oracles.py).  The companion constant
  M(q,a) = sum_{p=a} {log(1-1/p)+1/p} - log C uses the same machinery.
  The corrections read log L(m, chi) at integers m >= 2, as character sums
  of Hurwitz rows zeta(m, r/q): the ("hurwitz", m) family of lvalues' one
  series-row kernel ``_row``, in fixed point from its integer table of
  zeta(k) - 1 (DLMF 25.11.10), with a stated error bound.  The whole path
  runs in Gaussian fixed point at W = prec + 40 bits for every character at
  once: lvalues._char_sums of each row, one log per L(m, chi) (``_log_L``),
  and the Moebius sums P(k, chi), log K(chi) and their mean
  (``_prime_zeta_sums``) as integer sums, converted to mpf once per
  character.  The winding number of log L(1, chi) comes from one more
  such row per (q, limit), of prime reciprocals (``_reciprocal_sums``).

* ``F_q`` sums 1/(rho(1-rho)) over nontrivial zeros of the primitive
  L-functions via the closed form -log(d/pi) + gamma + 2 alpha log 2
  - 2 Re b(chi') per nonprincipal character, from lvalues' cached b(chi').

* ``G_q`` covers the purely imaginary Euler-factor zeros of imprimitive
  L-series as the reference tables evaluate it: the literal
  sum of 1/|rho(1-rho)|, except that a factor with chi'(p) = 1 takes the
  signed closed form (L/2)coth(L/2) - 1.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import to_fixed

from .characters import DirichletCharacter, build_group, factorint, residue, totient, units
from .lvalues import DEFAULT_PREC, Approx, L_at_1, Lprime_over_L_at_1, _char_sums, _mpc, _row, eps, laurent_at_zero
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


class IndexData(NamedTuple):
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


class MertensConstant(NamedTuple):
    q: int
    a: int
    C: Approx
    M: Approx
    log_C: mp.mpf


@lru_cache(maxsize=None)
def _log_L(q: int, m: int, prec: int) -> dict:
    """label -> log L(m, chi) for every chi mod q and integer m >= 2
    (imprimitive L-series mod q), as Gaussian integers at scale 2^-w,
    w = prec + 40.  L(m, chi) = q^-m sum_r chi(r) zeta(m, r/q), from one
    _char_sums of the Hurwitz row _row(("hurwitz", m), q, prec); its log is
    taken at prec + 8 bits and floored to w bits, and conj chi takes the
    conjugate.  The principal branch agrees with the Euler-sum branch since
    sum_p |arg local factor| < sum_p p^-m / (1 - p^-m) < pi.

    Each entry is within 2^-(prec + 6) of its value: the sum is within
    7.01 q^m zeta(2) + 1 units (_char_sums with the Hurwitz row's relative
    bound 6 * 2^-w, _row), so L(m, chi) after the floored division by q^m
    within 14 units, and |L(m, chi)| >= zeta(4)/zeta(2) > 0.65; the rest is
    the rounding to prec + 8 bits before and after the log."""
    w = prec + 40
    qm = q**m
    logs = {}
    with mp.workprec(prec + 8):
        for label, (re, im) in _char_sums(_row(("hurwitz", m), q, prec), q, w).items():
            if (conj := pow(label, -1, q) if q > 1 else label) in logs:
                x, y = logs[conj]
                logs[label] = (x, -y)
                continue
            z = mp.log(mp.mpc(mp.mpf((re // qm, -w)), mp.mpf((im // qm, -w))))
            logs[label] = (to_fixed(z.real._mpf_, w), to_fixed(z.imag._mpf_, w))
    return logs


# The prime-zeta sums sum_k P(k, chi)/k are cut after k = _PZ_BITS (and each
# P(k, chi) after its Moebius terms j k - 1 > _PZ_BITS).  Their terms decay
# like 2^-k, so the cut leaves less than 4 * 2^-_PZ_BITS per character:
# _mertens_cached adds 2^(2 - _PZ_BITS) (phi + 1) to the error of log C.
# Its cache and _prime_zeta_sums' leave _PZ_BITS out of the key: clear both
# after changing it.
_PZ_BITS = 48


@lru_cache(maxsize=None)
def _prime_zeta_sums(q: int, prec: int) -> dict:
    """label -> (h, K) for every chi mod q, Gaussian integers at scale 2^-w,
    w = prec + 40, with P(k, chi) = sum_p chi(p) p^-k:

        h = sum_k P(k, chi)/k,   K = log K(chi) = sum_k (P(k, chi^k) - P(k, chi))/k

    over k = 2 ... _PZ_BITS.  P(k, chi) is the Moebius inversion
    sum_j mu(j)/j log L(jk, chi^j) of _log_L over the j with jk - 1 <=
    _PZ_BITS; mu(j)/j and 1/k are floor divisions.

    Bound: h weighs the _log_L entries (each within 2^-(prec + 6)) by
    sum 1/(jk) < 7.1 and log K by less than 14.1, and they add 123 and 199
    floors of one unit of 2^-w; so both are within 2^-(prec + 2)."""
    top = _PZ_BITS + 1

    def label(l, j):  # the label of chi^j
        return pow(l, j, q) if q > 1 else 1

    P = {}
    for k in range(2, top):
        for l, (re, im) in _log_L(q, k, prec).items():
            for j in range(2, top // k + 1):
                if mu := _mobius(j):
                    x, y = _log_L(q, j * k, prec)[label(l, j)]
                    re += mu * (x // j)
                    im += mu * (y // j)
            P[k, l] = (re, im)
    sums = {}
    for l in units(q):
        hr = hi = kr = ki = 0
        for k in range(2, top):
            re, im = P[k, l]
            x, y = P[k, label(l, k)]
            hr += re // k
            hi += im // k
            kr += (x - re) // k
            ki += (y - im) // k
        sums[l] = ((hr, hi), (kr, ki))
    return sums


@lru_cache(maxsize=None)
def _mobius(n: int) -> int:
    fac = factorint(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


# The primes of the winding estimate in _branched_log_L1: up to the first
# limit, and up to each later one in turn while the estimate stays ambiguous.
_BRANCH_LIMITS = (100_000, 1_000_000, 10_000_000)


def _branched_log_L1(chi: DirichletCharacter, prec: int, tail: int) -> mp.mpc:
    """log L(1, chi) on the branch continued along the Euler product
    (the branch entering P(1,chi) = sum_p chi(p)/p).  Its winding number
    comes from the estimate sum_{p <= X} chi(p)/p + sum_{k >= 2} P(k, chi^k)/k
    of log L(1, chi): the first sum from _reciprocal_sums, and tail, the
    imaginary part of the second, from h + log K (_prime_zeta_sums), at
    scale 2^-w, w = prec + 40.  X is each limit of _BRANCH_LIMITS in turn,
    until the estimate lies within 0.25 of an integer, raising past the
    last.  The value itself comes from the exact L(1,chi).

    The estimate differs from the partial Euler sum -sum_{p <= X} log(1 -
    chi(p)/p) by the terms k >= 2 over p > X, below sum_{p > X} 1/(p (p -
    1)) < 1/X, and by roundings below 2^(3 - _PZ_BITS): the row's floors
    (fewer than pi(X) units of 2^-w), _char_sums', and h + log K's."""
    w = prec + 40
    with mp.workprec(prec):
        principal = mp.log(L_at_1(chi, prec))
    for limit in _BRANCH_LIMITS:
        im = _reciprocal_sums(chi.modulus, limit, prec)[chi.label][1] + tail
        try:
            k = _winding_number((im / (1 << w) - float(mp.im(principal))) / (2 * math.pi))
            break
        except ArithmeticError:
            if limit == _BRANCH_LIMITS[-1]:
                raise
    with mp.workprec(prec):
        return principal + 2j * mp.pi * k


@lru_cache(maxsize=None)
def _reciprocal_sums(q: int, limit: int, prec: int) -> dict:
    """label -> sum_{p <= limit} chi(p)/p for every chi mod q, Gaussian
    integers at scale 2^-w, w = prec + 40: _char_sums of the row r -> sum
    floor(2^w/p) over the primes p = r mod q up to limit (one pass over
    prime_table(limit); a p | q adds nothing).  The row's floors come to
    fewer than pi(limit) units, so each component is within pi(limit) + 5
    units (_char_sums' bound, with sum_p 1/p < 3.1 for limit <= 10^7)."""
    one = 1 << (prec + 40)
    row = {r % q: 0 for r in units(q)}  # keyed 0 for q = 1, as p % 1 is
    for p in primes_mod.prime_table(limit).primes:
        if (r := p % q) in row:
            row[r] += one // p
    return _char_sums(row, q, prec + 40)


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
        w, sums = prec + 40, _prime_zeta_sums(q, prec)
        for chi in group:
            coef = mp.conj(chi.value(a, prec))
            h, logK = sums[chi.label]
            mean_h += coef * _mpc(h, w)
            if not chi.is_principal:
                acc += coef * (-_branched_log_L1(chi, prec, h[1] + logK[1]) + _mpc(logK, w))
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
