"""Named constants for totients on progressions.

Highlights:

* ``mertens_C`` computes the progression Mertens constant C(q,a) (the limit of
  prod_{p<=x, p=a mod q}(1-1/p) * (log x)^{1/phi(q)}) through a character
  decomposition in terms of L(1,chi) plus rapidly convergent prime-zeta
  corrections, so the naive 1/log-x-converging product is only a consistency
  oracle.  The companion constant M(q,a) = sum_{p=a} {log(1-1/p)+1/p} - log C
  uses the same machinery.

* ``F_q`` sums 1/(rho(1-rho)) over nontrivial zeros of the primitive
  L-functions via the closed form log(d/pi) + 2 Re L'/L(1, conj chi') - gamma
  - (1-alpha) 2 log 2 per nonprincipal character.

* ``G_q`` covers the purely imaginary Euler-factor zeros of imprimitive
  L-series.  Two conventions are exposed: "absolute" is the literal
  sum of 1/|rho(1-rho)|; "published" evaluates the chi'(p) = 1 progressions
  with the signed closed form (L/2)coth(L/2) - 1 instead (the reference
  tables were built that way -- see the README notes).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .characters import DirichletCharacter, build_group, factorint, totient, units
from .lvalues import (
    Approx,
    DEFAULT_CTX,
    L_at_1,
    Lprime_over_L_at_1,
    PrecisionContext,
)
from . import primes as primes_mod

__all__ = [
    "IndexData",
    "MertensConstant",
    "index_data",
    "index_data_bruteforce",
    "mertens_C",
    "mertens_C_naive",
    "F1",
    "F_chi",
    "F_q",
    "F_q_via_divisors",
    "F_p_primecalc",
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
    return frozenset(pow(b, n, q) for b in units(q)) if q > 1 else frozenset({0})


def index_data(q: int, a: int) -> IndexData:
    """m by ascending search; R by the prime-power closed form
    R = (m,2)(m,2^(alpha-2)) * prod_i (m, phi(q_i^alpha_i)) (the 2-part
    factors appearing only when 4 | q)."""
    if math.gcd(q, a) != 1:
        raise ValueError("q and a must be coprime")
    a %= max(q, 2)
    if q == 1:
        return IndexData(1, 1, 2, 1)
    m = 2
    while m <= totient(q) + 2:
        if a % q in _power_image(q, m):
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


def index_data_bruteforce(q: int, a: int) -> IndexData:
    """Oracle: same m search, R by counting solutions of b^m = a directly."""
    if math.gcd(q, a) != 1:
        raise ValueError("q and a must be coprime")
    if q == 1:
        return IndexData(1, 1, 2, 1)
    m = index_data(q, a).m
    R = sum(1 for b in units(q) if pow(b, m, q) == a % q)
    return IndexData(q, a % q, m, R)


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
def _hurwitz_row(q: int, m: int, prec: int) -> dict:
    with mp.workprec(prec):
        return {r: mp.zeta(m, mp.mpf(r) / q) for r in units(q)}


def _log_L_int(chi: DirichletCharacter, m: int, prec: int) -> mp.mpc:
    """log L(m, chi) for integer m >= 2 (imprimitive L-series mod q).
    The principal branch agrees with the Euler-sum branch since
    sum_p |arg local factor| < sum_p p^-m / (1 - p^-m) < pi."""
    q = chi.modulus
    row = _hurwitz_row(q, m, prec)
    with mp.workprec(prec):
        L = sum(chi.value(r, prec) * row[r] for r in units(q)) / mp.mpf(q) ** m
        return mp.log(L)


def _prime_zeta(chi: DirichletCharacter, k: int, prec: int, bits: int) -> mp.mpc:
    """P(k, chi) = sum_p chi(p)/p^k via Moebius inversion of log L."""
    total = mp.mpc(0)
    j = 1
    while (j * k - 1) <= bits:
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


@lru_cache(maxsize=4)
def _branch_primes(limit: int = 100_000) -> list:
    return primes_mod.PrimeTable(limit).primes


def _branched_log_L1(chi: DirichletCharacter, ctx: PrecisionContext) -> mp.mpc:
    """log L(1, chi) on the branch continued along the Euler product
    (the branch entering P(1,chi) = sum_p chi(p)/p).  The partial Euler sum
    in double precision pins the winding number; the value itself comes from
    the exact L(1,chi)."""
    v = L_at_1(chi, ctx)
    s0 = 0.0 + 0.0j
    q = chi.modulus
    for p in _branch_primes():
        t = chi.exponent(p)
        if t is None:
            continue
        s0 += -cmath.log(1 - cmath.exp(2j * math.pi * float(t)) / p)
    with ctx.workprec():
        principal = mp.log(v)
        k = _winding_number((s0.imag - float(mp.im(principal))) / (2 * math.pi))
        return principal + 2j * mp.pi * k


def _winding_number(turns: float) -> int:
    """The integer a double-precision winding estimate stands for; raises
    ArithmeticError unless the estimate lies within 0.25 of it."""
    k = round(turns)
    if abs(turns - k) > 0.25:
        raise ArithmeticError(f"winding estimate {turns!r} is not within 0.25 of an integer")
    return k


def _pz_cutoff(ctx: PrecisionContext) -> int:
    # terms of sum_k P(k,.)/k decay like 2^-k; truncate well below target
    return max(48, int(-mp.log(ctx.target, 2)) + 8)


@lru_cache(maxsize=None)
def _mertens_cached(q: int, a: int, prec: int, target: float) -> MertensConstant:
    ctx = PrecisionContext(prec=prec, target=target)
    group = build_group(q)
    phi = totient(q)
    bits = _pz_cutoff(ctx)
    with ctx.workprec():
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
            pz = sum(_prime_zeta(chi, k, prec, bits) / k for k in range(2, bits + 1))
            mean_h += coef * pz
            if not chi.is_principal:
                logK = sum(
                    (_prime_zeta(chi.power(k), k, prec, bits) - _prime_zeta(chi, k, prec, bits)) / k
                    for k in range(2, bits + 1)
                )
                acc += coef * (-_branched_log_L1(chi, ctx) + logK)
        log_C = mp.re(acc) / phi
        # truncation tail of the prime-zeta sums is < 4 * 2^-bits per character
        tail = mp.mpf(2) ** (2 - bits) * (phi + 1)
        C = mp.e**log_C
        M_val = mp.re(-mean_h) / phi - log_C
        return MertensConstant(
            q,
            a,
            Approx(C, (tail + ctx.eps(abs(log_C))) * C),
            Approx(M_val, 2 * tail + ctx.eps(abs(M_val))),
            log_C,
        )


def mertens_C(q: int, a: int, ctx: PrecisionContext = DEFAULT_CTX) -> MertensConstant:
    if math.gcd(q, a) != 1:
        raise ValueError("q and a must be coprime")
    return _mertens_cached(q, a % max(q, 2) if q > 1 else 1, ctx.prec, ctx.target)


def mertens_C_naive(q: int, a: int, x, table=None, ctx: PrecisionContext = DEFAULT_CTX) -> mp.mpf:
    """Truncated product prod_{p<=x, p=a mod q}(1-1/p) * (log x)^(1/phi);
    converges to C(q,a) like 1/log x -- consistency oracle only."""
    st = primes_mod.stats(q, a, table, ctx.prec)
    with ctx.workprec():
        return mp.e ** (st.log_one_minus(x) + mp.log(mp.log(x)) / st.phi)


# --------------------------------------------------------------------------
# Zero sums F_q, G_q and the Euler-Kronecker constants


def F1(ctx: PrecisionContext = DEFAULT_CTX) -> mp.mpf:
    """Contribution of a principal (trivially induced) character:
    sum over nontrivial zeta zeros of 1/(rho(1-rho))."""
    with ctx.workprec():
        return 2 + mp.euler - mp.log(mp.pi) - 2 * mp.log(2)


def F_chi(chi: DirichletCharacter, ctx: PrecisionContext = DEFAULT_CTX) -> mp.mpf:
    """Zero sum for a nonprincipal character, through its primitive part
    chi' of conductor d:  log(d/pi) + 2 Re L'/L(1, conj chi') - gamma
    - (1-alpha) 2 log 2."""
    if chi.is_principal:
        raise ValueError("use F1() for the principal character")
    prim = chi.primitive()
    d = prim.modulus
    with ctx.workprec():
        ll = Lprime_over_L_at_1(prim.conjugate(), ctx)
        return (
            mp.log(mp.mpf(d) / mp.pi)
            + 2 * mp.re(ll)
            - mp.euler
            - (1 - chi.parity) * 2 * mp.log(2)
        )


def F_q(q: int, ctx: PrecisionContext = DEFAULT_CTX) -> Approx:
    group = build_group(q)
    with ctx.workprec():
        total = F1(ctx) + sum(F_chi(chi, ctx) for chi in group.nonprincipal())
        return Approx(total, ctx.eps(abs(total)) * max(1, totient(q)))


def _num_primitive(d: int) -> int:
    return sum(1 for chi in build_group(d) if chi.is_primitive)


def F_q_via_divisors(q: int, ctx: PrecisionContext = DEFAULT_CTX) -> mp.mpf:
    """Independent route: F_q = sum_{d|q, d>1} phi*(d) log(d/pi)
    + 2 sum_{d|q, d>1} sum_{chi* mod d} L'/L(1,chi)
    - phi(q)(gamma + log 2) + 2 gamma - log pi + 2.  Valid for q > 2 only
    (for q <= 2 the constant term would need -2 log 2, not -phi log 2)."""
    if q <= 2:
        raise ValueError("divisor regrouping of F_q requires q > 2")
    divs = sorted(_all_divisors(q))
    with ctx.workprec():
        total = -totient(q) * (mp.euler + mp.log(2)) + 2 * mp.euler - mp.log(mp.pi) + 2
        for d in divs:
            if d == 1:
                continue
            total += _num_primitive(d) * mp.log(mp.mpf(d) / mp.pi)
            total += 2 * mp.re(
                sum(
                    Lprime_over_L_at_1(chi, ctx)
                    for chi in build_group(d)
                    if chi.is_primitive
                )
            )
        return total


def _all_divisors(q: int) -> list:
    divs = [1]
    for p, e in factorint(q).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


def gamma_p(p: int, ctx: PrecisionContext = DEFAULT_CTX) -> Approx:
    """Euler-Kronecker constant of the p-th cyclotomic field:
    gamma + sum_{chi != chi0 mod p} L'/L(1, chi)."""
    if p < 3 or any(p % d == 0 for d in range(2, int(math.isqrt(p)) + 1)):
        raise ValueError("gamma_p requires an odd prime")
    group = build_group(p)
    with ctx.workprec():
        total = mp.euler + mp.re(
            sum(Lprime_over_L_at_1(chi, ctx) for chi in group.nonprincipal())
        )
        return Approx(total, ctx.eps(abs(total)) * p)


def F_p_primecalc(p: int, ctx: PrecisionContext = DEFAULT_CTX) -> mp.mpf:
    """F_p for odd prime p from the Euler-Kronecker constant:
    F_1 + 2 gamma_p - p gamma + (2-p) log(2 pi / p) + log 2."""
    with ctx.workprec():
        g = gamma_p(p, ctx).value
        return F1(ctx) + 2 * g - p * mp.euler + (2 - p) * mp.log(2 * mp.pi / p) + mp.log(2)


# --------------------------------------------------------------------------
# G_q: purely imaginary Euler-factor zeros of imprimitive L-series


def _abs_zero_sum_half(L: mp.mpf, theta_frac, kmax: int) -> mp.mpf:
    """sum over k >= 0 of f(t_k), t_k = (theta + 2 pi k)/L with
    f(t) = 1/(t sqrt(1+t^2)), for 0 < theta <= 2 pi; Hurwitz-zeta tail."""
    total = mp.mpf(0)
    two_pi = 2 * mp.pi
    tf = mp.mpf(theta_frac.numerator) / theta_frac.denominator if isinstance(
        theta_frac, Fraction
    ) else mp.mpf(theta_frac)
    theta = two_pi * tf
    for k in range(kmax + 1):
        t = (theta + two_pi * k) / L
        total += 1 / (t * mp.sqrt(1 + t * t))
    # f(t) = t^-2 - t^-4/2 + 3 t^-6/8 - ...; sum tails as Hurwitz zetas
    u = L / two_pi
    shift = kmax + 1 + tf
    total += u**2 * mp.zeta(2, shift)
    total -= u**4 / 2 * mp.zeta(4, shift)
    total += 3 * u**6 / 8 * mp.zeta(6, shift)
    return total


def _abs_zero_sum(L: mp.mpf, theta_frac, kmax: int) -> mp.mpf:
    """Full line sum_k f(|t_k|), k in Z, excluding t = 0 when theta = 0."""
    if theta_frac == 0:
        return 2 * _abs_zero_sum_half(L, 1, kmax)  # k >= 1 branch, doubled
    return _abs_zero_sum_half(L, theta_frac, kmax) + _abs_zero_sum_half(
        L, 1 - Fraction(theta_frac), kmax
    )


def _signed_zero_sum_theta0(L: mp.mpf) -> mp.mpf:
    """Closed form of sum_{k != 0} 1/(rho_k (1 - rho_k)) over
    rho_k = 2 pi i k / L:  (L/2) coth(L/2) - 1."""
    return (L / 2) * mp.coth(L / 2) - 1


def _euler_factor_angles(q: int):
    """(chi, p, theta/2pi as Fraction) for each chi mod q and p | q with
    p not dividing the conductor of chi (so the imprimitive L-series gains
    the zeros of 1 - chi'(p) p^-s)."""
    out = []
    for chi in build_group(q):
        prim = chi.primitive()
        d = prim.modulus
        for p in factorint(q):
            if d % p != 0:
                out.append((chi, p, prim.exponent(p)))
    return out


def G_q(
    q: int,
    ctx: PrecisionContext = DEFAULT_CTX,
    kmax: int = 2000,
    convention: str = "published",
) -> Approx:
    """Zero sum over the purely imaginary (Re rho = 0) zeros rho =
    i(theta + 2 pi k)/log p of the Euler factors of imprimitive L-series.

    convention="absolute": the literal sum of 1/|rho(1-rho)|.
    convention="published": progressions with chi'(p) = 1 (theta = 0) use the
    signed closed form (L/2)coth(L/2) - 1 instead of absolute values; this is
    the evaluation the reference tables contain.
    """
    if convention not in ("published", "absolute"):
        raise ValueError("convention must be 'published' or 'absolute'")
    with ctx.workprec():
        total = mp.mpf(0)
        err = mp.mpf(0)
        for _chi, p, theta_frac in _euler_factor_angles(q):
            L = mp.log(p)
            if theta_frac == 0 and convention == "published":
                total += _signed_zero_sum_theta0(L)
            else:
                total += _abs_zero_sum(L, theta_frac, kmax)
                # first omitted asymptotic order bounds the tail error
                err += 2 * (L / (2 * mp.pi)) ** 8 * mp.zeta(8, kmax + 1) * mp.mpf(5) / 16
        return Approx(total, err + ctx.eps(abs(total)))


# --------------------------------------------------------------------------
# Nicolas condition scan


def nicolas_condition_scan(q_max: int, ctx: PrecisionContext = DEFAULT_CTX):
    """Rows (q, F_q, min over squares a of 2 R_{q,a}, F_q < that bound)."""
    rows = []
    for q in range(1, q_max + 1):
        fq = F_q(q, ctx).value
        sq_residues = sorted({pow(b, 2, q) if q > 1 else 1 for b in units(q)})
        bound = min(2 * index_data(q, a).R for a in sq_residues)
        rows.append((q, fq, bound, bool(fq < bound)))
    return rows
