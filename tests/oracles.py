"""Slow reference routes, kept as test oracles for the fast ones in totprog.

L'(1, chi) through generalized Stieltjes constants at rationals r/q, on the
(possibly imprimitive) L-series mod q -- independent of the functional
equation that totprog.lvalues reflects L'/L(1, chi) from:

    L'(1,chi) = -log(q) L(1,chi) - (1/q) sum_r chi(r) gamma_1(r/q)

The Laurent data of L'/L at s = 0 fitted from Hurwitz zeta values near
s = 0; F(chi) through L'/L(1, conj chi') rather than b(chi'); F_q regrouped
over the divisors of q, and F_p for prime p from the Euler-Kronecker
constant gamma_p; R_{q,a} by counting m-th roots; a character sum over a row
one character value at a time;
and C(q,a) as the truncated Mertens product.  The psi, log Gamma and
zeta''(0, r/d) rows by one mpmath call per value, and the table of
zeta(k) - 1 by one mp.zeta(k) per entry.  The Hurwitz rows zeta(m, r/q)
by one mpmath call per value, and the Euler-factor half sums of G_q by one
mpf division and square root per term.  The literal sum of 1/|rho(1-rho)|
over G_q's zeros, with no signed closed form at chi'(p) = 1.  p_q(x) term
by term in mpf, and the trisection that refines max p_q in mpf.  The conductor and primitive
part of a character by searching the divisors of q and the group mod d.

The sums of log p and log(1 - 1/p) over the first k progression primes by two
routes independent of the block products of ProgressionStats.point_sums: one
log of each exact product, built by a product tree, and running sums of one
mp.log and one mp.log1p per prime.  The exact products over each whole-block
prefix, which point_sums keeps floored.

The sweep's float screen one point at a time, with each point's own rounding
bound, for the chunked screen of totprog.criterion.  The winding guard's
partial Euler sum by one cmath.log per prime, added in a loop.

log f(x;q,a) at a single point x, from point_sums at the count of
progression primes <= x: the reference that criterion.log_f_series and the
sweep are compared against.
"""

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from totprog import constants, criterion
from totprog import primes as primes_mod
from totprog.characters import DirichletCharacter, build_group, factorint, totient, units
from totprog.constants import F1, IndexData, gamma_p, index_data, mertens_C
from totprog.lvalues import DEFAULT_PREC, L_at_1, Lprime_over_L_at_1


def _as_mpf(x) -> mp.mpf:
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def digamma(x, prec: int = DEFAULT_PREC) -> mp.mpf:
    """psi(x) for rational x in (0, 1] (delegated to mpmath's
    Euler-Maclaurin kernel at prec bits)."""
    if x <= 0:
        raise ValueError("digamma argument must be positive")
    with mp.workprec(prec):
        return mp.digamma(_as_mpf(x))


def stieltjes_gamma1(x, prec: int = DEFAULT_PREC) -> mp.mpf:
    """Generalized Stieltjes constant gamma_1(x),
    gamma_1(x) = lim_N [ sum_{k<=N} log(k+x)/(k+x) - log^2(N+x)/2 ]."""
    if x <= 0:
        raise ValueError("gamma_1 argument must be positive")
    with mp.workprec(prec):
        return mp.stieltjes(1, _as_mpf(x))


def kernel_row_mp(kernel: str, d: int, prec: int) -> dict:
    """r -> psi(r/d), log Gamma(r/d) or zeta''(0, r/d) over the units r mod
    d, for kernel "psi", "loggamma" or "zeta2", one mpmath call per value at
    prec bits (the routes lvalues._row replaced).  The "zeta2" values are
    zeta''(0, r/d) itself, with the terms zeta''(0) - 2 gamma_1 y that _row
    drops."""
    f = {"psi": mp.digamma, "loggamma": mp.loggamma, "zeta2": lambda a: mp.zeta(0, a, 2)}[kernel]
    with mp.workprec(prec):
        return {r: f(mp.mpf(r) / d) for r in units(d)}


def zeta_table_mp(prec: int) -> tuple:
    """floor((zeta(k) - 1) 2^W) for k = 0, 1, 2, ... at W = prec + 40, from
    mp.zeta(k) at W + 20 bits, ending before its first zero entry, with
    entries 0 and 1 unused (the route the zeta list of lvalues._zeta_ints
    replaced)."""
    w = prec + 40
    table = [0, 0]
    with mp.workprec(w + 20):
        while z := int(mp.floor(mp.ldexp(mp.zeta(len(table)) - 1, w))):
            table.append(z)
    return tuple(table)


def char_sum(chi: DirichletCharacter, row, prec: int) -> mp.mpc:
    """sum_r chi(r) row[r] over the units r mod chi.modulus, at prec bits, one
    character value at a time (the route lvalues._char_sums replaced)."""
    with mp.workprec(prec):
        return sum(chi.value(r, prec) * row[r] for r in units(chi.modulus))


def hurwitz_row_mp(q: int, m: int, prec: int, rs=None) -> dict:
    """r -> zeta(m, r/q) over the units r mod q (or the units rs), one mpmath
    Hurwitz zeta call per value at prec bits (the route the ("hurwitz", m)
    family of lvalues._row replaced)."""
    with mp.workprec(prec):
        return {r: mp.zeta(m, mp.mpf(r) / q) for r in (units(q) if rs is None else rs)}


@lru_cache(maxsize=None)
def _gamma1_row(q: int, prec: int) -> dict:
    with mp.workprec(prec):
        return {r: mp.stieltjes(1, mp.mpf(r) / q) for r in units(q)}


def Lprime_at_1(chi: DirichletCharacter, prec: int = DEFAULT_PREC) -> mp.mpc:
    if chi.is_principal:
        raise ValueError("L(s, chi0) has a pole at s = 1")
    q = chi.modulus
    row = _gamma1_row(q, prec)
    with mp.workprec(prec):
        tail = -sum(chi.value(r, prec) * row[r] for r in units(q)) / q
        return -mp.log(q) * L_at_1(chi, prec) + tail


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


def laurent_fit(chi: DirichletCharacter, prec: int = DEFAULT_PREC, h: float = 1e-4):
    """Fit L'/L(s,chi) = m0/s + b + O(s^2-extrapolated) from samples at
    s = +-h, +-h/2.  Returns (m0_estimate: mpf, b_estimate: mpc)."""

    def ratio(s):
        L, Lp = _L_and_deriv(chi, s, prec)
        return Lp / L

    with mp.workprec(prec):
        h = mp.mpf(h)
        out = []
        for step in (h, h / 2):
            fp, fm = ratio(step), ratio(-step)
            out.append(((fp - fm) / 2 * step, (fp + fm) / 2))
        m_h, b_h = out[0]
        m_h2, b_h2 = out[1]
        return (4 * m_h2 - m_h) / 3, (4 * b_h2 - b_h) / 3


def divisors(q: int) -> list[int]:
    """The positive divisors of q, ascending."""
    divs = [1]
    for p, e in factorint(q).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def conductor_bruteforce(chi: DirichletCharacter) -> tuple:
    """(conductor, primitive label) by search: the least d | q with chi
    trivial on the units = 1 mod d, then the character mod d that agrees
    with chi on every unit mod q (chi itself when d = q: distinct labels
    mod q give distinct characters)."""
    q, us = chi.modulus, units(chi.modulus)
    d = next(d for d in divisors(q) if all(chi.exponent(u) == 0 for u in us if u % d == 1 % d))
    if d == q:
        return d, chi.label
    exps = [chi.exponent(u) for u in us]
    prim = next(psi for psi in build_group(d) if all(psi.exponent(u) == t for u, t in zip(us, exps)))
    return d, prim.label


def _num_primitive(d: int) -> int:
    return sum(1 for chi in build_group(d) if chi.is_primitive)


def F_q_via_divisors(q: int, prec: int = DEFAULT_PREC) -> mp.mpf:
    """Independent route: F_q = sum_{d|q, d>1} phi*(d) log(d/pi)
    + 2 sum_{d|q, d>1} sum_{chi* mod d} L'/L(1,chi)
    - phi(q)(gamma + log 2) + 2 gamma - log pi + 2.  Valid for q > 2 only
    (for q <= 2 the constant term would need -2 log 2, not -phi log 2)."""
    if q <= 2:
        raise ValueError("divisor regrouping of F_q requires q > 2")
    with mp.workprec(prec):
        total = -totient(q) * (mp.euler + mp.log(2)) + 2 * mp.euler - mp.log(mp.pi) + 2
        for d in divisors(q)[1:]:
            total += _num_primitive(d) * mp.log(mp.mpf(d) / mp.pi)
            total += 2 * mp.re(
                sum(
                    Lprime_over_L_at_1(chi, prec)
                    for chi in build_group(d)
                    if chi.is_primitive
                )
            )
        return total


def F_chi_via_LpL1(chi: DirichletCharacter, prec: int = DEFAULT_PREC) -> mp.mpf:
    """F(chi) for nonprincipal chi with primitive part chi' mod d, through
    L'/L(1, conj chi') (the route constants.F_chi replaced):
    log(d/pi) + 2 Re L'/L(1, conj chi') - gamma - (1 - alpha) 2 log 2."""
    prim = chi.primitive()
    with mp.workprec(prec):
        return (
            mp.log(mp.mpf(prim.modulus) / mp.pi)
            + 2 * mp.re(Lprime_over_L_at_1(prim.conjugate(), prec))
            - mp.euler
            - (1 - chi.parity) * 2 * mp.log(2)
        )


def F_p_primecalc(p: int, prec: int = DEFAULT_PREC) -> mp.mpf:
    """F_p for odd prime p from the Euler-Kronecker constant:
    F_1 + 2 gamma_p - p gamma + (2-p) log(2 pi / p) + log 2."""
    with mp.workprec(prec):
        g = gamma_p(p, prec).value
        return F1(prec) + 2 * g - p * mp.euler + (2 - p) * mp.log(2 * mp.pi / p) + mp.log(2)


def index_data_bruteforce(q: int, a: int) -> IndexData:
    """Oracle: same m search, R by counting solutions of b^m = a directly."""
    if math.gcd(q, a) != 1:
        raise ValueError("q and a must be coprime")
    if q == 1:
        return IndexData(1, 1, 2, 1)
    m = index_data(q, a).m
    R = sum(1 for b in units(q) if pow(b, m, q) == a % q)
    return IndexData(q, a % q, m, R)


def mertens_C_naive(q: int, a: int, x, table, prec: int = DEFAULT_PREC) -> mp.mpf:
    """Truncated product prod_{p<=x, p=a mod q}(1-1/p) * (log x)^(1/phi);
    converges to C(q,a) like 1/log x -- consistency oracle only."""
    st = primes_mod.stats(q, a, table, prec)
    with mp.workprec(prec):
        return mp.e ** (st.log_one_minus(x) + mp.log(mp.log(x)) / st.phi)


def log_f(x, q: int, a: int, prec: int, table) -> mp.mpf:
    st = primes_mod.stats(q, a, table, prec)
    mc = mertens_C(q, a, prec)
    th, log1m = st.point_sums(st._count(x))
    with mp.workprec(prec):
        if st.phi * th <= 1:
            raise ValueError("log f undefined until phi(q) theta(x) > 1")
        return criterion._log_f(st.phi, th, log1m, mc.log_C)


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


def exact_prefix_products(pbar, block: int) -> list:
    """(prod p, prod (p - 1)) over pbar[:j block] for j = 0, 1, ... up to the
    last whole block: the exact values of ProgressionStats' checkpoints."""
    out = [(1, 1)]
    for lo in range(0, len(pbar) - block + 1, block):
        P, Q = out[-1]
        ps = pbar[lo : lo + block]
        out.append((P * _product(ps), Q * _product([p - 1 for p in ps])))
    return out


def _mpf(n: int) -> mp.mpf:
    """mp.mpf(n), rounded to the working precision, with the trailing zero
    bits shifted out first: the pure-Python backend strips them slowly."""
    zeros = (n & -n).bit_length() - 1
    return mp.ldexp(mp.mpf(n >> zeros), zeros)


def running_sums(pbar, prec: int) -> tuple:
    """The running sums of log p and of log(1 - 1/p) over pbar at prec bits:
    one mp.log and one mp.log1p per prime, added in order."""
    with mp.workprec(prec):
        theta, log1m, acc_t, acc_l = [], [], mp.mpf(0), mp.mpf(0)
        for p in pbar:
            acc_t += mp.log(p)
            acc_l += mp.log1p(mp.mpf(-1) / p)
            theta.append(acc_t)
            log1m.append(acc_l)
    return theta, log1m


def running_sums_bound(k: int, theta, log1m, prec: int) -> tuple:
    """Bounds on |theta - exact| and |log1m - exact| for the k-th entries of
    running_sums: k logs, each within 4 2^-prec of the exact log (relative),
    and k - 1 additions, to first order, doubled: 2 (k + 4) 2^-prec of
    either sum."""
    c = 2 * (k + 4) * mp.ldexp(1, -prec)
    return c * theta, c * abs(log1m)


def float_screen_per_point(st, x_max, log_C, prec: int):
    """(k, pbar_k, f, E) at each progression prime pbar_k <= x_max: log f in
    doubles by the per-point recurrence, and E the point's own rounding
    bound, criterion._rounding_bound at its own c, log1m, lam and g (inf
    where that is None), as criterion._float_screen states them."""
    phi, log_C = st.phi, float(log_C)
    u_p = 2.0**-prec
    u, a = criterion._U + u_p, criterion._LIBM + 4 * u_p
    theta = log1m = 0.0
    for k, p in enumerate(st.pbar, 1):
        if p > x_max:
            return
        theta += math.log(p)
        log1m += math.log1p(-1.0 / p)
        lam = math.log(phi * theta)
        g = math.log(lam) / phi if lam > 0 else math.nan
        c = 2 * (k * u + a)
        err = criterion._rounding_bound(c, c * abs(log1m) + u_p, phi, lam, lam, g, log1m, log_C, u, a)
        yield k, p, g + log1m - log_C, math.inf if err is None else err


def partial_euler_sum(chi: DirichletCharacter, limit: int) -> complex:
    """-sum log(1 - chi(p)/p) over the primes p <= limit in doubles, one
    prime at a time: the winding guard's estimate of log L(1, chi)."""
    q = chi.modulus
    rot = {r: cmath.exp(2j * math.pi * float(t)) for r in range(q) if (t := chi.exponent(r)) is not None}
    s0 = 0j
    for p in primes_mod.prime_table(limit).primes:
        if (z := rot.get(p % q)) is not None:
            s0 -= cmath.log(1 - z / p)
    return s0


def reciprocal_sum(chi: DirichletCharacter, limit: int) -> complex:
    """sum chi(p)/p over the primes p <= limit in doubles, one prime at a
    time: the first part of the winding guard's estimate."""
    q = chi.modulus
    rot = {r: cmath.exp(2j * math.pi * float(t)) for r in range(q) if (t := chi.exponent(r)) is not None}
    return sum(z / p for p in primes_mod.prime_table(limit).primes if (z := rot.get(p % q)) is not None)


def abs_zero_sum_half_mp(p: int, theta_frac, kmax: int, prec: int) -> mp.mpf:
    """The Euler-factor half sum of constants._abs_zero_sum_half, term by
    term in mpf at prec bits (the route it replaced): f(t_k) for k <= kmax,
    then the same three Hurwitz-zeta tail terms."""
    with mp.workprec(prec):
        L = mp.log(p)
        total = mp.mpf(0)
        two_pi = 2 * mp.pi
        tf = mp.mpf(theta_frac.numerator) / theta_frac.denominator
        theta = two_pi * tf
        for k in range(kmax + 1):
            t = (theta + two_pi * k) / L
            total += 1 / (t * mp.sqrt(1 + t * t))
        u = L / two_pi
        shift = kmax + 1 + tf
        total += u**2 * mp.zeta(2, shift)
        total -= u**4 / 2 * mp.zeta(4, shift)
        total += 3 * u**6 / 8 * mp.zeta(6, shift)
        return total


def G_q_absolute(q: int, prec: int) -> mp.mpf:
    """The literal sum of 1/|rho(1-rho)| over the zeros constants.G_q sums:
    a factor with chi'(p) = 1 (theta = 0) as the k >= 1 half twice, where
    G_q takes the signed closed form (L/2)coth(L/2) - 1."""
    with mp.workprec(prec):
        total = mp.mpf(0)
        for p, tf in (f for chi in build_group(q) for f in chi.euler_factors):
            for half in (1, 1) if tf == 0 else (tf, 1 - tf):
                total += constants._abs_zero_sum_half(p, half, constants._KMAX, prec).value
        return total


def p_q_mp(x, phi, F, G, R, B, M) -> mp.mpf:
    """p_q(x) in mpf at the working precision, every term from scratch."""
    lx = mp.log(x)
    sx = mp.sqrt(x)
    return (
        (3 * F + mp.mpf("1.2") * R) / lx
        + (1 + 2 / lx) * G / sx
        + (mp.mpf("0.01") * phi - B - M) / sx
        - (M / x - phi / (2 * (x - 1))) * sx * lx
    )


def P_q_trisection_mp(q: int, F, G, R, B, M, prec: int) -> mp.mpf:
    """max p_q as criterion._P_q_from estimates it, with the refinement it
    replaced: from the same double-precision grid argmax, a 60-step
    trisection in mpf, then the larger of p_q at its midpoint and at both
    ends of the range."""
    phi = totient(q)
    grid = criterion._p_q_grid(phi, float(F), float(G), R, float(B), M)
    best_i = max(enumerate(v for _, v in grid), key=lambda iv: iv[1])[0]
    lo, step = criterion._P_LO, criterion._P_STEP
    with mp.workprec(prec):
        a = mp.mpf(lo + max(best_i - 1, 0) * step)
        b = mp.mpf(lo + min(best_i + 1, criterion._P_GRID) * step)
        for _ in range(60):
            m1 = a + (b - a) / 3
            m2 = b - (b - a) / 3
            if p_q_mp(mp.e**m1, phi, F, G, R, B, M) < p_q_mp(mp.e**m2, phi, F, G, R, B, M):
                a = m1
            else:
                b = m2
        peak = p_q_mp(mp.e ** ((a + b) / 2), phi, F, G, R, B, M)
        for edge in (mp.e**10, mp.mpf(10) ** 16):
            peak = max(peak, p_q_mp(edge, phi, F, G, R, B, M))
        return peak
