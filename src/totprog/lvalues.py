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
are integers at w = prec + 40 bits, summed once per (kernel, d, prec), and
computed with no mpmath special function by one series-row kernel, _row: an
integer Horner sum of the series about a = 1 (DLMF 5.7, 25.11), whose
coefficients come from one integer table of zeta(k) - 1 and -zeta'(k) per
precision (_zeta_ints), plus a shift for r/d <= 1/2 that takes at most one
log.  The Hurwitz rows zeta(m, r/q) that constants sums through the same
seam are one more family of that kernel, ("hurwitz", m).

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

import math
from fractions import Fraction
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


# The zeta table sums n^-k directly for n below N = (W + _ZG) // 4 and adds
# the Euler-Maclaurin tail at N, at W + _ZG bits.
_ZG = 24


def _bernoulli_ratios(count: int) -> list:
    """(a, b) with a/b = B_2j/(2j)! for j = 1 ... count, from the tangent
    numbers T_1, T_3, T_5, ... (integers only; Brent and Harvey, "Fast
    computation of Bernoulli, tangent and secant numbers", 2013):
    B_2j/(2j)! = (-1)^(j-1) T_(2j-1) / (4^j (4^j - 1) (2j - 1)!)."""
    t = [math.factorial(i) for i in range(count)]
    for i in range(1, count):
        for j in range(i, count):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return [
        (t[j - 1] if j % 2 else -t[j - 1], 4**j * (4**j - 1) * math.factorial(2 * j - 1))
        for j in range(1, count + 1)
    ]


@lru_cache(maxsize=None)
def _zeta_ints(prec: int) -> tuple:
    """(zeta, dzeta): floor((zeta(k) - 1) 2^W) and floor(-zeta'(k) 2^W) at
    W = prec + 40, indexed by k = 0, 1, 2, ... (entries 0 and 1 unused).  Both
    lists end where both entries are zero; each later value is below the last
    one, so it is zero too within the bound.

    At S = W + _ZG bits, with N = S // 4: the terms n^-k and log n n^-k for
    2 <= n < N are floor(2^S / n^k) and floor(l_n / n^k), l_n = floor(log n
    2^S), by repeated floor division (the only mp calls are the N - 1 logs,
    n = 2 ... N), and the tails over n >= N are Euler-Maclaurin sums
    (DLMF 2.10.1) for f(x) = x^-k and for g(x) = log x x^-k = -df/dk:

        N^(1-k)/(k-1) + N^-k/2 + sum_j (a_j/b_j) (k)_(2j-1) N^(-k-2j+1),

    and minus its derivative in k, with (k)_m the rising factorial and a_j/b_j
    = B_2j/(2j)! (_bernoulli_ratios), one floor per term.  Terms are added
    while the f or the g term is at least one unit of 2^-S.  Every derivative
    of even order of f is positive, and so is g's of order m when log x >
    sum_(i<m) 1/(k+i); so when the loop stops before term j with log N >
    H_(2j+3) - 1, each remainder lies between 0 and the first omitted term
    (Graham, Knuth and Patashnik, Concrete Mathematics, 9.5), below one unit.
    Past the last j allowed, the loop raises; with N = S // 4 it stops by
    two thirds of the way at 53 to 1024 bits.

    Bound, in units of 2^-S, over J added terms: the direct floors, < N - 2
    for zeta and < 2 (N - 2) for dzeta (l_n is within 1.01 units); the tail
    terms' floors, < J + 2 and < J + 3; the remainders, < 1 each; and l_N's
    error, times the f tail, < 0.1.  So both sums are within 3N + 5 < S units
    of 2^-S, and each entry, floored once, within 1 + S 2^-_ZG < 1.01 units
    of 2^-W."""
    s = prec + 40 + _ZG
    cut, one = s // 4, 1 << s
    # the loop may stop before term j while log N > H_(2j+3) - 1
    bern = _bernoulli_ratios(max(j for j in range(1, cut) if sum(1 / i for i in range(2, 2 * j + 4)) < math.log(cut)))
    with mp.workprec(s + 20):
        logs = [to_fixed(mp.log(n)._mpf_, s) for n in range(2, cut + 1)]
    l_cut = logs.pop()
    direct = [[n, one // n, l // n] for n, l in zip(range(2, cut), logs)]  # [n, n^-k, log n n^-k] at k = 1
    zeta, dzeta = [0, 0], [0, 0]
    k, cut_k = 2, cut  # cut_k = N^(k-1)
    while True:
        z = dz = 0
        for t in direct:
            t[1] //= t[0]
            t[2] //= t[0]
            z += t[1]
            dz += t[2]
        direct = [t for t in direct if t[1] or t[2]]
        den, half = (k - 1) * cut_k, 2 * cut_k * cut
        z += one // den + one // half
        dz += l_cut // den + one // ((k - 1) * den) + l_cut // half
        rise, drise, power = k, 1, cut_k * cut * cut  # (k)_(2j-1), its derivative in k, N^(k+2j-1)
        for j, (a, b) in enumerate(bern, 1):
            den = b * power
            f_num, g_num = a * rise * one, a * (rise * l_cut - drise * one)
            if abs(f_num) < den and abs(g_num) < den:
                break
            z += f_num // den
            dz += g_num // den
            for i in (2 * j - 1, 2 * j):
                drise = drise * (k + i) + rise
                rise *= k + i
            power *= cut * cut
        else:
            raise ArithmeticError(f"zeta table: the Euler-Maclaurin terms at k = {k} stay above 2^-{s}")
        z >>= _ZG
        dz >>= _ZG
        if not (z or dz):
            return tuple(zeta), tuple(dzeta)
        zeta.append(z)
        dzeta.append(dz)
        k, cut_k = k + 1, cut_k * cut


@lru_cache(maxsize=None)
def _series(kernel: str, prec: int) -> tuple:
    """c_n, n = 0 ... W + 4, at scale 2^-W, W = prec + 40, of the kernel's
    series about a = 1 in y = 1 - a (DLMF 5.7, and 25.11.10 for zeta2):

        psi(1 - y)       = -gamma - sum_{n>=1} zeta(n+1) y^n
        log Gamma(1 - y) = gamma y + sum_{n>=2} zeta(n) y^n / n
        zeta2(1 - y)     = sum_{n>=2} (2/n) (H_(n-1) zeta(n) + zeta'(n)) y^n

    with zeta2(1 - y) = zeta''(0, 1 - y) - zeta''(0) + 2 gamma_1 y: the second
    derivative in s at s = 0 of the terms n >= 2 of zeta(s, 1 - y) =
    sum_n (s)_n/n! zeta(s + n) y^n.  From _zeta_ints and gamma floored at
    W + 20 bits; past the table, zeta(n) = 1 and zeta'(n) = 0, within its
    1.01 units.  Each c_n is exact in table entries or one floor of such an
    expression, within 1.01 units (psi), 1.01/n + 1 (log Gamma) and
    (2/n)(H_(n-1) + 1) 1.01 + 1 <= 3.02 (zeta2) of its value; and
    |c_n| < 1.65 in all three series."""
    w = prec + 40
    zeta, dzeta = _zeta_ints(prec)
    with mp.workprec(w + 20):
        gamma = to_fixed(mp.euler._mpf_, w)
    top = w + 5
    z = [(1 << w) + (zeta[n] if n < len(zeta) else 0) for n in range(top + 1)]  # zeta(n) 2^W
    if kernel == "psi":
        return (-gamma, *(-z[n + 1] for n in range(1, top)))
    if kernel == "loggamma":
        return (0, gamma, *(z[n] // n for n in range(2, top)))
    c, h = [0, 0], Fraction(1)  # h = H_(n-1)
    for n in range(2, top):
        dz = dzeta[n] if n < len(dzeta) else 0
        c.append(2 * (h.numerator * z[n] - h.denominator * dz) // (h.denominator * n))
        h += Fraction(1, n)
    return tuple(c)


def _coefficients(kernel: str | tuple, prec: int, count: int) -> tuple:
    """c_n, n < count, at scale 2^-W, W = prec + 40, of the kernel's series
    about a = 1 in y = 1 - a: _series for "psi", "loggamma" and "zeta2"; for
    ("hurwitz", m), m >= 2, those of the sum in (DLMF 25.11.10)

        zeta(m, 1 - y) = (1 - y)^-m + sum_{n>=0} C(m+n-1, n) (zeta(m+n) - 1) y^n,

    C(m+n-1, n) times the zeta list of _zeta_ints, so within 1.01 C(m+n-1, n)
    units, up to where the table ends (each later entry is 0 within its
    units).  Built per row, uncached: _log_L caches the sums per (q, m, prec)."""
    if isinstance(kernel, str):
        return _series(kernel, prec)[:count]
    m = kernel[1]
    zeta = _zeta_ints(prec)[0]
    c, binom = [], 1  # binom = C(m+n-1, n)
    for n in range(min(count, len(zeta) - m)):
        c.append(binom * zeta[m + n])
        binom = binom * (m + n) // (n + 1)
    return tuple(c)


def _terms(kernel: str | tuple, s: int, d: int, w: int) -> int:
    """N for _row's Horner sum at |y| = s/d, by the rule _row states."""
    if not s:
        return 1
    if isinstance(kernel, str):
        return math.ceil((w + 5) / math.log2(d / s))
    m = kernel[1]
    n, log_t, log_y = 0, -m, math.log2(s / (2 * d))  # log2 t_0, log2 |y|/2
    while (m + n) * s > (n + 1) * d or log_t >= -(w + 5):
        log_t += math.log2((m + n) / (n + 1)) + log_y
        n += 1
    return n


def _row(kernel: str | tuple, d: int, prec: int) -> dict:
    """r -> the kernel at a = r/d over the units r mod d, as integers at
    scale 2^-w, w = prec + 40, each within B units of its value:

        "psi"          psi(r/d)                                     B = 6
        "loggamma"     log Gamma(r/d)                               B = 5
        "zeta2"        zeta''(0, r/d) - zeta''(0) + 2 gamma_1 y     B = 5
        ("hurwitz", m) zeta(m, r/d), m >= 2                         B = 6 zeta(m, r/d)
        "r"            r                                            B = 0

    For 2r <= d, a + 1 = 1 - y with y = -r/d, and psi(a) = psi(a + 1) - 1/a,
    log Gamma(a) = log Gamma(a + 1) - log a, zeta''(0, a) = zeta''(0, a + 1)
    + log^2 a and zeta(m, a) = zeta(m, a + 1) + a^-m; else y = (d - r)/d.  So
    |y| <= 1/2, and each value is the integer Horner sum of _coefficients in
    y = u/d over n < N, plus the shift: one floor (psi, Hurwitz) or one mp
    log floored to w + 20 bits (log Gamma, zeta2); the Hurwitz row adds the
    closed part a'^-m = (d/(d - u))^m of its series, a' = 1 - y, floored.
    N comes from a float bound on |c_n| |y|^n, once per |u| (_terms; r and
    d - r share it): for psi, log Gamma and zeta2, N = ceil((w + 5) /
    log2(1/|y|)), so |y|^N < 2^-(w+4); for Hurwitz, the first n with t_n =
    C(m+n-1, n) 2^-(m+n) |y|^n below 2^-(w+5) and t_(n+1)/t_n = (m+n) |y| /
    (2 (n+1)) <= 1/2, which then holds for every later n (log2 t_n is summed
    in floats, whose error the one bit of margin covers).

    The zeta2 row drops zeta''(0) - 2 gamma_1 y, which sums to zero against
    every even nonprincipal psi mod d: the constant does, and y is -r/d +
    [2r > d], where sum psi(r) r = (d/2) sum psi(r) = 0 and psi(r) = psi(d - r)
    splits sum psi(r) = 0 in equal halves.  Those are the only characters
    _b_primitive sums it against, so neither zeta''(0) nor gamma_1 is needed.

    Bound: each Horner step floors once, and step n is damped by |y|^n
    (< 2 in all).  Each family adds its coefficients' errors, damped likewise,
    the terms n >= N, and the floors of its shift and closed part:
      psi, log Gamma, zeta2: < 2.02, 1.26 and 1.51; < 1.65 |y|^N / (1 - |y|)
        < 0.21 (|c_n| < 1.65); < 1, and < 1.01 for the log, taken at w + 40
        bits, and for its square while log d < 4000.
      Hurwitz: < 1.01 (1 - |y|)^-m; < 2 sum t_n <= 4 t_N < 1/8, since
        zeta(k) - 1 <= 2^(1-k) for k >= 3; < 2.  As zeta(m, a) >= a'^-m =
        (1 - |y|)^-m >= 1 for y > 0 and zeta(m, a) >= a^-m >= 2^m for y < 0,
        the integer is zeta(m, a) (1 + delta) 2^w with |delta| < 6 * 2^-w."""
    w = prec + 40
    if kernel == "r":
        return {r: r << w for r in units(d)}
    family, m = (kernel, 0) if isinstance(kernel, str) else kernel
    ys = {r: -r if 2 * r <= d else d - r for r in units(d)}  # y = u/d
    terms = {s: _terms(kernel, s, d, w) for s in set(map(abs, ys.values()))}
    coeffs = _coefficients(kernel, prec, max(terms.values()))
    scale = d**m << w
    row = {}
    with mp.workprec(w + 40):
        for r, u in ys.items():
            acc = 0
            for c in reversed(coeffs[: terms[abs(u)]]):
                acc = c + acc * u // d
            if family == "hurwitz":
                acc += scale // (d - u) ** m
            if u < 0:
                if family == "psi":
                    acc -= (d << w) // r
                elif family == "hurwitz":
                    acc += scale // r**m
                else:
                    log_a = to_fixed(mp.log(mp.mpf(r) / d)._mpf_, w + 20)
                    acc += -(log_a >> 20) if family == "loggamma" else (log_a * log_a) >> (w + 40)
            row[r] = acc
    return row


@lru_cache(maxsize=None)
def _row_sums(kernel: str, d: int, prec: int) -> dict:
    """_char_sums of _row(kernel, d, prec), at w = prec + 40 bits."""
    return _char_sums(_row(kernel, d, prec), d, prec + 40)


def _row_sum(chi: DirichletCharacter, prec: int, kernel: str) -> mp.mpc:
    """sum_r chi(r) k(r/d) over the units r mod d = chi.modulus, for the
    kernel k of _row, read from _row_sums and rounded to prec bits."""
    sums = _row_sums(kernel, chi.modulus, prec)
    with mp.workprec(prec):
        return _mpc(sums[chi.label], prec + 40)


def L_at_1(chi: DirichletCharacter, prec: int = DEFAULT_PREC) -> mp.mpc:
    if chi.is_principal:
        raise ValueError("L(s, chi0) has a pole at s = 1")
    q = chi.modulus
    with mp.workprec(prec):
        return -_row_sum(chi, prec, "psi") / q


@lru_cache(maxsize=None)
def _b_primitive(psi: DirichletCharacter, prec: int) -> mp.mpc:
    """Constant term b of L'/L(s, psi) at s = 0, psi primitive nonprincipal
    (the Lerch / Deninger sums of the module docstring)."""
    d = psi.modulus
    with mp.workprec(prec):
        z1 = _row_sum(psi, prec, "loggamma")
        if psi.parity:
            z0 = -_row_sum(psi, prec, "r") / d
            return -mp.log(d) + z1 / z0
        return -mp.log(d) + _row_sum(psi, prec, "zeta2") / (2 * z1)


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
