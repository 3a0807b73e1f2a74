"""Dirichlet character groups modulo q.

Characters are labelled in the Conrey/LMFDB scheme: a unit l mod q names the
character chi_q(l, .), with chi_q(1, .) the principal character.  A character
is only its modulus and label: one table per modulus holds the integer
discrete logs of every unit over the cyclic factors of each p^e || q, and
chi(n) = e(t) comes from the logs of l and n as an exact t in Q/Z; conversion
to floating complex happens only at evaluation sites, at caller-chosen
precision.

residue(q, a) is the one check and reduction of a residue class a mod q,
for every layer that takes one.  DirichletCharacter.euler_factors lists the
Euler factors that the L-series mod q has beyond its primitive L-function,
for every sum that reads them.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import mpmath as mp

__all__ = [
    "CharacterGroup",
    "DirichletCharacter",
    "build_group",
    "residue",
    "units",
    "totient",
    "factorint",
]


def factorint(n: int) -> dict[int, int]:
    """Prime factorization by trial division (adequate for modulus-sized n)."""
    fac: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


@lru_cache(maxsize=None)
def units(q: int) -> tuple[int, ...]:
    """Units of Z/qZ; (1,) for q = 1 (the trivial group on the residue 1)."""
    if q == 1:
        return (1,)
    return tuple(n for n in range(1, q) if math.gcd(n, q) == 1)


def residue(q: int, a: int) -> int:
    """The reduced residue a mod q, 1 for q = 1; raises ValueError unless
    gcd(q, a) = 1."""
    if math.gcd(q, a) != 1:
        raise ValueError("q and a must be coprime")
    return a % q if q > 1 else 1


def totient(n: int) -> int:
    """Euler's phi(n), from the factorization of n; phi(1) = 1."""
    return math.prod(p ** (e - 1) * (p - 1) for p, e in factorint(n).items())


@lru_cache(maxsize=None)
def _conrey_generator(p: int) -> int:
    # least primitive root mod p that also generates mod p^2 (then it
    # generates mod every p^e)
    phi = p - 1
    fac = list(factorint(phi))
    g = 2
    while True:
        if all(pow(g, phi // r, p) != 1 for r in fac):
            if pow(g, phi, p * p) != 1:
                return g
            return g + p
        g += 1


@lru_cache(maxsize=None)
def _local_logs(p: int, e: int) -> tuple:
    """(g, orders, logs) for (Z/p^e Z)^x in the Conrey parametrisation: every
    unit is n = (-1)^eps g^a mod p^e, and logs maps n -> (eps, a).

    Odd p: g is the Conrey generator, eps = 0, orders (1, phi(p^e)).
    p = 2: g = 5, orders (2, 2^(e-2)) for e >= 2 and (1, 1) for e = 1.
    """
    pe = p**e
    g = 5 if p == 2 else _conrey_generator(p)
    sign = 2 if p == 2 and e > 1 else 1
    order = totient(pe) // sign
    logs = {}
    x = 1
    for a in range(order):
        for eps in range(sign):
            logs[(-x if eps else x) % pe] = (eps, a)
        x = x * g % pe
    return g, (sign, order), logs


@lru_cache(maxsize=None)
def _log_table(q: int) -> tuple:
    """(logs, scaled, exps) mod q.  logs maps each unit n mod q (0 for q = 1)
    to its integer logs b over the cyclic factors of every p^e || q, and
    scaled to (b_i N / o_i), with o_i the orders of the factors and N their
    lcm.  Then chi_q(l, n) = e(t) with t = exps[sum_i a_i s_i mod N] =
    (sum_i a_i s_i mod N) / N, for a the logs of l and s the scaled logs of n."""
    parts = [(p**e, *_local_logs(p, e)[1:]) for p, e in factorint(q).items()]
    orders = [o for _, os, _ in parts for o in os]
    N = math.lcm(*orders)
    logs = {n: sum((t[n % pe] for pe, _, t in parts), ()) for n in range(q) if math.gcd(n, q) == 1}
    scaled = {n: tuple(x * (N // o) for x, o in zip(b, orders)) for n, b in logs.items()}
    return logs, scaled, [Fraction(k, N) for k in range(N)]


@lru_cache(maxsize=None)
def _root_of_unity(num: int, den: int, prec: int) -> mp.mpc:
    with mp.workprec(prec):
        return mp.expjpi(mp.mpf(2 * num) / den)


class DirichletCharacter(NamedTuple):
    """The character chi_q(label, .) in Conrey numbering; equal and hashed
    by (modulus, label)."""

    modulus: int
    label: int

    # --- exact algebra ---------------------------------------------------

    def exponent(self, n: int) -> Fraction | None:
        """t in [0,1) with chi(n) = e(t), or None when chi(n) = 0."""
        logs, scaled, exps = _log_table(self.modulus)
        s = scaled.get(n % self.modulus)
        if s is None:
            return None
        return exps[sum(map(operator.mul, logs[self.label % self.modulus], s)) % len(exps)]

    def value(self, n: int, prec: int) -> mp.mpc:
        t = self.exponent(n)
        if t is None:
            return mp.mpc(0)
        return _root_of_unity(t.numerator, t.denominator, prec)

    @property
    def is_principal(self) -> bool:
        return self.label % self.modulus == 1 or self.modulus <= 2

    @property
    def parity(self) -> int:
        """alpha: 0 for even (chi(-1)=1), 1 for odd (chi(-1)=-1)."""
        if self.modulus <= 2:
            return 0
        return 0 if self.exponent(self.modulus - 1) == 0 else 1

    def conjugate(self) -> "DirichletCharacter":
        return build_group(self.modulus).by_label(pow(self.label, -1, self.modulus))

    def power(self, k: int) -> "DirichletCharacter":
        return build_group(self.modulus).by_label(pow(self.label, k, self.modulus))

    # --- conductor / induction -------------------------------------------

    @property
    def conductor(self) -> int:
        return _conductor_and_primitive(self)[0]

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    def primitive(self) -> "DirichletCharacter":
        """The primitive character chi' inducing chi."""
        return _conductor_and_primitive(self)[1]

    @property
    def euler_factors(self) -> tuple:
        """(p, t) for each prime p | q with p not dividing the conductor, where
        chi'(p) = e(t) for the primitive chi' inducing chi, in ascending p:
        L(s, chi) = L(s, chi') prod (1 - chi'(p) p^-s) over these p, and each
        factor adds the zeros s = i(2 pi (t + k))/log p, k in Z."""
        return _euler_factors(self)


@lru_cache(maxsize=None)
def _euler_factors(chi: DirichletCharacter) -> tuple:
    """DirichletCharacter.euler_factors, cached per character."""
    prim = chi.primitive()
    return tuple((p, prim.exponent(p)) for p in factorint(chi.modulus) if prim.modulus % p)


@lru_cache(maxsize=None)
def _conductor_and_primitive(chi: DirichletCharacter) -> tuple:
    """(conductor, primitive character inducing chi), cached per character."""
    # Read off the label's logs (eps, a) one p^e || q at a time.  The local
    # character is trivial on the units = 1 mod p^c iff p^(e-c) | a, so
    # c = e - v_p(a) for a != 0; the sign alone (p = 2, a = 0, eps = 1)
    # needs c = 2.  The inducing character mod p^c has logs (eps, a /
    # p^(e-c)), so its label is (-1)^eps g^(a / p^(e-c)) mod p^c; the
    # local labels combine by CRT.  (Not label mod d: chi_27(8, .) is
    # induced by chi_9(2, .).)
    d, label = 1, 0
    for p, e in factorint(chi.modulus).items():
        g, _, logs = _local_logs(p, e)
        eps, a = logs[chi.label % p**e]
        c = e
        while c and a % p ** (e - c + 1) == 0:
            c -= 1
        c = max(c, 2 * eps)
        pc = p**c
        local = (-1) ** eps * pow(g, a // p ** (e - c), pc)
        label += d * ((local - label) * pow(d, -1, pc) % pc)
        d *= pc
    if d == chi.modulus:
        return d, chi
    return d, build_group(d).by_label(label)


class CharacterGroup:
    """All phi(q) Dirichlet characters mod q, principal character first."""

    def __init__(self, modulus: int, characters: tuple):
        self.modulus = modulus
        self.characters = characters
        self._label_map = {chi.label: chi for chi in characters}

    def __iter__(self):
        return iter(self.characters)

    def __len__(self):
        return len(self.characters)

    @property
    def principal(self) -> DirichletCharacter:
        return self.characters[0]

    def nonprincipal(self):
        return self.characters[1:]

    def by_label(self, l: int) -> DirichletCharacter:
        return self._label_map[l % self.modulus if self.modulus > 1 else 1]


@lru_cache(maxsize=None)
def build_group(q: int) -> CharacterGroup:
    """The full character group mod q, in label order (principal first)."""
    if q < 1:
        raise ValueError("modulus must be a positive integer")
    return CharacterGroup(q, tuple(DirichletCharacter(q, l) for l in units(q)))

