"""Dirichlet character groups modulo q.

Characters are labelled in the Conrey/LMFDB scheme: a unit l mod q names the
character chi_q(l, .), with chi_q(1, .) the principal character.  Values are
held as exact rational exponents (chi(n) = e(t) with t in Q/Z); conversion to
floating complex happens only at evaluation sites, at caller-chosen precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import mpmath as mp

__all__ = [
    "CharacterGroup",
    "DirichletCharacter",
    "build_group",
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


def totient(q: int) -> int:
    return len(units(q))


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
def _local_index(p: int, e: int) -> dict:
    """Discrete-log data for (Z/p^e Z)^x in the Conrey parametrisation.

    Odd p: n -> a with g^a = n, g the Conrey generator; order phi(p^e).
    p = 2, e >= 3: n -> (eps, b) with n = (-1)^eps 5^b mod 2^e.
    p = 2, e == 2: n -> eps with n = (-1)^eps mod 4.
    """
    pe = p**e
    if p == 2:
        if e == 1:
            return {1: 0}
        if e == 2:
            return {1: 0, 3: 1}
        half = 2 ** (e - 2)
        table = {}
        x = 1
        for b in range(half):
            table[x % pe] = (0, b)
            table[(-x) % pe] = (1, b)
            x = x * 5 % pe
        return table
    phi = pe // p * (p - 1)
    g = _conrey_generator(p)
    table = {}
    x = 1
    for a in range(phi):
        table[x] = a
        x = x * g % pe
    return table


def _local_exponent(p: int, e: int, l: int, n: int) -> Fraction:
    """Exponent t with chi_{p^e}(l, n) = e(t), for units l, n mod p^e."""
    pe = p**e
    idx = _local_index(p, e)
    if p == 2:
        if e == 1:
            return Fraction(0)
        if e == 2:
            return Fraction(idx[l % 4] * idx[n % 4], 2)
        el, bl = idx[l % pe]
        en, bn = idx[n % pe]
        return Fraction(el * en, 2) + Fraction(bl * bn, 2 ** (e - 2))
    phi = pe // p * (p - 1)
    return Fraction(idx[l % pe] * idx[n % pe], phi)


@lru_cache(maxsize=None)
def _root_of_unity(num: int, den: int, prec: int) -> mp.mpc:
    with mp.workprec(prec):
        return mp.expjpi(mp.mpf(2 * num) / den)


@dataclass(frozen=True)
class DirichletCharacter:
    """The character chi_q(label, .) in Conrey numbering."""

    modulus: int
    label: int
    _exponents: dict = field(repr=False, compare=False)

    @classmethod
    def _build(cls, q: int, l: int) -> "DirichletCharacter":
        exps = {}
        fac = factorint(q) if q > 1 else {}
        for n in units(q):
            t = Fraction(0)
            for p, e in fac.items():
                t += _local_exponent(p, e, l, n)
            exps[n] = t % 1
        return cls(q, l, exps)

    # --- exact algebra ---------------------------------------------------

    def exponent(self, n: int) -> Fraction | None:
        """t in [0,1) with chi(n) = e(t), or None when chi(n) = 0."""
        n %= self.modulus
        if self.modulus == 1:
            n = 1
        return self._exponents.get(n)

    def value(self, n: int, prec: int = 53) -> mp.mpc:
        t = self.exponent(n)
        if t is None:
            return mp.mpc(0)
        return _root_of_unity(t.numerator, t.denominator, prec)

    def __call__(self, n: int, prec: int = 53) -> mp.mpc:
        return self.value(n, prec)

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
        inv = pow(self.label, -1, self.modulus) if self.modulus > 1 else 1
        return build_group(self.modulus).by_label(inv)

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if self.modulus != other.modulus:
            raise ValueError("character product requires a common modulus")
        return build_group(self.modulus).by_label(self.label * other.label % self.modulus)

    def power(self, k: int) -> "DirichletCharacter":
        return build_group(self.modulus).by_label(pow(self.label, k, self.modulus) if self.modulus > 1 else 1)

    # --- conductor / induction -------------------------------------------

    @property
    def conductor(self) -> int:
        return self._conductor_and_primitive()[0]

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    def primitive(self) -> "DirichletCharacter":
        """The primitive character chi' inducing chi."""
        return self._conductor_and_primitive()[1]

    def _conductor_and_primitive(self):
        cached = _induction_cache.get((self.modulus, self.label))
        if cached is not None:
            return cached
        q = self.modulus
        d = q
        for cand in sorted(_divisors(q)):
            # chi factors through mod cand iff chi is trivial on units = 1 mod cand
            if all(self.exponent(u) == 0 for u in units(q) if u % cand == 1 % max(cand, 2) or cand == 1):
                d = cand
                break
        if d == q:
            result = (d, self)
        else:
            sub = build_group(d)
            prim = None
            for cand_chi in sub.characters:
                if all(
                    cand_chi.exponent(u % d) == self.exponent(u)
                    for u in units(q)
                ):
                    prim = cand_chi
                    break
            assert prim is not None, "induction matching failed"
            result = (d, prim)
        _induction_cache[(self.modulus, self.label)] = result
        return result


_induction_cache: dict = {}


def _divisors(q: int) -> list[int]:
    divs = [1]
    for p, e in factorint(q).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


@dataclass(frozen=True)
class CharacterGroup:
    """All phi(q) Dirichlet characters mod q, principal character first."""

    modulus: int
    generators: tuple  # (residue, order) pairs for (Z/qZ)^x
    characters: tuple

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

    @cached_property
    def _label_map(self):
        return {chi.label: chi for chi in self.characters}


def _group_generators(q: int) -> tuple:
    gens = []
    for p, e in factorint(q).items():
        pe = p**e
        m = q // pe
        minv = pow(m, -1, pe)

        def lift(g):
            return (1 + m * ((g - 1) * minv % pe)) % q

        if p == 2:
            if e == 2:
                gens.append((lift(3), 2))
            elif e >= 3:
                gens.append((lift(pe - 1), 2))
                gens.append((lift(5), 2 ** (e - 2)))
        else:
            gens.append((lift(_conrey_generator(p) % pe), pe // p * (p - 1)))
    return tuple(gens)


@lru_cache(maxsize=None)
def build_group(q: int) -> CharacterGroup:
    """Construct the full character group mod q (CRT over prime powers)."""
    if q < 1:
        raise ValueError("modulus must be a positive integer")
    labels = sorted(units(q))
    labels.remove(1 % q if q > 1 else 1)
    chars = [DirichletCharacter._build(q, 1)]
    chars.extend(DirichletCharacter._build(q, l) for l in labels)
    return CharacterGroup(q, _group_generators(q), tuple(chars))

