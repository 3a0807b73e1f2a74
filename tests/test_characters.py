"""Character group construction, labelling, orthogonality, induction."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import conductor_bruteforce, divisors
from totprog.characters import (
    DirichletCharacter,
    build_group,
    factorint,
    residue,
    totient,
    units,
)
from totprog.constants import index_data, mertens_C
from totprog.primes import ProgressionStats, enumerate_smooth, prime_table, stats

_PRIMES = [p for p in range(2, 200) if all(p % r for r in range(2, p))]


def _as_complex(chi: DirichletCharacter, n: int) -> complex:
    e = chi.exponent(n)
    if e is None:
        return 0j
    return cmath.exp(2j * math.pi * float(e))


def test_units_and_totient_basics():
    assert units(1) == (1,)
    assert units(8) == (1, 3, 5, 7)
    assert totient(1) == 1
    assert totient(12) == 4
    assert all(math.gcd(u, 60) == 1 for u in units(60))
    assert len(units(60)) == totient(60) == 16


def test_totient_counts_units():
    for n in range(1, 2001):
        assert totient(n) == len(units(n))


def test_divisors_sorted_and_complete():
    for n in range(1, 501):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_group_sizes_and_principal_first():
    for q in (1, 2, 3, 8, 45, 100):
        grp = build_group(q)
        assert len(grp.characters) == totient(q)
        assert grp.characters[0].is_principal
        assert grp.principal.label == 1


def test_known_values_mod_8():
    grp = build_group(8)
    chi3 = grp.by_label(3)
    chi5 = grp.by_label(5)
    expect3 = {1: 1, 3: 1, 5: -1, 7: -1}
    expect5 = {1: 1, 3: -1, 5: -1, 7: 1}
    for n in (1, 3, 5, 7):
        assert abs(_as_complex(chi3, n) - expect3[n]) < 1e-12
        assert abs(_as_complex(chi5, n) - expect5[n]) < 1e-12
    # even modulus: chi vanishes on even n
    assert chi3.exponent(4) is None
    assert chi3.value(4, 53) == 0


def test_quadratic_character_mod_5():
    chi = build_group(5).by_label(4)
    # label 4 = -1 is the order-two character: 1 on squares {1,4}
    for n, v in ((1, 1), (4, 1), (2, -1), (3, -1)):
        assert abs(_as_complex(chi, n) - v) < 1e-12


@pytest.mark.parametrize("q", list(range(1, 201)))
def test_orthogonality_exhaustive(q):
    """Both orthogonality relations for every q up to 200.

    Column sums: sum_chi chi(n) = phi(q) [n == 1] ; row sums:
    sum_n chi(n) = phi(q) [chi principal].  Exact in Fraction exponents:
    group the units by exponent and check the root-of-unity sums cancel.
    """
    grp = build_group(q)
    us = units(q)
    phi = totient(q)
    for n in us:
        s = sum(_as_complex(chi, n) for chi in grp.characters)
        want = phi if n % max(q, 2) == 1 % max(q, 2) else 0
        assert abs(s - want) < 1e-9 * max(1, phi)
    for chi in grp.characters:
        s = sum(_as_complex(chi, n) for n in us)
        want = phi if chi.is_principal else 0
        assert abs(s - want) < 1e-9 * max(1, phi)


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9, 12, 16, 21, 40])
def test_multiplicativity_and_label_arithmetic(q):
    grp = build_group(q)
    us = units(q)
    for chi in grp.characters:
        for m in us[:6]:
            for n in us[:6]:
                lhs = _as_complex(chi, m * n)
                rhs = _as_complex(chi, m) * _as_complex(chi, n)
                assert abs(lhs - rhs) < 1e-10
    # the product of two characters is the one labelled by the product of labels
    a, b = grp.characters[1 % len(us)], grp.characters[-1]
    prod = grp.by_label(a.label * b.label)
    assert prod.label == (a.label * b.label) % max(q, 2) or q == 1
    for n in us[:8]:
        assert abs(_as_complex(prod, n) - _as_complex(a, n) * _as_complex(b, n)) < 1e-10


@given(
    q=st.integers(min_value=1, max_value=60),
    i=st.integers(min_value=0, max_value=10**6),
    j=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=120, deadline=None)
def test_conjugate_and_power_properties(q, i, j):
    grp = build_group(q)
    chars = grp.characters
    chi = chars[i % len(chars)]
    n = units(q)[j % len(chars)]
    conj = chi.conjugate()
    assert abs(_as_complex(conj, n) - _as_complex(chi, n).conjugate()) < 1e-10
    k = (i % 5) + 1
    assert abs(_as_complex(chi.power(k), n) - _as_complex(chi, n) ** k) < 1e-9


_unit_index = st.integers(min_value=0, max_value=10**6)


@given(q=st.integers(min_value=1, max_value=500), i=_unit_index, j=_unit_index, k=_unit_index, l=_unit_index)
@settings(max_examples=150, deadline=None)
def test_exponent_is_exactly_multiplicative_in_n_and_in_the_label(q, i, j, k, l):
    """chi(mn) = chi(m) chi(n) and chi_{ab}(n) = chi_a(n) chi_b(n), as exact
    sums of exponents in Q/Z, at random units of a random modulus."""
    grp, us = build_group(q), units(q)
    chi, psi = grp.characters[i % len(us)], grp.characters[j % len(us)]
    m, n = us[k % len(us)], us[l % len(us)]
    assert chi.exponent(m * n) == (chi.exponent(m) + chi.exponent(n)) % 1
    assert grp.by_label(chi.label * psi.label).exponent(n) == (chi.exponent(n) + psi.exponent(n)) % 1


@given(q=st.integers(min_value=1, max_value=500), i=_unit_index)
@settings(max_examples=100, deadline=None)
def test_conductor_and_primitive_match_the_search_at_random_moduli(q, i):
    chi = build_group(q).characters[i % totient(q)]
    assert (chi.conductor, chi.primitive().label) == conductor_bruteforce(chi)


def test_parity():
    assert build_group(4).by_label(3).parity == 1
    assert build_group(5).by_label(4).parity == 0
    assert build_group(8).by_label(5).parity == 0
    assert build_group(8).by_label(3).parity == 1
    for q in (3, 5, 7, 9, 12, 15):
        odd = sum(chi.parity for chi in build_group(q).characters)
        assert odd == totient(q) // 2  # half the characters are odd, q > 2


@pytest.mark.parametrize("q", list(range(1, 201)))
def test_conductor_and_induction(q):
    """Conductor divides the modulus; the primitive character of that
    conductor induces chi (values agree on units coprime to q); primitive
    characters are their own primitive part."""
    for chi in build_group(q).characters:
        d = chi.conductor
        assert q % d == 0
        prim = chi.primitive()
        assert prim.modulus == d
        assert prim.is_primitive
        for n in units(q)[:10]:
            assert chi.exponent(n) == prim.exponent(n % d if d > 1 else 1)
        if chi.is_principal:
            assert d == 1


def test_conductor_known_cases():
    assert build_group(8).by_label(7).conductor == 4
    assert build_group(8).by_label(3).conductor == 8
    assert build_group(12).by_label(5).conductor == 3
    assert build_group(12).by_label(7).conductor == 4
    assert build_group(12).by_label(11).conductor == 12
    assert build_group(14).by_label(3).conductor == 7
    assert build_group(9).by_label(4).conductor == 9


def test_exponents_are_fractions_with_group_order_denominator():
    for q in (7, 9, 16, 24):
        for chi in build_group(q).characters:
            for n in units(q):
                e = chi.exponent(n)
                assert isinstance(e, Fraction)
                assert 0 <= e < 1
                assert totient(q) % e.denominator == 0


def test_a_character_is_its_modulus_and_label():
    assert list(DirichletCharacter._fields) == ["modulus", "label"]
    chi = build_group(12).by_label(5)
    assert chi == DirichletCharacter(12, 5) and hash(chi) == hash(DirichletCharacter(12, 5))


@pytest.mark.parametrize("q", [*range(1, 201), 243, 256, 1009])
def test_conductor_and_primitive_match_the_search(q):
    """The conductor and primitive label read off the label's logs equal
    those a search over the divisors of q and the group mod d finds."""
    for chi in build_group(q):
        assert (chi.conductor, chi.primitive().label) == conductor_bruteforce(chi)


@pytest.mark.parametrize("q", list(range(1, 201)))
def test_euler_factors_match_the_conductor_search(q):
    """euler_factors holds the primes p | q not dividing the conductor the
    search finds, and at each the value chi'(p) of the character mod that
    conductor, read as chi(n) for a unit n = p mod the conductor."""
    for chi in build_group(q):
        d, _ = conductor_bruteforce(chi)
        assert [p for p, _ in chi.euler_factors] == [p for p in sorted(factorint(q)) if d % p]
        for p, t in chi.euler_factors:
            n = next(n for n in units(q) if (n - p) % d == 0)
            assert chi.exponent(n) == t


def test_residue_reduces_a_class_mod_q():
    assert [residue(7, a) for a in (1, 8, -6, 13)] == [1, 1, 1, 6]
    assert residue(1, 0) == residue(1, 5) == 1


@pytest.mark.parametrize(
    "call",
    [
        residue,
        lambda q, a: ProgressionStats(q, a, prime_table(1000)),
        lambda q, a: stats(q, a, prime_table(1000)),
        lambda q, a: enumerate_smooth(q, a, 100, prime_table(1000)),
        mertens_C,
        index_data,
    ],
    ids=["residue", "ProgressionStats", "stats", "enumerate_smooth", "mertens_C", "index_data"],
)
@pytest.mark.parametrize("q, a", [(6, 4), (7, 0), (7, 14), (12, -3)])
def test_a_class_not_coprime_to_q_is_refused(call, q, a):
    with pytest.raises(ValueError, match="q and a must be coprime"):
        call(q, a)


def test_primitive_label_is_not_the_label_mod_the_conductor():
    assert build_group(27).by_label(8).primitive() == DirichletCharacter(9, 2)
    assert build_group(16).by_label(9).primitive() == DirichletCharacter(8, 5)
    # -1 mod 16: the sign alone, induced from mod 4
    assert build_group(16).by_label(15).primitive() == DirichletCharacter(4, 3)
    differ = [
        chi
        for q in range(1, 201)
        for chi in build_group(q)
        if chi.conductor > 1 and chi.primitive().label != chi.label % chi.conductor
    ]
    assert len(differ) == 276


@pytest.mark.parametrize("q", list(range(1, 201)))
def test_conrey_labels_factor_over_prime_powers(q):
    """chi_q(l, n) = prod over p^e || q of chi_{p^e}(l mod p^e, n mod p^e),
    for every label l.  Both sides are characters in n, so n runs over the
    primes below q that do not divide q, which generate the units mod q."""
    pes = [p**e for p, e in factorint(q).items()]
    gens = [p for p in _PRIMES if p < q and q % p]
    for chi in build_group(q):
        local = [build_group(pe).by_label(chi.label) for pe in pes]
        for n in gens:
            assert chi.exponent(n) == sum(psi.exponent(n) for psi in local) % 1
