"""Field axioms and canonicalization of the exact cyclotomic scalars,
checked property-style against the numeric embedding."""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from wqhopf.catalog import all_entries
from wqhopf.scalars import (Approx, Cyc, _pmul, _reduce, _zeta_power,
                            _zeta_table, euler_phi, make_scalar,
                            roots_of_unity, scalar_from_json, scalar_to_json,
                            sqrt_in_field)

CONDUCTORS = (1, 2, 3, 4, 5, 6, 8, 12, 16)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def cycs(draw):
    n = draw(st.sampled_from(CONDUCTORS))
    coeffs = draw(st.lists(rationals, min_size=n, max_size=n))
    return Cyc(n, coeffs)


@given(cycs(), cycs(), cycs())
@settings(max_examples=150, deadline=None)
def test_ring_axioms(x, y, z):
    assert (x + y) - y == x
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + Cyc.rational(0) == x
    assert x * Cyc.rational(1) == x


def _fraction_lift(x, m):
    """x's coordinates in Q(zeta_m), by the Fraction route: zeta_n^j is
    zeta_m^(j m/n), reduced by polynomial division."""
    spread = [Fraction(0)] * m
    for j, cj in enumerate(x.c):
        spread[j * (m // x.n)] = cj
    return _reduce(m, spread)


def _normalized(x):
    return (len(x.num) == euler_phi(x.n) and x.den > 0
            and gcd(*x.num, x.den) == 1
            and all(type(v) is int for v in x.num + (x.den,)))


@given(cycs(), cycs())
@settings(max_examples=150, deadline=None)
def test_arithmetic_matches_fraction_route(x, y):
    m = lcm(x.n, y.n)
    a, b = _fraction_lift(x, m), _fraction_lift(y, m)
    prod, total, diff = x * y, x + y, x - y
    assert prod.n == total.n == diff.n == m
    assert prod.c == _reduce(m, _pmul(list(a), list(b)))
    assert total.c == tuple(p + q for p, q in zip(a, b))
    assert diff.c == tuple(p - q for p, q in zip(a, b))
    assert x.lift(m).c == a
    for r in (x, y, prod, total, diff, x.lift(m), -x, x * 3, x / -2,
              x.canonical(), x.conjugate()):
        assert _normalized(r)


def test_zeta_table_is_integral_and_matches_division():
    used = set(CONDUCTORS)
    for entry in all_entries():
        cat = entry.category
        mats = list(cat.F.values()) + list((cat.R or {}).values())
        used |= {x.n for M in mats for row in M for x in row}
        used |= {x.n for x in cat.theta or ()}
    for n in sorted(used):
        table = _zeta_table(n)
        assert len(table) == n
        # products of reduced vectors reach degree 2 phi(n) - 2
        for k in range(max(n, 2 * euler_phi(n) - 1)):
            row = table[k % n]
            assert all(type(v) is int for v in row)
            assert row == _zeta_power(n, k)


@given(cycs())
@settings(max_examples=150, deadline=None)
def test_inverse(x):
    if x.is_zero():
        return
    assert x * x.inverse() == Cyc.rational(1)
    assert _normalized(x.inverse())


@given(cycs(), cycs())
@settings(max_examples=150, deadline=None)
def test_embedding_homomorphism(x, y):
    assert abs((x + y).embed() - (x.embed() + y.embed())) < 1e-9
    assert abs((x * y).embed() - x.embed() * y.embed()) < 1e-9


@given(cycs())
@settings(max_examples=150, deadline=None)
def test_canonical_idempotent(x):
    c = x.canonical()
    assert c == x
    assert c.canonical().sort_key() == c.sort_key()


@given(cycs(), cycs())
@settings(max_examples=150, deadline=None)
def test_sort_key_separates(x, y):
    assert (x == y) == (x.sort_key() == y.sort_key())


@given(cycs())
@settings(max_examples=100, deadline=None)
def test_json_round_trip(x):
    assert scalar_from_json(scalar_to_json(x)) == x


@given(cycs())
@settings(max_examples=100, deadline=None)
def test_conjugate_against_embedding(x):
    assert abs(x.conjugate().embed() - x.embed().conjugate()) < 1e-9


def test_zeta_orders():
    for n in (1, 2, 3, 4, 5, 8, 12, 20):
        z = Cyc.zeta(n)
        assert z ** n == Cyc.rational(1)
        for k in range(1, n):
            assert z ** k != Cyc.rational(1) or n == 1


def test_lift_preserves_value():
    z3 = Cyc.zeta(3)
    assert z3.lift(12) == z3
    assert z3.lift(12) + Cyc.zeta(4) == Cyc.zeta(4) + z3


def test_galois_permutes_roots():
    z5 = Cyc.zeta(5)
    assert z5.galois(2) == z5 ** 2
    assert (z5 + z5 ** 4).galois(2) == z5 ** 2 + z5 ** 3


def test_sqrt_in_field_five():
    # zeta5 + zeta5^4 - zeta5^2 - zeta5^3 squares to 5
    r = sqrt_in_field(Cyc.rational(5), 5)
    assert r is not None
    assert r * r == Cyc.rational(5)


def test_sqrt_in_field_absent():
    assert sqrt_in_field(Cyc.rational(2), 5) is None


def test_sqrt_of_two_in_eighth_roots():
    r = sqrt_in_field(Cyc.rational(2), 8)
    assert r is not None and r * r == Cyc.rational(2)


def test_roots_of_unity_exhaustive():
    roots = roots_of_unity(8)
    assert len(set((r.n, r.c) for r in roots)) == len(roots)
    for r in roots:
        assert r ** 8 == Cyc.rational(1)


def test_make_scalar_canonicalizes():
    # zeta4^2 = -1 collapses into the rational slot
    x = make_scalar(4, [0, 0, 1, 0])
    assert x == Cyc.rational(-1)


def test_approx_matches_exact_arithmetic():
    x = Approx(0.5 + 0.25j)
    y = Approx(2)
    assert (x * y).embed() == (1 + 0.5j)
    assert (x + y - y).is_zero(1e-12) is False
    assert (x - x).is_zero()
    assert Approx.rational(Fraction(1, 4)).embed() == 0.25


def test_mixed_backend_rejected():
    import pytest
    with pytest.raises(Exception):
        Cyc.rational(1) + Approx(1)
