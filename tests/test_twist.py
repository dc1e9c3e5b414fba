"""Twists between reconstructions and the slotwise coboundary operator."""

from dataclasses import replace
from fractions import Fraction

import pytest

from wqhopf.catalog import builtin
from wqhopf.functor import build_functor
from wqhopf.fusion import DimensionFunction, canonical_weak_dimension
from wqhopf.hopf import family_deviation, reconstruct
from wqhopf.linalg import rank, transpose
from wqhopf.scalars import Cyc
from wqhopf.twist import (Cochain, TwistElement, TwistError, coboundary,
                          twist_between, unit_cochain, verify_twist)


def test_identity_twist_is_projector(flagship):
    T = twist_between(flagship, flagship)
    assert family_deviation(T.T, flagship.delta_unit) == ([], 0.0)
    assert family_deviation(T.T_inv, flagship.delta_unit) == ([], 0.0)


def test_fibonacci_twist_exact(flagship, flagship_seed7):
    T = twist_between(flagship, flagship_seed7)
    rep = verify_twist(flagship, flagship_seed7, T)
    assert rep.passed, [c.id for c in rep.failures()]
    # quasi-invertible, not invertible: the (tau, tau) block has corank 1
    assert rank(T.T[(1, 1)]) == 3
    assert len(T.T[(1, 1)]) == 4


def test_twist_direction_matters(flagship, flagship_seed7):
    T = twist_between(flagship_seed7, flagship)
    rep = verify_twist(flagship_seed7, flagship, T)
    assert rep.passed


def test_mismatched_dimension_vectors_rejected(fib_cat):
    D2 = DimensionFunction((1, 2), False)
    H2 = reconstruct(build_functor(fib_cat, D2))
    H3 = reconstruct(build_functor(fib_cat, canonical_weak_dimension(fib_cat.ring)))
    with pytest.raises(TwistError):
        twist_between(H2, H3)


def test_different_categories_rejected(flagship):
    cat = builtin("svec").category
    other = reconstruct(build_functor(cat, DimensionFunction((1, 1), True)))
    with pytest.raises(TwistError):
        twist_between(flagship, other)


def test_sub_float_codomain_mismatch_rejected(z2_weak):
    # raising one entry of c(1, 1) by 10^-400 leaves the row space of the
    # projector, so no codomain isomorphism carries F1.c onto it
    F = z2_weak.functor
    row = list(F.c[(1, 1)][0])
    row[1] = row[1] + Cyc.rational(Fraction(1, 10 ** 400))
    F2 = replace(F, c={**F.c, (1, 1): [row]})
    with pytest.raises(TwistError):
        twist_between(z2_weak, replace(z2_weak, functor=F2))


def test_scalar_twist_is_tensorator_ratio(z3_cat):
    D = DimensionFunction((1, 1, 1), exact=True)
    F1 = build_functor(z3_cat, D, strategy="random", seed=3)
    F2 = build_functor(z3_cat, D, strategy="random", seed=11)
    T = twist_between(reconstruct(F1), reconstruct(F2))
    for (a, b), M in T.T.items():
        ratio = F1.c[(a, b)][0][0] * F2.c[(a, b)][0][0].inverse()
        assert M[0][0] == ratio


def test_corrupted_twist_names_the_block(flagship, flagship_seed7):
    T = twist_between(flagship, flagship_seed7)
    bad = TwistElement(dict(T.T), dict(T.T_inv))
    bad.T[(1, 1)] = transpose(bad.T[(1, 1)])
    rep = verify_twist(flagship, flagship_seed7, bad)
    assert not rep.passed
    braid = rep["twist-braiding"]
    assert not braid.passed and (1, 1) in braid.witnesses


def test_unit_cochain_coboundary_trivial_exact(z3_hopf):
    for degree in (1, 2, 3):
        d = coboundary(unit_cochain(z3_hopf, degree))
        assert d.degree == degree + 1
        assert family_deviation(
            d.fam, unit_cochain(z3_hopf, degree + 1).fam) == ([], 0.0)


def test_sign_cochain_gives_group_coboundary():
    cat = builtin("vec_zn", n=2, q=0).category
    H = reconstruct(build_functor(cat, DimensionFunction((1, 1), True)))
    one = H.functor.cat.one
    gam = {(0,): [[one.rational(1)]], (1,): [[one.rational(-1)]]}
    d = coboundary(Cochain(H, 1, gam, gam))
    for a in range(2):
        for b in range(2):
            g = lambda x: one.rational(-1) if x else one.rational(1)
            classical = g((a + b) % 2) * g(a).inverse() * g(b).inverse()
            assert d.fam[(a, b)][0][0] == classical


def test_associator_is_closed_on_exact_entries(z3_hopf):
    d = coboundary(Cochain(z3_hopf, 3, z3_hopf.phi, z3_hopf.phi_inv))
    assert family_deviation(d.fam, unit_cochain(z3_hopf, 4).fam) == ([], 0.0)


def test_coboundary_squares_to_unit_exact(z3_hopf):
    one = z3_hopf.functor.cat.one
    vals = {(0,): one.rational(2), (1,): one.rational(3),
            (2,): one.rational(Fraction(5, 7))}
    gam = Cochain(z3_hopf, 1, {k: [[v]] for k, v in vals.items()},
                  {k: [[v.inverse()]] for k, v in vals.items()})
    dd = coboundary(coboundary(gam))
    assert family_deviation(dd.fam, unit_cochain(z3_hopf, 3).fam) == ([], 0.0)


def test_weak_coboundary_only_quasi_invertible(flagship):
    one = flagship.functor.cat.one
    two = [[one.rational(2) if i == j else one.rational(0) for j in range(2)]
           for i in range(2)]
    half = [[one.rational(Fraction(1, 2)) if i == j else one.rational(0)
             for j in range(2)] for i in range(2)]
    gam = Cochain(flagship, 1,
                  {(0,): [[one.rational(1)]], (1,): two},
                  {(0,): [[one.rational(1)]], (1,): half})
    d = coboundary(gam)
    assert d.fam_inv is None
    with pytest.raises(TwistError):
        coboundary(d)


def test_twist_sweep_all_seed_pairs(fib_cat):
    from itertools import product as iproduct
    D = DimensionFunction((1, 2), False)
    algebras = {}
    for tag in ("canonical", 3, 7):
        F = (build_functor(fib_cat, D) if tag == "canonical"
             else build_functor(fib_cat, D, strategy="random", seed=tag))
        algebras[tag] = reconstruct(F)
    for x, y in iproduct(algebras, repeat=2):
        T = twist_between(algebras[x], algebras[y])
        assert verify_twist(algebras[x], algebras[y], T).passed, (x, y)
