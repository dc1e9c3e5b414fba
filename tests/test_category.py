"""Skeletal category layer: words, structural morphisms, coherence checks."""

import pytest

from wqhopf.catalog import builtin
from wqhopf.category import (CategoryError, associator, associator_inv,
                             braiding, braiding_inv, coev, compose,
                             compose_path, elementary_morphisms,
                             ev, gauge_transform, identity_morphism,
                             is_identity_morphism, leaf, make_category,
                             morphisms_equal, pair, qdim,
                             tensor_morphisms, trace, trace_categorical,
                             trees, twist_morphism, twist_inv_morphism,
                             verify_category, verify_pentagon, word_str)
from wqhopf.scalars import Cyc


def _fib():
    return builtin("fibonacci").category


def test_trees_enumeration_matches_fusion_counts(fib_cat):
    ring = fib_cat.ring
    w = pair(leaf(1), pair(leaf(1), leaf(1)))
    # tau*(tau*tau) contains 1 once and tau twice
    assert len(trees(ring, 0, w)) == 1
    assert len(trees(ring, 1, w)) == 2
    assert word_str(ring, w) == "(tau*(tau*tau))"


def test_associator_is_isomorphism(fib_cat):
    X, Y, Z = leaf(1), pair(leaf(1), leaf(1)), leaf(1)
    a = associator(fib_cat, X, Y, Z)
    ai = associator_inv(fib_cat, X, Y, Z)
    assert is_identity_morphism(compose(ai, a))
    assert is_identity_morphism(compose(a, ai))


def test_pentagon_on_words(fib_cat):
    # two recoupling routes tau*(tau*(tau*tau)) -> ((tau*tau)*tau)*tau
    t = leaf(1)
    one_ = identity_morphism(fib_cat.ring, t, fib_cat.one)
    lhs = compose_path(
        tensor_morphisms(one_, associator(fib_cat, t, t, t)),
        associator(fib_cat, t, pair(t, t), t),
        tensor_morphisms(associator(fib_cat, t, t, t), one_),
    )
    rhs = compose_path(
        associator(fib_cat, t, t, pair(t, t)),
        associator(fib_cat, pair(t, t), t, t),
    )
    assert morphisms_equal(lhs, rhs)


def test_braiding_inverse(fib_cat):
    X, Y = leaf(1), pair(leaf(1), leaf(1))
    b = braiding(fib_cat, X, Y)
    bi = braiding_inv(fib_cat, X, Y)
    assert is_identity_morphism(compose(bi, b))


def test_snake_composites(ising_cat):
    from wqhopf.category import lunit_inv, runit
    ring, one = ising_cat.ring, ising_cat.one
    for a in range(ring.rank):
        ab = ring.dual[a]
        ida = identity_morphism(ring, leaf(a), one)
        snake = compose_path(
            lunit_inv(ring, leaf(a), one),
            tensor_morphisms(coev(ising_cat, a), ida),
            associator_inv(ising_cat, leaf(a), leaf(ab), leaf(a)),
            tensor_morphisms(ida, ev(ising_cat, a)),
            runit(ring, leaf(a), one),
        )
        assert is_identity_morphism(snake)


def test_twist_morphism_inverse(fib_cat):
    w = pair(leaf(1), leaf(1))
    assert is_identity_morphism(compose(twist_inv_morphism(fib_cat, w),
                                        twist_morphism(fib_cat, w)))


def test_elementary_resolution(fib_cat):
    # the rank-one maps w -> y assemble to a resolution of the identity of w
    ring, one = fib_cat.ring, fib_cat.one
    w = pair(leaf(1), leaf(1))
    total = None
    for y in range(ring.rank):
        for pi in elementary_morphisms(ring, w, leaf(y), one):
            iota = elementary_transpose(pi)
            term = compose(iota, pi)
            total = term if total is None else _msum(total, term)
    assert is_identity_morphism(total)


def elementary_transpose(f):
    from wqhopf.category import Morphism
    from wqhopf.linalg import transpose as mat_t
    return Morphism(f.ring, f.cod, f.dom,
                    {z: mat_t(M) for z, M in f.blocks.items()}, f.one)


def _msum(f, g):
    from wqhopf.category import Morphism
    from wqhopf.linalg import madd
    out = dict(f.blocks)
    for z, M in g.blocks.items():
        out[z] = madd(out[z], M) if z in out else M
    return Morphism(f.ring, f.dom, f.cod, out, f.one)


def test_quantum_dimensions(fib_cat, ising_cat):
    # golden ratio for tau, sqrt(2)-free ising convention: d(sigma)^2 = 2
    phi = qdim(fib_cat, 1)
    assert phi * phi == phi + Cyc.rational(1)
    s = qdim(ising_cat, 1)
    assert s * s == Cyc.rational(2)
    assert qdim(ising_cat, 2) ** 2 == Cyc.rational(1)


def test_two_trace_routes_agree(fib_cat):
    f = identity_morphism(fib_cat.ring, pair(leaf(1), leaf(1)), fib_cat.one)
    assert trace(fib_cat, f) == trace_categorical(fib_cat, f)


def test_gauge_transform_preserves_coherence(fib_cat):
    u = {(1, 1, 0): Cyc.rational(3), (1, 1, 1): Cyc.rational(-2)}
    gauged = gauge_transform(fib_cat, u)
    assert verify_category(gauged).passed
    assert gauged.F != fib_cat.F


def test_single_entry_perturbation_breaks_pentagon(fib_cat):
    F = {k: [row[:] for row in M] for k, M in fib_cat.F.items()}
    F[(1, 1, 1, 1)][0][0] = F[(1, 1, 1, 1)][0][0] + Cyc.rational(1)
    broken = make_category(fib_cat.ring, F, name="broken")
    assert not verify_pentagon(broken).passed


def test_unit_f_tables_must_be_identity(fib_cat):
    F = {k: [row[:] for row in M] for k, M in fib_cat.F.items()}
    F[(0, 1, 1, 0)] = [[Cyc.rational(2)]]
    with pytest.raises(CategoryError):
        make_category(fib_cat.ring, F)


def test_braided_flag(fib_cat):
    assert fib_cat.braided
    silent = make_category(fib_cat.ring, fib_cat.F, None, None)
    assert not silent.braided
    assert verify_category(silent).passed  # no hexagon/ribbon sections
