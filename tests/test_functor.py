"""Functor layer: tensorators, sections, duality solve, seeded mixes."""

from wqhopf.catalog import builtin
from wqhopf.category import leaf, pair
from wqhopf.functor import (_offsets, _pair_rows, build_functor, tensorator,
                            verify_duality, verify_functor)
from wqhopf.fusion import (DimensionFunction, canonical_weak_dimension,
                           minimize_dimension_function)
from wqhopf.linalg import inverse, is_identity, matmul, rank


def _functors(cat, D):
    yield build_functor(cat, D)
    yield build_functor(cat, D, strategy="random", seed=11)


def test_sections_split_every_pair(fib_cat):
    D = canonical_weak_dimension(fib_cat.ring)
    for F in _functors(fib_cat, D):
        for (a, b), c in F.c.items():
            rows = _pair_rows(fib_cat.ring, D.values, a, b)
            assert len(c) == rows and len(c[0]) == D[a] * D[b]
            assert is_identity(matmul(c, F.c_inv[(a, b)]))


def test_projector_idempotent(fib_cat):
    D = canonical_weak_dimension(fib_cat.ring)
    F = build_functor(fib_cat, D, strategy="random", seed=3)
    for (a, b), c in F.c.items():
        P = matmul(F.c_inv[(a, b)], c)
        assert matmul(P, P) == P
        assert rank(P) == len(c)


def test_exact_dimension_makes_sections_invertible(z3_cat):
    D = DimensionFunction((1, 1, 1), exact=True)
    for F in _functors(z3_cat, D):
        for (a, b), c in F.c.items():
            assert len(c) == len(c[0])
            assert is_identity(matmul(F.c_inv[(a, b)], c))


def test_unit_pairs_stay_projections(fib_cat):
    D = minimize_dimension_function(fib_cat.ring, 2)
    F = build_functor(fib_cat, D, strategy="random", seed=7)
    for b in range(fib_cat.ring.rank):
        for key in ((0, b), (b, 0)):
            c = F.c[key]
            assert all(c[i][j] == (F.cat.one.rational(1) if i == j
                                   else F.cat.one.rational(0))
                       for i in range(len(c)) for j in range(len(c[0])))


def test_delta_unit_projector_shared_across_strategies(fib_cat):
    D = minimize_dimension_function(fib_cat.ring, 2)
    base = build_functor(fib_cat, D)
    for seed in (3, 7, 11):
        F = build_functor(fib_cat, D, strategy="random", seed=seed)
        for key in base.c:
            P0 = matmul(base.c_inv[key], base.c[key])
            P1 = matmul(F.c_inv[key], F.c[key])
            assert P0 == P1


def test_seeding_deterministic(ising_cat):
    D = minimize_dimension_function(ising_cat.ring, 4)
    F1 = build_functor(ising_cat, D, strategy="random", seed=5)
    F2 = build_functor(ising_cat, D, strategy="random", seed=5)
    assert F1.c == F2.c and F1.d == F2.d
    F3 = build_functor(ising_cat, D, strategy="random", seed=6)
    assert F3.c != F1.c


def test_functor_verifiers_all_catalog():
    for name, kw in (("vec_zn", {"n": 2, "q": 1}), ("vec_zn", {"n": 3, "q": 1}),
                     ("svec", {}), ("fibonacci", {}), ("ising", {})):
        cat = builtin(name, **kw).category
        D = minimize_dimension_function(cat.ring, 4)
        for F in _functors(cat, D):
            assert verify_functor(F).passed
            assert verify_duality(F).passed


def test_word_tensorator_splits(fib_cat):
    D = minimize_dimension_function(fib_cat.ring, 2)
    F = build_functor(fib_cat, D, strategy="random", seed=3)
    w1 = pair(leaf(1), leaf(1))
    w2 = leaf(1)
    c, ci = tensorator(F, w1, w2)
    assert is_identity(matmul(c, ci))
    assert len(c[0]) == _offsets(F, w1)[1] * D[1]
    assert len(c) == _offsets(F, pair(w1, w2))[1]


def test_duality_iso_invertible(ising_cat):
    D = minimize_dimension_function(ising_cat.ring, 4)
    F = build_functor(ising_cat, D)
    for a in range(ising_cat.ring.rank):
        d = F.d[a]
        assert len(d) == D[ising_cat.ring.dual[a]] and len(d[0]) == D[a]
        inverse(d)  # raises if singular
