"""Fusion rings and weak dimension functions."""

from itertools import product

import pytest

from wqhopf.catalog import cyclic_ring, fibonacci_ring, ising_ring
from wqhopf.fusion import (FusionError, canonical_weak_dimension,
                           is_weak_dimension_function, make_fusion_ring,
                           max_weak_dimension, minimize_dimension_function,
                           verify_fusion_ring, dual_orbits)


def test_catalog_rings_verify():
    for ring in (fibonacci_ring(), ising_ring(), cyclic_ring(2),
                 cyclic_ring(3), cyclic_ring(5)):
        assert verify_fusion_ring(ring).passed


def test_non_associative_ring_rejected():
    # tau*tau = 1 + tau but tau*1 multiplicity corrupted
    N = [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]
    N[1][0][1] = 2
    rep = verify_fusion_ring(make_fusion_ring(("1", "t"), (0, 1), N))
    assert not rep.passed


def test_canonical_values():
    assert canonical_weak_dimension(fibonacci_ring()).values == (1, 3)
    assert canonical_weak_dimension(ising_ring()).values == (1, 4, 3)
    assert canonical_weak_dimension(fibonacci_ring()).exact is False


def test_canonical_satisfies_inequalities():
    for ring in (fibonacci_ring(), ising_ring(), cyclic_ring(4)):
        D = canonical_weak_dimension(ring)
        assert is_weak_dimension_function(ring, D.values).passed


def test_max_dominates_and_verifies():
    for ring in (fibonacci_ring(), ising_ring()):
        D = max_weak_dimension(ring)
        assert is_weak_dimension_function(ring, D.values).passed


def test_cyclic_rings_exact_at_ones():
    for n in (2, 3, 4):
        ring = cyclic_ring(n)
        D = minimize_dimension_function(ring, 3)
        assert D.values == (1,) * n
        assert D.exact is True


def test_minimizer_values():
    assert minimize_dimension_function(fibonacci_ring(), 2).values == (1, 2)
    assert minimize_dimension_function(ising_ring(), 4).values == (1, 2, 1)


def test_minimizer_optimal_by_enumeration():
    # independent exhaustive search with the predicate as the only oracle
    for ring, bound in ((fibonacci_ring(), 4), (ising_ring(), 4)):
        feasible = []
        for values in product(range(1, bound + 1), repeat=ring.rank - 1):
            cand = (1,) + values
            if is_weak_dimension_function(ring, cand).passed:
                feasible.append(cand)
        assert feasible
        best = min(sum(v * v for v in c) for c in feasible)
        got = minimize_dimension_function(ring, bound)
        assert sum(v * v for v in got.values) == best


def test_weak_inequality_failure_witnessed():
    rep = is_weak_dimension_function(fibonacci_ring(), (1, 1))
    assert not rep.passed
    assert (1, 1) in rep["dim-weak-inequality"].witnesses


def test_duality_constraint():
    ring = cyclic_ring(3)  # dual of 1 is 2
    rep = is_weak_dimension_function(ring, (1, 2, 3))
    assert not rep["dim-duality"].passed


def test_unreachable_bound_raises():
    with pytest.raises(FusionError):
        minimize_dimension_function(fibonacci_ring(), 1)


def test_dual_orbits_partition():
    ring = cyclic_ring(5)
    orbits = dual_orbits(ring)
    seen = sorted(a for orb in orbits for a in orb)
    assert seen == list(range(5))
    for orb in orbits:
        assert all(ring.dual[a] in orb for a in orb)
