"""Independent pentagon/hexagon solving on the rank-2 and rank-3 rings.

The solver assembles its own polynomial systems, so agreement with the
word-level verifiers is a genuine cross-check, not a tautology.
"""

import pytest

from wqhopf.catalog import builtin, fibonacci_ring, ising_ring, svec_ring
from wqhopf.category import make_category, verify_category
from wqhopf.fusion import make_fusion_ring
from wqhopf.scalars import Cyc
from wqhopf.solver import (SolverError, braided_solutions,
                           solve_pentagon_small)


def test_fibonacci_pentagon_two_gauge_classes():
    sols = solve_pentagon_small(fibonacci_ring(), 20)
    assert len(sols) == 2
    diag = sorted(F[(1, 1, 1, 1)][0][0].embed().real for F in sols)
    # 1/phi and -phi: the two roots of x^2 + x - 1 = 0 scaled by the gauge
    assert abs(diag[0] + 1.6180339887) < 1e-9
    assert abs(diag[1] - 0.6180339887) < 1e-9


def test_fibonacci_f_entry_minimal_polynomial():
    for F in solve_pentagon_small(fibonacci_ring(), 20):
        a = F[(1, 1, 1, 1)][0][0]
        assert a * a + a - Cyc.rational(1) == Cyc.rational(0)


def test_fibonacci_braided_solution_count():
    sols = braided_solutions(fibonacci_ring(), 20)
    assert len(sols) == 4


def test_ising_braided_solution_count():
    sols = braided_solutions(ising_ring(), 16)
    assert len(sols) == 8


def test_solutions_pass_word_level_verifiers():
    ring = fibonacci_ring()
    for sol in braided_solutions(ring, 20):
        cat = make_category(ring, sol["F"], sol["R"], name="solver")
        rep = verify_category(cat)
        assert rep.passed, [c.id for c in rep.failures()]


def test_ising_solutions_pass_word_level_verifiers():
    ring = ising_ring()
    for sol in braided_solutions(ring, 16):
        cat = make_category(ring, sol["F"], sol["R"], name="solver")
        assert verify_category(cat).passed


def test_catalog_fibonacci_is_a_solver_solution():
    cat = builtin("fibonacci").category
    sols = braided_solutions(fibonacci_ring(), 20)
    hits = [s for s in sols
            if s["F"] == cat.F and s["R"] == cat.R]
    assert len(hits) == 1


def test_svec_closed_form_agrees_with_solver():
    ring = svec_ring()
    sols = braided_solutions(ring, 4)
    cat = builtin("svec").category
    assert any(s["R"] == cat.R for s in sols)


def test_multiplicity_guard():
    # a two-label ring with N = 2 in one channel is out of scope
    N = [[[1, 0], [0, 1]], [[0, 1], [1, 2]]]
    ring = make_fusion_ring(("1", "x"), (0, 1), N)
    with pytest.raises(SolverError):
        solve_pentagon_small(ring, 4)
