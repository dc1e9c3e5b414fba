import pytest

from wqhopf.catalog import builtin
from wqhopf.fusion import DimensionFunction, minimize_dimension_function
from wqhopf.functor import build_functor
from wqhopf.hopf import reconstruct


@pytest.fixture(scope="session")
def fib_cat():
    return builtin("fibonacci").category


@pytest.fixture(scope="session")
def ising_cat():
    return builtin("ising").category


@pytest.fixture(scope="session")
def z3_cat():
    return builtin("vec_zn", n=3, q=1).category


@pytest.fixture(scope="session")
def flagship(fib_cat):
    """Fibonacci at the minimal dimension vector (1, 2), canonical functor."""
    D = minimize_dimension_function(fib_cat.ring, 2)
    return reconstruct(build_functor(fib_cat, D))


@pytest.fixture(scope="session")
def flagship_seed7(fib_cat):
    D = minimize_dimension_function(fib_cat.ring, 2)
    return reconstruct(build_functor(fib_cat, D, strategy="random", seed=7))


@pytest.fixture(scope="session")
def ising_hopf(ising_cat):
    D = minimize_dimension_function(ising_cat.ring, 4)
    return reconstruct(build_functor(ising_cat, D))


@pytest.fixture(scope="session")
def z2_weak():
    """vec_zn(2, 1) at D = (1, 2): the smallest weak reconstruction, dim 5."""
    cat = builtin("vec_zn", n=2, q=1).category
    return reconstruct(build_functor(cat, DimensionFunction((1, 2), False)))


@pytest.fixture(scope="session")
def z3_hopf(z3_cat):
    D = DimensionFunction((1, 1, 1), exact=True)
    return reconstruct(build_functor(z3_cat, D))
