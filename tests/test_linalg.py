"""Exact linear algebra: elimination, kernels, and tensor index plumbing."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from wqhopf.linalg import (LinalgError, _packed_matmul, _scalar_matmul, dims,
                           eye, flip_matrix, from_int_rows, inverse,
                           is_identity, kron, leg_conjugate, leg_matmul,
                           matmul, matmul_chain, max_deviation, msub,
                           nullspace, rank, reshape_vector, rref, smul, solve,
                           transpose, zeros)
from wqhopf.scalars import Cyc, euler_phi

import pytest

ONE = Cyc.rational(1)

entries = st.integers(min_value=-3, max_value=3)


def _mat(rows):
    return from_int_rows(rows, ONE)


@st.composite
def int_mats(draw, max_n=4):
    r = draw(st.integers(1, max_n))
    c = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return _mat(rows)


@given(int_mats())
@settings(max_examples=80, deadline=None)
def test_rank_bounds_and_transpose(M):
    r = rank(M)
    assert 0 <= r <= min(len(M), len(M[0]))
    assert rank(transpose(M)) == r


@given(int_mats())
@settings(max_examples=80, deadline=None)
def test_rank_nullity(M):
    nc = len(M[0])
    ker = nullspace(M)
    assert rank(M) + len(ker) == nc
    for v in ker:
        img = matmul(M, [[x] for x in v])
        assert max_deviation(img) == 0.0


@given(int_mats())
@settings(max_examples=80, deadline=None)
def test_solve_consistency(M):
    # A x = A e is always consistent; solution must reproduce the image
    nc = len(M[0])
    x = [[ONE.rational(i + 1)] for i in range(nc)]
    B = matmul(M, x)
    sol = solve(M, B)
    assert sol is not None
    assert max_deviation(msub(matmul(M, sol), B)) == 0.0


def test_solve_inconsistent_returns_none():
    A = _mat([[1, 0], [1, 0]])
    B = _mat([[1], [2]])
    assert solve(A, B) is None


def test_inverse_round_trip():
    M = _mat([[2, 1], [1, 1]])
    assert is_identity(matmul(M, inverse(M)))
    with pytest.raises(LinalgError):
        inverse(_mat([[1, 2], [2, 4]]))


def test_rref_pivots_are_unit_columns():
    R, piv = rref(_mat([[1, 2, 3], [2, 4, 7]]))
    for k, c in enumerate(piv):
        col = [R[i][c] for i in range(len(R))]
        assert col[k] == ONE
        assert all(x.is_zero() for i, x in enumerate(col) if i != k)


@given(int_mats(max_n=3), int_mats(max_n=3))
@settings(max_examples=60, deadline=None)
def test_kron_mixed_product(A, B):
    # (A kron B)(A' kron B') = AA' kron BB' with square factors
    n, m = len(A[0]), len(B[0])
    A2 = [row[:] for row in A][: len(A)]
    if len(A) != n or len(B) != m:
        return
    lhs = matmul(kron(A, B), kron(A, B))
    rhs = kron(matmul(A, A), matmul(B, B))
    assert max_deviation(msub(lhs, rhs)) == 0.0


def test_flip_matrix_swaps_factors():
    A = _mat([[1, 2], [3, 4]])
    B = _mat([[0, 1], [1, 1], [2, 0]])
    # flip on the codomain (2 kron 3) against flip on the domain (2 kron 2)
    lhs = matmul(flip_matrix(2, 3, ONE), kron(A, B))
    rhs = matmul(kron(B, A), flip_matrix(2, 2, ONE))
    assert max_deviation(msub(lhs, rhs)) == 0.0
    assert is_identity(matmul(flip_matrix(3, 2, ONE), flip_matrix(2, 3, ONE)))


def test_reshape_vector_row_major():
    v = [ONE.rational(k) for k in (1, 2, 3, 4, 5, 6)]
    M = reshape_vector(v, 2, 3)
    assert M[0][2] == ONE.rational(3)
    assert M[1][0] == ONE.rational(4)


def test_zeros_eye_shapes():
    Z = zeros(2, 3, ONE)
    assert len(Z) == 2 and len(Z[0]) == 3
    assert max_deviation(Z) == 0.0
    assert is_identity(eye(4, ONE))
    assert max_deviation(msub(smul(ONE.rational(2), eye(2, ONE)),
                              _mat([[2, 0], [0, 2]]))) == 0.0


# pairwise coprime denominators, the largest far below float resolution
DENOMINATORS = (1, 7, 10 ** 400, 3 ** 200, 2 ** 521 - 1)


@st.composite
def kernel_operands(draw):
    """Two operands of 1x1 to 6x6 shapes whose entries mix the conductors
    and denominators drawn for the example, with zero rows and columns."""
    conductors = draw(st.lists(st.sampled_from((1, 3, 5, 8, 16)),
                               min_size=1, max_size=3, unique=True))
    denominators = draw(st.lists(st.sampled_from(DENOMINATORS),
                                 min_size=1, max_size=3, unique=True))

    def scalar():
        n = draw(st.sampled_from(conductors))
        if draw(st.integers(0, 3)) == 0:
            return Cyc(n, [0])
        num = draw(st.lists(st.integers(-60, 60), min_size=euler_phi(n),
                            max_size=euler_phi(n)))
        den = draw(st.sampled_from(denominators))
        return Cyc(n, [Fraction(v, den) for v in num])

    r, k, c = (draw(st.integers(1, 6)) for _ in range(3))
    A = [[scalar() for _ in range(k)] for _ in range(r)]
    B = [[scalar() for _ in range(c)] for _ in range(k)]
    zero = Cyc.rational(0)
    if draw(st.booleans()):
        A[draw(st.integers(0, r - 1))] = [zero] * k
    if draw(st.booleans()):
        j = draw(st.integers(0, c - 1))
        for row in B:
            row[j] = zero
    return A, B


def _lowest_terms(x):
    return (len(x.num) == euler_phi(x.n) and x.den > 0
            and gcd(*x.num, x.den) == 1
            and (x.n == 1 or not x.is_rational))


@given(kernel_operands())
@settings(max_examples=100, deadline=None)
def test_packed_matmul_matches_scalar_loop(operands):
    A, B = operands
    want = _scalar_matmul(A, B)
    for got in (_packed_matmul(A, B), matmul(A, B)):
        assert dims(got) == dims(want)
        assert all(x == y for rg, rw in zip(got, want)
                   for x, y in zip(rg, rw))
    # lowest terms, and a rational entry at conductor 1
    assert all(_lowest_terms(x) for row in _packed_matmul(A, B) for x in row)


@given(int_mats(max_n=4), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_leg_products_match_kronecker(L, pre, post, width):
    r, c = dims(L)
    n = pre * c * post
    M = _mat([[(3 * i + j) % 7 - 3 for j in range(width)] for i in range(n)])
    I = eye(pre, ONE), eye(post, ONE)
    big = kron(kron(I[0], L), I[1])
    assert leg_matmul(L, M, pre, post) == matmul(big, M)
    S = _mat([[(i * n + j) % 5 - 2 for j in range(n)] for i in range(n)])
    R = transpose(L)
    assert leg_conjugate(L, S, R, pre, post) == matmul_chain(
        big, S, kron(kron(I[0], R), I[1]))
