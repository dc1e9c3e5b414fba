"""Exact linear algebra: elimination, kernels, and tensor index plumbing."""

from fractions import Fraction
from itertools import product
from math import gcd, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from wqhopf.linalg import (LinalgError, _packed_matmul, _scalar_matmul, dims,
                           eye, from_int_rows, inverse, is_identity, kron,
                           leg_conjugate, leg_matmul, leg_rmatmul, matmul,
                           matmul_chain, nullspace, permute_legs, rank,
                           reshape_vector, rref, smul, solve, transpose, zeros)
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
        assert img == zeros(len(M), 1, ONE)


@given(int_mats())
@settings(max_examples=80, deadline=None)
def test_solve_consistency(M):
    # A x = A e is always consistent; solution must reproduce the image
    nc = len(M[0])
    x = [[ONE.rational(i + 1)] for i in range(nc)]
    B = matmul(M, x)
    sol = solve(M, B)
    assert sol is not None
    assert matmul(M, sol) == B


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
    assert lhs == rhs


def test_permute_legs_swaps_kron_factors():
    A = _mat([[1, 2], [3, 4]])
    B = _mat([[0, 1], [1, 1], [2, 0]])
    # kron(A, B) has legs (row A, row B, col A, col B): swapping both pairs
    # of legs gives kron(B, A), and swapping again gives kron(A, B) back
    swapped = permute_legs(kron(A, B), (2, 3, 2, 2), (1, 0, 3, 2), 2)
    assert swapped == kron(B, A)
    assert permute_legs(swapped, (3, 2, 2, 2), (1, 0, 3, 2), 2) == kron(A, B)


@st.composite
def leg_tensors(draw):
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=6)))
    perm = tuple(draw(st.permutations(range(len(sizes)))))
    nrow_in = draw(st.integers(0, len(sizes)))
    nrow = draw(st.integers(0, len(sizes)))
    ncol = prod(sizes[nrow_in:])
    flat = list(range(prod(sizes)))
    M = [flat[r:r + ncol] for r in range(0, len(flat), ncol)]
    return M, sizes, perm, nrow_in, nrow


@given(leg_tensors())
@settings(max_examples=150, deadline=None)
def test_permute_legs_matches_index_formula(case):
    M, sizes, perm, nrow_in, nrow = case
    # leg t of the result is leg perm[t] of M: entry j of the result is
    # entry i of M with i[perm[t]] = j[t], both read row-major
    flat = [x for row in M for x in row]
    strides = [prod(sizes[k + 1:]) for k in range(len(sizes))]
    new = [sizes[t] for t in perm]
    want = [flat[sum(j[t] * strides[perm[t]] for t in range(len(perm)))]
            for j in product(*(range(d) for d in new))]
    got = permute_legs(M, sizes, perm, nrow)
    assert dims(got) == (prod(new[:nrow]), prod(new[nrow:]))
    assert [x for row in got for x in row] == want
    # the inverse permutation restores M, split as it was
    inv = tuple(perm.index(t) for t in range(len(perm)))
    assert permute_legs(got, new, inv, nrow_in) == M


def test_reshape_vector_row_major():
    v = [ONE.rational(k) for k in (1, 2, 3, 4, 5, 6)]
    M = reshape_vector(v, 2, 3)
    assert M[0][2] == ONE.rational(3)
    assert M[1][0] == ONE.rational(4)


def test_zeros_eye_shapes():
    Z = zeros(2, 3, ONE)
    assert len(Z) == 2 and len(Z[0]) == 3
    assert all(x.is_zero() for row in Z for x in row)
    assert is_identity(eye(4, ONE))
    assert smul(ONE.rational(2), eye(2, ONE)) == _mat([[2, 0], [0, 2]])


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
    assert leg_rmatmul(transpose(M), R, pre, post) == matmul(
        transpose(M), kron(kron(I[0], R), I[1]))
