"""Dense linear algebra over scalar objects (exact cyclotomic or complex).

Matrices are plain lists of lists of scalars; every routine is duck-typed
over the scalar interface (+, -, *, /, is_zero(tol), embed).  Pivoting is
exact for the cyclotomic backend and magnitude-based for the complex one.
"""

from __future__ import annotations

from .scalars import Approx, from_int_like, one_like, zero_like


class LinalgError(ValueError):
    pass


def dims(M):
    return len(M), len(M[0]) if M else 0


def zeros(r, c, like):
    z = zero_like(like)
    return [[z for _ in range(c)] for _ in range(r)]


def eye(n, like):
    z, o = zero_like(like), one_like(like)
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def from_int_rows(rows, like):
    return [[from_int_like(like, v) for v in row] for row in rows]


def copy_mat(M):
    return [row[:] for row in M]


def transpose(M):
    r, c = dims(M)
    return [[M[i][j] for i in range(r)] for j in range(c)]


def madd(A, B):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def msub(A, B):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def smul(s, A):
    return [[s * x for x in row] for row in A]


def matmul(A, B):
    ra, ca = dims(A)
    rb, cb = dims(B)
    if ca != rb:
        raise LinalgError(f"shape mismatch {ra}x{ca} @ {rb}x{cb}")
    if ra == 0 or cb == 0:
        return [[] for _ in range(ra)]
    z = zero_like(A[0][0] if ca else B[0][0])
    Bt = transpose(B)
    out = []
    for row in A:
        nz = [(k, x) for k, x in enumerate(row) if not x.is_zero()]
        orow = []
        for col in Bt:
            acc = z
            for k, x in nz:
                y = col[k]
                if not y.is_zero():
                    acc = acc + x * y
            orow.append(acc)
        out.append(orow)
    return out


def matmul_chain(*Ms):
    out = Ms[0]
    for M in Ms[1:]:
        out = matmul(out, M)
    return out


def kron(A, B):
    ra, ca = dims(A)
    rb, cb = dims(B)
    out = []
    for i in range(ra):
        for k in range(rb):
            row = []
            for j in range(ca):
                a = A[i][j]
                if a.is_zero():
                    row.extend(zeros(1, cb, a)[0])
                else:
                    row.extend(a * B[k][l] for l in range(cb))
            out.append(row)
    return out


def flip_matrix(p, q, like):
    """The swap K^p (x) K^q -> K^q (x) K^p, e_i (x) e_j -> e_j (x) e_i."""
    out = zeros(p * q, p * q, like)
    o = one_like(like)
    for i in range(p):
        for j in range(q):
            out[j * p + i][i * q + j] = o
    return out


def deviation(A, B, tol=0.0):
    """Compare two matrices entrywise; returns (differs, worst).

    differs is the verdict: some entry of A - B fails the scalar's own
    is_zero(tol), which is an exact zero test for Cyc and |x| <= tol for
    Approx, or the shapes differ.  worst is a float diagnostic only: the
    largest embedded |A - B| over the entries that are not exactly zero.  An
    exact difference below float resolution therefore differs and reads 0.0.
    """
    differs, worst = dims(A) != dims(B), 0.0
    for ra, rb in zip(A, B):
        for x, y in zip(ra, rb):
            d = x - y
            if not d.is_zero():
                worst = max(worst, abs(d.embed()))
                differs = differs or not d.is_zero(tol)
    return differs, worst


def is_identity(M, tol=0.0):
    r, c = dims(M)
    return r == c and not deviation(M, eye(r, M[0][0] if r else None), tol)[0]


def max_deviation(M):
    """Largest entry magnitude under the complex embedding (diagnostic only)."""
    return max((abs(x.embed()) for row in M for x in row), default=0.0)


def _pivot(rows, r, c, nr, tol):
    best, best_mag = None, tol
    for i in range(r, nr):
        x = rows[i][c]
        if isinstance(x, Approx):
            m = abs(x.z)
            if m > best_mag:
                best, best_mag = i, m
        elif not x.is_zero():
            return i
    return best


def rref(M, tol=0.0):
    """Reduced row echelon form; returns (R, pivot column list)."""
    rows = copy_mat(M)
    nr, nc = dims(rows)
    pivots = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        p = _pivot(rows, r, c, nr, tol)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nr):
            if i != r and not rows[i][c].is_zero(tol):
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(M, tol=0.0):
    if not M or not M[0]:
        return 0
    return len(rref(M, tol)[1])


def solve(A, B, tol=0.0):
    """Solve A X = B (B a matrix of right-hand columns).

    Returns one solution (free variables set to zero) or None if inconsistent.
    """
    nr, nc = dims(A)
    nb = dims(B)[1]
    aug = [A[i][:] + B[i][:] for i in range(nr)]
    R, pivots = rref(aug, tol)
    for i in range(len(pivots), nr):
        if any(not R[i][nc + j].is_zero(tol) for j in range(nb)):
            return None
    if any(p >= nc for p in pivots):
        return None
    like = A[0][0] if nr and nc else B[0][0]
    X = zeros(nc, nb, like)
    for i, p in enumerate(pivots):
        X[p] = R[i][nc:]
    return X


def inverse(M, tol=0.0):
    n, c = dims(M)
    if n != c:
        raise LinalgError(f"inverse of non-square {n}x{c}")
    X = solve(M, eye(n, M[0][0]), tol)
    if X is None:
        raise LinalgError("matrix is singular")
    return X


def nullspace(M, tol=0.0):
    """Basis of the right kernel, returned as a list of column vectors."""
    nr, nc = dims(M)
    if nc == 0:
        return []
    R, pivots = rref(M, tol)
    like = M[0][0]
    z, o = zero_like(like), one_like(like)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
        v = [z] * nc
        v[f] = o
        for i, p in enumerate(pivots):
            v[p] = -R[i][f]
        basis.append(v)
    return basis


def trace(M):
    n, c = dims(M)
    if n != c:
        raise LinalgError(f"trace of non-square {n}x{c}")
    acc = zero_like(M[0][0]) if n else None
    for i in range(n):
        acc = acc + M[i][i]
    return acc


def reshape_vector(v, r, c):
    """Row-major reshape of a flat list of length r*c into an r x c matrix."""
    if len(v) != r * c:
        raise LinalgError(f"cannot reshape length {len(v)} into {r}x{c}")
    return [v[i * c:(i + 1) * c] for i in range(r)]


def mat_to_json(M):
    from .scalars import scalar_to_json
    return [[scalar_to_json(x) for x in row] for row in M]


def mat_from_json(rows):
    from .scalars import scalar_from_json
    return [[scalar_from_json(x) for x in row] for row in rows]
