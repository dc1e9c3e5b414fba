"""Dense linear algebra over scalar objects (exact cyclotomic or complex).

Matrices are plain lists of lists of scalars; every routine is duck-typed
over the scalar interface (+, -, *, /, is_zero(tol), embed).  Pivoting is
exact for the cyclotomic backend and magnitude-based for the complex one.
"""

from __future__ import annotations

from math import lcm, prod
from operator import mul

from .scalars import (_CYC_ZERO, Approx, Cyc, _cyc, _fold_rows, euler_phi,
                      from_int_like, one_like, zero_like)


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
    """A @ B: the packed integer kernel for exact products with at least
    PACKED_MIN scalar multiplications, the scalar loop otherwise."""
    ra, ca = dims(A)
    rb, cb = dims(B)
    if ca != rb:
        raise LinalgError(f"shape mismatch {ra}x{ca} @ {rb}x{cb}")
    if ra == 0 or cb == 0:
        return [[] for _ in range(ra)]
    if ra * ca * cb >= PACKED_MIN and _all_exact(A) and _all_exact(B):
        return _packed_matmul(A, B)
    return _scalar_matmul(A, B)


# Products with fewer scalar multiplications take the scalar loop, where the
# packed set-up costs more than it saves.  Timed on random operands (CPython
# 3.11.7, 2-vCPU Xeon): 1x1 takes 8-14 us in the scalar loop and 20-27 us
# packed; 2x2 @ 2x2 breaks even (48 us each at conductor 1, 88 against 97 us
# on sparse conductor-16 entries); from 3x3 @ 3x3 on the packed kernel wins
# 1.3-4x.  Certifying the catalog runs about 1200 products, 1072 of them
# 1x1 and all but three below this size.
PACKED_MIN = 9


def _all_exact(M):
    return all(type(x) is Cyc for row in M for x in row)


def _packed_matmul(A, B):
    """A @ B over Q(zeta_m) by Kronecker substitution.

    Both operands are lifted to m, the lcm of their entries' conductors, and
    written over one integer denominator each (da for A, db for B), so entry
    (i, k) of A is a polynomial a_ik(x) = sum_j alpha_ikj x^j of degree below
    phi = phi(m) with integer alpha_ikj, |alpha_ikj| <= maxA, and likewise
    b_kl(x) with |beta_klj| <= maxB.  Each entry is packed into the one
    Python int a_ik(2^s), so a dot product is a single C-level sum of int
    products: sum_k a_ik(2^s) b_kl(2^s) = g(2^s), where evaluation at 2^s
    is a ring map Z[x] -> Z and g = sum_k a_ik b_kl.

    Every slot stays below 2^(s-1).  The coefficient g_t of x^t, t <= 2 phi
    - 2, is sum_k sum_(j+j'=t) alpha_ikj beta_klj': for each of the ca
    values of k there are at most phi pairs (j, j'), so |g_t| <= ca phi maxA
    maxB < 2^L with L = bit_length(ca phi maxA maxB) = s - 2, and |g_t| <
    2^(s-2) < 2^(s-1).  An integer polynomial whose coefficients lie in
    (-2^(s-1), 2^(s-1)) is recovered from its value at 2^s as balanced
    digits: adding the bias sum_t 2^(s-1) 2^(s t) turns digit t into g_t +
    2^(s-1), which lies in [0, 2^s), so it is read off by shift and mask.

    The 2 phi - 1 digits are folded by the integer rows of zeta_m^k, phi <=
    k <= 2 phi - 2, and the entry is built in lowest terms over da db; a
    rational entry goes to conductor 1.
    """
    ua = {id(x): x for row in A for x in row}
    ub = {id(x): x for row in B for x in row}
    m = lcm(*{x.n for x in ua.values()}, *{x.n for x in ub.values()})
    phi = euler_phi(m)
    ca = len(B)
    ia, da, maxa = _integer_coords(ua, m)
    ib, db, maxb = _integer_coords(ub, m)
    s = (ca * phi * maxa * maxb).bit_length() + 2
    ia = {k: _pack(c, s) * f for k, (c, f) in ia.items()}
    ib = {k: _pack(c, s) * f for k, (c, f) in ib.items()}
    pa = [[ia[id(x)] for x in row] for row in A]
    pb = [[ib[id(x)] for x in col] for col in zip(*B)]
    den = da * db
    nslot = 2 * phi - 1
    mask, half = (1 << s) - 1, 1 << (s - 1)
    bias = sum(half << (s * t) for t in range(nslot))
    shifts = [s * t for t in range(nslot)]
    folds = list(enumerate(_fold_rows(m), phi))
    out = []
    for row in pa:
        orow = []
        for col in pb:
            v = sum(map(mul, row, col))
            if not v:
                orow.append(_CYC_ZERO)
                continue
            if phi == 1:
                orow.append(_cyc(1, (v,), den))
                continue
            v += bias
            g = [((v >> sh) & mask) - half for sh in shifts]
            for k, fold in folds:
                t = g[k]
                if t:
                    for j, z in fold:
                        g[j] += t * z
            if any(g[1:phi]):
                orow.append(_cyc(m, tuple(g[:phi]), den))
            else:
                orow.append(_cyc(1, (g[0],), den))
        out.append(orow)
    return out


def _integer_coords(entries, m):
    """The entries, a dict from id to scalar, in Q(zeta_m) over their least
    common denominator: (dict from id to (integer coordinates, factor from
    the entry's own denominator to the common one), common denominator,
    largest |coordinate| over it).  Matrices share entry objects (zeros,
    copied blocks), so each object is converted once."""
    den = lcm(*{x.den for x in entries.values()})
    pad = (0,) * (euler_phi(m) - 1)
    out, top = {}, 0
    for k, x in entries.items():
        num = x.num
        if x.n != m:
            num = num + pad if x.n == 1 else x._mapped(m, m // x.n)
        f = den // x.den
        top = max(top, max(max(num), -min(num)) * f)
        out[k] = num, f
    return out, den, top


def _pack(coords, s):
    """The polynomial with these coefficients evaluated at 2^s."""
    v = 0
    for c in reversed(coords):
        v = (v << s) + c
    return v


def _scalar_matmul(A, B):
    """A @ B one scalar product at a time: the Approx path, and the
    reference the packed kernel is tested against."""
    z = zero_like(A[0][0])
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


def leg_matmul(L, M, pre, post):
    """(1_pre (x) L (x) 1_post) @ M without forming the Kronecker product.

    With L of shape r x c, row (p * c + k) * post + q of M lies on leg
    index k.  Each pre-block of M, reshaped to c rows of post * width
    entries, is laid beside the others, so one product with L does them
    all; row (p * r + i) * post + q of the result is read back out of it.
    """
    r, c = dims(L)
    if len(M) != pre * c * post:
        raise LinalgError(f"{len(M)} rows do not split as {pre} x {c} x {post}")
    width = len(M[0])
    wide = [[x for p in range(pre) for q in range(post)
             for x in M[(p * c + k) * post + q]] for k in range(c)]
    prod = matmul(L, wide)
    return [prod[i][(p * post + q) * width:(p * post + q + 1) * width]
            for p in range(pre) for i in range(r) for q in range(post)]


def leg_rmatmul(M, R, pre, post):
    """M @ (1_pre (x) R (x) 1_post), through transposes: (M (1 (x) R (x)
    1))^T = (1 (x) R^T (x) 1) M^T."""
    return transpose(leg_matmul(transpose(R), transpose(M), pre, post))


def leg_conjugate(L, M, R, pre, post):
    """(1_pre (x) L (x) 1_post) @ M @ (1_pre (x) R (x) 1_post)."""
    return leg_rmatmul(leg_matmul(L, M, pre, post), R, pre, post)


def permute_legs(M, dims, perm, nrow):
    """M read as a tensor with legs of sizes dims, row legs first, with its
    legs reordered so that leg perm[t] becomes leg t, and split again with
    the first nrow legs indexing rows.

    Row-major, entry (i_0, ..., i_k) of the tensor is entry i_0 s_0 + ... +
    i_k s_k of M flattened, s_l the product of the sizes after leg l, so
    the result flattened gathers M at sum_t j_t s_perm[t] over its own
    multi-indices j, in row-major order.
    """
    flat = [x for row in M for x in row]
    if len(flat) != prod(dims):
        raise LinalgError(f"{len(flat)} entries do not split as {dims}")
    strides = [prod(dims[k + 1:]) for k in range(len(dims))]
    idx = [0]
    for t in perm:
        idx = [i + j * strides[t] for i in idx for j in range(dims[t])]
    ncol = prod(dims[t] for t in perm[nrow:])
    out = [flat[i] for i in idx]
    return [out[r:r + ncol] for r in range(0, len(out), ncol)]


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
    """Read a matrix written by mat_to_json.  Anything but a non-empty list
    of non-empty lists of one length raises LinalgError: later code reads
    M[0][0] and zips rows, which would fail or truncate silently."""
    from .scalars import scalar_from_json
    if not (isinstance(rows, list) and rows
            and all(isinstance(row, list) for row in rows)
            and rows[0] and all(len(row) == len(rows[0]) for row in rows)):
        shown = repr(rows)
        if len(shown) > 80:
            shown = shown[:77] + "..."
        raise LinalgError("a matrix must be a non-empty list of non-empty "
                          f"rows of one length, got {shown}")
    return [[scalar_from_json(x) for x in row] for row in rows]
