"""Reconstruction of the block matrix algebra of a weak quasi tensor functor.

A natural endotransformation of the functor is a family of matrices, one
D(a) x D(a) block per simple label, so the algebra is H = (+)_a End(K^{D(a)}).
Everything else is transported through the tensorator.  The coproduct is
delta_slot at degree 1: the stored pair (c, c_inv) acts on F(x (x) y) one
fusion sector (z, tree) at a time, with the sector rows of c listed by
functor._pair_sectors.  The associator family phi and the braiding family R
push the categorical structure morphisms into H tensor powers, the antipode
conjugates transposed blocks by the duality matrices, and alpha / beta are
the snake composites mixing the algebra-side evaluation with the
vector-space one.  All identities are verified on the matrix unit basis,
which suffices because they are multilinear.  Tensor legs are shuffled by
linalg.permute_legs and acted on by linalg.leg_matmul / leg_rmatmul, never
through a Kronecker product with an identity.  quasi-coassociativity and
phi-pentagon are decided on the fusion-tree image Phi = C_L phi A_R of the
associator, T x T with T = sum_z N^z D(z), under two hypotheses on the
stored data that are checked alongside; verify_weak_axioms holds the proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from .category import (associator, associator_inv, braiding, braiding_inv,
                       coev, ev, leaf, pair, tree_index, trees)
from .functor import (FunctorData, _offsets, _pair_sectors,
                      functor_on_morphism, tensorator)
from .linalg import (LinalgError, deviation, eye, inverse, kron, leg_conjugate,
                     leg_matmul, leg_rmatmul, matmul, matmul_chain,
                     permute_legs, reshape_vector, smul, transpose, zeros)
from .report import Report, prefixed, witness


class HopfError(ValueError):
    pass


@dataclass(eq=False)
class WQHopf:
    functor: FunctorData
    blocks: tuple        # (label name, D(a)) per simple
    delta_unit: dict     # (a, b) -> projector on K^{D(a)} (x) K^{D(b)}
    phi: dict            # (a, b, c) -> matrix, with quasi-inverse phi_inv
    phi_inv: dict
    R: dict | None       # (a, b) -> matrix, with quasi-inverse R_inv
    R_inv: dict | None
    alpha: dict          # label -> D(a) x D(a)
    beta: dict
    ribbon_v: dict | None

    @property
    def dim(self) -> int:
        return sum(d * d for _, d in self.blocks)


# ---------------------------------------------------------------------------
# elements: label -> D(a) x D(a) block
# ---------------------------------------------------------------------------

def unit_element(H: WQHopf) -> dict:
    one = H.functor.cat.one
    return {a: eye(d, one) for a, (_, d) in enumerate(H.blocks)}


def matrix_units(H: WQHopf):
    """Basis of H: (label, row, col, element) with a single nonzero entry."""
    one = H.functor.cat.one
    out = []
    for a, (_, da) in enumerate(H.blocks):
        for i in range(da):
            for j in range(da):
                h = {b: zeros(d, d, one) for b, (_, d) in enumerate(H.blocks)}
                h[a][i][j] = one
                out.append((a, i, j, h))
    return out


# ---------------------------------------------------------------------------
# structure tensors
# ---------------------------------------------------------------------------

def reconstruct(F: FunctorData) -> WQHopf:
    cat = F.cat
    ring, one = cat.ring, cat.one
    D = F.D.values
    rk = ring.rank
    blocks = tuple((ring.labels[a], D[a]) for a in range(rk))

    delta_unit = {(a, b): matmul(F.c_inv[(a, b)], F.c[(a, b)])
                  for a in range(rk) for b in range(rk)}

    phi, phi_inv = {}, {}
    for key in product(range(rk), repeat=3):
        A, B, C = (leaf(x) for x in key)
        uL, uLp, uR, uRp = _nested_tensorators(F, *key)
        phi[key] = matmul_chain(
            uLp, functor_on_morphism(F, associator(cat, A, B, C)), uR)
        phi_inv[key] = matmul_chain(
            uRp, functor_on_morphism(F, associator_inv(cat, A, B, C)), uL)

    Rfam = Rinv = None
    if cat.R is not None:
        Rfam, Rinv = {}, {}
        for a in range(rk):
            for b in range(rk):
                Ps = functor_on_morphism(F, braiding(cat, leaf(a), leaf(b)))
                Pi = functor_on_morphism(F, braiding_inv(cat, leaf(a), leaf(b)))
                # the swap K^b (x) K^a -> K^a (x) K^b on the row legs of R
                # and on the column legs of R_inv
                n = D[a] * D[b]
                Rfam[(a, b)] = permute_legs(
                    matmul_chain(F.c_inv[(b, a)], Ps, F.c[(a, b)]),
                    (D[b], D[a], n), (1, 0, 2), 2)
                Rinv[(a, b)] = permute_legs(
                    matmul_chain(F.c_inv[(a, b)], Pi, F.c[(b, a)]),
                    (n, D[b], D[a]), (0, 2, 1), 1)

    alpha, beta = {}, {}
    for a in range(rk):
        evrow, colv = _rigidity_maps(F, a)
        alpha[a] = reshape_vector(evrow[0], D[a], D[a])
        beta[a] = reshape_vector(transpose(colv)[0], D[a], D[a])

    ribbon_v = None
    if cat.theta is not None:
        ribbon_v = {a: smul(cat.theta[a], eye(D[a], one)) for a in range(rk)}

    return WQHopf(F, blocks, delta_unit, phi, phi_inv, Rfam, Rinv,
                  alpha, beta, ribbon_v)


def _nested_tensorators(F: FunctorData, a: int, b: int, c: int):
    """(C_L, A_L, C_R, A_R) at the degree-3 key (a, b, c).

    C_L = t_{ab,c} (c_ab (x) 1) maps K^a (x) K^b (x) K^c onto F((ab)c) and
    C_R = t_{a,bc} (1 (x) c_bc) onto F(a(bc)), t the word tensorator; A_L
    and A_R are built the same way from c_inv and run the other way.
    """
    D = F.D.values
    A, B, C = leaf(a), leaf(b), leaf(c)
    cL, cLi = tensorator(F, pair(A, B), C)
    cR, cRi = tensorator(F, A, pair(B, C))
    return (leg_rmatmul(cL, F.c[(a, b)], 1, D[c]),
            leg_matmul(F.c_inv[(a, b)], cLi, 1, D[c]),
            leg_rmatmul(cR, F.c[(b, c)], D[a], 1),
            leg_matmul(F.c_inv[(b, c)], cRi, D[a], 1))


def _rigidity_maps(F: FunctorData, a: int):
    """The evaluation row F(dual a) (x) F(a) -> K and the coevaluation
    column K -> F(a) (x) F(dual a) on the block spaces, with the dual leg
    identified with K^{D(a)} through the duality matrix d(a)."""
    cat = F.cat
    ab = cat.ring.dual[a]
    da = F.D[a]
    evrow = leg_rmatmul(
        matmul(functor_on_morphism(F, ev(cat, a)),
               tensorator(F, leaf(ab), leaf(a))[0]),
        F.d[a], 1, da)
    colv = leg_matmul(
        inverse(F.d[a]),
        matmul(tensorator(F, leaf(a), leaf(ab))[1],
               functor_on_morphism(F, coev(cat, a))),
        da, 1)
    return evrow, colv


def coproduct(H: WQHopf, h: dict) -> dict:
    """Delta(h) per pair: h as a degree-1 family, through delta_slot."""
    return delta_slot(H, {(a,): M for a, M in h.items()}, 1)


def basis_coproducts(H: WQHopf) -> dict:
    """Delta of every matrix unit, keyed (a, i, j) like matrix_units.

    E^a_ij acts on F(x (x) y) by sending coordinate (a, t, j) to (a, t, i)
    for each tree t of a in x (x) y, so Delta(E^a_ij) at (x, y) is the sum
    over t of column (a, t, i) of c_inv times row (a, t, j) of c: one
    product of those columns with those rows, with no dense action matrix.
    Computed afresh on each call, never stored on H.
    """
    F = H.functor
    ring, one = F.cat.ring, F.cat.one
    D = F.D.values
    rk = ring.rank
    out = {(a, i, j): {} for a in range(rk)
           for i in range(D[a]) for j in range(D[a])}
    for x in range(rk):
        for y in range(rk):
            c, c_inv = F.c[(x, y)], F.c_inv[(x, y)]
            n = D[x] * D[y]
            for a, starts in enumerate(_pair_sectors(F, x, y)):
                for i in range(D[a]):
                    cols = [[row[s + i] for s in starts] for row in c_inv]
                    for j in range(D[a]):
                        out[(a, i, j)][(x, y)] = (
                            matmul(cols, [c[s + j] for s in starts])
                            if starts else zeros(n, n, one))
    return out


def counit(H: WQHopf, h: dict):
    return h[0][0][0]


def antipode(H: WQHopf, h: dict) -> dict:
    F = H.functor
    ring = F.cat.ring
    out = {}
    for a in range(ring.rank):
        dt = transpose(F.d[a])
        out[a] = matmul_chain(dt, transpose(h[ring.dual[a]]), inverse(dt))
    return out


# ---------------------------------------------------------------------------
# families: dict over label tuples -> matrix on the tensor product of blocks
# ---------------------------------------------------------------------------

def family_mul(x: dict, y: dict) -> dict:
    return {k: matmul(x[k], y[k]) for k in x}


def family_deviation(x: dict, y: dict, tol: float = 0.0):
    """(keys at which the families differ, worst deviation): a report part.

    Each key's matrix pair is compared by linalg.deviation, so the verdict is
    the scalars' own is_zero(tol) and the worst deviation a diagnostic."""
    found = {k: deviation(x[k], y[k], tol) for k in sorted(x)}
    return ([k for k, (differs, _) in found.items() if differs],
            max((w for _, w in found.values()), default=0.0))


def element_pair(H: WQHopf, x: dict, y: dict) -> dict:
    rk = len(H.blocks)
    return {(a, b): kron(x[a], y[b]) for a in range(rk) for b in range(rk)}


def pair_flip(H: WQHopf, fam: dict) -> dict:
    """tau conjugation: the same element of H (x) H with the legs swapped.

    Conjugating by the swaps only permutes entries: the result at (a, b)
    has entry ((i, j), (k, l)) = fam[(b, a)] entry ((j, i), (l, k)).
    """
    D = H.functor.D.values
    return {(a, b): permute_legs(fam[(b, a)], (D[b], D[a]) * 2,
                                 (1, 0, 3, 2), 2)
            for a, b in fam}


def delta_slot(H: WQHopf, fam: dict, i: int) -> dict:
    """Degree n to n+1: slot 0 is 1 (x) fam, slot n+1 is fam (x) 1, and a
    middle slot splits the i-th tensor leg.  At degree 1 this is the
    coproduct.

    A middle slot is fam acting on F(x (x) y), x and y the labels of the new
    legs, conjugated by 1 (x) c_inv (x) 1 and 1 (x) c (x) 1, c = c[(x, y)].
    The action is block diagonal: the sum over sectors s = (z, tree) of
    (1 (x) E_s (x) 1) fam_z (1 (x) E_s^T (x) 1), E_s the inclusion of s and
    fam_z the member of fam with z on leg i.  With A_s = c_inv E_s the
    columns and C_s = E_s^T c the rows of c_inv and c on s, the result is
    sum_s (1 (x) A_s (x) 1) fam_z (1 (x) C_s (x) 1) = (1 (x) c_inv (x) 1) S,
    S stacking X_s = fam_z (1 (x) C_s (x) 1) along the middle row leg, so no
    dense action or other pre * T * post square is ever formed.
    """
    F = H.functor
    ring, one = F.cat.ring, F.cat.one
    D = F.D.values
    n = len(next(iter(fam)))
    rk = ring.rank
    out = {}
    if i == 0:
        for key, M in fam.items():
            for b in range(rk):
                out[(b,) + key] = kron(eye(D[b], one), M)
        return out
    if i == n + 1:
        for key, M in fam.items():
            for b in range(rk):
                out[key + (b,)] = kron(M, eye(D[b], one))
        return out
    if not 1 <= i <= n:
        raise HopfError(f"slot {i} out of range for degree {n}")
    for key2 in product(range(rk), repeat=n + 1):
        x, y = key2[i - 1], key2[i]
        pre = prod(D[k] for k in key2[:i - 1])
        post = prod(D[k] for k in key2[i + 1:])
        c = F.c[(x, y)]
        # (X_s, D(z)) per sector s = (z, tree), in the row order of c
        blocks = [(leg_rmatmul(fam[key2[:i - 1] + (z,) + key2[i + 1:]],
                               c[s:s + D[z]], pre, post), D[z])
                  for z, starts in enumerate(_pair_sectors(F, x, y))
                  for s in starts]
        S = [X[(p * dz + k) * post + q] for p in range(pre)
             for X, dz in blocks for k in range(dz) for q in range(post)]
        out[key2] = leg_matmul(F.c_inv[(x, y)], S, pre, post)
    return out


def eps_slot(H: WQHopf, fam: dict, i: int) -> dict:
    """Contract tensor leg i with the counit; D(1) = 1 keeps shapes intact."""
    return {key[:i - 1] + key[i:]: M
            for key, M in fam.items() if key[i - 1] == 0}


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------

def _sweedler_pair(H: WQHopf, dh: dict, x: int, left: bool):
    """Contract the legs of dh = Delta(h) around the snake element at block
    x: sum S(h1) alpha h2 when left, sum h1 beta S(h2) otherwise.

    The antipode leg is rewritten as a partial transpose conjugated by the
    duality matrix, so the sum over Sweedler terms never has to be split.
    """
    F = H.functor
    ring = F.cat.ring
    ab = ring.dual[x]
    da, db = F.D[x], F.D[ab]
    dt = transpose(F.d[x])
    dti = inverse(dt)
    if left:
        pt = permute_legs(dh[(ab, x)], (db, da) * 2, (2, 1, 0, 3), 2)
        V = leg_conjugate(dt, pt, dti, 1, da)
        mid = H.alpha[x]
    else:
        pt = permute_legs(dh[(x, ab)], (da, db) * 2, (0, 3, 2, 1), 2)
        V = leg_conjugate(dt, pt, dti, da, 1)
        mid = H.beta[x]
    # out[i][j] = sum_(m, n) V[(i, n)][(m, j)] mid[m][n]: regroup the legs
    # of V as rows (i, j) and columns (m, n), then contract with mid
    W = permute_legs(V, (da,) * 4, (0, 3, 2, 1), 2)
    col = matmul(W, [[y] for row in mid for y in row])
    return reshape_vector([y for y, in col], da, da)


def _leaf_count(w) -> int:
    return 1 if w[0] == "leaf" else _leaf_count(w[1]) + _leaf_count(w[2])


def _graft(w, t, pos, sub):
    """The tree t of the word w with the subtree sub put on leaf pos,
    counted from the left, in place of the empty tree of that leaf."""
    if w[0] == "leaf":
        return sub
    _, w1, w2 = w
    z1, z2, t1, t2, mu = t
    n1 = _leaf_count(w1)
    if pos < n1:
        return (z1, z2, _graft(w1, t1, pos, sub), t2, mu)
    return (z1, z2, t1, _graft(w2, t2, pos - n1, sub), mu)


def _graft_coords(F: FunctorData, V, W, pos, sub, pre=1, post=1):
    """Per coordinate of K^pre (x) F(V) (x) K^post, F(V) in its (z, tree,
    copy) order, the coordinate of K^pre (x) F(W) (x) K^post with the same
    z and copy on the tree of V grafted with sub at leaf pos, counted from
    the left; W is V with that leaf replaced by the word sub is a tree of."""
    ring, D = F.cat.ring, F.D.values
    off, size = _offsets(F, W)
    grafted = []
    for z in range(ring.rank):
        index = tree_index(ring, z, W)
        for t in trees(ring, z, V):
            start = off[z] + index[_graft(V, t, pos, sub)] * D[z]
            grafted.extend(range(start, start + D[z]))
    return [(p * size + g) * post + q
            for p in range(pre) for g in grafted for q in range(post)]


def _placed(F: FunctorData, nrows: int, ncols: int, blocks):
    """The nrows x ncols matrix holding each block M of the (rows, cols, M)
    triples at those rows and columns, zero elsewhere."""
    out = zeros(nrows, ncols, F.cat.one)
    for rows, cols, M in blocks:
        for r, block_row in zip(rows, M):
            out_row = out[r]
            for c, x in zip(cols, block_row):
                out_row[c] = x
    return out


def _tree_phi(H: WQHopf, tol: float):
    """Phi = C_L phi A_R per degree-3 key, and the report parts of the two
    hypotheses H1 (c c_inv = 1 per pair) and H2 (A_L Phi C_R = phi per
    key) that the tree-coordinate checks rest on."""
    F = H.functor
    one = F.cat.one
    rk = F.cat.ring.rank
    parts = []
    for key in product(range(rk), repeat=2):
        M = matmul(F.c[key], F.c_inv[key])
        parts.append(witness(("section",) + key,
                             deviation(M, eye(len(M), one), tol)))
    Phi = {}
    for key in product(range(rk), repeat=3):
        CL, AL, CR, AR = _nested_tensorators(F, *key)
        Phi[key] = matmul_chain(CL, H.phi[key], AR)
        parts.append(witness(("absorb",) + key, deviation(
            matmul_chain(AL, Phi[key], CR), H.phi[key], tol)))
    return Phi, parts


def _commutator_parts(H: WQHopf, Phi: dict, tol: float):
    """Per matrix unit h = E^a_ij, the degree-3 keys at which Phi E_R(h)
    and E_L(h) Phi differ, E(h) acting by E_ij on every copy block of a.

    Phi E_R(h) holds column (a, t, i) of Phi at column (a, t, j) and is zero
    elsewhere; E_L(h) Phi holds row (a, t, j) of Phi at row (a, t, i).  So
    the two agree when they agree on those rows and columns, and each side
    there is an entry of Phi or zero: no product is formed.
    """
    F = H.functor
    ring, D = F.cat.ring, F.D.values
    zero = F.cat.one.rational(0)
    frames = {}
    for key in Phi:
        X, Y, Z = (leaf(x) for x in key)
        WL, WR = pair(pair(X, Y), Z), pair(X, pair(Y, Z))
        frames[key] = (_offsets(F, WL)[0], _offsets(F, WR)[0],
                       [len(trees(ring, a, WL)) for a in range(ring.rank)])
    parts = []
    for a, i, j, _ in matrix_units(H):
        bad, worst = [], 0.0
        for key, M in Phi.items():
            offL, offR, count = frames[key]
            # row (a, t, i) of E_L(h) Phi reads row (a, t, j) of Phi, and
            # column (a, t, j) of Phi E_R(h) reads column (a, t, i)
            src = {offL[a] + t * D[a] + i: offL[a] + t * D[a] + j
                   for t in range(count[a])}
            dst = {offR[a] + t * D[a] + j: offR[a] + t * D[a] + i
                   for t in range(count[a])}
            cells = [(r, c) for r in range(len(M)) for c in dst]
            cells += [(r, c) for r in src for c in range(len(M[0]))
                      if c not in dst]
            differs, w = deviation(
                [[M[r][dst[c]] if c in dst else zero for r, c in cells]],
                [[M[src[r]][c] if r in src else zero for r, c in cells]],
                tol)
            if differs:
                bad.append((a, i, j) + key)
            worst = max(worst, w)
        parts.append((bad, worst))
    return parts


def _pentagon_parts(H: WQHopf, Phi: dict, tol: float):
    """Per degree-4 key, the key as a witness when M_lhs and M_rhs of
    verify_weak_axioms differ there."""
    F = H.functor
    ring, D = F.cat.ring, F.D.values
    rk = ring.rank

    def size(w):
        return _offsets(F, w)[1]

    # Psi_L = t_L^- Phi, Psi_R = Phi t_R and Theta = t_L^- Phi t_R per
    # degree-3 key, t_L and t_R the word tensorators of (xy)z and x(yz)
    tri = {}
    for key, M in Phi.items():
        X, Y, Z = (leaf(x) for x in key)
        tLi = tensorator(F, pair(X, Y), Z)[1]
        tR = tensorator(F, X, pair(Y, Z))[0]
        psi = matmul(tLi, M)
        tri[key] = psi, matmul(M, tR), matmul(psi, tR)
    parts = []
    for key in product(range(rk), repeat=4):
        a, b, c, d = key
        A, B, C, E = (leaf(x) for x in key)
        ab, bc, cd = pair(A, B), pair(B, C), pair(C, E)
        inner = size(pair(ab, cd))
        left = _placed(F, size(pair(ab, C)) * D[d], inner, [
            (_graft_coords(F, pair(leaf(z), C), pair(ab, C), 0, t,
                           post=D[d]),
             _graft_coords(F, pair(leaf(z), cd), pair(ab, cd), 0, t),
             tri[(z, c, d)][0])
            for z in range(rk) for t in trees(ring, z, ab)])
        right = _placed(F, inner, D[a] * size(pair(B, cd)), [
            (_graft_coords(F, pair(ab, leaf(z)), pair(ab, cd), 2, t),
             _graft_coords(F, pair(B, leaf(z)), pair(B, cd), 1, t,
                           pre=D[a]),
             tri[(a, b, z)][1])
            for z in range(rk) for t in trees(ring, z, cd)])
        mid = _placed(F, size(pair(A, bc)) * D[d], D[a] * size(pair(bc, E)), [
            (_graft_coords(F, pair(A, leaf(z)), pair(A, bc), 1, t,
                           post=D[d]),
             _graft_coords(F, pair(leaf(z), E), pair(bc, E), 0, t,
                           pre=D[a]),
             tri[(a, z, d)][2])
            for z in range(rk) for t in trees(ring, z, bc)])
        rhs = leg_rmatmul(leg_matmul(Phi[(a, b, c)], mid, 1, D[d]),
                          Phi[(b, c, d)], D[a], 1)
        parts.append(witness(key, deviation(matmul(left, right), rhs, tol)))
    return parts


def verify_weak_axioms(H: WQHopf, tol: float = 0.0) -> Report:
    """The weak quasi-Hopf identities on the matrix unit basis.

    Delta and S of each matrix unit are computed once and read by every
    check that needs them.  coproduct-multiplicative and
    antipode-antimultiplicative take their left sides from the product rule
    E^a_ij E^b_kl = [a = b][j = k] E^a_il: block c of the product is
    E^a_ij[c] E^b_kl[c], which is zero unless c = a = b, and E_ij E_kl =
    [j = k] E_il for matrix units of one block.  Delta and S are linear, so
    Delta(E^a_ij E^b_kl) is Delta(E^a_il) when a = b and j = k and the zero
    family otherwise, and likewise for S.

    quasi-coassociativity and phi-pentagon are decided in fusion-tree
    coordinates, on T x T images with T = sum_z N^z D(z), and never form a
    product of two tensor-leg squares.  F(w) has the (z, tree, copy)
    coordinates of functor._offsets, t_{v,w} and t^-_{v,w} are the word
    tensorators of functor.tensorator, and C_L, A_L, C_R, A_R are the
    nested ones of _nested_tensorators, so reconstruct sets phi = A_L
    F(assoc) C_R.  For a word V the nested C_V is t_{V1,V2} (C_V1 (x) C_V2),
    C = c at a pair of leaves, and A_V likewise from t^- and c_inv.  Two
    hypotheses are computed and recorded, never assumed; a failure of
    either is a witness of both checks:
      H1  c c_inv = 1 at every pair, witness ("section", x, y).  Each t
          t^- is then 1, since t spreads the rows of c and t^- the matching
          columns of c_inv, so C_V A_V = 1 for every word V.
      H2  A_L Phi C_R = phi at every key, witness ("absorb", a, b, c), where
          Phi = C_L phi A_R is the tree image of phi.

    Grafting.  Let W be the word V with its leaf z at position p replaced by
    a pair xy, s = (z, t) a sector of F(x (x) y), E_s its inclusion and Q_s
    the coordinate map F(V) -> F(W) of _graft_coords, which grafts t onto
    leaf p.  t^-_{W1,V2} Q_s = (Q_s (x) 1) t^-_{V1,V2} when the leaf lies in
    V1 (both write the same block of c_inv, into the tree and its graft),
    and likewise on the right and for t; induction over V gives, with no
    hypothesis, A_W Q_s = (1 (x) c_inv E_s (x) 1) A_V and Q_s^T C_W = C_V
    (1 (x) E_s^T c (x) 1).  delta_slot sums (1 (x) c_inv E_s (x) 1) fam_z
    (1 (x) E_s^T c (x) 1) over s, and every tree of W is exactly one graft,
    so (a) Delta_2 Delta(h) = A_R E_R(h) C_R and Delta_1 Delta(h) = A_L
    E_L(h) C_L, E(h) acting by h_z on every copy block of z; and (b) under
    H2, Delta_s(phi) at a middle slot s is A_out Y_s C_in, Y_s the blocks of
    Phi at the sub-keys placed by grafting.

    quasi-coassociativity.  By (a), H2 and H1, phi Delta_2 Delta(h) = A_L
    Phi C_R A_R E_R(h) C_R = A_L Phi E_R(h) C_R, and Delta_1 Delta(h) phi =
    A_L E_L(h) Phi C_R.  A_L has the left inverse C_L and C_R the right
    inverse A_R, so the sides agree exactly when Phi E_R(h) = E_L(h) Phi,
    an entry comparison for a matrix unit h (_commutator_parts).

    phi-pentagon.  At (a, b, c, d), write A_L for that of (a, b, c) and C_R
    for that of (b, c, d).  By (b) with C_(ab)(cd) A_(ab)(cd) = 1 (H1),
    Delta_1 phi Delta_3 phi = (A_L (x) 1) M_lhs (1 (x) C_R) with M_lhs =
    t^-_{(ab)c,d} Y_1 Y_3 t_{a,b(cd)}.  By H2 and H1, Delta_4 phi = A_L
    Phi_abc C_R^abc (x) 1 and Delta_0 phi = 1 (x) A_L^bcd Phi_bcd C_R absorb
    the outer maps of Delta_2 phi, so Delta_4 phi Delta_2 phi Delta_0 phi =
    (A_L (x) 1) M_rhs (1 (x) C_R) with M_rhs = (Phi_abc (x) 1)
    t^-_{a(bc),d} Y_2 t_{a,(bc)d} (1 (x) Phi_bcd).  (C_L (x) 1)(A_L (x) 1)
    = 1 and (1 (x) C_R)(1 (x) A_R) = 1, so the sides agree exactly when
    M_lhs = M_rhs, with no condition on the end slots.  By the grafting
    identity, M_lhs is the product of the placements t^- Y_1 of the blocks
    t^-_{zc,d} Phi_zcd and Y_3 t of the blocks Phi_abz t_{a,bz}, and t^- Y_2
    t is the placement of the blocks t^-_{az,d} Phi_azd t_{a,zd}
    (_pentagon_parts).
    """
    F = H.functor
    ring, one = F.cat.ring, F.cat.one
    rk = ring.rank
    rep = Report()
    basis = matrix_units(H)
    dbasis = basis_coproducts(H)
    dunit = H.delta_unit

    rep.record("ff1", family_deviation(family_mul(H.phi_inv, H.phi),
                                       delta_slot(H, dunit, 2), tol))
    rep.record("ff2", family_deviation(family_mul(H.phi, H.phi_inv),
                                       delta_slot(H, dunit, 1), tol))
    if H.R is not None:
        rep.record("ff3", family_deviation(family_mul(H.R, H.R_inv),
                                           pair_flip(H, dunit), tol))
        rep.record("ff4", family_deviation(family_mul(H.R_inv, H.R), dunit,
                                           tol))
    rep.record("ff5", *(prefixed((i,), family_deviation(eps_slot(H, H.phi, i),
                                                        dunit, tol))
                        for i in (1, 2, 3)))

    Phi, hypotheses = _tree_phi(H, tol)
    rep.record("quasi-coassociativity", *hypotheses,
               *_commutator_parts(H, Phi, tol))
    rep.record("phi-pentagon", *hypotheses, *_pentagon_parts(H, Phi, tol))

    if H.R is not None:
        parts = []
        for a, i, j, h in basis:
            dh = dbasis[(a, i, j)]
            lhs = family_mul(H.R, dh)
            rhs = family_mul(pair_flip(H, dh), H.R)
            parts.append(prefixed((a, i, j), family_deviation(lhs, rhs, tol)))
        rep.record("r-intertwine", *parts)

    for name, snake, left in (("antipode-alpha", H.alpha, True),
                              ("antipode-beta", H.beta, False)):
        parts = []
        for a, i, j, h in basis:
            eh = counit(H, h)
            for x in range(rk):
                lhs = smul(eh, snake[x])
                rhs = _sweedler_pair(H, dbasis[(a, i, j)], x, left)
                parts.append(witness((a, i, j, x), deviation(lhs, rhs, tol)))
        rep.record(name, *parts)

    parts = []
    for a, i, j, h in basis:
        dh = dbasis[(a, i, j)]
        for b in range(rk):
            # both unit legs at once: Delta(h) at (1, b) stacked over (b, 1)
            parts.append(witness((a, i, j, b), deviation(
                dh[(0, b)] + dh[(b, 0)], h[b] + h[b], tol)))
    rep.record("counit-laws", *parts)

    zero = {key: zeros(len(M), len(M), one)
            for key, M in dbasis[(0, 0, 0)].items()}
    parts = []
    for a, i, j, _ in basis:
        for b, k, l, _ in basis:
            lhs = dbasis[(a, i, l)] if (a, j) == (b, k) else zero
            rhs = family_mul(dbasis[(a, i, j)], dbasis[(b, k, l)])
            parts.append(witness((a, i, j, b, k, l),
                                 family_deviation(lhs, rhs, tol)))
    rep.record("coproduct-multiplicative", *parts)

    rep.record("coproduct-unit-idempotent",
               family_deviation(family_mul(dunit, dunit), dunit, tol))

    sbasis = {(a, i, j): antipode(H, h) for a, i, j, h in basis}
    szero = {b: zeros(d, d, one) for b, (_, d) in enumerate(H.blocks)}
    parts = []
    for a, i, j, _ in basis:
        for b, k, l, _ in basis:
            lhs = sbasis[(a, i, l)] if (a, j) == (b, k) else szero
            rhs = family_mul(sbasis[(b, k, l)], sbasis[(a, i, j)])
            parts.append(witness((a, i, j, b, k, l),
                                 family_deviation(lhs, rhs, tol)))
    rep.record("antipode-antimultiplicative", *parts)

    if H.ribbon_v is not None:
        v = H.ribbon_v
        rep.record("ribbon-central", *(
            witness((a, i, j), family_deviation(family_mul(v, h),
                                                family_mul(h, v), tol))
            for a, i, j, h in basis))

        differs, worst = deviation([[counit(H, v)]], [[one]], tol)
        rep.add("ribbon-counit", not differs, worst)

        differs, worst = family_deviation(antipode(H, v), v, tol)
        rep.add("ribbon-antipode", not differs, worst)

        if H.R is not None:
            r21_inv = pair_flip(H, H.R_inv)
            q_inv = family_mul(H.R_inv, r21_inv)
            rhs = family_mul(q_inv, element_pair(H, v, v))
            rep.record("ribbon-coproduct",
                       family_deviation(coproduct(H, v), rhs, tol))

    bad = []
    for x in range(rk):
        for name, M in (("alpha", H.alpha[x]), ("beta", H.beta[x])):
            try:
                inverse(M)
            except LinalgError:
                bad.append((name, x))
    # invertibility of alpha/beta is informational, never a failure
    rep.add("alpha-beta-invertible", True, float(len(bad)), bad)
    return rep


# ---------------------------------------------------------------------------
# category <-> Rep structure transport
# ---------------------------------------------------------------------------

def verify_structure_transport(H: WQHopf, tol: float = 0.0) -> Report:
    from .category import elementary_morphisms, rtable
    from .linalg import msub, nullspace, rank as mat_rank, solve

    F = H.functor
    cat = F.cat
    ring, one = cat.ring, cat.one
    D = F.D.values
    rk = ring.rank
    rep = Report()
    basis = matrix_units(H)
    dbasis = basis_coproducts(H)

    # (i) intertwiner bases from the fusion trees
    parts, bad_span = [], []
    bases = {}
    for a in range(rk):
        for b in range(rk):
            w = pair(leaf(a), leaf(b))
            dcop = {key: dh[(a, b)] for key, dh in dbasis.items()}
            for z in range(rk):
                nz = ring.N[a][b][z]
                if not nz:
                    continue
                Ts = []
                for f in elementary_morphisms(ring, w, leaf(z), one):
                    Ts.append(matmul(functor_on_morphism(F, f), F.c[(a, b)]))
                bases[(a, b, z)] = Ts
                for it, T in enumerate(Ts):
                    for x, i, j, h in basis:
                        lhs = matmul(T, dcop[(x, i, j)])
                        rhs = matmul(h[z], T)
                        parts.append(witness((a, b, z, it, x),
                                             deviation(lhs, rhs, tol)))
                # independence and spanning: solve the intertwiner system
                flat = [[y for row in T for y in row] for T in Ts]
                if mat_rank(flat, tol) != nz:
                    bad_span.append((a, b, z, "independence"))
                # unknown M: M dm - hz M = 0, entries row-major; row-major
                # vec(A X B) = (A (x) B^T) vec(X), since (A X B)[r][c] =
                # sum_(r2, c2) A[r][r2] B^T[c][c2] X[r2][c2]
                rows = []
                for x, i, j, h in basis:
                    rows += msub(kron(eye(D[z], one),
                                      transpose(dcop[(x, i, j)])),
                                 kron(h[z], eye(D[a] * D[b], one)))
                if len(nullspace(rows, tol)) != nz:
                    bad_span.append((a, b, z, "span"))
    rep.record("transport-intertwiner", *parts)
    rep.add("transport-span", not bad_span, float(len(bad_span)), bad_span)

    # (ii) braiding scalars through the Rep-side braiding
    if H.R is not None:
        parts = []
        for a in range(rk):
            for b in range(rk):
                # the swap K^a (x) K^b -> K^b (x) K^a on the row legs
                rep_braid = permute_legs(H.R[(a, b)],
                                         (D[a], D[b], D[a] * D[b]),
                                         (1, 0, 2), 2)
                for z in range(rk):
                    nz = ring.N[a][b][z]
                    if not nz:
                        continue
                    Ts = bases[(a, b, z)]
                    Bs = bases[(b, a, z)]
                    tbl = rtable(cat, a, b, z)
                    flat = transpose([[y for row in T for y in row]
                                      for T in Ts])
                    for nu, B in enumerate(Bs):
                        target = [[y] for row in matmul(B, rep_braid)
                                  for y in row]
                        coeffs = solve(flat, target, tol)
                        if coeffs is None:
                            parts.append(([(a, b, z, nu, "unsolvable")], 0.0))
                            continue
                        for mu in range(nz):
                            parts.append(witness((a, b, z, mu, nu), deviation(
                                [[coeffs[mu][0]]], [[tbl[mu][nu]]], tol)))
        rep.record("transport-braiding", *parts)

    # (iii) Rep-side rigidity: ev/coev intertwine and the bent snake closes
    rigidity = {a: _rigidity_maps(F, a) for a in range(rk)}
    parts = []
    for a in range(rk):
        ab = ring.dual[a]
        da = D[a]
        evrow, colv = rigidity[a]
        dinv = inverse(F.d[a])
        for x, i, j, h in basis:
            # ev o (rho* (x) rho)(Delta h): rho*(g) = dinv . g_dual . d
            act = leg_conjugate(dinv, dbasis[(x, i, j)][(ab, a)], F.d[a],
                                1, da)
            lhs = matmul(evrow, act)
            rhs = smul(counit(H, h), evrow)
            parts.append(witness((a, x, i, j), deviation(lhs, rhs, tol)))
        # the dual rep lives on K^{D(a)} through d, so the middle leg of
        # phi_inv (an F(dual a) block leg) is conjugated accordingly
        assoc = leg_conjugate(dinv, H.phi_inv[(a, ab, a)], F.d[a], da, da)
        snake = leg_matmul(evrow, leg_rmatmul(assoc, colv, 1, da), da, 1)
        parts.append(witness((a, "snake"), deviation(snake, eye(da, one), tol)))
    rep.record("transport-rigidity", *parts)

    # (iv) the algebra-side evaluation is the plain pairing twisted by alpha
    parts = []
    for a in range(rk):
        da = D[a]
        plain = [[one.rational(1) if i == j else one.rational(0)
                  for i in range(da) for j in range(da)]]
        rhs = leg_rmatmul(plain, H.alpha[a], da, 1)
        parts.append(witness((a,), deviation(rigidity[a][0], rhs, tol)))
    rep.record("transport-alpha-pairing", *parts)
    return rep
