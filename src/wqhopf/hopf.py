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
through a Kronecker product with an identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from .category import (associator, associator_inv, braiding, braiding_inv,
                       coev, ev, leaf, pair)
from .functor import (FunctorData, _pair_sectors, functor_on_morphism,
                      tensorator)
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
    for a, b, c in product(range(rk), repeat=3):
        A, B, C = leaf(a), leaf(b), leaf(c)
        cR, cRi = tensorator(F, A, pair(B, C))
        cL, cLi = tensorator(F, pair(A, B), C)
        uR = leg_rmatmul(cR, F.c[(b, c)], D[a], 1)
        uRp = leg_matmul(F.c_inv[(b, c)], cRi, D[a], 1)
        uL = leg_rmatmul(cL, F.c[(a, b)], 1, D[c])
        uLp = leg_matmul(F.c_inv[(a, b)], cLi, 1, D[c])
        phi[(a, b, c)] = matmul_chain(
            uLp, functor_on_morphism(F, associator(cat, A, B, C)), uR)
        phi_inv[(a, b, c)] = matmul_chain(
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

    parts = []
    for a, i, j, h in basis:
        dh = dbasis[(a, i, j)]
        lhs = family_mul(H.phi, delta_slot(H, dh, 2))
        rhs = family_mul(delta_slot(H, dh, 1), H.phi)
        parts.append(prefixed((a, i, j), family_deviation(lhs, rhs, tol)))
    rep.record("quasi-coassociativity", *parts)

    # cocycle order for an associator mapping right-nested to left-nested:
    # delta_1 then delta_3 against delta_4 delta_2 delta_0
    lhs = family_mul(delta_slot(H, H.phi, 1), delta_slot(H, H.phi, 3))
    rhs = family_mul(family_mul(delta_slot(H, H.phi, 4),
                                delta_slot(H, H.phi, 2)),
                     delta_slot(H, H.phi, 0))
    rep.record("phi-pentagon", family_deviation(lhs, rhs, tol))

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
