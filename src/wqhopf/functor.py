"""Weak quasi tensor functors from a skeletal category into graded spaces.

A functor is determined by a weak dimension function D and one matrix pair
(c, c_inv) per ordered pair of simple labels.  Objects go to
F(w) = sum_z Mor(z, w) (x) K^{D(z)}, morphisms act blockwise with every
sector repeated D(z) times, and the word-level tensorator spreads the stored
pair matrices along the pair tree basis.  Each c is a split epimorphism:
c * c_inv is exactly the identity, while c_inv * c is the projector whose
image carries the reconstruction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .category import (UNIT, Morphism, Category, compose, dual_morphism,
                       elementary_morphisms, ev, identity_morphism, leaf,
                       pair, scale_morphism, tensor_morphisms, tree_index,
                       trees)
from .fusion import DimensionFunction, is_weak_dimension_function
from .linalg import (LinalgError, deviation, eye, inverse, kron, leg_rmatmul,
                     matmul, rank, reshape_vector, smul, transpose, zeros)
from .report import Report, witness


class FunctorError(ValueError):
    pass


@dataclass(eq=False)
class FunctorData:
    cat: Category
    D: DimensionFunction
    c: dict       # (a, b) -> matrix [sum_z N[a][b][z] D(z)] x [D(a) D(b)]
    c_inv: dict   # right inverses of transposed shape
    d: dict       # a -> invertible D(dual a) x D(a)
    seed: int
    strategy: str


def _offsets(F: FunctorData, w):
    """Start index of each z sector in the coordinate order (z, tree, copy)."""
    ring = F.cat.ring
    off, total = [], 0
    for z in range(ring.rank):
        off.append(total)
        total += len(trees(ring, z, w)) * F.D[z]
    return off, total


def functor_on_morphism(F: FunctorData, f: Morphism):
    one = F.cat.one
    roff, rows = _offsets(F, f.cod)
    coff, cols = _offsets(F, f.dom)
    out = zeros(rows, cols, one)
    for z, M in f.blocks.items():
        B = kron(M, eye(F.D[z], one))
        r0, c0 = roff[z], coff[z]
        for i, row in enumerate(B):
            out[r0 + i][c0:c0 + len(row)] = row
    return out


def _seeded_invertible(n, rng, one):
    """Integer-entry invertible matrix over the exact field, entries in -2..2."""
    for _ in range(64):
        M = [[one.rational(rng.randrange(-2, 3)) for _ in range(n)]
             for _ in range(n)]
        try:
            inverse(M)
            return M
        except LinalgError:
            continue
    raise FunctorError(f"no invertible {n}x{n} draw in 64 attempts")


def _pair_rows(ring, D, a, b):
    return sum(ring.N[a][b][z] * D[z] for z in range(ring.rank))


def build_functor(cat: Category, D: DimensionFunction,
                  strategy: str = "canonical", seed: int = 0) -> FunctorData:
    """Choose the tensorator pair family and solve the duality matrices.

    The canonical strategy takes the coordinate projection [I | 0] per pair;
    the random strategy composes it with a seeded invertible mix of the
    codomain.  Any pair whose evaluation row makes the duality equation
    singular is repaired by a further seeded mix, at most 16 times.
    """
    ring, one = cat.ring, cat.one
    wrep = is_weak_dimension_function(ring, D.values)
    if not wrep.passed:
        raise FunctorError("dimension vector fails: "
                           + ", ".join(c.id for c in wrep.failures()))
    if strategy not in ("canonical", "random"):
        raise FunctorError(f"unknown strategy {strategy!r}")
    rng = random.Random(f"functor:{strategy}:{seed}")
    c, c_inv = {}, {}
    for a in range(ring.rank):
        for b in range(ring.rank):
            R = _pair_rows(ring, D.values, a, b)
            C = D[a] * D[b]
            base = zeros(R, C, one)
            for i in range(R):
                base[i][i] = one
            base_inv = transpose(base)
            # dual pairs with a matrix block need their unit channel row to
            # reshape invertibly; repair the section with a mix of the domain
            # seeded by the dimension data alone, so every strategy and seed
            # shares one kernel per pair and twists stay comparable
            if b == ring.dual[a] and D[a] > 1:
                rep = random.Random(f"kernel:{D.values}:{a}")
                for attempt in range(17):
                    M0 = reshape_vector(base[0], D[b], D[a])
                    try:
                        inverse(M0)
                        break
                    except LinalgError:
                        if attempt == 16:
                            raise FunctorError(
                                f"no section with invertible pairing at "
                                f"({ring.labels[a]}, {ring.labels[b]})")
                        K = _seeded_invertible(C, rep, one)
                        base = matmul(base, K)
                        base_inv = matmul(inverse(K), base_inv)
            # unit pairs stay coordinate projections in every strategy: the
            # counit laws of the reconstruction read them as identities
            if strategy == "canonical" or 0 in (a, b):
                c[(a, b)] = base
                c_inv[(a, b)] = base_inv
            else:
                # mix the codomain only, preserving the shared kernel
                G = _seeded_invertible(R, rng, one)
                c[(a, b)] = matmul(G, base)
                c_inv[(a, b)] = matmul(base_inv, inverse(G))
    d = {}
    for a in range(ring.rank):
        ab = ring.dual[a]
        lam = ev(cat, a).blocks[0][0][0]
        for attempt in range(17):
            # the unit sector is the first coordinate row of c(dual a, a)
            M0 = reshape_vector(c[(ab, a)][0], D[ab], D[a])
            try:
                d[a] = smul(lam.inverse(), transpose(inverse(M0)))
                break
            except LinalgError:
                if attempt == 16:
                    raise FunctorError(
                        f"duality pairing stayed singular at label "
                        f"{ring.labels[a]} after 16 repairs")
                G = _seeded_invertible(_pair_rows(ring, D.values, ab, a),
                                       rng, one)
                c[(ab, a)] = matmul(G, c[(ab, a)])
                c_inv[(ab, a)] = matmul(c_inv[(ab, a)], inverse(G))
    return FunctorData(cat, D, c, c_inv, d, seed, strategy)


def _pair_sectors(F: FunctorData, x, y):
    """Per label z, the first row in c[(x, y)] of each sector (z, tree) of
    F(x (x) y), in tree order; a sector spans D(z) rows from its start."""
    ring, D = F.cat.ring, F.D.values
    out, row = [], 0
    for z in range(ring.rank):
        out.append([row + mu * D[z] for mu in range(ring.N[x][y][z])])
        row += ring.N[x][y][z] * D[z]
    return out


def tensorator(F: FunctorData, w1, w2):
    """Word-level (c, c_inv): stored pair matrices spread along pair trees.

    A tree of w1 (x) w2 is (x, y, t1, t2, mu); the tensorator routes the
    (t1, t2) coordinate block of F(w1) (x) F(w2) through the stored matrix
    for the simple pair (x, y) at channel row (z, mu).
    """
    ring, one = F.cat.ring, F.cat.one
    Dv = F.D.values
    off1, tot1 = _offsets(F, w1)
    off2, tot2 = _offsets(F, w2)
    pw = pair(w1, w2)
    rows = _offsets(F, pw)[1]
    C = zeros(rows, tot1 * tot2, one)
    Ci = zeros(tot1 * tot2, rows, one)
    ro = 0
    for z in range(ring.rank):
        for t in trees(ring, z, pw):
            x, y, t1, t2, mu = t
            i1 = tree_index(ring, x, w1)[t1]
            i2 = tree_index(ring, y, w2)[t2]
            base1 = off1[x] + i1 * Dv[x]
            base2 = off2[y] + i2 * Dv[y]
            sc = F.c[(x, y)]
            sci = F.c_inv[(x, y)]
            srow = _pair_sectors(F, x, y)[z][mu]
            # pair column i * D(y) + j is (i, j) of the (t1, t2) block
            cols = [(base1 + i) * tot2 + base2 + j
                    for i in range(Dv[x]) for j in range(Dv[y])]
            for k in range(Dv[z]):
                for col, v, vrow in zip(cols, sc[srow + k], sci):
                    C[ro + k][col] = v
                    Ci[col][ro + k] = vrow[srow + k]
            ro += Dv[z]
    return C, Ci


def _word_list(F: FunctorData, count3: int = 4):
    """Deterministic word sample: unit, all leaves and pairs, a few triples."""
    ring = F.cat.ring
    words = [UNIT] + [leaf(a) for a in range(ring.rank)]
    words += [pair(leaf(a), leaf(b))
              for a in range(ring.rank) for b in range(ring.rank)]
    rng = random.Random(f"words:{ring.rank}")
    triples = [(a, b, c) for a in range(ring.rank)
               for b in range(ring.rank) for c in range(ring.rank)]
    rng.shuffle(triples)
    for a, b, c in triples[:count3]:
        words.append(pair(pair(leaf(a), leaf(b)), leaf(c)))
        words.append(pair(leaf(a), pair(leaf(b), leaf(c))))
    return words


def _sample_morphism(ring, w, y, one, rng):
    """Deterministic integer combination of the elementary basis of Mor(w,y)."""
    blocks = {}
    for z in range(ring.rank):
        ct, dt = trees(ring, z, y), trees(ring, z, w)
        if not ct or not dt:
            continue
        blocks[z] = [[one.rational(rng.randrange(-2, 3)) for _ in dt]
                     for _ in ct]
    return Morphism(ring, w, y, blocks, one)


def verify_functor(F: FunctorData, tol: float = 0.0) -> Report:
    ring, one = F.cat.ring, F.cat.one
    rep = Report()
    rng = random.Random("verify-functor")
    words = _word_list(F)

    parts = []
    for iw, w in enumerate(words):
        M = functor_on_morphism(F, identity_morphism(ring, w, one))
        parts.append(witness((iw,), deviation(M, eye(len(M), one), tol)))
    rep.record("functor-identity", *parts)

    parts = []
    pairs = [(w, y) for w in words for y in words if w is not y]
    rng.shuffle(pairs)
    for iw, (w, y) in enumerate(pairs[:10] + [(w, w) for w in words]):
        f = _sample_morphism(ring, y, w, one, rng)
        g = _sample_morphism(ring, w, y, one, rng)
        lhs = functor_on_morphism(F, compose(f, g))
        rhs = matmul(functor_on_morphism(F, f), functor_on_morphism(F, g))
        parts.append(witness((iw,), deviation(lhs, rhs, tol)))
    rep.record("functor-compose", *parts)

    parts = []
    for a in range(ring.rank):
        for b in range(ring.rank):
            M = matmul(F.c[(a, b)], F.c_inv[(a, b)])
            parts.append(witness((a, b), deviation(M, eye(len(M), one), tol)))
            P = matmul(F.c_inv[(a, b)], F.c[(a, b)])
            R = _pair_rows(ring, F.D.values, a, b)
            differs, worst = deviation(matmul(P, P), P, tol)
            parts.append(witness((a, b), (differs or rank(P) != R, worst)))
    rep.record("tensorator-section", *parts)

    parts = []
    wpairs = [(w1, w2) for w1 in words for w2 in words]
    rng.shuffle(wpairs)
    for iw, (w1, w2) in enumerate(wpairs[:8]):
        y1 = rng.choice(words)
        y2 = rng.choice(words)
        f = _sample_morphism(ring, w1, y1, one, rng)
        g = _sample_morphism(ring, w2, y2, one, rng)
        cd, _ = tensorator(F, w1, w2)
        cc, _ = tensorator(F, y1, y2)
        lhs = matmul(functor_on_morphism(F, tensor_morphisms(f, g)), cd)
        rhs = matmul(cc, kron(functor_on_morphism(F, f),
                              functor_on_morphism(F, g)))
        parts.append(witness((iw,), deviation(lhs, rhs, tol)))
    rep.record("tensorator-natural", *parts)

    bad = []
    for a in range(ring.rank):
        for key in ((0, a), (a, 0)):
            M = F.c[key]
            try:
                inverse(M)
            except LinalgError:
                bad.append(key)
    for w in words[:6]:
        CU, _ = tensorator(F, UNIT, w)
        try:
            inverse(CU)
        except LinalgError:
            bad.append((-1,))
    rep.add("tensorator-unit-iso", not bad, float(len(bad)), bad)

    bad = []
    for iw, (w, y) in enumerate(pairs[:6] + [(w, w) for w in words]):
        for jb, f in enumerate(elementary_morphisms(ring, w, y, one)):
            M = functor_on_morphism(F, f)
            if all(x.is_zero() for row in M for x in row):
                bad.append((iw, jb))
    rep.add("functor-faithful", not bad, float(len(bad)), bad)
    return rep


def verify_duality(F: FunctorData, tol: float = 0.0) -> Report:
    """Pairing equation, invertibility, and naturality of the d matrices."""
    cat = F.cat
    ring, one = cat.ring, cat.one
    rep = Report()
    parts = []
    for a in range(ring.rank):
        ab = ring.dual[a]
        Da = F.D[a]
        fe = functor_on_morphism(F, ev(cat, a))
        cw, _ = tensorator(F, leaf(ab), leaf(a))
        lhs = leg_rmatmul(matmul(fe, cw), F.d[a], 1, Da)
        svec = [[one.rational(1) if i == j else one.rational(0)
                 for i in range(Da) for j in range(Da)]]
        parts.append(witness((a,), deviation(lhs, svec, tol)))
    rep.record("duality-pairing", *parts)

    bad = []
    for a in range(ring.rank):
        try:
            inverse(F.d[a])
        except LinalgError:
            bad.append((a,))
    rep.add("duality-invertible", not bad, float(len(bad)), bad)

    parts = []
    for a in range(ring.rank):
        s = one.rational(2) if a % 2 else one.rational(-3)
        f = scale_morphism(s, identity_morphism(ring, leaf(a), one))
        lhs = matmul(F.d[a], transpose(functor_on_morphism(F, f)))
        rhs = matmul(functor_on_morphism(F, dual_morphism(cat, f)), F.d[a])
        parts.append(witness((a,), deviation(lhs, rhs, tol)))
    rep.record("duality-natural", *parts)
    return rep
