"""Skeletal semisimple braided tensor categories.

Objects are tensor words (binary trees of simple labels; the empty word is
the unit).  A morphism is stored blockwise: for each simple channel z, a
matrix between the fusion-tree bases of Mor(z, domain) and Mor(z, codomain).
Composition is blockwise matrix product; the tensor product of morphisms is
pure index bookkeeping on trees.  F-data enters only through associators,
R-data only through braidings.

Tree basis order for a word w1 (x) w2 at channel z: outer channel of w1
ascending, channel of w2 ascending, then recursively the trees of each
factor, multiplicity index innermost.  For the words a (x) (b (x) c) and
(a (x) b) (x) c this reproduces exactly the (e, alpha, beta) and
(f, gamma, delta) orderings of the stored F-tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from .fusion import FusionRing, verify_fusion_ring
from .linalg import (deviation, dims, eye, inverse, is_identity, matmul, smul,
                     zeros)
from .report import Report, witness
from .scalars import Cyc, scalars_equal


class CategoryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# tensor words
# ---------------------------------------------------------------------------

UNIT = ("unit",)


def leaf(a: int):
    return ("leaf", int(a))


def pair(w1, w2):
    return ("pair", w1, w2)


def word_str(ring: FusionRing, w) -> str:
    if w == UNIT:
        return "1"
    if w[0] == "leaf":
        return ring.labels[w[1]]
    return f"({word_str(ring, w[1])}*{word_str(ring, w[2])})"


def dual_word(ring: FusionRing, w):
    if w == UNIT:
        return UNIT
    if w[0] == "leaf":
        return leaf(ring.dual[w[1]])
    return pair(dual_word(ring, w[2]), dual_word(ring, w[1]))


# ---------------------------------------------------------------------------
# fusion-tree bases
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def trees(ring: FusionRing, z: int, w) -> tuple:
    if w == UNIT:
        return ((),) if z == 0 else ()
    if w[0] == "leaf":
        return ((),) if z == w[1] else ()
    _, w1, w2 = w
    out = []
    for z1 in range(ring.rank):
        t1s = trees(ring, z1, w1)
        if not t1s:
            continue
        for z2 in range(ring.rank):
            m = ring.N[z1][z2][z]
            if not m:
                continue
            t2s = trees(ring, z2, w2)
            for t1 in t1s:
                for t2 in t2s:
                    for mu in range(m):
                        out.append((z1, z2, t1, t2, mu))
    return tuple(out)


@lru_cache(maxsize=None)
def tree_index(ring: FusionRing, z: int, w) -> dict:
    return {t: i for i, t in enumerate(trees(ring, z, w))}


def channels(ring: FusionRing, w):
    return [z for z in range(ring.rank) if trees(ring, z, w)]


@lru_cache(maxsize=None)
def e_triples(ring: FusionRing, a, b, c, d) -> tuple:
    """Right-decomposition index set of Mor(a(bc), d): (e, alpha, beta)."""
    return tuple((e, al, be)
                 for e in range(ring.rank)
                 for al in range(ring.N[b][c][e])
                 for be in range(ring.N[a][e][d]))


@lru_cache(maxsize=None)
def f_triples(ring: FusionRing, a, b, c, d) -> tuple:
    """Left-decomposition index set: (f, gamma, delta)."""
    return tuple((f, ga, de)
                 for f in range(ring.rank)
                 for ga in range(ring.N[a][b][f])
                 for de in range(ring.N[f][c][d]))


@lru_cache(maxsize=None)
def _triple_pos(triples) -> dict:
    return {t: i for i, t in enumerate(triples)}


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Morphism:
    ring: FusionRing
    dom: tuple
    cod: tuple
    blocks: dict
    one: object  # field unit scalar, fixes the backend

    def block(self, z):
        b = self.blocks.get(z)
        if b is not None:
            return b
        return zeros(len(trees(self.ring, z, self.cod)),
                     len(trees(self.ring, z, self.dom)), self.one)

    def __repr__(self):
        return (f"Morphism({word_str(self.ring, self.dom)} -> "
                f"{word_str(self.ring, self.cod)}, channels={sorted(self.blocks)})")


def _prune(blocks):
    return {z: M for z, M in blocks.items()
            if M and M[0] and any(not x.is_zero() for row in M for x in row)}


def identity_morphism(ring, w, one) -> Morphism:
    blocks = {z: eye(len(trees(ring, z, w)), one) for z in channels(ring, w)}
    return Morphism(ring, w, w, blocks, one)


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f."""
    if f.cod != g.dom:
        raise CategoryError(
            f"composition mismatch: {word_str(f.ring, f.cod)} vs {word_str(g.ring, g.dom)}")
    blocks = {z: matmul(g.blocks[z], f.blocks[z])
              for z in f.blocks.keys() & g.blocks.keys()}
    return Morphism(f.ring, f.dom, g.cod, _prune(blocks), f.one)


def compose_path(*fs) -> Morphism:
    """Compose left to right in application order: the first argument acts first."""
    out = fs[0]
    for f in fs[1:]:
        out = compose(f, out)
    return out


def tensor_morphisms(f: Morphism, g: Morphism) -> Morphism:
    ring = f.ring
    dom = pair(f.dom, g.dom)
    cod = pair(f.cod, g.cod)
    blocks = {}
    for z in channels(ring, dom):
        dt = trees(ring, z, dom)
        ct = trees(ring, z, cod)
        if not ct:
            continue
        cidx = tree_index(ring, z, cod)
        M = zeros(len(ct), len(dt), f.one)
        for j, (z1, z2, t1, t2, mu) in enumerate(dt):
            fb = f.blocks.get(z1)
            gb = g.blocks.get(z2)
            if fb is None or gb is None:
                continue
            jf = tree_index(ring, z1, f.dom)[t1]
            jg = tree_index(ring, z2, g.dom)[t2]
            for i1, u1 in enumerate(trees(ring, z1, f.cod)):
                x = fb[i1][jf]
                if x.is_zero():
                    continue
                for i2, u2 in enumerate(trees(ring, z2, g.cod)):
                    y = gb[i2][jg]
                    if y.is_zero():
                        continue
                    i = cidx.get((z1, z2, u1, u2, mu))
                    if i is None:
                        continue
                    M[i][j] = M[i][j] + x * y
        blocks[z] = M
    return Morphism(ring, dom, cod, _prune(blocks), f.one)


def scale_morphism(s, f: Morphism) -> Morphism:
    return Morphism(f.ring, f.dom, f.cod,
                    _prune({z: smul(s, M) for z, M in f.blocks.items()}), f.one)


def invert_morphism(f: Morphism) -> Morphism:
    ring = f.ring
    blocks = {}
    for z in range(ring.rank):
        nd = len(trees(ring, z, f.dom))
        nc = len(trees(ring, z, f.cod))
        if nd != nc:
            raise CategoryError(f"non-square channel {ring.labels[z]}: {nc}x{nd}")
        if nd == 0:
            continue
        blocks[z] = inverse(f.block(z))
    return Morphism(ring, f.cod, f.dom, _prune(blocks), f.one)


def _blocks_deviation(f: Morphism, g: Morphism, tol: float = 0.0):
    """linalg.deviation over the channel blocks: (differs, worst).  Morphisms
    between different words differ."""
    found = [deviation(f.block(z), g.block(z), tol)
             for z in f.blocks.keys() | g.blocks.keys()]
    return ((f.dom, f.cod) != (g.dom, g.cod) or any(d for d, _ in found),
            max((w for _, w in found), default=0.0))


def morphisms_equal(f: Morphism, g: Morphism, tol: float = 0.0) -> bool:
    return not _blocks_deviation(f, g, tol)[0]


def is_identity_morphism(f: Morphism, tol: float = 0.0) -> bool:
    return morphisms_equal(f, identity_morphism(f.ring, f.dom, f.one), tol)


def elementary_morphisms(ring, w, y, one):
    """Basis of Mor(w, y): one morphism per channel z and tree pair (i, j)."""
    out = []
    for z in range(ring.rank):
        ct, dt = trees(ring, z, y), trees(ring, z, w)
        for i in range(len(ct)):
            for j in range(len(dt)):
                M = zeros(len(ct), len(dt), one)
                M[i][j] = one
                out.append(Morphism(ring, w, y, {z: M}, one))
    return out


# ---------------------------------------------------------------------------
# category data
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Category:
    ring: FusionRing
    F: dict
    R: dict | None
    theta: tuple | None
    name: str = ""
    one: object = None
    _ev_coef: dict = field(default_factory=dict, repr=False)
    _qdim: dict = field(default_factory=dict, repr=False)

    @property
    def braided(self) -> bool:
        return self.R is not None


def make_category(ring, F, R=None, theta=None, name="", one=None) -> Category:
    one = one if one is not None else Cyc.rational(1)
    Fs = {}
    for (a, b, c, d), M in F.items():
        ets, fts = e_triples(ring, a, b, c, d), f_triples(ring, a, b, c, d)
        if len(ets) != len(fts):
            raise CategoryError(f"fusion ring inconsistent at {(a, b, c, d)}")
        if not ets:
            raise CategoryError(f"F-table at inadmissible tuple {(a, b, c, d)}")
        if dims(M) != (len(ets), len(fts)):
            raise CategoryError(f"F-table shape at {(a, b, c, d)}: "
                                f"{dims(M)} != {(len(ets), len(fts))}")
        if 0 in (a, b, c):
            if not is_identity(M):
                raise CategoryError(f"unit F-table at {(a, b, c, d)} must be the identity")
            continue  # synthesized on demand
        Fs[(a, b, c, d)] = M
    Rs = None
    if R is not None:
        Rs = {}
        for (a, b, c), M in R.items():
            m = ring.N[a][b][c]
            if m == 0:
                raise CategoryError(f"R-table at inadmissible triple {(a, b, c)}")
            if dims(M) != (m, ring.N[b][a][c]) or m != ring.N[b][a][c]:
                raise CategoryError(f"R-table shape at {(a, b, c)}")
            if 0 in (a, b):
                if not is_identity(M):
                    raise CategoryError(f"unit R-table at {(a, b, c)} must be the identity")
                continue
            Rs[(a, b, c)] = M
    th = None
    if theta is not None:
        th = tuple(theta)
        if len(th) != ring.rank:
            raise CategoryError("theta must assign one scalar per label")
    return Category(ring, Fs, Rs, th, name, one)


def ftable(cat: Category, a, b, c, d):
    M = cat.F.get((a, b, c, d))
    if M is not None:
        return M
    ets = e_triples(cat.ring, a, b, c, d)
    if not ets:
        raise CategoryError(f"inadmissible F-tuple {(a, b, c, d)}")
    if 0 in (a, b, c):
        return eye(len(ets), cat.one)
    raise CategoryError(f"missing F-table at {(a, b, c, d)}")


def rtable(cat: Category, a, b, c):
    if cat.R is None:
        raise CategoryError("category carries no braiding data")
    M = cat.R.get((a, b, c))
    if M is not None:
        return M
    m = cat.ring.N[a][b][c]
    if m == 0:
        raise CategoryError(f"inadmissible R-triple {(a, b, c)}")
    if 0 in (a, b):
        return eye(m, cat.one)
    raise CategoryError(f"missing R-table at {(a, b, c)}")


def admissible_ftuples(ring: FusionRing):
    out = []
    for a, b, c in product(range(ring.rank), repeat=3):
        for d in range(ring.rank):
            if e_triples(ring, a, b, c, d):
                out.append((a, b, c, d))
    return out


# ---------------------------------------------------------------------------
# structural morphisms
# ---------------------------------------------------------------------------

def associator(cat: Category, X, Y, Z) -> Morphism:
    """The recoupling isomorphism X*(Y*Z) -> (X*Y)*Z on arbitrary words."""
    ring = cat.ring
    dom = pair(X, pair(Y, Z))
    cod = pair(pair(X, Y), Z)
    blocks = {}
    for w in channels(ring, dom):
        dt = trees(ring, w, dom)
        cidx = tree_index(ring, w, cod)
        M = zeros(len(cidx), len(dt), cat.one)
        for j, (x, u, tX, tYZ, beta) in enumerate(dt):
            y, z, tY, tZ, alpha = tYZ
            tbl = ftable(cat, x, y, z, w)
            row = _triple_pos(e_triples(ring, x, y, z, w))[(u, alpha, beta)]
            for col, (v, gamma, delta) in enumerate(f_triples(ring, x, y, z, w)):
                val = tbl[row][col]
                if val.is_zero():
                    continue
                i = cidx[(v, z, (x, y, tX, tY, gamma), tZ, delta)]
                M[i][j] = M[i][j] + val
        blocks[w] = M
    return Morphism(ring, dom, cod, _prune(blocks), cat.one)


def associator_inv(cat: Category, X, Y, Z) -> Morphism:
    return invert_morphism(associator(cat, X, Y, Z))


def braiding(cat: Category, X, Y) -> Morphism:
    """The braiding X*Y -> Y*X, extended to words by naturality."""
    ring = cat.ring
    dom = pair(X, Y)
    cod = pair(Y, X)
    blocks = {}
    for w in channels(ring, dom):
        dt = trees(ring, w, dom)
        cidx = tree_index(ring, w, cod)
        M = zeros(len(cidx), len(dt), cat.one)
        for j, (x, y, tX, tY, mu) in enumerate(dt):
            tbl = rtable(cat, x, y, w)
            for nu in range(ring.N[y][x][w]):
                val = tbl[mu][nu]
                if val.is_zero():
                    continue
                i = cidx[(y, x, tY, tX, nu)]
                M[i][j] = M[i][j] + val
        blocks[w] = M
    return Morphism(ring, dom, cod, _prune(blocks), cat.one)


def braiding_inv(cat: Category, X, Y) -> Morphism:
    """Inverse of braiding(X, Y): a morphism Y*X -> X*Y."""
    return invert_morphism(braiding(cat, X, Y))


def lunit(ring, X, one) -> Morphism:
    """1*X -> X (pure tree relabeling)."""
    blocks = {z: eye(len(trees(ring, z, X)), one) for z in channels(ring, X)}
    return Morphism(ring, pair(UNIT, X), X, blocks, one)


def runit(ring, X, one) -> Morphism:
    blocks = {z: eye(len(trees(ring, z, X)), one) for z in channels(ring, X)}
    return Morphism(ring, pair(X, UNIT), X, blocks, one)


def lunit_inv(ring, X, one) -> Morphism:
    m = lunit(ring, X, one)
    return Morphism(ring, X, m.dom, m.blocks, one)


def runit_inv(ring, X, one) -> Morphism:
    m = runit(ring, X, one)
    return Morphism(ring, X, m.dom, m.blocks, one)


def twist_morphism(cat: Category, w) -> Morphism:
    if cat.theta is None:
        raise CategoryError("category carries no twist data")
    ring = cat.ring
    blocks = {z: smul(cat.theta[z], eye(len(trees(ring, z, w)), cat.one))
              for z in channels(ring, w)}
    return Morphism(ring, w, w, _prune(blocks), cat.one)


def twist_inv_morphism(cat: Category, w) -> Morphism:
    if cat.theta is None:
        raise CategoryError("category carries no twist data")
    ring = cat.ring
    blocks = {z: smul(cat.theta[z].inverse(), eye(len(trees(ring, z, w)), cat.one))
              for z in channels(ring, w)}
    return Morphism(ring, w, w, _prune(blocks), cat.one)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def coev(cat: Category, a: int) -> Morphism:
    """1 -> a * dual(a), the canonical basis vector of the fusion channel."""
    ring = cat.ring
    if ring.N[a][ring.dual[a]][0] != 1:
        raise CategoryError(f"label {ring.labels[a]} has no canonical pairing channel")
    cod = pair(leaf(a), leaf(ring.dual[a]))
    return Morphism(ring, UNIT, cod, {0: [[cat.one]]}, cat.one)


def ev(cat: Category, a: int) -> Morphism:
    """dual(a) * a -> 1, normalized so the first snake identity holds."""
    lam = _ev_coefficient(cat, a)
    ring = cat.ring
    dom = pair(leaf(ring.dual[a]), leaf(a))
    return Morphism(ring, dom, UNIT, {0: [[lam]]}, cat.one)


def _ev_coefficient(cat: Category, a: int):
    lam = cat._ev_coef.get(a)
    if lam is not None:
        return lam
    ring, one = cat.ring, cat.one
    ab = ring.dual[a]
    if ring.N[ab][a][0] != 1:
        raise CategoryError(f"label {ring.labels[a]} has no canonical pairing channel")
    raw = Morphism(ring, pair(leaf(ab), leaf(a)), UNIT, {0: [[one]]}, one)
    A = leaf(a)
    comp = compose_path(
        lunit_inv(ring, A, one),
        tensor_morphisms(coev(cat, a), identity_morphism(ring, A, one)),
        associator_inv(cat, A, leaf(ab), A),
        tensor_morphisms(identity_morphism(ring, A, one), raw),
        runit(ring, A, one),
    )
    kappa = comp.block(a)[0][0]
    if kappa.is_zero():
        raise CategoryError(
            f"evaluation normalization is singular at label {ring.labels[a]}")
    lam = kappa.inverse()
    cat._ev_coef[a] = lam
    return lam


def ev_word(cat: Category, w) -> Morphism:
    """dual(w) * w -> 1 built recursively with explicit associators."""
    ring, one = cat.ring, cat.one
    if w == UNIT:
        return lunit(ring, UNIT, one)
    if w[0] == "leaf":
        return ev(cat, w[1])
    _, w1, w2 = w
    A = dual_word(ring, w2)
    B = dual_word(ring, w1)
    idA = identity_morphism(ring, A, one)
    idD = identity_morphism(ring, w2, one)
    return compose_path(
        associator_inv(cat, A, B, pair(w1, w2)),
        tensor_morphisms(idA, associator(cat, B, w1, w2)),
        tensor_morphisms(idA, tensor_morphisms(ev_word(cat, w1), idD)),
        tensor_morphisms(idA, lunit(ring, w2, one)),
        ev_word(cat, w2),
    )


def coev_word(cat: Category, w) -> Morphism:
    """1 -> w * dual(w)."""
    ring, one = cat.ring, cat.one
    if w == UNIT:
        return lunit_inv(ring, UNIT, one)
    if w[0] == "leaf":
        return coev(cat, w[1])
    _, w1, w2 = w
    w1s = dual_word(ring, w1)
    w2s = dual_word(ring, w2)
    id1 = identity_morphism(ring, w1, one)
    id1s = identity_morphism(ring, w1s, one)
    return compose_path(
        coev_word(cat, w1),
        tensor_morphisms(id1, lunit_inv(ring, w1s, one)),
        tensor_morphisms(id1, tensor_morphisms(coev_word(cat, w2), id1s)),
        tensor_morphisms(id1, associator_inv(cat, w2, w2s, w1s)),
        associator(cat, w1, w2, pair(w2s, w1s)),
    )


def dual_morphism(cat: Category, f: Morphism) -> Morphism:
    """f*: dual(cod f) -> dual(dom f)."""
    ring, one = cat.ring, cat.one
    w, y = f.dom, f.cod
    ws, ys = dual_word(ring, w), dual_word(ring, y)
    idys = identity_morphism(ring, ys, one)
    idws = identity_morphism(ring, ws, one)
    return compose_path(
        runit_inv(ring, ys, one),
        tensor_morphisms(idys, coev_word(cat, w)),
        tensor_morphisms(idys, tensor_morphisms(f, idws)),
        associator(cat, ys, y, ws),
        tensor_morphisms(ev_word(cat, y), idws),
        lunit(ring, ws, one),
    )


# ---------------------------------------------------------------------------
# trace and conditional expectation
# ---------------------------------------------------------------------------

def qdim(cat: Category, a: int):
    d = cat._qdim.get(a)
    if d is not None:
        return d
    f = identity_morphism(cat.ring, leaf(a), cat.one)
    d = trace_categorical(cat, f)
    cat._qdim[a] = d
    return d


def trace_categorical(cat: Category, f: Morphism):
    """tr(f) as the full categorical composite (slow; reference route)."""
    if f.dom != f.cod:
        raise CategoryError("trace of a non-endomorphism")
    ring, one = cat.ring, cat.one
    w = f.dom
    ws = dual_word(ring, w)
    comp = compose_path(
        coev_word(cat, w),
        braiding(cat, w, ws),
        tensor_morphisms(identity_morphism(ring, ws, one),
                         compose(f, twist_inv_morphism(cat, w))),
        ev_word(cat, w),
    )
    return comp.block(0)[0][0]


def trace(cat: Category, f: Morphism):
    """tr(f) via the isotypic decomposition: sum of block traces times d(z)."""
    if f.dom != f.cod:
        raise CategoryError("trace of a non-endomorphism")
    out = cat.one - cat.one
    for z, M in f.blocks.items():
        s = out - out
        for i in range(len(M)):
            s = s + M[i][i]
        out = out + s * qdim(cat, z)
    return out


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def verify_pentagon(cat: Category, tol: float = 0.0) -> Report:
    ring, one = cat.ring, cat.one
    parts = []
    for a, b, c, d in product(range(ring.rank), repeat=4):
        A, B, C, D = leaf(a), leaf(b), leaf(c), leaf(d)
        lhs = compose_path(
            tensor_morphisms(identity_morphism(ring, A, one), associator(cat, B, C, D)),
            associator(cat, A, pair(B, C), D),
            tensor_morphisms(associator(cat, A, B, C), identity_morphism(ring, D, one)),
        )
        rhs = compose_path(
            associator(cat, A, B, pair(C, D)),
            associator(cat, pair(A, B), C, D),
        )
        parts.append(witness((a, b, c, d), _blocks_deviation(lhs, rhs, tol)))
    rep = Report()
    rep.record("pentagon", *parts)
    return rep


def verify_hexagons(cat: Category, tol: float = 0.0) -> Report:
    ring, one = cat.ring, cat.one
    rep = Report()
    for name, braid in (
        ("hexagon-braid", lambda U, V: braiding(cat, U, V)),
        ("hexagon-braid-inverse", lambda U, V: braiding_inv(cat, V, U)),
    ):
        parts = []
        for x, y, z in product(range(ring.rank), repeat=3):
            X, Y, Z = leaf(x), leaf(y), leaf(z)
            idY = identity_morphism(ring, Y, one)
            idZ = identity_morphism(ring, Z, one)
            lhs = compose_path(
                associator_inv(cat, X, Y, Z),
                braid(X, pair(Y, Z)),
                associator_inv(cat, Y, Z, X),
            )
            rhs = compose_path(
                tensor_morphisms(braid(X, Y), idZ),
                associator_inv(cat, Y, X, Z),
                tensor_morphisms(idY, braid(X, Z)),
            )
            parts.append(witness((x, y, z), _blocks_deviation(lhs, rhs, tol)))
        rep.record(name, *parts)
    return rep


def verify_ribbon(cat: Category, tol: float = 0.0) -> Report:
    ring = cat.ring
    rep = Report()
    if cat.theta is None:
        rep.add("ribbon-data", False, 0.0, ())
        return rep
    differs, worst = deviation([[cat.theta[0]]], [[cat.one]], tol)
    rep.add("ribbon-unit", not differs, worst)
    dual_bad = [(a,) for a in range(ring.rank)
                if not scalars_equal(cat.theta[a], cat.theta[ring.dual[a]], tol)]
    rep.add("ribbon-duality", not dual_bad, float(len(dual_bad)), dual_bad)

    parts = []
    for a, b in product(range(ring.rank), repeat=2):
        A, B = leaf(a), leaf(b)
        double = compose(braiding(cat, B, A), braiding(cat, A, B))
        for c in channels(ring, pair(A, B)):
            s = cat.theta[a] * cat.theta[b] / cat.theta[c]
            target = smul(s, eye(ring.N[a][b][c], cat.one))
            parts.append(witness((a, b, c),
                                 deviation(double.block(c), target, tol)))
    rep.record("ribbon-double-braid", *parts)
    return rep


def verify_snakes(cat: Category, tol: float = 0.0) -> Report:
    ring, one = cat.ring, cat.one
    rep = Report()
    right, left = [], []
    for a in range(ring.rank):
        A, As = leaf(a), leaf(ring.dual[a])
        idA = identity_morphism(ring, A, one)
        idAs = identity_morphism(ring, As, one)
        try:
            snake1 = compose_path(
                lunit_inv(ring, A, one),
                tensor_morphisms(coev(cat, a), idA),
                associator_inv(cat, A, As, A),
                tensor_morphisms(idA, ev(cat, a)),
                runit(ring, A, one),
            )
            right.append(witness((a,), _blocks_deviation(snake1, idA, tol)))
            snake2 = compose_path(
                runit_inv(ring, As, one),
                tensor_morphisms(idAs, coev(cat, a)),
                associator(cat, As, A, As),
                tensor_morphisms(ev(cat, a), idAs),
                lunit(ring, As, one),
            )
            left.append(witness((a,), _blocks_deviation(snake2, idAs, tol)))
        except CategoryError:
            right.append(([(a,)], 0.0))
    rep.record("snake-right", *right)
    rep.record("snake-left", *left)
    return rep


def verify_f_invertibility(cat: Category, tol: float = 0.0) -> Report:
    from .linalg import LinalgError, rank
    ring = cat.ring
    bad = []
    for key in admissible_ftuples(ring):
        M = ftable(cat, *key)
        n = len(M)
        try:
            if rank(M, tol) != n:
                bad.append(key)
        except LinalgError:
            bad.append(key)
    rep = Report()
    rep.add("f-invertible", not bad, float(len(bad)), bad)
    return rep


def verify_category(cat: Category, tol: float = 0.0) -> Report:
    rep = verify_fusion_ring(cat.ring)
    rep.extend(verify_f_invertibility(cat, tol))
    rep.extend(verify_pentagon(cat, tol))
    rep.extend(verify_snakes(cat, tol))
    if cat.braided:
        rep.extend(verify_hexagons(cat, tol))
    if cat.theta is not None:
        rep.extend(verify_ribbon(cat, tol))
    return rep


# ---------------------------------------------------------------------------
# gauge action (test utility)
# ---------------------------------------------------------------------------

def gauge_transform(cat: Category, u: dict) -> Category:
    """Rescale the splitting basis of each fusion channel by u[(a,b,c)].

    Only multiplicity-free data is supported; unit channels must keep u = 1.
    The twist is gauge invariant.
    """
    ring = cat.ring
    if any(x > 1 for p in ring.N for row in p for x in row):
        raise CategoryError("gauge transform implemented for multiplicity-free data only")

    def g(a, b, c):
        if a == 0 or b == 0:
            return cat.one
        return u.get((a, b, c), cat.one)

    F2 = {}
    for (a, b, c, d), M in cat.F.items():
        ets, fts = e_triples(ring, a, b, c, d), f_triples(ring, a, b, c, d)
        F2[(a, b, c, d)] = [
            [M[i][j] * g(b, c, e) * g(a, e, d) / (g(a, b, f) * g(f, c, d))
             for j, (f, _, _) in enumerate(fts)]
            for i, (e, _, _) in enumerate(ets)]
    R2 = None
    if cat.R is not None:
        R2 = {k: [[M[0][0] * g(k[0], k[1], k[2]) / g(k[1], k[0], k[2])]]
              for k, M in cat.R.items()}
    return make_category(ring, F2, R2, cat.theta, cat.name + "-gauged", cat.one)
