"""Brute-force pentagon/hexagon solver for tiny multiplicity-free rings.

This is the oracle that generates the non-pointed catalog data.  It assembles
the polynomial equations directly from scratch (no shared code with the
word-level verifiers in the category module), eliminates variables by
propagation, branches on the few genuinely quantized choices, and certifies
every surviving assignment by exact back-substitution.

Unknowns are the entries of the F-tables whose three upper labels are all
non-unit (unit tables are pinned to the identity), and in the hexagon stage
the R-scalars together with formal inverses.  The gauge freedom (one nonzero
scalar per non-unit fusion channel) is fixed partially: a variable may be
normalized to 1 only when its gauge weight enlarges the span of the weights
of everything already assigned nonzero, so no solutions are lost and the
residual gauge stays available for the hexagon stage.

All arithmetic is exact over cyclotomic fields; square roots and radicals are
taken inside a designated field Q(zeta_conductor) and branches whose values
leave it are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm

from .fusion import FusionRing
from .linalg import eye, inverse, LinalgError
from .scalars import Cyc, roots_of_unity, sqrt_in_field


class SolverError(ValueError):
    pass


MAX_TABLES = 12

_ONE = Cyc.rational(1)
_ZERO = Cyc.rational(0)


# ---------------------------------------------------------------------------
# sparse polynomials: monomial = sorted tuple of var ids (repeats = powers)
# ---------------------------------------------------------------------------

def _padd(p, q):
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, _ZERO) + c
        if s.is_zero():
            out.pop(m, None)
        else:
            out[m] = s
    return out


def _pmulp(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(sorted(m1 + m2))
            s = out.get(m, _ZERO) + c1 * c2
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
    return out


def _pneg(p):
    return {m: -c for m, c in p.items()}


def _pconst(c):
    return {} if c.is_zero() else {(): c}


def _pvar(i):
    return {(i,): _ONE}


def _psubst(p, i, val):
    """Substitute variable i by the scalar val."""
    out = {}
    for m, c in p.items():
        k = m.count(i)
        if k:
            c = c * val ** k
            m = tuple(v for v in m if v != i)
        if c.is_zero():
            continue
        s = out.get(m, _ZERO) + c
        if s.is_zero():
            out.pop(m, None)
        else:
            out[m] = s
    return out


def _peval(p, assign):
    total = _ZERO
    for m, c in p.items():
        for v in m:
            c = c * assign[v]
        total = total + c
    return total


def _psubst_poly(p, i, expr):
    """Substitute variable i by the polynomial expr."""
    out = {}
    for m, c in p.items():
        k = m.count(i)
        term = {tuple(v for v in m if v != i): c}
        for _ in range(k):
            term = _pmulp(term, expr)
        out = _padd(out, term)
    return out


# ---------------------------------------------------------------------------
# variable tables and gauge weights
# ---------------------------------------------------------------------------

def _nonunit_ftuples(ring: FusionRing):
    out = []
    for a, b, c in product(range(1, ring.rank), repeat=3):
        for d in range(ring.rank):
            if any(ring.N[b][c][e] and ring.N[a][e][d] for e in range(ring.rank)):
                out.append((a, b, c, d))
    return out


def _etriples(ring, a, b, c, d):
    return [e for e in range(ring.rank) if ring.N[b][c][e] and ring.N[a][e][d]]


def _ftriples(ring, a, b, c, d):
    return [f for f in range(ring.rank) if ring.N[a][b][f] and ring.N[f][c][d]]


def _guard(ring: FusionRing):
    if ring.rank > 3:
        raise SolverError("solver handles rank <= 3 only")
    if any(x > 1 for p in ring.N for row in p for x in row):
        raise SolverError("solver handles multiplicity-free rings only")
    tuples = _nonunit_ftuples(ring)
    if len(tuples) > MAX_TABLES:
        raise SolverError(f"unknown-count overflow: {len(tuples)} tables > {MAX_TABLES}")
    return tuples


@dataclass
class _Vars:
    ring: FusionRing
    conductor: int
    names: list = field(default_factory=list)   # var id -> key
    ids: dict = field(default_factory=dict)     # key -> var id
    weights: list = field(default_factory=list)  # var id -> gauge weight vector
    gauge: dict = field(default_factory=dict)   # channel triple -> gauge coord

    def gauge_coord(self, a, b, c):
        if a == 0 or b == 0:
            return None
        return self.gauge.setdefault((a, b, c), len(self.gauge))

    def add(self, key, weight_terms):
        vid = len(self.names)
        self.names.append(key)
        self.ids[key] = vid
        w = {}
        for coord, sgn in weight_terms:
            if coord is not None:
                w[coord] = w.get(coord, 0) + sgn
        self.weights.append({k: v for k, v in w.items() if v})
        return vid


def _build_fvars(ring, conductor):
    vs = _Vars(ring, conductor)
    for (a, b, c, d) in _nonunit_ftuples(ring):
        for e in _etriples(ring, a, b, c, d):
            for f in _ftriples(ring, a, b, c, d):
                vs.add(("F", a, b, c, d, e, f), [
                    (vs.gauge_coord(b, c, e), +1),
                    (vs.gauge_coord(a, e, d), +1),
                    (vs.gauge_coord(a, b, f), -1),
                    (vs.gauge_coord(f, c, d), -1),
                ])
    return vs


def _fterm(ring, vs, a, b, c, d, e, f):
    """Entry F^{abc}_d[e][f] as a polynomial, or None when absent."""
    if not (ring.N[b][c][e] and ring.N[a][e][d]
            and ring.N[a][b][f] and ring.N[f][c][d]):
        return None
    if a == 0 or b == 0 or c == 0:
        return _pconst(_ONE)
    return _pvar(vs.ids[("F", a, b, c, d, e, f)])


# ---------------------------------------------------------------------------
# pentagon system
# ---------------------------------------------------------------------------

def _pentagon_polys(ring, vs):
    polys = []
    rng = range(ring.rank)
    for a, b, c, d in product(rng, repeat=4):
        for z in rng:
            ps = [p for p in rng if ring.N[c][d][p]]
            ts = [t for t in rng if ring.N[a][b][t]]
            for p in ps:
                qs = [q for q in rng if ring.N[b][p][q] and ring.N[a][q][z]]
                for q, t in product(qs, ts):
                    ss = [s for s in rng if ring.N[t][c][s] and ring.N[s][d][z]]
                    for s in ss:
                        lhs1 = _fterm(ring, vs, a, b, p, z, q, t)
                        lhs2 = _fterm(ring, vs, t, c, d, z, p, s)
                        poly = _pmulp(lhs1, lhs2) if lhs1 and lhs2 else {}
                        for r in rng:
                            t1 = _fterm(ring, vs, b, c, d, q, p, r)
                            t2 = _fterm(ring, vs, a, r, d, z, q, s)
                            t3 = _fterm(ring, vs, a, b, c, s, r, t)
                            if t1 and t2 and t3:
                                poly = _padd(poly, _pneg(_pmulp(_pmulp(t1, t2), t3)))
                        if poly:
                            polys.append(poly)
    return polys


# ---------------------------------------------------------------------------
# elimination engine
# ---------------------------------------------------------------------------

def _rank_of(rows):
    rank = 0
    used = []
    for r in rows:
        r = {k: Fraction(v) for k, v in r.items() if v}
        for piv_col, piv_row in used:
            if piv_col in r:
                factor = r[piv_col] / piv_row[piv_col]
                for c2, v2 in piv_row.items():
                    nv = r.get(c2, Fraction(0)) - factor * v2
                    if nv:
                        r[c2] = nv
                    else:
                        r.pop(c2, None)
        if r:
            used.append((min(r), r))
            rank += 1
    return rank


def _pinnable(vid, vs, assign):
    rows = [vs.weights[y] for y, val in assign.items() if not val.is_zero()]
    if not vs.weights[vid]:
        return False
    return _rank_of(rows + [vs.weights[vid]]) > _rank_of(rows)


def _roots_pow(val, k, conductor):
    """All x in the designated field with x^k = val."""
    val = val.canonical()
    if val.is_zero():
        return [val]
    n = lcm(val.n, conductor)
    if k == 2:
        r = sqrt_in_field(val, n)
        if r is None:
            r = sqrt_in_field(val, lcm(2 * val.n, conductor))
        if r is None:
            return []
        return [r] if r.is_zero() else sorted([r, -r], key=lambda x: x.sort_key())
    return sorted([w for w in roots_of_unity(n) if w ** k == val],
                  key=lambda x: x.sort_key())


def _quad_roots(c2, c1, c0, conductor):
    disc = (c1 * c1 - 4 * c2 * c0).canonical()
    s = sqrt_in_field(disc, lcm(disc.n, conductor))
    if s is None:
        s = sqrt_in_field(disc, lcm(2 * disc.n, conductor))
    if s is None:
        return []
    inv = (c2 + c2).inverse()
    roots = {((-c1 + s) * inv).canonical(), ((-c1 - s) * inv).canonical()}
    return sorted(roots, key=lambda x: x.sort_key())


def _solve_system(polys, vs, initial_assign, conductor, max_depth=80):
    """All exact assignments of the remaining variables, deterministic order."""
    results = []

    def recurse(polys, assign, elim, depth):
        if depth > max_depth:
            raise SolverError("branch depth exceeded")
        polys = [p for p in polys if p]
        assign = dict(assign)
        # propagate linear univariate equations to a fixpoint, interleaved
        # with exact linear elimination: when a variable occurs in a poly
        # only as a lone degree-1 monomial, solve for it as a polynomial in
        # the others and substitute; values are recovered at the leaves by
        # back-substitution in reverse order
        changed = True
        while changed:
            changed = False
            for p in polys:
                if set(p) == {()}:
                    return  # inconsistent
                mons = [m for m in p if m]
                if len(mons) == 1 and len(mons[0]) == 1:
                    x = mons[0][0]
                    val = (-p.get((), _ZERO) / p[mons[0]]).canonical()
                    assign[x] = val
                    polys = [q for q in (_psubst(t, x, val) for t in polys) if q]
                    changed = True
                    break
            if changed:
                continue
            for p in polys:
                cands = sorted({m[0] for m in p if len(m) == 1 and m != ()})
                for x in cands:
                    if any(x in m and m != (x,) for m in p):
                        continue
                    c = p[(x,)]
                    expr = {m: -(v / c) for m, v in p.items() if m != (x,)}
                    polys = [q for q in (_psubst_poly(t, x, expr)
                                         for t in polys) if q]
                    elim = elim + ((x, expr),)
                    changed = True
                    break
                if changed:
                    break
        if not polys:
            killed = {x for x, _ in elim}
            unassigned = [v for v in range(len(vs.names))
                          if v not in assign and v not in killed]
            for x in unassigned:
                if _pinnable(x, vs, assign):
                    assign[x] = _ONE
                else:
                    return  # underdetermined and not gauge-fixable: drop branch
            for x, expr in reversed(elim):
                assign[x] = _peval(expr, assign).canonical()
            results.append(assign)
            return
        # branch: prefer univariate power/quadratic equations
        best = None
        for p in polys:
            mons = [m for m in p if m]
            varset = {v for m in mons for v in m}
            if len(varset) != 1:
                continue
            x = next(iter(varset))
            degs = {len(m) for m in mons}
            c0 = p.get((), _ZERO)
            if degs <= {1, 2}:
                roots = _quad_roots(p.get((x, x), _ZERO), p.get((x,), _ZERO),
                                    c0, conductor)
                best = (x, roots)
                break
            if len(degs) == 1:
                k = degs.pop()
                roots = _roots_pow(-c0 / p[tuple([x] * k)], k, conductor)
                best = (x, roots)
                break
        if best is not None:
            x, roots = best
            for val in roots:
                sub = [_psubst(p, x, val) for p in polys]
                recurse(sub, {**assign, x: val}, elim, depth + 1)
            return
        # monomial equations c*m = c0 with c0 != 0 force every var in m nonzero
        forced = set()
        for p in polys:
            mons = [m for m in p if m]
            if len(mons) == 1 and not p.get((), _ZERO).is_zero():
                forced.update(mons[0])
        for x in sorted(forced):
            if x not in assign and _pinnable(x, vs, assign):
                sub = [_psubst(p, x, _ONE) for p in polys]
                recurse(sub, {**assign, x: _ONE}, elim, depth + 1)
                return
        # factor split: a poly with no constant term whose monomials share a
        # variable x reads x * quotient = 0, so branch x = 0 or quotient = 0
        for idx, p in enumerate(polys):
            mons = [m for m in p if m]
            if not mons or not p.get((), _ZERO).is_zero():
                continue
            common = set(mons[0])
            for m in mons[1:]:
                common &= set(m)
            if not common:
                continue
            x = min(common)
            recurse([_psubst(q, x, _ZERO) for q in polys],
                    {**assign, x: _ZERO}, elim, depth + 1)
            quo = {}
            for m, c in p.items():
                mm = list(m)
                mm.remove(x)
                quo[tuple(mm)] = c
            recurse(polys[:idx] + [quo] + polys[idx + 1:], assign, elim,
                    depth + 1)
            return
        # last resort: zero / gauge-pin branch on the first pinnable free var
        free = sorted({v for p in polys for m in p for v in m if v not in assign})
        for x in free:
            if _pinnable(x, vs, assign):
                recurse([_psubst(p, x, _ZERO) for p in polys],
                        {**assign, x: _ZERO}, elim, depth + 1)
                recurse([_psubst(p, x, _ONE) for p in polys],
                        {**assign, x: _ONE}, elim, depth + 1)
                return
        raise SolverError(
            f"cannot decide variables {[vs.names[x] for x in free]}")

    start = list(polys)
    for x, val in initial_assign.items():
        start = [_psubst(p, x, val) for p in start]
    recurse(start, dict(initial_assign), (), 0)

    # dedup and deterministic order by value vector
    seen = {}
    for sol in results:
        key = tuple(sol[v].canonical().sort_key() for v in range(len(vs.names)))
        seen.setdefault(key, sol)
    return [seen[k] for k in sorted(seen)]


# ---------------------------------------------------------------------------
# public pentagon interface
# ---------------------------------------------------------------------------

def solve_pentagon_small(ring: FusionRing, conductor: int = 1):
    """All pentagon solutions over Q(zeta_conductor), unit tables implicit."""
    _guard(ring)
    vs = _build_fvars(ring, conductor)
    polys = _pentagon_polys(ring, vs)
    sols = _solve_system(polys, vs, {}, conductor)
    out = []
    for sol in sols:
        if not _certify_pentagon(ring, vs, polys, sol):
            continue
        out.append(_fdict(ring, vs, sol))
    return out


def _certify_pentagon(ring, vs, polys, sol):
    for p in polys:
        if not _peval(p, sol).is_zero():
            return False
    # every table must be invertible
    for key in _nonunit_ftuples(ring):
        M = _table_matrix(ring, vs, sol, *key)
        try:
            inverse(M)
        except LinalgError:
            return False
    return True


def _table_matrix(ring, vs, sol, a, b, c, d):
    es = _etriples(ring, a, b, c, d)
    fs = _ftriples(ring, a, b, c, d)
    return [[sol[vs.ids[("F", a, b, c, d, e, f)]] for f in fs] for e in es]


def _fdict(ring, vs, sol):
    return {key: _table_matrix(ring, vs, sol, *key)
            for key in _nonunit_ftuples(ring)}


# ---------------------------------------------------------------------------
# hexagon stage
# ---------------------------------------------------------------------------

def _nonunit_rtriples(ring):
    return [(a, b, c) for a, b, c in product(range(1, ring.rank),
                                             range(1, ring.rank),
                                             range(ring.rank))
            if ring.N[a][b][c]]


def _f_value_matrix(ring, F, a, b, c, d):
    es = _etriples(ring, a, b, c, d)
    fs = _ftriples(ring, a, b, c, d)
    if 0 in (a, b, c):
        return eye(len(es), _ONE), es, fs
    M = F[(a, b, c, d)]
    return M, es, fs


def solve_hexagon_small(ring: FusionRing, F: dict, conductor: int = 1):
    """All R-solutions of both hexagons for the given certified F-data."""
    _guard(ring)
    vs = _build_fvars(ring, conductor)
    # seed the weight table with the F assignment so residual-gauge pinning
    # of R variables cannot disturb the already-fixed F entries
    assign = {}
    for (a, b, c, d), M in F.items():
        es = _etriples(ring, a, b, c, d)
        fs = _ftriples(ring, a, b, c, d)
        for i, e in enumerate(es):
            for j, f in enumerate(fs):
                assign[vs.ids[("F", a, b, c, d, e, f)]] = M[i][j]

    rtr = _nonunit_rtriples(ring)
    rid, rinvid = {}, {}
    for (a, b, c) in rtr:
        rid[(a, b, c)] = vs.add(("R", a, b, c), [
            (vs.gauge_coord(b, a, c), +1), (vs.gauge_coord(a, b, c), -1)])
    for (a, b, c) in rtr:
        rinvid[(a, b, c)] = vs.add(("Rinv", a, b, c), [
            (vs.gauge_coord(b, a, c), -1), (vs.gauge_coord(a, b, c), +1)])

    def rpoly(a, b, c, inv=False):
        if a == 0 or b == 0:
            return _pconst(_ONE)
        return _pvar((rinvid if inv else rid)[(a, b, c)])

    inv_cache = {}

    def tinv(x, y, z, w):
        key = (x, y, z, w)
        if key not in inv_cache:
            M, es, fs = _f_value_matrix(ring, F, x, y, z, w)
            Minv = inverse(M)
            inv_cache[key] = (Minv, {e: i for i, e in enumerate(es)},
                              {f: i for i, f in enumerate(fs)})
        return inv_cache[key]

    polys = []
    rng = range(ring.rank)
    for x, y, z in product(range(1, ring.rank), rng, rng):
        for w in rng:
            us = [u for u in rng if ring.N[x][y][u] and ring.N[u][z][w]]
            vside = [v for v in rng if ring.N[z][x][v] and ring.N[y][v][w]]
            if not us or not vside:
                continue
            T1, e1, f1 = tinv(x, y, z, w)
            T2, e2, f2 = tinv(y, z, x, w)
            T3, e3, f3 = tinv(y, x, z, w)
            es = [e for e in rng if ring.N[y][z][e] and ring.N[x][e][w]]
            for u, v in product(us, vside):
                for which in (False, True):  # False: braiding, True: inverse
                    lhs = {}
                    for e in es:
                        coef = T1[f1[u]][e1[e]] * T2[f2[e]][e2[v]]
                        if coef.is_zero():
                            continue
                        rp = rpoly(e, x, w, inv=True) if which else rpoly(x, e, w)
                        lhs = _padd(lhs, _pmulp(_pconst(coef), rp))
                    coef = T3[f3[u]][e3[v]]
                    if which:
                        rhs = _pmulp(_pmulp(rpoly(y, x, u, inv=True),
                                            _pconst(coef)),
                                     rpoly(z, x, v, inv=True))
                    else:
                        rhs = _pmulp(_pmulp(rpoly(x, y, u), _pconst(coef)),
                                     rpoly(x, z, v))
                    poly = _padd(lhs, _pneg(rhs))
                    if poly:
                        polys.append(poly)
    for key in rtr:
        polys.append(_padd(_pmulp(_pvar(rid[key]), _pvar(rinvid[key])),
                           _pconst(-_ONE)))

    sols = _solve_system(polys, vs, assign, conductor)
    out = []
    for sol in sols:
        if all(_peval(p, sol).is_zero() for p in polys):
            out.append({(a, b, c): [[sol[rid[(a, b, c)]]]] for a, b, c in rtr})
    return out


# ---------------------------------------------------------------------------
# combined interface used by the catalog
# ---------------------------------------------------------------------------

def braided_solutions(ring: FusionRing, conductor: int):
    """Certified (F, R) pairs, deterministically ordered."""
    out = []
    for F in solve_pentagon_small(ring, conductor):
        for R in solve_hexagon_small(ring, F, conductor):
            out.append({"F": F, "R": R})
    return out
