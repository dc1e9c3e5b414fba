"""Fusion rings and integer weak dimension functions.

A weak dimension function assigns a positive integer D(a) to each simple
label with D(1) = 1, D(a) = D(dual a), and D(a)D(b) >= sum_c N[a][b][c]D(c);
it is exact when equality holds at every pair.  Two closed-form constructions
are provided (one summing a row of the fusion tensor, one taking the global
row maximum) together with a brute-force minimizer of sum D(a)^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .report import Report


class FusionError(ValueError):
    pass


@dataclass(frozen=True)
class FusionRing:
    labels: tuple
    dual: tuple
    N: tuple  # N[a][b][c], nonnegative ints

    @property
    def rank(self) -> int:
        return len(self.labels)

    def idx(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise FusionError(f"unknown label {label!r}") from None


def make_fusion_ring(labels, dual, N) -> FusionRing:
    labels = tuple(labels)
    r = len(labels)
    if len(set(labels)) != r or r == 0:
        raise FusionError("labels must be nonempty and distinct")
    dual = tuple(dual)
    if sorted(dual) != list(range(r)):
        raise FusionError("dual must be a permutation of the label indices")
    N = tuple(tuple(tuple(int(x) for x in row) for row in plane) for plane in N)
    if len(N) != r or any(len(p) != r or any(len(row) != r for row in p) for p in N):
        raise FusionError(f"N must be {r}x{r}x{r}")
    if any(x < 0 for p in N for row in p for x in row):
        raise FusionError("fusion multiplicities must be nonnegative")
    return FusionRing(labels, dual, N)


def verify_fusion_ring(ring: FusionRing) -> Report:
    r = ring.rank
    N, dual = ring.N, ring.dual
    rep = Report()

    unit_bad = [(a, b, c) for (a, b, c) in product(range(r), repeat=3)
                if (a == 0 and N[a][b][c] != (1 if b == c else 0))
                or (b == 0 and N[a][b][c] != (1 if a == c else 0))]
    rep.add("fusion-unit", not unit_bad, float(len(unit_bad)), unit_bad)

    assoc_bad = []
    worst = 0
    for a, b, c, d in product(range(r), repeat=4):
        lhs = sum(N[a][b][e] * N[e][c][d] for e in range(r))
        rhs = sum(N[b][c][f] * N[a][f][d] for f in range(r))
        if lhs != rhs:
            assoc_bad.append((a, b, c, d))
            worst = max(worst, abs(lhs - rhs))
    rep.add("fusion-associativity", not assoc_bad, float(worst), assoc_bad)

    dual_bad = [(a, b, 0) for a, b in product(range(r), repeat=2)
                if N[a][b][0] != (1 if b == dual[a] else 0)]
    if dual[0] != 0:
        dual_bad.append((0,))
    dual_bad += [(a,) for a in range(r) if dual[dual[a]] != a]
    rep.add("fusion-duality", not dual_bad, float(len(dual_bad)), dual_bad)
    return rep


def dual_orbits(ring: FusionRing):
    seen, orbits = set(), []
    for a in range(ring.rank):
        if a in seen:
            continue
        orb = (a,) if ring.dual[a] == a else (a, ring.dual[a])
        seen.update(orb)
        orbits.append(orb)
    return orbits


@dataclass(frozen=True)
class DimensionFunction:
    values: tuple
    exact: bool

    def __getitem__(self, a: int) -> int:
        return self.values[a]


def is_weak_dimension_function(ring: FusionRing, values) -> Report:
    values = tuple(int(v) for v in values)
    r = ring.rank
    rep = Report()
    rep.add("dim-unit", values[0] == 1, abs(values[0] - 1), () if values[0] == 1 else ((0,),))
    pos_bad = [(a,) for a in range(r) if values[a] < 1]
    rep.add("dim-positive", not pos_bad, float(len(pos_bad)), pos_bad)
    dual_bad = [(a,) for a in range(r) if values[a] != values[ring.dual[a]]]
    rep.add("dim-duality", not dual_bad, float(len(dual_bad)), dual_bad)
    ineq_bad, worst = [], 0
    for a, b in product(range(r), repeat=2):
        lhs = values[a] * values[b]
        rhs = sum(ring.N[a][b][c] * values[c] for c in range(r))
        if lhs < rhs:
            ineq_bad.append((a, b))
            worst = max(worst, rhs - lhs)
    rep.add("dim-weak-inequality", not ineq_bad, float(worst), ineq_bad)
    return rep


def _dimension_function(ring, values) -> DimensionFunction:
    if len(values) != ring.rank:
        raise FusionError(f"dimension vector {values} needs {ring.rank} "
                          f"entries, one per label")
    rep = is_weak_dimension_function(ring, values)
    if not rep.passed:
        raise FusionError(
            f"dimension vector {values} violates "
            + ", ".join(c.id for c in rep.failures()))
    exact = all(
        values[a] * values[b] == sum(ring.N[a][b][c] * values[c] for c in range(ring.rank))
        for a, b in product(range(ring.rank), repeat=2))
    return DimensionFunction(tuple(values), exact)


def canonical_weak_dimension(ring: FusionRing) -> DimensionFunction:
    values = [1] + [sum(ring.N[a][i][j] for i in range(ring.rank) for j in range(ring.rank))
                    for a in range(1, ring.rank)]
    return _dimension_function(ring, values)


def max_weak_dimension(ring: FusionRing) -> DimensionFunction:
    # the row-maximum formula comes without a validity proof; re-verified here
    if ring.rank == 1:
        return _dimension_function(ring, (1,))
    m = max(sum(ring.N[a][b][c] for c in range(ring.rank))
            for a in range(1, ring.rank) for b in range(1, ring.rank))
    values = [1] + [max(m, 1)] * (ring.rank - 1)
    return _dimension_function(ring, values)


def minimize_dimension_function(ring: FusionRing, bound: int) -> DimensionFunction:
    if bound < 1:
        raise FusionError(f"bound must be >= 1, got {bound}")
    orbits = [o for o in dual_orbits(ring) if 0 not in o]
    best = None
    for assignment in product(range(1, bound + 1), repeat=len(orbits)):
        values = [0] * ring.rank
        values[0] = 1
        for orb, v in zip(orbits, assignment):
            for a in orb:
                values[a] = v
        rep = is_weak_dimension_function(ring, values)
        if not rep.passed:
            continue
        key = (sum(v * v for v in values), tuple(values))
        if best is None or key < best:
            best = key
    if best is None:
        raise FusionError(f"no weak dimension function with values <= {bound}")
    return _dimension_function(ring, best[1])
