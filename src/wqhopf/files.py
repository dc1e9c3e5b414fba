"""JSON serialization for categories, functors, algebras, and twists.

Formats are plain UTF-8 JSON.  Scalars serialize exactly (conductor plus
coefficient strings) or approximately (re/im floats); matrices are nested
lists of scalars.  Label tuples keying the pair and triple families are
written as explicit "key" fields so the files stay diffable.
"""

from __future__ import annotations

import hashlib
import json

from .category import (Category, e_triples, f_triples, make_category)
from .fusion import DimensionFunction, make_fusion_ring
from .functor import FunctorData
from .hopf import WQHopf
from .linalg import mat_from_json, mat_to_json
from .scalars import Approx, Cyc, _json_is, to_approx


class FileFormatError(ValueError):
    pass


def json_int(x, field: str) -> int:
    """x if a JSON integer; bool, float and str raise, never truncate."""
    if not _json_is(x, int):
        raise FileFormatError(f"{field} must be an integer, got {x!r}")
    return x


def _approx_mat(M):
    return [[to_approx(x) for x in row] for row in M]


# ---------------------------------------------------------------------------
# category files
# ---------------------------------------------------------------------------

def category_to_json(cat: Category) -> dict:
    ring = cat.ring
    lab = ring.labels
    nlist = []
    for a in range(ring.rank):
        for b in range(ring.rank):
            for c in range(ring.rank):
                if ring.N[a][b][c]:
                    nlist.append([a, b, c, ring.N[a][b][c]])
    fs = []
    for key in sorted(cat.F):
        a, b, c, d = key
        fs.append({
            "labels": [lab[a], lab[b], lab[c], lab[d]],
            "rows": [[lab[e], mu, nu] for e, mu, nu in e_triples(ring, *key)],
            "cols": [[lab[f], mu, nu] for f, mu, nu in f_triples(ring, *key)],
            "matrix": mat_to_json(cat.F[key]),
        })
    rs = None
    if cat.R is not None:
        rs = [{"labels": [lab[a], lab[b], lab[c]],
               "matrix": mat_to_json(cat.R[(a, b, c)])}
              for a, b, c in sorted(cat.R)]
    th = None
    if cat.theta is not None:
        from .scalars import scalar_to_json
        th = {lab[a]: scalar_to_json(cat.theta[a]) for a in range(ring.rank)}
    return {"name": cat.name, "labels": list(lab), "dual": list(ring.dual),
            "N": nlist, "F": fs, "R": rs, "theta": th}


def category_from_json(obj: dict, backend: str = "exact") -> Category:
    try:
        labels = tuple(obj["labels"])
        dual = tuple(json_int(x, "dual") for x in obj["dual"])
        rk = len(labels)
        N = [[[0] * rk for _ in range(rk)] for _ in range(rk)]
        for entry in obj["N"]:
            a, b, c, m = (json_int(x, "N entry") for x in entry)
            N[a][b][c] = m
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad fusion ring section: {exc}") from exc
    ring = make_fusion_ring(labels, dual, N)
    idx = {s: i for i, s in enumerate(labels)}

    def _idx(s):
        if s not in idx:
            raise FileFormatError(f"unknown label {s!r}")
        return idx[s]

    F = {}
    for entry in obj.get("F") or []:
        key = tuple(_idx(s) for s in entry["labels"])
        M = mat_from_json(entry["matrix"])
        if "rows" in entry:
            stated = tuple((_idx(e), json_int(mu, "F row"),
                            json_int(nu, "F row"))
                           for e, mu, nu in entry["rows"])
            if stated != e_triples(ring, *key):
                raise FileFormatError(f"row basis mismatch at {entry['labels']}")
        if "cols" in entry:
            stated = tuple((_idx(f), json_int(mu, "F column"),
                            json_int(nu, "F column"))
                           for f, mu, nu in entry["cols"])
            if stated != f_triples(ring, *key):
                raise FileFormatError(f"column basis mismatch at {entry['labels']}")
        F[key] = M
    R = None
    if obj.get("R") is not None:
        R = {tuple(_idx(s) for s in entry["labels"]):
             mat_from_json(entry["matrix"]) for entry in obj["R"]}
    theta = None
    if obj.get("theta") is not None:
        from .scalars import scalar_from_json
        theta = tuple(scalar_from_json(obj["theta"][s]) for s in labels)
    # the unit scalar must match whatever backend the file carries
    sample = next((M[0][0] for M in F.values()), None)
    if sample is None and R:
        sample = next(iter(R.values()))[0][0]
    if sample is None and theta:
        sample = theta[0]
    one = Approx(1) if isinstance(sample, Approx) else Cyc.rational(1)
    cat = make_category(ring, F, R, theta, name=obj.get("name", ""), one=one)
    if backend == "approx":
        return approx_category(cat)
    if backend != "exact":
        raise FileFormatError(f"unknown backend {backend!r}")
    return cat


def approx_category(cat: Category) -> Category:
    """The same category with every scalar pushed to the floating backend."""
    F = {k: _approx_mat(M) for k, M in cat.F.items()}
    R = None if cat.R is None else {k: _approx_mat(M) for k, M in cat.R.items()}
    th = None if cat.theta is None else tuple(to_approx(x) for x in cat.theta)
    return make_category(cat.ring, F, R, th, name=cat.name, one=Approx(1))


def category_hash(cat: Category) -> str:
    blob = json.dumps(category_to_json(cat), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# functor and algebra dumps
# ---------------------------------------------------------------------------

def functor_to_json(F: FunctorData) -> dict:
    lab = F.cat.ring.labels
    return {
        "D": list(F.D.values),
        "exact": F.D.exact,
        "seed": F.seed,
        "strategy": F.strategy,
        "c": [{"pair": [lab[a], lab[b]], "matrix": mat_to_json(M)}
              for (a, b), M in sorted(F.c.items())],
        "c_inv": [{"pair": [lab[a], lab[b]], "matrix": mat_to_json(M)}
                  for (a, b), M in sorted(F.c_inv.items())],
        "d": {lab[a]: mat_to_json(M) for a, M in sorted(F.d.items())},
    }


def functor_from_json(obj: dict, cat: Category) -> FunctorData:
    idx = {s: i for i, s in enumerate(cat.ring.labels)}
    try:
        D = DimensionFunction(
            tuple(json_int(x, "functor D") for x in obj["D"]),
            bool(obj["exact"]))
        c = {(idx[p[0]], idx[p[1]]): mat_from_json(e["matrix"])
             for e in obj["c"] for p in [e["pair"]]}
        c_inv = {(idx[p[0]], idx[p[1]]): mat_from_json(e["matrix"])
                 for e in obj["c_inv"] for p in [e["pair"]]}
        d = {idx[s]: mat_from_json(M) for s, M in obj["d"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad functor section: {exc}") from exc
    return FunctorData(cat, D, c, c_inv, d,
                       json_int(obj["seed"], "functor seed"), obj["strategy"])


def _family_to_json(lab, fam):
    return [{"key": [lab[k] for k in key], "matrix": mat_to_json(M)}
            for key, M in sorted(fam.items())]


def _family_from_json(idx, entries):
    return {tuple(idx[s] for s in e["key"]): mat_from_json(e["matrix"])
            for e in entries}


def algebra_to_json(H: WQHopf) -> dict:
    F = H.functor
    lab = F.cat.ring.labels
    out = {
        "category": category_to_json(F.cat),
        "functor": functor_to_json(F),
        "blocks": [[lab, d] for lab, d in H.blocks],
        "delta_unit": _family_to_json(lab, H.delta_unit),
        "phi": _family_to_json(lab, H.phi),
        "phi_inv": _family_to_json(lab, H.phi_inv),
        "R": None if H.R is None else _family_to_json(lab, H.R),
        "R_inv": None if H.R_inv is None else _family_to_json(lab, H.R_inv),
        "alpha": {lab[a]: mat_to_json(M) for a, M in sorted(H.alpha.items())},
        "beta": {lab[a]: mat_to_json(M) for a, M in sorted(H.beta.items())},
        "ribbon_v": None if H.ribbon_v is None else
            {lab[a]: mat_to_json(M) for a, M in sorted(H.ribbon_v.items())},
        "provenance": {
            "category_sha256": category_hash(F.cat),
            "D": list(F.D.values),
            "seed": F.seed,
            "strategy": F.strategy,
        },
    }
    return out


def algebra_from_json(obj: dict) -> WQHopf:
    cat = category_from_json(obj["category"])
    stated = obj.get("provenance", {}).get("category_sha256")
    if stated is not None and stated != category_hash(cat):
        raise FileFormatError("category hash does not match dump provenance")
    F = functor_from_json(obj["functor"], cat)
    idx = {s: i for i, s in enumerate(cat.ring.labels)}
    ribbon = obj.get("ribbon_v")
    return WQHopf(
        functor=F,
        blocks=tuple((str(lab), json_int(d, "block size"))
                     for lab, d in obj["blocks"]),
        delta_unit=_family_from_json(idx, obj["delta_unit"]),
        phi=_family_from_json(idx, obj["phi"]),
        phi_inv=_family_from_json(idx, obj["phi_inv"]),
        R=None if obj.get("R") is None else _family_from_json(idx, obj["R"]),
        R_inv=None if obj.get("R_inv") is None
            else _family_from_json(idx, obj["R_inv"]),
        alpha={idx[s]: mat_from_json(M) for s, M in obj["alpha"].items()},
        beta={idx[s]: mat_from_json(M) for s, M in obj["beta"].items()},
        ribbon_v=None if ribbon is None
            else {idx[s]: mat_from_json(M) for s, M in ribbon.items()},
    )


def twist_to_json(lab, T, report) -> dict:
    return {
        "T": [{"pair": [lab[a], lab[b]], "matrix": mat_to_json(M)}
              for (a, b), M in sorted(T.T.items())],
        "T_inv": [{"pair": [lab[a], lab[b]], "matrix": mat_to_json(M)}
                  for (a, b), M in sorted(T.T_inv.items())],
        "report": report.to_json(),
    }


# ---------------------------------------------------------------------------
# disk helpers
# ---------------------------------------------------------------------------

def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc


def save_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
