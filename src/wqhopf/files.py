"""JSON serialization for categories, functors, algebras, and twists.

Formats are plain UTF-8 JSON.  Scalars serialize exactly (conductor plus
coefficient strings) or approximately (re/im floats); matrices are nested
lists of scalars.  Label tuples keying the pair and triple families are
written as explicit "key" fields so the files stay diffable.
"""

from __future__ import annotations

import hashlib
import json
from itertools import product
from math import prod

from .category import (Category, e_triples, f_triples, make_category)
from .fusion import DimensionFunction, make_fusion_ring
from .functor import FunctorData
from .hopf import WQHopf
from .linalg import dims, mat_from_json, mat_to_json
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
        c = _family_from_json(idx, obj["c"], "c", "pair")
        c_inv = _family_from_json(idx, obj["c_inv"], "c_inv", "pair")
        d = _labelled_from_json(idx, obj["d"], "d")
    except FileFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad functor section: {exc}") from exc
    if len(D.values) != cat.ring.rank or min(D.values) < 1:
        raise FileFormatError(f"functor D must hold {cat.ring.rank} positive "
                              f"integers, got {list(D.values)}")
    return FunctorData(cat, D, c, c_inv, d,
                       json_int(obj["seed"], "functor seed"), obj["strategy"])


def _family_to_json(lab, fam):
    return [{"key": [lab[k] for k in key], "matrix": mat_to_json(M)}
            for key, M in sorted(fam.items())]


def _labels(idx, names, name):
    try:
        return tuple(idx[s] for s in names)
    except (KeyError, TypeError):
        raise FileFormatError(f"{name}: unknown label in key {names!r}") \
            from None


def _family_from_json(idx, entries, name, field="key"):
    """A family list, [{field: labels, "matrix": M}, ...], as a dict over
    label tuples; a key listed twice is refused, never overwritten."""
    if not (isinstance(entries, list)
            and all(isinstance(e, dict) for e in entries)):
        raise FileFormatError(f"{name} must be a list of keyed matrices")
    fam = {}
    for e in entries:
        key = _labels(idx, e[field], name)
        if key in fam:
            raise FileFormatError(f"{name}: duplicate key {e[field]}")
        fam[key] = mat_from_json(e["matrix"])
    return fam


def _labelled_from_json(idx, obj, name):
    """A family object, {label: M, ...}, as a dict over label indices."""
    if not isinstance(obj, dict):
        raise FileFormatError(f"{name} must map labels to matrices")
    return {_labels(idx, [s], name)[0]: mat_from_json(M)
            for s, M in obj.items()}


def _check_family(lab, name, fam, degree, shape):
    """fam holds exactly one matrix per label key of the degree, keys of
    degree 1 being bare labels, and the matrix at key has shape(*key)."""
    keys = list(product(range(len(lab)), repeat=degree))
    given = {(k,) if degree == 1 else k for k in fam}
    extra = sorted(given - set(keys))
    if extra:
        raise FileFormatError(
            f"{name}: unexpected key {[lab[k] for k in extra[0]]}")
    for key in keys:
        if key not in given:
            raise FileFormatError(
                f"{name}: missing key {[lab[k] for k in key]}")
        got = dims(fam[key[0] if degree == 1 else key])
        want = shape(*key)
        if got != want:
            raise FileFormatError(
                f"{name} at {[lab[k] for k in key]}: shape {got[0]}x{got[1]}, "
                f"expected {want[0]}x{want[1]}")


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
    ring = cat.ring
    idx = {s: i for i, s in enumerate(ring.labels)}
    H = WQHopf(
        functor=F,
        blocks=tuple((str(lab), json_int(d, "block size"))
                     for lab, d in obj["blocks"]),
        delta_unit=_family_from_json(idx, obj["delta_unit"], "delta_unit"),
        phi=_family_from_json(idx, obj["phi"], "phi"),
        phi_inv=_family_from_json(idx, obj["phi_inv"], "phi_inv"),
        R=None if obj.get("R") is None
            else _family_from_json(idx, obj["R"], "R"),
        R_inv=None if obj.get("R_inv") is None
            else _family_from_json(idx, obj["R_inv"], "R_inv"),
        alpha=_labelled_from_json(idx, obj["alpha"], "alpha"),
        beta=_labelled_from_json(idx, obj["beta"], "beta"),
        ribbon_v=None if obj.get("ribbon_v") is None
            else _labelled_from_json(idx, obj["ribbon_v"], "ribbon_v"),
    )
    # coverage and shapes, so that no check meets a missing or misshapen
    # matrix: sum_z N^z_ab D(z) rows of c per pair, squares on the legs
    D = F.D.values

    def sector_rows(a, b):
        return sum(n * D[z] for z, n in enumerate(ring.N[a][b]))

    def square(*key):
        n = prod(D[k] for k in key)
        return n, n

    families = [
        ("c", F.c, 2, lambda a, b: (sector_rows(a, b), D[a] * D[b])),
        ("c_inv", F.c_inv, 2, lambda a, b: (D[a] * D[b], sector_rows(a, b))),
        ("d", F.d, 1, lambda a: (D[ring.dual[a]], D[a])),
        ("delta_unit", H.delta_unit, 2, square),
        ("phi", H.phi, 3, square), ("phi_inv", H.phi_inv, 3, square),
        ("alpha", H.alpha, 1, square), ("beta", H.beta, 1, square)]
    for name, fam, degree, data, what in (
            ("R", H.R, 2, cat.R, "a braiding"),
            ("R_inv", H.R_inv, 2, cat.R, "a braiding"),
            ("ribbon_v", H.ribbon_v, 1, cat.theta, "a twist")):
        if (fam is None) != (data is None):
            raise FileFormatError(
                f"{name} must be given exactly when the category has {what}")
        if fam is not None:
            families.append((name, fam, degree, square))
    for name, fam, degree, shape in families:
        _check_family(ring.labels, name, fam, degree, shape)
    return H


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
    """The JSON document at path.  An object that repeats a key is refused,
    named by the path of keys that leads to it: json would keep the last
    value and drop the others silently."""
    repeats = []

    def unique(pairs):
        obj = dict(pairs)
        if len(obj) != len(pairs):
            seen = set()
            repeats.append((obj, next(k for k, _ in pairs
                                      if k in seen or seen.add(k))))
        return obj

    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=unique)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    if repeats:
        obj, key = repeats[0]
        where = "/".join(map(str, _json_path(doc, obj))) or "top level"
        raise FileFormatError(f"{path}: {where}: duplicate key {key!r}")
    return doc


def _json_path(node, target, path=()):
    """The keys and list indices leading from node to the object target."""
    if node is target:
        return path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for k, v in items:
        found = _json_path(v, target, path + (k,))
        if found is not None:
            return found
    return None


def save_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
