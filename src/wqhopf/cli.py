"""Command line surface: verify category data, compute dimension functions,
reconstruct the block algebra, re-check dumped algebras, and compare twists.

Exit codes: 0 all checks pass, 1 a verified identity fails, 2 malformed
input or usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from .catalog import CatalogError, builtin
from .category import CategoryError, verify_category
from .files import (FileFormatError, algebra_from_json, algebra_to_json,
                    approx_category, category_from_json, json_int, load_json,
                    save_json, twist_to_json)
from .functor import FunctorError, build_functor
from .fusion import (DimensionFunction, FusionError, _dimension_function,
                     canonical_weak_dimension, is_weak_dimension_function,
                     max_weak_dimension, minimize_dimension_function)
from .hopf import (HopfError, reconstruct, verify_structure_transport,
                   verify_weak_axioms)
from .report import Report
from .scalars import Approx
from .twist import TwistError, twist_between, verify_twist

_INPUT_ERRORS = (CatalogError, CategoryError, FileFormatError, FusionError,
                 OSError, KeyError, ValueError)


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    path: str | None = None
    builtin: str | None = None
    n: int | None = None
    q: int | None = None
    backend: str = "exact"
    tolerance: float = 0.0
    dim: str = "canonical"
    bound: int = 4
    seed: str = "canonical"
    seeds: str | None = None
    output: str | None = None
    report: str = "human"

    def __post_init__(self):
        if (self.tolerance == 0.0) != (self.backend == "exact"):
            raise UsageError("tolerance must be 0 exactly when the backend "
                             "is exact; pass --tol with --backend approx")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise UsageError("tolerance must be finite and nonnegative")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="wqhopf", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, with_dim=False, with_seed=False):
        p.add_argument("path", nargs="?", default=None,
                       help="category file (alternative to --builtin)")
        p.add_argument("--builtin", default=None,
                       help="catalog entry: vec_zn | svec | fibonacci | ising")
        p.add_argument("--n", type=int, default=None, help="vec_zn order")
        p.add_argument("--q", type=int, default=None, help="vec_zn cocycle")
        p.add_argument("--backend", choices=("exact", "approx"),
                       default="exact")
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance (default 0 exact, 1e-9 approx)")
        p.add_argument("--report", choices=("human", "machine"),
                       default="human")
        p.add_argument("-o", "--output", default=None, help="output path")
        if with_dim:
            p.add_argument("--dim", default="canonical",
                           help="canonical | max | minimal | PATH")
            p.add_argument("--bound", type=int, default=4,
                           help="per-label cap for --dim minimal")
            p.add_argument("--minimal", type=int, default=None,
                           help="shorthand for --dim minimal --bound N")
        if with_seed:
            p.add_argument("--seed", default="canonical",
                           help="canonical | integer (seeded functor)")

    common(sub.add_parser("verify", help="check fusion/pentagon/hexagon/"
                                         "snake/ribbon identities"))
    common(sub.add_parser("dims", help="compute a weak dimension function"),
           with_dim=True)
    common(sub.add_parser("reconstruct", help="build the block algebra and "
                                              "verify it"),
           with_dim=True, with_seed=True)
    chk = sub.add_parser("check-hopf", help="re-verify a dumped algebra")
    chk.add_argument("path", help="algebra dump")
    chk.add_argument("--backend", choices=("exact", "approx"),
                     default="exact")
    chk.add_argument("--tol", type=float, default=None)
    chk.add_argument("--report", choices=("human", "machine"),
                     default="human")
    chk.add_argument("-o", "--output", default=None)
    tw = sub.add_parser("twist", help="compare two reconstructions")
    common(tw, with_dim=True)
    tw.add_argument("--seeds", default="canonical,3",
                    help="two functor tags, e.g. canonical,7")
    return top


def _config(args) -> RunConfig:
    backend = getattr(args, "backend", "exact")
    tol = args.tol
    if tol is None:
        tol = 0.0 if backend == "exact" else 1e-9
    dim = getattr(args, "dim", "canonical")
    bound = getattr(args, "bound", 4)
    if getattr(args, "minimal", None) is not None:
        dim, bound = "minimal", args.minimal
    return RunConfig(
        command=args.command,
        path=getattr(args, "path", None),
        builtin=getattr(args, "builtin", None),
        n=getattr(args, "n", None),
        q=getattr(args, "q", None),
        backend=backend,
        tolerance=tol,
        dim=dim,
        bound=bound,
        seed=str(getattr(args, "seed", "canonical")),
        seeds=getattr(args, "seeds", None),
        output=getattr(args, "output", None),
        report=args.report,
    )


def _load_category(cfg: RunConfig):
    if (cfg.builtin is None) == (cfg.path is None):
        raise UsageError("give exactly one of --builtin NAME or a file path")
    if cfg.builtin is not None:
        cat = builtin(cfg.builtin, n=cfg.n, q=cfg.q).category
        return approx_category(cat) if cfg.backend == "approx" else cat
    return category_from_json(load_json(cfg.path), backend=cfg.backend)


def _dimension(cfg: RunConfig, ring) -> DimensionFunction:
    if cfg.dim == "canonical":
        return canonical_weak_dimension(ring)
    if cfg.dim == "max":
        return max_weak_dimension(ring)
    if cfg.dim == "minimal":
        return minimize_dimension_function(ring, cfg.bound)
    obj = load_json(cfg.dim)
    values = obj.get("D") if isinstance(obj, dict) else obj
    if not isinstance(values, list):
        raise FileFormatError(f'{cfg.dim}: "D" must be a list of integers')
    values = tuple(json_int(v, f"{cfg.dim}: D entry") for v in values)
    # validated, and exactness recomputed rather than trusted from the file
    return _dimension_function(ring, values)


def _functor(cfg: RunConfig, cat, D, tag=None):
    tag = cfg.seed if tag is None else tag
    if tag == "canonical":
        return build_functor(cat, D, strategy="canonical")
    return build_functor(cat, D, strategy="random", seed=int(tag))


def _emit(report: Report, cfg: RunConfig, lines=()):
    if cfg.report == "machine":
        for check in report.checks:
            print(json.dumps(check.to_json()))
    else:
        for line in lines:
            print(line)
        print(report.human_table())
    return 0 if report.passed else 1


def _algebra_report(H, tol: float) -> Report:
    report = Report()
    dims = tuple(d for _, d in H.blocks)
    report.add("blocks-match-dimension", dims == H.functor.D.values, 0.0,
               () if dims == H.functor.D.values
               else (dims, H.functor.D.values))
    report.extend(verify_weak_axioms(H, tol=tol))
    report.extend(verify_structure_transport(H, tol=tol))
    return report


def cmd_verify(cfg: RunConfig) -> int:
    cat = _load_category(cfg)
    report = verify_category(cat, tol=cfg.tolerance)
    if cfg.output:
        save_json(cfg.output, report.to_json())
    return _emit(report, cfg, (f"category: {cat.name or cfg.path}",))


def cmd_dims(cfg: RunConfig) -> int:
    cat = _load_category(cfg)
    D = _dimension(cfg, cat.ring)
    report = is_weak_dimension_function(cat.ring, D.values)
    objective = sum(v * v for v in D.values)
    lines = [f"D({lab}) = {v}"
             for lab, v in zip(cat.ring.labels, D.values)]
    lines.append(f"objective = {objective}")
    lines.append(f"exact: {'yes' if D.exact else 'no'}")
    if cfg.output:
        save_json(cfg.output, {"D": list(D.values), "exact": D.exact,
                               "objective": objective,
                               "report": report.to_json()})
    return _emit(report, cfg, lines)


def cmd_reconstruct(cfg: RunConfig) -> int:
    cat = _load_category(cfg)
    D = _dimension(cfg, cat.ring)
    H = reconstruct(_functor(cfg, cat, D))
    report = _algebra_report(H, cfg.tolerance)
    if cfg.output:
        save_json(cfg.output, algebra_to_json(H))
    lines = (f"dim H = {H.dim}",
             "blocks = " + ", ".join(f"{lab}:{v}" for lab, v in H.blocks))
    return _emit(report, cfg, lines)


def cmd_check_hopf(cfg: RunConfig) -> int:
    H = algebra_from_json(load_json(cfg.path))
    stored = "approx" if isinstance(H.functor.cat.one, Approx) else "exact"
    if stored != cfg.backend:
        raise UsageError(f"backend mismatch: the dump holds {stored} scalars "
                         f"but --backend is {cfg.backend}")
    report = _algebra_report(H, cfg.tolerance)
    if cfg.output:
        save_json(cfg.output, report.to_json())
    return _emit(report, cfg, (f"dim H = {H.dim}",))


def cmd_twist(cfg: RunConfig) -> int:
    cat = _load_category(cfg)
    D = _dimension(cfg, cat.ring)
    try:
        tag1, tag2 = (s.strip() for s in cfg.seeds.split(","))
    except ValueError:
        raise UsageError("--seeds wants two comma-separated tags") from None
    H1 = reconstruct(_functor(cfg, cat, D, tag1))
    H2 = reconstruct(_functor(cfg, cat, D, tag2))
    T = twist_between(H1, H2)
    report = verify_twist(H1, H2, T, tol=cfg.tolerance)
    if cfg.output:
        save_json(cfg.output, twist_to_json(cat.ring.labels, T, report))
    return _emit(report, cfg, (f"twist {tag1} -> {tag2} on {cat.name}",))


_COMMANDS = {
    "verify": cmd_verify,
    "dims": cmd_dims,
    "reconstruct": cmd_reconstruct,
    "check-hopf": cmd_check_hopf,
    "twist": cmd_twist,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config(args)
        return _COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FunctorError, HopfError, TwistError) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
