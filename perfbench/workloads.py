"""The three benchmark workloads.

Each workload has four steps:

- `setup()` imports the package and certifies the catalog entries it uses.
  A command-line user pays this on every call, so it is timed as `setup_s`.
- `prepare(ctx, seed, workdir)` makes the op's inputs from the seed.  It is
  not timed.
- `op(inputs, k)` is the timed unit, the k-th op of its process.  It builds
  its functors and algebras from scratch every time.  Two processes given
  the same seed do the same work in their k-th ops.
- `facts(inputs, result)` turns the op's result into the verdict that
  `verdicts.EXPECTED` holds the known answer for.  It is not timed.

Calls into the package go through module attributes (`hopf.reconstruct`),
so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import verdicts


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    prepare: Callable
    op: Callable
    facts: Callable


def _axiom_op(inputs, _k):
    from wqhopf import functor, hopf
    cat, D, tol = inputs["cat"], inputs["D"], inputs["tol"]
    H = hopf.reconstruct(functor.build_functor(cat, D))
    report = hopf.verify_weak_axioms(H, tol=tol)
    report.extend(hopf.verify_structure_transport(H, tol=tol))
    return H, report


def _axiom_count(report):
    return (sum(c.passed for c in report.checks), len(report.checks))


# -- fib-weak -----------------------------------------------------------------

def _fib_setup():
    from wqhopf.catalog import builtin
    return builtin("fibonacci").category


def _fib_prepare(cat, seed, workdir):
    from wqhopf.fusion import minimize_dimension_function
    return {"cat": cat, "D": minimize_dimension_function(cat.ring, 2),
            "tol": 0.0}


def _fib_facts(inputs, result):
    from wqhopf.linalg import rank
    H, report = result
    tau = inputs["cat"].ring.idx("tau")
    return {"axioms": _axiom_count(report),
            "rank_delta_tau_tau": rank(H.delta_unit[(tau, tau)])}


# -- z3-approx ----------------------------------------------------------------

def _z3_setup():
    from wqhopf.catalog import builtin
    from wqhopf.files import approx_category
    return approx_category(builtin("vec_zn", n=3, q=1).category)


def _z3_prepare(cat, seed, workdir):
    from wqhopf.fusion import canonical_weak_dimension
    return {"cat": cat, "D": canonical_weak_dimension(cat.ring), "tol": 1e-9}


def _z3_facts(inputs, result):
    return {"axioms": _axiom_count(result[1])}


# -- ising-twist-dump ---------------------------------------------------------

TAMPERS = {"check_hopf_plus_one": Fraction(1),
           "check_hopf_plus_1e-400": Fraction(1, 10 ** 400)}


def _ising_setup():
    from wqhopf.catalog import builtin
    return builtin("ising").category


def _tampered_dumps(workdir: Path) -> dict:
    """vec_zn(2,1) at D=(1,2), dumped with phi[(1,1,1)][0][0] raised."""
    from wqhopf.catalog import builtin
    from wqhopf.files import algebra_to_json, save_json
    from wqhopf.functor import build_functor
    from wqhopf.fusion import DimensionFunction
    from wqhopf.hopf import reconstruct
    cat = builtin("vec_zn", n=2, q=1).category
    H = reconstruct(build_functor(cat, DimensionFunction((1, 2), False)))
    paths = {}
    for key, eps in TAMPERS.items():
        obj = algebra_to_json(H)
        entry = next(e for e in obj["phi"] if e["key"] == ["1", "1", "1"])
        scalar = entry["matrix"][0][0]
        # coefficient 0 multiplies zeta^0 = 1, so this adds eps exactly
        scalar["coeffs"][0] = str(Fraction(scalar["coeffs"][0]) + eps)
        paths[key] = workdir / f"{key}.json"
        save_json(str(paths[key]), obj)
    return paths


def _ising_prepare(cat, seed, workdir):
    from wqhopf.fusion import minimize_dimension_function
    return {"cat": cat, "D": minimize_dimension_function(cat.ring, 4),
            "seed": seed, "dump": workdir / "seed_dump.json",
            "tampered": _tampered_dumps(workdir)}


def _check_hopf(path) -> tuple[int, str]:
    from wqhopf import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check-hopf", str(path), "--report", "machine"])
    return code, out.getvalue()


# The op's cost depends on its random functor: over functor seeds 1-24 one op
# took 2.5-4.4 s.  With one functor per run, a run's median would follow its
# seed.  So op k uses functor seed SEED_STRIDE * seed + k, and the median
# over a run's ops reads alike for every seed.
SEED_STRIDE = 1000


def _ising_op(inputs, k):
    from wqhopf import files, functor, hopf, twist
    cat, D = inputs["cat"], inputs["D"]
    H1 = hopf.reconstruct(functor.build_functor(cat, D))
    H2 = hopf.reconstruct(functor.build_functor(
        cat, D, strategy="random", seed=SEED_STRIDE * inputs["seed"] + k))
    T = twist.twist_between(H1, H2)
    twist_report = twist.verify_twist(H1, H2, T)
    files.save_json(str(inputs["dump"]), files.algebra_to_json(H2))
    runs = {"check_hopf_seed_dump": _check_hopf(inputs["dump"])}
    for key, path in inputs["tampered"].items():
        runs[key] = _check_hopf(path)
    return twist_report, runs


def _ising_facts(inputs, result):
    twist_report, runs = result
    facts = {"twist": _axiom_count(twist_report)}
    for key, (code, out) in runs.items():
        checks = [json.loads(line) for line in out.splitlines() if line]
        failed = [c["id"] for c in checks if c["status"] != "pass"]
        if key in TAMPERS:
            facts[key] = verdicts.tamper_fact(code, failed)
        else:
            facts[key] = (code, len(checks) - len(failed), len(checks))
    return facts


WORKLOADS = {w.name: w for w in (
    Workload("fib-weak", _fib_setup, _fib_prepare, _axiom_op, _fib_facts),
    Workload("z3-approx", _z3_setup, _z3_prepare, _axiom_op, _z3_facts),
    Workload("ising-twist-dump", _ising_setup, _ising_prepare, _ising_op,
             _ising_facts),
)}
