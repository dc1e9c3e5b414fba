#!/usr/bin/env python3
"""Opt-in ladder probe: the reconstructions that are out of reach today.

Runs each row once, in its own fresh process, under a wall-time cap, and
records its seconds or `timeout`.  The rows are the large end of the ladder:
exact verification on the canonical dimension functions.  This probe is not
part of the compared benchmark; it gives the scalar and tensor-leg work a
before-and-after figure for the rows it is meant to bring within reach.

    python3 perfbench/ladder.py

Prints one line per row and, last, one JSON object with every row.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from procs import ChildError, ChildTimeout, run_child, sources_present

CAP_S = 300.0           # wall-time cap per row
ROWS = {
    "fibonacci-canonical": ("fibonacci", None, None),
    "vec_zn-3-1-canonical": ("vec_zn", 3, 1),
    "ising-canonical": ("ising", None, None),
}


def run_row(name: str) -> dict:
    """One row in this process: reconstruct, then both verifiers, exactly."""
    from wqhopf.catalog import builtin
    from wqhopf.functor import build_functor
    from wqhopf.fusion import canonical_weak_dimension
    from wqhopf.hopf import (reconstruct, verify_structure_transport,
                             verify_weak_axioms)

    cat = builtin(*ROWS[name]).category
    D = canonical_weak_dimension(cat.ring)
    t0 = time.perf_counter()
    H = reconstruct(build_functor(cat, D))
    t1 = time.perf_counter()
    report = verify_weak_axioms(H)
    t2 = time.perf_counter()
    report.extend(verify_structure_transport(H))
    t3 = time.perf_counter()
    return {"row": name, "D": list(D.values), "dim": H.dim,
            "reconstruct_s": t1 - t0, "verify_s": t2 - t1,
            "transport_s": t3 - t2, "seconds": t3 - t0,
            "passed": sum(c.passed for c in report.checks),
            "checks": len(report.checks)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--row", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.row is not None:
        print(json.dumps(run_row(args.row)))
        return 0
    if not sources_present():
        print("error: wqhopf sources not found under src/", file=sys.stderr)
        return 2
    out = []
    for name in ROWS:
        try:
            row = run_child("ladder.py", ["--row", name], timeout=CAP_S)
        except ChildTimeout:
            row = {"row": name, "seconds": "timeout", "cap_s": CAP_S}
        except ChildError as exc:
            row = {"row": name, "seconds": "error", "detail": str(exc)}
        print(f"{name}: {row['seconds']}", flush=True)
        out.append(row)
    print(json.dumps({"cap_s": CAP_S, "rows": out}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
