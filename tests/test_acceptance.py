"""Acceptance gate: ten headline properties, each timed and announced.

Every test prints a single summary line even under capture, so a full run
shows at a glance which gates hold. All algebraic gates run on the exact
backend with tolerance 0.
"""

import json
import time
from itertools import product

from wqhopf.catalog import builtin, catalog_keys, certify
from wqhopf.category import make_category, verify_category
from wqhopf.cli import main
from wqhopf.files import category_to_json, load_json, save_json
from wqhopf.fusion import (DimensionFunction, canonical_weak_dimension,
                           is_weak_dimension_function,
                           minimize_dimension_function)
from wqhopf.functor import build_functor
from wqhopf.hopf import (reconstruct, verify_structure_transport,
                         verify_weak_axioms)
from wqhopf.linalg import eye, is_identity, matmul, rank
from wqhopf.scalars import Cyc
from wqhopf.solver import braided_solutions
from wqhopf.twist import twist_between, verify_twist


def _gate(capsys, tag, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")


def _copy_table(table):
    return {k: [row[:] for row in M] for k, M in table.items()}


def test_gate_1_catalog_certification(capsys):
    t0 = time.perf_counter()
    problems = []
    keys = list(catalog_keys())
    if len(keys) != 7:
        problems.append(("catalog size", len(keys)))
    for name, n, q in keys:
        rep = certify(builtin(name, n=n, q=q))
        if not rep.passed:
            problems.append((name, n, q, [c.id for c in rep.failures()]))
    fib = builtin("fibonacci").category
    perturbed = []
    for i in range(2):
        for j in range(2):
            F = _copy_table(fib.F)
            F[(1, 1, 1, 1)][i][j] = F[(1, 1, 1, 1)][i][j] + Cyc.rational(1)
            perturbed.append(make_category(fib.ring, F, fib.R, fib.theta,
                                           name=f"F[{i}][{j}]+1"))
    for key in ((1, 1, 0), (1, 1, 1)):
        R = _copy_table(fib.R)
        R[key][0][0] = R[key][0][0] + Cyc.rational(1)
        perturbed.append(make_category(fib.ring, fib.F, R, fib.theta,
                                       name=f"R{key}+1"))
    caught = sum(1 for bad in perturbed if not verify_category(bad).passed)
    if caught != len(perturbed):
        problems.append(("undetected perturbations", len(perturbed) - caught))
    dt = time.perf_counter() - t0
    ok = not problems and dt < 30.0
    _gate(capsys, "gate 1 catalog certification", ok,
          f"{len(keys)} entries exact, {caught}/{len(perturbed)} "
          f"perturbations caught, {dt:.1f}s (< 30s)")
    assert not problems, problems
    assert dt < 30.0


def test_gate_2_dimension_functions(capsys):
    t0 = time.perf_counter()
    problems = []
    rings = {"fibonacci": builtin("fibonacci").category.ring,
             "ising": builtin("ising").category.ring}
    expected = {"fibonacci": ((1, 3), (1, 2)), "ising": ((1, 4, 3), (1, 2, 1))}
    for name, ring in rings.items():
        want_canonical, want_minimal = expected[name]
        can = canonical_weak_dimension(ring)
        if can.values != want_canonical:
            problems.append((name, "canonical", can.values))
        if not is_weak_dimension_function(ring, can.values).passed:
            problems.append((name, "canonical fails inequalities"))
        found = minimize_dimension_function(ring, 4)
        if found.values != want_minimal:
            problems.append((name, "minimal", found.values))
        # optimality certificate by brute enumeration of every vector <= 4
        best = min(sum(v * v for v in vec)
                   for vec in product(range(1, 5), repeat=ring.rank)
                   if is_weak_dimension_function(ring, vec).passed)
        if sum(v * v for v in found.values) != best:
            problems.append((name, "not optimal", best))
    dt = time.perf_counter() - t0
    ok = not problems and dt < 5.0
    _gate(capsys, "gate 2 dimension functions", ok,
          f"canonical (1,3)/(1,4,3), minimal (1,2)/(1,2,1) certified optimal, "
          f"{dt:.1f}s (< 5s)")
    assert not problems, problems
    assert dt < 5.0


def test_gate_3_flagship_reconstruction(capsys):
    t0 = time.perf_counter()
    problems = []
    cat = builtin("fibonacci").category
    H = reconstruct(build_functor(cat, DimensionFunction((1, 2), False)))
    if H.dim != 5:
        problems.append(("dim", H.dim))
    P = H.delta_unit[(1, 1)]
    if matmul(P, P) != P or rank(P) != 3:
        problems.append("delta(1) tau-tau block is not a rank-3 idempotent")
    rep = verify_weak_axioms(H)
    required = {"ff1", "ff2", "ff3", "ff4", "ff5", "quasi-coassociativity",
                "phi-pentagon", "antipode-alpha", "antipode-beta",
                "r-intertwine", "counit-laws", "ribbon-central",
                "ribbon-counit", "ribbon-antipode", "ribbon-coproduct"}
    missing = required - {c.id for c in rep.checks}
    if missing:
        problems.append(("missing checks", missing))
    if not rep.passed:
        problems.append(("failures", [c.id for c in rep.failures()]))
    dt = time.perf_counter() - t0
    ok = not problems and dt < 60.0
    _gate(capsys, "gate 3 flagship reconstruction", ok,
          f"dim 5, rank-3 weak unit, {len(rep.checks)} axiom checks at "
          f"tolerance 0, {dt:.1f}s (< 60s)")
    assert not problems, problems
    assert dt < 60.0


def test_gate_4_structure_transport(capsys, flagship, ising_hopf):
    problems = []
    for name, H in (("fibonacci", flagship), ("ising", ising_hopf)):
        rep = verify_structure_transport(H)
        required = {"transport-intertwiner", "transport-span",
                    "transport-braiding"}
        missing = required - {c.id for c in rep.checks}
        if missing:
            problems.append((name, "missing checks", missing))
        if not rep.passed:
            problems.append((name, [c.id for c in rep.failures()]))
    _gate(capsys, "gate 4 structure transport", not problems,
          "transported bases independent and spanning, braiding matches "
          "category data entrywise, tolerance 0")
    assert not problems, problems


def test_gate_5_exact_dimension_degeneration(capsys):
    problems = []
    for n, q in ((2, 0), (2, 1), (3, 0), (3, 1)):
        cat = builtin("vec_zn", n=n, q=q).category
        H = reconstruct(build_functor(cat, DimensionFunction((1,) * n, True)))
        if not all(is_identity(M) for M in H.delta_unit.values()):
            problems.append((n, q, "delta(1) not the identity"))
        for key, M in H.phi.items():
            I = eye(len(M), cat.one)
            if (matmul(M, H.phi_inv[key]) != I
                    or matmul(H.phi_inv[key], M) != I):
                problems.append((n, q, key, "phi not invertible"))
        rep = verify_weak_axioms(H)
        rep.extend(verify_structure_transport(H))
        if not rep.passed:
            problems.append((n, q, [c.id for c in rep.failures()]))
        if q == 0 and not all(is_identity(M) for M in H.phi.values()):
            problems.append((n, q, "flat cocycle but nontrivial associator"))
    _gate(capsys, "gate 5 exact-dimension degeneration", not problems,
          "vec_zn(2,*) and vec_zn(3,*): identity weak unit, invertible "
          "associator, all checks pass; q=0 gives phi == 1")
    assert not problems, problems


def test_gate_6_twist_equivalence(capsys):
    t0 = time.perf_counter()
    problems = []
    pairs = 0
    required = {"twist-quasi-inverse", "twist-coproduct", "twist-braiding",
                "twist-associator"}
    for name, n, q in catalog_keys():
        cat = builtin(name, n=n, q=q).category
        D = minimize_dimension_function(cat.ring, 4)
        algebras = {}
        for tag in ("canonical", 3, 7, 11):
            F = (build_functor(cat, D) if tag == "canonical"
                 else build_functor(cat, D, strategy="random", seed=tag))
            algebras[tag] = reconstruct(F)
        for x, y in product(algebras, repeat=2):
            T = twist_between(algebras[x], algebras[y])
            rep = verify_twist(algebras[x], algebras[y], T)
            pairs += 1
            if required - {c.id for c in rep.checks}:
                problems.append((cat.name, x, y, "missing checks"))
            if not rep.passed:
                problems.append((cat.name, x, y,
                                 [c.id for c in rep.failures()]))
    dt = time.perf_counter() - t0
    ok = not problems and dt < 120.0
    _gate(capsys, "gate 6 twist equivalence", ok,
          f"{pairs} seed pairs across 7 categories, quasi-inverse plus "
          f"coproduct/braiding/associator transport at tolerance 0, "
          f"{dt:.1f}s (< 120s)")
    assert not problems, problems
    assert dt < 120.0


def test_gate_7_solver_cross_check(capsys):
    problems = []
    counts = {}
    for name, conductor in (("fibonacci", 20), ("ising", 16)):
        ring = builtin(name).category.ring
        sols = braided_solutions(ring, conductor)
        counts[name] = len(sols)
        for k, sol in enumerate(sols):
            cat = make_category(ring, sol["F"], sol["R"], name=f"{name}#{k}")
            rep = verify_category(cat)
            if not rep.passed:
                problems.append((name, k, [c.id for c in rep.failures()]))
        if name == "fibonacci":
            for sol in sols:
                a = sol["F"][(1, 1, 1, 1)][0][0]
                if a * a + a - Cyc.rational(1) != Cyc.rational(0):
                    problems.append(("golden minimal polynomial", a))
    _gate(capsys, "gate 7 solver cross-check", not problems,
          f"{counts.get('fibonacci')} fibonacci and {counts.get('ising')} "
          f"ising braided solutions from independent assembly all pass the "
          f"word-level verifiers; F entry solves x^2 + x - 1 = 0 exactly")
    assert not problems, problems


def test_gate_8_cli_round_trip(capsys, tmp_path):
    problems = []
    dump = tmp_path / "h.json"
    code = main(["reconstruct", "--builtin", "fibonacci", "--minimal", "4",
                 "--report", "machine", "-o", str(dump)])
    first = [json.loads(s) for s in capsys.readouterr().out.splitlines() if s]
    if code != 0:
        problems.append(("reconstruct exit", code))
    code = main(["check-hopf", str(dump), "--report", "machine"])
    second = [json.loads(s) for s in capsys.readouterr().out.splitlines() if s]
    if code != 0:
        problems.append(("check-hopf exit", code))
    if first != second:
        problems.append("round-trip reports differ")

    broken = category_to_json(builtin("fibonacci").category)
    for entry in broken["F"]:
        if entry["labels"] == ["tau", "tau", "tau", "tau"]:
            entry["matrix"][0][0] = {"conductor": 1, "coeffs": ["1"]}
    bad_cat = tmp_path / "bad.json"
    save_json(str(bad_cat), broken)
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    tampered = tmp_path / "tampered.json"
    obj = load_json(str(dump))
    obj["provenance"]["category_sha256"] = "0" * 64
    save_json(str(tampered), obj)
    crafted = (
        (["verify", str(bad_cat)], 1),
        (["verify", str(junk)], 2),
        (["check-hopf", str(tampered)], 2),
    )
    codes = []
    for argv, want in crafted:
        got = main(argv)
        capsys.readouterr()
        codes.append(got)
        if got != want:
            problems.append((argv, "exit", got, "wanted", want))
    _gate(capsys, "gate 8 cli round-trip", not problems,
          f"dump and re-check reports identical ({len(first)} checks); "
          f"crafted failures exit {tuple(codes)}")
    assert not problems, problems


def test_gate_9_fibonacci_canonical(capsys):
    t0 = time.perf_counter()
    cat = builtin("fibonacci").category
    D = canonical_weak_dimension(cat.ring)
    H = reconstruct(build_functor(cat, D))
    rep = verify_weak_axioms(H)
    rep.extend(verify_structure_transport(H))
    dt = time.perf_counter() - t0
    problems = []
    if (D.values, H.dim) != ((1, 3), 10):
        problems.append(("D, dim", D.values, H.dim))
    if len(rep.checks) != 24 or not rep.passed:
        problems.append(("checks", len(rep.checks),
                         [c.id for c in rep.failures()]))
    ok = not problems and dt < 10.0
    _gate(capsys, "gate 9 fibonacci canonical", ok,
          f"D=(1,3), dim 10, {sum(c.passed for c in rep.checks)}/"
          f"{len(rep.checks)} weak-axiom and transport checks at tolerance "
          f"0, {dt:.1f}s (< 10s)")
    assert not problems, problems
    assert dt < 10.0


def test_gate_10_ising_canonical(capsys):
    t0 = time.perf_counter()
    cat = builtin("ising").category
    D = canonical_weak_dimension(cat.ring)
    H = reconstruct(build_functor(cat, D))
    rep = verify_weak_axioms(H)
    rep.extend(verify_structure_transport(H))
    dt = time.perf_counter() - t0
    problems = []
    if (D.values, H.dim) != ((1, 4, 3), 26):
        problems.append(("D, dim", D.values, H.dim))
    if len(rep.checks) != 24 or not rep.passed:
        problems.append(("checks", len(rep.checks),
                         [c.id for c in rep.failures()]))
    ok = not problems and dt < 30.0
    _gate(capsys, "gate 10 ising canonical", ok,
          f"D=(1,4,3), dim 26, {sum(c.passed for c in rep.checks)}/"
          f"{len(rep.checks)} weak-axiom and transport checks at tolerance "
          f"0, {dt:.1f}s (< 30s)")
    assert not problems, problems
    assert dt < 30.0
