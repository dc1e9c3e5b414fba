"""Tests of the benchmark itself: the verdict checker, the span arithmetic,
the tracer's wrapping, and one op of each workload against its known answer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import sys

import pytest

import procs

if str(procs.SRC) not in sys.path:
    sys.path.insert(0, str(procs.SRC))

import tracing  # noqa: E402
import verdicts  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# -- verdict checker ----------------------------------------------------------

def test_checker_accepts_the_known_answer():
    facts = dict(verdicts.EXPECTED["fib-weak"])
    assert verdicts.mismatches("fib-weak", facts) == []


def test_checker_flags_a_wrong_report():
    facts = {"axioms": (23, 24), "rank_delta_tau_tau": 3}
    wrong = verdicts.mismatches("fib-weak", facts)
    assert wrong == ["axioms"]
    assert verdicts.split_known("fib-weak", wrong) == ([], ["axioms"])


def test_checker_flags_a_missing_fact():
    assert verdicts.mismatches("z3-approx", {}) == ["axioms"]


def test_known_defect_is_counted_but_kept_apart():
    facts = dict(verdicts.EXPECTED["ising-twist-dump"])
    facts["check_hopf_plus_1e-400"] = verdicts.tamper_fact(0, [])
    facts["twist"] = (3, 4)
    wrong = verdicts.mismatches("ising-twist-dump", facts)
    assert wrong == ["twist", "check_hopf_plus_1e-400"]
    assert verdicts.split_known("ising-twist-dump", wrong) == (
        ["check_hopf_plus_1e-400"], ["twist"])


def test_tamper_fact_needs_every_linear_check_to_fail():
    assert verdicts.tamper_fact(1, ["ff1", "ff2", "quasi-coassociativity",
                                    "pentagon"]) == (1, True)
    assert verdicts.tamper_fact(1, ["ff1", "ff2"]) == (1, False)


# -- span arithmetic ----------------------------------------------------------

def test_self_times_on_a_synthetic_tree():
    # a [0,10] holds b [1,4] and c [5,9]; b holds d [2,3]; c holds two
    # overlapping spans named e, [6,8] and [7,8.5], which cover [6,8.5]
    spans = [
        (0, 0, -1, "a", 0.0, 10.0),
        (0, 1, 0, "b", 1.0, 4.0),
        (0, 2, 1, "d", 2.0, 3.0),
        (0, 3, 0, "c", 5.0, 9.0),
        (0, 4, 3, "e", 6.0, 8.0),
        (0, 5, 3, "e", 7.0, 8.5),
    ]
    self_s, calls = tracing.self_times(spans)
    assert self_s == pytest.approx({"a": 3.0, "b": 2.0, "d": 1.0, "c": 1.5,
                                    "e": 3.5})
    assert calls == {"a": 1, "b": 1, "d": 1, "c": 1, "e": 2}
    assert tracing.durations(spans)["a"] == 10.0


def test_child_reaching_past_its_parent_is_clipped():
    spans = [(0, 0, -1, "p", 0.0, 2.0), (0, 1, 0, "q", 1.0, 5.0)]
    assert tracing.self_times(spans)[0]["p"] == pytest.approx(1.0)


# -- tracer -------------------------------------------------------------------

def test_tracer_wraps_imported_names_and_restores_them():
    import wqhopf.cli  # noqa: F401  (imports every layer module)
    from wqhopf import hopf, linalg
    from wqhopf.scalars import Cyc
    original, imported, mul = linalg.matmul, hopf.matmul, Cyc.__mul__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hopf.matmul is linalg.matmul is not original
        tracer.op = 0
        one = Cyc.rational(1)
        A = [[one, one], [one, one]]
        hopf.family_mul({0: A}, {0: A})
    finally:
        tracer.uninstall()
    assert (linalg.matmul, hopf.matmul, Cyc.__mul__) == (original, imported,
                                                         mul)
    self_s, calls = tracing.self_times(tracer.spans)
    assert calls["hopf.family_mul"] == 1 and calls["linalg.matmul"] == 1
    assert tracer.counts["scalars.cyc_mul"] == 8


# -- host-speed reference -----------------------------------------------------

def test_host_sampler_samples_while_entered_and_restores_the_handler():
    import signal
    from time import perf_counter

    import calibrate
    before = signal.getsignal(signal.SIGALRM)
    sampler = calibrate.HostSampler()
    with sampler:
        t0 = perf_counter()
        while perf_counter() - t0 < 3.5 * calibrate.PERIOD_S:
            pass
    assert len(sampler.ref_s) >= 2
    assert sampler.spent == pytest.approx(sum(sampler.ref_s))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert calibrate.scaled(2.0, [calibrate.NOMINAL_S * 2]) == 1.0


# -- workloads ----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_op_matches_its_known_answer(name, tmp_path):
    wl = WORKLOADS[name]
    inputs = wl.prepare(wl.setup(), 3, tmp_path)
    wrong = verdicts.mismatches(name, wl.facts(inputs, wl.op(inputs, 0)))
    known, unexpected = verdicts.split_known(name, wrong)
    assert unexpected == []
    # the only tolerated mismatch is the documented sub-float dump
    assert set(known) <= {"check_hopf_plus_1e-400"}


# -- BENCHMARK.json -----------------------------------------------------------

def test_benchmark_json_lists_what_run_prints():
    import json

    import run
    spec = json.loads((procs.ROOT / "BENCHMARK.json").read_text())
    # z3-approx is kept for runs by hand and not compared
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in WORKLOADS if name != "z3-approx"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {name: unit for name, (_, _, unit) in run.PER_LAYER.items()}
    per_layer.update(run.TRACE_EXTRAS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
