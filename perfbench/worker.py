#!/usr/bin/env python3
"""One measurement in a fresh process; `run.py` starts it and reads its last
stdout line, a JSON object.

    worker.py setup WORKLOAD
    worker.py run   WORKLOAD SEED SECONDS WORKDIR
    worker.py trace WORKLOAD SEED SECONDS WORKDIR MICRO SPANS

`setup` times importing the package and certifying the workload's catalog
entries.  `run` repeats the op with tracing off until SECONDS have passed,
timing the host-speed reference kernel (`calibrate.py`) while each op runs.
`trace` runs the micro-benchmarks if MICRO is 1, traces set-up, runs one
untraced warm-up op, then pairs of one untraced and one traced op until
SECONDS have passed since the process began (at least one pair), and writes
the spans to SPANS.  Every op's verdict is
checked against its known answer.
"""

from __future__ import annotations

import contextlib
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

T_START = perf_counter()


def _timed_op(workload, inputs, k, tracer=None, sampler=None):
    """(seconds, verdict) for op k.

    With a tracer, it is installed around the op only, so the verdict check
    is neither traced nor timed.  So is a host sampler, whose own time is
    not counted.  An exception is a wrong verdict.
    """
    import verdicts
    if tracer is not None:
        tracer.counts.clear()
        tracer.install()
        tracer.op = k
    spent = sampler.spent if sampler else 0.0
    t0 = perf_counter()
    try:
        with sampler or contextlib.nullcontext():
            result = workload.op(inputs, k)
    except Exception:
        traceback.print_exc()
        result = None
    finally:
        seconds = perf_counter() - t0
        if sampler is not None:
            seconds -= sampler.spent - spent
        if tracer is not None:
            tracer.op = None
            tracer.uninstall()
    if result is None:
        wrong = ["exception"]
    else:
        wrong = verdicts.mismatches(workload.name,
                                    workload.facts(inputs, result))
    known, unexpected = verdicts.split_known(workload.name, wrong)
    return seconds, {"wrong": wrong, "known": known, "unexpected": unexpected}


def cmd_setup(name):
    import workloads
    workloads.WORKLOADS[name].setup()
    return {"setup_s": perf_counter() - T_START}


def cmd_run(name, seed, seconds, workdir):
    import calibrate
    import workloads
    wl = workloads.WORKLOADS[name]
    inputs = wl.prepare(wl.setup(), seed, workdir)
    sampler = calibrate.HostSampler()
    t0 = perf_counter()
    ops = []
    while not ops or perf_counter() - t0 < seconds:
        ops.append(_timed_op(wl, inputs, len(ops), sampler=sampler))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"op_s": [s for s, _ in ops], "verdicts": [v for _, v in ops],
            "ref_s": sampler.ref_s, "peak_rss_mb": peak_kb / 1024}


def cmd_trace(name, seed, seconds, workdir, micro_flag, spans_path):
    import micro
    import tracing
    import workloads
    import wqhopf.cli  # noqa: F401  (imports every layer module)
    wl = workloads.WORKLOADS[name]
    out = {"micro": micro.run(seed) if micro_flag else {}}

    tracer = tracing.Tracer()
    tracer.op = "setup"
    tracer.install()
    ctx = wl.setup()
    tracer.uninstall()
    out["setup_span_s"] = tracing.durations(tracer.spans)

    inputs = wl.prepare(ctx, seed, workdir)
    _, verdict = _timed_op(wl, inputs, 0)     # warm-up: fills lazy caches
    out["untraced_s"], out["verdicts"], out["ops"] = [], [verdict], []
    dump = inputs.get("dump")
    k = 0
    while not out["ops"] or perf_counter() - T_START < seconds:
        # both ops of a pair do the same work, the second one traced
        k += 1
        untraced_s, verdict = _timed_op(wl, inputs, k)
        out["untraced_s"].append(untraced_s)
        out["verdicts"].append(verdict)
        wall, verdict = _timed_op(wl, inputs, k, tracer)
        self_s, calls = tracing.self_times(
            [s for s in tracer.spans if s[0] == k])
        out["verdicts"].append(verdict)
        out["ops"].append({
            "wall_s": wall, "self_s": self_s,
            "calls": {**calls, **tracer.counts},
            "dump_bytes": os.path.getsize(dump) if dump else 0,
        })
    tracer.write(spans_path)
    return out


def main(argv):
    import json
    mode, name, *rest = argv
    if mode == "setup":
        out = cmd_setup(name)
    elif mode == "run":
        seed, seconds, workdir = int(rest[0]), float(rest[1]), Path(rest[2])
        out = cmd_run(name, seed, seconds, workdir)
    elif mode == "trace":
        seed, seconds, workdir = int(rest[0]), float(rest[1]), Path(rest[2])
        out = cmd_trace(name, seed, seconds, workdir, rest[3] == "1",
                        rest[4])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
