"""Micro-benchmarks of the scalar operators and of `linalg.matmul`.

Operands are drawn from the run's seed: cyclotomic numbers with dense random
coordinates p/q, |p| <= 3 and 1 <= q <= 3, and complex doubles for the float
backend.  Each figure is the median over several timed batches of the time
per call.  Exact 64x64 matmul takes about 40 s, so only the float one is at
n=64.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

BATCHES = 3


def _cyc(rng, n):
    from wqhopf.scalars import Cyc, euler_phi
    return Cyc(n, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                   for _ in range(euler_phi(n))])


def _approx(rng):
    from wqhopf.scalars import Approx
    return Approx(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))


def _per_call(fn, pairs, reps):
    """Median over `BATCHES` of the seconds per call of fn(x, y)."""
    times = []
    for _ in range(BATCHES):
        t0 = perf_counter()
        for _ in range(reps):
            for x, y in pairs:
                fn(x, y)
        times.append((perf_counter() - t0) / (reps * len(pairs)))
    return statistics.median(times)


def run(seed: int) -> dict:
    """Every micro metric by name, in its unit (us per op, ms per matmul)."""
    from wqhopf.linalg import matmul
    rng = random.Random(f"micro:{seed}")

    def pairs(n, m, k=16):
        return [(_cyc(rng, n), _cyc(rng, m)) for _ in range(k)]

    mul, add = (lambda x, y: x * y), (lambda x, y: x + y)
    c5, c16, c8_16 = pairs(5, 5), pairs(16, 16), pairs(8, 16)
    out = {
        "scalars.mul_us.c5": _per_call(mul, c5, 2) * 1e6,
        "scalars.mul_us.c16": _per_call(mul, c16, 1) * 1e6,
        "scalars.add_us.c16": _per_call(add, c16, 8) * 1e6,
        "scalars.add_us.mixed_8_16": _per_call(add, c8_16, 1) * 1e6,
        "scalars.inverse_us.c16":
            _per_call(lambda x, _: x.inverse(), c16, 1) * 1e6,
    }
    A = [[_cyc(rng, 5) for _ in range(16)] for _ in range(16)]
    B = [[_cyc(rng, 5) for _ in range(16)] for _ in range(16)]
    out["linalg.matmul_ms.n16_c5"] = _per_call(matmul, [(A, B)], 1) * 1e3
    A = [[_approx(rng) for _ in range(64)] for _ in range(64)]
    B = [[_approx(rng) for _ in range(64)] for _ in range(64)]
    out["linalg.matmul_ms.n64_approx"] = _per_call(matmul, [(A, B)], 1) * 1e3
    return out
