"""Host-speed reference: a fixed kernel timed during every measured op.

The shared host's speed drifts by 20-30% over minutes, alike for every
process on it, so an op's wall time alone reads differently from one run to
the next on the same code.  While an op runs, `HostSampler` times this
kernel every `PERIOD_S`; `scaled` turns the run's wall times into seconds on
a host where the kernel takes `NOMINAL_S`.

The kernel uses only the standard library, so no change to the package can
make it faster or slower.  It does what the package's hot path does:
products of small polynomials over Q with `Fraction` coefficients, reduced
modulo a cyclotomic polynomial (x^8 + 1, that of Q(zeta16)).  The cyclic
garbage collector is off while it runs, so the package's heap does not
change its time.
"""

from __future__ import annotations

import gc
import random
import signal
from fractions import Fraction
from statistics import median
from time import perf_counter

NOMINAL_S = 0.001       # near the kernel's median on the machine in README.md
PERIOD_S = 0.1          # a sample of about 1 ms per 0.1 s of op

_RNG = random.Random(20240501)
_POLYS = [[Fraction(_RNG.randint(-9, 9), _RNG.randint(1, 9))
           for _ in range(8)] for _ in range(3)]


def kernel() -> Fraction:
    """Sum of the constant terms of three fixed products mod x^8 + 1."""
    total = Fraction(0)
    for i, a in enumerate(_POLYS):
        b = _POLYS[(5 * i + 3) % len(_POLYS)]
        out = [Fraction(0)] * 8
        for j, x in enumerate(a):
            for k, y in enumerate(b):
                if j + k < 8:
                    out[j + k] += x * y
                else:
                    out[j + k - 8] -= x * y
        total += out[0]
    return total


class HostSampler:
    """Context manager that times the kernel every `PERIOD_S` of wall time.

    A SIGALRM handler runs the kernel between two bytecodes of whatever the
    process is doing, so the samples cover the measured op densely and on
    the same CPU.  `ref_s` holds every sample; `spent` is the handlers'
    total time, which the caller subtracts from the op's time.
    """

    def __init__(self):
        self.ref_s: list[float] = []
        self.spent = 0.0
        self._old = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            kernel()
        finally:
            if was_enabled:
                gc.enable()
        t1 = perf_counter()
        self.ref_s.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


def scaled(seconds: float, ref_s) -> float:
    """`seconds` measured while the kernel took median(`ref_s`), rescaled to
    a host where it takes `NOMINAL_S`."""
    return seconds * NOMINAL_S / median(ref_s)
