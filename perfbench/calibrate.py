"""Host-speed calibration for the timing metrics.

The benchmark runs on shared machines whose cores change speed by tens of
percent within seconds, and process CPU time moves with wall time, so
neither clock is steady by itself.
A fixed pure-Python kernel, written like the library's hot loops (a frozen
tolerance dataclass, generator ``all``, tuple sorting, dict building) but
sharing no code with it, is timed next to the ops.  Each op's latency is
scaled by ``NOMINAL_S / kernel time`` measured around it, which reports it at
the host's nominal speed.  A change to maro cannot change the kernel's time,
so it shows in full in the scaled latencies.

Ops that run in child processes (``cli_cold``) may run on the other core, so
the parent's kernel does not track them; their calibration kernel is a bare
interpreter start, ``python -c pass``, itself a child process.
"""

from __future__ import annotations

import gc
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from statistics import median
from time import perf_counter

# Median kernel time on the 2-core x86-64 host, Python 3.11, where the
# benchmark was defined; scaled timings read as if the host ran at that speed.
NOMINAL_S = 0.0020
NOMINAL_START_S = 0.045  # the same for a bare interpreter start
WINDOW = 3  # samples on each side of an interval that set its scale


@dataclass(frozen=True)
class _Tol:
    tau: float = 1e-9

    def leq(self, a, b):
        if math.isinf(a) or math.isinf(b):
            return a <= b
        return a - b <= self.tau

    def eq(self, a, b):
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= self.tau


_TOL = _Tol()


def _dominates(a, b, tol):
    below = all(tol.leq(a[i], b[i]) for i in range(len(a)))
    return below and not all(tol.eq(a[i], b[i]) for i in range(len(a)))


def kernel() -> int:
    rng = random.Random(7)
    kept = 0
    for _ in range(4):
        pts = sorted(tuple(float(rng.randint(0, 100)) for _ in range(2)) for _ in range(40))
        front = [p for p in pts if not any(_dominates(q, p, _TOL) for q in pts)]
        kept += len({(i, p): p for i, p in enumerate(front)})
    return kept


def kernel_time() -> float:
    """One kernel run, with the collector off so the library's garbage
    cannot be collected on the kernel's clock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def interpreter_start_time() -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return perf_counter() - t0


class Calibration:
    """Kernel samples at least ``every`` seconds apart, and the scale of each
    measured interval to nominal speed."""

    def __init__(self, kernel=kernel_time, nominal: float = NOMINAL_S,
                 every: float = 0.1, runs: int = 3):
        self.kernel = kernel
        self.nominal = nominal
        self.every = every
        self.runs = runs
        self.times: list[float] = []    # when each sample ended
        self.kernels: list[float] = []  # kernel duration of each sample

    def tick(self, force: bool = False, runs: int | None = None):
        """Take a sample if one is due: the median of ``runs`` kernel runs,
        so the first run after an op, on caches the op filled, does not set it."""
        if force or not self.times or perf_counter() - self.times[-1] >= self.every:
            k = median(self.kernel() for _ in range(runs or self.runs))
            self.times.append(perf_counter())
            self.kernels.append(k)

    def index(self) -> int:
        """Index of the latest sample; an interval starting now is bracketed
        by this sample and the next one taken."""
        return len(self.kernels) - 1

    def scale(self, raw: float, before: int) -> float:
        """``raw`` seconds, measured after sample ``before``, at nominal speed.

        The median of the samples around the interval smooths the noise of a
        single short kernel run; the host's speed drifts over seconds.
        """
        lo = max(before - WINDOW + 1, 0)
        k = median(self.kernels[lo:before + WINDOW + 1])
        return raw * self.nominal / k
