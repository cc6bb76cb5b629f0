"""Host speed sampled while a step runs, to state its time on a host of fixed speed.

A shared host changes the speed it gives a virtual CPU by up to 2x within
seconds, so two runs of the same code can differ by that much in wall time.
While a timed step runs, SIGALRM fires every PERIOD_S and its handler runs a
fixed micro-kernel on the main thread: an interpreter loop, small-array
numpy and a small LAPACK call, the mix the workloads' hot paths are made of,
and nothing of the package.  The kernel runs are recorded.  A span of the
step is then reported as

    (span time - kernel time inside it) * REF_S / (mean kernel time inside it)

which is the span's time on a host where the kernel takes REF_S.  Sampling
all through the step, rather than once before and after it, follows speed
changes that are shorter than the step.

Python runs signal handlers on the main thread between bytecodes, so a long
C call delays a sample until it returns; blocking calls are retried after
the handler (PEP 475).  While another thread is alive the kernel is skipped:
it would wait for the GIL and for a CPU, and read the workload's own
contention as host speed.  Spans without samples take the speed of the
whole step.  A child process competes with the kernel for the CPUs in the
same way, so a step run in a child is timed between two probes (probe_s)
instead of sampled.
"""

from __future__ import annotations

import signal
import threading
import time
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.04
# Fixed kernel time that reported times are scaled to: about the kernel's
# fastest time on the development host (2-vCPU x86-64 Firecracker guest,
# Python 3.11, numpy with OpenBLAS, one BLAS thread), where it ran 1.6-3 ms.
REF_S = 0.0016
MIN_SAMPLES = 5

_MATRIX = np.random.default_rng(0).standard_normal((30, 30))
# bound now, so a hook installed later on numpy.linalg.eig never sees the kernel
_eig = np.linalg.eig


def kernel() -> None:
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    x = np.arange(16.0)
    for _ in range(250):
        x = np.sqrt(x * 1.0001 + 1.0)
    for _ in range(2):
        _eig(_MATRIX)


@dataclass
class Samples:
    """Start and end of every kernel run during one step."""

    starts: np.ndarray
    ends: np.ndarray

    def kernel_s(self) -> np.ndarray:
        return self.ends - self.starts

    def _inside(self, intervals) -> np.ndarray:
        mask = np.zeros(len(self.starts), dtype=bool)
        for t0, t1 in intervals:
            mask |= (self.starts >= t0) & (self.starts < t1)
        return mask

    def reference_s(self, intervals) -> float:
        """Summed length of the intervals, net of the kernel runs inside them,
        on a host where the kernel takes REF_S.

        The speed is the kernel's mean time inside the intervals, or over
        the whole step when fewer than MIN_SAMPLES runs fell inside.
        """
        inside = self._inside(intervals)
        length = sum(t1 - t0 for t0, t1 in intervals) - float(self.kernel_s()[inside].sum())
        sample = self.kernel_s()[inside] if inside.sum() >= MIN_SAMPLES else self.kernel_s()
        if len(sample) == 0:
            return float("nan")
        return length * REF_S / float(sample.mean())


class Sampler:
    """Runs the kernel from SIGALRM while a step runs (main thread only)."""

    WARMUP = 50

    def __init__(self):
        self._starts: list[float] = []
        self._ends: list[float] = []
        for _ in range(self.WARMUP):   # the first runs fault in code and LAPACK buffers
            kernel()

    @staticmethod
    def probe_s(runs: int = 30) -> float:
        """Mean kernel time over `runs` back-to-back runs."""
        t0 = time.perf_counter()
        for _ in range(runs):
            kernel()
        return (time.perf_counter() - t0) / runs

    def _handler(self, _signum, _frame) -> None:
        if threading.active_count() > 1:
            return
        t0 = time.perf_counter()
        kernel()
        self._ends.append(time.perf_counter())
        self._starts.append(t0)

    def measure(self, fn):
        """Run fn() with the kernel sampling; return (its result, Samples)."""
        self._starts, self._ends = [], []
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        return out, Samples(np.array(self._starts), np.array(self._ends))
