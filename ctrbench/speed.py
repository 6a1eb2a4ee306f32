"""Scaling of wall times to a reference host speed.

The CPUs this benchmark runs on are shared: a fixed piece of work takes
10-40 % longer for seconds or minutes at a time while other tenants load
the same cores, and the two CPUs change speed independently.  So the
benchmark samples the speed of its own CPU while it measures.  Every
``INTERVAL_S`` a timer signal runs a short fixed kernel (interpreted loop,
small float32 matrix products, a gather from a 4 MB table: the kinds of
work the program does) and records how long it took.  A timed call then
reports

    work   = wall time - time spent in the kernel during the call
    scaled = work * REFERENCE_S / mean kernel time around the call

``scaled`` is the time the call would take on the host at the speed where
the kernel takes ``REFERENCE_S``.  The kernel shares no code with the
program, so a change to the program moves ``scaled`` as it moves ``work``.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
REFERENCE_S = 0.002  # the kernel's typical time on the host of the reference figures
MIN_SAMPLES = 10  # calls shorter than this many intervals borrow earlier samples

_rng = np.random.default_rng(1)
_X = _rng.normal(size=(48, 48))
_GA = _rng.normal(size=(512, 64)).astype(np.float32)
_GB = _rng.normal(size=(64, 64)).astype(np.float32)
_TABLE = _rng.normal(size=(65536, 16)).astype(np.float32)
_ROWS = _rng.integers(0, 65536, size=10000)


def kernel() -> float:
    acc = 0.0
    for i in range(200):
        acc += float(_X[i % 48] @ _X[(i * 7) % 48])
    for _ in range(4):
        acc += float((_GA @ _GB)[0, 0])
    return acc + float(_TABLE[_ROWS].sum())


class SpeedSampler:
    """Samples the kernel on a timer while installed (a context manager)."""

    def __init__(self):
        self.samples = []  # kernel durations in seconds, in time order

    def _on_timer(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, fn) -> tuple:
        """Run ``fn``; returns (work seconds, seconds at the reference speed)."""
        first = len(self.samples)
        start = time.perf_counter()
        fn()
        wall = time.perf_counter() - start
        during = self.samples[first:]
        work = wall - sum(during)
        speed = self.samples[max(0, len(self.samples) - max(len(during), MIN_SAMPLES)):]
        if not speed:
            # no sample yet: time one kernel now
            start = time.perf_counter()
            kernel()
            speed = [time.perf_counter() - start]
        return work, work * REFERENCE_S / statistics.mean(speed)
