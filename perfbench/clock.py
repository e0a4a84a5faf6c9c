"""Item timing corrected for the speed the machine runs at, moment to moment.

On a shared host the same single-threaded work can take 1.5x longer for
seconds at a time, in CPU time as well as wall time, because other
tenants contend for the physical core.  How much longer depends on the
kind of work: exact rational arithmetic, interpreter-bound string and
dict code, and small dense numpy kernels slow down by different factors.

So a workload declares its mix of those kinds (``weights``).  Short fixed
calibration kernels of each kind run before and after every item and
every INTERVAL_S during it.  A sample's slowdown is the weighted mean of
each kernel's time over its reference time.  An item's calibrated time
is its wall time, minus the calibration it hosted, divided by the median
slowdown of the samples around it (see WINDOW_S): what the item would
have taken at the reference speed.  A change to rankcomp moves the item
and not the kernels, so it shows in full.
"""

from __future__ import annotations

import contextlib
import math
import re
import signal
import statistics
import time
from collections import Counter
from fractions import Fraction

import numpy as np

INTERVAL_S = 0.1
# an item's slowdown is the median of the samples taken while it ran, the
# one right after it, and those that ended up to WINDOW_S before it began
WINDOW_S = 0.25

_X = np.random.default_rng(1).random((1000, 27))
_Y = (_X[:, 0] > 0.5).astype(np.float64)
_WORDS = " ".join(f"w{i % 113:03d} the of w{i % 37:03d}" for i in range(800))
_TOKEN = re.compile(r"[^\W_]+")


def _fractions() -> None:
    total = Fraction(0)
    for i in range(1, 500):
        total += Fraction(1, i % 97 + 1)


def _interpreter() -> None:
    counts = Counter(_TOKEN.findall(_WORDS.lower()))
    sum(v * (math.log(3.0 / (v + 1.0)) + 1.0) for v in counts.values())


def _numpy() -> None:
    w = np.zeros(_X.shape[1])
    for _ in range(48):
        p = 1.0 / (1.0 + np.exp(-(_X @ w)))
        w -= 0.1 * (_X.T @ (p - _Y)) / _X.shape[0]


# kind -> (kernel, reference seconds).  The references are about what each
# kernel takes when the core is uncontended on the machine the benchmark
# was defined on (2-vCPU Intel Xeon VM at 2.1 GHz, CPython 3.11, numpy
# 2.4); under contention they take up to 1.6 times as long there.
KERNELS = {
    "fractions": (_fractions, 0.00100),
    "interpreter": (_interpreter, 0.00080),
    "numpy": (_numpy, 0.00100),
}


class SpeedClock:
    """Times callables in calibrated seconds; see the module docstring."""

    def __init__(self, weights: dict[str, float]):
        total = sum(weights.values())
        self.kernels = [
            (KERNELS[kind][0], KERNELS[kind][1], weight / total)
            for kind, weight in weights.items()
        ]
        self.samples: list[tuple[float, float, float]] = []  # (start, end, slowdown)
        self.pause = contextlib.nullcontext  # lets a tracer exclude calibration from spans
        self._busy = False

    def sample(self, *_signal_args) -> None:
        """Run each calibration kernel once and record the slowdown."""
        if self._busy:
            return
        self._busy = True
        try:
            with self.pause():
                start = time.perf_counter()
                slowdown = 0.0
                for kernel, reference_s, weight in self.kernels:
                    t0 = time.perf_counter()
                    kernel()
                    slowdown += weight * (time.perf_counter() - t0) / reference_s
                self.samples.append((start, time.perf_counter(), slowdown))
        finally:
            self._busy = False

    @contextlib.contextmanager
    def running(self):
        """Sample every INTERVAL_S while the block runs."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def time(self, fn):
        """Run fn(); return (raw_s, calibrated_s, result, exception or None)."""
        self.sample()
        first = len(self.samples) - 1
        exc = None
        result = None
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as e:  # handed back so the caller can count the failure
            exc = e
        t1 = time.perf_counter()
        inner = [(a, b) for a, b, _ in self.samples[first + 1 :] if t0 <= a and b <= t1]
        self.sample()
        raw = t1 - t0 - sum(b - a for a, b in inner)
        while first > 0 and self.samples[first - 1][1] >= t0 - WINDOW_S:
            first -= 1
        slowdown = statistics.median(s for _, _, s in self.samples[first:])
        return raw, raw / slowdown, result, exc

    def slowdown(self) -> float:
        """Median slowdown over all samples so far."""
        return statistics.median(s for _, _, s in self.samples)

    def scale(self, raw_s: float) -> float:
        """raw_s at the reference speed, by the samples taken so far."""
        return raw_s / self.slowdown()
