"""Machine-speed gauge: op times expressed at a fixed reference speed.

On a shared machine the speed of a core drifts by up to 1.5x over seconds
and minutes as neighbours load it, which swamps the differences a
benchmark is meant to find.  The gauge times a fixed reference kernel
right before each op and, from an interval timer, every INTERVAL_S while
the op runs.  The kernel's own time is taken out of the op's wall time,
and what is left is scaled by REF_KERNEL_S / (median speed reading around
the op): the op's time on a machine where the reading is REF_KERNEL_S.

The kernel does a little of each kind of interpreter-bound work the
program does (loops with dict stores, bigint shifts and xors, frozenset
rebuilding, bigint multiply and divide by small ints), with fixed inputs
and no logicast code, so no change to the program changes the yardstick.
A bulk numpy part tracked the ops' speed worse and was left out.
"""

from __future__ import annotations

import math
import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# Typical speed reading during ops on the reference machine (2-vCPU Intel
# Xeon VM, CPython 3.11.7).  It only sets the scale of results.
REF_KERNEL_S = 0.0001
INTERVAL_S = 0.02

_BIG = (1 << 4000) - 1
_COEFF = (1 << 10000) | 12345
_BASE = frozenset(range(0, 3000, 3))


def reference_kernel() -> tuple[float, float]:
    """Run the fixed reference work once.

    Returns (seconds taken, geometric mean of the seconds of its four
    parts).  The geometric mean is the speed reading: each kind of work
    counts the same, however long its part happens to run.
    """
    t0 = perf_counter()
    x, d = 1, {}
    for i in range(750):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        d[x & 1023] = i
    t1 = perf_counter()
    acc = 0
    for i in range(150):
        acc ^= _BIG >> (i & 63)
    t2 = perf_counter()
    s = _BASE
    for i in range(8):
        s = s ^ frozenset((i * 7,))
    t3 = perf_counter()
    c = _COEFF
    for i in range(1, 20):
        c = c * (i + 9000) // (i + 7)
    t4 = perf_counter()
    parts = (t1 - t0, t2 - t1, t3 - t2, t4 - t3)
    return t4 - t0, math.prod(parts) ** (1 / len(parts))


@dataclass
class Reading:
    """One timed region: wall time, wall time minus kernel runs, kernel speed."""

    wall_s: float = 0.0
    net_s: float = 0.0
    kernel_s: float = REF_KERNEL_S  # speed reading, see reference_kernel

    @property
    def normalized_s(self) -> float:
        """Seconds the region would take where the speed reading is REF_KERNEL_S."""
        return self.net_s * REF_KERNEL_S / self.kernel_s


class SpeedGauge:
    """Owns SIGALRM while open; `measure()` times one region at a time."""

    def __init__(self) -> None:
        self._ticks: list[tuple[float, tuple[float, float]]] = []
        self._busy = False
        self._previous = None

    def __enter__(self) -> "SpeedGauge":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside a slow kernel run is dropped
            return
        self._busy = True
        try:
            self._ticks.append((perf_counter(), reference_kernel()))
        finally:
            self._busy = False

    @contextmanager
    def measure(self):
        """Time the body; the yielded Reading is filled in when it exits."""
        reading = Reading()
        before = reference_kernel()
        self._ticks = []
        start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield reading
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = perf_counter()
            inside = [k for t, k in self._ticks if t < end]
            reading.wall_s = end - start
            reading.net_s = reading.wall_s - sum(took for took, _ in inside)
            reading.kernel_s = statistics.median([before[1], *(speed for _, speed in inside)])
