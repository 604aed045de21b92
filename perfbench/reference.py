"""A fixed reference loop that gauges the host's current speed.

The benchmark shares a few cores of a host whose speed drifts by a quarter
or more within seconds, with no CPU steal reported: process CPU time
drifts with wall time, so neither clock hides it.  The ratio of a package
call's time to the time of a pure-Python loop timed right beside it stays
much steadier, so the harness times a reference loop between operations, and
every ``PERIOD`` seconds during them, and rescales each operation's wall time
to the speed at which that loop takes ``REF_SECONDS``.

The loop does the kind of work the package does: small objects with
operator methods over lookup tables, dict updates and small-integer
products.  It uses nothing from the package, so a change to the package
cannot move it.  On a shared 2-vCPU KVM guest whose speed flipped between
two levels about 1.8x apart, five runs of each workload spread (quartile
distance over median) by 0.13-0.25 in raw pass time and by 0.03-0.05 in
rescaled pass time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Any

# The loop's median time on that guest (Python 3.11) at its faster level;
# rescaled times are seconds at that speed.
REF_SECONDS = 0.0025
SAMPLES = 5
PERIOD = 0.2  # seconds between readings inside an operation

_ADD = [[a ^ b for b in range(16)] for a in range(16)]
_MUL = [[(a * b + (a >> 2)) & 15 for b in range(16)] for a in range(16)]


class _Cell:
    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v

    def __add__(self, other: "_Cell") -> "_Cell":
        return _Cell(_ADD[self.v][other.v])

    def __mul__(self, other: "_Cell") -> "_Cell":
        return _Cell(_MUL[self.v][other.v])


_CELLS = [_Cell(v) for v in range(16)]


def _norm(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    return a * a - b * b + a * c - b * d - (c * c - d * d), 2 * a * b + a * d + b * c - 2 * c * d


def loop() -> int:
    acc = _CELLS[0]
    total = 0
    seen: dict[tuple[int, int], int] = {}
    for i in range(1800):
        x, y = _CELLS[i & 15], _CELLS[(i * 7 + 3) & 15]
        acc = acc + x * y
        key = (acc.v, i & 3)
        seen[key] = seen.get(key, 0) + 1
        a, b = _norm(i & 7, (i >> 3) & 7, acc.v, (i * 3) & 7)
        total += a * a + b * b
    return total + len(seen)


class Gauge:
    """Readings of the reference loop, to rescale intervals of wall time.

    ``read()`` takes the median of ``SAMPLES`` loops; it is taken around the
    intervals to rescale.  While the gauge is entered as a context manager, a
    SIGALRM handler also times one loop every ``PERIOD`` seconds, so a long
    operation is rescaled by the speed during it, not only at its ends.  The
    garbage collector is off during a reading: a collection would time the
    heap the package left behind, not the host.
    """

    def __init__(self) -> None:
        self.readings: list[tuple[float, float, float]] = []  # start, end, loop seconds
        self._busy = False

    def _take(self, samples: int) -> None:
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            times = []
            for _ in range(samples):
                t0 = time.perf_counter()
                loop()
                times.append(time.perf_counter() - t0)
            self.readings.append((start, time.perf_counter(), statistics.median(times)))
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def read(self) -> None:
        self._take(SAMPLES)

    def _tick(self, signum: int, frame: Any) -> None:
        if not self._busy:
            self._take(1)

    def __enter__(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy_seconds(self) -> float:
        return sum(end - start for start, end, _ in self.readings)

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """Raw and rescaled seconds of [t0, t1] less the readings inside it.
        Each stretch between two readings is rescaled by the mean of their
        loop times; a reading must end by ``t0`` and one start after ``t1``."""
        before = [r for r in self.readings if r[1] <= t0][-1]
        inside = [r for r in self.readings if t0 <= r[0] and r[1] <= t1]
        after = next(r for r in self.readings if r[0] >= t1)
        raw = rescaled = 0.0
        points = [before, *inside, after]
        for (_, end, ref_a), (start, _, ref_b) in zip(points, points[1:]):
            stretch = min(start, t1) - max(end, t0)
            raw += stretch
            rescaled += stretch * REF_SECONDS * 2 / (ref_a + ref_b)
        return raw, rescaled
