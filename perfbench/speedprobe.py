"""Host-speed probe: how fast the children's CPU runs Python right now.

On a shared host the CPU the benchmark gets changes speed by up to a
factor of two within seconds, and the host also takes it away for whole
seconds (steal time).  ``SpeedProbe`` pins the calling process to one CPU
(children inherit it) and, from a thread, times a fixed unit of
pure-Python work every ``PERIOD_S``.  ``factor(start, end)`` is the median
unit time within an interval divided by ``REFERENCE_S``: a child's time
divided by it is the time the child would have taken at the reference
speed.  ``steal_s()`` reads the pinned CPU's steal time, so a child's wall
time can leave out the time the host did not run it.  The probe does not
import regasym, so a change to the program moves the normalised times as
it moves the raw ones.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PERIOD_S = 0.05  # one unit per period: about 2% of the CPU
REFERENCE_S = 0.001  # nominal unit time; normalised times are "at this speed"
MIN_SAMPLES = 5  # an interval with fewer takes the samples nearest to it


def unit() -> int:
    """A fixed piece of interpreter work: small-int arithmetic, a dict and big ints."""
    acc: dict[int, int] = {}
    x = 1
    for i in range(1, 1500):
        acc[i % 31] = acc.get(i % 31, 0) + i * i % 7
        x = (x * (i | 1) + i) & ((1 << 2048) - 1)
    return x + len(acc)


class SpeedProbe:
    """Samples unit times on the benchmark's CPU until closed; a context manager."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, unit time), perf_counter
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self.affinity = os.sched_getaffinity(0)  # the CPUs the benchmark was given
        self.cpu = min(self.affinity)
        # this thread, the probe thread started next and every child run the same CPU
        os.sched_setaffinity(0, {self.cpu})
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self.affinity)

    def _loop(self):
        unit()  # warm-up
        while not self._stop.wait(PERIOD_S):
            start = time.perf_counter()
            unit()
            end = time.perf_counter()
            self.samples.append(((start + end) / 2, end - start))

    def factor(self, start: float, end: float) -> float:
        """Median unit time over [start, end] as a multiple of REFERENCE_S."""
        return factor_of(list(self.samples), start, end)

    def steal_s(self) -> float:
        """Steal time of the pinned CPU since boot, in seconds."""
        prefix = f"cpu{self.cpu} "
        with open("/proc/stat") as stat:
            line = next(line for line in stat if line.startswith(prefix))
        return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")


def factor_of(samples: list[tuple[float, float]], start: float, end: float) -> float:
    inside = [d for t, d in samples if start <= t <= end]
    if len(inside) < MIN_SAMPLES:
        mid = (start + end) / 2
        nearest = sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
        inside = [d for _, d in nearest]
    if not inside:
        raise RuntimeError("the speed probe took no samples")
    return statistics.median(inside) / REFERENCE_S
