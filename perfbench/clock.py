"""Process CPU time corrected for the speed of a shared host.

On a shared machine the same pure-Python work can take 20-35 % more CPU time
in one minute than in the next, because other tenants load the cores.
``HostClock`` samples that speed by timing three fixed reference kernels:
when asked (``sample``), and while started, every ``INTERVAL_S`` of process
CPU time from a ``SIGPROF`` handler.  The kernels are an interpreter loop,
big-integer arithmetic and a scan over many small objects, because a loaded
host slows these by different amounts and the workloads mix them in
different shares.  ``cpu`` reads the program's own CPU time (the samples'
time taken out).  ``slowdown`` is the geometric mean, over the kernels, of
the median sample over the kernel's nominal time: dividing a time by it
gives the time on a host where every kernel takes its nominal time.  The kernels are timed with ``perf_counter``, because process CPU time may
advance in coarse ticks; the median keeps out the odd sample in which the
process was descheduled.  The handler runs in the main thread, so there is
still one thread; it does nothing to the program but pause it.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter, process_time

INTERVAL_S = 0.1


def _loop() -> int:
    total = 0
    for i in range(10000):
        total += i * i % 7
    return total


_BIG_A = 3**3000 + 12345
_BIG_B = 7**1200 + 1


def _bigint() -> int:
    x = 0
    for _ in range(10):
        x = (_BIG_A * _BIG_B + x) % (_BIG_B + 3)
    return x


class _Row:
    __slots__ = ("problem", "ordering")

    def __init__(self, problem: str, ordering: tuple) -> None:
        self.problem, self.ordering = problem, ordering


# About 1 MB, so that the scan reaches past the core's own caches.
_ROWS = [_Row(f"P{i:05d}", ("x", "y", "z")) for i in range(10000)]


def _scan() -> int:
    n = 0
    for r in _ROWS:
        if r.problem == "P00001" and r.ordering == ("z",):
            n += 1
    return n


# Each kernel and its median time on an unloaded 2-core Xeon VM (Python 3.11).
KERNELS = ((_loop, 0.0010), (_bigint, 0.0006), (_scan, 0.0004))


class HostClock:
    def __init__(self) -> None:
        self.samples: list[tuple[float, ...]] = []  # one time per kernel
        self.sampling_s = 0.0
        self._busy = False
        self._previous = signal.SIG_DFL

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def _on_signal(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            self.sample()
            self._busy = False

    def sample(self) -> None:
        """Time each kernel once, now."""
        times = []
        start = t0 = perf_counter()
        for kernel, _ in KERNELS:
            kernel()
            t1 = perf_counter()
            times.append(t1 - t0)
            t0 = t1
        self.samples.append(tuple(times))
        self.sampling_s += perf_counter() - start

    def cpu(self) -> float:
        """Process CPU time so far, the samples' excluded."""
        return process_time() - self.sampling_s

    def slowdown(self, first: int = 0, last: int | None = None) -> float:
        """How much slower than nominal the host ran over samples ``first:last``."""
        window = self.samples[first:last]
        ratios = [
            statistics.median(s[k] for s in window) / nominal
            for k, (_, nominal) in enumerate(KERNELS)
        ]
        return math.prod(ratios) ** (1 / len(ratios))

