"""Machine-speed gauge: scales measured seconds to a nominal machine speed.

On a shared machine the speed of the CPU a process gets drifts, by up to
a factor of two within a minute, and CPU time drifts with wall time, so
neither can be compared between runs.  The gauge times a fixed reference
kernel at the ends of each timed operation (and within it) and scales the
operation's seconds by ``NOMINAL_S`` over the kernel's time: the result
is the operation's time on a machine where the kernel takes ``NOMINAL_S``.

The kernel is the same kind of work as the package's (forward-mode dual
arithmetic on Python objects, small numpy solves), lives here rather than
in the package, so no change to the package can speed it up, and runs
with the garbage collector off, so the size of the package's heap does
not reach it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 2.0e-3   # kernel time at the nominal speed
TICK_S = 0.2         # interval between readings within an operation
_REPEATS = 3         # the fastest of these runs is the kernel's time


class _Dual:
    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v
        self.p = p

    def __add__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v + o.v, tuple(a + b for a, b in zip(self.p, o.p)))
        return _Dual(self.v + o, self.p)

    def __mul__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v * o.v,
                         tuple(self.v * b + o.v * a for a, b in zip(self.p, o.p)))
        return _Dual(self.v * o, tuple(a * o for a in self.p))


_MATRIX = np.eye(3) * 2.0 + 0.1
_RHS = np.ones(3)


def _kernel() -> float:
    x = [_Dual(0.3 + 0.1 * i, tuple(1.0 if j == i else 0.0 for j in range(3)))
         for i in range(3)]
    acc = _Dual(0.0, (0.0, 0.0, 0.0))
    for k in range(60):
        for i in range(3):
            for j in range(3):
                acc = acc + x[i] * x[j] * (1.0 + 0.01 * k)
    for _ in range(20):
        np.linalg.solve(_MATRIX, _RHS)
    return acc.v


def reference_s() -> float:
    """Seconds the kernel takes now: the fastest of a few runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(_REPEATS):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Scale factors for timed operations.

    Wrap each timed operation in ``begin()`` and ``end()``.  The kernel is
    timed at both ends and, from a timer signal, every ``TICK_S`` within
    the operation, since the machine's speed can switch between levels
    within a second; the operation is scaled by the median of these
    readings.  The readings' own time is taken out of the operation's.
    """

    def __init__(self):
        self._spent = 0.0
        self._last = reference_s()
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._readings.append(reference_s())
        self._spent += time.perf_counter() - t0

    def begin(self, ticks: bool = True):
        """Start an operation; ``ticks=False`` reads the kernel at its ends
        only, for an operation too short to need more, whose parts are
        timed and would be slowed by a reading within them."""
        self._readings = [self._last]
        self._spent0 = self._spent
        self._t0 = time.perf_counter()
        if ticks:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def end(self) -> tuple:
        """(measured seconds, scale factor) of the operation begun last."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        raw = time.perf_counter() - self._t0 - (self._spent - self._spent0)
        self._last = reference_s()
        self._readings.append(self._last)
        return raw, NOMINAL_S / statistics.median(self._readings)
