"""Machine-speed probe: scales wall times to a reference speed.

On shared cores the speed of interpreter-bound code flips between states
up to 2x apart, several times a second (see NOTES.md). While a probe is
active, a SIGALRM timer interrupts the program every INTERVAL_S and times
one pass of fixed interpreter-bound work. An interval of wall time is
converted to reference seconds with the passes that ran inside it, or with
its nearest passes if it is shorter than the timer's period:

    reference = (wall - time spent in passes) * REFERENCE_S / harmonic mean pass time

The passes run between bytecodes of the main thread, so they add a few
hundred microseconds to whatever is running; that time is taken out. The
cyclic garbage collector is off during a pass, so that a collection made
due by the program's allocations is not charged to the probe.

The same timer enforces a per-op deadline: while ``deadline`` is set and
passed, the next tick raises OpTimeout into the running code.
"""
from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.025
ITERATIONS = 300
# One pass at the reference speed. A pass takes 0.2-0.4 ms on the 2-core
# machine this was measured on, depending on the state of its shared cores.
REFERENCE_S = 0.0003


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b

    def at(self, t: float) -> float:
        return self.a * t + self.b


def probe_work() -> int:
    """Fixed interpreter-bound work with the ingredients of heatgauge's hot
    paths: calls, method and attribute access, float arithmetic and math
    functions, tuples, dict lookups with tuple keys, list appends. Plain
    float arithmetic alone tracked the slowdown of the ops less well."""
    table: dict[tuple, float] = {}
    out: list[float] = []
    point = _Point(0.5, 1.0)
    u = 0.0
    for k in range(ITERATIONS):
        t = k * 1e-3
        key = (k & 15, "x")
        table[key] = table.get(key, 0.0) + point.at(t)
        v = (t, u, t + u)
        u = u * 0.999 + math.sin(v[2]) * 1e-3 + sum(v) * 1e-6
        if isinstance(u, float):
            out.append(u)
    return len(out) + len(table)


class OpTimeout(BaseException):
    """Raised into an op that runs past its deadline. A BaseException, so
    that the program's own ``except Exception`` handlers let it through."""


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.passes: list[float] = []
        self.deadline: float | None = None

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        probe_work()
        t1 = perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(t0)
        self.passes.append(t1 - t0)
        if self.deadline is not None and t1 > self.deadline:
            self.deadline = None  # raise once per deadline
            raise OpTimeout

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._sample(None, None)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)

    def reference(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall interval [t0, t1]."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        inside = self.passes[i:j]
        near = inside or self.passes[max(i - 1, 0):j + 1]
        return (t1 - t0 - sum(inside)) * REFERENCE_S / statistics.harmonic_mean(near)

    def median_pass(self) -> float:
        return statistics.median(self.passes)
