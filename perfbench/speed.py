"""Machine speed sampling for a shared, drifting machine.

The machine this benchmark was written on shares its cores with other
work.  The same code ran up to twice as fast or slow from one minute to
the next, and its speed flipped between two levels within a second, so
raw wall times of whole runs spread by 10-40%.  The probe here is a fixed
piece of pure-Python float arithmetic and small-object allocation, the two
kinds of work the package does most, and it never calls the package.

`Sampler` runs the probe every `INTERVAL_S` seconds from a timer signal,
in the main thread of the process doing the measured work, while a pass,
a set-up or a CLI command runs.  The mean probe time over a stretch says
how fast the machine ran, and `NOMINAL_S / mean` converts the stretch's
seconds to seconds at nominal speed.  The time the handler itself takes is
kept apart so that it can be subtracted.
"""

from __future__ import annotations

import gc
import signal
import time
from dataclasses import dataclass

NOMINAL_S = 1.5e-4  # one probe on a quiet machine
INTERVAL_S = 0.02
WINDOW_S = 0.2  # shortest stretch a local speed is taken over, about 10 samples
_STEPS = 150


@dataclass(frozen=True)
class _Sample:
    x: float
    v: float


def _work() -> float:
    x, v, h = 1.0, 0.0, 1e-3
    trail = []
    for _ in range(_STEPS):
        k1x, k1v = v, -x - 0.1 * v
        k2x, k2v = v + 0.5 * h * k1v, -(x + 0.5 * h * k1x) - 0.1 * (v + 0.5 * h * k1v)
        x += h * k2x
        v += h * k2v
        trail.append(_Sample(x, v))
    return sum(s.x for s in trail)


def probe() -> float:
    """Seconds one run of the fixed probe work takes now.

    The work runs once untimed first: the timer interrupts the benchmark at
    any point, and a probe timed on cold caches swung about twice as far as
    the package's own hot loops when the machine's speed changed.  The
    collector is off meanwhile, because a collection would cost in
    proportion to the objects the benchmark holds, not to the machine's
    speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Probe samples taken from SIGALRM between `start` and `stop`.

    The probe shares the machine with what it measures, so a process samples
    only itself: a parent would slow down, and be slowed by, a child running
    on a sibling core.  Child processes of the benchmark therefore run their
    own sampler and hand its `record` back."""

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []  # perf_counter when each sample began
        self.cost = 0.0  # seconds spent in the handler

    def _handle(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.times.append(t0)
        self.samples.append(probe())
        self.cost += time.perf_counter() - t0

    def start(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a stretch shorter than one interval
            self.times.append(time.perf_counter())
            self.samples.append(probe())

    def __enter__(self) -> Sampler:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def factor(self) -> float:
        """Nominal seconds per second of the sampled stretch."""
        return factor_of(self.record())

    def local_factor(self, t0: float, t1: float) -> float:
        """Nominal seconds per second of [t0, t1], from the samples taken in
        it widened to at least `WINDOW_S` around its middle: an item's own
        samples when it is long, its neighbours' too when it is short."""
        mid = 0.5 * (t0 + t1)
        lo, hi = min(t0, mid - 0.5 * WINDOW_S), max(t1, mid + 0.5 * WINDOW_S)
        near = [d for t, d in zip(self.times, self.samples) if lo <= t <= hi]
        return NOMINAL_S * len(near) / sum(near) if near else self.factor()

    def record(self) -> dict:
        return {"samples": self.samples, "cost": self.cost}


def factor_of(record: dict) -> float:
    """`Sampler.factor` of a record another process saved."""
    return NOMINAL_S * len(record["samples"]) / sum(record["samples"])
