"""Host-speed correction for the benchmark's timings.

On a shared host the speed of a core swings from moment to moment, by up
to two times within seconds, and a busy neighbour slows CPU time as much as
wall time.  A time taken over a few seconds then says as much about the
neighbours as about the program.  `Speedometer` measures the host's speed
while the program runs: every `TICK_S` seconds a SIGALRM handler runs a
fixed piece of exact rational arithmetic, the kind of work the program
does, and takes its thread CPU time (thread CPU time, so that waiting for
the interpreter lock does not count as slowness).  A span of program time
is then scaled to the reference speed, at which that piece takes
`REF_CAL_S`:

    scaled = sum over ticks of  tick wall interval * REF_CAL_S / calibration

over the ticks inside the span, with the ticks' own time taken out.  A
span's speed is the mean over its ticks and `NEAR` ticks on either side.  A
cold start in a subprocess is scaled by calibrations made just before and
just after it, with the ticks stopped so that none runs beside it.

The handler runs in the main thread, between two bytecodes of whatever the
program is doing; the thread pool of `circle sweep` waits for it.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

TICK_S = 0.05
NEAR = 4
BRACKET = 3
# thread CPU time of one `_calibrate()` at the reference speed; a 2.1 GHz
# Xeon vCPU under Python 3.11 takes 0.8 to 1.6 ms
REF_CAL_S = 0.001

_TERMS = [(Fraction(i % 7 + 1, i % 11 + 2), Fraction(3, i % 5 + 1)) for i in range(120)]


def _calibrate() -> Fraction:
    s = Fraction(0)
    for a, b in _TERMS:
        s += a * b - s / 7
    return s


class Speedometer:
    """Ticks that time `_calibrate()` at fixed wall intervals."""

    def __init__(self):
        self.at = []       # perf_counter() at the end of each tick
        self.cost = []     # wall time each tick took from the program
        self.factor = []   # REF_CAL_S / calibration CPU time: host speed
        self._old = None

    def _tick(self, signum, frame):
        w0 = time.perf_counter()
        speed = self._speed()
        w1 = time.perf_counter()
        self.at.append(w1)
        self.cost.append(w1 - w0)
        self.factor.append(speed)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def bracket(self, fn):
        """Run `fn()` with the ticks stopped: (its result, seconds at the
        reference speed), scaled by `BRACKET` calibrations before and after."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            speeds = [self._speed() for _ in range(BRACKET)]
            t0 = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - t0
            speeds += [self._speed() for _ in range(BRACKET)]
        finally:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return result, elapsed * sum(speeds) / len(speeds)

    @staticmethod
    def _speed() -> float:
        c0 = time.thread_time()
        _calibrate()
        return REF_CAL_S / max(time.thread_time() - c0, 1e-7)

    def mean_speed(self) -> float:
        """The host's mean speed over the ticks, as a share of the reference."""
        return sum(self.factor) / len(self.factor)

    def scaled(self, t0: float, t1: float) -> float:
        """Program time in [t0, t1], in seconds at the reference speed."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        inside = range(lo, hi)
        # the speed is averaged over NEAR ticks on either side as well, which
        # steadies the estimate for a span shorter than a tick
        near = range(max(lo - NEAR, 0), min(hi + NEAR, len(self.at)))
        if not near:
            raise RuntimeError("no speed measured near the span")
        cost = sum(self.cost[i] for i in inside)
        speed = sum(self.factor[i] for i in near) / len(near)
        return (t1 - t0 - cost) * speed
