"""Wall and simulated clocks.

Batch sequential runs use :class:`SimClock` so that timestamps, latencies,
and rate-limiter delays are fully deterministic and reports reproduce
byte-for-byte.
"""
import time


class WallClock:
    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class SimClock:
    """Monotonic virtual clock; sleep() advances it instantly."""

    def __init__(self):
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self._now += seconds

    def advance_to(self, t: float) -> None:
        if t > self._now:
            self._now = t
