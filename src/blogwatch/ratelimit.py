"""Token-bucket bandwidth governor.

The bucket holds two seconds of budget, starts empty (no startup credit,
so a burst right after launch still pays full price), and refills
continuously. Arbitrarily large requests are allowed to run the balance
negative and then wait it off, which keeps long-run throughput at the
configured limit without chunking callers.
"""
import threading

BURST_SECONDS = 2.0


class TokenBucket:
    """bytes-per-second limiter; ``rate=None`` disables throttling. Safe
    for concurrent use: the lock covers the token arithmetic, never the
    sleep, so one waiting caller does not hold up the others' charges."""

    def __init__(self, rate, clock):
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive or None")
        self.rate = rate
        self.clock = clock
        self._tokens = 0.0
        self._last = clock.now()
        self._lock = threading.Lock()

    def _refill(self):
        now = self.clock.now()
        elapsed = now - self._last
        self._last = now
        self._tokens = min(BURST_SECONDS * self.rate, self._tokens + elapsed * self.rate)

    def acquire(self, nbytes: int) -> float:
        """Charge ``nbytes`` against the budget, sleeping on the clock as
        needed. Returns the delay imposed (0.0 when unlimited)."""
        if self.rate is None or nbytes <= 0:
            return 0.0
        with self._lock:
            self._refill()
            self._tokens -= nbytes
            if self._tokens >= 0:
                return 0.0
            wait = -self._tokens / self.rate
        self.clock.sleep(wait)
        with self._lock:
            self._refill()
        return wait
