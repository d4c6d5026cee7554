"""The transport contract, its limits, and the bandwidth-limiting wrapper.

Contract (shared by ``httptransport.HttpTransport`` and the harness's
``InMemoryTransport``):

    fetch(url, max_bytes, timeout) -> (status_code, content_type, body)
    head(url, timeout)             -> (status_code, content_type, size)

``fetch`` returns at most ``max_bytes + 1`` body bytes so callers can
detect truncation by comparing against the cap; network-level failures
raise FetchFailed. ``head`` never transfers a body.

The HTTP implementation lives in its own module, so that importing this
one (as every layer does, for ``MAX_BYTES`` and ``TIMEOUT``) loads no
HTTP client code.
"""
import threading

MAX_BYTES = 512 * 1024  # bounded processing per feed/page
TIMEOUT = 10.0
BURST_SECONDS = 2.0  # the bandwidth budget a throttled transport can bank


class ThrottledTransport:
    """Wraps a transport, limiting downloaded body bytes to ``rate`` bytes
    per second (``None``: no limit) and counting them in ``bytes_fetched``.
    Header probes are free.

    The limit is a token bucket that holds ``BURST_SECONDS`` of budget,
    starts empty (no startup credit, so a burst right after launch still
    pays full price) and refills continuously. A body may run the balance
    negative, and its fetch then sleeps the deficit off on the clock, which
    keeps long-run throughput at the rate without chunking callers. Safe
    for concurrent use: one lock covers the byte count and the token
    arithmetic, never the sleep, so a fetch paying off a deficit holds up
    no other fetch's accounting."""

    def __init__(self, inner, rate, clock):
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive or None")
        self.inner = inner
        self.rate = rate
        self.clock = clock
        self.bytes_fetched = 0
        self._tokens = 0.0
        self._last = clock.now()
        self._lock = threading.Lock()

    def _refill(self):
        now = self.clock.now()
        elapsed = now - self._last
        self._last = now
        self._tokens = min(BURST_SECONDS * self.rate, self._tokens + elapsed * self.rate)

    def fetch(self, url, max_bytes, timeout):
        status, ctype, body = self.inner.fetch(url, max_bytes, timeout)
        with self._lock:
            self.bytes_fetched += len(body)
            if self.rate is None or not body:
                return status, ctype, body
            self._refill()
            self._tokens -= len(body)
            wait = -self._tokens / self.rate
        if wait > 0:
            self.clock.sleep(wait)
            with self._lock:
                self._refill()
        return status, ctype, body

    def head(self, url, timeout):
        return self.inner.head(url, timeout)
