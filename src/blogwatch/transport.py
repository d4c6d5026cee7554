"""The transport contract, its limits, and the wrapper that paces requests.

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
from collections import OrderedDict

from .urlnorm import host_of

MAX_BYTES = 512 * 1024  # bounded processing per feed/page
TIMEOUT = 10.0
BURST_SECONDS = 2.0  # the bandwidth budget a throttled transport can bank


class ThrottledTransport:
    """Wraps a transport, limiting downloaded body bytes to ``rate`` bytes
    per second (``None``: no limit) and counting them in ``bytes_fetched``,
    and spacing the requests that ``reserve`` a slot on one host
    ``host_delay`` seconds apart (0: no spacing). Header probes are free.

    The limit is a token bucket that holds ``BURST_SECONDS`` of budget,
    starts empty (no startup credit, so a burst right after launch still
    pays full price) and refills continuously. A body may run the balance
    negative, and its fetch then sleeps the deficit off on the clock, which
    keeps long-run throughput at the rate without chunking callers. Safe
    for concurrent use: one lock covers the byte count, the token
    arithmetic and the host slots, never a sleep or the inner transport,
    so a caller waiting out a deficit or a slot holds up no other caller's
    accounting."""

    def __init__(self, inner, rate, clock, host_delay=0.0):
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive or None")
        self.inner = inner
        self.rate = rate
        self.clock = clock
        self.host_delay = host_delay
        self.bytes_fetched = 0
        self._tokens = 0.0
        self._last = clock.now()
        self._slots = OrderedDict()
        self._lock = threading.Lock()

    def reserve(self, url) -> float:
        """Reserve the next start of a request to ``url``'s host, at least
        ``host_delay`` after the one reserved before it, wait until then
        and return it. ``_slots`` holds each host's latest start, oldest
        first; a host whose start lies a delay or more in the past would
        not wait, exactly as if never seen, so it is dropped: memory stays
        bounded by the hosts of recent requests."""
        if not self.host_delay:
            return self.clock.now()
        host = host_of(url)
        with self._lock:
            now = self.clock.now()
            while self._slots and now - next(iter(self._slots.values())) >= self.host_delay:
                self._slots.popitem(last=False)
            last = self._slots.pop(host, None)
            pause = self.host_delay - (now - last) if last is not None else 0.0
            # reserve the start before sleeping, so a concurrent caller for
            # the same host waits behind it instead of with it
            start = now + pause if pause > 0 else now
            self._slots[host] = start
        if pause > 0:
            self.clock.sleep(pause)
        return start

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
