"""The transport contract, its limits, and the bandwidth wrapper.

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


class ThrottledTransport:
    """Wraps a transport, charging downloaded bytes against a token bucket
    and counting them in ``bytes_fetched``. Header probes are free. Safe
    for concurrent use."""

    def __init__(self, inner, bucket):
        self.inner = inner
        self.bucket = bucket
        self.bytes_fetched = 0
        self._lock = threading.Lock()

    def fetch(self, url, max_bytes, timeout):
        status, ctype, body = self.inner.fetch(url, max_bytes, timeout)
        self.bucket.acquire(len(body))
        with self._lock:
            self.bytes_fetched += len(body)
        return status, ctype, body

    def head(self, url, timeout):
        return self.inner.head(url, timeout)
