"""Transport interface and the real-network implementation.

Contract (shared by the HTTP transport and the harness's in-memory one):

    fetch(url, max_bytes, timeout) -> (status_code, content_type, body)
    head(url, timeout)             -> (status_code, content_type, size)

``fetch`` returns at most ``max_bytes + 1`` body bytes so callers can
detect truncation by comparing against the cap; network-level failures
raise FetchFailed. ``head`` never transfers a body.
"""
import http.client
import threading
import urllib.error
import urllib.request

from .errors import FetchFailed

MAX_BYTES = 512 * 1024  # bounded processing per feed/page
TIMEOUT = 10.0


class _CappedRedirects(urllib.request.HTTPRedirectHandler):
    max_repeats = 3
    max_redirections = 3  # beyond three hops is out of scope


class HttpTransport:
    """Minimal urllib-based transport for online mode. Safe for concurrent
    use (no shared mutable state). Follows at most three redirect hops."""

    user_agent = "blogwatch/0.1"

    def __init__(self):
        self._opener = urllib.request.build_opener(_CappedRedirects)

    def _request(self, url, method, timeout):
        req = urllib.request.Request(url, method=method,
                                     headers={"User-Agent": self.user_agent})
        try:
            return self._opener.open(req, timeout=timeout)
        except urllib.error.HTTPError as exc:
            return exc  # carries status/headers like a response
        except (OSError, ValueError, http.client.HTTPException) as exc:  # URLError is an OSError
            raise FetchFailed(url, str(exc)) from exc

    def fetch(self, url, max_bytes, timeout):
        resp = self._request(url, "GET", timeout)
        with resp:
            try:
                body = resp.read(max_bytes + 1)
            except (OSError, http.client.HTTPException) as exc:
                raise FetchFailed(url, str(exc)) from exc
            ctype = (resp.headers.get("Content-Type") or "").split(";")[0].strip()
            return resp.status, ctype, body

    def head(self, url, timeout):
        resp = self._request(url, "HEAD", timeout)
        with resp:
            ctype = (resp.headers.get("Content-Type") or "").split(";")[0].strip()
            length = resp.headers.get("Content-Length")
            size = int(length) if length and length.isdigit() else 0
            return resp.status, ctype, size


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
