"""The real-network transport, for online mode only.

``HttpTransport`` implements the contract in ``transport.py`` over
``urllib.request``. That module brings ``http.client``, ``ssl`` and the
``email`` parser with it, about 2 MB of resident memory, so no other
module of the package imports this one: ``pipeline.run`` imports it
inside its online branch, and batch runs never load the HTTP stack.
"""
import http.client
import urllib.error
import urllib.request

from .errors import FetchFailed
from .settings import decimal_count


class _CappedRedirects(urllib.request.HTTPRedirectHandler):
    max_repeats = 3
    max_redirections = 3  # beyond three hops is out of scope

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        """The next hop, sent with the method of ``req``: urllib's own
        would turn a header probe into a GET."""
        new = super().redirect_request(req, fp, code, msg, headers, newurl)
        if new is not None:
            new.method = req.get_method()
        return new


class HttpTransport:
    """Minimal urllib-based transport for online mode. Safe for concurrent
    use (no shared mutable state). Follows at most three redirect hops; a
    redirect it does not follow (one hop too many, a loop, or a 3xx with
    no ``Location``) raises FetchFailed with the redirect's status."""

    user_agent = "blogwatch/0.1"

    def __init__(self):
        self._opener = urllib.request.build_opener(_CappedRedirects)

    def _request(self, url, method, timeout):
        req = urllib.request.Request(url, method=method,
                                     headers={"User-Agent": self.user_agent})
        try:
            return self._opener.open(req, timeout=timeout)
        except urllib.error.HTTPError as exc:
            if exc.code >= 400:
                return exc  # carries status/headers like a response
            exc.close()
            raise FetchFailed(url, f"HTTP {exc.code}: redirect not followed",
                              exc.code) from exc
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
            size = decimal_count(resp.headers.get("Content-Length")) or 0
            return resp.status, ctype, size
