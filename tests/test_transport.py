"""HttpTransport against a local HTTP server: answers come back as
(status, content type, body), and network failures raise FetchFailed."""
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from blogwatch.clock import WallClock
from blogwatch.crawler import FocusedCrawler
from blogwatch.errors import FetchFailed
from blogwatch.graph import PROVENANCE_SUMMARY, FrontierGraph
from blogwatch.htmltext import LinkContext
from blogwatch.httptransport import HttpTransport
from blogwatch.relevance import build_topic_profile
from blogwatch.transport import ThrottledTransport

BODY = b"x" * 100
VIDEO = b"v" * 300
PAGE = b"<html><body><p>flood warning river rising</p></body></html>"
RESOURCES = {"/page": ("text/html; charset=utf-8", BODY), "/video": ("video/mp4", VIDEO),
             "/odd-length": ("text/html", PAGE)}


class _Handler(BaseHTTPRequestHandler):
    release = threading.Event()   # ends the stalled answer
    requests = []                 # (method, path) of each request, in order

    def do_GET(self):
        self.requests.append(("GET", self.path))
        if self.path in RESOURCES:
            ctype, body = RESOURCES[self.path]
            self._head(200, len(body), ctype)
            self.wfile.write(body)
        elif self.path == "/stall":
            self._head(200, len(BODY))
            self.wfile.write(BODY[:10])
            self.wfile.flush()
            self.release.wait(5)
        elif self.path == "/garbage":
            self.wfile.write(b"garbage\r\n\r\n")
        elif self.path.startswith(("/hop/", "/video-hop/")) or self.path == "/nowhere":
            self._redirect()
            self.wfile.write(b"moved")
        else:
            self._head(404, 0)

    def do_HEAD(self):
        self.requests.append(("HEAD", self.path))
        if self.path == "/odd-length":
            self._head(200, "\u00b2")   # sent as the byte 0xB2, read back as "²"
        elif self.path in RESOURCES:
            ctype, body = RESOURCES[self.path]
            self._head(200, len(body), ctype)
        elif self.path.startswith(("/hop/", "/video-hop/")) or self.path == "/nowhere":
            self._redirect()
        else:
            self._head(404, 0)

    def _redirect(self):
        """``/hop/N`` redirects to ``/hop/N-1`` and ``/hop/1`` to
        ``/page``, a chain of N hops; ``/video-hop/N`` likewise ends at
        ``/video``; ``/nowhere`` redirects with no ``Location``."""
        self.send_response(302)
        if self.path != "/nowhere":
            chain, n = self.path.rsplit("/", 1)
            end = "/video" if chain == "/video-hop" else "/page"
            self.send_header("Location", f"{chain}/{int(n) - 1}" if n != "1" else end)
        self.send_header("Content-Length", "5")
        self.end_headers()

    def _head(self, status, length, ctype="text/html; charset=utf-8"):
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(length))
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def server(monkeypatch):
    """Base URL of a server on 127.0.0.1; proxy settings are cleared so
    the requests stay on this host."""
    for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    httpd.daemon_threads = True
    _Handler.release.clear()
    _Handler.requests.clear()
    thread = threading.Thread(target=httpd.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}"
    finally:
        _Handler.release.set()
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_fetch_returns_status_type_and_capped_body(server):
    status, ctype, body = HttpTransport().fetch(server + "/page", 10, 5.0)
    assert (status, ctype, body) == (200, "text/html", BODY[:11])


def test_fetch_returns_http_errors(server):
    status, _ctype, _body = HttpTransport().fetch(server + "/missing", 10, 5.0)
    assert status == 404


def test_stalled_body_raises_fetch_failed(server):
    with pytest.raises(FetchFailed) as info:
        HttpTransport().fetch(server + "/stall", 1000, 0.2)
    assert info.value.status is None


def test_bad_status_line_raises_fetch_failed(server):
    with pytest.raises(FetchFailed) as info:
        HttpTransport().fetch(server + "/garbage", 1000, 5.0)
    assert info.value.status is None


def test_three_redirect_hops_are_followed(server):
    transport = HttpTransport()
    assert transport.fetch(server + "/hop/3", 1000, 5.0) == (200, "text/html", BODY)
    assert transport.head(server + "/hop/3", 5.0) == (200, "text/html", len(BODY))


@pytest.mark.parametrize("path", ["/hop/4", "/nowhere"], ids=["four-hops", "no-location"])
def test_unfollowed_redirect_raises_fetch_failed(server, path):
    """A redirect the transport does not follow is a failure, not a
    page: callers only check ``status >= 400``."""
    transport = HttpTransport()
    with pytest.raises(FetchFailed) as info:
        transport.fetch(server + path, 1000, 5.0)
    assert info.value.status == 302
    with pytest.raises(FetchFailed) as info:
        transport.head(server + path, 5.0)
    assert info.value.status == 302


def test_a_header_probe_stays_a_head_across_redirects(server):
    """A media resource behind two redirects is probed without its body:
    every hop gets a HEAD."""
    assert HttpTransport().head(server + "/video-hop/2", 5.0) == (200, "video/mp4", len(VIDEO))
    assert _Handler.requests == [("HEAD", "/video-hop/2"), ("HEAD", "/video-hop/1"),
                                 ("HEAD", "/video")]


def test_a_fetch_stays_a_get_across_redirects(server):
    assert HttpTransport().fetch(server + "/video-hop/2", 1000, 5.0) == \
        (200, "video/mp4", VIDEO)
    assert _Handler.requests == [("GET", "/video-hop/2"), ("GET", "/video-hop/1"),
                                 ("GET", "/video")]


def test_a_content_length_int_cannot_read_is_no_size(server):
    """``"²".isdigit()`` holds but ``int("²")`` fails: such a length reads
    as 0, like a missing one, and the crawler fetches the page."""
    url = server + "/odd-length"
    assert HttpTransport().head(url, 5.0) == (200, "text/html", 0)
    graph = FrontierGraph()
    graph.insert_links("http://seed.example/", [LinkContext(url, "flood warning", "")],
                       {"flood warning": 1.0}, PROVENANCE_SUMMARY)
    crawler = FocusedCrawler(graph, build_topic_profile(["flood warning"], ["market"], 0.3),
                             ThrottledTransport(HttpTransport(), None, WallClock()),
                             stops=frozenset())
    result = crawler.crawl_step(graph.next_frontier())
    assert result.page is not None and result.page.url == url
    assert ("GET", "/odd-length") in _Handler.requests
