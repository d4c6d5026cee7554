"""The online mode end to end over loopback HTTP.

``blogwatch run --mode online`` polls a changes URL and crawls a generated
world through ``HttpTransport``, ``PingPollSource`` and
``ThreadedPipeline`` on the wall clock. The world is served by a forward
proxy on 127.0.0.1, reached through ``http_proxy``, so its
``http://*.example/`` URLs never leave this host. Every check is made
from the server's side, over the requests it logged; the server runs in
the test's process, so its timestamps share the run's monotonic clock.
"""
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

import pytest

from blogwatch import crawler, feeds
from blogwatch.cli import main
from blogwatch.graph import FrontierGraph
from blogwatch.harness import WorldSpec, generate_world
from blogwatch.ping import serialize_changes_feed
from blogwatch.pipeline import parse_report

from conftest import write_world_inputs

CHANGES_URL = "http://ping.example/changes.xml"
PAGES = 20
STALL_S = 0.4     # how late a stalled host answers


class WorldProxy(ThreadingHTTPServer):
    """Serves a world's sites by absolute URL, as a forward proxy sees
    them. Each poll of ``CHANGES_URL`` gets the ping script's next cycle,
    then an empty changes document. Every request is logged, before it is
    answered, as ``(method, url, body bytes sent, arrival time)``. A host
    in ``stalled`` answers ``STALL_S`` late."""

    daemon_threads = True

    def __init__(self, world):
        super().__init__(("127.0.0.1", 0), _ProxyHandler)
        self.sites = world.sites
        self.cycles = [doc for _t, doc in world.ping_script]
        self.requests = []
        self.stalled = set()
        self.lock = threading.Lock()

    def handle_error(self, request, client_address):
        # a client that timed out on a stalled host has hung up
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def answer(self, method, url):
        arrived = time.monotonic()
        with self.lock:
            if url == CHANGES_URL:
                doc = self.cycles.pop(0) if self.cycles else serialize_changes_feed([])
                status, ctype, body = 200, "text/xml", doc.encode("utf-8")
            elif url in self.sites:
                ctype, body = self.sites[url]
                status = 200
            else:
                status, ctype, body = 404, "text/plain", b"not found"
            self.requests.append((method, url, len(body) if method == "GET" else 0, arrived))
        if urlsplit(url).hostname in self.stalled:
            time.sleep(STALL_S)
        return status, ctype, body


class _ProxyHandler(BaseHTTPRequestHandler):
    def do_GET(self):
        self._reply(send_body=True)

    def do_HEAD(self):
        self._reply(send_body=False)

    def _reply(self, send_body):
        status, ctype, body = self.server.answer(self.command, self.path)
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if send_body:
            self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def world():
    return generate_world(WorldSpec(rng_seed=3, n_blogs=30, media_fraction=0.1,
                                    ping_cycles=3, decoy_hosts=2))


@pytest.fixture
def proxy(world, monkeypatch):
    """A running ``WorldProxy`` that every ``http://`` request of this
    process goes through."""
    server = WorldProxy(world)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    for var in ("HTTP_PROXY", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("http_proxy", f"http://127.0.0.1:{server.server_address[1]}")
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _run_online(world, proxy, tmp_path, settings="host_delay = 0.01\n", pages=PAGES):
    """``blogwatch run --mode online`` with 2 summary and 2 fetch workers
    and a checkpoint: (its report, the requests the proxy logged)."""
    write_world_inputs(world, tmp_path)
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"ping_url = {CHANGES_URL}\npoll_interval = 0.05\n{settings}"
        "summary_workers = 2\nfetch_workers = 2\n"
        "registry_path = registry.txt\ntopic_corpus_path = topic_corpus.txt\n"
        "background_corpus_path = background_corpus.txt\nreport_path = report.txt\n"
        "checkpoint_path = graph.ckpt\n",
        encoding="utf-8")
    assert main(["run", "--config", str(conf), "--mode", "online",
                 "--max-pages", str(pages)]) == 0
    with proxy.lock:
        return parse_report(tmp_path / "report.txt"), list(proxy.requests)


def test_online_run_over_loopback_http(world, proxy, tmp_path, capsys):
    report, requests = _run_online(world, proxy, tmp_path)

    gets = [(url, size) for method, url, size, _at in requests
            if method == "GET" and url != CHANGES_URL]
    got = [url for url, _size in gets]
    assert len(got) == len(set(got)), "a URL got a second GET"

    # a summary fetches the seed's homepage, then its declared /rss feed
    summary_urls = set(world.announced) | {url + "rss" for url in world.announced}
    page_gets = [url for url in got if url not in summary_urls]
    assert len(page_gets) == report.pages_fetched == PAGES

    headed = set()
    for method, url, _size, _at in requests:
        if method == "HEAD":
            headed.add(url)
        elif url in page_gets:
            assert url in headed, f"page GET of {url} without a HEAD before it"

    media = {url for url, label in world.labels.items() if label == "media"}
    assert media & headed, "the crawl reached no media URL"
    assert not media & set(got), "a media URL got a GET"

    # every GET is counted, the changes documents' included
    assert report.bytes_fetched == sum(size for method, _url, size, _at in requests
                                       if method == "GET")


def test_page_heads_to_one_host_keep_the_host_delay(world, proxy, tmp_path, capsys):
    """Every page fetch starts with a HEAD after the politeness wait, so
    the HEADs to one host arrive ``host_delay`` apart, less the jitter of
    a loopback request whose server thread waits for the GIL behind the
    run's threads (allowed: 50 ms)."""
    delay = 0.12
    _report, requests = _run_online(world, proxy, tmp_path, f"host_delay = {delay}\n")
    heads = {}
    for method, url, _size, at in requests:
        if method == "HEAD":
            heads.setdefault(urlsplit(url).hostname, []).append(at)
    gaps = [b - a for times in map(sorted, heads.values()) for a, b in zip(times, times[1:])]
    assert gaps, "no host got two page fetches"
    assert min(gaps) >= delay - 0.05, sorted(gaps)[:3]


def test_served_body_bytes_stay_within_the_bandwidth_limit(world, proxy, tmp_path, capsys):
    """The bucket starts empty and charges each body after its transfer,
    the changes documents' included, so by any time ``t`` after the start
    the server has sent at most ``limit * t`` bytes, plus one body ahead
    for each of the 4 workers. One ping cycle's seeds keep the run
    short."""
    limit = 50_000
    del proxy.cycles[1:]
    start = time.monotonic()
    report, requests = _run_online(world, proxy, tmp_path, f"bandwidth_limit = {limit}\n"
                                   "host_delay = 0\n", pages=10)
    gets = [(at, size) for method, _url, size, at in requests if method == "GET"]
    ahead = 4 * max(size for _at, size in gets)
    sent = 0
    for at, size in sorted(gets):
        sent += size
        assert sent <= limit * (at - start) + ahead, (sent, at - start)
    assert sent == report.bytes_fetched


def test_a_stalled_host_gives_failed_nodes_and_the_run_ends(world, proxy, tmp_path,
                                                          capsys, monkeypatch):
    """A host that answers after the fetch timeout fails each of its
    summaries and pages: the summaries are counted as failed, each page
    node is marked failed after its one retry, and the run still ends with
    exit 0."""
    for module in (crawler, feeds):
        monkeypatch.setattr(module, "TIMEOUT", STALL_S / 4)
    blogs = sorted(urlsplit(url).hostname for url in world.announced
                   if url.startswith("http://blog"))
    proxy.stalled = set(blogs[::4])
    report, requests = _run_online(world, proxy, tmp_path, pages=5)
    stalled = [(method, url) for method, url, _size, _at in requests
               if urlsplit(url).hostname in proxy.stalled]
    seeds = {url for method, url in stalled if method == "GET"}
    pages = {url for method, url in stalled if method == "HEAD"}
    assert report.summaries_failed == len(seeds) > 0
    assert FrontierGraph.load(tmp_path / "graph.ckpt").stats().get("failed", 0) == len(pages) > 0
    assert all(stalled.count(("HEAD", url)) == 2 for url in pages)   # one retry
