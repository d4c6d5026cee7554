"""The online mode end to end over loopback HTTP.

``blogwatch run --mode online`` polls a changes URL and crawls a generated
world through ``HttpTransport``, ``PingPollSource`` and
``ThreadedPipeline`` on the wall clock. The world is served by a forward
proxy on 127.0.0.1, reached through ``http_proxy``, so its
``http://*.example/`` URLs never leave this host. Every check is made
from the server's side, over the requests it logged.
"""
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from blogwatch.cli import main
from blogwatch.harness import WorldSpec, generate_world
from blogwatch.ping import serialize_changes_feed
from blogwatch.pipeline import parse_report

from conftest import write_world_inputs

CHANGES_URL = "http://ping.example/changes.xml"
PAGES = 20


class WorldProxy(ThreadingHTTPServer):
    """Serves a world's sites by absolute URL, as a forward proxy sees
    them. Each poll of ``CHANGES_URL`` gets the ping script's next cycle,
    then an empty changes document. Every request is logged, before it is
    answered, as ``(method, url, body bytes sent)``."""

    daemon_threads = True

    def __init__(self, world):
        super().__init__(("127.0.0.1", 0), _ProxyHandler)
        self.sites = world.sites
        self.cycles = [doc for _t, doc in world.ping_script]
        self.requests = []
        self.lock = threading.Lock()

    def answer(self, method, url):
        with self.lock:
            if url == CHANGES_URL:
                doc = self.cycles.pop(0) if self.cycles else serialize_changes_feed([])
                status, ctype, body = 200, "text/xml", doc.encode("utf-8")
            elif url in self.sites:
                ctype, body = self.sites[url]
                status = 200
            else:
                status, ctype, body = 404, "text/plain", b"not found"
            self.requests.append((method, url, len(body) if method == "GET" else 0))
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


def test_online_run_over_loopback_http(world, proxy, tmp_path, capsys):
    write_world_inputs(world, tmp_path)
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"ping_url = {CHANGES_URL}\npoll_interval = 0.05\nhost_delay = 0.01\n"
        "summary_workers = 2\nfetch_workers = 2\n"
        "registry_path = registry.txt\ntopic_corpus_path = topic_corpus.txt\n"
        "background_corpus_path = background_corpus.txt\nreport_path = report.txt\n",
        encoding="utf-8")

    assert main(["run", "--config", str(conf), "--mode", "online",
                 "--max-pages", str(PAGES)]) == 0
    report = parse_report(tmp_path / "report.txt")
    with proxy.lock:
        requests = list(proxy.requests)

    gets = [(url, size) for method, url, size in requests
            if method == "GET" and url != CHANGES_URL]
    got = [url for url, _size in gets]
    assert len(got) == len(set(got)), "a URL got a second GET"

    # a summary fetches the seed's homepage, then its declared /rss feed
    summary_urls = set(world.announced) | {url + "rss" for url in world.announced}
    page_gets = [url for url in got if url not in summary_urls]
    assert len(page_gets) == report.pages_fetched == PAGES

    headed = set()
    for method, url, _size in requests:
        if method == "HEAD":
            headed.add(url)
        elif url in page_gets:
            assert url in headed, f"page GET of {url} without a HEAD before it"

    media = {url for url, label in world.labels.items() if label == "media"}
    assert media & headed, "the crawl reached no media URL"
    assert not media & set(got), "a media URL got a GET"

    # the changes documents are fetched unthrottled and are not counted
    assert report.bytes_fetched == sum(size for _url, size in gets)
