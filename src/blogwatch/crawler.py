"""Layer 3: focused full-text crawling gated by topic relevance.

Frontier nodes are fetched complete, except media (photos/audio/video),
which a header probe rejects before any body transfer. Links of a page
continue the crawl only when the page is classified on-topic; the text
analyzer then emits graph corrections (spam exclusion, blog confirmation,
glossary rescale).
"""
import hashlib
import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from .errors import FetchFailed, MediaSkipped, ModelRequired, OversizeBody
from .graph import Correction, CorrectionKind, NodeStatus, PROVENANCE_FULLTEXT
from .htmltext import extract_page
from .phrases import extract_scored_phrases, terms
from .relevance import RELEVANT, nb_classify, vsm_score
from .transport import MAX_BYTES, TIMEOUT
from .urlnorm import host_of

logger = logging.getLogger(__name__)

_MEDIA_PREFIXES = ("image/", "audio/", "video/")

# text-analyzer heuristics
MAX_OUT_DEGREE = 200        # S_max
DUP_ANCHOR_MIN = 10         # D_dup distinct targets, same anchor
MIN_WORDS_PER_LINK = 5.0    # R_min
GLOSSARY_RESCALE = 0.5


class HostThrottle:
    """Politeness: at least ``delay`` seconds between fetches to one host.

    ``_last`` holds each host's latest reserved fetch start, oldest
    reservation first. A host whose start lies ``delay`` or more in the past
    would not wait, exactly as if never seen, so ``wait`` drops such hosts
    from the front: memory stays bounded by the hosts of recent fetches.
    """

    def __init__(self, delay: float, clock):
        self.delay = delay
        self.clock = clock
        self._last = OrderedDict()
        self._lock = threading.Lock()

    def wait(self, url: str) -> None:
        if not self.delay:
            return
        host = host_of(url)
        with self._lock:
            now = self.clock.now()
            while self._last:
                oldest, start = next(iter(self._last.items()))
                if now - start < self.delay:
                    break
                del self._last[oldest]
            last = self._last.pop(host, None)
            pause = self.delay - (now - last) if last is not None else 0.0
            # reserve this fetch's start before sleeping, so a concurrent
            # caller for the same host waits behind it instead of with it
            self._last[host] = now + pause if pause > 0 else now
        if pause > 0:
            self.clock.sleep(pause)


@dataclass(frozen=True)
class Page:
    url: str
    text: str
    out_links: tuple
    fetched_at: float
    bytes: int
    # analyzer inputs derived during extraction
    has_feed_link: bool = False
    dated_headings: int = 0


@dataclass(frozen=True)
class CrawlResult:
    page: object            # Page, or None when the fetch did not complete
    relevant: bool
    corrections: tuple
    new_edges: int


def fetch_page(node, transport, now: float = 0.0) -> Page:
    """Fetch one frontier node's full text.

    A header probe runs first: media content types raise MediaSkipped and
    oversize bodies raise OversizeBody, both without transferring a body.
    """
    status, ctype, size = transport.head(node.url, TIMEOUT)
    if status >= 400:
        raise FetchFailed(node.url, f"HTTP {status} (head)", status)
    if ctype.lower().startswith(_MEDIA_PREFIXES):
        raise MediaSkipped(node.url, ctype)
    if size > MAX_BYTES:
        raise OversizeBody(f"{node.url}: declared size {size} > cap {MAX_BYTES}")

    status, _ctype, body = transport.fetch(node.url, MAX_BYTES, TIMEOUT)
    if status >= 400:
        raise FetchFailed(node.url, f"HTTP {status}", status)
    if len(body) > MAX_BYTES:
        raise OversizeBody(f"{node.url}: body exceeded cap {MAX_BYTES}")

    extract = extract_page(body.decode("utf-8", errors="replace"), node.url)
    return Page(
        url=node.url,
        text=extract.text,
        out_links=tuple(extract.links),
        fetched_at=now,
        bytes=len(body),
        has_feed_link=extract.has_feed_link,
        dated_headings=extract.dated_heading_count,
    )


def analyze_page(page: Page, glossary=frozenset()):
    """Text-analyzer heuristics, applied in order.

    (a) spam: out-degree above S_max, or >= D_dup distinct targets sharing
        identical anchor text, or fewer than R_min words of text per link
        -> exclude_spam (short-circuits the rest; the node is dead anyway);
    (b) blog: a declared RSS alternate link or >= 3 date-stamped headings
        -> confirm_blog;
    (c) glossary: any banned term in the page text -> rescale 0.5.
    """
    n_links = len(page.out_links)
    if n_links > MAX_OUT_DEGREE:
        return (Correction(page.url, CorrectionKind.EXCLUDE_SPAM,
                           reason=f"out-degree {n_links} > {MAX_OUT_DEGREE}"),)

    by_anchor = {}
    for link in page.out_links:
        if link.anchor_text:
            by_anchor.setdefault(link.anchor_text, set()).add(link.target)
    for anchor, targets in by_anchor.items():
        if len(targets) >= DUP_ANCHOR_MIN:
            return (Correction(page.url, CorrectionKind.EXCLUDE_SPAM,
                               reason=f"{len(targets)} links share anchor {anchor!r}"),)

    if n_links > 0:
        words = len(page.text.split())
        if words / n_links < MIN_WORDS_PER_LINK:
            return (Correction(page.url, CorrectionKind.EXCLUDE_SPAM,
                               reason=f"{words} words for {n_links} links"),)

    corrections = []
    if page.has_feed_link or page.dated_headings >= 3:
        corrections.append(Correction(page.url, CorrectionKind.CONFIRM_BLOG,
                                      reason="feed link" if page.has_feed_link
                                      else f"{page.dated_headings} dated headings"))
    if glossary:
        hits = set(terms(page.text)).intersection(glossary)
        if hits:
            corrections.append(Correction(page.url, CorrectionKind.RESCALE,
                                          factor=GLOSSARY_RESCALE,
                                          reason=f"glossary terms {sorted(hits)[:3]}"))
    return tuple(corrections)


class PageStore:
    """The reservoir of fetched relevant pages: an index line per page plus
    the plain text in a content-addressed file."""

    def __init__(self, root):
        self.root = Path(root)
        (self.root / "content").mkdir(parents=True, exist_ok=True)
        self.index_path = self.root / "index.tsv"

    def add(self, page: Page, score: float) -> str:
        digest = hashlib.sha256(page.text.encode("utf-8")).hexdigest()
        content_path = self.root / "content" / f"{digest}.txt"
        if not content_path.exists():
            content_path.write_text(page.text, encoding="utf-8")
        with open(self.index_path, "a", encoding="utf-8") as fh:
            fh.write(f"{page.url}\t{page.fetched_at!r}\t{score!r}\n")
        return digest


class FocusedCrawler:
    """Drives crawl steps against a shared frontier graph.

    Each step fetches the frontier node it is given, scores relevance,
    expands links only when on-topic, and applies analyzer corrections.
    Fetch errors mark the node failed and never abort the run; a transport
    error or HTTP 5xx is retried once, after the politeness wait.
    """

    def __init__(self, graph, profile, transport, *, stops, clock, host_delay: float,
                 classifier="vsm", nb_model=None, glossary=frozenset(),
                 store: PageStore = None, phrase_sink=None):
        if classifier == "nb" and nb_model is None:
            raise ModelRequired("nb classification needs a trained model")
        self.graph = graph
        self.profile = profile
        self.transport = transport
        self.stops = stops
        self.classifier = classifier
        self.nb_model = nb_model
        self.glossary = glossary
        self.store = store
        self.clock = clock
        self.phrase_sink = phrase_sink
        self.host_throttle = HostThrottle(host_delay, clock)

    def _score(self, text: str):
        """The relevance gate deciding whether a page's links continue the
        crawl: (relevant, score)."""
        if self.classifier == "nb":
            label, gap = nb_classify(text, self.nb_model)
            return label == RELEVANT, gap
        score = vsm_score(text, self.profile)
        return score >= self.profile.threshold, score

    def _fetch_with_retry(self, node) -> Page:
        self.host_throttle.wait(node.url)
        try:
            return fetch_page(node, self.transport, now=self.clock.now())
        except FetchFailed as exc:
            if exc.status is not None and exc.status < 500:
                raise  # a client error does not change on a second request
        self.host_throttle.wait(node.url)
        return fetch_page(node, self.transport, now=self.clock.now())

    def crawl_step(self, node):
        """Run one fetch-classify-expand-correct cycle on ``node``, a
        frontier node the caller took with ``graph.next_frontier()``."""
        try:
            page = self._fetch_with_retry(node)
        except MediaSkipped as exc:
            logger.info("media skipped: %s (%s)", node.url, exc.content_type)
            self.graph.resolve(node.url, NodeStatus.EXCLUDED)
            return CrawlResult(page=None, relevant=False, corrections=(), new_edges=0)
        except (FetchFailed, OversizeBody) as exc:
            logger.warning("fetch failed: %s", exc)
            self.graph.resolve(node.url, NodeStatus.FAILED)
            return CrawlResult(page=None, relevant=False, corrections=(), new_edges=0)

        relevant, score = self._score(page.text)
        new_edges = 0
        if relevant:
            phrases = extract_scored_phrases(
                page.text, self.stops,
                in_degree=self.graph.in_degree(page.url),
                out_degree=len({l.target for l in page.out_links}),
            )
            report = self.graph.insert_links(page.url, page.out_links, phrases,
                                             PROVENANCE_FULLTEXT)
            new_edges = report.edges_added
            if self.phrase_sink is not None:
                self.phrase_sink(phrases)
            if self.store is not None:
                self.store.add(page, score)
        else:
            self.graph.resolve(node.url, NodeStatus.FETCHED)

        corrections = analyze_page(page, self.glossary)
        if corrections:
            self.graph.apply_corrections(corrections)
        return CrawlResult(page=page, relevant=relevant, corrections=corrections,
                           new_edges=new_edges)
