"""Layer 3: focused full-text crawling gated by topic relevance.

Frontier nodes are fetched complete, except media (photos/audio/video),
which a header probe rejects before any body transfer. The text analyzer
emits graph corrections (spam exclusion, blog confirmation, glossary
rescale). Links of a page continue the crawl only when the page is
classified on-topic and not excluded as spam.
"""
import hashlib
import logging
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, FetchFailed, MediaSkipped
from .graph import Correction, CorrectionKind, NodeStatus, PROVENANCE_FULLTEXT
from .htmltext import Document, extract_page
from .phrases import extract_scored_phrases, terms
from .relevance import RELEVANT, nb_classify, vsm_score
from .transport import MAX_BYTES, TIMEOUT

logger = logging.getLogger(__name__)

_MEDIA_PREFIXES = ("image/", "audio/", "video/")

# text-analyzer heuristics
MAX_OUT_DEGREE = 200        # S_max
DUP_ANCHOR_MIN = 10         # D_dup distinct targets, same anchor
MIN_WORDS_PER_LINK = 5.0    # R_min
GLOSSARY_RESCALE = 0.5


@dataclass(frozen=True)
class CrawlResult:
    page: object            # the fetched Document, or None when the fetch did not complete
    relevant: bool
    corrections: tuple
    new_edges: int
    fetched_at: float = 0.0  # the clock's time when the page's fetch started
    score: float = 0.0      # the relevance gate's score of the page
    phrases: dict = None    # a relevant page's ScoredPhrases, else None


def fetch_page(url: str, transport) -> Document:
    """Fetch one frontier URL's full text.

    A header probe runs first: media content types raise MediaSkipped and
    a declared size past the byte cap raises FetchFailed, both without
    transferring a body. A body past the cap also raises FetchFailed; each
    carries the status of the response that passed the cap.
    """
    status, ctype, size = transport.head(url, TIMEOUT)
    if status >= 400:
        raise FetchFailed(url, f"HTTP {status} (head)", status)
    if ctype.lower().startswith(_MEDIA_PREFIXES):
        raise MediaSkipped(url, ctype)
    if size > MAX_BYTES:
        raise FetchFailed(url, f"declared size {size} > cap {MAX_BYTES}", status)

    status, _ctype, body = transport.fetch(url, MAX_BYTES, TIMEOUT)
    if status >= 400:
        raise FetchFailed(url, f"HTTP {status}", status)
    if len(body) > MAX_BYTES:
        raise FetchFailed(url, f"body exceeded cap {MAX_BYTES}", status)
    return extract_page(body.decode("utf-8", errors="replace"), url)


def analyze_page(page: Document, glossary=frozenset()):
    """Text-analyzer heuristics, applied in order.

    (a) spam: out-degree above S_max, or >= D_dup distinct targets sharing
        identical anchor text, or fewer than R_min words of text per link
        -> exclude_spam (short-circuits the rest; the node is dead anyway);
    (b) blog: a declared RSS alternate link or >= 3 date-stamped headings
        -> confirm_blog;
    (c) glossary: any banned term in the page text -> rescale 0.5.
    """
    n_links = len(page.links)
    if n_links > MAX_OUT_DEGREE:
        return (Correction(page.url, CorrectionKind.EXCLUDE_SPAM,
                           reason=f"out-degree {n_links} > {MAX_OUT_DEGREE}"),)

    by_anchor = {}
    for link in page.links:
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

    def add(self, result: CrawlResult) -> str:
        """Store a crawl step's page: its text, and an index line of its
        URL, fetch time and score. The text is written to a file of its
        own and then renamed to its digest's name, so a write that fails
        leaves no partial text there, and two workers storing one text do
        not write into one file."""
        page = result.page
        digest = hashlib.sha256(page.text.encode("utf-8")).hexdigest()
        content_path = self.root / "content" / f"{digest}.txt"
        if not content_path.exists():
            fd, partial = tempfile.mkstemp(dir=content_path.parent, suffix=".part")
            try:
                with open(fd, "w", encoding="utf-8") as fh:
                    fh.write(page.text)
                os.replace(partial, content_path)
            except BaseException:
                os.unlink(partial)
                raise
        with open(self.index_path, "a", encoding="utf-8") as fh:
            fh.write(f"{page.url}\t{result.fetched_at!r}\t{result.score!r}\n")
        return digest


class FocusedCrawler:
    """Drives crawl steps against a shared frontier graph.

    Each step fetches the frontier URL it is given, scores relevance,
    runs the analyzer, expands links only when on-topic and not spam, and
    applies the analyzer's corrections. Each fetch attempt first reserves
    a slot on the page's host with ``transport.reserve``.
    Fetch errors mark the URL's node failed and never abort the run; a
    transport error or HTTP 5xx is retried once, in a slot of its own. A
    step keeps nothing itself: its ``CrawlResult`` carries the page, its
    fetch time, its score and a relevant page's phrases for the caller.
    """

    def __init__(self, graph, profile, transport, *, stops,
                 classifier="vsm", nb_model=None, glossary=frozenset()):
        if classifier == "nb" and nb_model is None:
            raise ConfigError("nb classification needs a trained model")
        self.graph = graph
        self.profile = profile
        self.transport = transport
        self.stops = stops
        self.classifier = classifier
        self.nb_model = nb_model
        self.glossary = glossary

    def _score(self, text: str):
        """The relevance gate deciding whether a page's links continue the
        crawl: (relevant, score)."""
        if self.classifier == "nb":
            label, gap = nb_classify(text, self.nb_model)
            return label == RELEVANT, gap
        score = vsm_score(text, self.profile)
        return score >= self.profile.threshold, score

    def _fetch_with_retry(self, url):
        """(the page at ``url``, the host slot start its last attempt
        reserved). Only a transport error or HTTP 5xx gets a second attempt."""
        for retry in (False, True):
            fetched_at = self.transport.reserve(url)
            try:
                return fetch_page(url, self.transport), fetched_at
            except FetchFailed as exc:
                if retry or (exc.status is not None and exc.status < 500):
                    raise  # a client error does not change on a second request

    def crawl_step(self, url: str, tokens):
        """Run one fetch-classify-expand-correct cycle on ``url``, a
        frontier URL the caller took with ``graph.next_frontier()``; a
        relevant page's phrases are keyed against ``tokens``, the run's
        ``TokenTable``. The analyzer runs before the expansion: a page it
        excludes as spam inserts no links."""
        try:
            page, fetched_at = self._fetch_with_retry(url)
        except MediaSkipped as exc:
            logger.info("media skipped: %s (%s)", url, exc.content_type)
            self.graph.resolve(url, NodeStatus.EXCLUDED)
            return CrawlResult(page=None, relevant=False, corrections=(), new_edges=0)
        except FetchFailed as exc:
            logger.warning("fetch failed: %s", exc)
            self.graph.resolve(url, NodeStatus.FAILED)
            return CrawlResult(page=None, relevant=False, corrections=(), new_edges=0)

        relevant, score = self._score(page.text)
        corrections = analyze_page(page, self.glossary)
        # a spam page's links would be removed again by its exclusion
        spam = any(c.kind is CorrectionKind.EXCLUDE_SPAM for c in corrections)
        new_edges = 0
        phrases = None
        if relevant:
            phrases = extract_scored_phrases(
                page.text, self.stops, tokens,
                in_degree=self.graph.in_degree(url),
                out_degree=len({l.target for l in page.links}),
            )
            if not spam:
                report = self.graph.insert_links(url, page.links, phrases,
                                                 PROVENANCE_FULLTEXT)
                new_edges = report.edges_added
        else:
            self.graph.resolve(url, NodeStatus.FETCHED)

        if corrections:
            self.graph.apply_corrections(corrections)
        return CrawlResult(page=page, relevant=relevant, corrections=corrections,
                           new_edges=new_edges, fetched_at=fetched_at, score=score,
                           phrases=phrases)
