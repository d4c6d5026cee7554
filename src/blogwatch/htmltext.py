"""Markup handling: plain-text extraction, anchor contexts, feed discovery.

Built on the stdlib HTMLParser. Script, style and title content is
dropped, block elements become line boundaries (which the phrase
extractor treats as sentence gaps), and each anchor is captured with a
window of surrounding words for edge-weight estimation.
"""
import re
from dataclasses import dataclass, field
from html.parser import HTMLParser

from .urlnorm import resolve_url

WINDOW = 10  # context words kept on each side of an anchor

_BLOCK_TAGS = {
    "p", "div", "br", "li", "ul", "ol", "dl", "dt", "dd", "table", "tr",
    "td", "th", "h1", "h2", "h3", "h4", "h5", "h6", "blockquote", "pre",
    "section", "article", "header", "footer", "nav", "aside", "hr",
    "figure", "figcaption", "main",
}
_SKIP_TAGS = {"script", "style", "title"}
_HEADING_TAGS = {"h1", "h2", "h3", "h4", "h5", "h6", "time"}

_DATE_PATTERNS = re.compile(
    r"\b(19|20)\d\d-[01]?\d-[0-3]?\d\b"  # 2011-03-07
    r"|\b(jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*\.?\s+\d{1,2},?\s+(19|20)\d\d\b"
    r"|\b\d{1,2}\s+(jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*\.?\s+(19|20)\d\d\b",
    re.IGNORECASE,
)

_FEED_TYPES_RSS = {"application/rss+xml", "application/rdf+xml"}


def _rss_alternate(attrs: dict, base_url: str):
    """The resolved URL a ``<link>`` tag declares as its page's RSS
    alternate, or None: Atom and other types, a missing href and an href
    that does not resolve to http(s) do not count."""
    rel = (attrs.get("rel") or "").lower()
    ltype = (attrs.get("type") or "").lower()
    href = attrs.get("href")
    if "alternate" not in rel or not href or ltype not in _FEED_TYPES_RSS:
        return None
    try:
        return resolve_url(base_url, href)
    except ValueError:
        return None


@dataclass(frozen=True)
class LinkContext:
    """An out-link with its anchor text and the words around it.

    ``context_window`` holds up to ``WINDOW`` words before plus up to
    ``WINDOW`` words after the anchor (the anchor text itself is excluded),
    so its length is at most ``2 * WINDOW`` words.
    """
    target: str
    anchor_text: str
    context_window: str


@dataclass
class PageExtract:
    text: str = ""
    links: list = field(default_factory=list)
    has_feed_link: bool = False
    dated_heading_count: int = 0


class _Extractor(HTMLParser):
    def __init__(self, base_url: str):
        super().__init__(convert_charrefs=True)
        self.base_url = base_url
        self.words = []          # visible words, in order
        self.lines = []          # word indexes where a line break occurs
        self.anchors = []        # (href, start_word, end_word)
        self._open_anchors = []
        self._skip = 0
        self._heading_buf = None
        self.out = PageExtract()

    # -- tag handling -------------------------------------------------

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP_TAGS:
            self._skip += 1
            return
        attrs = dict(attrs)
        if tag == "link":
            if not self.out.has_feed_link and _rss_alternate(attrs, self.base_url):
                self.out.has_feed_link = True
        elif tag == "a":
            self._open_anchors.append([attrs.get("href"), len(self.words)])
        elif tag in _HEADING_TAGS:
            self._heading_buf = []
            if tag == "time" and attrs.get("datetime"):
                self.out.dated_heading_count += 1
                self._heading_buf = None
        if tag in _BLOCK_TAGS:
            self._mark_line()

    def handle_endtag(self, tag):
        if tag in _SKIP_TAGS:
            if self._skip:
                self._skip -= 1
            return
        if tag == "a" and self._open_anchors:
            href, start = self._open_anchors.pop()
            self.anchors.append((href, start, len(self.words)))
        elif tag in _HEADING_TAGS and self._heading_buf is not None:
            if _DATE_PATTERNS.search(" ".join(self._heading_buf)):
                self.out.dated_heading_count += 1
            self._heading_buf = None
        if tag in _BLOCK_TAGS:
            self._mark_line()

    def handle_data(self, data):
        if self._skip:
            return
        chunk = data.split()
        if self._heading_buf is not None:
            self._heading_buf.extend(chunk)
        self.words.extend(chunk)

    # -- helpers ------------------------------------------------------

    def _mark_line(self):
        if not self.lines or self.lines[-1] != len(self.words):
            self.lines.append(len(self.words))

    # -- assembly -----------------------------------------------------

    def result(self) -> PageExtract:
        out = self.out
        out.text = self._assemble_text()
        out.links = self._assemble_links()
        return out

    def _assemble_text(self) -> str:
        pieces = []
        breaks = set(self.lines)
        for i, word in enumerate(self.words):
            if i in breaks and pieces:
                pieces.append("\n")
            elif pieces:
                pieces.append(" ")
            pieces.append(word)
        return "".join(pieces)

    def _assemble_links(self):
        links = []
        w = WINDOW
        for href, start, end in self.anchors:
            if not href:
                continue
            try:
                target = resolve_url(self.base_url, href)
            except ValueError:
                continue
            before = self.words[max(0, start - w):start]
            after = self.words[end:end + w]
            links.append(LinkContext(
                target=target,
                anchor_text=" ".join(self.words[start:end]),
                context_window=" ".join(before + after),
            ))
        return links


def extract_page(html: str, base_url: str) -> PageExtract:
    """Extract visible text, anchor contexts, feed declarations, and dated
    headings from an HTML document."""
    parser = _Extractor(base_url)
    try:
        parser.feed(html)
        parser.close()
    except Exception:
        # HTMLParser is lenient; anything it already swallowed is kept
        pass
    return parser.result()


class _FeedFound(Exception):
    """Ends the parse at the first RSS alternate."""


class _FeedLinkFinder(HTMLParser):
    """Reads only ``<link>`` start tags and stops at the first RSS
    alternate."""

    def __init__(self, base_url: str):
        super().__init__(convert_charrefs=True)
        self.base_url = base_url
        self.url = None

    def handle_starttag(self, tag, attrs):
        if tag == "link":
            url = _rss_alternate(dict(attrs), self.base_url)
            if url is not None:
                self.url = url
                raise _FeedFound


def find_feed_url(page_head: str, base_url: str):
    """Feed auto-discovery over an HTML head: returns the RSS alternate URL,
    ignoring Atom declarations; None when nothing is declared."""
    parser = _FeedLinkFinder(base_url)
    try:
        parser.feed(page_head)
        parser.close()
    except Exception:
        # _FeedFound ends the parse at the first match; on malformed markup
        # a link already read still counts
        pass
    return parser.url
