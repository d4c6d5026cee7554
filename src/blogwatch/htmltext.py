"""Markup handling: plain-text extraction, anchor contexts, feed discovery.

One compiled pattern, ``_MARKUP``, splits a document into text chunks,
tags, comments and declarations, and one loop, ``_scan``, turns its
matches into events for ``extract_page`` and ``find_feed_url``. Script,
style and title content is dropped, block elements become line
boundaries (which the phrase extractor treats as sentence gaps), and each
anchor is captured with a window of surrounding words for edge-weight
estimation.

What the scanner accepts, following the WHATWG tokenizer
(https://html.spec.whatwg.org/multipage/parsing.html#tokenization):

- a start or end tag is ``<`` or ``</``, an ASCII letter, a name up to
  whitespace, ``/`` or ``>``, then attributes up to the first ``>`` that is
  not inside a quoted value; ``/>`` makes a start tag self-closing (a start
  and an end event, as ``html.parser`` gives);
- an attribute is a name, then optionally ``=`` and a value in double or
  single quotes, or bare up to whitespace or ``>`` (``_ATTRIBUTE``).
  Names are lowercased; a repeated name keeps its last value;
- ``<!--`` opens a comment that ends at ``-->`` or ``--!>``; any other
  ``<!``, ``<?``, or ``</`` not followed by a letter is skipped up to
  ``>``; ``</>`` is skipped;
- script and style content is raw text up to ``</script`` or ``</style``
  (any case) followed by whitespace, ``/`` or ``>``;
- character references in text and attribute values are decoded with
  ``html.unescape``;
- a ``<`` that opens none of the above is a text chunk of its own, as in
  ``html.parser``.

Where ``html.parser`` (Python 3.11) does otherwise on malformed markup,
the scanner follows the tokenizer:

- a tag, comment, declaration or processing instruction cut off by the
  end of the document is dropped with the rest of the document;
  ``html.parser`` gives its text back as words;
- a comment ends only at ``-->`` or ``--!>``, not at ``-- >``, and
  ``<!-->`` and ``<!--->`` are empty comments;
- ``</`` followed by anything but a letter (``</ p>``) is skipped as a
  bogus comment, not read as an end tag; ``<![CDATA[`` opens a bogus
  comment up to the first ``>``;
- quotes count in end tags too, and a start tag that ``html.parser``
  would give back as text is still a tag;
- only tab, LF, FF, CR and space separate names and attributes; ``==``
  starts a value with ``=``.

Both drop a script or style element that the document never closes.
Not modelled: the script data escape states (``<!--`` inside a script),
title and textarea as escapable raw text, the attribute rule that leaves
a legacy named reference undecoded before ``=`` or a letter, and the
replacement of NUL and of CR LF.
"""
import re
from dataclasses import dataclass
from html import unescape

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

# One attribute: group 1 is its name, group 2 its value with any quotes. A
# quote left open runs to the end of the document (the tag is then cut off).
_ATTRIBUTE = (r"""([^\t\n\f\r />][^\t\n\f\r /=>]*)"""
              r"""(?:[\t\n\f\r ]*=[\t\n\f\r ]*("[^"]*"?|'[^']*'?|[^\t\n\f\r >]*))?""")
_ATTRIBUTE_RE = re.compile(_ATTRIBUTE)

# One token per match. A tag's attributes stop only at ">", "/>" or the end
# of the document, so a tag never fails to match once its name has: the
# pattern does not backtrack into the attributes. After a start tag named
# script or style, the match runs on over its raw text.
_MARKUP = re.compile(r"""
    (?P<text>[^<]+)
  | <(?P<end>/)?
     (?P<tag>(?P<raw>(?i:script|style))(?![^\t\n\f\r />])|[a-zA-Z][^\t\n\f\r />]*)
     (?P<attrs>(?:[\t\n\f\r ]|/(?!>)|%s)*)
     (?:(?P<empty>/)>|(?P<close>>)|\Z)
     (?(close)(?(end)|(?(raw)(?s:.*?)(?=</(?i:(?P=raw))[\t\n\f\r />]|\Z))))
  | <!--(?:-?>|(?s:.*?)(?:--!?>|\Z))
  | <(?:[!?][^>]*(?:>|\Z)|/(?:>|[^a-zA-Z>][^>]*(?:>|\Z)))
  | (?P<lt><)
""" % _ATTRIBUTE, re.VERBOSE)

# _scan event kinds
_TEXT, _START, _END = range(3)


def _scan(html: str):
    """The events of ``html`` in document order, as ``(kind, value,
    attrs)``: ``(_TEXT, text, None)`` with references decoded,
    ``(_START, name, attrs)`` with ``attrs`` the raw attribute source for
    ``_attributes``, and ``(_END, name, None)``. A self-closing tag gives a
    start and an end; comments, declarations and a tag cut off by the end
    of the document give none."""
    for m in _MARKUP.finditer(html):
        text, end, tag, _raw, attrs, _name, _value, empty, close, lt = m.groups()
        if text is not None:
            yield _TEXT, unescape(text) if "&" in text else text, None
        elif tag is not None:
            if close is None and empty is None:
                continue   # cut off: the match ran to the end
            tag = tag.lower()
            if not end:
                yield _START, tag, attrs
            if end or empty:
                yield _END, tag, None
        elif lt:
            yield _TEXT, lt, None


def _attributes(src: str) -> dict:
    """``{name: value}`` of a tag's raw attribute source; the value is None
    for an attribute without ``=``."""
    attrs = {}
    for m in _ATTRIBUTE_RE.finditer(src):
        name, value = m.groups()
        if value:
            if value[0] in "\"'":
                value = value[1:-1]
            if "&" in value:
                value = unescape(value)
        attrs[name.lower()] = value
    return attrs


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


@dataclass(frozen=True)
class Document:
    """What phrase extraction and the graph read of a document: its URL,
    its visible text (one line per block) and its out-links, a tuple of
    ``LinkContext``. ``extract_page`` also gives the analyzer's inputs:
    whether the document declares an RSS alternate, and how many dated
    headings it has."""
    url: str
    text: str
    links: tuple
    has_feed_link: bool = False
    dated_headings: int = 0


def extract_page(html: str, base_url: str) -> Document:
    """Extract visible text, anchor contexts, feed declarations, and dated
    headings from an HTML document at ``base_url``.

    A text chunk adds its whitespace-separated words unless a script,
    style or title is open. A block tag's start or end breaks the line; an
    anchor spans the words between its start tag and its end tag (nested
    anchors close innermost first); a heading counts as dated when its
    words match a date, and a ``<time>`` when it has a ``datetime``."""
    words = []          # visible words, in order
    breaks = []         # word indexes where a line break occurs
    anchors = []        # (href, start word, end word)
    open_anchors = []   # (href, start word)
    skip = 0            # open script, style and title elements
    heading = None      # start word of the open heading, or None
    has_feed_link = False
    dated_headings = 0
    for kind, value, attrs in _scan(html):
        if kind == _TEXT:
            if not skip:
                words += value.split()
            continue
        tag = value
        if tag in _SKIP_TAGS:
            if kind == _START:
                skip += 1
            elif skip:
                skip -= 1
            continue
        if kind == _START:
            if tag == "link":
                if not has_feed_link and _rss_alternate(_attributes(attrs), base_url):
                    has_feed_link = True
            elif tag == "a":
                open_anchors.append((_attributes(attrs).get("href"), len(words)))
            elif tag in _HEADING_TAGS:
                heading = len(words)
                if tag == "time" and _attributes(attrs).get("datetime"):
                    dated_headings += 1
                    heading = None
        elif tag == "a" and open_anchors:
            href, start = open_anchors.pop()
            anchors.append((href, start, len(words)))
        elif tag in _HEADING_TAGS and heading is not None:
            if _DATE_PATTERNS.search(" ".join(words[heading:])):
                dated_headings += 1
            heading = None
        if tag in _BLOCK_TAGS:
            breaks.append(len(words))
    return Document(base_url, _assemble_text(words, breaks),
                    _assemble_links(words, anchors, base_url), has_feed_link, dated_headings)


def _assemble_text(words, breaks) -> str:
    """The words, one line per run between breaks (a break may repeat);
    empty lines dropped."""
    lines = []
    start = 0
    for end in breaks:
        if end > start:
            lines.append(" ".join(words[start:end]))
            start = end
    if len(words) > start:
        lines.append(" ".join(words[start:]))
    return "\n".join(lines)


def _assemble_links(words, anchors, base_url) -> tuple:
    links = []
    w = WINDOW
    for href, start, end in anchors:
        if not href:
            continue
        try:
            target = resolve_url(base_url, href)
        except ValueError:
            continue
        links.append(LinkContext(
            target=target,
            anchor_text=" ".join(words[start:end]),
            context_window=" ".join(words[max(0, start - w):start] + words[end:end + w]),
        ))
    return tuple(links)


def find_feed_url(page_head: str, base_url: str):
    """Feed auto-discovery over an HTML head: returns the first RSS
    alternate URL, ignoring Atom declarations; None when nothing is
    declared."""
    for kind, value, attrs in _scan(page_head):
        if kind == _START and value == "link":
            url = _rss_alternate(_attributes(attrs), base_url)
            if url is not None:
                return url
    return None
