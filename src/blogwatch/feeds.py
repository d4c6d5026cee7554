"""Layer 2: fetch and parse RSS summaries, one seed at a time.

A summary is what layer 2 analyzes of a blog's feed: the text of its
newest posts, from which key phrases are extracted, and the links in
their descriptions, which become graph edges from the feed's URL (not
the blog's home page). Only the RSS 2.0 subset is handled; Atom is out
of scope. Feeds declared in UTF-8 or Latin-1 are accepted and
transcoded; anything else is rejected as MalformedFeed. Each worker fully
processes one summary before taking the next seed, and URLs extracted
here are never fed back as layer-2 seeds.
"""
import logging
import re
import xml.etree.ElementTree as ET
from datetime import datetime, timedelta, timezone

from .errors import FetchFailed, MalformedFeed
from .htmltext import Document, extract_page, find_feed_url
from .transport import MAX_BYTES, TIMEOUT
from .urlnorm import normalize_url, resolve_url

logger = logging.getLogger(__name__)

MAX_POSTS = 50  # newest posts kept per summary

_XML_DECL_ENCODING = re.compile(rb'<\?xml[^>]*encoding=["\']([A-Za-z0-9._-]+)["\']')
_ACCEPTED_ENCODINGS = {"utf-8", "utf8", "latin-1", "latin1", "iso-8859-1", "us-ascii", "ascii"}
_HTML_TYPES = {"text/html", "application/xhtml+xml"}
_MONTHS = {m: i for i, m in enumerate(
    "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split(), 1)}
# "Ddd, D[D] Mon YYYY HH:MM:SS +HHMM" with a year of four digits from 1000
_RSS_DATE = re.compile(rf"(?:Mon|Tue|Wed|Thu|Fri|Sat|Sun), ([0-9]{{1,2}}) ({'|'.join(_MONTHS)}) "
                       r"([1-9][0-9]{3}) ([0-9]{2}):([0-9]{2}):([0-9]{2}) ([+-])([0-9]{2})([0-9]{2})")


def decode_feed_bytes(body: bytes) -> str:
    """Decode feed bytes per the XML declaration; UTF-8 assumed when the
    declaration is absent."""
    m = _XML_DECL_ENCODING.search(body[:200])
    encoding = m.group(1).decode("ascii").lower() if m else "utf-8"
    if encoding not in _ACCEPTED_ENCODINGS:
        raise MalformedFeed(f"unsupported feed encoding {encoding!r}")
    try:
        if encoding in ("latin-1", "latin1", "iso-8859-1"):
            return body.decode("latin-1")
        return body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFeed(f"undecodable feed body: {exc}") from exc


def _parse_pubdate(raw):
    """Epoch seconds of an RFC 822 date, or None. A date with no zone or
    with ``-0000`` (UTC with no local offset, RFC 5322 section 3.3) is read
    as UTC, so post order never depends on the machine's time zone. A date
    that ``_RSS_DATE`` matches is read from the match, every other string
    by ``email.utils``, which reads the match's fields the same way. Only
    that branch imports ``email.utils``, so a run whose dates all match
    never loads the ``email`` package."""
    if not raw:
        return None
    raw = raw.strip()
    try:
        rss_date = _RSS_DATE.fullmatch(raw)
        if rss_date:
            day, month, year, hour, minute, second, sign, zone_h, zone_m = rss_date.groups()
            zone = int(zone_h) * 60 + int(zone_m)
            offset = timezone(timedelta(minutes=-zone if sign == "-" else zone))
            published = datetime(int(year), _MONTHS[month], int(day), int(hour), int(minute),
                                 int(second), tzinfo=offset)
        else:
            import email.utils
            published = email.utils.parsedate_to_datetime(raw)
            if published.tzinfo is None:
                published = published.replace(tzinfo=timezone.utc)
        return published.timestamp()
    except (TypeError, ValueError, OverflowError, OSError):
        return None


def _description(item) -> str:
    """An item's description as markup: its text, then each child element
    written back with its tail, so a description holding raw (unescaped)
    XHTML keeps the text and anchors after its first child."""
    desc = item.find("description")
    if desc is None:
        return ""
    try:
        return (desc.text or "") + "".join(ET.tostring(c, encoding="unicode") for c in desc)
    except RecursionError:  # ET.tostring recurses once per level of nesting
        raise MalformedFeed("description markup nested too deeply") from None


def parse_rss(feed_text: str, base_url: str) -> Document:
    """Parse an RSS 2.0 document at ``base_url`` into its summary.

    The summary covers the newest ``MAX_POSTS`` posts, newest first
    (undated ones last, ties in document order): its URL is the feed's
    normalized URL, its ``text`` holds the posts' non-empty titles and
    stripped descriptions, one per line (titles act as sentence spans),
    and its ``links`` the ``LinkContext`` of every anchor in their
    descriptions (see ``extract_page``), in the same post order, resolved
    against each item's link. Items without a usable link are dropped
    (and counted in the log).
    """
    try:
        root = ET.fromstring(feed_text)
    except ET.ParseError as exc:
        raise MalformedFeed(f"unparseable feed: {exc}") from exc
    if root.tag.lower() != "rss":
        raise MalformedFeed(f"root element {root.tag!r} is not <rss>")
    channel = root.find("channel")
    if channel is None:
        raise MalformedFeed("feed has no <channel>")

    posts = []  # (published, title, extract)
    dropped = 0
    for item in channel.findall("item"):
        raw_link = (item.findtext("link") or "").strip()
        if not raw_link:
            dropped += 1
            continue
        try:
            link = resolve_url(base_url, raw_link)
        except ValueError:
            dropped += 1
            continue
        published = _parse_pubdate(item.findtext("pubDate"))
        posts.append((float("-inf") if published is None else published,
                      (item.findtext("title") or "").strip(),
                      extract_page(_description(item), link)))
    if dropped:
        logger.info("dropped %d feed item(s) without a link (%s)", dropped, base_url)

    # newest first; undated items sort oldest, ties keep document order
    posts.sort(key=lambda p: p[0], reverse=True)
    del posts[MAX_POSTS:]
    return Document(
        url=normalize_url(base_url),
        text="\n".join(part for _, title, extract in posts
                       for part in (title, extract.text) if part),
        links=tuple(link for _, _, extract in posts for link in extract.links),
    )


def _looks_like_feed(content_type: str) -> bool:
    ctype = (content_type or "").lower()
    return ctype.endswith("xml") and ctype not in _HTML_TYPES


def fetch_summary(seed, transport) -> Document:
    """Fetch the RSS summary for a seed blog.

    The seed URL is fetched first: if it already serves XML it is parsed
    as the feed, otherwise the feed is the RSS alternate that the returned
    HTML declares, or with none the conventional ``/rss`` path on the seed
    URL, and that is fetched. A body beyond the byte cap gets a truncated
    parse attempt; if that fails, FetchFailed carries the response's status.
    """
    status, ctype, body = transport.fetch(seed.url, MAX_BYTES, TIMEOUT)
    if status >= 400:
        raise FetchFailed(seed.url, f"HTTP {status}", status)
    feed_url = seed.url
    if not _looks_like_feed(ctype):
        page_text = body[:MAX_BYTES].decode("utf-8", errors="replace")
        feed_url = (find_feed_url(page_text, seed.url)
                    or normalize_url(seed.url.rstrip("/") + "/rss"))
        status, ctype, body = transport.fetch(feed_url, MAX_BYTES, TIMEOUT)
        if status >= 400:
            raise FetchFailed(feed_url, f"HTTP {status}", status)

    oversize = len(body) > MAX_BYTES
    if oversize:
        body = body[:MAX_BYTES]
    text = decode_feed_bytes(body)
    try:
        return parse_rss(text, feed_url)
    except MalformedFeed:
        if oversize:
            raise FetchFailed(feed_url, f"body exceeded {MAX_BYTES} bytes "
                              "and truncated parse failed", status)
        raise
