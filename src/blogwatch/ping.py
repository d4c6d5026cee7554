"""Layer 1: ping-server change feeds filtered against the known-blog
registry, emitting fresh seed URLs.

Wire format is the weblogUpdates changes document: root ``weblogUpdates``
with optional ``version``/``updated``/``count`` attributes and ``weblog``
children carrying ``name``, ``url``, ``when``. A run reads only each
entry's ``url``; ``PingEvent`` is the whole entry, as
``serialize_changes_feed`` writes it.
"""
import logging
import xml.etree.ElementTree as ET
from collections import OrderedDict
from dataclasses import dataclass
from html import escape

from .errors import MalformedFeed
from .settings import decimal_count, read_words
from .urlnorm import host_of, normalize_url

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PingEvent:
    site_name: str
    url: str
    when: int  # seconds since the change notification


@dataclass(frozen=True)
class SeedUrl:
    url: str  # normalized
    discovered_at: float


@dataclass(frozen=True)
class BlogRegistry:
    """Host patterns: exact (``blog.example``) or wildcard-subdomain
    (``*.example`` matches any proper subdomain, not the bare host)."""
    entries: frozenset

    def matches(self, host: str) -> bool:
        host = host.lower()
        if host in self.entries:
            return True
        # check every wildcard suffix the host could satisfy
        parts = host.split(".")
        for i in range(1, len(parts)):
            if "*." + ".".join(parts[i:]) in self.entries:
                return True
        return False


def load_registry(path) -> BlogRegistry:
    """The registry at ``path`` (``read_words``): host patterns, no scheme or path."""
    return BlogRegistry(entries=read_words(path))


def parse_changes_feed(feed_text: str) -> list:
    """Parse a changes document into its entries' normalized URLs, in
    document order.

    Unparseable XML or a wrong root element raises MalformedFeed (the
    caller skips the poll cycle). An entry without a ``url``, or with an
    invalid one, is skipped and logged, never fatal: an online poller has
    to survive dirty feeds.
    """
    try:
        root = ET.fromstring(feed_text)
    except ET.ParseError as exc:
        raise MalformedFeed(f"unparseable changes document: {exc}") from exc
    if root.tag != "weblogUpdates":
        raise MalformedFeed(f"unexpected root element {root.tag!r}")

    entries = list(root.iter("weblog"))
    urls = []
    for elem in entries:
        url = elem.get("url")
        if url is None:
            logger.error("weblog entry without a url: %s", elem.attrib)
            continue
        try:
            urls.append(normalize_url(url))
        except ValueError as exc:
            logger.error("invalid weblog entry url (%s): %s", exc, elem.attrib)

    declared = decimal_count(root.get("count"))
    if declared is not None and declared != len(entries):
        logger.warning("count attribute %s != %d weblog entries", declared, len(entries))
    return urls


def serialize_changes_feed(events, updated=None) -> str:
    """Render PingEvents back into the changes-document format.

    Attribute values are escaped but their whitespace is written as is, so
    a site name, URL or ``updated`` value must not hold control characters
    (tab or line break): a parser would read them back as spaces.
    """
    attrs = ['version="2"']
    if updated is not None:
        attrs.append(f'updated="{escape(str(updated))}"')
    attrs.append(f'count="{len(events)}"')
    lines = [f"<weblogUpdates {' '.join(attrs)}>"]
    for ev in events:
        lines.append(
            f'  <weblog name="{escape(ev.site_name)}" url="{escape(ev.url)}"'
            f' when="{ev.when}" />'
        )
    lines.append("</weblogUpdates>")
    return "\n".join(lines)


def match_registry(urls, registry: BlogRegistry, now: float = 0.0):
    """Keep exactly the URLs whose host matches a registry pattern, as
    SeedUrls in input order; the others are dropped."""
    return [SeedUrl(url=url, discovered_at=now) for url in urls
            if registry.matches(host_of(url))]


class DedupeWindow:
    """Suppress re-announcements of a URL within a trailing window.

    The window is measured from the last *emitted* occurrence, so a URL
    re-announced after expiry passes again and restarts its window.
    ``_last_emit`` is kept oldest emission first; ``filter`` drops the URLs
    whose window closed before its earliest seed, which would pass anyway,
    so memory stays bounded by one window's emissions.
    """

    def __init__(self, window: float):
        self.window = window
        self._last_emit = OrderedDict()

    def admit(self, seed: SeedUrl) -> bool:
        last = self._last_emit.get(seed.url)
        if last is not None and seed.discovered_at - last < self.window:
            return False
        self._last_emit[seed.url] = seed.discovered_at
        self._last_emit.move_to_end(seed.url)
        return True

    def filter(self, seeds):
        if seeds:
            now = min(s.discovered_at for s in seeds)
            while self._last_emit:
                url, last = next(iter(self._last_emit.items()))
                if now - last < self.window:
                    break
                del self._last_emit[url]
        return [s for s in seeds if self.admit(s)]
