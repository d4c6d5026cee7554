"""Layer 1: ping-server change feeds filtered against the known-blog
registry, emitting fresh seed URLs.

Wire format is the weblogUpdates changes document: root ``weblogUpdates``
with optional ``version``/``updated``/``count`` attributes and ``weblog``
children carrying ``name``, ``url``, ``when``.
"""
import logging
import xml.etree.ElementTree as ET
from collections import OrderedDict
from dataclasses import dataclass
from xml.sax.saxutils import quoteattr

from .errors import MalformedFeed
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
    source_path: str = "<memory>"

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
    """Registry file: one pattern per line, ``#`` comments, blank lines
    ignored. Patterns are lowercased hosts without scheme or path."""
    entries = set()
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            entries.add(line.lower())
    return BlogRegistry(entries=frozenset(entries), source_path=str(path))


def parse_changes_feed(feed_text: str):
    """Parse a changes document into PingEvents, in document order.

    Unparseable XML or a wrong root element raises MalformedFeed (the
    caller skips the poll cycle). Individual weblog entries with missing
    attributes or invalid URLs are skipped and logged, never fatal: an
    online poller has to survive dirty feeds.
    """
    try:
        root = ET.fromstring(feed_text)
    except ET.ParseError as exc:
        raise MalformedFeed(f"unparseable changes document: {exc}") from exc
    if root.tag != "weblogUpdates":
        raise MalformedFeed(f"unexpected root element {root.tag!r}")

    events = []
    skipped = 0
    for elem in root.iter("weblog"):
        name = elem.get("name")
        url = elem.get("url")
        when = elem.get("when")
        if name is None or url is None or when is None:
            skipped += 1
            logger.error("weblog entry missing required attribute: %s", elem.attrib)
            continue
        try:
            when_s = int(float(when))
            if when_s < 0:
                raise ValueError("negative when")
            events.append(PingEvent(site_name=name, url=normalize_url(url), when=when_s))
        except ValueError as exc:
            skipped += 1
            logger.error("invalid weblog entry (%s): %s", exc, elem.attrib)

    declared = root.get("count")
    if declared is not None and declared.isdigit() and int(declared) != len(events) + skipped:
        logger.warning("count attribute %s != %d weblog entries", declared, len(events) + skipped)
    return events


def serialize_changes_feed(events, version: str = "2", updated=None) -> str:
    """Render PingEvents back into the changes-document format."""
    attrs = [f"version={quoteattr(version)}"]
    if updated is not None:
        attrs.append(f"updated={quoteattr(str(updated))}")
    attrs.append(f'count="{len(events)}"')
    lines = [f"<weblogUpdates {' '.join(attrs)}>"]
    for ev in events:
        lines.append(
            f"  <weblog name={quoteattr(ev.site_name)} url={quoteattr(ev.url)}"
            f' when="{ev.when}" />'
        )
    lines.append("</weblogUpdates>")
    return "\n".join(lines)


def match_registry(events, registry: BlogRegistry, now: float = 0.0,
                   metrics=None):
    """Keep exactly the events whose host matches a registry pattern,
    converted to SeedUrls in input order. Non-matching events are dropped
    silently (counted in ``metrics`` when given)."""
    seeds = []
    dropped = 0
    for ev in events:
        if registry.matches(host_of(ev.url)):
            seeds.append(SeedUrl(url=ev.url, discovered_at=now))
        else:
            dropped += 1
    if metrics is not None:
        metrics["seeds_unregistered"] = metrics.get("seeds_unregistered", 0) + dropped
    return seeds


class DedupeWindow:
    """Suppress re-announcements of a URL within a trailing window.

    The window is measured from the last *emitted* occurrence, so a URL
    re-announced after expiry passes again and restarts its window.
    ``_last_emit`` is kept oldest emission first; ``filter`` drops the URLs
    whose window closed before its earliest seed, which would pass anyway,
    so memory stays bounded by one window's emissions.
    """

    def __init__(self, window: float = 900.0):
        if window <= 0:
            raise ValueError("window must be > 0")
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
