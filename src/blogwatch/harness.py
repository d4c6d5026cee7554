"""Deterministic synthetic blogosphere for offline testing.

A generated world contains topical blogs (repeating a small pool of topic
phrases, the way important events echo across posts), off-topic blogs
(diverse low-repetition text), empty blogs, spam link farms with
deceptive topical anchors, and media URLs. Every site carries a ground
truth label, which makes harvest rates and classifier accuracy exactly
measurable.
"""
import itertools
import os
import random
import sys
import threading
import weakref
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from html import escape
from pathlib import Path

from .errors import ConfigError
from .ping import PingEvent, serialize_changes_feed
from .settings import (decimal_count, finite_float, read_corpus, read_rows, read_settings,
                       read_text, read_words)

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_MEDIA_TYPES = (("clip.mp4", "video/mp4"), ("photo.png", "image/png"),
                ("talk.mp3", "audio/mpeg"))
_BASE_DATE = datetime(2011, 3, 7, 12, 0, tzinfo=timezone.utc)


@dataclass(frozen=True)
class WorldSpec:
    rng_seed: int = 0
    n_blogs: int = 200
    topical_fraction: float = 0.4
    spam_fraction: float = 0.1
    empty_fraction: float = 0.1
    media_fraction: float = 0.05
    posts_per_blog: tuple = (2, 4)
    links_per_post: tuple = (1, 3)
    topic_vocab_size: int = 60
    background_vocab_size: int = 400
    vocab_overlap: float = 0.05
    ping_cycles: int = 5
    decoy_hosts: int = 5

    def validate(self):
        fractions = (self.topical_fraction, self.spam_fraction,
                     self.empty_fraction, self.media_fraction)
        if any(f < 0 or f > 1 for f in fractions):
            raise ConfigError("fractions must lie in [0, 1]")
        if sum(fractions) > 1.0 + 1e-9:
            raise ConfigError("label fractions sum past 1")
        if self.n_blogs < 0:
            raise ConfigError("n_blogs must be >= 0")
        for name, rng_pair in (("posts_per_blog", self.posts_per_blog),
                               ("links_per_post", self.links_per_post)):
            lo, hi = rng_pair
            if lo < 0 or hi < lo:
                raise ConfigError(f"{name} range {rng_pair} is invalid")
        if self.topic_vocab_size < 8 or self.background_vocab_size < 8:
            raise ConfigError("vocabularies too small to build phrases")
        if self.ping_cycles < 1:
            raise ConfigError("ping_cycles must be >= 1")


def mixed_200_spec(rng_seed: int = 7) -> WorldSpec:
    """The standard desk-scale evaluation world: 200 sites, 40% topical,
    10% spam farms, 10% empty blogs, 5% media."""
    return WorldSpec(rng_seed=rng_seed, n_blogs=200, topical_fraction=0.4,
                     spam_fraction=0.1, empty_fraction=0.1, media_fraction=0.05)


@dataclass
class SyntheticWorld:
    # url -> (content_type, body bytes): a dict in a generated world; in a
    # loaded one, a mapping that reads each body from sites.bin on lookup
    sites: Mapping
    ping_script: list           # [(time, changes-document text), ...]
    # ground truth and run inputs, empty where a world was loaded without them
    labels: dict = field(default_factory=dict)       # url -> label
    site_labels: dict = field(default_factory=dict)  # site root url -> label (one per site)
    registry_lines: list = field(default_factory=list)
    topic_corpus: list = field(default_factory=list)
    background_corpus: list = field(default_factory=list)
    announced: list = field(default_factory=list)    # seed homepage URLs, announcement order


# ----------------------------------------------------------------------
# vocabulary and text helpers

def _make_words(rng: random.Random, count: int) -> list:
    words = []
    seen = set()
    while len(words) < count:
        w = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                    for _ in range(rng.randint(2, 3)))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def _sentence(rng, words, length) -> str:
    return " ".join(rng.choice(words) for _ in range(length))


def _topical_body(rng, phrases, topic_vocab, n_sentences=6):
    """Sentences that repeat each chosen phrase several times (repetition is
    what marks a phrase as important)."""
    parts = []
    for phrase in phrases:
        reps = rng.randint(3, 5)
        for _ in range(reps):
            lead = _sentence(rng, topic_vocab, rng.randint(2, 4))
            parts.append(f"{lead} {' '.join(phrase)}.")
    for _ in range(n_sentences):
        parts.append(_sentence(rng, topic_vocab, rng.randint(5, 9)) + ".")
    rng.shuffle(parts)
    return " ".join(parts)


def _background_body(rng, vocab, n_sentences=8):
    return " ".join(_sentence(rng, vocab, rng.randint(6, 12)) + "."
                    for _ in range(n_sentences))


# ----------------------------------------------------------------------
# site templates

def _blog_home(title, posts, body):
    items = "".join(f'<li><a href="{url}">{escape(t, quote=False)}</a></li>'
                    for t, url, _pub, _html in posts)
    return (
        "<html><head>"
        f"<title>{escape(title, quote=False)}</title>"
        '<link rel="alternate" type="application/rss+xml" href="/rss">'
        "</head><body>"
        f"<h1>{escape(title, quote=False)}</h1>"
        "<h3>2011-03-07 latest notes</h3>"
        "<h3>2011-03-05 earlier notes</h3>"
        "<h3>2011-03-02 archive</h3>"
        f"<p>{escape(body, quote=False)}</p>"
        f"<ul>{items}</ul>"
        "</body></html>"
    )


def _post_page(title, body_html, sibling):
    nav = (f'<p>previous: <a href="{sibling[0]}">{escape(sibling[1], quote=False)}</a></p>'
           if sibling else "")
    return (
        "<html><head>"
        f"<title>{escape(title, quote=False)}</title>"
        '<link rel="alternate" type="application/rss+xml" href="/rss">'
        "</head><body>"
        f"<h2>2011-03-06 {escape(title, quote=False)}</h2>"
        "<h3>2011-03-04 notebook</h3>"
        "<h3>2011-03-01 archive</h3>"
        f"<p>{body_html}</p>{nav}"
        "</body></html>"
    )


def _rss_feed(title, home_url, items):
    chunks = [
        '<?xml version="1.0" encoding="utf-8"?>',
        '<rss version="2.0"><channel>',
        f"<title>{escape(title, quote=False)}</title>",
        f"<link>{home_url}</link>",
    ]
    for item_title, link, pub, description_html in items:
        chunks.append(
            "<item>"
            f"<title>{escape(item_title, quote=False)}</title>"
            f"<link>{link}</link>"
            f"<pubDate>{pub}</pubDate>"
            f"<description>{escape(description_html, quote=False)}</description>"
            "</item>"
        )
    chunks.append("</channel></rss>")
    return "\n".join(chunks)


def _with_links(body, anchors):
    """``body`` with the ``(url, text)`` anchors spliced in after its
    middle sentence."""
    sentences = body.split(". ")
    mid = max(1, len(sentences) // 2)
    links = " ".join(f'<a href="{url}">{escape(text, quote=False)}</a>' for url, text in anchors)
    return ". ".join(sentences[:mid]) + ". " + links + " " + ". ".join(sentences[mid:])


# ----------------------------------------------------------------------
# generation

def generate_world(spec: WorldSpec) -> SyntheticWorld:
    """Build a world; equal specs produce byte-identical worlds. Only this
    function imports ``email.utils``, for its post dates, so loading a
    materialized world loads no ``email``."""
    from email.utils import format_datetime
    spec.validate()
    rng = random.Random(spec.rng_seed)
    sites, labels, site_labels = {}, {}, {}

    def add(url, content_type, body, label):
        sites[url] = (content_type, body.encode("utf-8"))
        labels[url] = label

    topic_vocab = _make_words(rng, spec.topic_vocab_size)
    background_vocab = _make_words(rng, spec.background_vocab_size)
    shared = max(0, int(spec.vocab_overlap * spec.topic_vocab_size))
    background_vocab = (background_vocab[:max(0, len(background_vocab) - shared)]
                        + topic_vocab[:shared])

    n_phrases = max(8, spec.topic_vocab_size // 5)
    topic_phrases = []
    seen = set()
    while len(topic_phrases) < n_phrases:
        size = rng.randint(2, 3)
        phrase = tuple(rng.sample(topic_vocab, size))
        if phrase not in seen:
            seen.add(phrase)
            topic_phrases.append(phrase)

    n = spec.n_blogs
    n_topical = int(spec.topical_fraction * n)
    n_spam = int(spec.spam_fraction * n)
    n_empty = int(spec.empty_fraction * n)
    n_media = int(spec.media_fraction * n)
    n_offtopic = n - n_topical - n_spam - n_empty - n_media

    # URL space first, so content generation can cross-link
    topical_hosts = [f"blog{i:03d}.example" for i in range(n_topical)]
    offtopic_hosts = [f"site{i:03d}.example" for i in range(n_offtopic)]
    empty_hosts = [f"quiet{i:03d}.example" for i in range(n_empty)]
    farm_hosts = [f"farm{i:03d}.example" for i in range(n_spam)]
    media = [(f"http://media{i:03d}.example/{name}", ctype)
             for i, (name, ctype) in zip(range(n_media), itertools.cycle(_MEDIA_TYPES))]

    posts_of = {}
    for host in topical_hosts + offtopic_hosts:
        count = rng.randint(*spec.posts_per_blog)
        posts_of[host] = [f"http://{host}/post/{k}" for k in range(max(1, count))]
    topical_posts, topical_span = [], {}  # span: (start, count) of a blog's posts
    for host in topical_hosts:
        topical_span[host] = (len(topical_posts), len(posts_of[host]))
        topical_posts += posts_of[host]
    offtopic_posts = [u for h in offtopic_hosts for u in posts_of[h]]
    farm_roots = [f"http://{h}/" for h in farm_hosts]
    farm_cycle = itertools.cycle(farm_roots)
    media_cycle = itertools.cycle([url for url, _ctype in media])

    def pick_link(kind_roll, own_host, phrase_pool):
        """Returns (url, anchor_text) for one outgoing link."""
        own_posts = posts_of[own_host]
        if farm_roots and 0.72 <= kind_roll < 0.80:
            return next(farm_cycle), " ".join(rng.choice(phrase_pool))
        if media and 0.80 <= kind_roll < 0.88:
            return next(media_cycle), " ".join(rng.choice(phrase_pool))
        if kind_roll >= 0.88 and len(own_posts) > 1:
            return rng.choice(own_posts), " ".join(rng.choice(phrase_pool))
        if offtopic_posts and 0.62 <= kind_roll < 0.72:
            return rng.choice(offtopic_posts), _sentence(rng, background_vocab, 2)
        start, count = topical_span[own_host]
        if len(topical_posts) == count:  # no other topical blog
            return rng.choice(topical_posts), " ".join(rng.choice(phrase_pool))
        i = rng.randrange(len(topical_posts) - count)  # another blog's post
        return topical_posts[i + count if i >= start else i], " ".join(rng.choice(phrase_pool))

    def add_blog(host, label, title, posts, home_body):
        """A blog's post pages, home page and feed; ``posts`` are RSS
        items ``(title, url, pubDate, html)``, newest first."""
        home = f"http://{host}/"
        for idx, (post_title, post_url, _pub, html) in enumerate(posts):
            sibling = (posts[idx - 1][1], posts[idx - 1][0]) if idx else None
            add(post_url, "text/html", _post_page(post_title, html, sibling), label)
        add(home, "text/html", _blog_home(title, posts, home_body), label)
        add(f"http://{host}/rss", "application/rss+xml", _rss_feed(title, home, posts), label)
        site_labels[home] = label

    # --- topical blogs. The world's first two links go to a farm root and
    # then a media URL, where it has them: their rolls are drawn and unused.
    first_links = iter([farm_roots and farm_cycle, media and media_cycle])
    for host in topical_hosts:
        posts = []
        for k, post_url in enumerate(posts_of[host]):
            chosen = [rng.choice(topic_phrases) for _ in range(rng.randint(2, 3))]
            body = _topical_body(rng, chosen, topic_vocab)
            n_links = rng.randint(*spec.links_per_post)
            anchors = []
            for _ in range(max(1, n_links)):
                roll = rng.random()
                first = next(first_links, None)
                anchors.append((next(first), " ".join(rng.choice(chosen))) if first
                               else pick_link(roll, host, chosen))
            pub = format_datetime(_BASE_DATE - timedelta(hours=3 * k))
            posts.append((" ".join(chosen[0]), post_url, pub, _with_links(body, anchors)))
        add_blog(host, "topical", f"{host.split('.')[0]} journal", posts,
                 _topical_body(rng, [rng.choice(topic_phrases)], topic_vocab, 3))

    # --- off-topic blogs
    for host in offtopic_hosts:
        posts = []
        for k, post_url in enumerate(posts_of[host]):
            body = _background_body(rng, background_vocab)
            n_links = rng.randint(*spec.links_per_post)
            anchors = []
            for _ in range(max(1, n_links)):
                # an off-topic blog has a post, so offtopic_posts is never empty
                target = rng.choice(offtopic_posts if rng.random() < 0.8
                                    else topical_posts or offtopic_posts)
                anchors.append((target, _sentence(rng, background_vocab, 2)))
            linked_html = _with_links(body, anchors)
            pub = format_datetime(_BASE_DATE - timedelta(hours=3 * k + 1))
            posts.append((_sentence(rng, background_vocab, 3), post_url, pub, linked_html))
        add_blog(host, "offtopic", f"{host.split('.')[0]} notes", posts,
                 _background_body(rng, background_vocab, 3))

    # --- empty blogs: valid feed, zero items
    for host in empty_hosts:
        add_blog(host, "empty", f"{host.split('.')[0]} placeholder", [], "nothing posted.")

    # --- spam link farms: duplicated anchors, thin topic-stuffed text
    for host in farm_hosts:
        root = f"http://{host}/"
        bait = " ".join(rng.choice(topic_phrases))
        sat_urls = [f"http://{host}/s/{m}" for m in range(15)]
        links = "".join(f'<li><a href="{u}">{escape(bait, quote=False)}</a></li>' for u in sat_urls)
        stuffing = _sentence(rng, topic_vocab, 20)
        add(root, "text/html",
            f"<html><body><p>{escape(stuffing, quote=False)}</p><ul>{links}</ul></body></html>",
            "spam")
        for u in sat_urls:
            add(u, "text/html",
                '<html><body><p>placeholder</p>'
                f'<a href="/">{escape(bait, quote=False)}</a></body></html>',
                "spam")
        site_labels[root] = "spam"

    # --- media resources
    for url, ctype in media:
        add(url, ctype, "\x00\x01" * 1024, "media")
        site_labels[url] = "media"

    # --- corpora for the relevance profile
    topic_corpus = [_topical_body(rng, rng.sample(topic_phrases, min(3, len(topic_phrases))),
                                  topic_vocab, 4).replace("\n", " ")
                    for _ in range(8)]
    background_corpus = [_background_body(rng, background_vocab, 6).replace("\n", " ")
                         for _ in range(24)]

    # --- registry and ping script
    announced_hosts = topical_hosts + offtopic_hosts + empty_hosts
    registry_lines = sorted(announced_hosts)
    announcement = [f"http://{h}/" for h in announced_hosts]
    rng.shuffle(announcement)
    decoys = [f"http://decoy{i:02d}.example/" for i in range(spec.decoy_hosts)]

    ping_script = []
    if announcement:
        chunk = max(1, (len(announcement) + spec.ping_cycles - 1) // spec.ping_cycles)
        for c in range(spec.ping_cycles):
            cycle_urls = announcement[c * chunk:(c + 1) * chunk]
            repeats = [u for u in announcement[:c * chunk] if rng.random() < 0.1]
            cycle_urls = cycle_urls + repeats
            if c < len(decoys):
                cycle_urls.append(decoys[c])
            events = [PingEvent(site_name=u.split("//")[1].rstrip("/"), url=u,
                                when=rng.randint(0, 600))
                      for u in cycle_urls]
            ping_script.append((60.0 * c, serialize_changes_feed(events, updated=f"cycle-{c}")))

    return SyntheticWorld(
        sites=sites,
        ping_script=ping_script,
        labels=labels,
        site_labels=site_labels,
        registry_lines=registry_lines,
        topic_corpus=topic_corpus,
        background_corpus=background_corpus,
        announced=announcement,
    )


# ----------------------------------------------------------------------
# in-memory transport

class InMemoryTransport:
    """Serves a SyntheticWorld's ``sites``, so a loaded world's bodies are
    read from ``sites.bin`` as they are served; an unknown URL is a 404
    with the body ``not found``. Repeated fetches return identical bytes.
    Safe for concurrent use."""

    def __init__(self, world: SyntheticWorld):
        self._sites = world.sites
        self._body_bytes = defaultdict(int)
        self._lock = threading.Lock()

    def fetch(self, url, max_bytes, timeout):
        entry = self._sites.get(url)
        status, ctype, body = (404, "text/plain", b"not found") if entry is None else (200, *entry)
        body = body[:max_bytes + 1]
        with self._lock:
            self._body_bytes[url] += len(body)
        return status, ctype, body

    def head(self, url, timeout):
        entry = self._sites.get(url)
        return (404, "text/plain", 0) if entry is None else (200, entry[0], len(entry[1]))

    def body_bytes_by_url(self) -> dict:
        """The body bytes each URL's fetches returned, error bodies
        included; head probes transfer none."""
        with self._lock:
            return dict(self._body_bytes)


def in_memory_transport(world: SyntheticWorld) -> InMemoryTransport:
    return InMemoryTransport(world)


# ----------------------------------------------------------------------
# fixture materialization

def materialize_world(world: SyntheticWorld, out_dir) -> None:
    """Write a world to disk so batch mode can run from files: the site
    bodies, one after another in ``world.sites`` order in ``sites.bin``,
    and a manifest of each one's URL, content type and byte count; the
    changes-document cycle files, ground-truth labels, registry, and the
    relevance corpora."""
    out = Path(out_dir)
    (out / "changes").mkdir(parents=True, exist_ok=True)

    manifest = []
    with open(out / "sites.bin", "wb") as fh:
        for url, (ctype, body) in world.sites.items():
            fh.write(body)
            manifest.append(f"{url}\t{ctype}\t{len(body)}")
    (out / "manifest.tsv").write_text("\n".join(manifest) + ("\n" if manifest else ""),
                                      encoding="utf-8")

    script_lines = []
    for idx, (t, doc) in enumerate(world.ping_script):
        rel = f"changes/cycle_{idx:03d}.xml"
        (out / rel).write_text(doc, encoding="utf-8")
        script_lines.append(f"{t!r}\t{rel}")
    (out / "ping_script.tsv").write_text("\n".join(script_lines) + "\n", encoding="utf-8")

    (out / "labels.tsv").write_text(
        "".join(f"{url}\t{label}\n" for url, label in world.labels.items()),
        encoding="utf-8")
    (out / "registry.txt").write_text(
        "".join(line + "\n" for line in world.registry_lines), encoding="utf-8")
    (out / "topic_corpus.txt").write_text(
        "".join(doc + "\n" for doc in world.topic_corpus), encoding="utf-8")
    (out / "background_corpus.txt").write_text(
        "".join(doc + "\n" for doc in world.background_corpus), encoding="utf-8")

    from importlib import resources
    stop_text = resources.files("blogwatch.data").joinpath("stopwords_en.txt").read_text("utf-8")
    (out / "stoplist.txt").write_text(stop_text, encoding="utf-8")

    (out / "run.conf").write_text(
        "mode = batch\n"
        "fixture_path = .\n"
        "registry_path = registry.txt\n"
        "stoplist_path = stoplist.txt\n"
        "topic_corpus_path = topic_corpus.txt\n"
        "background_corpus_path = background_corpus.txt\n"
        "classifier = vsm\n"
        "threshold = 0.3\n"
        "max_pages = 100\n"
        "report_path = report.txt\n"
        "checkpoint_path = graph.ckpt\n",
        encoding="utf-8")


def _rows(path, width, parse) -> list:
    """``parse(*fields)`` of each line of ``width`` tab-separated fields in
    the table at ``path``, read by ``read_rows``."""
    def row(line):
        fields = line.split("\t")
        if len(fields) != width:
            raise ValueError(f"expected {width} tab-separated fields, got {len(fields)}")
        return parse(*fields)
    return read_rows(path, row)


def _byte_count(field) -> int:
    """A manifest size, read by ``decimal_count``."""
    if (size := decimal_count(field)) is None:
        raise ValueError(f"size {field!r} is not a decimal byte count")
    return size


class _SiteBodies(Mapping):
    """``url -> (content type, body bytes)`` over an open ``sites.bin``:
    it holds each URL's content type, offset and size, and reads the body
    on each lookup with ``os.pread``, which moves no shared file position,
    so concurrent lookups need no lock. The file closes when the mapping
    is dropped. A body that the file no longer holds whole is a
    ``ConfigError`` naming the file."""

    def __init__(self, path, fh, index):
        self._path = path
        self._fd = fh.fileno()
        self._index = index
        weakref.finalize(self, fh.close)

    def __getitem__(self, url):
        ctype, offset, size = self._index[url]
        body = os.pread(self._fd, size, offset)
        if len(body) != size:
            raise ConfigError(f"{self._path}: holds {len(body)} of the {size} bytes "
                              f"at offset {offset} for {url}")
        return ctype, body

    def __contains__(self, url):
        return url in self._index

    def __iter__(self):
        return iter(self._index)

    def __len__(self):
        return len(self._index)


def load_served_world(fixture_dir) -> SyntheticWorld:
    """The part of a materialized world that a batch run serves and
    replays: the site bodies and the ping script. Its other fields are
    empty. The manifest's sizes must sum to the length of ``sites.bin``,
    which stays open: ``sites`` keeps only each body's place in it and
    reads the body when it is looked up. A missing file is a
    ``ConfigError`` naming its path, and so are sizes that do not match;
    a bad byte in a text file, or a table line that does not parse or
    names a missing file, one naming ``path:line``. Equal content types
    share one string (``sys.intern``), not one per URL."""
    root = Path(fixture_dir)
    manifest = _rows(root / "manifest.tsv", 3, lambda url, ctype, size:
                     (url, sys.intern(ctype), _byte_count(size)))
    index, total = {}, 0
    for url, ctype, size in manifest:
        index[url] = (ctype, total, size)
        total += size
    bodies = root / "sites.bin"
    try:
        fh = open(bodies, "rb", buffering=0)
    except OSError as exc:
        raise ConfigError(f"{bodies}: {exc.strerror or exc}") from None
    length = os.fstat(fh.fileno()).st_size
    if total != length:
        fh.close()
        raise ConfigError(f"{bodies}: holds {length} bytes, but the sizes in "
                          f"{root / 'manifest.tsv'} sum to {total}")
    sites = _SiteBodies(bodies, fh, index)
    ping_script = _rows(root / "ping_script.tsv", 2, lambda t, rel:
                        (finite_float(t), read_text(root / rel)))
    return SyntheticWorld(sites=sites, ping_script=ping_script)


def load_world(fixture_dir) -> SyntheticWorld:
    """A materialized world: ``load_served_world`` plus the labels, the
    registry and the corpora, read as a run reads them (``read_words``
    sorted, and ``read_corpus``; site labels and the announcement order
    are not persisted). A labelled URL that ``sites`` holds is keyed by
    that key's own string, and equal labels share one string
    (``sys.intern``). It fails as ``load_served_world`` does."""
    root = Path(fixture_dir)
    world = load_served_world(root)
    urls = {url: url for url in world.sites}
    world.labels = dict(_rows(root / "labels.tsv", 2, lambda url, label:
                              (urls.get(url, url), sys.intern(label))))
    world.registry_lines = sorted(read_words(root / "registry.txt"))
    world.topic_corpus = read_corpus(root / "topic_corpus.txt")
    world.background_corpus = read_corpus(root / "background_corpus.txt")
    return world


def parse_world_spec(path) -> WorldSpec:
    """Read a WorldSpec from a ``key = value`` file."""
    return WorldSpec(**read_settings(path, WorldSpec))
