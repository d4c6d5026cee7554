"""Deterministic synthetic blogosphere for offline testing.

A generated world contains topical blogs (repeating a small pool of topic
phrases, the way important events echo across posts), off-topic blogs
(diverse low-repetition text), empty blogs, spam link farms with
deceptive topical anchors, and media URLs. Every site carries a ground
truth label, which makes harvest rates and classifier accuracy exactly
measurable.
"""
import random
import threading
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

from .errors import ConfigError, SpecError
from .ping import PingEvent, serialize_changes_feed
from .settings import finite_float, read_settings, read_text

LABELS = ("topical", "offtopic", "spam", "empty", "media")

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
            raise SpecError("fractions must lie in [0, 1]")
        if sum(fractions) > 1.0 + 1e-9:
            raise SpecError("label fractions sum past 1")
        if self.n_blogs < 0:
            raise SpecError("n_blogs must be >= 0")
        for name, rng_pair in (("posts_per_blog", self.posts_per_blog),
                               ("links_per_post", self.links_per_post)):
            lo, hi = rng_pair
            if lo < 0 or hi < lo:
                raise SpecError(f"{name} range {rng_pair} is invalid")
        if self.topic_vocab_size < 8 or self.background_vocab_size < 8:
            raise SpecError("vocabularies too small to build phrases")
        if self.ping_cycles < 1:
            raise SpecError("ping_cycles must be >= 1")


def mixed_200_spec(rng_seed: int = 7) -> WorldSpec:
    """The standard desk-scale evaluation world: 200 sites, 40% topical,
    10% spam farms, 10% empty blogs, 5% media."""
    return WorldSpec(rng_seed=rng_seed, n_blogs=200, topical_fraction=0.4,
                     spam_fraction=0.1, empty_fraction=0.1, media_fraction=0.05)


@dataclass
class SyntheticWorld:
    spec: WorldSpec
    sites: dict                 # url -> (content_type, body bytes)
    ping_script: list           # [(time, changes-document text), ...]
    labels: dict                # url -> label
    site_labels: dict           # site root url -> label (one per site)
    registry_lines: list
    topic_corpus: list
    background_corpus: list
    topic_phrases: list         # [(word, word[, word]), ...]
    announced: list             # seed homepage URLs, announcement order


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
    items = "".join(f'<li><a href="{url}">{escape(t)}</a></li>'
                    for t, url, _pub, _html in posts)
    return (
        "<html><head>"
        f"<title>{escape(title)}</title>"
        '<link rel="alternate" type="application/rss+xml" href="/rss">'
        "</head><body>"
        f"<h1>{escape(title)}</h1>"
        "<h3>2011-03-07 latest notes</h3>"
        "<h3>2011-03-05 earlier notes</h3>"
        "<h3>2011-03-02 archive</h3>"
        f"<p>{escape(body)}</p>"
        f"<ul>{items}</ul>"
        "</body></html>"
    )


def _post_page(title, body_html, sibling):
    nav = f'<p>previous: <a href="{sibling[0]}">{escape(sibling[1])}</a></p>' if sibling else ""
    return (
        "<html><head>"
        f"<title>{escape(title)}</title>"
        '<link rel="alternate" type="application/rss+xml" href="/rss">'
        "</head><body>"
        f"<h2>2011-03-06 {escape(title)}</h2>"
        "<h3>2011-03-04 notebook</h3>"
        "<h3>2011-03-01 archive</h3>"
        f"<p>{body_html}</p>{nav}"
        "</body></html>"
    )


def _rss_feed(title, home_url, items):
    chunks = [
        '<?xml version="1.0" encoding="utf-8"?>',
        '<rss version="2.0"><channel>',
        f"<title>{escape(title)}</title>",
        f"<link>{home_url}</link>",
    ]
    for item_title, link, pub, description_html in items:
        chunks.append(
            "<item>"
            f"<title>{escape(item_title)}</title>"
            f"<link>{link}</link>"
            f"<pubDate>{pub}</pubDate>"
            f"<description>{escape(description_html)}</description>"
            "</item>"
        )
    chunks.append("</channel></rss>")
    return "\n".join(chunks)


def _with_links(body, anchors):
    """``body`` with the ``(url, text)`` anchors spliced in after its
    middle sentence."""
    sentences = body.split(". ")
    mid = max(1, len(sentences) // 2)
    links = " ".join(f'<a href={quoteattr(url)}>{escape(text)}</a>' for url, text in anchors)
    return ". ".join(sentences[:mid]) + ". " + links + " " + ". ".join(sentences[mid:])


# ----------------------------------------------------------------------
# generation

class _Builder:
    def __init__(self, spec: WorldSpec):
        self.spec = spec
        self.rng = random.Random(spec.rng_seed)
        self.sites = {}
        self.labels = {}
        self.site_labels = {}
        self.farm_cursor = 0
        self.media_cursor = 0

    def add(self, url, content_type, body, label):
        if isinstance(body, str):
            body = body.encode("utf-8")
        self.sites[url] = (content_type, body)
        self.labels[url] = label


def generate_world(spec: WorldSpec) -> SyntheticWorld:
    """Build a world; equal specs produce byte-identical worlds."""
    spec.validate()
    b = _Builder(spec)
    rng = b.rng

    topic_vocab = _make_words(rng, spec.topic_vocab_size)
    background_vocab = _make_words(rng, spec.background_vocab_size)
    shared = max(0, int(spec.vocab_overlap * spec.topic_vocab_size))
    background_vocab = background_vocab[:-shared] + topic_vocab[:shared] if shared else background_vocab

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
    media_urls = []
    for i in range(n_media):
        name, ctype = _MEDIA_TYPES[i % len(_MEDIA_TYPES)]
        media_urls.append((f"http://media{i:03d}.example/{name}", ctype))

    posts_of = {}
    for host in topical_hosts + offtopic_hosts:
        count = rng.randint(*spec.posts_per_blog)
        posts_of[host] = [f"http://{host}/post/{k}" for k in range(max(1, count))]
    topical_posts = [u for h in topical_hosts for u in posts_of[h]]
    offtopic_posts = [u for h in offtopic_hosts for u in posts_of[h]]
    farm_roots = [f"http://{h}/" for h in farm_hosts]

    def pick_link(kind_roll, own_host, own_posts, phrase_pool, forced=None):
        """Returns (url, anchor_text) for one outgoing link."""
        if forced == "farm" or (forced is None and farm_roots and kind_roll >= 0.72 and kind_roll < 0.80):
            url = farm_roots[b.farm_cursor % len(farm_roots)]
            b.farm_cursor += 1
            return url, " ".join(rng.choice(phrase_pool))
        if forced == "media" or (forced is None and media_urls and 0.80 <= kind_roll < 0.88):
            url = media_urls[b.media_cursor % len(media_urls)][0]
            b.media_cursor += 1
            return url, " ".join(rng.choice(phrase_pool))
        if forced is None and kind_roll >= 0.88 and len(own_posts) > 1:
            return rng.choice(own_posts), " ".join(rng.choice(phrase_pool))
        if forced is None and offtopic_posts and 0.62 <= kind_roll < 0.72:
            return rng.choice(offtopic_posts), _sentence(rng, background_vocab, 2)
        pool = [u for u in topical_posts if not u.startswith(f"http://{own_host}/")] or topical_posts
        return rng.choice(pool), " ".join(rng.choice(phrase_pool))

    def add_blog(host, label, title, posts, home_body):
        """A blog's post pages, home page and feed; ``posts`` are RSS
        items ``(title, url, pubDate, html)``, newest first."""
        home = f"http://{host}/"
        for idx, (post_title, post_url, _pub, html) in enumerate(posts):
            sibling = (posts[idx - 1][1], posts[idx - 1][0]) if idx else None
            b.add(post_url, "text/html", _post_page(post_title, html, sibling), label)
        b.add(home, "text/html", _blog_home(title, posts, home_body), label)
        b.add(f"http://{host}/rss", "application/rss+xml", _rss_feed(title, home, posts), label)
        b.site_labels[home] = label

    # --- topical blogs
    force_queue = ["farm", "media"] if farm_roots or media_urls else []
    for host in topical_hosts:
        posts = []
        for k, post_url in enumerate(posts_of[host]):
            chosen = [rng.choice(topic_phrases) for _ in range(rng.randint(2, 3))]
            body = _topical_body(rng, chosen, topic_vocab)
            n_links = rng.randint(*spec.links_per_post)
            anchors = []
            for _ in range(max(1, n_links)):
                forced = None
                if force_queue:
                    forced = force_queue.pop(0)
                    if forced == "farm" and not farm_roots:
                        forced = None
                    if forced == "media" and not media_urls:
                        forced = None
                anchors.append(pick_link(rng.random(), host, posts_of[host], chosen, forced))
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
                if offtopic_posts and rng.random() < 0.8:
                    target = rng.choice(offtopic_posts)
                else:
                    target = rng.choice(topical_posts) if topical_posts else rng.choice(offtopic_posts)
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
        links = "".join(f'<li><a href="{u}">{escape(bait)}</a></li>' for u in sat_urls)
        stuffing = _sentence(rng, topic_vocab, 20)
        b.add(root, "text/html",
              f"<html><body><p>{escape(stuffing)}</p><ul>{links}</ul></body></html>",
              "spam")
        for u in sat_urls:
            b.add(u, "text/html",
                  f'<html><body><p>placeholder</p><a href="/">{escape(bait)}</a></body></html>',
                  "spam")
        b.site_labels[root] = "spam"

    # --- media resources
    for url, ctype in media_urls:
        b.add(url, ctype, b"\x00\x01" * 1024, "media")
        b.site_labels[url] = "media"

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
        spec=spec,
        sites=b.sites,
        ping_script=ping_script,
        labels=b.labels,
        site_labels=b.site_labels,
        registry_lines=registry_lines,
        topic_corpus=topic_corpus,
        background_corpus=background_corpus,
        topic_phrases=topic_phrases,
        announced=announcement,
    )


# ----------------------------------------------------------------------
# in-memory transport

class InMemoryTransport:
    """Serves a SyntheticWorld. Repeated fetches return identical bytes;
    every access is appended to a thread-safe log as
    (op, url, status, content_type, body_bytes)."""

    def __init__(self, world: SyntheticWorld):
        self._sites = world.sites
        self.access_log = []
        self._lock = threading.Lock()

    def _log(self, op, url, status, ctype, body_bytes):
        with self._lock:
            self.access_log.append((op, url, status, ctype, body_bytes))

    def fetch(self, url, max_bytes, timeout):
        entry = self._sites.get(url)
        if entry is None:
            self._log("fetch", url, 404, "text/plain", 0)
            return 404, "text/plain", b"not found"
        ctype, body = entry
        body = body[:max_bytes + 1]
        self._log("fetch", url, 200, ctype, len(body))
        return 200, ctype, body

    def head(self, url, timeout):
        entry = self._sites.get(url)
        if entry is None:
            self._log("head", url, 404, "text/plain", 0)
            return 404, "text/plain", 0
        ctype, body = entry
        self._log("head", url, 200, ctype, 0)
        return 200, ctype, len(body)

    def body_bytes_by_url(self) -> dict:
        """Total body bytes actually transferred per URL (head probes are
        free)."""
        with self._lock:
            totals = {}
            for op, url, _status, _ctype, nbytes in self.access_log:
                if op == "fetch":
                    totals[url] = totals.get(url, 0) + nbytes
            return totals


def in_memory_transport(world: SyntheticWorld) -> InMemoryTransport:
    return InMemoryTransport(world)


# ----------------------------------------------------------------------
# fixture materialization

def materialize_world(world: SyntheticWorld, out_dir) -> None:
    """Write a world to disk so batch mode can run from files: site bodies
    plus manifest, the changes-document cycle files, ground-truth labels,
    registry, and the relevance corpora."""
    out = Path(out_dir)
    (out / "sites").mkdir(parents=True, exist_ok=True)
    (out / "changes").mkdir(exist_ok=True)

    manifest = []
    for idx, (url, (ctype, body)) in enumerate(world.sites.items()):
        rel = f"sites/{idx:05d}.bin"
        (out / rel).write_bytes(body)
        manifest.append(f"{url}\t{ctype}\t{rel}")
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


def load_world(fixture_dir) -> SyntheticWorld:
    """Reconstruct a materialized world from disk (spec is not persisted).
    A bad byte in a text file, or a table line that does not parse or
    names a missing file, is a ``ConfigError`` naming ``path:line``."""
    root = Path(fixture_dir)

    def lines(rel):
        return read_text(root / rel, ConfigError).splitlines()

    def rows(rel, width, parse):
        """``parse(*fields)`` of each non-empty line of ``width``
        tab-separated fields."""
        parsed = []
        for lineno, line in enumerate(lines(rel), 1):
            if not line:
                continue
            fields = line.split("\t")
            try:
                if len(fields) != width:
                    raise ValueError(f"expected {width} tab-separated fields, got {len(fields)}")
                parsed.append(parse(*fields))
            except (OSError, ValueError, ConfigError) as exc:
                raise ConfigError(f"{root / rel}:{lineno}: {exc}") from None
        return parsed

    sites = dict(rows("manifest.tsv", 3, lambda url, ctype, rel:
                      (url, (ctype, (root / rel).read_bytes()))))
    ping_script = rows("ping_script.tsv", 2, lambda t, rel:
                       (finite_float(t), read_text(root / rel, ConfigError)))
    labels = dict(rows("labels.tsv", 2, lambda url, label: (url, label)))

    registry_lines = [l for l in lines("registry.txt") if l and not l.startswith("#")]
    topic_corpus = [l for l in lines("topic_corpus.txt") if l]
    background_corpus = [l for l in lines("background_corpus.txt") if l]

    return SyntheticWorld(
        spec=None, sites=sites, ping_script=ping_script, labels=labels,
        site_labels={}, registry_lines=registry_lines, topic_corpus=topic_corpus,
        background_corpus=background_corpus, topic_phrases=[], announced=[],
    )


def parse_world_spec(path) -> WorldSpec:
    """Read a WorldSpec from a ``key = value`` file."""
    return WorldSpec(**read_settings(path, WorldSpec, SpecError))
