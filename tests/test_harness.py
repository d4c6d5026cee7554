import builtins
import gc
import io
import os
import random
import re
import sys
import threading
import tracemalloc
from collections import Counter

import pytest

from blogwatch.errors import ConfigError
from blogwatch.harness import (InMemoryTransport, SyntheticWorld, WorldSpec, _rss_feed,
                               generate_world, in_memory_transport, load_served_world, load_world,
                               materialize_world, parse_world_spec)
from blogwatch.htmltext import extract_page
from blogwatch.ping import PingEvent, parse_changes_feed, serialize_changes_feed
from blogwatch.pipeline import load_config, run_batch
from blogwatch.transport import MAX_BYTES, TIMEOUT

from conftest import baseline_bfs_crawl, count_opens, write_world_inputs


# ----------------------------------------------------------------------
# generation

def test_zero_blogs_world_is_empty():
    world = generate_world(WorldSpec(n_blogs=0))
    assert world.sites == {}
    assert world.ping_script == []


def test_same_seed_bitwise_identical_worlds():
    spec = WorldSpec(rng_seed=5, n_blogs=40)
    w1 = generate_world(spec)
    w2 = generate_world(spec)
    assert w1.sites == w2.sites
    assert list(w1.sites) == list(w2.sites)
    assert w1.ping_script == w2.ping_script
    assert w1.labels == w2.labels


def test_different_seeds_differ():
    w1 = generate_world(WorldSpec(rng_seed=1, n_blogs=20))
    w2 = generate_world(WorldSpec(rng_seed=2, n_blogs=20))
    assert w1.sites != w2.sites


def test_label_counts_follow_floor_rule(mixed_world):
    """floor(fraction * n) sites per special label, remainder off-topic."""
    counts = Counter(mixed_world.site_labels.values())
    assert counts["topical"] == int(0.4 * 200) == 80
    assert counts["spam"] == int(0.1 * 200) == 20
    assert counts["empty"] == int(0.1 * 200) == 20
    assert counts["media"] == int(0.05 * 200) == 10
    assert counts["offtopic"] == 200 - 80 - 20 - 20 - 10 == 70


def test_spec_validation():
    with pytest.raises(ConfigError):
        WorldSpec(topical_fraction=1.4).validate()
    with pytest.raises(ConfigError):
        WorldSpec(topical_fraction=0.6, spam_fraction=0.6).validate()
    with pytest.raises(ConfigError):
        WorldSpec(posts_per_blog=(3, 1)).validate()
    with pytest.raises(ConfigError):
        WorldSpec(ping_cycles=0).validate()


def test_every_site_url_labeled(small_world):
    assert set(small_world.labels) == set(small_world.sites)


def test_all_labels_reachable_from_announced_seeds(small_world):
    """No vacuous scenario: each ground-truth label class has at least one
    URL reachable by link-following from the announced seeds."""
    seen = set(small_world.announced)
    frontier = list(small_world.announced)
    while frontier:
        url = frontier.pop()
        entry = small_world.sites.get(url)
        if entry is None:
            continue
        ctype, body = entry
        if not ctype.startswith("text/html"):
            continue
        for lc in extract_page(body.decode("utf-8"), url).links:
            if lc.target not in seen:
                seen.add(lc.target)
                frontier.append(lc.target)
    # feeds hang off every announced blog
    seen.update(u.rstrip("/") + "/rss" for u in small_world.announced)
    reachable_labels = {small_world.labels[u] for u in seen if u in small_world.labels}
    assert reachable_labels == set(small_world.site_labels.values())


def test_ping_script_announces_registered_blogs(small_world):
    urls = set()
    for _t, doc in small_world.ping_script:
        urls.update(parse_changes_feed(doc))
    registered = {f"http://{h}/" for h in small_world.registry_lines}
    assert registered <= urls          # every blog announced at least once
    assert urls - registered           # plus decoys the registry must drop


def test_empty_blog_feeds_have_zero_items(small_world):
    empties = [u for u, l in small_world.site_labels.items() if l == "empty"]
    assert empties
    for home in empties:
        ctype, body = small_world.sites[home.rstrip("/") + "/rss"]
        assert b"<item>" not in body


# ----------------------------------------------------------------------
# transport

def test_transport_serves_known_and_unknown(small_world):
    transport = in_memory_transport(small_world)
    url = next(iter(small_world.sites))
    status, ctype, body = transport.fetch(url, 1 << 20, 5.0)
    assert status == 200
    assert body == small_world.sites[url][1]
    status, _, _ = transport.fetch("http://nowhere.example/", 1 << 20, 5.0)
    assert status == 404


def test_transport_purity(small_world):
    transport = in_memory_transport(small_world)
    url = next(iter(small_world.sites))
    first = transport.fetch(url, 1 << 20, 5.0)
    assert transport.fetch(url, 1 << 20, 5.0) == first


def test_head_probe_transfers_no_body(small_world):
    transport = in_memory_transport(small_world)
    url = next(iter(small_world.sites))
    status, ctype, size = transport.head(url, 5.0)
    assert status == 200 and size == len(small_world.sites[url][1])
    assert transport.body_bytes_by_url() == {}


def test_transport_counts_the_body_bytes_of_each_fetch(small_world):
    transport = in_memory_transport(small_world)
    url = next(iter(small_world.sites))
    size = len(small_world.sites[url][1])
    transport.head(url, 5.0)
    transport.fetch(url, 1 << 20, 5.0)
    transport.fetch(url, 10, 5.0)
    transport.fetch("http://nowhere.example/", 1 << 20, 5.0)
    assert transport.body_bytes_by_url() == {url: size + min(size, 11),
                                             "http://nowhere.example/": len(b"not found")}


def test_batch_bytes_fetched_match_the_transport_over_dangling_links(small_world, tmp_path):
    """The run counts a 404's error body in ``bytes_fetched``, as it does
    for ``HttpTransport``, so the harness counts it too: one blog's feed is
    missing, and a post of the other links a missing page."""
    feed_link = '<link rel="alternate" type="application/rss+xml" href="/rss">'
    text = small_world.topic_corpus[0]
    summary = f'{text} <a href="http://b.example/p">{text[:40]}</a>'
    page = f'{text} <a href="http://gone.example/x">{text[:40]}</a>'
    world = SyntheticWorld(
        sites={
            "http://a.example/": ("text/html", f"<html><head>{feed_link}</head></html>".encode()),
            "http://b.example/": ("text/html", f"<html><head>{feed_link}</head></html>".encode()),
            "http://b.example/rss": ("application/rss+xml", _rss_feed(
                "b", "http://b.example/", [("p", "http://b.example/p", "", summary)]).encode()),
            "http://b.example/p": ("text/html", f"<p>{page}</p>".encode()),
        },
        ping_script=[(0.0, serialize_changes_feed(
            [PingEvent("a", "http://a.example/", 1), PingEvent("b", "http://b.example/", 1)]))],
        registry_lines=["a.example", "b.example"],
        topic_corpus=small_world.topic_corpus,
        background_corpus=small_world.background_corpus)
    config = write_world_inputs(world, tmp_path)
    config.max_pages = 10
    transport = InMemoryTransport(world)
    report = run_batch(config, world=world, transport=transport).report
    assert report.summaries_failed == 1 and report.pages_fetched == 1
    assert transport.body_bytes_by_url()["http://a.example/rss"] == len(b"not found")
    assert "http://gone.example/x" not in transport.body_bytes_by_url()  # its HEAD failed
    assert report.bytes_fetched == sum(transport.body_bytes_by_url().values())


# ----------------------------------------------------------------------
# BFS baseline

def _hand_world(pages):
    sites = {url: ("text/html", body.encode()) for url, body in pages.items()}
    return SyntheticWorld(sites=sites, ping_script=[])


def test_bfs_budget_one_fetches_first_seed():
    world = _hand_world({
        "http://a.example/": '<a href="http://b.example/">b</a>',
        "http://b.example/": "done",
    })
    assert baseline_bfs_crawl(world, ["http://a.example/"], budget=1) == \
        ["http://a.example/"]


def test_bfs_fully_connected_five_pages_fifo():
    urls = [f"http://p{i}.example/" for i in range(5)]
    pages = {u: " ".join(f'<a href="{v}">link</a>' for v in urls if v != u)
             for u in urls}
    world = _hand_world(pages)
    trace = baseline_bfs_crawl(world, [urls[0]], budget=5)
    # seed first, then its links in document order: FIFO
    assert trace == [urls[0]] + urls[1:]


def test_bfs_harvest_tracks_topical_fraction(mixed_world):
    trace = baseline_bfs_crawl(mixed_world, mixed_world.announced, budget=100)
    assert len(trace) == 100
    harvest = sum(1 for u in trace if mixed_world.labels[u] == "topical") / len(trace)
    announced_topical = sum(
        1 for u in mixed_world.announced
        if mixed_world.site_labels[u] == "topical") / len(mixed_world.announced)
    assert harvest == pytest.approx(announced_topical, abs=0.15)


def test_bfs_skips_media(mixed_world):
    transport = in_memory_transport(mixed_world)
    trace = baseline_bfs_crawl(mixed_world, mixed_world.announced, budget=300,
                               transport=transport)
    media_bytes = sum(n for u, n in transport.body_bytes_by_url().items()
                      if mixed_world.labels.get(u) == "media")
    assert media_bytes == 0
    assert all(mixed_world.labels[u] != "media" for u in trace)


# ----------------------------------------------------------------------
# materialization

def test_materialize_load_round_trip(small_world, tmp_path):
    materialize_world(small_world, tmp_path)
    loaded = load_world(tmp_path)
    assert list(loaded.sites.items()) == list(small_world.sites.items())
    assert loaded.ping_script == small_world.ping_script
    assert loaded.labels == small_world.labels
    assert loaded.registry_lines == small_world.registry_lines
    assert loaded.topic_corpus == small_world.topic_corpus
    assert (tmp_path / "run.conf").exists()
    assert (tmp_path / "stoplist.txt").exists()


def test_served_world_reads_only_the_sites_and_the_ping_script(small_world, tmp_path):
    materialize_world(small_world, tmp_path)
    for name in ("labels.tsv", "registry.txt", "topic_corpus.txt", "background_corpus.txt"):
        (tmp_path / name).unlink()
    served = load_served_world(tmp_path)
    assert served.sites == small_world.sites
    # the rows of one content type share one string
    ctypes = {}
    for ctype, _body in served.sites.values():
        assert ctypes.setdefault(ctype, ctype) is ctype, ctype
    assert len(served.sites) > len(ctypes) > 1
    assert served.ping_script == small_world.ping_script
    assert (served.labels, served.registry_lines, served.topic_corpus,
            served.background_corpus) == ({}, [], [], [])


def test_loaded_labels_share_the_sites_urls_and_one_string_per_label(small_world, tmp_path):
    """A loaded world holds each URL once: a ``labels`` key is the
    ``sites`` key's own string, and rows of one label share one string."""
    materialize_world(small_world, tmp_path)
    loaded = load_world(tmp_path)
    keys = {url: url for url in loaded.sites}
    assert loaded.labels and loaded.labels.keys() <= keys.keys()
    for url in loaded.labels:
        assert url is keys[url], url
    labels = {}
    for label in loaded.labels.values():
        assert labels.setdefault(label, label) is label, label
    assert len(loaded.labels) > len(labels) > 1


def test_site_bodies_lie_in_one_file_in_manifest_order(small_world, tmp_path):
    """``sites.bin`` holds the bodies one after another, and each manifest
    line gives a body's URL, content type and byte count."""
    materialize_world(small_world, tmp_path)
    assert not (tmp_path / "sites").exists()
    assert (tmp_path / "sites.bin").read_bytes() == \
        b"".join(body for _ctype, body in small_world.sites.values())
    assert (tmp_path / "manifest.tsv").read_text(encoding="utf-8").splitlines() == \
        [f"{url}\t{ctype}\t{len(body)}" for url, (ctype, body) in small_world.sites.items()]


def test_loading_a_world_opens_as_many_files_whatever_its_size(tmp_path, monkeypatch):
    """Guard: ``load_served_world`` opens the manifest, ``sites.bin``, the
    ping script and each changes file, so a 40-blog world costs as many
    opens as a 10-blog one; a file per URL would cost more."""
    fixtures = []
    for n_blogs in (10, 40):
        fixtures.append(tmp_path / f"world-{n_blogs}")
        materialize_world(generate_world(WorldSpec(rng_seed=5, n_blogs=n_blogs)), fixtures[-1])
    counts = []
    for fixture in fixtures:
        with monkeypatch.context() as mp:
            opened = count_opens(mp)
            world = load_served_world(fixture)
        counts.append(sum(opened.values()))
        assert len(world.sites) > counts[-1]
    assert counts == [3 + len(world.ping_script)] * 2


def test_loading_a_world_holds_its_bodies_places_not_its_bodies(mixed_world, tmp_path):
    """Guard: a loaded world keeps where each body lies in ``sites.bin``
    and reads it when it is looked up, so the memory that
    ``load_served_world`` of a 200-blog fixture leaves traced is under
    half of the file's length."""
    materialize_world(mixed_world, tmp_path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        world = load_served_world(tmp_path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(world.sites) == len(mixed_world.sites)
    assert held < (tmp_path / "sites.bin").stat().st_size / 2


def test_threads_sharing_a_loaded_world_read_every_body_whole(tmp_path):
    """Stress: eight threads fetch every URL of one loaded world through
    one transport, each in its own order, under a one-microsecond thread
    switch interval. Every body reads as generated and every URL's byte
    count is exact; a lookup that seeks a shared file position and then
    reads, with no lock, fails this."""
    world = generate_world(WorldSpec(rng_seed=5, n_blogs=40))
    materialize_world(world, tmp_path)
    transport = InMemoryTransport(load_served_world(tmp_path))
    wrong = []

    def fetch_all(seed):
        urls = list(world.sites)
        random.Random(seed).shuffle(urls)
        for url in urls:
            try:
                served = transport.fetch(url, MAX_BYTES, TIMEOUT)
            except Exception as exc:
                served = exc
            if served != (200, *world.sites[url]):
                wrong.append((url, served))

    threads = [threading.Thread(target=fetch_all, args=(seed,), daemon=True)
               for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert transport.body_bytes_by_url() == {url: 8 * len(body)
                                             for url, (_ctype, body) in world.sites.items()}


def test_a_dropped_loaded_world_closes_sites_bin(small_world, tmp_path, monkeypatch):
    """``sites.bin`` stays open while its world is alive, and closes once
    the world is dropped and collected."""
    materialize_world(small_world, tmp_path)
    files = []
    real_open = builtins.open

    def kept(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        if str(file) == str(tmp_path / "sites.bin"):
            files.append(fh)
        return fh

    monkeypatch.setattr(builtins, "open", kept)
    monkeypatch.setattr(io, "open", kept)
    world = load_served_world(tmp_path)
    url = next(iter(small_world.sites))
    assert world.sites[url] == small_world.sites[url]
    assert len(files) == 1 and not files[0].closed
    del world
    gc.collect()
    assert files[0].closed


def test_a_body_cut_short_after_load_is_config_error(small_world, tmp_path):
    """A lookup reads its body when it is served, so a ``sites.bin`` cut
    short after the load fails on the body it no longer holds whole, with
    a ``ConfigError`` naming the file; a body before the cut still reads
    whole."""
    materialize_world(small_world, tmp_path)
    world = load_served_world(tmp_path)
    bodies = tmp_path / "sites.bin"
    os.truncate(bodies, bodies.stat().st_size - 1)
    first, *_, last = small_world.sites  # the manifest's order
    size = len(small_world.sites[last][1])
    with pytest.raises(ConfigError, match=f"^{re.escape(str(bodies))}: holds {size - 1} of "
                                          f"the {size} bytes"):
        world.sites[last]
    assert world.sites[first] == small_world.sites[first]


@pytest.mark.parametrize("size", ["-5", "+5", "5_0", "0x5", "\u0665", "5 ", "", "sites/00000.bin"])
def test_a_size_that_is_not_a_decimal_byte_count_is_config_error(small_world, tmp_path, size):
    """A manifest size is ASCII digits only, so a fixture of the earlier
    layout, which named a file per body, fails on its first line."""
    materialize_world(small_world, tmp_path)
    path = tmp_path / "manifest.tsv"
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[0] = lines[0].rpartition("\t")[0] + "\t" + size
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:1: size {re.escape(repr(size))}"):
        load_served_world(tmp_path)


@pytest.mark.parametrize("edit, delta", [(lambda data: data[:-1], -1),
                                         (lambda data: data + b"\0", 1)],
                         ids=["one-byte-short", "one-byte-long"])
def test_sites_bin_of_another_length_than_the_sizes_is_config_error(small_world, tmp_path,
                                                                   edit, delta):
    """Checked before any body is read, so a size can ask for no more
    bytes than the file holds. The message names both files and both
    byte counts."""
    materialize_world(small_world, tmp_path)
    bodies = tmp_path / "sites.bin"
    total = len(bodies.read_bytes())
    bodies.write_bytes(edit(bodies.read_bytes()))
    with pytest.raises(ConfigError) as raised:
        load_served_world(tmp_path)
    assert str(raised.value) == (f"{bodies}: holds {total + delta} bytes, but the sizes in "
                                 f"{tmp_path / 'manifest.tsv'} sum to {total}")


def _bad_byte_in_line(n):
    def breaks(path):
        lines = path.read_bytes().split(b"\n")
        lines[n - 1] = b"\xff" + lines[n - 1]
        path.write_bytes(b"\n".join(lines))
        return f"{path}:{n}: "
    return breaks


def _fields_merged(path):
    lines = path.read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b"\t", b" ")
    path.write_bytes(b"\n".join(lines))
    return f"{path}:2: "


def _missing(path):
    path.unlink()
    return f"{path}: "


@pytest.mark.parametrize("breaks", [_bad_byte_in_line(3), _bad_byte_in_line(2),
                                    _fields_merged, _missing],
                         ids=["bad-byte-line-3", "bad-byte-line-2", "fields", "missing"])
def test_bad_labels_table_is_config_error(tmp_path, breaks):
    """``load_world`` reads ``labels.tsv``, and a bad one fails it as a
    ``ConfigError`` naming the table, and its line where there is one. A
    batch run does not read the table, so it still ends."""
    fixture = tmp_path / "fixture"
    materialize_world(generate_world(WorldSpec(rng_seed=5, n_blogs=10, ping_cycles=2)), fixture)
    expected = breaks(fixture / "labels.tsv")
    with pytest.raises(ConfigError) as raised:
        load_world(fixture)
    assert str(raised.value).startswith(expected)
    config = load_config(fixture / "run.conf")
    config.max_pages = 5
    assert run_batch(config).report.pages_fetched == 5


def test_world_text_files_break_lines_only_at_newlines(small_world, tmp_path):
    """A form feed, a file separator, NEL or U+2028 inside a line of a
    world's corpus or registry does not split it."""
    materialize_world(small_world, tmp_path)
    line = "river\x0cflood\x1cwarning\x85levels\u2028rising"
    (tmp_path / "topic_corpus.txt").write_text(f"{line}\r\nsecond doc\n", encoding="utf-8")
    (tmp_path / "registry.txt").write_text(f"a\u2029b.example\rc.example\n", encoding="utf-8")
    loaded = load_world(tmp_path)
    assert loaded.topic_corpus == [line, "second doc"]
    assert loaded.registry_lines == ["a\u2029b.example", "c.example"]


def test_parse_world_spec_file(tmp_path):
    p = tmp_path / "world.conf"
    p.write_text("rng_seed = 9\nn_blogs = 12\ntopical_fraction = 0.5\n"
                 "posts_per_blog = 2:3\n# comment\n", encoding="utf-8")
    spec = parse_world_spec(p)
    assert spec.rng_seed == 9
    assert spec.n_blogs == 12
    assert spec.posts_per_blog == (2, 3)


def test_parse_world_spec_rejects_unknown_key(tmp_path):
    p = tmp_path / "world.conf"
    p.write_text("bogus = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_world_spec(p)



def test_world_corpora_are_the_documents_a_run_reads(small_world, tmp_path):
    """``load_world`` reads each corpus as a run does: a line of only
    spaces is no document, so the profile built from the loaded world is
    the run's own."""
    from blogwatch.pipeline import _build_models
    from blogwatch.relevance import build_topic_profile
    materialize_world(small_world, tmp_path)
    for name in ("topic_corpus.txt", "background_corpus.txt"):
        path = tmp_path / name
        path.write_text("   \n" + path.read_text(encoding="utf-8") + " \t \n", encoding="utf-8")
    loaded = load_world(tmp_path)
    assert loaded.topic_corpus == small_world.topic_corpus
    assert loaded.background_corpus == small_world.background_corpus
    config = load_config(tmp_path / "run.conf")
    assert build_topic_profile(loaded.topic_corpus, loaded.background_corpus,
                               config.threshold) == _build_models(config)[1]


def test_world_registry_is_the_registry_a_run_reads(small_world, tmp_path):
    """``load_world`` reads ``registry.txt`` as ``load_registry`` does:
    entries stripped and lowercased, a line of only spaces skipped."""
    from blogwatch.ping import load_registry
    materialize_world(small_world, tmp_path)
    path = tmp_path / "registry.txt"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("  Extra.Example  \n   \n")
    loaded = load_world(tmp_path)
    assert loaded.registry_lines == sorted([*small_world.registry_lines, "extra.example"])
    assert loaded.registry_lines == sorted(load_registry(path).entries)
