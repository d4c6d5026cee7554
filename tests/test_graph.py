import random
import re

import pytest

from blogwatch import graph
from blogwatch.errors import ConfigError
from blogwatch.graph import (Correction, CorrectionKind, FrontierGraph,
                             NodeStatus, PROVENANCE_FULLTEXT,
                             PROVENANCE_SUMMARY, estimate_edge_weight)
from blogwatch.htmltext import Document, LinkContext

from conftest import graph_state


def link(target, anchor, context=""):
    return LinkContext(target=target, anchor_text=anchor, context_window=context)


UNIT_PHRASES = {"a b": 1.0}


def weighted_link(target, weight):
    """A link that weighs ``weight`` (a whole number) under UNIT_PHRASES."""
    return link(target, " ".join(["a b"] * int(weight)))


def edge_weight(lc, phrases):
    return estimate_edge_weight(lc, phrases, {})


def doc_with_links(url, links):
    return Document(url=url, text="t\nd", links=tuple(links))


# ----------------------------------------------------------------------
# edge weight estimation

def test_weight_zero_when_no_phrase_appears():
    phrases = {"flood warning": 4.0}
    assert edge_weight(link("http://x.example/", "unrelated words"), phrases) == 0.0


def test_weight_equals_score_for_single_anchor_occurrence():
    phrases = {"flood warning": 4.0}
    assert edge_weight(link("http://x.example/", "flood warning"), phrases) == 4.0


def occurrences(tokens, needle):
    """Occurrences of the token list ``needle`` in ``tokens``, overlapping
    ones counted."""
    return sum(1 for i in range(len(tokens) - len(needle) + 1)
               if tokens[i:i + len(needle)] == needle)


def test_weight_counts_anchor_and_context_separately():
    """Brute-force occurrence evaluator of the documented formula."""
    phrases = {"flood warning": 4.0, "river level rise": 2.5}
    links = [
        link("http://a.example/", "flood warning", "river level rise and flood warning"),
        link("http://b.example/", "nothing here", "flood warning"),
    ]

    for lc in links:
        anchor = lc.anchor_text.lower().split()
        context = lc.context_window.lower().split()
        expected = sum(score * (occurrences(anchor, phrase.split())
                                + occurrences(context, phrase.split()))
                       for phrase, score in phrases.items())
        assert edge_weight(lc, phrases) == expected


def test_weight_counts_overlapping_occurrences():
    phrases = {"a a": 1.5}
    assert edge_weight(link("http://x.example/", "a a a"), phrases) == 3.0


def test_weight_never_matches_across_anchor_context_boundary():
    phrases = {"alpha beta": 1.0}
    # anchor ends with alpha, context begins with beta: no phantom match
    assert edge_weight(link("http://x.example/", "alpha", "beta"), phrases) == 0.0


def rank_order_sum(phrases, anchor, context, per_occurrence=False):
    """The documented weight by walking the whole ranked phrase list (a
    stable sort in the test): score * occurrences per phrase, or with
    ``per_occurrence`` the score added once per occurrence."""
    total = 0.0
    for phrase in sorted(phrases, key=lambda phrase: -phrases[phrase]):
        occ = occurrences(anchor, phrase.split()) + occurrences(context, phrase.split())
        if per_occurrence:
            for _ in range(occ):
                total += phrases[phrase]
        elif occ:
            total += phrases[phrase] * occ
    return total


def test_indexed_weight_matches_phrase_order_sum():
    """Looking up only the link's n-grams adds the same terms in phrase
    rank order (higher score first, first occurrence on ties) as walking
    the whole ranked phrase list, so the weights are equal to the last
    bit. Half the trials score phrases as count * factor, as documents do,
    so that equal scores and multi-hit links are common. Later trials
    repeat one gram 3 to 5 times in a window, at a score for which score *
    occurrences differs from adding the score once per occurrence, then at
    one for which it differs from adding its tie in link order. Half of
    them put a non-ASCII token in it: ``"İstanbul"`` lowercases to a
    combining mark that is no token character, so it stays one token only
    if each match is lowercased on its own."""
    rng = random.Random(5)
    vocab = [f"w{i}" for i in range(8)]
    for trial in range(300):
        factor = rng.uniform(1.0, 3.0)
        phrases = {}
        for _ in range(rng.randint(0, 40)):
            phrase = " ".join(rng.choice(vocab) for _ in range(rng.choice([2, 3])))
            score = rng.randint(1, 4) * factor if trial % 2 else rng.uniform(0.01, 50.0)
            phrases.setdefault(phrase, score)
        lc = link("http://x.example/",
                  " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 6))),
                  " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 20))))
        anchor = lc.anchor_text.split()
        context = lc.context_window.split()

        assert edge_weight(lc, phrases) == rank_order_sum(phrases, anchor, context)

    words = vocab[:5] + ["İstanbul", "Ärger"]
    for trial in range(200):
        gram = [rng.choice(vocab[:5]), "İstanbul" if trial % 2 else rng.choice(vocab[:5])]
        # a phrase ranked above the repeated gram, so the sum is not 0 there
        anchor_words = ["w6", "w7"] + [rng.choice(words) for _ in range(rng.randint(0, 6))]
        context_words = [rng.choice(words) for _ in range(rng.randint(0, 12))]
        # the repeated gram ties with "w5 w5", which is found after it in the
        # link but comes first in the phrases, so ties go by the phrases
        at = rng.randint(0, len(context_words))
        context_words[at:at] = gram * rng.randint(3, 5) + ["w5", "w5"]
        anchor = [word.lower() for word in anchor_words]
        context = [word.lower() for word in context_words]
        phrases = {"w6 w7": 60.0, "w5 w5": 0.0}
        for _ in range(rng.randint(1, 12)):
            phrase = " ".join(rng.choice(anchor + context) for _ in range(rng.choice([2, 3])))
            phrases.setdefault(phrase, rng.uniform(0.01, 50.0))
        repeated = " ".join(word.lower() for word in gram)
        lc = link("http://x.example/", " ".join(anchor_words), " ".join(context_words))
        wrong_sums = (
            lambda: rank_order_sum(phrases, anchor, context, per_occurrence=True),
            lambda: rank_order_sum({repeated: 0.0, **phrases}, anchor, context))
        for wrong_sum in wrong_sums:
            for _ in range(1000):
                phrases[repeated] = phrases["w5 w5"] = rng.uniform(0.01, 50.0)
                expected = rank_order_sum(phrases, anchor, context)
                if expected != wrong_sum():
                    break
            assert expected != wrong_sum()
            assert edge_weight(lc, phrases) == expected


def test_position_map_is_built_once_and_only_for_multi_hit_links():
    """Links with at most one hit leave the shared position map empty;
    the first multi-hit link fills it with every phrase's position, and
    later links of the same document reuse it."""
    phrases = {"flood warning": 2.0, "river rise": 2.0, "quiet news": 1.0}
    positions = {}
    assert estimate_edge_weight(link("http://a/", "flood warning"), phrases, positions) == 2.0
    assert positions == {}
    assert estimate_edge_weight(link("http://b/", "river rise", "flood warning"),
                                phrases, positions) == 4.0
    assert positions == {"flood warning": 0, "river rise": 1, "quiet news": 2}
    filled = dict(positions)
    assert estimate_edge_weight(link("http://c/", "quiet news river rise"),
                                phrases, positions) == 3.0
    assert positions == filled


# ----------------------------------------------------------------------
# insert_summary

def test_links_are_weighed_with_the_graph_lock_free(monkeypatch):
    """``insert_links`` weighs every link before it takes the graph lock,
    so the lock covers only the upserts."""
    g = FrontierGraph()
    held = []
    weigh = graph.estimate_edge_weight

    def recording_weigh(lc, phrases, positions):
        held.append(g._lock.locked())
        return weigh(lc, phrases, positions)

    monkeypatch.setattr(graph, "estimate_edge_weight", recording_weigh)
    phrases = {"flood warning": 4.0, "river rise": 2.0}
    g.insert_summary(doc_with_links("http://b.example/", [
        link("http://t.example/", "flood warning", "river rise"),
        link("http://u.example/", "river rise")]), phrases)
    g.insert_links("http://t.example/", [link("http://v.example/", "flood warning")],
                   phrases, PROVENANCE_FULLTEXT)
    assert held == [False, False, False]
    assert graph_state(g).edges[("http://b.example/", "http://t.example/")][0] == 6.0


def test_insert_doc_without_links():
    g = FrontierGraph()
    report = g.insert_summary(doc_with_links("http://b.example/", []), {})
    assert report.nodes_added == 1
    state = graph_state(g)
    assert state.nodes["http://b.example/"].status is NodeStatus.FETCHED
    assert state.edges == {}


def test_insert_summary_idempotent():
    g = FrontierGraph()
    phrases = {"flood warning": 4.0}
    doc = doc_with_links("http://b.example/",
                         [link("http://t.example/", "flood warning")])
    g.insert_summary(doc, phrases)
    first = graph_state(g)
    g.insert_summary(doc, phrases)
    assert graph_state(g) == first


def test_edge_upsert_keeps_max_weight():
    g = FrontierGraph()
    strong = {"flood warning": 4.0}
    weak = {"flood warning": 1.5}
    doc = doc_with_links("http://b.example/", [link("http://t.example/", "flood warning")])
    g.insert_summary(doc, strong)
    g.insert_summary(doc, weak)  # repeated weak sighting must not erode it
    state = graph_state(g)
    assert state.edges == {("http://b.example/", "http://t.example/"): (4.0, PROVENANCE_SUMMARY)}
    assert state.nodes["http://t.example/"].priority == 4.0


def test_twenty_doc_stream_matches_offline_oracle():
    """Brute-force offline graph construction over the same fixtures."""
    rng = random.Random(17)
    phrases_pool = [("flood warning", 4.0), ("river rise", 2.0), ("quiet news", 1.0)]
    docs = []
    for i in range(20):
        src = f"http://blog{i:02d}.example/"
        links = []
        for j in range(rng.randint(0, 4)):
            target = f"http://blog{rng.randint(0, 19):02d}.example/post/{rng.randint(0, 3)}"
            anchor = rng.choice(["flood warning", "river rise", "plain words"])
            links.append(link(target, anchor))
        docs.append((doc_with_links(src, links), dict(rng.sample(phrases_pool, 2))))

    g = FrontierGraph()
    for doc, phrases in docs:
        g.insert_summary(doc, phrases)

    # offline oracle: dict of max weights keyed by (src, dst)
    expected_edges = {}
    expected_nodes = set()
    for doc, phrases in docs:
        expected_nodes.add(doc.url)
        for lc in doc.links:
            expected_nodes.add(lc.target)
            key = (doc.url, lc.target)
            w = edge_weight(lc, phrases)
            expected_edges[key] = max(expected_edges.get(key, 0.0), w)

    state = graph_state(g)
    assert set(state.nodes) == expected_nodes
    assert {key: weight for key, (weight, _prov) in state.edges.items()} == expected_edges
    # priority consistency, brute force
    for url, node in state.nodes.items():
        incoming = [w for (s, d), w in expected_edges.items() if d == url]
        assert node.priority == (max(incoming) if incoming else 0.0)


# ----------------------------------------------------------------------
# frontier ordering

def drain(g):
    """Pick and resolve until the frontier is empty; the picked URLs."""
    got = []
    while (picked := g.next_frontier()) is not None:
        assert graph_state(g).nodes[picked].status is NodeStatus.IN_FLIGHT
        got.append(picked)
        g.resolve(picked, NodeStatus.FETCHED)
    return got


def test_empty_graph_frontier():
    assert FrontierGraph().next_frontier() is None


def test_frontier_orders_by_priority():
    g = FrontierGraph()
    phrases = {"a b": 5.0, "c d": 2.0, "e f": 9.0}
    links = [link("http://p5.example/", "a b"), link("http://p2.example/", "c d"),
             link("http://p9.example/", "e f")]
    g.insert_summary(doc_with_links("http://src.example/", links), phrases)
    picked = [g.next_frontier(), g.next_frontier()]
    assert picked == ["http://p9.example/", "http://p5.example/"]
    # picked nodes are in flight and never handed out twice
    assert {graph_state(g).nodes[url].status for url in picked} == {NodeStatus.IN_FLIGHT}
    assert g.next_frontier() == "http://p2.example/"
    assert g.next_frontier() is None


def test_frontier_matches_repeated_argmax_oracle():
    rng = random.Random(99)
    g = FrontierGraph()
    urls = [f"http://n{i:03d}.example/" for i in range(500)]
    # random edges with random weights (many ties via coarse weights)
    entries = [(url, float(rng.randint(0, 9))) for url in urls]
    g.insert_links("http://root.example/", [weighted_link(url, w) for url, w in entries],
                   UNIT_PHRASES, PROVENANCE_SUMMARY)

    # oracle: repeated argmax by (priority desc, insertion order asc)
    order_index = {url: i for i, url in enumerate(urls)}
    remaining = dict(entries)
    expected = []
    while remaining:
        best = min(remaining, key=lambda u: (-remaining[u], order_index[u]))
        expected.append(best)
        del remaining[best]

    assert drain(g) == expected


def test_frontier_never_yields_resolved_or_excluded():
    g = FrontierGraph()
    phrases = {"x y": 3.0}
    links = [link(f"http://t{i}.example/", "x y") for i in range(5)]
    g.insert_summary(doc_with_links("http://src.example/", links), phrases)
    g.apply_corrections([Correction("http://t0.example/", CorrectionKind.EXCLUDE_SPAM)])
    got = drain(g)
    assert sorted(got) == [f"http://t{i}.example/" for i in range(1, 5)]


def test_interleaved_frontier_matches_argmax_oracle():
    """Inserts into a full graph, corrections, picks and resolves in a
    seeded random order. Each pick is the argmax of a node snapshot taken
    just before it (highest priority, the oldest on ties), also after a
    rescale below 1 lowers a node's key, and no node in flight is ever
    evicted."""
    rng = random.Random(41)
    max_nodes = 40
    g = FrontierGraph(max_nodes=max_nodes)
    pool = [f"http://n{i:03d}.example/" for i in range(120)]
    in_flight = set()
    picks = 0
    for _ in range(3000):
        action = rng.random()
        if action < 0.45:
            targets = rng.sample(pool, rng.randint(1, 4))
            g.insert_links(rng.choice(pool),
                           [weighted_link(t, rng.randint(0, 3)) for t in targets],
                           UNIT_PHRASES, PROVENANCE_SUMMARY)
        elif action < 0.65:
            target, roll = rng.choice(pool), rng.random()
            if roll < 0.6:
                corr = Correction(target, CorrectionKind.RESCALE,
                                  factor=rng.choice([0.5, 0.8, 1.25, 2.0]))
            elif roll < 0.8:
                corr = Correction(target, CorrectionKind.CONFIRM_BLOG)
            else:
                corr = Correction(target, CorrectionKind.EXCLUDE_SPAM)
            g.apply_corrections([corr])
        elif action < 0.85:
            unfetched = [(url, n.priority) for url, n in graph_state(g).nodes.items()
                         if n.status is NodeStatus.UNFETCHED]
            picked = g.next_frontier()
            if not unfetched:
                assert picked is None
                continue
            top = max(priority for _url, priority in unfetched)
            assert picked == next(url for url, priority in unfetched if priority == top)
            in_flight.add(picked)
            picks += 1
        elif in_flight:
            url = rng.choice(sorted(in_flight))
            g.resolve(url, rng.choice([NodeStatus.FETCHED, NodeStatus.FAILED,
                                       NodeStatus.EXCLUDED]))
        assert g.stats()["nodes"] <= max_nodes
        nodes = graph_state(g).nodes
        for url in list(in_flight):
            assert url in nodes
            if nodes[url].status is not NodeStatus.IN_FLIGHT:
                in_flight.discard(url)
    assert picks > 300


def test_readded_node_ranks_by_its_new_age():
    """A pruned node inserted again is the newest node: it loses priority
    ties to nodes that stayed, though it was older in its first life."""
    g = FrontierGraph()
    g.insert_links("http://src.example/", [weighted_link("http://farm.example/", 1)],
                   UNIT_PHRASES, PROVENANCE_SUMMARY)
    g.insert_links("http://farm.example/", [weighted_link("http://x.example/", 1)],
                   UNIT_PHRASES, PROVENANCE_FULLTEXT)
    g.insert_links("http://other.example/", [weighted_link("http://y.example/", 1)],
                   UNIT_PHRASES, PROVENANCE_SUMMARY)
    g.apply_corrections([Correction("http://farm.example/", CorrectionKind.EXCLUDE_SPAM)])
    assert "http://x.example/" not in graph_state(g).nodes
    g.insert_links("http://z.example/", [weighted_link("http://x.example/", 1)],
                   UNIT_PHRASES, PROVENANCE_SUMMARY)
    assert drain(g) == ["http://y.example/", "http://x.example/"]


POOL = [f"http://n{i:02d}.example/" for i in range(60)]


def random_step(g, rng):
    """One seeded random step on ``g``: an insert of one to four links
    (which evicts at capacity), a correction (rescale, blog confirmation or
    spam exclusion), a pick, or the resolution of a node in flight. A pick
    returns ``("pick", its URL or None)``, another step ``(kind, None)``."""
    roll = rng.random()
    if roll < 0.4:
        targets = rng.sample(POOL, rng.randint(1, 4))
        g.insert_links(rng.choice(POOL),
                       [weighted_link(t, rng.randint(0, 3)) for t in targets],
                       UNIT_PHRASES, PROVENANCE_SUMMARY)
        return "insert", None
    if roll < 0.6:
        target, kind = rng.choice(POOL), rng.random()
        if kind < 0.6:
            corr = Correction(target, CorrectionKind.RESCALE,
                              factor=rng.choice([0.5, 0.8, 1.25, 2.0]))
        elif kind < 0.8:
            corr = Correction(target, CorrectionKind.CONFIRM_BLOG)
        else:
            corr = Correction(target, CorrectionKind.EXCLUDE_SPAM)
        g.apply_corrections([corr])
        return "correct", None
    if roll < 0.8:
        return "pick", g.next_frontier()
    in_flight = [url for url, n in graph_state(g).nodes.items()
                 if n.status is NodeStatus.IN_FLIGHT]
    if in_flight:
        g.resolve(rng.choice(in_flight), rng.choice([NodeStatus.FETCHED, NodeStatus.FAILED,
                                                     NodeStatus.EXCLUDED]))
    return "resolve", None


def test_frontier_list_holds_exactly_the_unfetched_nodes():
    """After every step of a seeded random run at capacity, the frontier
    list is the sorted ``(priority, -seq, url)`` keys of exactly the
    unfetched nodes, one each."""
    rng = random.Random(3)
    g = FrontierGraph(max_nodes=20)
    for _ in range(3000):
        random_step(g, rng)
        assert g._frontier == sorted((n.priority, -n.seq, n.url) for n in g._nodes.values()
                                     if n.status is NodeStatus.UNFETCHED)
    assert g.stats()["nodes"] == 20
    assert g._seq - g.stats()["nodes"] > 500   # nodes evicted or pruned


def scan_victim(g, keep):
    """The eviction scan the frontier list replaced: the lowest-priority
    unfetched node (the newest on ties), or with none the oldest fetched or
    failed node, or with none of those the oldest excluded one; never a
    node in flight or ``keep``. None when nothing may go."""
    victim = resolved = excluded = None
    for n in g._nodes.values():
        if n.status is NodeStatus.UNFETCHED:
            if victim is None or n.priority <= victim.priority:
                victim = n
        elif n.status is NodeStatus.IN_FLIGHT or n.url == keep:
            continue
        elif n.status is NodeStatus.EXCLUDED:
            excluded = excluded or n
        else:
            resolved = resolved or n
    victim = victim or resolved or excluded
    return victim and victim.url


def heap_pick(g):
    """The pick of the lazy heap the frontier list replaced: the least
    ``(-priority, seq, url)`` over the unfetched nodes."""
    keys = [(-n.priority, n.seq, n.url) for n in g._nodes.values()
            if n.status is NodeStatus.UNFETCHED]
    return min(keys)[2] if keys else None


@pytest.mark.parametrize("seed", [5, 17, 29])
def test_picks_and_victims_match_the_scan_and_heap_oracles(seed):
    """In a seeded random run at capacity, every eviction drops the node
    the old scan names and every pick is the node the old heap names;
    the run evicts from each of the three tiers."""
    rng = random.Random(seed)
    g = FrontierGraph(max_nodes=12)
    evict = g._evict_one
    tiers = {}

    def checked_evict(keep):
        expected = scan_victim(g, keep)
        if expected is not None:
            status = g._nodes[expected].status
            tiers[status] = tiers.get(status, 0) + 1
        before = set(g._nodes)
        evicted = evict(keep)
        assert evicted is (expected is not None)
        assert before - set(g._nodes) == ({expected} if expected else set())
        return evicted

    g._evict_one = checked_evict
    picks = 0
    for _ in range(4000):
        expected = heap_pick(g)
        kind, picked = random_step(g, rng)
        if kind == "pick":
            assert picked == expected
            picks += picked is not None
    assert picks > 300
    assert all(tiers.get(status, 0) > 5 for status in (
        NodeStatus.UNFETCHED, NodeStatus.FETCHED, NodeStatus.FAILED, NodeStatus.EXCLUDED)), tiers


# ----------------------------------------------------------------------
# corrections

def two_node_graph():
    g = FrontierGraph()
    phrases = {"top story": 10.0, "side note": 6.0}
    links = [link("http://top.example/", "top story"),
             link("http://side.example/", "side note")]
    g.insert_summary(doc_with_links("http://src.example/", links), phrases)
    return g


def test_exclude_is_permanent():
    g = two_node_graph()
    g.apply_corrections([Correction("http://top.example/", CorrectionKind.EXCLUDE_SPAM)])
    assert graph_state(g).nodes["http://top.example/"].status is NodeStatus.EXCLUDED
    assert drain(g) == ["http://side.example/"]
    # monotone: resolving cannot flip it back
    g.resolve("http://top.example/", NodeStatus.FETCHED)
    assert graph_state(g).nodes["http://top.example/"].status is NodeStatus.EXCLUDED


def test_identity_rescale_changes_nothing():
    g = two_node_graph()
    before = graph_state(g)
    g.apply_corrections([Correction("http://top.example/", CorrectionKind.RESCALE,
                                    factor=1.0)])
    assert graph_state(g) == before


def test_rescale_half_flips_argmax():
    # top=10, side=6 (60%); halving top -> 5 < 6 flips the ordering
    g = two_node_graph()
    g.apply_corrections([Correction("http://top.example/", CorrectionKind.RESCALE,
                                    factor=0.5)])
    assert graph_state(g).nodes["http://top.example/"].priority == 5.0
    assert g.next_frontier() == "http://side.example/"


def test_unknown_correction_target_recorded_not_fatal():
    g = two_node_graph()
    report = g.apply_corrections([Correction("http://ghost.example/",
                                             CorrectionKind.CONFIRM_BLOG)])
    assert report.errors == ["unknown node: http://ghost.example/"]


def test_confirm_blog_boost_applies_once():
    g = two_node_graph()
    confirm = Correction("http://top.example/", CorrectionKind.CONFIRM_BLOG)
    g.apply_corrections([confirm])
    assert graph_state(g).nodes["http://top.example/"].priority == pytest.approx(12.0)
    g.apply_corrections([confirm])  # bounded once per node
    assert graph_state(g).nodes["http://top.example/"].priority == pytest.approx(12.0)


def test_exclusion_prunes_orphaned_descendants():
    g = FrontierGraph()
    phrases = {"bait words": 3.0}
    g.insert_summary(doc_with_links("http://src.example/",
                                    [link("http://farm.example/", "bait words")]),
                     phrases)
    # the farm page expands to satellites only it links to
    g.insert_links("http://farm.example/",
                   [link(f"http://farm.example/s/{i}", "bait words") for i in range(3)],
                   phrases, PROVENANCE_FULLTEXT)
    report = g.apply_corrections([Correction("http://farm.example/",
                                             CorrectionKind.EXCLUDE_SPAM)])
    assert report.nodes_pruned == 3
    assert all("farm.example/s/" not in url for url in graph_state(g).nodes)


def test_insert_links_leaves_excluded_source_alone():
    """Exclusion is monotone: links inserted again from an excluded source
    (a blog announced again) add no node or edge and count as skipped."""
    g = two_node_graph()
    g.apply_corrections([Correction("http://top.example/", CorrectionKind.EXCLUDE_SPAM)])
    before = graph_state(g)
    report = g.insert_links("http://top.example/", [link("http://z.example/", "top story")],
                            {"top story": 10.0}, PROVENANCE_SUMMARY)
    assert graph_state(g) == before
    assert before.nodes["http://top.example/"].status is NodeStatus.EXCLUDED
    assert report.skipped == 1
    assert report.nodes_added == 0 and report.edges_added == 0


def test_correction_factor_validation():
    with pytest.raises(ValueError):
        Correction("http://x.example/", CorrectionKind.RESCALE)  # factor missing
    with pytest.raises(ValueError):
        Correction("http://x.example/", CorrectionKind.EXCLUDE_SPAM, factor=2.0)


# ----------------------------------------------------------------------
# priority invariant under random mutation sequences

def test_priority_consistency_brute_force():
    rng = random.Random(23)
    g = FrontierGraph()
    urls = [f"http://m{i}.example/" for i in range(30)]
    for _ in range(300):
        action = rng.random()
        if action < 0.6:
            src, dst = rng.choice(urls), rng.choice(urls)
            phrases = {"k p": rng.uniform(0.1, 9.0)}
            g.insert_links(src, [link(dst, "k p")], phrases, PROVENANCE_SUMMARY)
        elif action < 0.8:
            g.apply_corrections([Correction(rng.choice(urls), CorrectionKind.RESCALE,
                                            factor=rng.choice([0.5, 1.0, 2.0]))])
        else:
            g.apply_corrections([Correction(rng.choice(urls),
                                            CorrectionKind.EXCLUDE_SPAM)])
    state = graph_state(g)
    incoming = {}
    for (_src, dst), (weight, _prov) in state.edges.items():
        incoming.setdefault(dst, []).append(weight)
    for url, node in state.nodes.items():
        expected = max(incoming.get(url, [0.0]), default=0.0)
        assert node.priority == pytest.approx(expected)


# ----------------------------------------------------------------------
# bounded size

def test_eviction_drops_lowest_priority_unfetched():
    g = FrontierGraph(max_nodes=4)
    phrases = {"a b": 1.0}
    g.insert_summary(doc_with_links("http://src.example/", [
        link("http://keep.example/", "a b a b"),   # weight 2
        link("http://weak.example/", "a b"),       # weight 1
        link("http://mid.example/", "a b a b"),    # weight 2
    ]), phrases)
    assert g.stats()["nodes"] == 4
    g.insert_summary(doc_with_links("http://src2.example/",
                                    [link("http://new.example/", "a b a b a b")]),
                     phrases)
    urls = graph_state(g).nodes
    assert "http://weak.example/" not in urls
    assert "http://new.example/" in urls


def test_full_graph_skips_links_of_a_source_it_cannot_add(tmp_path):
    """A resumed graph whose every node is in flight has nothing to evict:
    a new source is not added, and neither are its links."""
    ckpt = tmp_path / "graph.ckpt"
    ckpt.write_text("N\thttp://a.example/\tunfetched\t2.0\n"
                    "N\thttp://b.example/\tunfetched\t1.0\n", encoding="utf-8")
    g = FrontierGraph.load(ckpt, max_nodes=2)
    assert [g.next_frontier(), g.next_frontier()] == ["http://a.example/", "http://b.example/"]
    report = g.insert_links("http://new.example/", [link("http://c.example/", "a b")],
                            UNIT_PHRASES, PROVENANCE_FULLTEXT)
    assert (report.nodes_added, report.edges_added, report.skipped) == (0, 0, 1)
    assert list(graph_state(g).nodes) == ["http://a.example/", "http://b.example/"]


def test_eviction_matches_brute_force_oracle():
    """A few hundred nodes through a 50-node graph: after every call the
    nodes equal a brute-force simulation that evicts the lowest-priority
    unfetched node, the newest first on ties."""
    rng = random.Random(31)
    max_nodes = 50
    g = FrontierGraph(max_nodes=max_nodes)
    sources = [f"http://s{i}.example/" for i in range(8)]
    pool = [f"http://n{i:03d}.example/" for i in range(400)] + sources
    nodes = {}   # url -> status, oldest first
    edges = {}   # (src, dst) -> weight

    def priorities():
        prio = dict.fromkeys(nodes, 0.0)
        for (_src, dst), w in edges.items():
            prio[dst] = max(prio[dst], w)
        return prio

    def admit(url, status):
        if len(nodes) >= max_nodes:
            prio = priorities()
            unfetched = [u for u, st in nodes.items() if st is NodeStatus.UNFETCHED]
            if not unfetched:
                return False
            low = min(prio[u] for u in unfetched)
            victim = [u for u in unfetched if prio[u] == low][-1]
            del nodes[victim]
            for key in [k for k in edges if victim in k]:
                del edges[key]
        nodes[url] = status
        return True

    for _ in range(300):
        src = rng.choice(sources)
        targets = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        weights = [float(rng.randint(0, 3)) for _ in targets]
        g.insert_links(src, [weighted_link(t, w) for t, w in zip(targets, weights)],
                       UNIT_PHRASES, PROVENANCE_SUMMARY)
        if src in nodes or admit(src, NodeStatus.FETCHED):
            nodes[src] = NodeStatus.FETCHED
            for t, w in zip(targets, weights):
                if t in nodes or admit(t, NodeStatus.UNFETCHED):
                    edges[(src, t)] = max(edges.get((src, t), w), w)
        prio = priorities()
        assert [(url, n.status, n.priority) for url, n in graph_state(g).nodes.items()] == \
            [(u, st, prio[u]) for u, st in nodes.items()]
    assert g.stats()["nodes"] == max_nodes


def full_of_fetched_sources(max_nodes):
    g = FrontierGraph(max_nodes=max_nodes)
    for i in range(max_nodes):
        g.insert_links(f"http://s{i}/", [], UNIT_PHRASES, PROVENANCE_SUMMARY)
    return g


def test_full_graph_of_fetched_nodes_admits_a_link_target():
    """With nothing unfetched to evict, the oldest resolved node goes, but
    never the source whose links are being inserted."""
    g = full_of_fetched_sources(10)
    report = g.insert_links("http://s0/", [weighted_link("http://new.example/", 2)],
                            UNIT_PHRASES, PROVENANCE_SUMMARY)
    assert (report.skipped, report.nodes_added, report.edges_added) == (0, 1, 1)
    nodes = graph_state(g).nodes
    assert nodes["http://new.example/"].priority == 2.0
    assert nodes["http://s0/"].status is NodeStatus.FETCHED
    assert "http://s1/" not in nodes
    assert g.stats()["nodes"] == 10


def test_full_graph_of_fetched_nodes_admits_a_new_blog():
    g = full_of_fetched_sources(10)
    report = g.insert_links("http://blog.example/", [], UNIT_PHRASES, PROVENANCE_SUMMARY)
    assert (report.skipped, report.nodes_added) == (0, 1)
    nodes = graph_state(g).nodes
    assert nodes["http://blog.example/"].status is NodeStatus.FETCHED
    assert "http://s0/" not in nodes
    assert g.stats()["nodes"] == 10


def test_full_graph_evicts_an_excluded_node_last():
    """A resolved node is evicted before an older excluded one, so a spam
    blog is not forgotten and its links revived by its next announcement."""
    g = FrontierGraph(max_nodes=4)
    g.insert_links("http://spam.example/", [], UNIT_PHRASES, PROVENANCE_SUMMARY)
    g.apply_corrections([Correction("http://spam.example/", CorrectionKind.EXCLUDE_SPAM)])
    for i in range(3):
        g.insert_links(f"http://s{i}/", [], UNIT_PHRASES, PROVENANCE_SUMMARY)
    g.insert_links("http://blog.example/", [], UNIT_PHRASES, PROVENANCE_SUMMARY)
    nodes = graph_state(g).nodes
    assert "http://s0/" not in nodes
    assert nodes["http://spam.example/"].status is NodeStatus.EXCLUDED
    report = g.insert_links("http://spam.example/", [weighted_link("http://t.example/", 1)],
                            UNIT_PHRASES, PROVENANCE_SUMMARY)
    assert (report.skipped, report.edges_added) == (1, 0)
    assert "http://t.example/" not in graph_state(g).nodes
    for url in ("http://s1/", "http://s2/", "http://blog.example/"):
        g.apply_corrections([Correction(url, CorrectionKind.EXCLUDE_SPAM)])
    g.insert_links("http://late.example/", [], UNIT_PHRASES, PROVENANCE_SUMMARY)
    assert list(graph_state(g).nodes) == [
        "http://s1/", "http://s2/", "http://blog.example/", "http://late.example/"]


def test_full_graph_never_evicts_a_node_in_flight():
    g = FrontierGraph(max_nodes=3)
    g.insert_links("http://s0/", [weighted_link("http://t.example/", 1)],
                   UNIT_PHRASES, PROVENANCE_SUMMARY)
    assert g.next_frontier() == "http://t.example/"
    g.insert_links("http://s1/", [], UNIT_PHRASES, PROVENANCE_SUMMARY)
    g.insert_links("http://s2/", [], UNIT_PHRASES, PROVENANCE_SUMMARY)  # evicts s0
    g.insert_links("http://s3/", [], UNIT_PHRASES, PROVENANCE_SUMMARY)  # evicts s1
    nodes = graph_state(g).nodes
    assert list(nodes) == ["http://t.example/", "http://s2/", "http://s3/"]
    assert nodes["http://t.example/"].status is NodeStatus.IN_FLIGHT


def test_one_node_graph_keeps_the_source_and_a_loadable_checkpoint(tmp_path):
    g = FrontierGraph(max_nodes=1)
    report = g.insert_links("http://s0/", [weighted_link("http://t.example/", 1)],
                            UNIT_PHRASES, PROVENANCE_SUMMARY)
    assert (report.nodes_added, report.skipped, report.edges_added) == (1, 1, 0)
    state = graph_state(g)
    assert list(state.nodes) == ["http://s0/"] and state.edges == {}
    path = tmp_path / "one.ckpt"
    g.save(path)
    assert list(graph_state(FrontierGraph.load(path, max_nodes=1)).nodes) == ["http://s0/"]


def assert_keyed_by_node_urls(g):
    """Every key of ``_edges`` and of the adjacency sets is its node's own
    URL object."""
    urls = {url: node.url for url, node in g._nodes.items()}
    assert all(url is urls[url] for url in urls)
    for src, dst in g._edges:
        assert src is urls[src] and dst is urls[dst], (src, dst)
    for table in (g._incoming, g._outgoing):
        for url, linked in table.items():
            assert url is urls[url] and all(v is urls[v] for v in linked), url


def test_edges_key_their_nodes_own_url_strings(tmp_path):
    """An edge to a node that exists, inserted or loaded from a checkpoint,
    keys the edge and adjacency maps with the node's URL object, not the
    link's equal copy: the graph holds one string per URL."""
    def copy(url):
        return url[:1] + url[1:]

    g = FrontierGraph()
    urls = [f"http://n{i}.example/" for i in range(4)]
    g.insert_links(urls[0], [weighted_link(url, 1) for url in urls[1:]],
                   UNIT_PHRASES, PROVENANCE_SUMMARY)
    g.insert_links(copy(urls[1]), [weighted_link(copy(url), 2) for url in urls],
                   UNIT_PHRASES, PROVENANCE_FULLTEXT)
    assert len(g._edges) == 7
    assert_keyed_by_node_urls(g)
    g.save(tmp_path / "g.ckpt")
    assert_keyed_by_node_urls(FrontierGraph.load(tmp_path / "g.ckpt"))


# ----------------------------------------------------------------------
# persistence

def test_checkpoint_round_trip_is_lossless(tmp_path):
    g = two_node_graph()
    g.apply_corrections([Correction("http://top.example/", CorrectionKind.RESCALE,
                                    factor=0.3)])
    g.next_frontier()  # leaves one node in flight -> stored as unfetched
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    g.save(p1)
    FrontierGraph.load(p1).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_checkpoint_feeds_the_frontier(tmp_path):
    """A loaded graph's unfetched nodes, tied and untied, drain in the
    argmax order of its node list."""
    g = FrontierGraph()
    g.insert_links("http://root.example/",
                   [weighted_link(f"http://n{i}.example/", w)
                    for i, w in enumerate([2, 5, 2, 0, 5, 3, 1, 3])],
                   UNIT_PHRASES, PROVENANCE_SUMMARY)
    g.apply_corrections([Correction("http://n5.example/", CorrectionKind.RESCALE,
                                    factor=0.5)])
    assert g.next_frontier() == "http://n1.example/"  # saved as unfetched
    path = tmp_path / "g.ckpt"
    g.save(path)
    loaded = FrontierGraph.load(path)
    nodes = graph_state(loaded).nodes
    unfetched = [url for url, n in nodes.items() if n.status is NodeStatus.UNFETCHED]
    order = {url: i for i, url in enumerate(unfetched)}
    expected = sorted(order, key=lambda u: (-nodes[u].priority, order[u]))
    assert expected[:2] == ["http://n1.example/", "http://n4.example/"]
    assert drain(loaded) == expected


def test_loading_a_checkpoint_sorts_its_frontier_once(tmp_path, monkeypatch):
    """Load enters no node into the frontier list one at a time (no
    ``insort``), and its list is the saved graph's, ties and all."""
    rng = random.Random(21)
    g = FrontierGraph()
    for s in range(20):
        g.insert_links(f"http://src{s}.example/",
                       [weighted_link(f"http://n{s}-{i}.example/", rng.randint(0, 5))
                        for i in range(99)],
                       UNIT_PHRASES, PROVENANCE_SUMMARY)
    for _ in range(100):
        g.resolve(g.next_frontier(), NodeStatus.FETCHED)
    path = tmp_path / "g.ckpt"
    g.save(path)
    insorts = []
    original = graph.insort

    def counted_insort(*args, **kwargs):
        insorts.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(graph, "insort", counted_insort)
    loaded = FrontierGraph.load(path)
    assert insorts == []
    assert len(graph_state(loaded).nodes) == 2000
    assert loaded._frontier == g._frontier


def test_checkpoint_preserves_status_and_weights(tmp_path):
    g = two_node_graph()
    g.apply_corrections([Correction("http://side.example/", CorrectionKind.EXCLUDE_SPAM)])
    path = tmp_path / "g.ckpt"
    g.save(path)
    loaded = graph_state(FrontierGraph.load(path))
    assert loaded.nodes["http://side.example/"].status is NodeStatus.EXCLUDED
    assert loaded.nodes["http://top.example/"].priority == 10.0
    assert loaded.edges == graph_state(g).edges


@pytest.mark.parametrize("status", ["fetched", "unfetched"])
def test_load_rejects_more_nodes_than_max_nodes(tmp_path, status):
    """Nothing evictable (fetched) or a node that would be silently evicted
    with its edges left dangling (unfetched): both are bad checkpoints."""
    path = tmp_path / "big.ckpt"
    path.write_text("".join(f"N\thttp://n{i}.example/\t{status}\t1.0\n" for i in range(3))
                    + "E\thttp://n1.example/\thttp://n0.example/\t1.0\tsummary\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{path}:3: "):
        FrontierGraph.load(path, max_nodes=2)


@pytest.mark.parametrize("bad_line", [
    "N\thttp://c.example/\tbogus\t1.0",
    "N\thttp://c.example/\tin_flight\t1.0",
    "N\thttp://c.example/\tunfetched\thigh",
    "E\thttp://b.example/\thttp://a.example/\theavy\tsummary",
    "N\thttp://a.example/\tunfetched\t1.0",
    "E\thttp://a.example/\thttp://ghost.example/\t1.0\tsummary",
    "E\thttp://a.example/\thttp://b.example/\t2.0\tsummary",
    "N\thttp://c.example/\tunfetched\tnan",
    "E\thttp://b.example/\thttp://a.example/\tinf\tsummary",
], ids=["unknown-status", "in-flight-status", "priority-not-a-number", "weight-not-a-number",
        "duplicate-node", "undeclared-endpoint", "duplicate-edge", "priority-nan",
        "weight-infinite"])
def test_load_rejects_malformed_line(tmp_path, bad_line):
    path = tmp_path / "bad.ckpt"
    path.write_text("N\thttp://a.example/\tfetched\t0.0\n"
                    "N\thttp://b.example/\tunfetched\t1.0\n"
                    "E\thttp://a.example/\thttp://b.example/\t1.0\tsummary\n"
                    + bad_line + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:4: "):
        FrontierGraph.load(path)


def test_load_rejects_non_utf8_line(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"N\thttp://a.example/\tfetched\t0.0\n"
                     b"N\thttp://b\xff.example/\tunfetched\t1.0\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:2: "):
        FrontierGraph.load(path)


def test_fulltext_provenance_recorded():
    g = FrontierGraph()
    phrases = {"a b": 1.0}
    g.insert_links("http://page.example/", [link("http://t.example/", "a b")],
                   phrases, PROVENANCE_FULLTEXT)
    assert graph_state(g).edges == {
        ("http://page.example/", "http://t.example/"): (1.0, PROVENANCE_FULLTEXT)}
