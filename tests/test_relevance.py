import math
import random
from collections import Counter

import pytest

from blogwatch.clock import SimClock
from blogwatch.crawler import FocusedCrawler
from blogwatch.errors import EmptyCorpus, MissingClass, ModelRequired
from blogwatch.graph import FrontierGraph, PROVENANCE_SUMMARY
from blogwatch.htmltext import LinkContext
from blogwatch.relevance import (IRRELEVANT, RELEVANT, TopicProfile,
                                 build_topic_profile, doc_vector,
                                 nb_classify, nb_train, vsm_score)


def _tokens(text):
    return text.lower().split()


# ----------------------------------------------------------------------
# profile construction

def test_single_doc_profile_centroid_is_unit_norm():
    doc = "flood warning river flood"
    profile = build_topic_profile([doc], [doc], threshold=0.5)
    norm = math.sqrt(sum(w * w for w in profile.centroid.values()))
    assert norm == pytest.approx(1.0, abs=1e-12)
    # centroid proportional to the doc vector: flood has tf 2, others 1
    assert profile.centroid["flood"] == pytest.approx(2 * profile.centroid["warning"])


def test_threshold_passthrough():
    profile = build_topic_profile(["a b"], ["c d"], threshold=0.3)
    assert profile.threshold == 0.3


def test_idf_formula_oracle():
    """Independent evaluation of idf(t) = ln((1+N)/(1+df)) + 1 over the
    union corpus."""
    rng = random.Random(4)
    vocab = ["storm", "river", "code", "market", "song", "flood", "city"]
    topic = [" ".join(rng.choice(vocab) for _ in range(12)) for _ in range(5)]
    background = [" ".join(rng.choice(vocab) for _ in range(12)) for _ in range(20)]
    profile = build_topic_profile(topic, background, threshold=0.3)

    union = topic + background
    n = len(union)
    df = Counter()
    for d in union:
        df.update(set(_tokens(d)))
    for term, idf in profile.vocabulary.items():
        assert idf == pytest.approx(math.log((1 + n) / (1 + df[term])) + 1.0, rel=1e-12)


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus):
        build_topic_profile([], ["x"], 0.3)
    with pytest.raises(EmptyCorpus):
        build_topic_profile(["x"], [], 0.3)


# ----------------------------------------------------------------------
# vsm scoring

def test_self_similarity_is_one():
    doc = "flood warning river rising flood"
    profile = build_topic_profile([doc], ["other words entirely"], 0.3)
    assert vsm_score(doc, profile) == pytest.approx(1.0, abs=1e-9)


def test_disjoint_vocabulary_scores_zero():
    profile = build_topic_profile(["flood warning"], ["market news"], 0.3)
    assert vsm_score("qqq zzz www", profile) == 0.0


def test_hand_computed_cosine():
    # profile from one doc: terms a(2), b(1), c(1); doc with a(1), c(3)
    profile = build_topic_profile(["a a b c"], ["a b c d"], 0.3)
    idf = profile.vocabulary
    centroid_raw = {"a": 2 * idf["a"], "b": idf["b"], "c": idf["c"]}
    cnorm = math.sqrt(sum(v * v for v in centroid_raw.values()))
    doc_raw = {"a": idf["a"], "c": 3 * idf["c"]}
    dnorm = math.sqrt(sum(v * v for v in doc_raw.values()))
    expected = (centroid_raw["a"] * doc_raw["a"] + centroid_raw["c"] * doc_raw["c"]) \
        / (cnorm * dnorm)
    assert vsm_score("a c c c", profile) == pytest.approx(expected, rel=1e-12)


def test_score_in_unit_interval():
    rng = random.Random(8)
    vocab = ["w%d" % i for i in range(20)]
    profile = build_topic_profile(
        [" ".join(rng.choice(vocab) for _ in range(30)) for _ in range(4)],
        [" ".join(rng.choice(vocab) for _ in range(30)) for _ in range(8)], 0.3)
    for _ in range(50):
        doc = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 60)))
        assert 0.0 <= vsm_score(doc, profile) <= 1.0


def test_cosine_scale_invariance_exact():
    """Duplicating a document doubles every tf; with a power-of-two factor
    the cosine is bit-identical."""
    profile = build_topic_profile(["flood warning river"], ["market news code"], 0.3)
    doc = "flood river flood market"
    doubled = doc + " " + doc
    assert vsm_score(doubled, profile) == vsm_score(doc, profile)


# ----------------------------------------------------------------------
# naive bayes

def test_balanced_priors():
    model = nb_train([("a b", RELEVANT), ("c d", IRRELEVANT)])
    assert model.priors == {RELEVANT: 0.5, IRRELEVANT: 0.5}


def test_smoothing_floor_for_unseen_term():
    model = nb_train([("exclusive term here", RELEVANT), ("other words", IRRELEVANT)])
    v = len(model.vocabulary)
    # "exclusive" never appears in the irrelevant class: add-one floor
    floor = math.log(1 / (2 + v))  # irrelevant class has 2 tokens
    assert model.loglik[IRRELEVANT]["exclusive"] == pytest.approx(floor, rel=1e-12)


def test_nb_parameters_match_counting_oracle():
    rng = random.Random(12)
    rel_vocab = ["flood", "river", "warning", "storm"]
    irr_vocab = ["market", "song", "code", "city"]
    labeled = []
    for i in range(20):
        if i % 2:
            labeled.append((" ".join(rng.choice(rel_vocab) for _ in range(8)), RELEVANT))
        else:
            labeled.append((" ".join(rng.choice(irr_vocab) for _ in range(8)), IRRELEVANT))
    model = nb_train(labeled)

    counts = {RELEVANT: Counter(), IRRELEVANT: Counter()}
    for text, label in labeled:
        counts[label].update(_tokens(text))
    vocab = set(counts[RELEVANT]) | set(counts[IRRELEVANT])
    assert model.vocabulary == frozenset(vocab)
    for label in (RELEVANT, IRRELEVANT):
        total = sum(counts[label].values())
        for t in vocab:
            expected = math.log((counts[label][t] + 1) / (total + len(vocab)))
            assert model.loglik[label][t] == pytest.approx(expected, rel=1e-12)
    assert model.priors[RELEVANT] == 0.5


def test_missing_class_rejected():
    with pytest.raises(MissingClass):
        nb_train([("only one side", RELEVANT)])


def test_classify_exclusive_terms():
    model = nb_train([("flood river flood", RELEVANT), ("market code", IRRELEVANT)])
    label, gap = nb_classify("flood flood river", model)
    assert label == RELEVANT
    assert gap > 0


def test_empty_doc_falls_back_to_prior():
    model = nb_train([("a b", RELEVANT), ("c d", IRRELEVANT), ("e f", IRRELEVANT)])
    label, _ = nb_classify("", model)
    assert label == IRRELEVANT  # argmax prior


def test_nb_log_space_matches_brute_force():
    rng = random.Random(21)
    model = nb_train([("flood river warning storm flood", RELEVANT),
                      ("market city song code market", IRRELEVANT)])
    vocab = sorted(model.vocabulary)
    for _ in range(40):
        doc = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 200)))
        label, _ = nb_classify(doc, model)
        # brute force in log space over the same tokens
        scores = {}
        for c in (RELEVANT, IRRELEVANT):
            total = math.log(model.priors[c])
            for t in _tokens(doc):
                total += model.loglik[c][t]
            scores[c] = total
        assert label == max(scores, key=scores.get)


def test_separable_corpus_accuracy():
    rng = random.Random(31)
    rel_vocab = [f"rel{i}" for i in range(15)]
    irr_vocab = [f"irr{i}" for i in range(15)]
    train = [(" ".join(rng.choice(rel_vocab) for _ in range(10)), RELEVANT)
             for _ in range(30)] + \
            [(" ".join(rng.choice(irr_vocab) for _ in range(10)), IRRELEVANT)
             for _ in range(30)]
    model = nb_train(train)
    correct = 0
    for i in range(100):
        truth = RELEVANT if i % 2 else IRRELEVANT
        vocab = rel_vocab if truth == RELEVANT else irr_vocab
        doc = " ".join(rng.choice(vocab) for _ in range(12))
        label, _ = nb_classify(doc, model)
        correct += label == truth
    assert correct >= 90


# ----------------------------------------------------------------------
# the gate: the focused crawler's decision on a fetched page

class _OnePage:
    """Transport serving one HTML page whose visible text is ``text``."""

    def __init__(self, text):
        self.body = f"<html><body><p>{text}</p></body></html>".encode()

    def head(self, url, timeout):
        return 200, "text/html", len(self.body)

    def fetch(self, url, max_bytes, timeout):
        return 200, "text/html", self.body


def crawler_gate(text, profile, classifier="vsm", model=None) -> bool:
    """Whether the crawler judges a page holding ``text`` relevant."""
    graph = FrontierGraph()
    graph.insert_links("http://seed.example/",
                       [LinkContext("http://page.example/", "x", "")],
                       {"x y": 1.0}, PROVENANCE_SUMMARY)
    crawler = FocusedCrawler(graph, profile, _OnePage(text), stops=frozenset(),
                             clock=SimClock(), host_delay=1.0,
                             classifier=classifier, nb_model=model)
    return crawler.crawl_step(graph.next_frontier()).relevant


def test_threshold_boundary_is_inclusive():
    profile = TopicProfile(vocabulary={"a": 1.0}, centroid={"a": 1.0}, threshold=0.30)
    assert crawler_gate("a", profile) is True  # score 1.0
    p31 = TopicProfile(vocabulary={"a": 1.0, "b": 1.0},
                       centroid={"a": 1.0}, threshold=0.30)
    # 1/sqrt(17) = 0.2425 < 0.30 <= 1/sqrt(10) = 0.3162
    assert vsm_score("a b b b b", p31) < 0.30
    assert crawler_gate("a b b b b", p31) is False
    assert vsm_score("a b b b", p31) >= 0.30
    assert crawler_gate("a b b b", p31) is True


def test_nb_gate_requires_model():
    profile = build_topic_profile(["a"], ["b"], 0.3)
    with pytest.raises(ModelRequired):
        FocusedCrawler(FrontierGraph(), profile, _OnePage("a"), stops=frozenset(),
                       clock=SimClock(), host_delay=1.0, classifier="nb")


def test_gate_composes_documented_operations():
    rng = random.Random(77)
    profile = build_topic_profile(["flood river warning"], ["market city code"], 0.3)
    model = nb_train([("flood river warning", RELEVANT),
                      ("market city code", IRRELEVANT)])
    vocab = ["flood", "river", "warning", "market", "city", "code"]
    for _ in range(50):
        doc = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 20)))
        assert crawler_gate(doc, profile) == (vsm_score(doc, profile) >= 0.3)
        assert crawler_gate(doc, profile, "nb", model) == \
            (nb_classify(doc, model)[0] == RELEVANT)


# ----------------------------------------------------------------------
# document vectors

def test_doc_vector_skips_unknown_terms():
    profile = build_topic_profile(["a b"], ["c"], 0.3)
    assert "zzz" not in doc_vector("a zzz", profile)
