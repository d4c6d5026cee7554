import math
import random
import re
from collections import Counter

import pytest

from blogwatch.errors import ConfigError
from blogwatch.phrases import (count_ngrams, extract_scored_phrases,
                               gap_marked_tokens, load_stoplist, terms)

STOPS = frozenset({"the", "a", "of", "and", "is", "to", "in"})


# ----------------------------------------------------------------------
# terms

def test_tokenize_basic():
    assert terms("Quick, brown fox!") == ["quick", "brown", "fox"]


def test_tokenize_empty():
    assert terms("") == []


def test_tokenize_boundary_rule():
    # hyphens and parentheses split; digits stay inside tokens
    assert terms("state-of-the-art CPUs (x2)") == \
        ["state", "of", "the", "art", "cpus", "x2"]
    assert terms("Quick CPUs") == ["quick", "cpus"]
    # the underscore is a boundary, although regex \w matches it
    assert terms("a_b") == ["a", "b"]
    # letters and digits of every script are token characters
    assert terms("Straße, ΩMEGA-naïve 漢字ひらがな ٣٤!") == \
        ["straße", "ωmega", "naïve", "漢字ひらがな", "٣٤"]
    # lowercased per token: "İ" lowers to "i" plus a combining dot, which
    # would split the word if the whole text were lowercased first
    assert terms("İstanbul") == ["i\u0307stanbul"]


# ----------------------------------------------------------------------
# stop-word removal and gaps

def test_remove_stopwords_marks_gap():
    assert gap_marked_tokens("quick the brown fox", STOPS) == \
        ["quick", None, "brown", "fox"]
    # no gap before the first token
    assert gap_marked_tokens("The quick brown fox", STOPS) == ["quick", "brown", "fox"]


def test_all_stopwords_collapse_to_single_gap():
    assert gap_marked_tokens("quick the of AND fox", STOPS) == ["quick", None, "fox"]
    assert gap_marked_tokens("the of and", STOPS) == []


def test_sentence_boundary_inserts_gap_without_stop_word():
    marked = gap_marked_tokens("quick brown fox. dogs bark loud", STOPS)
    gap_positions = [i for i, t in enumerate(marked) if t is None]
    assert gap_positions == [3]
    grams = count_ngrams(marked)
    assert "fox dogs" not in grams  # never spans the sentence gap


# ----------------------------------------------------------------------
# candidate extraction

def test_candidates_three_tokens():
    marked = gap_marked_tokens("quick brown fox", STOPS)
    assert count_ngrams(marked) == {
        "quick brown": 1,
        "brown fox": 1,
        "quick brown fox": 1,
    }


def test_single_token_yields_nothing():
    assert count_ngrams(gap_marked_tokens("word", STOPS)) == {}


def brute_force_ngrams(marked):
    """Independent n-gram enumerator: every window position, checked for
    gaps, counted."""
    seq = marked
    counts = Counter()
    for n in (2, 3):
        for i in range(len(seq) - n + 1):
            window = seq[i:i + n]
            if None not in window:
                counts[" ".join(window)] += 1
    return counts


def random_document(rng, n_tokens):
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "the",
             "of", "and", "report", "flood", "river", "x9"]
    words = [rng.choice(vocab) for _ in range(n_tokens)]
    # sprinkle sentence breaks
    text = []
    for w in words:
        text.append(w)
        if rng.random() < 0.08:
            text.append(".")
    return " ".join(text)


def test_candidates_match_brute_force_on_200_token_fixture():
    rng = random.Random(42)
    doc = random_document(rng, 200)
    marked = gap_marked_tokens(doc, STOPS)
    assert count_ngrams(marked) == brute_force_ngrams(marked)


def sentence_reference_ngrams(doc, stops):
    """Independent reference: split the text into sentences, tokenize and
    lowercase each one, turn stop words into gaps, count the windows."""
    counts = Counter()
    for sentence in re.split(r"[.!?\n]+", doc):
        seq = [w.lower() for w in re.findall(r"[^\W_]+", sentence)]
        seq = [None if w in stops else w for w in seq]
        for n in (2, 3):
            for i in range(len(seq) - n + 1):
                window = seq[i:i + n]
                if None not in window:
                    counts[" ".join(window)] += 1
    return counts


def test_gap_marked_ngrams_match_sentence_reference():
    rng = random.Random(45)
    vocab = ["Flood", "RIVER", "warning", "The", "of", "AND", "x9", "İstanbul",
             "Straße", "ΩMEGA", "naïve", "漢字", "ひらがな", "٣٤", "fox.dogs",
             "a!b?c\nd", "river,rain", "snake_case", "state-of-the-art", "The.End"]
    glue = [" ", " ", " ", "", ".", "!", "?", "\n", ". ", ", ", "-", "_", "...", "\n\n"]
    for _ in range(300):
        doc = "".join(rng.choice(vocab) + rng.choice(glue)
                      for _ in range(rng.randint(0, 60)))
        assert count_ngrams(gap_marked_tokens(doc, STOPS)) == \
            sentence_reference_ngrams(doc, STOPS), doc


def first_occurrence_order(marked):
    """Independent enumerator of the documented key order: by start
    position, then the 2-gram before the 3-gram, each key once."""
    seq = marked
    order, seen = [], set()
    for i in range(len(seq)):
        for n in (2, 3):
            window = seq[i:i + n]
            if len(window) == n and None not in window:
                key = " ".join(window)
                if key not in seen:
                    seen.add(key)
                    order.append(key)
    return order


def test_candidates_follow_first_occurrence_order():
    rng = random.Random(44)
    for _ in range(30):
        marked = gap_marked_tokens(random_document(rng, rng.randint(0, 200)), STOPS)
        assert list(count_ngrams(marked)) == first_occurrence_order(marked)


def test_no_emitted_phrase_contains_stop_word():
    rng = random.Random(43)
    for _ in range(20):
        doc = random_document(rng, rng.randint(0, 400))
        for phrase in count_ngrams(gap_marked_tokens(doc, STOPS)):
            assert not any(tok in STOPS for tok in phrase.split(" "))


# ----------------------------------------------------------------------
# scoring

def ranked(phrases):
    """The documented phrase rank: higher score first, first occurrence on
    ties, by an independent insertion-sort oracle."""
    order = []
    for phrase, score in phrases.items():
        at = len(order)
        while at > 0 and phrases[order[at - 1]] < score:
            at -= 1
        order.insert(at, phrase)
    return order


def test_zero_degree_score_is_count():
    assert extract_scored_phrases("alpha beta. alpha beta", STOPS) == {"alpha beta": 2.0}


def test_higher_count_ranks_first():
    phrases = extract_scored_phrases("low count. high count. high count. high count",
                                     STOPS, in_degree=2, out_degree=2)
    assert list(phrases) == ["low count", "high count"]
    assert ranked(phrases) == ["high count", "low count"]


def test_score_formula_oracle():
    """Independent evaluation of count * (1 + a*ln(1+in) + b*ln(1+out))."""
    doc = "p one. p two. p three. " * 3 + "p three. " * 4
    phrases = extract_scored_phrases(doc, STOPS, in_degree=10, out_degree=2)
    factor = 1 + 0.5 * math.log(11) + 0.1 * math.log(3)
    expected = {"p one": 3 * factor, "p two": 3 * factor, "p three": 7 * factor}
    assert list(phrases) == list(expected)  # first-occurrence order
    for phrase, score in phrases.items():
        assert score == pytest.approx(expected[phrase], rel=1e-12)
    # 7-count first, then the two 3-counts in first-occurrence order
    assert ranked(phrases) == ["p three", "p one", "p two"]


def test_scores_are_count_times_one_factor():
    """Each score is exactly its count times the document's factor: the
    floats the graph and the aggregator add. Phrases of one count share
    one float object, which the run's phrase table keeps."""
    rng = random.Random(11)
    for _ in range(20):
        doc = random_document(rng, rng.randint(0, 300))
        in_degree, out_degree = rng.randint(0, 50), rng.randint(0, 50)
        factor = 1.0 + 0.5 * math.log(1 + in_degree) + 0.1 * math.log(1 + out_degree)
        counts = count_ngrams(gap_marked_tokens(doc, STOPS))
        phrases = extract_scored_phrases(doc, STOPS, in_degree, out_degree)
        assert [(p, s.hex()) for p, s in phrases.items()] == \
            [(p, (count * factor).hex()) for p, count in counts.items()]
        score_of = {}
        for phrase, score in phrases.items():
            assert score_of.setdefault(counts[phrase], score) is score, phrase
        assert len({id(score) for score in phrases.values()}) == len(set(counts.values()))


def test_score_monotonicity():
    def score(reps, in_degree):
        return extract_scored_phrases("a b. " * reps, frozenset(), in_degree, 5)["a b"]
    base = score(3, 5)
    assert score(4, 5) > base
    assert score(3, 6) >= base


def test_ranking_invariant_under_count_scaling():
    rng = random.Random(9)
    sentences = [f"w{i} w{i + 1}" for i in range(12)]
    reps = [rng.randint(1, 9) for _ in sentences]
    doc = ". ".join(s for s, n in zip(sentences, reps) for _ in range(n))
    scaled = ". ".join(s for s, n in zip(sentences, reps) for _ in range(7 * n))
    assert ranked(extract_scored_phrases(doc, STOPS, 3, 1)) == \
        ranked(extract_scored_phrases(scaled, STOPS, 3, 1))


def test_equal_scores_keep_first_occurrence_order():
    """All-equal scores rank in first-occurrence order."""
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 12)
        keys = [f"t{i} u{i}" for i in range(n)]
        rng.shuffle(keys)
        phrases = extract_scored_phrases(". ".join(keys * 2), STOPS, 1, 1)
        assert list(phrases) == keys
        assert ranked(phrases) == keys


def test_extract_scored_phrases_composition():
    phrases = extract_scored_phrases("flood warning. flood warning again", STOPS)
    assert phrases == {"flood warning": 2.0, "warning again": 1.0,
                       "flood warning again": 1.0}


def test_builtin_stoplist_loads():
    stops = load_stoplist()
    assert "the" in stops
    assert "flood" not in stops
    assert isinstance(stops, frozenset)
    assert all(w == w.lower() for w in stops)


def test_stoplist_file_parsing(tmp_path):
    p = tmp_path / "stops.txt"
    p.write_text("# comment\nThe\n\nvia\n", encoding="utf-8")
    stops = load_stoplist(p)
    assert stops == frozenset({"the", "via"})


def test_stoplist_with_bad_byte_names_path_and_line(tmp_path):
    p = tmp_path / "stops.txt"
    p.write_bytes(b"the\r\nvi\xe9\r\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}:2: "):
        load_stoplist(p)
