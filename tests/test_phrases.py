import math
import random
import re
from collections import Counter

import pytest

from blogwatch.phrases import (count_ngrams, extract_scored_phrases,
                               gap_marked_tokens, load_stoplist, score_phrases,
                               terms)

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
    assert ("fox", "dogs") not in grams  # never spans the sentence gap


# ----------------------------------------------------------------------
# candidate extraction

def test_candidates_three_tokens():
    marked = gap_marked_tokens("quick brown fox", STOPS)
    assert count_ngrams(marked) == {
        ("quick", "brown"): 1,
        ("brown", "fox"): 1,
        ("quick", "brown", "fox"): 1,
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
                counts[tuple(window)] += 1
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
                    counts[tuple(window)] += 1
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
            window = tuple(seq[i:i + n])
            if len(window) == n and None not in window and window not in seen:
                seen.add(window)
                order.append(window)
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
            assert not any(tok in STOPS for tok in phrase)


# ----------------------------------------------------------------------
# scoring

def test_zero_degree_score_is_count():
    phrases = score_phrases(Counter({("a", "b"): 4}), in_degree=0, out_degree=0)
    assert phrases[0].score == 4.0


def test_higher_count_ranks_first():
    counts = Counter({("low", "count"): 3, ("high", "count"): 5})
    ranked = score_phrases(counts, in_degree=2, out_degree=2)
    assert ranked[0].tokens == ("high", "count")


def test_score_formula_oracle():
    """Independent evaluation of count * (1 + a*ln(1+in) + b*ln(1+out))."""
    counts = Counter({("p", "one"): 3, ("p", "two"): 3, ("p", "three"): 7})
    ranked = score_phrases(counts, in_degree=10, out_degree=2)
    factor = 1 + 0.5 * math.log(11) + 0.1 * math.log(3)
    expected = {("p", "one"): 3 * factor, ("p", "two"): 3 * factor,
                ("p", "three"): 7 * factor}
    for kp in ranked:
        assert kp.score == pytest.approx(expected[kp.tokens], rel=1e-12)
    # 7-count first, then the two 3-counts in first-occurrence order
    assert [kp.tokens for kp in ranked] == \
        [("p", "three"), ("p", "one"), ("p", "two")]


def test_score_monotonicity():
    base = score_phrases(Counter({("a", "b"): 3}), 5, 5)[0].score
    more_reps = score_phrases(Counter({("a", "b"): 4}), 5, 5)[0].score
    more_links = score_phrases(Counter({("a", "b"): 3}), 6, 5)[0].score
    assert more_reps > base
    assert more_links >= base


def test_ranking_invariant_under_count_scaling():
    rng = random.Random(9)
    counts = Counter({(f"w{i}", f"w{i+1}"): rng.randint(1, 9) for i in range(12)})
    before = [kp.tokens for kp in score_phrases(counts, 3, 1)]
    scaled = Counter({k: v * 7 for k, v in counts.items()})
    after = [kp.tokens for kp in score_phrases(scaled, 3, 1)]
    assert before == after


def test_equal_scores_keep_first_occurrence_order():
    """Permutation check against a stable-sort oracle."""
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 12)
        keys = [(f"t{i}", f"u{i}") for i in range(n)]
        rng.shuffle(keys)
        counts = Counter()
        for k in keys:
            counts[k] = 2  # all equal scores
        ranked = score_phrases(counts, 1, 1)
        assert [kp.tokens for kp in ranked] == list(counts)


def test_extract_scored_phrases_composition():
    phrases = extract_scored_phrases("flood warning. flood warning again", STOPS)
    assert phrases[0].tokens == ("flood", "warning")
    assert phrases[0].count == 2


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
