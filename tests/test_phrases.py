import math
import random
import re
import sys
import threading
from collections import Counter
from dataclasses import replace

import pytest

from blogwatch import crawler, phrases
from blogwatch.errors import ConfigError
from blogwatch.harness import WorldSpec, generate_world
from blogwatch.phrases import (TokenTable, count_ngrams, extract_scored_phrases,
                               gap_marked_tokens, load_stoplist, terms)
from blogwatch.pipeline import run_batch

from conftest import texts, token_words, write_world_inputs

STOPS = frozenset({"the", "a", "of", "and", "is", "to", "in"})


def marked_words(text, stops, tokens=None) -> list:
    """``gap_marked_tokens`` of ``text`` with each id decoded to its token."""
    tokens = TokenTable() if tokens is None else tokens
    return token_words(tokens, gap_marked_tokens(text, stops, tokens))


def ngram_texts(text, stops) -> tuple:
    """(``count_ngrams`` of ``text``'s gap-marked ids keyed by phrase text,
    the gap-marked tokens as words), against one new table."""
    tokens = TokenTable()
    marked = gap_marked_tokens(text, stops, tokens)
    counts = count_ngrams(marked)
    decoded = {tokens.phrase(key): n for key, n in counts.items()}
    assert len(decoded) == len(counts)
    return decoded, token_words(tokens, marked)


def extracted(text, stops, in_degree=0, out_degree=0) -> dict:
    """``extract_scored_phrases`` of ``text`` against a new table, keyed
    by phrase text."""
    return texts(extract_scored_phrases(text, stops, TokenTable(), in_degree, out_degree))


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


def regex_marked_words(text, stops) -> list:
    """Reference gap-marked tokens: the matches of ``[^\\W_]+|[.!?\\n]``
    in ``text``, each lowercased on its own, with each run of breaks and
    stop words after a token turned into one ``None``."""
    out = []
    for word in (m.lower() for m in re.findall(r"[^\W_]+|[.!?\n]", text)):
        if word in (".", "!", "?", "\n") or word in stops:
            if out and out[-1] is not None:
                out.append(None)
        else:
            out.append(word)
    return out


def ascii_texts():
    """Each of the 128 ASCII characters alone and between two words, then
    5,000 seeded random strings of 0-80 characters drawn from all 128
    (NUL, ``\\r``, ``\\x0b``, ``\\x0c``, ``\\x1c``-``\\x1f`` and ``_``
    among them)."""
    for c in map(chr, range(128)):
        yield c
        yield f"Flood{c}rIVER"
    rng = random.Random(38)
    for _ in range(5000):
        yield "".join(chr(rng.randrange(128)) for _ in range(rng.randint(0, 80)))


def test_the_ascii_path_tokenizes_as_the_regexes():
    """ASCII text is tokenized by ``str.translate`` and ``str.split``:
    ``terms`` gives what ``[^\\W_]+`` finds in the lowered text, and
    ``gap_marked_tokens`` the ids, gaps and issue order of the
    token-or-break regex reference over a twin table."""
    reference, tokens = TokenTable(), TokenTable()
    for text in ascii_texts():
        assert text.isascii()
        assert terms(text) == re.findall(r"[^\W_]+", text.lower()), repr(text)
        expected = [None if w is None else reference._ids.get(w) or reference._issue(w)
                    for w in regex_marked_words(text, STOPS)]
        assert gap_marked_tokens(text, STOPS, tokens) == expected, repr(text)
    assert tokens._ids == reference._ids and len(tokens) > 1000


def test_a_lowered_token_keeps_its_place_in_the_joined_stream():
    """Text that is not ASCII has its lowered token-or-break matches
    joined by spaces and then split as ASCII text is. That is exact
    because no token character lowers to whitespace, to a break or to an
    ASCII character that the table changes: checked over every code point."""
    lowered = "".join(phrases._TOKEN_RE.findall("".join(map(chr, range(0x110000))))).lower()
    assert lowered.split() == [lowered]
    assert lowered.translate(phrases._ASCII_GAPS) == lowered


# ----------------------------------------------------------------------
# stop-word removal and gaps

def test_remove_stopwords_marks_gap():
    assert marked_words("quick the brown fox", STOPS) == \
        ["quick", None, "brown", "fox"]
    # no gap before the first token
    assert marked_words("The quick brown fox", STOPS) == ["quick", "brown", "fox"]


def test_all_stopwords_collapse_to_single_gap():
    assert marked_words("quick the of AND fox", STOPS) == ["quick", None, "fox"]
    assert marked_words("the of and", STOPS) == []


def test_a_table_issues_no_id_to_a_stop_word_or_a_break():
    """``gap_marked_tokens`` reads a word that has an id as a token without
    testing it against the stop list, so extraction must never issue one
    to a stop word or a break: a second pass over the same table marks the
    text as the first did."""
    tokens = TokenTable()
    text = "The flood of the river. And the flood warning! is to rise\nin the town"
    first = marked_words(text, STOPS, tokens)
    assert set(tokens._ids) == {"flood", "river", "warning", "rise", "town"}
    assert marked_words(text, STOPS, tokens) == first == \
        ["flood", None, "river", None, "flood", "warning", None, "rise", None, "town"]


def test_sentence_boundary_inserts_gap_without_stop_word():
    grams, marked = ngram_texts("quick brown fox. dogs bark loud", STOPS)
    gap_positions = [i for i, t in enumerate(marked) if t is None]
    assert gap_positions == [3]
    assert "fox dogs" not in grams  # never spans the sentence gap


# ----------------------------------------------------------------------
# candidate extraction

def test_candidates_three_tokens():
    assert ngram_texts("quick brown fox", STOPS)[0] == {
        "quick brown": 1,
        "brown fox": 1,
        "quick brown fox": 1,
    }


def test_single_token_yields_nothing():
    assert count_ngrams(gap_marked_tokens("word", STOPS, TokenTable())) == {}


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
    grams, marked = ngram_texts(doc, STOPS)
    assert grams == brute_force_ngrams(marked)


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
        assert ngram_texts(doc, STOPS)[0] == sentence_reference_ngrams(doc, STOPS), doc


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
        grams, marked = ngram_texts(random_document(rng, rng.randint(0, 200)), STOPS)
        assert list(grams) == first_occurrence_order(marked)


def counted_regex_path(monkeypatch) -> list:
    """The texts the token regexes run on from now to the end of
    ``monkeypatch``'s scope."""
    calls = []
    real = phrases._lowered_matches
    monkeypatch.setattr(phrases, "_lowered_matches",
                        lambda pattern, text: calls.append(text) or real(pattern, text))
    return calls


def test_a_mixed_world_run_never_takes_the_regex_path(mixed_world, tmp_path, monkeypatch):
    """Every text of the seed-7 mixed-200 batch run is ASCII, so no token
    regex runs: a text that stops being ASCII fails here instead of
    costing time unseen."""
    calls = counted_regex_path(monkeypatch)
    report = run_batch(write_world_inputs(mixed_world, tmp_path), world=mixed_world).report
    assert report.pages_fetched > 0 and report.summaries_ok > 0
    assert calls == []


def test_a_crawled_page_with_non_ascii_tokens_takes_the_regex_path(tmp_path, monkeypatch):
    """A crawled page holding a dotted capital I and fullwidth letters and
    digits is tokenized by the regex, each match lowered on its own, and
    its phrases are those of the per-match-lowered regex reference."""
    world = generate_world(WorldSpec(rng_seed=5, n_blogs=20))
    cfg = write_world_inputs(world, tmp_path)
    url = next(u for u, relevant in run_batch(cfg, world=world).crawl_trace if relevant)
    odd = "İstanbul ＦＬＯＯＤ ２０２６ river. The İstanbul ＦＬＯＯＤ ２０２６!"
    ctype, body = world.sites[url]
    sites = dict(world.sites)
    sites[url] = (ctype, body.replace(b"<p>", f"<p>{odd} ".encode(), 1))
    assert sites[url][1] != body
    calls = counted_regex_path(monkeypatch)
    pages = []
    real = crawler.extract_scored_phrases

    def recorded(text, stops, tokens, in_degree, out_degree):
        pages.append((text, stops, in_degree, out_degree, real(text, stops, tokens,
                                                                in_degree, out_degree)))
        return pages[-1][-1]

    monkeypatch.setattr(crawler, "extract_scored_phrases", recorded)
    run_batch(cfg, world=replace(world, sites=sites))
    [(text, stops, in_degree, out_degree, got)] = [p for p in pages if odd in p[0]]
    assert text in calls and all(not t.isascii() for t in calls)
    words = regex_marked_words(text, stops)
    assert "i\u0307stanbul" in words and "ｆｌｏｏｄ" in words and "２０２６" in words
    counts = brute_force_ngrams(words)
    factor = 1.0 + phrases.ALPHA * math.log(1 + in_degree) + phrases.BETA * math.log(1 + out_degree)
    expected = [(gram, counts[gram] * factor) for gram in first_occurrence_order(words)]
    assert list(texts(got).items()) == expected


def test_no_emitted_phrase_contains_stop_word():
    rng = random.Random(43)
    for _ in range(20):
        doc = random_document(rng, rng.randint(0, 400))
        for phrase in ngram_texts(doc, STOPS)[0]:
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
    assert extracted("alpha beta. alpha beta", STOPS) == {"alpha beta": 2.0}


def test_higher_count_ranks_first():
    phrases = extracted("low count. high count. high count. high count",
                        STOPS, in_degree=2, out_degree=2)
    assert list(phrases) == ["low count", "high count"]
    assert ranked(phrases) == ["high count", "low count"]


def test_score_formula_oracle():
    """Independent evaluation of count * (1 + a*ln(1+in) + b*ln(1+out))."""
    doc = "p one. p two. p three. " * 3 + "p three. " * 4
    phrases = extracted(doc, STOPS, in_degree=10, out_degree=2)
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
        tokens = TokenTable()
        counts = count_ngrams(gap_marked_tokens(doc, STOPS, tokens))
        phrases = extract_scored_phrases(doc, STOPS, tokens, in_degree, out_degree)
        assert phrases.tokens is tokens
        assert [(p, s.hex()) for p, s in phrases.items()] == \
            [(p, (count * factor).hex()) for p, count in counts.items()]
        score_of = {}
        for phrase, score in phrases.items():
            assert score_of.setdefault(counts[phrase], score) is score, phrase
        assert len({id(score) for score in phrases.values()}) == len(set(counts.values()))


def test_score_monotonicity():
    def score(reps, in_degree):
        return extracted("a b. " * reps, frozenset(), in_degree, 5)["a b"]
    base = score(3, 5)
    assert score(4, 5) > base
    assert score(3, 6) >= base


def test_ranking_invariant_under_count_scaling():
    rng = random.Random(9)
    sentences = [f"w{i} w{i + 1}" for i in range(12)]
    reps = [rng.randint(1, 9) for _ in sentences]
    doc = ". ".join(s for s, n in zip(sentences, reps) for _ in range(n))
    scaled = ". ".join(s for s, n in zip(sentences, reps) for _ in range(7 * n))
    assert ranked(extracted(doc, STOPS, 3, 1)) == ranked(extracted(scaled, STOPS, 3, 1))


def test_equal_scores_keep_first_occurrence_order():
    """All-equal scores rank in first-occurrence order."""
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 12)
        keys = [f"t{i} u{i}" for i in range(n)]
        rng.shuffle(keys)
        phrases = extracted(". ".join(keys * 2), STOPS, 1, 1)
        assert list(phrases) == keys
        assert ranked(phrases) == keys


def test_extract_scored_phrases_composition():
    phrases = extracted("flood warning. flood warning again", STOPS)
    assert phrases == {"flood warning": 2.0, "warning again": 1.0,
                       "flood warning again": 1.0}


# ----------------------------------------------------------------------
# token table and packed keys

def test_keys_pack_their_ids_below_two_to_the_sixty():
    """A 2-gram key is ``a << 20 | b`` and a 3-gram key
    ``(a << 20 | b) << 20 | c``; ids start at 1, so 2-grams lie below
    ``2**40`` and 3-grams from it up to below ``2**60``, and ``phrase``
    and ``key`` undo each other."""
    tokens = TokenTable()
    counts = count_ngrams(gap_marked_tokens("alpha beta gamma. delta alpha", STOPS, tokens))
    alpha, beta, gamma, delta = (tokens.key([w, w]) >> 20 for w in
                                 ("alpha", "beta", "gamma", "delta"))
    assert (alpha, beta, gamma, delta) == (1, 2, 3, 4)
    assert list(counts) == [1 << 20 | 2, (1 << 20 | 2) << 20 | 3, 2 << 20 | 3, 4 << 20 | 1]
    for key in counts:
        words = tokens.phrase(key).split(" ")
        assert tokens.key(words) == key
        assert (key >= 1 << 40) == (len(words) == 3) and key < 1 << 60
    assert tokens.phrase(tokens.key(["i\u0307stanbul", "straße", "٣٤"])) == \
        "i\u0307stanbul straße ٣٤"


def test_threads_keying_overlapping_new_tokens_give_each_one_id():
    """Stress: eight threads key overlapping sets of new tokens into one
    table at once, under a one-microsecond switch interval. Every token
    ends with exactly one id, every thread read that id, and no id names
    two tokens."""
    tokens = TokenTable()
    words = [f"w{i}" for i in range(3000)]
    seen = [None] * 8

    def key_all(n):
        rng = random.Random(n)
        mine = words[n * 300:n * 300 + 900]   # each overlaps its neighbours
        rng.shuffle(mine)
        text = " ".join(mine)
        seen[n] = dict(zip(mine, gap_marked_tokens(text, frozenset(), tokens)))

    threads = [threading.Thread(target=key_all, args=(n,), daemon=True) for n in range(8)]
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
    ids = tokens._ids
    assert set(ids) == set(words[:300 * 7 + 900])
    assert len(set(ids.values())) == len(ids) and min(ids.values()) >= 1
    for got in seen:
        assert got == {w: ids[w] for w in got}


def test_a_token_past_the_id_cap_ends_a_phrase_as_a_stop_word(monkeypatch):
    """Past the cap a table issues no id: a new token then becomes a gap
    and its phrases are dropped, while the tokens that have ids keep them
    and no two phrases share a key."""
    monkeypatch.setattr(phrases, "ID_CAP", 4)
    tokens = TokenTable()
    assert ngram_texts("a b c", STOPS)[0] == {"b c": 1}   # "a" is a stop word
    assert marked_words("red green blue cyan", STOPS, tokens) == ["red", "green", "blue", None]
    assert marked_words("cyan red green blue magenta red", STOPS, tokens) == \
        ["red", "green", "blue", None, "red"]
    decoded = texts(extract_scored_phrases("red cyan green. green blue red", STOPS, tokens))
    assert decoded == {"green blue": 1.0, "green blue red": 1.0, "blue red": 1.0}
    assert tokens.key(["red", "cyan"]) is None and len(tokens) == 3


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
