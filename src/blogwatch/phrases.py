"""Key phrases and the link weights they give: 2-3 word stop-word-free
phrases scored by repetition with a link-degree boost, and each link of a
document weighed against its phrases.

A token is a lowercased run of Unicode letters and digits, and a token
sequence is a plain list of them. ``terms`` gives the tokens of a text.
``gap_marked_tokens`` gives them with ``None`` wherever a sentence ends or
stop words were dropped; ``count_ngrams`` counts the 2- and 3-grams that
cross no gap, keyed by their space-joined tokens (a token holds no space).
``extract_scored_phrases`` gives a document's ``{phrase: score}`` in
first-occurrence order from those counts; counting a document's n-grams
is all ``count_ngrams`` serves.

Rank and weighting live here too. A document's phrase rank is higher
score first, first occurrence on ties. ``link_weight`` weighs one link
against the document's phrases: it keys the link's n-grams as
``count_ngrams`` does, keeps those that are phrases, and adds score times
occurrences in rank order, so both uses tokenize and key n-grams alike.
"""
import math
import re
from importlib import resources

from .settings import read_words

# weights of the log-damped in-degree and out-degree boosts
ALPHA = 0.5
BETA = 0.1

# \w minus underscore: maximal runs of Unicode letters and digits.
_TOKEN_RE = re.compile(r"[^\W_]+")

# A token or one sentence-break character; block-level markup is rendered
# as newlines upstream.
_TOKEN_OR_BREAK_RE = re.compile(r"[^\W_]+|[.!?\n]")
_BREAKS = frozenset(".!?\n")


def load_stoplist(path=None) -> frozenset:
    """The stop words of the file at ``path`` (``read_words``), or without
    a path of the packaged English list."""
    if path is None:
        path = resources.files("blogwatch.data") / "stopwords_en.txt"
    return read_words(path)


def _lowered_matches(pattern, text: str) -> list:
    """The lowercased matches of ``pattern`` in ``text``. An ASCII text is
    lowercased once, which keeps every match and its length. Any other
    text has each match lowercased on its own: lowercasing it first could
    split a run, because ``"İ".lower()`` ends in a combining mark, which is
    not a token character."""
    if text.isascii():
        return pattern.findall(text.lower())
    return [s.lower() for s in pattern.findall(text)]


def terms(text: str) -> list:
    """The tokens of ``text`` in order."""
    return _lowered_matches(_TOKEN_RE, text)


def gap_marked_tokens(text: str, stops) -> list:
    """The tokens of ``text`` with sentence breaks (``. ! ?`` and newlines)
    and stop words turned into gaps: each run of them after a token becomes
    one ``None``."""
    out = []
    for word in _lowered_matches(_TOKEN_OR_BREAK_RE, text):
        if word in _BREAKS or word in stops:
            if out and out[-1] is not None:
                out.append(None)
        else:
            out.append(word)
    return out


def count_ngrams(seq: list) -> dict:
    """Count the contiguous 2- and 3-grams of a gap-marked token list.

    N-grams never span a ``None``. Keys appear in first-occurrence scan
    order (position-major, the 2-gram before the 3-gram), which downstream
    ranking uses as its tie-break.
    """
    counts = {}
    for a, b, c in zip(seq, seq[1:], seq[2:] + [None]):
        if a is None or b is None:
            continue
        ab = a + " " + b
        counts[ab] = counts.get(ab, 0) + 1
        if c is not None:
            abc = ab + " " + c
            counts[abc] = counts.get(abc, 0) + 1
    return counts


def extract_scored_phrases(text: str, stops, in_degree: int = 0, out_degree: int = 0) -> dict:
    """Key phrases of one document, ``{phrase: score}`` in first-occurrence
    order; used by layers 2 and 3.

    score = count * (1 + ALPHA*log(1+in_degree) + BETA*log(1+out_degree))

    Repetition is the main signal; the log-damped degree factor lets link
    counts boost it without letting hub pages drown it out. Each distinct
    count is scored once, so phrases of one count share one float object,
    which the run's phrase table keeps.
    """
    factor = 1.0 + ALPHA * math.log(1 + in_degree) + BETA * math.log(1 + out_degree)
    counts = count_ngrams(gap_marked_tokens(text, stops))
    score_of = {count: count * factor for count in set(counts.values())}
    return {phrase: score_of[count] for phrase, count in counts.items()}


def link_weight(link, phrases, positions) -> float:
    """Sum over the source document's ``{phrase: score}`` of score *
    occurrences of the phrase in the link's anchor text and context window
    (overlapping ones counted, none across their boundary), added in rank
    order: another order (or ``sum()``) changes the weights' last bits.
    ``positions``, shared by one document's links, is empty until a link
    has two hits, then ``{phrase: position}``."""
    hits = []
    for tokens in (terms(link.anchor_text), terms(link.context_window)):
        hits += filter(phrases.__contains__, map(" ".join, zip(tokens, tokens[1:])))
        hits += filter(phrases.__contains__, map(" ".join, zip(tokens, tokens[1:], tokens[2:])))
    if len(hits) > 1:
        if not positions:
            positions.update(zip(phrases, range(len(phrases))))
        # two stable sorts: first occurrence, then higher score first
        hits.sort(key=positions.__getitem__)
        hits.sort(key=phrases.__getitem__, reverse=True)
    # score * occurrences once per gram, at the last hit of its run
    total = 0.0
    occ = 0
    for gram, after in zip(hits, hits[1:] + [None]):
        occ += 1
        if gram != after:
            total += phrases[gram] * occ
            occ = 0
    return total
