"""Key-phrase extraction: 2-3 word stop-word-free phrases scored by
repetition with a link-degree boost.

A token is a lowercased run of Unicode letters and digits, and a token
sequence is a plain list of them. ``terms`` gives the tokens of a text.
``gap_marked_tokens`` gives them with ``None`` wherever a sentence ends or
stop words were dropped; ``count_ngrams`` counts the 2- and 3-grams that
cross no gap, and ``score_phrases`` ranks them. Edge weighting (``graph``)
and relevance scoring (``relevance``) reuse ``terms`` and ``count_ngrams``,
so every layer tokenizes and counts n-grams the same way.
"""
import math
import re
from importlib import resources
from typing import NamedTuple

# weights of the log-damped in-degree and out-degree boosts
ALPHA = 0.5
BETA = 0.1

# \w minus underscore: maximal runs of Unicode letters and digits.
_TOKEN_RE = re.compile(r"[^\W_]+")

# A token or one sentence-break character; block-level markup is rendered
# as newlines upstream.
_TOKEN_OR_BREAK_RE = re.compile(r"[^\W_]+|[.!?\n]")
_BREAKS = frozenset(".!?\n")


class KeyPhrase(NamedTuple):
    """A scored 2-3 token phrase."""
    tokens: tuple
    count: int
    score: float


def load_stoplist(path=None) -> frozenset:
    """Load a stop list: one word per line, ``#`` comments, blank lines
    ignored, words lowercased. Without a path, the packaged English list is
    used."""
    if path is None:
        text = resources.files("blogwatch.data").joinpath("stopwords_en.txt").read_text("utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line.lower())
    return frozenset(words)


def terms(text: str) -> list:
    """The tokens of ``text`` in order. Each run is lowercased on its own:
    lowercasing the whole text first could split a run, because
    ``"İ".lower()`` ends in a combining mark, which is not a token
    character."""
    return [s.lower() for s in _TOKEN_RE.findall(text)]


def gap_marked_tokens(text: str, stops) -> list:
    """The tokens of ``text`` with sentence breaks (``. ! ?`` and newlines)
    and stop words turned into gaps: each run of them after a token becomes
    one ``None``."""
    out = []
    for s in _TOKEN_OR_BREAK_RE.findall(text):
        word = s.lower()
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
        counts[a, b] = counts.get((a, b), 0) + 1
        if c is not None:
            counts[a, b, c] = counts.get((a, b, c), 0) + 1
    return counts


def score_phrases(candidates, in_degree: int = 0, out_degree: int = 0):
    """Rank candidate phrases.

    score = count * (1 + ALPHA*log(1+in_degree) + BETA*log(1+out_degree))

    Repetition is the main signal; the log-damped degree factor lets link
    counts boost it without letting hub pages drown it out. Ties keep
    first-occurrence order.
    """
    factor = 1.0 + ALPHA * math.log(1 + in_degree) + BETA * math.log(1 + out_degree)
    phrases = [KeyPhrase(toks, count, count * factor) for toks, count in candidates.items()]
    phrases.sort(key=lambda p: -p.score)
    return phrases


def extract_scored_phrases(text: str, stops, in_degree: int = 0, out_degree: int = 0):
    """Key phrases of one document, best first; used by layers 2 and 3."""
    return score_phrases(count_ngrams(gap_marked_tokens(text, stops)), in_degree, out_degree)
