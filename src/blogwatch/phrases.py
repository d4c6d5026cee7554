"""Key-phrase extraction: 2-3 word stop-word-free phrases scored by
repetition with a link-degree boost.

Pipeline: sentence split -> tokenize -> stop-word removal with gap markers
-> n-gram candidates -> scoring. Gaps mark removed stop words and sentence
boundaries, so no candidate phrase ever spans either.

The two text kernels, ``scan_tokens`` and ``count_ngrams``, live here too:
edge weighting (``graph``) and relevance scoring reuse them, so every layer
tokenizes and counts n-grams the same way.
"""
import math
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources

DEFAULT_ALPHA = 0.5
DEFAULT_BETA = 0.1

# Sentence boundaries; block-level markup is rendered as newlines upstream.
_SENTENCE_RE = re.compile(r"[.!?\n]+")

# \w minus underscore: maximal runs of Unicode letters and digits.
_TOKEN_RE = re.compile(r"[^\W_]+")


class _Gap:
    __slots__ = ()

    def __repr__(self):
        return "GAP"


#: Marker separating token runs that n-grams must not cross.
GAP = _Gap()


@dataclass(frozen=True)
class Token:
    surface: str
    normalized: str


@dataclass(frozen=True)
class KeyPhrase:
    """A scored 2-3 token phrase."""
    tokens: tuple
    count: int
    score: float

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class StopList:
    words: frozenset
    source_path: str = "<builtin>"

    def __contains__(self, word: str) -> bool:
        return word in self.words


def load_stoplist(path=None) -> StopList:
    """Load a stop list: one word per line, ``#`` comments, blank lines
    ignored. Without a path, the packaged English list is used."""
    if path is None:
        text = resources.files("blogwatch.data").joinpath("stopwords_en.txt").read_text("utf-8")
        source = "<builtin>"
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        source = str(path)
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        words.add(line.lower())
    return StopList(words=frozenset(words), source_path=source)


def scan_tokens(text: str) -> list:
    """Return [(surface, lowercase), ...] for each alphanumeric run."""
    out = []
    for m in _TOKEN_RE.finditer(text):
        s = m.group()
        out.append((s, s.lower()))
    return out


def count_ngrams(seq, nmin: int = 2, nmax: int = 3) -> dict:
    """Count contiguous n-grams over a gap-marked token sequence.

    ``seq`` is a list of strings with None marking gaps; n-grams never span
    a gap. Keys appear in first-occurrence scan order (position-major,
    shortest n first), which downstream ranking uses as its tie-break.
    """
    counts = {}
    n = len(seq)
    start = 0
    while start < n:
        if seq[start] is None:
            start += 1
            continue
        end = start
        while end < n and seq[end] is not None:
            end += 1
        for i in range(start, end):
            for size in range(nmin, nmax + 1):
                if i + size > end:
                    break
                key = tuple(seq[i:i + size])
                counts[key] = counts.get(key, 0) + 1
        start = end
    return counts


def tokenize(text: str) -> list:
    """Split on whitespace/punctuation boundaries; alphanumeric runs become
    tokens, lowercased in ``normalized``. Digits are kept."""
    return [Token(surface, norm) for surface, norm in scan_tokens(text)]


def split_sentences(text: str) -> list:
    """Split plain text into sentence-ish spans on ``. ! ?`` and newlines."""
    return [part for part in _SENTENCE_RE.split(text) if part.strip()]


def remove_stopwords(tokens, stops: StopList):
    """Drop stop tokens, recording a single GAP wherever one or more
    consecutive stop words were removed."""
    out = []
    for tok in tokens:
        if tok.normalized in stops:
            if not out or out[-1] is not GAP:
                out.append(GAP)
        else:
            out.append(tok)
    return out


def gap_marked_tokens(text: str, stops: StopList):
    """Full preprocessing for one document: sentence boundaries and removed
    stop words both become gaps."""
    marked = []
    for sentence in split_sentences(text):
        if marked:
            marked.append(GAP)
        marked.extend(remove_stopwords(tokenize(sentence), stops))
    return marked


def extract_candidates(marked) -> Counter:
    """Every contiguous 2-gram and 3-gram of normalized tokens that does not
    cross a gap, with multiplicities. Iteration order of the result is
    first-occurrence order (used for rank tie-breaking)."""
    seq = [None if tok is GAP else tok.normalized for tok in marked]
    return Counter(count_ngrams(seq))


def score_phrases(candidates, in_degree: int = 0, out_degree: int = 0,
                  alpha: float = DEFAULT_ALPHA, beta: float = DEFAULT_BETA):
    """Rank candidate phrases.

    score = count * (1 + alpha*log(1+in_degree) + beta*log(1+out_degree))

    Repetition is the main signal; the log-damped degree factor lets link
    counts boost it without letting hub pages drown it out. Ties keep
    first-occurrence order.
    """
    factor = 1.0 + alpha * math.log(1 + in_degree) + beta * math.log(1 + out_degree)
    phrases = [
        KeyPhrase(tokens=toks, count=count, score=count * factor)
        for toks, count in candidates.items()
    ]
    phrases.sort(key=lambda p: -p.score)
    return phrases


def extract_scored_phrases(text: str, stops: StopList, in_degree: int = 0,
                           out_degree: int = 0, alpha: float = DEFAULT_ALPHA,
                           beta: float = DEFAULT_BETA):
    """Convenience composition used by both crawler layers."""
    return score_phrases(
        extract_candidates(gap_marked_tokens(text, stops)),
        in_degree=in_degree, out_degree=out_degree, alpha=alpha, beta=beta,
    )
