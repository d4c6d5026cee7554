"""Key phrases and the link weights they give: 2-3 word stop-word-free
phrases scored by repetition with a link-degree boost, and each link of a
document weighed against its phrases.

A token is a lowercased run of Unicode letters and digits, and a token
sequence is a plain list of them. ``terms`` gives the tokens of a text:
of ASCII text by ``str.translate`` and ``str.split``, of any other by the
token regex, each match lowered on its own.
A phrase is keyed by the ids its tokens have in the run's ``TokenTable``,
packed into one int below ``2**60`` (``TokenTable.phrase`` gives its
text back), so the phrase dicts of a run hold no phrase strings.
``gap_marked_tokens`` gives a text's token ids with ``None`` wherever a
sentence ends or stop words were dropped; ``count_ngrams`` counts the 2-
and 3-grams that cross no gap, keyed by their packed ids.
``extract_scored_phrases`` gives a document's ``{key: score}`` in
first-occurrence order from those counts, as ``ScoredPhrases``, which
carry the table they were keyed against; counting a document's n-grams
is all ``count_ngrams`` serves.

Rank and weighting live here too. A document's phrase rank is higher
score first, first occurrence on ties. ``link_weight`` weighs one link
against the document's phrases: it packs the link's n-grams against the
phrases' table, as ``count_ngrams`` does, keeps those that are phrases,
and adds score times occurrences in rank order, so both uses tokenize
and key n-grams alike.
"""
import math
import re
from importlib import resources
from itertools import count, repeat
from operator import lshift, or_

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

# ASCII text is tokenized by str.translate with these tables, which lower
# [A-Z] and make every other character but [a-z0-9] a space (a break a
# newline in _ASCII_GAPS); str.split then gives what the regexes match.
_ASCII_TERMS = {c: chr(c).lower() if chr(c).isalnum() else " " for c in range(128)}
_ASCII_GAPS = {**_ASCII_TERMS, **dict.fromkeys(map(ord, _BREAKS), "\n")}

# A phrase key packs its 2 or 3 token ids, ID_BITS bits each: a << 20 | b,
# or (a << 20 | b) << 20 | c. Ids start at 1, so every 3-gram key is at
# least 2**40 and every 2-gram key below it, and every key is below 2**60:
# two 30-bit digits of a CPython int, where 30-bit ids would need three.
ID_BITS = 20
_MASK = (1 << ID_BITS) - 1
# the first id a table does not issue
ID_CAP = 1 << ID_BITS


def load_stoplist(path=None) -> frozenset:
    """The stop words of the file at ``path`` (``read_words``), or without
    a path of the packaged English list."""
    if path is None:
        path = resources.files("blogwatch.data") / "stopwords_en.txt"
    return read_words(path)


def _lowered_matches(pattern, text: str) -> list:
    """The matches of ``pattern`` in a text that is not ASCII, each
    lowercased on its own: lowercasing the text first could split a run,
    because ``"İ".lower()`` ends in a combining mark, which is not a token
    character."""
    return [s.lower() for s in pattern.findall(text)]


def terms(text: str) -> list:
    """The tokens of ``text`` in order; an ASCII text is translated with
    ``_ASCII_TERMS`` and split at spaces."""
    if text.isascii():
        return text.translate(_ASCII_TERMS).split()
    return _lowered_matches(_TOKEN_RE, text)


def _sentences(text: str) -> list:
    """The tokens of each sentence of ``text``: an ASCII text translated
    with ``_ASCII_GAPS`` and split at newlines, then spaces; any other
    first replaced by its lowered token-or-break matches joined by spaces,
    which that table and split leave whole (a test checks every character)."""
    if not text.isascii():
        text = " ".join(_lowered_matches(_TOKEN_OR_BREAK_RE, text))
    return [s.split() for s in text.translate(_ASCII_GAPS).split("\n")]


class TokenTable:
    """A run's token ids, from which phrase keys are packed.

    Who grows it, and how: extraction runs outside the run's lock, so ids
    are issued without one. A token's id is read with ``dict.get``, and on
    a miss the next value of the table's counter is offered with
    ``dict.setdefault``. Each is one atomic step under the GIL (a key is a
    str, whose hash and equality run no Python code), so when two threads
    miss one token at once both get the id that was stored first, and no id
    ever names two tokens; the other counter value is never used.

    At the cap: ids run from 1 to ``ID_CAP - 1``, and past that the table
    issues none. A token that gets no id ends a phrase as a stop word does,
    so a run with more than a million distinct tokens drops the phrases of
    the tokens past the cap, and no two phrases ever share a key.
    """

    def __init__(self):
        self._ids = {}
        self._next = count(1)
        self._words = {}   # id -> token, as of the last decode

    def __len__(self):
        return len(self._ids)

    def _issue(self, word):
        """The id of ``word``, which had none at the caller's look-up: a new
        one, or the one another thread stored first; None past the cap."""
        new = next(self._next)
        if new >= ID_CAP:
            return self._ids.get(word)
        return self._ids.setdefault(word, new)

    def key(self, words):
        """The packed key of a phrase's 2 or 3 tokens, issuing ids to new
        tokens; None when a token gets no id. A phrase's tokens passed the
        stop list when it was extracted, so this issues no stop word."""
        get = self._ids.get
        key = 0
        for word in words:
            i = get(word) or self._issue(word)
            if i is None:
                return None
            key = key << ID_BITS | i
        return key

    def phrase(self, key) -> str:
        """The text of a packed key: its tokens joined by single spaces."""
        words = self._words
        if len(words) != len(self._ids):
            # decode a copy: another thread may issue ids meanwhile
            words = self._words = {i: w for w, i in self._ids.copy().items()}
        ids = [key >> ID_BITS & _MASK, key & _MASK]
        if key >> 2 * ID_BITS:
            ids.insert(0, key >> 2 * ID_BITS)
        return " ".join(map(words.__getitem__, ids))


class ScoredPhrases(dict):
    """A document's ``{key: score}``, with ``tokens``, the ``TokenTable``
    its keys were packed against: a key means nothing without it."""
    __slots__ = ("tokens",)


def gap_marked_tokens(text: str, stops, tokens: TokenTable) -> list:
    """The token ids of ``text`` in ``tokens``, issuing ids to new tokens,
    with sentence breaks (``. ! ?`` and newlines, where ``_sentences``
    splits the text), stop words and tokens that get no id turned into
    gaps: each run of them after a token becomes one ``None``. A table
    serves one stop list: a word is issued an id here only after it passed
    ``stops``, so a word that has one is a token, and only the others are
    tested."""
    get = tokens._ids.get
    out = []
    for sentence in _sentences(text):
        if out and out[-1] is not None:
            out.append(None)
        for word in sentence:
            i = get(word)
            if i is None and (word in stops or not (i := tokens._issue(word))):
                if out and out[-1] is not None:
                    out.append(None)
            else:
                out.append(i)
    return out


def count_ngrams(seq: list) -> dict:
    """Count the contiguous 2- and 3-grams of a gap-marked id list, keyed
    by their packed ids.

    N-grams never span a ``None``. Keys appear in first-occurrence order
    (position-major, the 2-gram before the 3-gram), which downstream
    ranking uses as its tie-break: counting at each token the 3-gram, then
    the 2-gram that ends there, gives that order.
    """
    bits = ID_BITS
    counts = {}
    a = b = None
    for c in seq:
        if b is not None and c is not None:
            bc = b << bits | c
            if a is not None:
                abc = a << 2 * bits | bc
                counts[abc] = counts.get(abc, 0) + 1
            counts[bc] = counts.get(bc, 0) + 1
        a, b = b, c
    return counts


def extract_scored_phrases(text: str, stops, tokens: TokenTable, in_degree: int = 0,
                           out_degree: int = 0) -> ScoredPhrases:
    """Key phrases of one document, ``{key: score}`` in first-occurrence
    order with its keys packed against ``tokens``; used by layers 2 and 3.

    score = count * (1 + ALPHA*log(1+in_degree) + BETA*log(1+out_degree))

    Repetition is the main signal; the log-damped degree factor lets link
    counts boost it without letting hub pages drown it out. Each distinct
    count is scored once, so phrases of one count share one float object,
    which the run's phrase table keeps.
    """
    factor = 1.0 + ALPHA * math.log(1 + in_degree) + BETA * math.log(1 + out_degree)
    counts = count_ngrams(gap_marked_tokens(text, stops, tokens))
    score_of = {count: count * factor for count in set(counts.values())}
    # a copy of counts shares its hashes; the update then finds each key
    phrases = ScoredPhrases(counts)
    phrases.update(zip(counts, map(score_of.__getitem__, counts.values())))
    phrases.tokens = tokens
    return phrases


def link_weight(link, phrases: ScoredPhrases, positions) -> float:
    """Sum over the source document's ``{key: score}`` of score *
    occurrences of the phrase in the link's anchor text and context window
    (overlapping ones counted, none across their boundary), added in rank
    order: another order (or ``sum()``) changes the weights' last bits.
    ``positions``, shared by one document's links, is empty until a link
    has two hits, then ``{key: position}``.

    The link's tokens are looked up in the phrases' table and never added
    to it. A token it lacks is in no phrase, so it looks up as -1, and
    every key packed with -1 is negative: it names no phrase."""
    get = phrases.tokens._ids.get
    hits = []
    for text in (link.anchor_text, link.context_window):
        ids = list(map(get, terms(text), repeat(-1)))
        pairs = list(map(or_, map(lshift, ids, repeat(ID_BITS)), ids[1:]))
        hits += filter(phrases.__contains__, pairs)
        hits += filter(phrases.__contains__,
                       map(or_, map(lshift, pairs, repeat(ID_BITS)), ids[2:]))
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
