"""Topic relevance gate: tf-idf cosine against a topic centroid, with a
multinomial Naive Bayes alternative.

tf is the raw term count, idf(t) = ln((1+N)/(1+df(t))) + 1 over the union
of topic and background corpora, and the centroid is the L2-normalized
mean of the topic documents' tf-idf vectors. Terms unknown at scoring time
are skipped by both classifiers.
"""
import math
from collections import Counter
from dataclasses import dataclass

from .errors import ConfigError
from .phrases import terms

RELEVANT = "relevant"
IRRELEVANT = "irrelevant"


@dataclass(frozen=True)
class TopicProfile:
    vocabulary: dict     # term -> idf
    centroid: dict       # term -> tf-idf weight, unit L2 norm
    threshold: float

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")


@dataclass(frozen=True)
class NBModel:
    priors: dict       # label -> prior probability
    loglik: dict       # label -> {term: log likelihood}
    vocabulary: frozenset


def build_topic_profile(topic_docs, background_docs, threshold: float) -> TopicProfile:
    """Build the monitored-topic profile from an operator-supplied topic
    corpus, with a background corpus supplying document-frequency
    contrast."""
    if not topic_docs:
        raise ConfigError("topic corpus is empty")
    if not background_docs:
        raise ConfigError("background corpus is empty")

    union = [terms(d) for d in topic_docs] + [terms(d) for d in background_docs]
    n_docs = len(union)
    df = Counter()
    for doc_terms in union:
        df.update(set(doc_terms))
    vocabulary = {t: math.log((1 + n_docs) / (1 + d)) + 1.0 for t, d in df.items()}

    acc = {}
    for doc_terms in union[:len(topic_docs)]:
        tf = Counter(doc_terms)
        for t, count in tf.items():
            acc[t] = acc.get(t, 0.0) + count * vocabulary[t]
    norm = math.sqrt(sum(w * w for w in acc.values()))
    if norm == 0.0:
        raise ConfigError("topic corpus has no terms")
    centroid = {t: w / norm for t, w in acc.items()}
    return TopicProfile(vocabulary=vocabulary, centroid=centroid, threshold=threshold)


def doc_vector(doc: str, profile: TopicProfile) -> dict:
    """tf-idf vector of a document under the profile vocabulary; unknown
    terms are skipped, not smoothed."""
    vec = {}
    for t, count in Counter(terms(doc)).items():
        idf = profile.vocabulary.get(t)
        if idf is not None:
            vec[t] = count * idf
    return vec


def vsm_score(doc: str, profile: TopicProfile) -> float:
    """Cosine similarity between the document vector and the topic
    centroid; 0.0 for an empty/unknown-only document. Nonnegative weights
    keep the value in [0, 1]."""
    vec = doc_vector(doc, profile)
    if not vec:
        return 0.0
    dot = 0.0
    for t, w in vec.items():
        c = profile.centroid.get(t)
        if c is not None:
            dot += w * c
    if dot == 0.0:
        return 0.0
    norm = math.sqrt(sum(w * w for w in vec.values()))
    return min(1.0, dot / norm)


def nb_train(labeled) -> NBModel:
    """Multinomial Naive Bayes with add-one smoothing over (text, label)
    pairs labeled relevant/irrelevant."""
    docs_by_class = {RELEVANT: [], IRRELEVANT: []}
    for text, label in labeled:
        if label not in docs_by_class:
            raise ValueError(f"unknown label {label!r}")
        docs_by_class[label].append(terms(text))
    for label, docs in docs_by_class.items():
        if not docs:
            raise ConfigError(f"no training documents labeled {label!r}")

    vocabulary = set()
    counts = {}
    totals = {}
    for label, docs in docs_by_class.items():
        c = Counter()
        for doc_terms in docs:
            c.update(doc_terms)
        counts[label] = c
        totals[label] = sum(c.values())
        vocabulary.update(c)

    n_total = sum(len(d) for d in docs_by_class.values())
    v = len(vocabulary)
    priors = {label: len(docs) / n_total for label, docs in docs_by_class.items()}
    loglik = {
        label: {t: math.log((counts[label][t] + 1) / (totals[label] + v))
                for t in vocabulary}
        for label in docs_by_class
    }
    return NBModel(priors=priors, loglik=loglik, vocabulary=frozenset(vocabulary))


def nb_classify(doc: str, model: NBModel):
    """Returns (label, gap) where gap is the winning log-posterior minus
    the runner-up; tokens outside the training vocabulary are skipped."""
    posteriors = {}
    known = [t for t in terms(doc) if t in model.vocabulary]
    for label, prior in model.priors.items():
        ll = model.loglik[label]
        posteriors[label] = math.log(prior) + sum(ll[t] for t in known)
    ranked = sorted(posteriors.items(), key=lambda kv: -kv[1])
    return ranked[0][0], ranked[0][1] - ranked[1][1]

