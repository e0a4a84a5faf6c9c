"""Document features, ranking similarity, and query-diversity helpers.

The document features are the classic non-neural retrieval estimates:
``match_features`` gives query-term frequency and its length
normalization, BM25 and query likelihood with Dirichlet smoothing;
``quality_features`` the query-independent signals (length, stopword
fraction and coverage, term-distribution entropy), computed once per
document.  ``compute_features`` composes the two.  Ranking similarity is
extrapolated rank-biased overlap; the diversity helpers (Jaccard,
reciprocal rank fusion, greedy min-similarity selection) support picking
query variants that are distinct from each other.

Every document of round l is featured against the background statistics
of its topic's rounds 1..l.  ``TopicCorpus`` is the one path to them: it
tokenizes each document of a topic once and extends running counts round
by round, handing out the ``CorpusStats`` of every prefix
(``CorpusStats.from_documents`` is the one-round case).  Synthesis,
instance building and the feature reports each build one per topic and
drop it before the next.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .numeric import DomainError

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# BM25 defaults; the usual Okapi choices
BM25_K1 = 1.2
BM25_B = 0.75

# Dirichlet smoothing mass for the query-likelihood score
LMIR_MU = 1000.0


@dataclass(frozen=True)
class TokenizedDocument:
    tokens: tuple[str, ...]
    term_counts: Mapping[str, int]

    @property
    def length(self) -> int:
        return len(self.tokens)


def tokenize(text: str) -> TokenizedDocument:
    """Lowercase and split on non-alphanumeric runs, dropping empties."""
    tokens = tuple(_TOKEN_RE.findall(text.lower()))
    return TokenizedDocument(tokens=tokens, term_counts=Counter(tokens))


@dataclass(frozen=True)
class CorpusStats:
    """Background statistics over a document collection.

    df counts documents containing a term; collection_counts holds total
    term occurrences, used for the smoothed collection language model.
    """

    doc_count: int
    df: Mapping[str, int]
    avg_doc_len: float
    collection_counts: Mapping[str, int]
    collection_total: int

    @classmethod
    def from_documents(cls, docs: Iterable[TokenizedDocument]) -> "CorpusStats":
        # one round keyed by position: the int keys sort back into input order
        return TopicCorpus().add_round(dict(enumerate(docs)))


class TopicCorpus:
    """One topic's tokenized documents and the statistics of every round prefix.

    Rounds are added in order.  Each document is tokenized once, and the
    df / collection counts / length total grow by one round at a time, so
    ``stats(l)`` (equal to ``CorpusStats.from_documents`` over the
    documents of rounds 1..l, publishers in sorted order) costs one pass
    over round l instead of over rounds 1..l.  Callers build one per topic
    and drop it when they move on, so only one topic's tokens are held.
    """

    def __init__(self) -> None:
        self._df: Counter = Counter()
        self._coll: Counter = Counter()
        self._n = 0
        self._total_len = 0
        self._docs: list[dict[str, TokenizedDocument]] = []
        self._stats: list[CorpusStats] = []

    def add_round(self, docs: Mapping[str, TokenizedDocument]) -> CorpusStats:
        """Append the next round's publisher -> document mapping; return its stats."""
        ordered = {pub: docs[pub] for pub in sorted(docs)}
        for doc in ordered.values():
            self._total_len += doc.length
            self._coll.update(doc.term_counts)
            self._df.update(doc.term_counts.keys())
        self._n = n = self._n + len(ordered)
        stats = CorpusStats(  # copies the counters, so later rounds leave it alone
            doc_count=n,
            df=self._df.copy(),
            avg_doc_len=self._total_len / n if n else 0.0,
            collection_counts=self._coll.copy(),
            collection_total=sum(self._coll.values()),
        )
        self._docs.append(ordered)
        self._stats.append(stats)
        return stats

    def doc(self, round_index: int, publisher: str) -> TokenizedDocument:
        return self._docs[round_index - 1][publisher]

    def stats(self, round_index: int) -> CorpusStats:
        """Statistics over the documents of rounds 1..round_index."""
        if not 1 <= round_index <= len(self._stats):
            raise DomainError(f"round {round_index} outside 1..{len(self._stats)}")
        return self._stats[round_index - 1]


class FeatureVector(NamedTuple):
    """The eight non-neural per-(document, query) features: match, then quality."""

    tf: float
    normtf: float
    bm25: float
    lmir: float
    len: float
    fracstop: float
    stopcover: float
    ent: float

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(self)


FEATURE_NAMES: tuple[str, ...] = FeatureVector._fields


def _bm25_idf(n_docs: int, df: int) -> float:
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def _collection_prob(stats: CorpusStats, term: str) -> float:
    cf = stats.collection_counts.get(term, 0)
    if stats.collection_total <= 0:
        return 1.0
    if cf == 0:
        # unseen query term: floor at half of a single occurrence
        return 0.5 / stats.collection_total
    return cf / stats.collection_total


def match_features(
    doc: TokenizedDocument, query: TokenizedDocument, stats: CorpusStats
) -> tuple[float, float, float, float]:
    """(tf, normtf, bm25, lmir) of the document for the query."""
    length = doc.length
    q_terms = sorted(set(query.tokens))

    tf = float(sum(doc.term_counts.get(t, 0) for t in q_terms))
    normtf = tf / length if length else 0.0

    bm25 = 0.0
    if length:
        for t in q_terms:
            f = doc.term_counts.get(t, 0)
            if f == 0:
                continue
            denom = f + BM25_K1 * (1.0 - BM25_B + BM25_B * length / stats.avg_doc_len)
            bm25 += _bm25_idf(stats.doc_count, stats.df.get(t, 0)) * f * (BM25_K1 + 1.0) / denom

    lmir = 0.0
    for t in q_terms:
        f = doc.term_counts.get(t, 0)
        lmir += math.log((f + LMIR_MU * _collection_prob(stats, t)) / (length + LMIR_MU))
    return tf, normtf, bm25, lmir


def quality_features(
    doc: TokenizedDocument, stopwords: frozenset[str]
) -> tuple[float, float, float, float]:
    """(len, fracstop, stopcover, ent): the query-independent features."""
    if not stopwords:
        raise DomainError("stopword list is empty; stopcover is undefined")
    length = doc.length
    stop_tokens = sum(1 for tok in doc.tokens if tok in stopwords)
    fracstop = stop_tokens / length if length else 0.0
    stopcover = len(stopwords & set(doc.term_counts)) / len(stopwords)

    ent = 0.0
    if length:
        for c in doc.term_counts.values():
            p = c / length
            ent -= p * math.log2(p)
    return float(length), fracstop, stopcover, ent


def compute_features(
    doc: TokenizedDocument,
    query: TokenizedDocument,
    stats: CorpusStats,
    stopwords: frozenset[str],
) -> FeatureVector:
    quality = quality_features(doc, stopwords)  # first, so empty stopwords fail first
    return FeatureVector(*match_features(doc, query, stats), *quality)


# --- tf.idf vectors and cosine --------------------------------------------


def tfidf_vector(doc: TokenizedDocument, stats: CorpusStats) -> dict[str, float]:
    """Raw term counts weighted by smoothed idf: ln((N+1)/(df+1)) + 1."""
    n = stats.doc_count
    return {
        t: c * (math.log((n + 1.0) / (stats.df.get(t, 0) + 1.0)) + 1.0)
        for t, c in doc.term_counts.items()
    }


def cosine(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    if len(b) < len(a):
        a, b = b, a
    dot = sum(v * b.get(t, 0.0) for t, v in a.items())
    na = math.sqrt(sum(v * v for v in a.values()))
    nb = math.sqrt(sum(v * v for v in b.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def tfidf_cosine(doc_a: TokenizedDocument, doc_b: TokenizedDocument, stats: CorpusStats) -> float:
    return cosine(tfidf_vector(doc_a, stats), tfidf_vector(doc_b, stats))


# --- rank similarity -------------------------------------------------------


def require_persistence(persistence: float) -> None:
    if not 0.0 < persistence < 1.0:
        raise DomainError("persistence must lie strictly between 0 and 1")


def rbo(ranking_a: Sequence, ranking_b: Sequence, persistence: float = 0.9) -> float:
    """Extrapolated rank-biased overlap of two duplicate-free rankings.

    Top-weighted: agreement at early ranks dominates, governed by the
    persistence parameter in (0, 1).  The two lists may have different
    lengths; the extrapolation assumes the seen overlap ratio continues.
    """
    require_persistence(persistence)
    if len(set(ranking_a)) != len(ranking_a) or len(set(ranking_b)) != len(ranking_b):
        raise DomainError("rankings must be duplicate-free")
    if not ranking_a or not ranking_b:
        return 1.0 if not ranking_a and not ranking_b else 0.0

    p = persistence
    short, long_ = sorted((list(ranking_a), list(ranking_b)), key=len)
    s, l = len(short), len(long_)
    seen_short: set = set()
    seen_long: set = set()
    x = 0  # overlap at current depth
    x_at_s = 0
    sum_term = 0.0
    for d in range(1, l + 1):
        if d <= s:
            a_item = short[d - 1]
            b_item = long_[d - 1]
            if a_item == b_item:
                x += 1
            else:
                if a_item in seen_long:
                    x += 1
                if b_item in seen_short:
                    x += 1
                seen_short.add(a_item)
                seen_long.add(b_item)
            sum_term += (x / d) * p**d
            if d == s:
                x_at_s = x
        else:
            if long_[d - 1] in seen_short:
                x += 1
            else:
                seen_long.add(long_[d - 1])
            sum_term += (x / d) * p**d
            sum_term += (x_at_s * (d - s) / (s * d)) * p**d
    ext = ((x - x_at_s) / l + x_at_s / s) * p**l
    return (1.0 - p) / p * sum_term + ext


def jaccard(terms_a: Iterable, terms_b: Iterable) -> float:
    """|intersection| / |union|; 1.0 when both sides are empty."""
    a, b = set(terms_a), set(terms_b)
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def rrf_fuse(rank_lists: Sequence[Sequence], k: float = 60.0) -> dict:
    """Reciprocal rank fusion: score(item) = sum over lists of 1/(k + rank)."""
    if not k >= 0:  # refuses NaN too; a negative k can divide by zero or invert ranks
        raise DomainError(f"rrf constant k must be non-negative, got {k}")
    scores: dict = {}
    for ranking in rank_lists:
        for rank, item in enumerate(ranking, start=1):
            scores[item] = scores.get(item, 0.0) + 1.0 / (k + rank)
    return scores


def select_diverse_queries(
    candidates: Sequence,
    pairwise_scores: Mapping[tuple, float],
    count: int,
    seed_query=None,
) -> list:
    """Greedy min-average-similarity selection starting from a seed.

    pairwise_scores maps unordered candidate pairs (given either way) to a
    similarity; higher means more alike.  Starting from the seed (default:
    the first candidate), each round adds the candidate whose average
    similarity to the already-selected set is lowest (earliest candidate
    wins ties).
    """
    if not candidates:
        raise DomainError("no candidates to select from")
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    if count > len(candidates):
        raise DomainError(f"cannot select {count} from {len(candidates)} candidates")
    if seed_query is None:
        seed_query = candidates[0]
    if seed_query not in candidates:
        raise DomainError("seed query must be one of the candidates")

    def sim(a, b) -> float:
        if (a, b) in pairwise_scores:
            return pairwise_scores[(a, b)]
        if (b, a) in pairwise_scores:
            return pairwise_scores[(b, a)]
        raise DomainError(f"missing pairwise score for {(a, b)!r}")

    selected = [seed_query]
    while len(selected) < count:
        remaining = [c for c in candidates if c not in selected]
        best = min(
            remaining,
            key=lambda c: (sum(sim(c, s) for s in selected) / len(selected), candidates.index(c)),
        )
        selected.append(best)
    return selected
