"""Competition logs: data model, JSONL persistence, filters, reports,
and a synthetic generator.

A log is a set of per-topic game histories.  Each history carries the
topic's queries and an ordered list of rounds; a round stores every
publisher's document (with a bot flag) and one total-order ranking per
query (rank 1 first).  The on-disk format is JSONL with one history per
line; an optional leading ``{"_meta": {...}}`` line carries free-form log
metadata (ranker label, tool policy, generator config).

Text statistics go through ``topic_corpus``: one ``TopicCorpus`` per
topic, built when a caller reaches the topic and dropped when it moves on.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Iterator, Optional

from .numeric import DomainError
from .stopwords import DEFAULT_STOPWORDS, read_utf8
from .text_features import (
    FEATURE_NAMES,
    FeatureVector,
    TopicCorpus,
    match_features,
    quality_features,
    rbo,
    require_persistence,
    tokenize,
)


@dataclass(frozen=True)
class RoundRecord:
    round_index: int  # 1-based, contiguous
    documents: dict[str, tuple[str, bool]]  # publisher -> (text, is_bot)
    rankings: tuple[tuple[str, ...], ...]  # per query, rank 1 first

    def text_of(self, publisher: str) -> str:
        return self.documents[publisher][0]

    def is_bot(self, publisher: str) -> bool:
        return self.documents[publisher][1]

    def winner(self, query_index: int) -> str:
        return self.rankings[query_index][0]

    def rank_of(self, publisher: str, query_index: int) -> int:
        return self.rankings[query_index].index(publisher) + 1


@dataclass(frozen=True)
class GameHistory:
    topic_id: str
    queries: tuple[str, ...]
    rounds: tuple[RoundRecord, ...]

    def round(self, round_index: int) -> RoundRecord:
        if not 1 <= round_index <= len(self.rounds):
            raise DomainError(
                f"topic {self.topic_id!r}: round {round_index} outside 1..{len(self.rounds)}"
            )
        return self.rounds[round_index - 1]


def topic_corpus(topic: GameHistory) -> TopicCorpus:
    """The topic's tokenized documents and per-round-prefix statistics.

    Built fresh on every call and never cached on the history: callers
    hold one topic's corpus at a time.
    """
    corpus = TopicCorpus()
    for rnd in topic.rounds:
        corpus.add_round({pub: tokenize(text) for pub, (text, _) in rnd.documents.items()})
    return corpus


@dataclass(frozen=True)
class CompetitionLog:
    topics: tuple[GameHistory, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # topic id -> history, the first one should ids repeat; a plain
        # attribute, not a field, so equality and repr ignore it
        by_id: dict[str, GameHistory] = {}
        for t in self.topics:
            by_id.setdefault(t.topic_id, t)
        object.__setattr__(self, "_by_id", by_id)

    def topic(self, topic_id: str) -> GameHistory:
        try:
            return self._by_id[topic_id]
        except KeyError:
            raise DomainError(f"unknown topic {topic_id!r}") from None


class LogFormatError(DomainError):
    """Schema violation in a log file, annotated with the line number."""


def _history_to_dict(h: GameHistory) -> dict:
    return {
        "topic_id": h.topic_id,
        "queries": list(h.queries),
        "rounds": [
            {
                "round_index": r.round_index,
                "documents": {
                    pub: {"text": text, "is_bot": bot}
                    for pub, (text, bot) in sorted(r.documents.items())
                },
                "rankings": [list(rk) for rk in r.rankings],
            }
            for r in h.rounds
        ],
    }


_JSON_TYPES = {str: "a string", int: "an integer", bool: "a boolean", list: "a list",
               dict: "an object"}


def _typed(value, kind: type, what: str):
    """``value`` if its parsed JSON type is exactly ``kind`` (a bool is no integer).

    Fields are read with ``dict.get``, so a missing field fails as null.
    """
    if type(value) is not kind:
        raise LogFormatError(f"{what} is not {_JSON_TYPES[kind]}")
    return value


def _strings(value, what: str, entry: str) -> tuple[str, ...]:
    """A JSON list of strings; ``what`` names the list and ``entry`` any one string."""
    return tuple(_typed(v, str, entry) for v in _typed(value, list, what))


def _history_from_dict(data: dict, where: str) -> GameHistory:
    """One history, each field type-checked as it is read, in one walk over the rounds.

    Rounds run 1, 2, ...; each has at least one document, the first round's
    publisher set, and one ranking per query that orders those publishers.
    """
    topic_id = _typed(data.get("topic_id"), str, f"{where}: topic_id")
    where = f"{where}: topic {topic_id!r}"
    queries = _strings(data.get("queries"), f"{where} queries", f"{where} has a query that")
    if not queries:
        raise LogFormatError(f"{where} has no queries")
    publishers: Optional[list[str]] = None
    rounds = []
    for idx, rnd in enumerate(_typed(data.get("rounds"), list, f"{where} rounds"), start=1):
        at = f"{where} round {idx}"
        index = _typed(rnd, dict, at).get("round_index")
        if type(index) is not int:
            raise LogFormatError(f"{where} round_index {index!r} is not an integer")
        if index != idx:
            raise LogFormatError(f"{where} round {index} out of order (expected {idx})")
        documents = {}
        for pub, doc in _typed(rnd.get("documents"), dict, f"{at} documents").items():
            doc = _typed(doc, dict, f"{at} document {pub!r}")
            documents[pub] = (_typed(doc.get("text"), str, f"{at} document {pub!r} text"),
                              _typed(doc.get("is_bot"), bool, f"{at} document {pub!r} is_bot"))
        if not documents:
            raise LogFormatError(f"{at} has no documents")
        if publishers is None:
            publishers = sorted(documents)
        elif sorted(documents) != publishers:
            raise LogFormatError(f"{at} publisher set changed")
        rankings = []
        for q, ranking in enumerate(_typed(rnd.get("rankings"), list, f"{at} rankings")):
            ranking = _strings(ranking, f"{at} query {q} ranking", f"{at} ranks a publisher that")
            if sorted(ranking) != publishers:
                raise LogFormatError(
                    f"{at} query {q} ranking is not a permutation of the publishers"
                )
            rankings.append(ranking)
        if len(rankings) != len(queries):
            raise LogFormatError(f"{at} has {len(rankings)} rankings for {len(queries)} queries")
        rounds.append(RoundRecord(round_index=idx, documents=documents, rankings=tuple(rankings)))
    return GameHistory(topic_id=topic_id, queries=queries, rounds=tuple(rounds))


def save_log(path, log: CompetitionLog) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if log.metadata:
            fh.write(json.dumps({"_meta": log.metadata}, sort_keys=True) + "\n")
        for h in log.topics:
            fh.write(json.dumps(_history_to_dict(h), sort_keys=True) + "\n")


def load_log(path) -> CompetitionLog:
    topics: list[GameHistory] = []
    metadata: dict = {}
    seen_ids: set[str] = set()
    for lineno, line in enumerate(read_utf8(path, "log"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LogFormatError(f"line {lineno}: invalid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise LogFormatError(f"line {lineno}: expected a JSON object")
        if "_meta" in data:
            if lineno != 1:
                raise LogFormatError(f"line {lineno}: _meta only allowed on line 1")
            metadata = _typed(data["_meta"], dict, f"line {lineno}: _meta")
            continue
        history = _history_from_dict(data, f"line {lineno}")
        if history.topic_id in seen_ids:
            raise LogFormatError(f"line {lineno}: duplicate topic {history.topic_id!r}")
        seen_ids.add(history.topic_id)
        topics.append(history)
    return CompetitionLog(topics=tuple(topics), metadata=metadata)


# --- filters ----------------------------------------------------------------


@dataclass(frozen=True)
class PredictionTriple:
    topic_id: str
    query_index: int
    round_index: int  # the round being predicted (l)


#: the first round a winner is predicted at: the trajectory features read
#: the two rounds before it
FIRST_PREDICTED_ROUND = 3


def filter_for_prediction(log: CompetitionLog) -> list[PredictionTriple]:
    """(topic, query, round) triples eligible for winner prediction.

    A triple survives when the round-l winner is a non-bot publisher that
    differs from the round-(l-1) winner.  Rounds before
    ``FIRST_PREDICTED_ROUND`` are excluded because the trajectory features
    need two prior rounds.
    """
    out = []
    for topic in log.topics:
        for l in range(FIRST_PREDICTED_ROUND, len(topic.rounds) + 1):
            now = topic.round(l)
            prev = topic.round(l - 1)
            for q in range(len(topic.queries)):
                winner = now.winner(q)
                if now.is_bot(winner):
                    continue
                if winner == prev.winner(q):
                    continue
                out.append(PredictionTriple(topic.topic_id, q, l))
    return out


# --- reports ----------------------------------------------------------------


@dataclass(frozen=True)
class WinSpreadRow:
    wins: int  # x: number of queries won by the document
    doc_percent: float
    mean_nonwon_rank: Optional[float]


def report_win_spread(log: CompetitionLog) -> dict:
    """Distribution of per-round winning documents by number of queries won.

    For every (topic, round), each document that won at least one query
    contributes one observation: how many of the m queries it won, plus
    its ranks on the queries it did not win.
    """
    m = None
    counts: dict[int, int] = {}
    nonwon_ranks: dict[int, list[int]] = {}
    per_topic: dict[str, dict[int, int]] = {}
    for topic in log.topics:
        if m is None:
            m = len(topic.queries)
        elif m != len(topic.queries):
            raise DomainError("win-spread report needs a uniform query count")
        tcounts = per_topic.setdefault(topic.topic_id, {})
        for rnd in topic.rounds:
            winners: dict[str, list[int]] = {}
            for q in range(len(topic.queries)):
                winners.setdefault(rnd.winner(q), []).append(q)
            for pub, queries_won in winners.items():
                x = len(queries_won)
                counts[x] = counts.get(x, 0) + 1
                tcounts[x] = tcounts.get(x, 0) + 1
                others = [
                    rnd.rank_of(pub, q)
                    for q in range(len(topic.queries))
                    if q not in queries_won
                ]
                nonwon_ranks.setdefault(x, []).extend(others)
    total = sum(counts.values())
    rows = []
    for x in range(1, (m or 0) + 1):
        c = counts.get(x, 0)
        ranks = nonwon_ranks.get(x, [])
        rows.append(
            WinSpreadRow(
                wins=x,
                doc_percent=100.0 * c / total if total else 0.0,
                mean_nonwon_rank=sum(ranks) / len(ranks) if ranks else None,
            )
        )
    return {"rows": rows, "observations": total, "per_topic": per_topic}


def report_ranking_agreement(log: CompetitionLog, persistence: float = 0.9) -> dict[int, float]:
    """Per-round mean pairwise ranking overlap across queries, over topics."""
    require_persistence(persistence)  # checked even when no topic reaches rbo
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for topic in log.topics:
        mq = len(topic.queries)
        if mq < 2:
            raise DomainError(
                f"topic {topic.topic_id!r} has {mq} query; agreement needs at least 2"
            )
        for rnd in topic.rounds:
            vals = []
            for a in range(mq):
                for b in range(a + 1, mq):
                    vals.append(rbo(rnd.rankings[a], rnd.rankings[b], persistence))
            topic_mean = sum(vals) / len(vals)
            sums[rnd.round_index] = sums.get(rnd.round_index, 0.0) + topic_mean
            counts[rnd.round_index] = counts.get(rnd.round_index, 0) + 1
    return {r: sums[r] / counts[r] for r in sorted(sums)}


def document_features(
    log: CompetitionLog, stopwords: frozenset[str] = DEFAULT_STOPWORDS
) -> Iterator[tuple[GameHistory, RoundRecord, int, str, FeatureVector]]:
    """(topic, round, query index, publisher, features) for every document x query.

    Topics, rounds and queries come in log order and publishers sorted;
    each round-l document is featured against its topic's rounds 1..l.
    Quality features are computed once per document.
    """
    for topic in log.topics:
        corpus = topic_corpus(topic)
        queries = [tokenize(text) for text in topic.queries]
        for rnd in topic.rounds:
            stats = corpus.stats(rnd.round_index)
            docs = {pub: corpus.doc(rnd.round_index, pub) for pub in sorted(rnd.documents)}
            quality = {pub: quality_features(doc, stopwords) for pub, doc in docs.items()}
            for q, query in enumerate(queries):
                for pub, doc in docs.items():
                    feats = FeatureVector(*match_features(doc, query, stats), *quality[pub])
                    yield topic, rnd, q, pub, feats


def report_feature_trajectories(
    log: CompetitionLog, stopwords: frozenset[str] = DEFAULT_STOPWORDS
) -> dict:
    """Per-round mean feature values of winning vs losing documents.

    Aggregation-only view over the per-(document, query) features; winners
    are the rank-1 documents of each query.
    """
    acc: dict[tuple[int, str], list[tuple[float, ...]]] = {}
    for _, rnd, q, pub, feats in document_features(log, stopwords):
        group = "winner" if rnd.winner(q) == pub else "loser"
        acc.setdefault((rnd.round_index, group), []).append(feats.as_tuple())
    out: dict = {}
    for (rnd_idx, group), rows in sorted(acc.items()):
        means = [sum(col) / len(col) for col in zip(*rows)]
        out.setdefault(rnd_idx, {})[group] = dict(zip(FEATURE_NAMES, means))
    return out


# --- synthetic generator ----------------------------------------------------

#: publisher strategies the generator knows
STRATEGIES = ("mimic-winner", "static", "random-edit")

#: vocabulary words each topic draws its queries and on-topic text from
TOPIC_POOL_SIZE = 24


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SynthesisConfig:
    topics: int = 5
    rounds: int = 10
    queries_per_topic: int = 3
    publishers: int = 5
    strategy_mix: tuple[tuple[str, int], ...] = (
        ("mimic-winner", 2),
        ("static", 1),
        ("random-edit", 2),
    )
    vocabulary_size: int = 120
    doc_length: int = 60
    scorer_weights: tuple[tuple[str, float], ...] = (("bm25", 1.0), ("tf", 0.25))

    def __post_init__(self):
        minima = {"topics": 1, "rounds": 1, "queries_per_topic": 1, "publishers": 1,
                  "vocabulary_size": TOPIC_POOL_SIZE, "doc_length": 1}
        for name, least in minima.items():
            value = getattr(self, name)
            if not _is_int(value) or value < least:
                raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
        for name, count in self.strategy_mix:
            if name not in STRATEGIES:
                raise DomainError(f"unknown strategy {name!r}; expected one of {STRATEGIES}")
            if not _is_int(count) or count < 0:
                raise DomainError(
                    f"strategy {name!r} count must be an integer >= 0, got {count!r}"
                )
        for name, weight in self.scorer_weights:
            if name not in FEATURE_NAMES:
                raise DomainError(
                    f"unknown scorer feature {name!r}; expected one of {FEATURE_NAMES}"
                )
            if not isinstance(weight, (int, float)) or isinstance(weight, bool):
                raise DomainError(f"scorer weight for {name!r} must be a number, got {weight!r}")
            if not abs(weight) <= sys.float_info.max:  # NaN, ±inf, or too large an int
                got = "an integer beyond float range" if _is_int(weight) else repr(weight)
                raise DomainError(f"scorer weight for {name!r} must be finite, got {got}")

    @classmethod
    def from_dict(cls, data: dict) -> "SynthesisConfig":
        """Config from its JSON object; unknown keys and wrong types are DomainErrors."""
        if not isinstance(data, dict):
            raise DomainError("synthesis config must be a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise DomainError(f"unknown synthesis config keys {unknown}")
        kwargs = dict(data)
        for key in ("strategy_mix", "scorer_weights"):
            if key in kwargs:
                if not isinstance(kwargs[key], dict):
                    raise DomainError(f"{key} must be a JSON object")
                kwargs[key] = tuple(kwargs[key].items())
        config = cls(**kwargs)  # validated before JSON integer weights become floats
        weights = tuple((k, float(v)) for k, v in config.scorer_weights)
        return replace(config, scorer_weights=weights)


def _desk_score(feats: FeatureVector, weights) -> float:
    return sum(w * getattr(feats, name) for name, w in weights)


def synthesize(config: SynthesisConfig, seed: int) -> CompetitionLog:
    """Deterministic synthetic competition log.

    Publishers follow fixed strategies: ``static`` never edits, ``mimic-
    winner`` blends in tokens from the previous round's winning documents
    (with a per-publisher intensity), ``random-edit`` swaps a fraction of
    tokens for random vocabulary.  Rankings come from a fixed desk scorer
    (weighted feature sum) with publisher-id tie-breaking, so logs are
    byte-reproducible for a given seed.
    """
    rng = random.Random(seed)
    vocab = [f"w{i:03d}" for i in range(config.vocabulary_size)]
    strategies: list[str] = []
    for name, count in config.strategy_mix:
        strategies.extend([name] * count)
    if len(strategies) < config.publishers:
        strategies.extend(["random-edit"] * (config.publishers - len(strategies)))
    strategies = strategies[: config.publishers]
    stopword_tokens = sorted(DEFAULT_STOPWORDS)[:20]
    desk_stopwords = frozenset(stopword_tokens)

    topics = []
    for t in range(config.topics):
        topic_id = f"T{t:03d}"
        topic_pool = rng.sample(vocab, TOPIC_POOL_SIZE)
        queries = []
        for q in range(config.queries_per_topic):
            queries.append(" ".join(rng.sample(topic_pool, 2)))
        query_docs = [tokenize(text) for text in queries]
        pubs = [f"p{i}" for i in range(config.publishers)]
        mimic_rate = {
            pub: 0.25 + 0.5 * rng.random() if strat == "mimic-winner" else 0.0
            for pub, strat in zip(pubs, strategies)
        }
        skill = {pub: 0.2 + 0.6 * rng.random() for pub in pubs}

        def initial_doc(pub):
            n_topic = int(config.doc_length * skill[pub] * 0.5)
            body = rng.choices(topic_pool, k=n_topic)
            body += rng.choices(vocab, k=config.doc_length - n_topic - 6)
            body += rng.choices(stopword_tokens, k=6)
            rng.shuffle(body)
            return " ".join(body)

        texts = {pub: initial_doc(pub) for pub in pubs}
        rounds = []
        corpus = TopicCorpus()
        for r in range(1, config.rounds + 1):
            if r > 1:
                prev = rounds[-1]
                new_texts = {}
                for pub, strat in zip(pubs, strategies):
                    tokens = texts[pub].split()
                    if strat == "static":
                        new_texts[pub] = texts[pub]
                        continue
                    if strat == "mimic-winner":
                        target_q = rng.randrange(len(queries))
                        winner_tokens = prev.text_of(prev.winner(target_q)).split()
                        n_copy = int(len(tokens) * mimic_rate[pub])
                        if n_copy:
                            copied = rng.choices(winner_tokens, k=n_copy)
                            keep = rng.sample(tokens, len(tokens) - n_copy)
                            tokens = keep + copied
                            rng.shuffle(tokens)
                    else:  # random-edit
                        n_edit = max(1, len(tokens) // 10)
                        for _ in range(n_edit):
                            tokens[rng.randrange(len(tokens))] = rng.choice(vocab)
                    new_texts[pub] = " ".join(tokens)
                texts = new_texts
            docs = {pub: tokenize(texts[pub]) for pub in pubs}
            stats = corpus.add_round(docs)
            quality = {pub: quality_features(doc, desk_stopwords) for pub, doc in docs.items()}
            rankings = []
            for query in query_docs:
                score = {}
                for pub, doc in docs.items():
                    feats = FeatureVector(*match_features(doc, query, stats), *quality[pub])
                    score[pub] = _desk_score(feats, config.scorer_weights)
                rankings.append(tuple(sorted(pubs, key=lambda pub: (-score[pub], pub))))
            rounds.append(
                RoundRecord(
                    round_index=r,
                    documents={pub: (texts[pub], False) for pub in pubs},
                    rankings=tuple(rankings),
                )
            )
        topics.append(GameHistory(topic_id=topic_id, queries=tuple(queries), rounds=tuple(rounds)))
    meta = {
        "generator": "synthetic",
        "seed": seed,
        "strategy_mix": dict(config.strategy_mix),
    }
    return CompetitionLog(topics=tuple(topics), metadata=meta)
