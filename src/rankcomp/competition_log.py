"""Competition logs: data model, JSONL persistence, filters, reports,
and a synthetic generator.

A log is a set of per-topic game histories.  Each history carries the
topic's queries and an ordered list of rounds; a round stores every
publisher's document (with a bot flag) and one total-order ranking per
query (rank 1 first).  The on-disk format is JSONL with one history per
line; an optional leading ``{"_meta": ...}`` line carries free-form log
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
from .stopwords import DEFAULT_STOPWORDS
from .text_features import (
    FEATURE_NAMES,
    FeatureVector,
    TopicCorpus,
    match_features,
    quality_features,
    rbo,
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

    @property
    def publishers(self) -> tuple[str, ...]:
        return tuple(sorted(self.rounds[0].documents)) if self.rounds else ()

    def round(self, round_index: int) -> RoundRecord:
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


def _validate_history(h: GameHistory, where: str) -> None:
    if not h.queries:
        raise LogFormatError(f"{where}: topic {h.topic_id!r} has no queries")
    publishers: Optional[frozenset[str]] = None
    for idx, rnd in enumerate(h.rounds, start=1):
        if rnd.round_index != idx:
            raise LogFormatError(
                f"{where}: topic {h.topic_id!r} round {rnd.round_index} out of order "
                f"(expected {idx})"
            )
        here = frozenset(rnd.documents)
        if publishers is None:
            publishers = here
        elif here != publishers:
            raise LogFormatError(
                f"{where}: topic {h.topic_id!r} round {idx} publisher set changed"
            )
        if len(rnd.rankings) != len(h.queries):
            raise LogFormatError(
                f"{where}: topic {h.topic_id!r} round {idx} has {len(rnd.rankings)} "
                f"rankings for {len(h.queries)} queries"
            )
        for q, ranking in enumerate(rnd.rankings):
            if sorted(ranking) != sorted(publishers):
                raise LogFormatError(
                    f"{where}: topic {h.topic_id!r} round {idx} query {q} ranking "
                    "is not a permutation of the publishers"
                )


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


def _history_from_dict(data: dict, where: str) -> GameHistory:
    try:
        rounds = tuple(
            RoundRecord(
                round_index=int(r["round_index"]),
                documents={
                    pub: (d["text"], bool(d["is_bot"])) for pub, d in r["documents"].items()
                },
                rankings=tuple(tuple(rk) for rk in r["rankings"]),
            )
            for r in data["rounds"]
        )
        history = GameHistory(
            topic_id=str(data["topic_id"]),
            queries=tuple(data["queries"]),
            rounds=rounds,
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise LogFormatError(f"{where}: malformed history ({exc})") from exc
    if not all(isinstance(q, str) for q in history.queries):
        raise LogFormatError(f"{where}: topic {history.topic_id!r} has a non-string query")
    for rnd in history.rounds:
        for pub, (text, _) in rnd.documents.items():
            if not isinstance(text, str):
                raise LogFormatError(
                    f"{where}: topic {history.topic_id!r} round {rnd.round_index} document "
                    f"{pub!r} text is not a string"
                )
        if not all(isinstance(pub, str) for ranking in rnd.rankings for pub in ranking):
            raise LogFormatError(
                f"{where}: topic {history.topic_id!r} round {rnd.round_index} ranks a "
                "publisher that is not a string"
            )
    _validate_history(history, where)
    return history


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
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
                metadata = data["_meta"]
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


def filter_for_prediction(log: CompetitionLog, min_round: int = 3) -> list[PredictionTriple]:
    """(topic, query, round) triples eligible for winner prediction.

    A triple survives when the round-l winner is a non-bot publisher that
    differs from the round-(l-1) winner; earlier rounds than `min_round`
    are excluded because the trajectory features need two prior rounds.
    """
    out = []
    for topic in log.topics:
        for l in range(min_round, len(topic.rounds) + 1):
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
