"""Next-round-winner prediction over competition logs.

Each candidate document (a publisher not ranked first for the query in
the previous round) becomes a 27-dimensional instance:

* Micro (12): unique-term additions/deletions between the candidate's
  previous and current documents, split by whether the terms appear in
  the previous winner's document, for three term groups (query terms,
  stopwords, everything else)
* Macro (3): tf.idf cosines among current doc, previous doc, previous
  winner
* TopicMacro (2): cosines of current/previous doc to the centroid of the
  previous round's per-query winners
* TopicRank (3): min/median/max of the previous doc's ranks across the
  topic's queries
* QueryRank (3): indicators that min/median/max equals this query's rank
* PrevChange (3): min/median/max of per-query scaled rank improvements
  between the two previous rounds
* Len (1): current document's token count

``SECTIONS`` declares this layout once: the feature names, the CSV
header, ``section_slices`` and the order in which ``build_instances``
concatenates the sections all come from it.

Labels mark the document that actually won the query.  The evaluation
protocol is leave-one-round-out cross-validation with an inner
leave-one-round-out pass for picking the regularization parameter by
accuracy.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, replace
from functools import cache
from itertools import accumulate, chain, groupby
from typing import Iterable, Optional, Sequence

import numpy as np

from .competition_log import (
    CompetitionLog,
    PredictionTriple,
    filter_for_prediction,
    topic_corpus,
)
from .logreg import LinearModel, train_lreg, train_lreg_grid
from .numeric import DomainError
from .stopwords import DEFAULT_STOPWORDS
from .text_features import cosine, tfidf_vector, tokenize

#: the instance layout: each section's feature names, sections in instance order
SECTIONS: dict[str, tuple[str, ...]] = {
    "micro": tuple(
        f"micro_{group}_{kind}"
        for group in ("query", "stop", "other")
        for kind in ("add_w", "rmv_w", "add_nw", "rmv_nw")
    ),
    "macro": ("macro_sim_now_prev", "macro_sim_now_winner", "macro_sim_prev_winner"),
    "topic_macro": ("topicmacro_sim_now_centroid", "topicmacro_sim_prev_centroid"),
    "topic_rank": ("topicrank_min", "topicrank_median", "topicrank_max"),
    "query_rank": ("queryrank_is_min", "queryrank_is_median", "queryrank_is_max"),
    "prev_change": ("prevchange_min", "prevchange_median", "prevchange_max"),
    "len": ("len",),
}

FEATURE_NAMES: tuple[str, ...] = tuple(chain.from_iterable(SECTIONS.values()))
FEATURE_DIM = len(FEATURE_NAMES)  # 27


def section_slices() -> dict[str, slice]:
    starts = accumulate((len(names) for names in SECTIONS.values()), initial=0)
    return {
        name: slice(start, start + len(names))
        for (name, names), start in zip(SECTIONS.items(), starts)
    }


@dataclass(frozen=True)
class PredictionInstance:
    topic_id: str
    query_index: int
    round_index: int
    publisher: str
    features: tuple[float, ...]
    label: bool

    @property
    def group_key(self) -> tuple[str, int, int]:
        return (self.topic_id, self.query_index, self.round_index)


def _lower_median(values: Sequence[float]) -> float:
    """Median with the lower element for even counts (m = 3 never hits it)."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def _scaled_rank_change(r_prev2: int, r_prev1: int) -> float:
    """(r_{l-2} - r_{l-1}) / (r_{l-2} - 1); zero when already at rank 1."""
    if r_prev2 == 1:
        return 0.0
    return (r_prev2 - r_prev1) / (r_prev2 - 1)


def _micro_counts(
    now_terms: frozenset[str],
    prev_terms: frozenset[str],
    winner_terms: frozenset[str],
    group_terms: frozenset[str],
) -> tuple[float, float, float, float]:
    added = (now_terms - prev_terms) & group_terms
    removed = (prev_terms - now_terms) & group_terms
    return (
        float(len(added & winner_terms)),
        float(len(removed & winner_terms)),
        float(len(added - winner_terms)),
        float(len(removed - winner_terms)),
    )


def build_instances(
    log: CompetitionLog,
    triples: Optional[Iterable[PredictionTriple]] = None,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
) -> list[PredictionInstance]:
    """Feature vectors for every candidate of every eligible triple.

    Candidates for (topic, query, l) are the publishers not ranked first
    for that query at round l-1.  Background statistics for the tf.idf
    vectors cover all of the topic's documents up to and including round
    l, keeping the pipeline self-contained.

    Instances come in triple order.  Triples are walked in runs of
    consecutive triples on the same (topic, l); each run reads its rounds,
    statistics, tf.idf vectors and the winners' centroid once.  Documents
    and statistics come from one ``topic_corpus``, rebuilt only when the
    topic changes, so a topic's texts are tokenized once when its triples
    are contiguous (as ``filter_for_prediction`` returns them).  A
    candidate's document side (term sets, the now-prev and centroid
    cosines, TopicRank, PrevChange and Len) is computed once per run; each
    triple adds only Micro, the winner cosines and QueryRank.
    """
    if triples is None:
        triples = filter_for_prediction(log)
    out: list[PredictionInstance] = []
    corpus_topic: Optional[str] = None
    for (topic_id, l), run in groupby(triples, key=lambda t: (t.topic_id, t.round_index)):
        topic = log.topic(topic_id)
        if l < 3 or l > len(topic.rounds):
            continue
        if corpus_topic != topic_id:
            corpus, corpus_topic = topic_corpus(topic), topic_id
        now, prev, prev2 = topic.round(l), topic.round(l - 1), topic.round(l - 2)
        m = len(topic.queries)
        stats = corpus.stats(l)
        # each vector computed once against stats(l); only this run calls it
        vector = cache(lambda r, pub: tfidf_vector(corpus.doc(r, pub), stats))
        # centroid of the previous round's distinct winning documents
        distinct_winners = sorted({prev.winner(j) for j in range(m)})
        centroid: dict[str, float] = {}
        for pub in distinct_winners:
            for t, v in vector(l - 1, pub).items():
                centroid[t] = centroid.get(t, 0.0) + v
        centroid = {t: v / len(distinct_winners) for t, v in centroid.items()}

        # what no query changes: a candidate's term sets, vectors, now-prev
        # cosine and four sections; like `vector`, only this run calls it
        @cache
        def doc_side(pub: str) -> tuple:
            doc_now, doc_prev = corpus.doc(l, pub), corpus.doc(l - 1, pub)
            now_vec, prev_vec = vector(l, pub), vector(l - 1, pub)
            ranks = [prev.rank_of(pub, j) for j in range(m)]
            changes = [_scaled_rank_change(prev2.rank_of(pub, j), ranks[j]) for j in range(m)]
            sections = {
                "topic_macro": (cosine(now_vec, centroid), cosine(prev_vec, centroid)),
                "topic_rank": (float(min(ranks)), float(_lower_median(ranks)), float(max(ranks))),
                "prev_change": (min(changes), _lower_median(changes), max(changes)),
                "len": (float(doc_now.length),),
            }
            terms = frozenset(doc_now.term_counts), frozenset(doc_prev.term_counts)
            return terms, (now_vec, prev_vec), cosine(now_vec, prev_vec), sections

        for triple in run:
            q = triple.query_index
            query_terms = frozenset(tokenize(topic.queries[q]).tokens)
            stop_terms = frozenset(stopwords) - query_terms  # query terms take precedence
            winner_prev = prev.winner(q)
            winner_terms = frozenset(corpus.doc(l - 1, winner_prev).term_counts)
            winner_vec = vector(l - 1, winner_prev)

            candidates = [pub for pub in prev.rankings[q] if pub != winner_prev]
            for pub in candidates:
                (now_terms, prev_terms), (now_vec, prev_vec), now_prev, sections = doc_side(pub)
                other_terms = (now_terms | prev_terms | winner_terms) - query_terms - stop_terms
                micro: list[float] = []
                for group in (query_terms, stop_terms, other_terms):
                    micro.extend(_micro_counts(now_terms, prev_terms, winner_terms, group))
                own_rank = float(prev.rank_of(pub, q))
                row = {
                    **sections,
                    "micro": micro,
                    "macro": (now_prev, cosine(now_vec, winner_vec), cosine(prev_vec, winner_vec)),
                    "query_rank": tuple(float(rank == own_rank) for rank in sections["topic_rank"]),
                }
                out.append(
                    PredictionInstance(
                        topic_id=topic.topic_id,
                        query_index=q,
                        round_index=l,
                        publisher=pub,
                        features=tuple(chain.from_iterable(row[name] for name in SECTIONS)),
                        label=now.winner(q) == pub,
                    )
                )
    return out


def normalize_per_query(instances: Sequence[PredictionInstance]) -> list[PredictionInstance]:
    """Min-max scale each feature within its (topic, query, round) group.

    Constant features map to zero; labels are untouched.  Idempotent.
    """
    out = []
    for rows in _group_rows(instances).values():
        members = [instances[i] for i in rows]
        cols = list(zip(*(inst.features for inst in members)))
        lo = [min(col) for col in cols]
        hi = [max(col) for col in cols]
        for inst in members:
            feats = tuple(
                (v - l) / (h - l) if h > l else 0.0
                for v, l, h in zip(inst.features, lo, hi)
            )
            out.append(replace(inst, features=feats))
    return out


def mask_sections(
    instances: Sequence[PredictionInstance], keep: Sequence[str]
) -> list[PredictionInstance]:
    """Zero-out every feature section not named in `keep` (ablation aid)."""
    slices = section_slices()
    unknown = set(keep) - set(slices)
    if unknown:
        raise DomainError(f"unknown feature sections: {sorted(unknown)}")
    keep_idx = {i for name in keep for i in range(slices[name].start, slices[name].stop)}
    out = []
    for inst in instances:
        feats = tuple(v if i in keep_idx else 0.0 for i, v in enumerate(inst.features))
        out.append(replace(inst, features=feats))
    return out


# --- prediction and baselines ------------------------------------------------


def _pick(scores: Sequence[float], publishers: Sequence[str]) -> str:
    """Highest score wins by exact equality; ties go to the lowest publisher id."""
    best = min(range(len(publishers)), key=lambda i: (-scores[i], publishers[i]))
    return publishers[best]


def predict_winner(model: LinearModel, group: Sequence[PredictionInstance]) -> str:
    """Highest decision score wins; ties go to the lowest publisher id."""
    if not group:
        raise DomainError("empty candidate group")
    X = np.array([inst.features for inst in group], dtype=np.float64)
    return _pick(model.decision_scores(X), [inst.publisher for inst in group])


@dataclass(frozen=True)
class GroupPrediction:
    group_key: tuple
    predicted_positive: frozenset[str]
    winner: str
    candidates: tuple[str, ...]


def _group_rows(instances: Sequence[PredictionInstance]) -> dict[tuple, list[int]]:
    """Row positions of each candidate group, groups in first-seen order."""
    rows: dict[tuple, list[int]] = {}
    for i, inst in enumerate(instances):
        rows.setdefault(inst.group_key, []).append(i)
    return rows


def _candidate_groups(instances: Sequence[PredictionInstance]) -> list[tuple]:
    """(key, row positions, candidates, winner) of each group, in key order."""
    out = []
    for key, rows in sorted(_group_rows(instances).items()):
        members = [instances[i] for i in rows]
        winners = [inst.publisher for inst in members if inst.label]
        if len(winners) != 1:
            raise DomainError(f"group {key} has {len(winners)} positive labels, expected 1")
        out.append((key, rows, tuple(inst.publisher for inst in members), winners[0]))
    return out


BASELINE_NAMES = ("rand", "qmaj", "tmaj", "allw", "alll")


def baselines(
    log: CompetitionLog,
    instances: Sequence[PredictionInstance],
    seed: int,
) -> dict[str, list[GroupPrediction]]:
    """The five reference predictors over the same candidate groups.

    rand picks uniformly; qmaj/tmaj pick the candidate with most past wins
    for the query / for all the topic's queries (ties broken randomly);
    allw marks every candidate a winner, alll none.
    """
    rng = random.Random(seed)
    out: dict[str, list[GroupPrediction]] = {name: [] for name in BASELINE_NAMES}
    for key, _, candidates, winner in _candidate_groups(instances):
        topic_id, q, l = key
        topic = log.topic(topic_id)

        def past_wins(pub: str, queries: Sequence[int]) -> int:
            return sum(
                1
                for r in range(1, l)
                for j in queries
                if topic.round(r).winner(j) == pub
            )

        def majority(queries: Sequence[int]) -> str:
            wins = {pub: past_wins(pub, queries) for pub in candidates}
            top = max(wins.values())
            tied = [pub for pub in candidates if wins[pub] == top]
            return rng.choice(tied)

        out["rand"].append(
            GroupPrediction(key, frozenset([rng.choice(candidates)]), winner, candidates)
        )
        out["qmaj"].append(
            GroupPrediction(key, frozenset([majority([q])]), winner, candidates)
        )
        out["tmaj"].append(
            GroupPrediction(
                key, frozenset([majority(range(len(topic.queries)))]), winner, candidates
            )
        )
        out["allw"].append(GroupPrediction(key, frozenset(candidates), winner, candidates))
        out["alll"].append(GroupPrediction(key, frozenset(), winner, candidates))
    return out


def _layout(instances: Sequence[PredictionInstance]) -> tuple[np.ndarray, np.ndarray, list]:
    """(X, y, groups): rows and labels in input order, and :func:`_candidate_groups`."""
    X = np.array([inst.features for inst in instances], dtype=np.float64)
    y = np.array([1.0 if inst.label else 0.0 for inst in instances])
    return X, y, _candidate_groups(instances)


def _predict_groups(model: LinearModel, layout: tuple) -> list[GroupPrediction]:
    """Each group's predicted winner, from one product over the layout's rows."""
    X, _, groups = layout
    scores = model.decision_scores(X).tolist()
    return [
        GroupPrediction(key, frozenset([_pick([scores[i] for i in rows], cands)]), winner, cands)
        for key, rows, cands, winner in groups
    ]


def model_predictions(
    model: LinearModel, instances: Sequence[PredictionInstance]
) -> list[GroupPrediction]:
    """One prediction per candidate group, in key order, as :func:`predict_winner` picks."""
    return _predict_groups(model, _layout(instances)) if instances else []


def evaluate(predictions: Sequence[GroupPrediction]) -> tuple[float, float]:
    """(accuracy, F1) macro-averaged over candidate groups.

    Per group, every candidate is classified winner/loser; accuracy is
    the fraction classified correctly.  Precision/recall target the
    winner class, and a group that predicts no winners scores F1 = 0.
    """
    if not predictions:
        raise DomainError("nothing to evaluate")
    accs = []
    f1s = []
    for gp in predictions:
        k = len(gp.candidates)
        tp = 1 if gp.winner in gp.predicted_positive else 0
        n_pos = len(gp.predicted_positive)
        correct = k - n_pos - 1 + 2 * tp
        accs.append(correct / k)
        if n_pos == 0 or tp == 0:
            f1s.append(0.0)
        else:
            precision = tp / n_pos
            recall = tp / 1.0
            f1s.append(2 * precision * recall / (precision + recall))
    return sum(accs) / len(accs), sum(f1s) / len(f1s)


# --- cross-validation ---------------------------------------------------------


@dataclass(frozen=True)
class FoldReport:
    test_round: int
    selected_param: float
    acc: float
    f1: float


@dataclass(frozen=True)
class CvReport:
    folds: tuple[FoldReport, ...]
    mean_acc: float
    mean_f1: float
    params: tuple[float, ...]


def cross_validate(
    instances: Sequence[PredictionInstance],
    params: Sequence[float] = (1.0, 10.0, 50.0, 100.0),
    seed: int = 0,
) -> CvReport:
    """Leave-one-round-out evaluation with nested parameter selection.

    The outer loop holds out each round; the inner loop leave-one-round-
    out-validates every parameter on the remaining rounds and keeps the
    one with the best mean accuracy (earliest grid entry on ties).  The
    winning parameter is refit on all non-test rounds and scored on the
    held-out round.

    The inner training set ``rounds - {test, val}`` is the same for the
    pair (test, val) and the pair (val, test), and every parameter shares
    it.  Each distinct inner training set is therefore fit once, for all
    parameters together; with R rounds that is R(R-1)/2 batched fits plus
    R single-parameter refits, with results identical to fitting every
    (fold, parameter) pair on its own.

    Each round's rows and candidate groups are built once, and a model
    scores a round with one product.  ``seed`` is only a label: it lands
    in each model's ``meta``, which the report does not show.
    """
    rounds = sorted({inst.round_index for inst in instances})
    if len(rounds) < 3:
        raise DomainError(f"cross-validation needs >= 3 rounds, got {len(rounds)}")
    layouts = {r: _layout([inst for inst in instances if inst.round_index == r]) for r in rounds}

    def training_set(fit_rounds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        # rounds in ascending order, each round's rows in input order
        return (
            np.concatenate([layouts[r][0] for r in fit_rounds]),
            np.concatenate([layouts[r][1] for r in fit_rounds]),
        )

    # sorted fit rounds -> one model per parameter, or None without both
    # classes; an entry serves exactly the pairs (test, val) and (val, test)
    inner_models: dict[tuple[int, ...], Optional[tuple[LinearModel, ...]]] = {}

    folds = []
    for test_round in rounds:
        train_rounds = [r for r in rounds if r != test_round]
        accs_per_param: list[list[float]] = [[] for _ in params]
        for val_round in train_rounds:
            fit_rounds = tuple(r for r in train_rounds if r != val_round)
            if fit_rounds in inner_models:
                models = inner_models.pop(fit_rounds)
            else:
                X, y = training_set(fit_rounds)
                both = bool(np.any(y == 1.0) and np.any(y == 0.0))
                models = train_lreg_grid(X, y, params, seed=seed) if both else None
                inner_models[fit_rounds] = models
            if models is None:
                continue
            for accs, model in zip(accs_per_param, models):
                accs.append(evaluate(_predict_groups(model, layouts[val_round]))[0])
        mean_acc_per_param = [sum(accs) / len(accs) if accs else 0.0 for accs in accs_per_param]
        best_idx = max(range(len(params)), key=lambda i: (mean_acc_per_param[i], -i))
        best_param = params[best_idx]
        model = train_lreg(*training_set(train_rounds), best_param, seed=seed)
        acc, f1 = evaluate(_predict_groups(model, layouts[test_round]))
        folds.append(FoldReport(test_round, best_param, acc, f1))

    return CvReport(
        folds=tuple(folds),
        mean_acc=sum(f.acc for f in folds) / len(folds),
        mean_f1=sum(f.f1 for f in folds) / len(folds),
        params=tuple(params),
    )


# --- CSV I/O ------------------------------------------------------------------

CSV_ID_COLUMNS = ("topic_id", "query_index", "round_index", "publisher")
_CSV_HEADER = [*CSV_ID_COLUMNS, *FEATURE_NAMES, "label"]


def instances_to_csv(path, instances: Sequence[PredictionInstance]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for inst in instances:
            writer.writerow(
                [inst.topic_id, inst.query_index, inst.round_index, inst.publisher]
                + [repr(v) for v in inst.features]
                + [int(inst.label)]
            )


def instances_from_csv(path) -> list[PredictionInstance]:
    """Read an instance CSV; a malformed row is a DomainError naming its line."""
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != _CSV_HEADER:
            raise DomainError("instance CSV header does not match the 27-feature layout")
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(_CSV_HEADER):
                raise DomainError(f"{where}: {len(row)} columns, expected {len(_CSV_HEADER)}")
            if row[-1] not in ("0", "1"):
                raise DomainError(f"{where}: label {row[-1]!r} is not 0 or 1")
            try:
                features = tuple(float(v) for v in row[4 : 4 + FEATURE_DIM])
                finite = np.isfinite(features)
                if not finite.all():
                    raise ValueError(f"feature {FEATURE_NAMES[finite.argmin()]} is not finite")
                out.append(
                    PredictionInstance(
                        topic_id=row[0],
                        query_index=int(row[1]),
                        round_index=int(row[2]),
                        publisher=row[3],
                        features=features,
                        label=row[-1] == "1",
                    )
                )
            except ValueError as exc:
                raise DomainError(f"{where}: {exc}") from None
    return out
