import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankcomp.competition_log import (
    CompetitionLog,
    GameHistory,
    LogFormatError,
    RoundRecord,
    SynthesisConfig,
    document_features,
    filter_for_prediction,
    load_log,
    report_feature_trajectories,
    report_ranking_agreement,
    report_win_spread,
    save_log,
    synthesize,
    topic_corpus,
)
from rankcomp.numeric import DomainError
from rankcomp.stopwords import DEFAULT_STOPWORDS
from rankcomp.text_features import (
    FEATURE_NAMES,
    CorpusStats,
    compute_features,
    tfidf_cosine,
    tokenize,
)


def tiny_history(topic_id="T0", texts=None, rankings=None, bots=frozenset()):
    texts = texts or {"alice": "cat dog", "bruno": "fish fish"}
    pubs = sorted(texts)
    rankings = rankings or (tuple(pubs), tuple(reversed(pubs)))
    return GameHistory(
        topic_id=topic_id,
        queries=("cat", "fish"),
        rounds=(
            RoundRecord(
                round_index=1,
                documents={p: (texts[p], p in bots) for p in pubs},
                rankings=rankings,
            ),
        ),
    )


def history_line(round_fields=None, **fields):
    """A valid one-round, one-query history as a log line, with fields replaced."""
    rnd = {"round_index": 1, "documents": {"a": {"text": "x", "is_bot": False}},
           "rankings": [["a"]], **(round_fields or {})}
    return json.dumps({"topic_id": "T", "queries": ["q"], "rounds": [rnd], **fields})


class TestPersistence:
    def test_empty_file_gives_empty_log(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("", encoding="utf-8")
        log = load_log(path)
        assert log.topics == ()

    def test_round_trip_is_byte_identical(self, tmp_path):
        log = CompetitionLog(topics=(tiny_history(),), metadata={"ranker": "desk"})
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_log(p1, log)
        save_log(p2, load_log(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_duplicate_publisher_in_ranking_is_reported_with_location(self, tmp_path):
        history = tiny_history()
        data = {
            "topic_id": "T9",
            "queries": ["cat", "fish"],
            "rounds": [
                {
                    "round_index": 1,
                    "documents": {
                        "alice": {"text": "x", "is_bot": False},
                        "bruno": {"text": "y", "is_bot": False},
                    },
                    "rankings": [["alice", "alice"], ["alice", "bruno"]],
                }
            ],
        }
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")
        with pytest.raises(LogFormatError) as err:
            load_log(path)
        assert "line 1" in str(err.value)
        assert "T9" in str(err.value)

    def test_non_contiguous_rounds_rejected(self, tmp_path):
        data = {
            "topic_id": "T1",
            "queries": ["q"],
            "rounds": [
                {
                    "round_index": 2,
                    "documents": {"a": {"text": "x", "is_bot": False}},
                    "rankings": [["a"]],
                }
            ],
        }
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")
        with pytest.raises(LogFormatError):
            load_log(path)

    @pytest.mark.parametrize("text", [5, None, ["x"]])
    def test_non_string_document_text_is_reported_with_location(self, tmp_path, text):
        data = {
            "topic_id": "T2",
            "queries": ["q"],
            "rounds": [
                {
                    "round_index": 1,
                    "documents": {"a": {"text": text, "is_bot": False}},
                    "rankings": [["a"]],
                }
            ],
        }
        path = tmp_path / "bad.jsonl"
        path.write_text("\n" + json.dumps(data) + "\n", encoding="utf-8")
        with pytest.raises(LogFormatError, match="line 2: .*'a' text is not a string"):
            load_log(path)

    def test_non_string_ranking_entry_is_reported_with_location(self, tmp_path):
        data = {
            "topic_id": "T3",
            "queries": ["q"],
            "rounds": [
                {
                    "round_index": 1,
                    "documents": {"a": {"text": "x", "is_bot": False}},
                    "rankings": [["a", 1]],
                }
            ],
        }
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")
        with pytest.raises(LogFormatError, match="line 1: topic 'T3' round 1 ranks a publisher"):
            load_log(path)

    @pytest.mark.parametrize("field, value, message", [
        ("is_bot", "false", "'a' is_bot is not a boolean"),
        ("is_bot", 0, "'a' is_bot is not a boolean"),
        ("round_index", 1.9, "round_index 1.9 is not an integer"),
        ("round_index", True, "round_index True is not an integer"),
        ("round_index", "1", "round_index '1' is not an integer"),
        ("rankings", ["a"], "round 1 query 0 ranking is not a list"),
        ("rankings", [{"a": 1}], "round 1 query 0 ranking is not a list"),
    ])
    def test_log_field_types_are_not_coerced(self, tmp_path, field, value, message):
        rnd = {
            "round_index": 1,
            "documents": {"a": {"text": "x", "is_bot": False}},
            "rankings": [["a"]],
        }
        if field == "is_bot":
            rnd["documents"]["a"]["is_bot"] = value
        else:
            rnd[field] = value
        data = {"topic_id": "T4", "queries": ["q"], "rounds": [rnd]}
        path = tmp_path / "bad.jsonl"
        path.write_text("\n" + json.dumps(data) + "\n", encoding="utf-8")
        with pytest.raises(LogFormatError, match=f"line 2: topic 'T4' .*{message}"):
            load_log(path)

    @pytest.mark.parametrize(
        "line",
        [
            "5",
            "[1, 2]",
            json.dumps({"topic_id": "T", "queries": ["q"],
                        "rounds": [{"round_index": 1, "documents": [], "rankings": []}]}),
            # fields of the wrong JSON type, and a round with no documents
            history_line(topic_id=None),
            history_line(topic_id=5),
            history_line({"rankings": [["a"], ["a"]]}, queries="ab"),
            history_line(queries={"q": 1}),
            history_line(rounds={}),
            json.dumps({"_meta": 5}),
            json.dumps({"_meta": [1]}),
            history_line({"documents": {}, "rankings": [[]]}),
        ],
    )
    def test_non_object_lines_are_format_errors(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(LogFormatError, match="line 1"):
            load_log(path)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(2, 4), st.integers(0, 10_000))
    def test_round_trip_identity_on_generated_logs(self, topics, rounds, pubs, seed):
        config = SynthesisConfig(
            topics=topics, rounds=rounds, publishers=pubs, queries_per_topic=2
        )
        log = synthesize(config, seed)
        import io, tempfile, os

        fd, path = tempfile.mkstemp()
        os.close(fd)
        try:
            save_log(path, log)
            reloaded = load_log(path)
            assert reloaded.topics == log.topics
        finally:
            os.unlink(path)


class TestFilterForPrediction:
    def _three_round_history(self, winners_q0):
        # one query; winners per round dictated by rankings
        pubs = ["ann", "bob", "cat"]
        rounds = []
        for idx, winner in enumerate(winners_q0, start=1):
            order = [winner] + [p for p in pubs if p != winner]
            rounds.append(
                RoundRecord(
                    round_index=idx,
                    documents={p: (f"text {p} {idx}", p == "cat") for p in pubs},
                    rankings=(tuple(order),),
                )
            )
        return CompetitionLog(
            topics=(
                GameHistory(topic_id="T", queries=("q",), rounds=tuple(rounds)),
            )
        )

    def test_round_lookup_refuses_indices_outside_the_history(self):
        topic = self._three_round_history(["ann", "ann", "bob"]).topics[0]
        assert topic.round(1) is topic.rounds[0] and topic.round(3) is topic.rounds[2]
        for index in (0, -1, 4):
            with pytest.raises(DomainError, match=rf"topic 'T': round {index} outside 1\.\.3"):
                topic.round(index)

    def test_winner_change_is_kept(self):
        log = self._three_round_history(["ann", "ann", "bob"])
        triples = filter_for_prediction(log)
        assert [(t.query_index, t.round_index) for t in triples] == [(0, 3)]

    def test_unchanged_winner_is_dropped(self):
        log = self._three_round_history(["ann", "bob", "bob"])
        assert filter_for_prediction(log) == []

    def test_bot_winner_is_dropped(self):
        log = self._three_round_history(["ann", "ann", "cat"])  # cat is the bot
        assert filter_for_prediction(log) == []

    def test_stable_under_publisher_relabeling(self):
        log = self._three_round_history(["ann", "ann", "bob"])
        relabel = {"ann": "pub9", "bob": "pub1", "cat": "pub5"}
        topics = []
        for t in log.topics:
            rounds = tuple(
                RoundRecord(
                    round_index=r.round_index,
                    documents={relabel[p]: doc for p, doc in r.documents.items()},
                    rankings=tuple(tuple(relabel[p] for p in rk) for rk in r.rankings),
                )
                for r in t.rounds
            )
            topics.append(GameHistory(t.topic_id, t.queries, rounds))
        triples = filter_for_prediction(CompetitionLog(topics=tuple(topics)))
        assert [(t.query_index, t.round_index) for t in triples] == [(0, 3)]


class TestReports:
    def test_single_dominant_publisher_wins_all_queries(self):
        pubs = ["w", "x", "y"]
        rounds = tuple(
            RoundRecord(
                round_index=r,
                documents={p: (f"d {p}", False) for p in pubs},
                rankings=(("w", "x", "y"), ("w", "y", "x")),
            )
            for r in range(1, 4)
        )
        log = CompetitionLog(
            topics=(GameHistory("T", ("q0", "q1"), rounds),)
        )
        data = report_win_spread(log)
        assert data["rows"][-1].wins == 2
        assert data["rows"][-1].doc_percent == 100.0
        assert data["rows"][0].doc_percent == 0.0

    def test_distinct_winner_per_query(self):
        pubs = ["w", "x"]
        rounds = (
            RoundRecord(
                round_index=1,
                documents={p: (f"d {p}", False) for p in pubs},
                rankings=(("w", "x"), ("x", "w")),
            ),
        )
        log = CompetitionLog(topics=(GameHistory("T", ("q0", "q1"), rounds),))
        data = report_win_spread(log)
        assert data["rows"][0].doc_percent == 100.0  # everyone won exactly 1
        assert data["rows"][0].mean_nonwon_rank == 2.0

    def test_hand_built_two_topic_fixture(self):
        pubs = ["a", "b"]

        def rounds_for(rankings):
            return (
                RoundRecord(
                    round_index=1,
                    documents={p: (f"d {p}", False) for p in pubs},
                    rankings=rankings,
                ),
            )

        log = CompetitionLog(
            topics=(
                GameHistory("T1", ("q0", "q1"), rounds_for((("a", "b"), ("a", "b")))),
                GameHistory("T2", ("q0", "q1"), rounds_for((("a", "b"), ("b", "a")))),
            )
        )
        data = report_win_spread(log)
        # T1: a wins both (one x=2 doc); T2: a and b win one each (two x=1)
        assert data["observations"] == 3
        assert data["rows"][0].doc_percent == pytest.approx(100 * 2 / 3)
        assert data["rows"][1].doc_percent == pytest.approx(100 / 3)
        assert data["rows"][0].mean_nonwon_rank == 2.0

    def test_agreement_identical_rankings(self):
        pubs = ["a", "b", "c"]
        rounds = tuple(
            RoundRecord(
                round_index=r,
                documents={p: ("t " + p, False) for p in pubs},
                rankings=(("a", "b", "c"), ("a", "b", "c")),
            )
            for r in range(1, 3)
        )
        log = CompetitionLog(topics=(GameHistory("T", ("q0", "q1"), rounds),))
        values = report_ranking_agreement(log)
        assert values == {1: pytest.approx(1.0), 2: pytest.approx(1.0)}

    def test_agreement_reversed_pair_matches_oracle(self):
        from test_text_features import rbo_ext_oracle

        pubs = ["a", "b", "c"]
        rounds = (
            RoundRecord(
                round_index=1,
                documents={p: ("t " + p, False) for p in pubs},
                rankings=(("a", "b", "c"), ("c", "b", "a")),
            ),
        )
        log = CompetitionLog(topics=(GameHistory("T", ("q0", "q1"), rounds),))
        values = report_ranking_agreement(log)
        assert values[1] == pytest.approx(
            rbo_ext_oracle(["a", "b", "c"], ["c", "b", "a"], 0.9), abs=1e-12
        )

    def test_agreement_refuses_single_query_topics(self):
        pubs = ["a", "b"]
        rounds = (
            RoundRecord(
                round_index=1,
                documents={p: ("t", False) for p in pubs},
                rankings=(("a", "b"),),
            ),
        )
        log = CompetitionLog(topics=(GameHistory("T", ("q",), rounds),))
        with pytest.raises(DomainError):
            report_ranking_agreement(log)


class TestSynthesize:
    def test_seed_determinism(self, tmp_path):
        config = SynthesisConfig(topics=2, rounds=4)
        a, b = synthesize(config, seed=99), synthesize(config, seed=99)
        assert a.topics == b.topics
        assert a.topics != synthesize(config, seed=100).topics

    def test_static_publishers_keep_their_documents(self):
        config = SynthesisConfig(
            topics=1,
            rounds=5,
            strategy_mix=(("static", 5),),
            publishers=5,
        )
        log = synthesize(config, seed=3)
        topic = log.topics[0]
        first = topic.rounds[0]
        for rnd in topic.rounds[1:]:
            assert rnd.documents == first.documents
            assert rnd.rankings == first.rankings

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"topics": 0}, "topics must be an integer >= 1"),
            ({"rounds": "x"}, "rounds must be an integer"),
            ({"publishers": True}, "publishers must be an integer"),
            ({"queries_per_topic": 0}, "queries_per_topic must be an integer >= 1"),
            ({"vocabulary_size": 10}, "vocabulary_size must be an integer >= 24"),
            ({"doc_length": 2.5}, "doc_length must be an integer"),
            ({"strategy_mix": (("mimic_winner", 5),)}, "unknown strategy 'mimic_winner'"),
            ({"strategy_mix": (("static", -1),)}, "'static' count must be an integer >= 0"),
            ({"scorer_weights": (("bm26", 1.0),)}, "unknown scorer feature 'bm26'"),
            ({"scorer_weights": (("bm25", "1"),)}, "weight for 'bm25' must be a number"),
            ({"scorer_weights": (("bm25", float("nan")),)}, "weight for 'bm25' must be finite"),
            ({"scorer_weights": (("len", float("inf")),)}, "weight for 'len' must be finite"),
            ({"scorer_weights": (("bm25", 10**400),)}, "weight for 'bm25' must be finite, got an"),
        ],
    )
    def test_invalid_config_is_a_domain_error(self, kwargs, message):
        with pytest.raises(DomainError, match=message):
            SynthesisConfig(**kwargs)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"topicz": 4}, r"unknown synthesis config keys \['topicz'\]"),
            ({"topics": "4"}, "topics must be an integer"),
            ({"rounds": 2.0}, "rounds must be an integer"),
            ({"strategy_mix": {"mimic_winner": 5}}, "unknown strategy"),
            ({"strategy_mix": [["static", 1]]}, "strategy_mix must be a JSON object"),
            ([], "must be a JSON object"),
        ],
    )
    def test_from_dict_is_strict(self, data, message):
        with pytest.raises(DomainError, match=message):
            SynthesisConfig.from_dict(data)

    def test_from_dict_reads_the_documented_config(self):
        data = {
            "topics": 2, "rounds": 3, "queries_per_topic": 2, "publishers": 4,
            "strategy_mix": {"mimic-winner": 2, "static": 1, "random-edit": 1},
            "vocabulary_size": 40, "doc_length": 20,
            "scorer_weights": {"bm25": 1, "tf": 0.5},
        }
        config = SynthesisConfig.from_dict(data)
        assert config == SynthesisConfig(
            topics=2, rounds=3, queries_per_topic=2, publishers=4,
            strategy_mix=(("mimic-winner", 2), ("static", 1), ("random-edit", 1)),
            vocabulary_size=40, doc_length=20,
            scorer_weights=(("bm25", 1.0), ("tf", 0.5)),
        )
        assert isinstance(config.scorer_weights[0][1], float)
        assert SynthesisConfig.from_dict({}) == SynthesisConfig()

    def test_desk_ranks_by_weighted_compute_features(self):
        # document-only features exercise the quality half of the desk scorer
        weights = (("bm25", 1.0), ("ent", 0.5), ("fracstop", -2.0), ("len", 0.01))
        log = synthesize(SynthesisConfig(topics=3, rounds=4, scorer_weights=weights), seed=5)
        desk_stopwords = frozenset(sorted(DEFAULT_STOPWORDS)[:20])
        for topic in log.topics:
            for rnd in topic.rounds:
                stats = prefix_stats_reference(topic, rnd.round_index)
                for q, query_text in enumerate(topic.queries):
                    query = tokenize(query_text)

                    def key(pub):
                        feats = compute_features(
                            tokenize(rnd.text_of(pub)), query, stats, desk_stopwords
                        )
                        return -sum(w * getattr(feats, name) for name, w in weights), pub

                    assert rnd.rankings[q] == tuple(sorted(rnd.documents, key=key))

    def test_generated_logs_satisfy_schema(self):
        log = synthesize(SynthesisConfig(topics=3, rounds=4), seed=17)
        for topic in log.topics:
            pubs = frozenset(topic.rounds[0].documents)
            for idx, rnd in enumerate(topic.rounds, start=1):
                assert rnd.round_index == idx
                assert frozenset(rnd.documents) == pubs
                for ranking in rnd.rankings:
                    assert sorted(ranking) == sorted(pubs)

    def test_mimics_move_toward_previous_winner(self):
        config = SynthesisConfig(
            topics=4,
            rounds=8,
            strategy_mix=(("mimic-winner", 4), ("static", 1)),
            publishers=5,
        )
        log = synthesize(config, seed=23)
        early, late = [], []
        for topic in log.topics:
            docs = [
                tokenize(r.text_of(p))
                for r in topic.rounds
                for p in sorted(r.documents)
            ]
            stats = CorpusStats.from_documents(docs)
            for l, bucket in ((2, early), (len(topic.rounds), late)):
                prev = topic.round(l - 1)
                now = topic.round(l)
                winner_doc = tokenize(prev.text_of(prev.winner(0)))
                for pub in sorted(now.documents):
                    if pub == prev.winner(0):
                        continue
                    bucket.append(
                        tfidf_cosine(tokenize(now.text_of(pub)), winner_doc, stats)
                    )
        assert sum(late) / len(late) > sum(early) / len(early)


# --- the per-topic text structure ------------------------------------------------


def prefix_stats_reference(topic, l):
    """Rounds 1..l tokenized afresh and counted from scratch."""
    return CorpusStats.from_documents(
        tokenize(topic.round(r).text_of(pub))
        for r in range(1, l + 1)
        for pub in sorted(topic.round(r).documents)
    )


def feature_rows_reference(log, stopwords=DEFAULT_STOPWORDS):
    """(topic id, round, query, publisher, features) with per-round from_documents."""
    rows = []
    for topic in log.topics:
        for rnd in topic.rounds:
            stats = prefix_stats_reference(topic, rnd.round_index)
            for q, query_text in enumerate(topic.queries):
                for pub in sorted(rnd.documents):
                    feats = compute_features(
                        tokenize(rnd.text_of(pub)), tokenize(query_text), stats, stopwords
                    )
                    rows.append((topic.topic_id, rnd.round_index, q, pub, feats))
    return rows


def hand_history_with_empty_document():
    return GameHistory(
        topic_id="E",
        queries=("cat", "dog"),
        rounds=(
            RoundRecord(
                round_index=1,
                documents={"a": ("", False), "b": ("Cat cat, DOG!", False), "c": ("_", True)},
                rankings=(("b", "a", "c"), ("b", "c", "a")),
            ),
        ),
    )


def assert_same_stats(got, want):
    assert got == want
    assert repr(got) == repr(want)
    assert type(got.avg_doc_len) is type(want.avg_doc_len)


class TestTopicCorpus:
    @pytest.mark.parametrize(
        "config, seed",
        [
            (SynthesisConfig(topics=3, rounds=6), 41),
            (SynthesisConfig(topics=2, rounds=4, publishers=12, queries_per_topic=2), 42),
            (SynthesisConfig(topics=2, rounds=1, publishers=2), 43),
        ],
    )
    def test_prefix_stats_equal_from_scratch_on_synthetic_logs(self, config, seed):
        log = synthesize(config, seed=seed)
        for topic in log.topics:
            corpus = topic_corpus(topic)
            for l in range(1, len(topic.rounds) + 1):
                assert_same_stats(corpus.stats(l), prefix_stats_reference(topic, l))
                for pub, (text, _) in topic.round(l).documents.items():
                    assert corpus.doc(l, pub) == tokenize(text)

    def test_prefix_stats_with_an_empty_document_and_one_round(self):
        topic = hand_history_with_empty_document()
        corpus = topic_corpus(topic)
        stats = corpus.stats(1)
        assert_same_stats(stats, prefix_stats_reference(topic, 1))
        assert stats.doc_count == 3
        assert stats.avg_doc_len == 1.0
        assert stats.df == {"cat": 1, "dog": 1}
        assert corpus.doc(1, "a").length == 0

    def test_rounds_outside_the_corpus_are_refused(self):
        corpus = topic_corpus(hand_history_with_empty_document())
        for l in (0, 2):
            with pytest.raises(DomainError):
                corpus.stats(l)

    def test_document_features_equal_per_round_reference(self):
        log = synthesize(SynthesisConfig(topics=3, rounds=5), seed=44)
        got = [
            (topic.topic_id, rnd.round_index, q, pub, feats)
            for topic, rnd, q, pub, feats in document_features(log)
        ]
        assert got == feature_rows_reference(log)

    def test_trajectories_equal_per_round_reference(self):
        log = synthesize(SynthesisConfig(topics=3, rounds=5), seed=45)
        acc = {}
        for topic_id, l, q, pub, feats in feature_rows_reference(log):
            rnd = log.topic(topic_id).round(l)
            group = "winner" if rnd.winner(q) == pub else "loser"
            acc.setdefault((l, group), []).append(feats.as_tuple())
        want = {}
        for (l, group), rows in sorted(acc.items()):
            means = [sum(col) / len(col) for col in zip(*rows)]
            want.setdefault(l, {})[group] = dict(zip(FEATURE_NAMES, means))
        assert repr(report_feature_trajectories(log)) == repr(want)


class TestTopicIndex:
    def test_lookup_and_unknown_id(self):
        log = CompetitionLog(topics=(tiny_history("A"), tiny_history("B")))
        assert log.topic("B") is log.topics[1]
        with pytest.raises(DomainError, match="unknown topic"):
            log.topic("C")

    def test_first_history_wins_on_repeated_ids(self):
        first = tiny_history("A")
        second = tiny_history("A", texts={"x": "y", "z": "w"})
        log = CompetitionLog(topics=(first, second))
        assert log.topic("A") is first

    def test_index_stays_out_of_equality_repr_and_survives_pickling(self):
        topics = (tiny_history("A"), tiny_history("B"))
        log = CompetitionLog(topics=topics, metadata={"k": 1})
        assert log == CompetitionLog(topics=topics, metadata={"k": 1})
        assert repr(log) == (
            f"CompetitionLog(topics={topics!r}, metadata={{'k': 1}})"
        )
        restored = pickle.loads(pickle.dumps(log))
        assert restored == log
        assert restored.topic("B") == topics[1]
