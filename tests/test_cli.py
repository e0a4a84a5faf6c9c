import json

import pytest
from click.testing import CliRunner

from rankcomp.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


class TestGameCommands:
    def test_exists_json_shape(self, runner):
        res = invoke(runner, ["game", "exists", "--n", "2", "--m", "3", "--peak", "0.5"])
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["exists"] is True
        assert data["threshold"] == 0.5

    def test_exists_boundary_false(self, runner):
        res = invoke(runner, ["game", "exists", "--n", "2", "--m", "3", "--peak", "0.51"])
        assert json.loads(res.output)["exists"] is False

    def test_construct_verify_pipeline(self, runner, tmp_path):
        prof = tmp_path / "eq.json"
        res = invoke(
            runner,
            ["game", "construct", "--n", "2", "--m", "3", "--peak", "0.45",
             "--check", "--out", str(prof)],
        )
        assert res.exit_code == 0
        assert json.loads(res.output)["verified"] is True
        res = invoke(runner, ["game", "verify", "--profile", str(prof)])
        assert res.exit_code == 0
        assert json.loads(res.output)["is_nash"] is True

    def test_construct_verify_pipeline_past_sixteen_queries(self, runner, tmp_path):
        prof = tmp_path / "eq.json"
        res = invoke(
            runner,
            ["game", "construct", "--n", "2", "--m", "16", "--peak", "1/16",
             "--check", "--out", str(prof)],
        )
        assert res.exit_code == 0
        assert json.loads(res.output)["verified"] is True
        res = invoke(runner, ["game", "verify", "--profile", str(prof)])
        assert res.exit_code == 0
        assert json.loads(res.output)["is_nash"] is True

    def test_construct_refusal_is_a_domain_error(self, runner):
        res = runner.invoke(main, ["game", "construct", "--n", "2", "--m", "3",
                                   "--peak", "0.51"])
        assert res.exit_code == 1

    def test_verify_rejects_invalid_profile(self, runner, tmp_path):
        prof = tmp_path / "bad.json"
        prof.write_text(json.dumps({"n": 1, "m": 2, "peak": 0.5,
                                    "strategies": [[0.9, 0.9]]}), encoding="utf-8")
        res = runner.invoke(main, ["game", "verify", "--profile", str(prof)])
        assert res.exit_code == 1

    def test_best_response_reports_witness(self, runner, tmp_path):
        prof = tmp_path / "p.json"
        prof.write_text(
            json.dumps({"n": 2, "m": 3, "peak": 0.5,
                        "strategies": [["0", "0", "0"], ["0.4", "0.5", "0.1"]]}),
            encoding="utf-8",
        )
        res = invoke(runner, ["game", "best-response", "--profile", str(prof),
                              "--player", "0", "--epsilon", "0.1"])
        data = json.loads(res.output)
        assert data["attained_value"] == 2.0
        assert data["sup_value"] == 2.5
        assert data["witness"] == [0.5, 0.0, 0.2]

    def test_best_response_validates_and_solves_once(self, runner, tmp_path, monkeypatch):
        from rankcomp import best_response, game

        counts = {"validate": 0, "solve": 0}

        def counting(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(game, "validate_profile", counting("validate", game.validate_profile))
        monkeypatch.setattr(best_response, "_optimize", counting("solve", best_response._optimize))
        prof = write_json(tmp_path / "p.json", {"n": 2, "m": 3, "peak": 0.5, "strategies":
                                                [["0", "0", "0"], ["0.4", "0.5", "0.1"]]})
        res = invoke(runner, ["game", "best-response", "--profile", str(prof),
                              "--player", "0", "--epsilon", "0.1"])
        assert json.loads(res.output)["witness"] == [0.5, 0.0, 0.2]
        assert counts == {"validate": 1, "solve": 1}
        res = runner.invoke(main, ["game", "best-response", "--profile", str(prof),
                                   "--player", "0", "--epsilon", "0"])
        assert json_error(res) == "epsilon must be positive"

    def test_dynamics_refuses_a_nonpositive_epsilon(self, runner, tmp_path):
        # the first move needs a witness, which used to fail its own assertion
        start = write_json(tmp_path / "s.json", {"n": 2, "m": 3, "peak": 0.5, "strategies":
                                                 [["0.3", "0.4", "0"], ["0.2", "0.3", "0.5"]]})
        res = runner.invoke(main, ["game", "dynamics", "--init", str(start),
                                   "--epsilon", "0", "--max-rounds", "2"])
        assert json_error(res) == "epsilon must be positive"
        # a fixed point converges without a witness, so epsilon is checked first
        eq = write_json(tmp_path / "eq.json", {"n": 2, "m": 3, "peak": "9/20", "strategies":
                                               [["0.45", "0.45", "0.1"]] * 2})
        args = ["game", "dynamics", "--init", str(eq)]
        assert json.loads(invoke(runner, args).output.splitlines()[-1])["outcome"] == "converged"
        assert json_error(runner.invoke(main, args + ["--epsilon", "0"])) == (
            "epsilon must be positive"
        )

    def test_dynamics_honours_table_format(self, runner, tmp_path):
        start = write_json(tmp_path / "s.json", {"n": 2, "m": 3, "peak": "1/2",
                                                 "strategies": REFERENCE_PROFILES[0]})
        seq = write_json(tmp_path / "seq.json", {"n": 2, "m": 3, "peak": "1/2",
                                                 "profiles": REFERENCE_PROFILES})
        run = ["game", "dynamics", "--init", str(start), "--max-rounds", "2"]
        replay = ["game", "dynamics", "--replay", str(seq)]
        for args, starts, ends in (
            (run, "moved: True\nmover: 1\nprofile:\n", "outcome: budget_exhausted\nround: None\n"),
            (replay, "mover: 1\noptimal: True\n", "steps: 3\n"),
        ):
            records = [json.loads(line) for line in invoke(runner, args).output.splitlines()]
            table = invoke(runner, ["--format", "table", *args]).output
            assert "{" not in table
            assert table.count("value_exact: ") == len(records) - 1
            assert table.startswith(starts) and table.endswith(ends)

    def test_dynamics_replay_reference_sequence(self, runner, tmp_path):
        seq = tmp_path / "seq.json"
        seq.write_text(
            json.dumps(
                {
                    "n": 2, "m": 3, "peak": 0.5,
                    "profiles": [
                        [["0.3", "0.4", "0"], ["0.2", "0.3", "0.5"]],
                        [["0.3", "0.4", "0"], ["0.4", "0.5", "0.1"]],
                        [["0.5", "0.3", "0.2"], ["0.4", "0.5", "0.1"]],
                        [["0.5", "0.3", "0.2"], ["0", "0.4", "0.3"]],
                    ],
                }
            ),
            encoding="utf-8",
        )
        res = invoke(runner, ["game", "dynamics", "--replay", str(seq)])
        lines = [json.loads(line) for line in res.output.strip().splitlines()]
        steps, tail = lines[:-1], lines[-1]
        assert [s["value"] for s in steps] == [3.0, 2.0, 2.0]
        assert all(s["optimal"] for s in steps)
        assert tail["cycle"]["first"] == 0
        assert tail["cycle"]["second"] == 3
        assert tail["cycle"]["equivalence"] == "symmetric"

    def test_dynamics_run_emits_outcome(self, runner, tmp_path):
        prof = tmp_path / "p.json"
        prof.write_text(
            json.dumps({"n": 2, "m": 3, "peak": 0.45,
                        "strategies": [["0.45", "0.45", "0.1"],
                                       ["0.45", "0.45", "0.1"]]}),
            encoding="utf-8",
        )
        res = invoke(runner, ["game", "dynamics", "--init", str(prof)])
        tail = json.loads(res.output.strip().splitlines()[-1])
        assert tail["outcome"] == "converged"

    def test_dynamics_symmetric_mode_refuses_ten_players(self, runner, tmp_path):
        prof = tmp_path / "p10.json"
        prof.write_text(
            json.dumps({"n": 10, "m": 2, "peak": "1/2",
                        "strategies": [[f"{k}/20", "0"] for k in range(10)]}),
            encoding="utf-8",
        )
        res = runner.invoke(main, ["game", "dynamics", "--init", str(prof), "--max-rounds", "3"])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert 'cycle_mode="exact"' in json.loads(res.stderr)["error"]
        res = invoke(runner, ["game", "dynamics", "--init", str(prof), "--max-rounds", "3",
                              "--cycle-mode", "exact"])
        assert res.exit_code == 0
        assert json.loads(res.output.strip().splitlines()[-1])["outcome"] == "budget_exhausted"

    def test_dynamics_requires_exactly_one_input(self, runner):
        res = runner.invoke(main, ["game", "dynamics"])
        assert res.exit_code == 2

    def test_oracle_small_p(self, runner):
        res = invoke(runner, ["game", "oracle", "--n", "2", "--m", "3",
                              "--peak", "1/3", "--grid", "3"])
        data = json.loads(res.output)
        assert data["count"] >= 1
        assert [["1/3", "1/3", "1/3"], ["1/3", "1/3", "1/3"]] in data["equilibria_exact"]

    @pytest.mark.parametrize("args, expected", [
        # at resolution 1 every document scores zero, so every profile is grid-stable
        (["--n", "2", "--m", "2", "--peak", "1/2", "--grid", "1"],
         '{"count":6,"equilibria":[[[0.0,0.0],[0.0,0.0]],[[0.0,0.0],[0.0,1.0]],'
         '[[0.0,0.0],[1.0,0.0]],[[0.0,1.0],[0.0,1.0]],[[0.0,1.0],[1.0,0.0]],'
         '[[1.0,0.0],[1.0,0.0]]],"equilibria_exact":[[[0,0],[0,0]],[[0,0],[0,1]],'
         '[[0,0],[1,0]],[[0,1],[0,1]],[[0,1],[1,0]],[[1,0],[1,0]]],"mode":"grid",'
         '"notes":["grid mode checks grid deviations only and may accept spurious profiles"],'
         '"profiles_checked":6,"strategy_count":3}\n'),
        (["--n", "3", "--m", "3", "--peak", "1/2", "--grid", "3"],
         '{"count":1,"equilibria":[[[0.3333333333333333,0.3333333333333333,'
         '0.3333333333333333],[0.3333333333333333,0.3333333333333333,0.3333333333333333],'
         '[0.3333333333333333,0.3333333333333333,0.3333333333333333]]],'
         '"equilibria_exact":[[["1/3","1/3","1/3"],["1/3","1/3","1/3"],["1/3","1/3","1/3"]]],'
         '"mode":"grid","notes":["grid mode checks grid deviations only and may accept '
         'spurious profiles"],"profiles_checked":1540,"strategy_count":20}\n'),
    ], ids=["every-profile-spurious", "three-players"])
    def test_oracle_grid_mode_output_is_pinned(self, runner, args, expected):
        res = invoke(runner, ["game", "oracle", "--mode", "grid"] + args)
        assert res.output == expected

    def test_oracle_budget_capacity(self, runner):
        res = runner.invoke(main, ["game", "oracle", "--n", "3", "--m", "4",
                                   "--peak", "0.5", "--grid", "12", "--budget", "1000"])
        assert res.exit_code == 1

    def test_oracle_exact_mode_refuses_a_large_m(self, runner):
        res = runner.invoke(main, ["game", "oracle", "--n", "2", "--m", "30",
                                   "--peak", "1/2", "--grid", "1"])
        assert json_error(res) == (
            "exact mode walks 2^m invest sets per opponent multiset; "
            "m = 30 exceeds 16, use --mode grid"
        )


class TestPipelineCommands:
    @pytest.fixture
    def synth_log(self, runner, tmp_path):
        path = tmp_path / "log.jsonl"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"topics": 5, "rounds": 6}), encoding="utf-8")
        res = invoke(runner, ["simulate", "competition", "--config", str(cfg),
                              "--seed", "7", "--out", str(path)])
        assert res.exit_code == 0
        return path

    def test_simulate_requires_seed(self, runner, tmp_path):
        res = runner.invoke(main, ["simulate", "competition", "--out",
                                   str(tmp_path / "x.jsonl")])
        assert res.exit_code == 2

    def test_seed_env_override(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("RANKCOMP_SEED", "7")
        out = tmp_path / "env.jsonl"
        res = invoke(runner, ["simulate", "competition", "--out", str(out)])
        assert res.exit_code == 0

    def test_features_extract(self, runner, synth_log, tmp_path):
        out = tmp_path / "feats.csv"
        res = invoke(runner, ["features", "extract", "--log", str(synth_log),
                              "--out", str(out)])
        data = json.loads(res.output)
        assert data["rows"] > 0
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("topic_id,round_index,query_index,publisher,tf,")

    def test_features_extract_matches_per_round_reference(self, runner, synth_log, tmp_path):
        import csv

        from rankcomp.competition_log import load_log
        from rankcomp.stopwords import DEFAULT_STOPWORDS
        from rankcomp.text_features import FEATURE_NAMES, CorpusStats, compute_features, tokenize

        out = tmp_path / "feats.csv"
        invoke(runner, ["features", "extract", "--log", str(synth_log), "--out", str(out)])
        ref = tmp_path / "ref.csv"
        with open(ref, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["topic_id", "round_index", "query_index", "publisher"]
                            + list(FEATURE_NAMES))
            for topic in load_log(synth_log).topics:
                for rnd in topic.rounds:
                    stats = CorpusStats.from_documents(
                        tokenize(topic.round(r).text_of(pub))
                        for r in range(1, rnd.round_index + 1)
                        for pub in sorted(topic.round(r).documents)
                    )
                    for q, query_text in enumerate(topic.queries):
                        for pub in sorted(rnd.documents):
                            feats = compute_features(tokenize(rnd.text_of(pub)),
                                                     tokenize(query_text), stats,
                                                     DEFAULT_STOPWORDS)
                            writer.writerow([topic.topic_id, rnd.round_index, q, pub]
                                            + [repr(v) for v in feats.as_tuple()])
        assert out.read_bytes() == ref.read_bytes()

    def test_features_extract_digest_is_pinned(self, runner, tmp_path):
        import hashlib

        log, out = tmp_path / "log.jsonl", tmp_path / "feats.csv"
        invoke(runner, ["simulate", "competition", "--seed", "77", "--out", str(log)])
        invoke(runner, ["features", "extract", "--log", str(log), "--out", str(out)])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "ec5583f3c013ee61ab878afcad9fea3fce330eb33eec0982c9ae416e867ff69c"
        )

    @pytest.mark.parametrize("flags, digest", [
        ([], "b6eed7b2dde387ab543aa02ce458081784e7fa2e0c760ded1c0e99f74f79db58"),
        (["--no-normalize"], "95c9c72fc98a962e0db60ff5c38015b867eabd5f1f6e766c41bbe9548f722c52"),
    ], ids=["normalized", "raw"])
    def test_predict_build_digest_is_pinned(self, runner, tmp_path, flags, digest):
        import hashlib

        log, out = tmp_path / "log.jsonl", tmp_path / "inst.csv"
        invoke(runner, ["simulate", "competition", "--seed", "77", "--out", str(log)])
        res = invoke(runner, ["predict", "build", "--log", str(log), "--out", str(out)] + flags)
        assert json.loads(res.output)["instances"] == 220
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_game_commands_digest_is_pinned(self, runner, tmp_path):
        import hashlib

        prof, seq = tmp_path / "p.json", tmp_path / "s.json"
        prof.write_text(json.dumps({"n": 2, "m": 3, "peak": 0.5, "strategies": [
            ["0", "0", "0"], ["0.4", "0.5", "0.1"]]}), encoding="utf-8")
        seq.write_text(json.dumps({"n": 2, "m": 3, "peak": "9/20", "profiles": [
            [["1/10", "1/5", "0"], ["3/10", "1/10", "0"]],
            [["1/10", "1/5", "0"], ["2/5", "1/2", "1/10"]]]}), encoding="utf-8")
        runs = [
            "exists --n 4 --m 6 --peak 2/5",
            "construct --n 3 --m 5 --peak 1/3 --check",
            f"verify --profile {prof}",
            f"best-response --profile {prof} --player 0 --epsilon 0.1",
            f"dynamics --init {prof} --max-rounds 10",
            f"dynamics --replay {seq}",
            "oracle --n 2 --m 3 --peak 2/3 --grid 6",
        ]
        out = b"".join(invoke(runner, ["game", *args.split()]).stdout_bytes for args in runs)
        assert len(out) == 3230
        assert hashlib.sha256(out).hexdigest() == (
            "b18f0df870a6250debddabd8cc3656b6361d8a716c9f7465fca51dbe03bdc83c"
        )

    def test_solver_library_digest_is_pinned(self):
        import hashlib
        import random

        from rankcomp.best_response import best_response_value
        from rankcomp.equilibria import verify_nash

        from conftest import (
            FLOOR_F,
            SKEWED_F,
            float_instance,
            non_tent_instance,
            random_instance,
            tie_heavy_instance,
        )

        rng = random.Random(20261019)
        makers = [
            lambda: random_instance(rng, 4, 9),
            lambda: tie_heavy_instance(rng, 4, 9),
            lambda: non_tent_instance(rng, SKEWED_F, 4, 9),
            lambda: non_tent_instance(rng, FLOOR_F, 4, 9),
            lambda: float_instance(rng, 4, 9),
        ]
        digest = hashlib.sha256()
        for make in makers:
            for _ in range(50):
                game, profile = make()
                for i in range(game.n):
                    digest.update(repr(best_response_value(game, profile, i)).encode())
                digest.update(repr(verify_nash(game, profile)).encode())
        assert digest.hexdigest() == (
            "93c45f113b9a21d968313b26f54f7cd45b560336762708f782dccb13b41f9f2e"
        )

    def test_grid_library_digest_is_pinned(self):
        # 140 searches, 709 equilibria, 289 of them with distinct strategies
        # (asymmetric, such as the splits of (2, 2, 4) at peak 1)
        import hashlib
        from fractions import Fraction as F
        from itertools import product

        from rankcomp.game import RankingGame, SinglePeakFunction
        from rankcomp.grid_oracle import GridSpec, grid_nash_search

        from conftest import FLOOR_F, SKEWED_F

        shapes = [SinglePeakFunction.tent(p) for p in (F(1), F(1, 2), F(1, 3))]
        cells = [(1, 2, 4), (2, 2, 4), (2, 3, 4), (3, 2, 3), (3, 3, 2), (4, 1, 4), (4, 2, 2)]
        digest = hashlib.sha256()
        for f, (n, m, g), mode, symmetry in product(
            shapes + [SKEWED_F, FLOOR_F], cells, ("exact", "grid"), (True, False)
        ):
            spec = GridSpec(g=g, n=n, m=m, peak=f.peak, symmetry=symmetry)
            jobs = 2 if n == 3 and f is FLOOR_F else 1
            result = grid_nash_search(RankingGame(n=n, m=m, f=f), spec, mode, jobs=jobs)
            digest.update(repr(result).encode())
        assert digest.hexdigest() == (
            "5ac6a476544f039211c58c2c3118a048ef4c629f77310e2a5f4f63a1480e22ca"
        )

    def test_features_rbo(self, runner, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text("[1, 2]", encoding="utf-8")
        b.write_text("[2, 1]", encoding="utf-8")
        res = invoke(runner, ["features", "rbo", "--a", str(a), "--b", str(b),
                              "--p", "0.9"])
        assert json.loads(res.output)["rbo"] == pytest.approx(0.9)

    def test_report_win_spread(self, runner, synth_log):
        res = invoke(runner, ["report", "win-spread", "--log", str(synth_log)])
        data = json.loads(res.output)
        assert sum(r["doc_percent"] for r in data["rows"]) == pytest.approx(100.0)

    def test_report_rbo(self, runner, synth_log):
        res = invoke(runner, ["report", "rbo", "--log", str(synth_log)])
        data = json.loads(res.output)
        assert set(data["per_round"]) == {str(r) for r in range(1, 7)}

    def test_report_rbo_checks_persistence_without_topics(self, runner, tmp_path):
        # only rbo checked the range, so a log with no topics printed "persistence": 5.0
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        res = invoke(runner, ["report", "rbo", "--log", str(empty)])
        assert json.loads(res.output) == {"per_round": {}, "persistence": 0.9}
        for p in ("5", "0", "1"):
            res = runner.invoke(main, ["report", "rbo", "--log", str(empty), "--p", p])
            assert json_error(res) == "persistence must lie strictly between 0 and 1"

    def test_report_trajectories(self, runner, synth_log):
        res = invoke(runner, ["report", "trajectories", "--log", str(synth_log)])
        data = json.loads(res.output)
        assert "winner" in data["per_round"]["1"]
        assert "loser" in data["per_round"]["1"]

    def test_predict_build_cv_baselines(self, runner, synth_log, tmp_path):
        inst = tmp_path / "inst.csv"
        res = invoke(runner, ["predict", "build", "--log", str(synth_log),
                              "--out", str(inst)])
        assert json.loads(res.output)["instances"] > 0
        res = invoke(runner, ["predict", "cv", "--instances", str(inst),
                              "--params", "1,10", "--seed", "1"])
        data = json.loads(res.output)
        assert 0.0 <= data["mean_acc"] <= 1.0
        res = invoke(runner, ["predict", "baselines", "--log", str(synth_log),
                              "--seed", "1"])
        data = json.loads(res.output)
        assert set(data) == {"rand", "qmaj", "tmaj", "allw", "alll"}
        assert data["alll"]["f1"] == 0.0

    def test_predict_cv_insufficient_rounds(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"topics": 3, "rounds": 4}), encoding="utf-8")
        log = tmp_path / "log.jsonl"
        invoke(runner, ["simulate", "competition", "--config", str(cfg),
                        "--seed", "2", "--out", str(log)])
        inst = tmp_path / "inst.csv"
        invoke(runner, ["predict", "build", "--log", str(log), "--out", str(inst)])
        res = runner.invoke(main, ["predict", "cv", "--instances", str(inst),
                                   "--seed", "1"])
        assert res.exit_code == 1
        assert "rounds" in res.output or "rounds" in (res.stderr or "")

    def test_predict_cv_non_finite_param_is_a_one_line_error(self, runner, synth_log, tmp_path):
        inst = tmp_path / "inst.csv"
        invoke(runner, ["predict", "build", "--log", str(synth_log), "--out", str(inst)])
        res = runner.invoke(main, ["predict", "cv", "--instances", str(inst),
                                   "--params", "nan,10", "--seed", "1"])
        assert json_error(res) == "regularization parameter must be positive and finite"

    @pytest.mark.parametrize("params, entry", [("abc", "'abc'"), ("1,,10", "''")])
    def test_predict_cv_unparsable_param_is_a_one_line_error(
        self, runner, synth_log, tmp_path, params, entry
    ):
        inst = tmp_path / "inst.csv"
        invoke(runner, ["predict", "build", "--log", str(synth_log), "--out", str(inst)])
        res = runner.invoke(main, ["predict", "cv", "--instances", str(inst),
                                   "--params", params, "--seed", "1"])
        assert json_error(res) == f"--params: could not convert string to float: {entry}"

    def test_ablation_sections_flag(self, runner, synth_log, tmp_path):
        inst = tmp_path / "inst.csv"
        invoke(runner, ["predict", "build", "--log", str(synth_log), "--out", str(inst)])
        res = invoke(runner, ["predict", "cv", "--instances", str(inst),
                              "--params", "10", "--seed", "1",
                              "--sections", "macro,topic_rank"])
        assert res.exit_code == 0


class TestOutputDiscipline:
    def test_byte_identical_reruns(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"topics": 3, "rounds": 5}), encoding="utf-8")
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        r1 = invoke(runner, ["simulate", "competition", "--config", str(cfg),
                             "--seed", "5", "--out", str(out1)])
        r2 = invoke(runner, ["simulate", "competition", "--config", str(cfg),
                             "--seed", "5", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        res_a = invoke(runner, ["game", "exists", "--n", "4", "--m", "6", "--peak", "2/5"])
        res_b = invoke(runner, ["game", "exists", "--n", "4", "--m", "6", "--peak", "2/5"])
        assert res_a.output == res_b.output

    def test_table_format(self, runner):
        res = invoke(runner, ["--format", "table", "game", "exists",
                              "--n", "2", "--m", "3", "--peak", "0.5"])
        assert "exists: True" in res.output

    def test_every_leaf_command_has_schema(self, runner):
        leaves = [
            ["game", "exists"], ["game", "construct"], ["game", "verify"],
            ["game", "best-response"], ["game", "dynamics"], ["game", "oracle"],
            ["features", "extract"], ["features", "rbo"],
            ["report", "win-spread"], ["report", "rbo"], ["report", "trajectories"],
            ["simulate", "competition"],
            ["predict", "build"], ["predict", "cv"], ["predict", "baselines"],
        ]
        for leaf in leaves:
            res = runner.invoke(main, leaf + ["--schema"])
            assert res.exit_code == 0, leaf
            json.loads(res.output)

    def test_every_leaf_command_has_help(self, runner):
        res = invoke(runner, ["game", "exists", "--help"])
        assert res.exit_code == 0
        assert "--peak" in res.output

    def test_unknown_flag_is_usage_error(self, runner):
        res = runner.invoke(main, ["game", "exists", "--bogus", "1"])
        assert res.exit_code == 2


class TestJobsFlag:
    ORACLE = ["game", "oracle", "--n", "2", "--m", "2", "--peak", "1/2", "--grid", "2"]

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, runner, raw):
        res = runner.invoke(main, self.ORACLE + ["--jobs", raw])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "--jobs" in res.stderr

    @pytest.mark.parametrize("raw", ["abc", "0", "-2", "1.5"])
    def test_invalid_jobs_env_is_a_domain_error(self, runner, monkeypatch, raw):
        monkeypatch.setenv("RANKCOMP_JOBS", raw)
        res = runner.invoke(main, self.ORACLE)
        assert res.exit_code == 1
        assert res.stdout == ""
        assert "RANKCOMP_JOBS" in json.loads(res.stderr)["error"]


# the motivating non-convergence run (peak 1/2): player 1, 0, 1 reply in turn
REFERENCE_PROFILES = [
    [["0.3", "0.4", "0"], ["0.2", "0.3", "0.5"]],
    [["0.3", "0.4", "0"], ["0.4", "0.5", "0.1"]],
    [["0.5", "0.3", "0.2"], ["0.4", "0.5", "0.1"]],
    [["0.5", "0.3", "0.2"], ["0", "0.4", "0.3"]],
]


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def json_error(res):
    """The error message of a domain-error exit; fails on a traceback."""
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # not an uncaught exception
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])["error"]


def topic_line(topic_id="T", queries=("q",), rounds=(("a",),), rankings=None):
    """One topic as a log line: a round per publisher tuple, each ranking them on every query."""
    return json.dumps({"topic_id": topic_id, "queries": list(queries), "rounds": [
        {"round_index": r, "documents": {p: {"text": "x", "is_bot": False} for p in pubs},
         "rankings": [list(pubs)] * len(queries) if rankings is None else rankings}
        for r, pubs in enumerate(rounds, start=1)]})


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "args",
        [
            ["game", "verify", "--profile", "BAD"],
            ["game", "dynamics", "--init", "BAD"],
            ["game", "dynamics", "--replay", "BAD"],
            ["simulate", "competition", "--config", "BAD", "--seed", "1", "--out", "OUT"],
            ["features", "rbo", "--a", "BAD", "--b", "GOOD"],
            ["features", "rbo", "--a", "GOOD", "--b", "BAD"],
        ],
    )
    def test_invalid_json_is_a_one_line_error_naming_the_file(self, runner, tmp_path, args):
        bad = tmp_path / "bad.json"
        bad.write_text("{bad", encoding="utf-8")
        good = write_json(tmp_path / "good.json", [1, 2])
        paths = {"BAD": str(bad), "GOOD": str(good), "OUT": str(tmp_path / "out.jsonl")}
        res = runner.invoke(main, [paths.get(a, a) for a in args])
        assert json_error(res).startswith(f"{bad}: invalid JSON (")
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("content", ["5", '{"a": 1}', "[[1], [2]]"])
    def test_ranking_file_that_is_not_a_list_of_ids(self, runner, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_text(content, encoding="utf-8")
        good = write_json(tmp_path / "good.json", [1, 2])
        res = runner.invoke(main, ["features", "rbo", "--a", str(good), "--b", str(bad)])
        assert json_error(res) == f"{bad}: a ranking file must hold a JSON list of ids"

    def test_replay_without_profiles(self, runner, tmp_path):
        seq = write_json(tmp_path / "seq.json", {"n": 2, "m": 3, "peak": 0.5})
        res = runner.invoke(main, ["game", "dynamics", "--replay", str(seq)])
        assert json_error(res) == f"{seq}: sequence file missing field 'profiles'"

    def test_profile_without_strategies(self, runner, tmp_path):
        prof = write_json(tmp_path / "p.json", {"n": 2, "m": 3, "peak": 0.5})
        res = runner.invoke(main, ["game", "best-response", "--profile", str(prof),
                                   "--player", "0"])
        assert json_error(res) == f"{prof}: profile file missing field 'strategies'"

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"topicz": 4}, "unknown synthesis config keys ['topicz']"),
            ({"strategy_mix": {"mimic_winner": 5}}, "unknown strategy 'mimic_winner'"),
            ({"scorer_weights": {"bm26": 1}}, "unknown scorer feature 'bm26'"),
            ({"topics": "x"}, "topics must be an integer >= 1, got 'x'"),
            ({"vocabulary_size": 10}, "vocabulary_size must be an integer >= 24, got 10"),
            ({"queries_per_topic": 0}, "queries_per_topic must be an integer >= 1, got 0"),
            ({"scorer_weights": {"bm25": float("nan")}}, "weight for 'bm25' must be finite"),
            ({"scorer_weights": {"ent": float("-inf")}}, "weight for 'ent' must be finite"),
            ({"scorer_weights": {"bm25": 10**400}},
             "weight for 'bm25' must be finite, got an integer beyond float range"),
        ],
    )
    def test_invalid_synthesis_config(self, runner, tmp_path, config, message):
        cfg = write_json(tmp_path / "cfg.json", config)
        res = runner.invoke(main, ["simulate", "competition", "--config", str(cfg),
                                   "--seed", "1", "--out", str(tmp_path / "log.jsonl")])
        assert message in json_error(res)

    def test_malformed_instance_row(self, runner, tmp_path):
        from rankcomp.prediction import CSV_ID_COLUMNS, FEATURE_NAMES

        inst = tmp_path / "inst.csv"
        header = ",".join(list(CSV_ID_COLUMNS) + list(FEATURE_NAMES) + ["label"])
        inst.write_text(header + "\nT0,0,3,p1," + ",".join(["0.5"] * 26) + ",x,1\n",
                        encoding="utf-8")
        res = runner.invoke(main, ["predict", "cv", "--instances", str(inst), "--seed", "1"])
        assert json_error(res).startswith(f"{inst}: line 2: could not convert")

    @pytest.mark.parametrize("args", [["simulate", "competition", "--out", "OUT"],
                                      ["predict", "cv", "--instances", "INST"]])
    def test_invalid_seed_env_is_a_one_line_error(self, runner, monkeypatch, tmp_path, args):
        monkeypatch.setenv("RANKCOMP_SEED", "abc")
        inst = tmp_path / "inst.csv"
        inst.write_text("", encoding="utf-8")  # refused before the file is read
        paths = {"OUT": str(tmp_path / "log.jsonl"), "INST": str(inst)}
        res = runner.invoke(main, [paths.get(a, a) for a in args])
        assert json_error(res) == "RANKCOMP_SEED must be an integer, got 'abc'"
        assert not (tmp_path / "log.jsonl").exists()

    def test_stopwords_file_that_is_not_utf8(self, runner, tmp_path):
        stops, log = tmp_path / "stops.txt", tmp_path / "log.jsonl"
        stops.write_bytes(b"\xff\xfe")
        log.write_text("", encoding="utf-8")
        res = runner.invoke(main, ["report", "trajectories", "--log", str(log),
                                   "--stopwords", str(stops)])
        assert json_error(res).startswith(f"{stops}: stopword file is not UTF-8 text (")

    @pytest.mark.parametrize("args, what", [
        (["report", "win-spread", "--log", "BAD"], "log"),
        (["predict", "cv", "--instances", "BAD", "--seed", "1"], "instance CSV"),
    ])
    def test_input_that_is_not_utf8(self, runner, tmp_path, args, what):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe")
        res = runner.invoke(main, [str(bad) if a == "BAD" else a for a in args])
        assert json_error(res).startswith(f"{bad}: {what} is not UTF-8 text (")

    @pytest.mark.parametrize("args", [
        ["report", "win-spread", "--log", "DIR"],
        ["features", "extract", "--log", "LOG", "--out", "DIR"],
        ["features", "extract", "--log", "LOG", "--out", "LOG/x"],
    ])
    def test_path_of_the_wrong_kind_is_a_one_line_error(self, runner, tmp_path, args):
        log = tmp_path / "log.jsonl"
        log.write_text("", encoding="utf-8")
        paths = {"DIR": str(tmp_path), "LOG": str(log), "LOG/x": str(log / "x")}
        res = runner.invoke(main, [paths.get(a, a) for a in args])
        assert repr(paths[args[-1]]) in json_error(res)

    def test_round_without_documents(self, runner, tmp_path):
        log = write_json(tmp_path / "log.jsonl", {"topic_id": "T0", "queries": ["q"], "rounds": [
            {"round_index": 1, "documents": {}, "rankings": [[]]}]})
        res = runner.invoke(main, ["report", "win-spread", "--log", str(log)])
        assert json_error(res) == "line 1: topic 'T0' round 1 has no documents"

    def test_non_string_document_text(self, runner, tmp_path):
        log = tmp_path / "log.jsonl"
        write_json(log, {"topic_id": "T0", "queries": ["q"], "rounds": [
            {"round_index": 1, "documents": {"a": {"text": 7, "is_bot": False}},
             "rankings": [["a"]]}]})
        res = runner.invoke(main, ["report", "trajectories", "--log", str(log)])
        assert json_error(res) == "line 1: topic 'T0' round 1 document 'a' text is not a string"

    @pytest.mark.parametrize("lines, message", [
        ([topic_line("T0"), topic_line(queries=())], "line 2: topic 'T' has no queries"),
        ([topic_line(rounds=(("a", "b"), ("a", "c")))],
         "line 1: topic 'T' round 2 publisher set changed"),
        ([topic_line("T0"), topic_line(rankings=[["a"], ["a"]])],
         "line 2: topic 'T' round 1 has 2 rankings for 1 queries"),
        ([topic_line("T0"), "{bad"], "line 2: invalid JSON ("),
        ([topic_line("T0"), json.dumps({"_meta": {}})], "line 2: _meta only allowed on line 1"),
        ([topic_line(), topic_line("T0"), topic_line()], "line 3: duplicate topic 'T'"),
        ([topic_line("T0"), topic_line(queries=("q", "r"))],
         "win-spread report needs a uniform query count"),
    ], ids=["no_queries", "publishers_changed", "ranking_count", "invalid_json",
            "late_meta", "duplicate_topic", "uneven_queries"])
    def test_log_refusal_is_a_one_line_error_naming_the_line(self, runner, tmp_path, lines,
                                                             message):
        log = tmp_path / "log.jsonl"
        log.write_text("\n".join(lines) + "\n", encoding="utf-8")
        res = runner.invoke(main, ["report", "win-spread", "--log", str(log)])
        assert json_error(res).startswith(message)

    def test_best_response_refuses_a_player_outside_the_game(self, runner, tmp_path):
        prof = write_json(tmp_path / "p.json", {"n": 2, "m": 3, "peak": 0.5, "strategies":
                                                [["0", "0", "0"], ["0.4", "0.5", "0.1"]]})
        res = runner.invoke(main, ["game", "best-response", "--profile", str(prof),
                                   "--player", "2"])
        assert json_error(res) == "player 2 outside [0, 2)"


class TestProfileFiles:
    def test_construct_out_writes_what_save_profile_writes(self, runner, tmp_path):
        from rankcomp.equilibria import construct_equilibrium
        from rankcomp.game import RankingGame, save_profile

        out, ref = tmp_path / "eq.json", tmp_path / "ref.json"
        res = invoke(runner, ["game", "construct", "--n", "3", "--m", "4", "--peak", "1/4",
                              "--out", str(out)])
        assert res.exit_code == 0
        g = RankingGame.tent(3, 4, "1/4")
        save_profile(ref, g, construct_equilibrium(g))
        assert out.read_bytes() == ref.read_bytes()
        assert out.read_text(encoding="utf-8") == res.output

    @pytest.mark.parametrize("token, shown", [("NaN", "nan"), ("Infinity", "inf"), ("1e400", "inf")])
    def test_non_finite_numbers_are_domain_errors(self, runner, tmp_path, token, shown):
        # JSON reads all three as a float with no exact value
        rows = f'[[{token}, "0", "0"], ["0", "0", "0"]]'
        prof, seq = tmp_path / "p.json", tmp_path / "s.json"
        prof.write_text(f'{{"n": 2, "m": 3, "peak": "1/2", "strategies": {rows}}}', encoding="utf-8")
        seq.write_text(f'{{"n": 2, "m": 3, "peak": "1/2", "profiles": [{rows}]}}', encoding="utf-8")
        for args, path in ((["verify", "--profile"], prof), (["dynamics", "--replay"], seq)):
            res = runner.invoke(main, ["game", *args, str(path)])
            assert json_error(res) == f"{path}: cannot parse number from {shown}"

    def test_replay_with_a_stay(self, runner, tmp_path):
        seq = write_json(tmp_path / "seq.json", {
            "n": 2, "m": 3, "peak": "1/2",
            "profiles": REFERENCE_PROFILES[:1] + REFERENCE_PROFILES,
        })
        res = invoke(runner, ["game", "dynamics", "--replay", str(seq)])
        assert res.exit_code == 0
        lines = [json.loads(line) for line in res.output.splitlines()]
        assert [s["mover"] for s in lines[:-1]] == [None, 1, 0, 1]
        assert lines[-1] == {"steps": 4, "cycle": {
            "first": 1, "second": 4, "equivalence": "symmetric",
            "player_perm": [1, 0], "query_perm": [2, 1, 0]}}


def uncovered_keys(data, schema, where="$"):
    """Paths of emitted object keys that the schema does not name.

    Schema keys name fields literally, as ``a|b`` alternatives, or as a
    ``<placeholder>`` that stands for any key.
    """
    if isinstance(data, dict):
        if not isinstance(schema, dict):
            return [where]
        missing = []
        for key, value in data.items():
            sub = schema.get(key)
            if sub is None:
                sub = next((s for k, s in schema.items()
                            if k.startswith("<") or key in k.split("|")), None)
            if sub is None:
                missing.append(f"{where}.{key}")
            else:
                missing += uncovered_keys(value, sub, f"{where}.{key}")
        return missing
    if isinstance(data, list):
        sub = schema[0] if isinstance(schema, list) else schema
        return [path for item in data for path in uncovered_keys(item, sub, where + "[]")]
    return []


def _has_type(value, declared: str) -> bool:
    """Does a JSON value have a declared type such as "str|int" or "[[str|int]]"?"""
    if declared.startswith("["):
        return isinstance(value, list) and all(_has_type(v, declared[1:-1]) for v in value)
    kinds = {"str": str, "int": int, "float": float}
    return not isinstance(value, bool) and any(
        isinstance(value, kinds[kind]) for kind in declared.split("|")
    )


def exact_type_errors(data, schema, where="$"):
    """Paths of emitted ``*_exact`` values whose JSON type the schema does not declare."""
    if isinstance(data, dict) and isinstance(schema, dict):
        errors = []
        for key, value in data.items():
            sub = schema.get(key)
            if key.endswith("_exact") and not _has_type(value, sub):
                errors.append(f"{where}.{key}")
            elif sub is not None:
                errors += exact_type_errors(value, sub, f"{where}.{key}")
        return errors
    if isinstance(data, list) and isinstance(schema, list):
        return [path for item in data for path in exact_type_errors(item, schema[0], where + "[]")]
    return []


class TestSchemaCoverage:
    def test_every_emitted_key_is_in_the_schema(self, runner, tmp_path):
        t = tmp_path
        write_json(t / "cfg.json", {"topics": 5, "rounds": 6})
        write_json(t / "p.json", {"n": 2, "m": 3, "peak": 0.5,
                                  "strategies": [["0", "0", "0"], ["0.4", "0.5", "0.1"]]})
        write_json(t / "start.json", {"n": 2, "m": 3, "peak": "1/2",
                                      "strategies": REFERENCE_PROFILES[0]})
        write_json(t / "seq.json", {"n": 2, "m": 3, "peak": "1/2",
                                    "profiles": REFERENCE_PROFILES})
        write_json(t / "a.json", [1, 2, 3])
        write_json(t / "b.json", [3, 1, 2])
        log, inst = str(t / "log.jsonl"), str(t / "inst.csv")
        runs = [
            ["simulate", "competition", "--config", str(t / "cfg.json"), "--seed", "7",
             "--out", log],
            ["game", "exists", "--n", "2", "--m", "3", "--peak", "0.5"],
            ["game", "exists", "--n", "2", "--m", "1", "--peak", "1"],  # integral threshold
            ["game", "construct", "--n", "2", "--m", "3", "--peak", "0.45", "--check"],
            ["game", "verify", "--profile", str(t / "p.json")],
            ["game", "best-response", "--profile", str(t / "p.json"), "--player", "0"],
            ["game", "dynamics", "--init", str(t / "start.json"), "--epsilon", "1/10"],
            ["game", "dynamics", "--replay", str(t / "seq.json")],
            ["game", "oracle", "--n", "2", "--m", "3", "--peak", "1/3", "--grid", "3"],
            ["features", "extract", "--log", log, "--out", str(t / "feats.csv")],
            ["features", "rbo", "--a", str(t / "a.json"), "--b", str(t / "b.json")],
            ["report", "win-spread", "--log", log],
            ["report", "rbo", "--log", log],
            ["report", "trajectories", "--log", log],
            ["predict", "build", "--log", log, "--out", inst],
            ["predict", "cv", "--instances", inst, "--params", "1,10", "--seed", "1"],
            ["predict", "baselines", "--log", log, "--seed", "1"],
        ]
        leaves = set()
        for args in runs:
            res = invoke(runner, args)
            assert res.exit_code == 0, args
            schema = json.loads(invoke(runner, args[:2] + ["--schema"]).output)
            lines = [json.loads(line) for line in res.output.splitlines()]
            if args[:2] == ["game", "dynamics"]:
                shapes = [s for s in schema.values() if isinstance(s, dict)]
                for line in lines:
                    assert any(not uncovered_keys(line, s) and not exact_type_errors(line, s)
                               for s in shapes), (args, line)
            else:
                assert len(lines) == 1
                assert uncovered_keys(lines[0], schema) == [], args
                assert exact_type_errors(lines[0], schema) == [], args
            leaves.add(tuple(args[:2]))
            if "--replay" in args:  # the reference cycle fills the cycle object
                assert lines[-1]["cycle"]["player_perm"] == [1, 0]
        assert len(leaves) == 15

    def test_uncovered_keys_reports_a_missing_field(self):
        schema = {"rows": [{"a": "int"}], "<k>": {"x|y": "float"}}
        assert uncovered_keys({"rows": [{"a": 1, "b": 2}], "z": {"y": 1.0}}, schema) == [
            "$.rows[].b"
        ]
        assert uncovered_keys({"z": {"w": 1.0}}, schema) == ["$.z.w"]

    def test_exact_type_errors_reports_an_undeclared_type(self):
        schema = {"v_exact": "str", "rows": [{"w_exact": "[str|int]"}]}
        data = {"v_exact": 1, "rows": [{"w_exact": ["1/2", 3]}, {"w_exact": [0.5]}]}
        assert exact_type_errors(data, schema) == ["$.v_exact", "$.rows[].w_exact"]


class TestFlags:
    @pytest.fixture
    def log(self, runner, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"topics": 5, "rounds": 6})
        path = tmp_path / "log.jsonl"
        invoke(runner, ["simulate", "competition", "--config", str(cfg), "--seed", "7",
                        "--out", str(path)])
        return path

    def test_no_normalize_keeps_raw_feature_values(self, runner, log, tmp_path):
        from rankcomp.prediction import instances_from_csv, normalize_per_query

        norm, raw = tmp_path / "norm.csv", tmp_path / "raw.csv"
        invoke(runner, ["predict", "build", "--log", str(log), "--out", str(norm)])
        res = invoke(runner, ["predict", "build", "--log", str(log), "--out", str(raw),
                              "--no-normalize"])
        assert json.loads(res.output)["out"] == str(raw)
        raw_insts = instances_from_csv(raw)
        assert max(max(inst.features) for inst in raw_insts) > 1.0
        assert normalize_per_query(raw_insts) == instances_from_csv(norm)

    def test_no_symmetry_finds_the_same_equilibria(self, runner):
        args = ["game", "oracle", "--n", "2", "--m", "3", "--peak", "1/3", "--grid", "3"]
        sym = json.loads(invoke(runner, args).output)
        full = json.loads(invoke(runner, args + ["--no-symmetry"]).output)
        assert full["equilibria_exact"] == sym["equilibria_exact"]
        assert full["profiles_checked"] == full["strategy_count"] ** 2
        assert full["profiles_checked"] > sym["profiles_checked"]

    def test_cv_seed_is_only_a_label(self, runner, log, tmp_path):
        inst = tmp_path / "inst.csv"
        invoke(runner, ["predict", "build", "--log", str(log), "--out", str(inst)])
        args = ["predict", "cv", "--instances", str(inst), "--params", "1,10", "--seed"]
        assert invoke(runner, args + ["1"]).output == invoke(runner, args + ["2"]).output

    def test_table_format_renders_nested_results(self, runner, log, tmp_path):
        inst = tmp_path / "inst.csv"
        invoke(runner, ["predict", "build", "--log", str(log), "--out", str(inst)])
        args = ["predict", "cv", "--instances", str(inst), "--params", "1,10", "--seed", "1"]
        data = json.loads(invoke(runner, args).output)
        table = invoke(runner, ["--format", "table"] + args).output
        assert "(" not in table
        assert "folds:\n  -\n    acc: " in table
        assert "params:\n  - 1.0\n  - 10.0\n" in table
        assert f"mean_acc: {data['mean_acc']}\n" in table
        table = invoke(runner, ["--format", "table", "report", "win-spread",
                                "--log", str(log)]).output
        assert table.startswith("observations: ")
        assert "rows:\n  -\n    doc_percent: " in table

    def test_table_format_marks_each_row_of_a_profile(self, runner, tmp_path):
        # a list of lists used to print as one run of "- x" lines at one indent
        start = write_json(tmp_path / "s.json", {"n": 2, "m": 3, "peak": "1/2",
                                                 "strategies": REFERENCE_PROFILES[0]})
        table = invoke(runner, ["--format", "table", "game", "dynamics", "--init", str(start),
                                "--max-rounds", "1"]).output
        assert ("profile_exact:\n  -\n    - 3/10\n    - 2/5\n    - 0\n"
                "  -\n    - 301/1000\n    - 401/1000\n    - 1/1000\n") in table
        table = invoke(runner, ["--format", "table", "game", "oracle", "--n", "2", "--m", "2",
                                "--peak", "1/2", "--grid", "2"]).output
        assert "equilibria:\n  -\n    -\n      - 0.5\n      - 0.5\n    -\n      - 0.5\n" in table

    def test_random_order_is_seeded(self, runner, tmp_path, monkeypatch):
        monkeypatch.delenv("RANKCOMP_SEED", raising=False)
        start = write_json(tmp_path / "start.json", {
            "n": 3, "m": 3, "peak": "1/3",
            "strategies": [["0.2", "0.3", "0.1"], ["0.1", "0.1", "0.1"], ["0.5", "0", "0.5"]],
        })
        args = ["game", "dynamics", "--init", str(start), "--order", "random",
                "--max-rounds", "8"]
        runs = [invoke(runner, args + ["--seed", seed]).output for seed in ("4", "4", "5")]
        assert runs[0] == runs[1]
        movers = [[json.loads(line).get("mover") for line in out.splitlines()[:-1]]
                  for out in runs]
        assert movers[0] != movers[2]
        assert movers[0] != [1, 2, 0, 1, 2, 0, 1, 2][: len(movers[0])]
        res = runner.invoke(main, args)
        assert json_error(res) == "random order requires a seed"
