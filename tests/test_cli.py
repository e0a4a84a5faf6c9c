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

    def test_oracle_budget_capacity(self, runner):
        res = runner.invoke(main, ["game", "oracle", "--n", "3", "--m", "4",
                                   "--peak", "0.5", "--grid", "12", "--budget", "1000"])
        assert res.exit_code == 1


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
    def test_predict_build_jobs_deterministic(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"topics": 4, "rounds": 5}), encoding="utf-8")
        log = tmp_path / "log.jsonl"
        invoke(runner, ["simulate", "competition", "--config", str(cfg),
                        "--seed", "9", "--out", str(log)])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        invoke(runner, ["predict", "build", "--log", str(log), "--out", str(a)])
        invoke(runner, ["predict", "build", "--log", str(log), "--out", str(b),
                        "--jobs", "2"])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, runner, tmp_path, raw):
        log = tmp_path / "log.jsonl"
        log.write_text("", encoding="utf-8")
        commands = [
            ["game", "oracle", "--n", "2", "--m", "2", "--peak", "1/2", "--grid", "2"],
            ["predict", "build", "--log", str(log), "--out", str(tmp_path / "inst.csv")],
        ]
        for args in commands:
            res = runner.invoke(main, args + ["--jobs", raw])
            assert res.exit_code == 2, args
            assert res.stdout == ""
            assert "--jobs" in res.stderr

    @pytest.mark.parametrize("raw", ["abc", "0", "-2", "1.5"])
    def test_invalid_jobs_env_is_a_domain_error(self, runner, monkeypatch, tmp_path, raw):
        monkeypatch.setenv("RANKCOMP_JOBS", raw)
        log = tmp_path / "log.jsonl"
        log.write_text("", encoding="utf-8")  # refused before the log is read
        commands = [
            ["game", "oracle", "--n", "2", "--m", "2", "--peak", "1/2", "--grid", "2"],
            ["predict", "build", "--log", str(log), "--out", str(tmp_path / "inst.csv")],
        ]
        for args in commands:
            res = runner.invoke(main, args)
            assert res.exit_code == 1, args
            assert res.stdout == ""
            assert "RANKCOMP_JOBS" in json.loads(res.stderr)["error"]
