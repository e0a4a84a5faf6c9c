"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  CLI invocations made here are recorded and replayed byte-for-byte
by the determinism criterion at the end of the module.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

from rankcomp.best_response import best_response_value, best_response_witness
from rankcomp.cli import main as cli_main
from rankcomp.competition_log import SynthesisConfig, synthesize
from rankcomp.equilibria import (
    candidate_profile,
    exists_equilibrium,
    existence_threshold,
    verify_nash,
)
from rankcomp.game import RankingGame, StrategyProfile, utilities
from rankcomp.numeric import numbers_equal
from rankcomp.grid_oracle import GridSpec, grid_nash_search
from rankcomp.prediction import (
    FEATURE_DIM,
    baselines,
    build_instances,
    cross_validate,
    evaluate,
    normalize_per_query,
    section_slices,
)
from rankcomp.stats import paired_t_test, t_sf_two_tailed
from rankcomp.text_features import CorpusStats, compute_features, rbo, tokenize

from conftest import (
    FLOOR_F,
    SKEWED_F,
    float_instance,
    non_tent_instance,
    random_instance,
    tie_heavy_instance,
)
from enumeration_oracle import enumerate_best_response
from test_text_features import bm25_oracle, lmir_oracle, rbo_ext_oracle

_RUNNER = CliRunner()
_CLI_CALLS: list[tuple[tuple[str, ...], str]] = []


def cli(*args: str) -> str:
    """Invoke the CLI, recording (args, output) for the determinism check."""
    result = _RUNNER.invoke(cli_main, list(args), catch_exceptions=False)
    assert result.exit_code == 0, f"{args} failed: {result.output}"
    _CLI_CALLS.append((tuple(args), result.output))
    return result.output


def report(criterion: int, name: str, detail: str = "") -> None:
    suffix = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {criterion} ({name}): PASS{suffix}")


def test_criterion_1_existence_boundary(tmp_path):
    """Two-player boundary: exists/construct/verify flip at p = 1/(m-1)."""
    start = time.perf_counter()
    for m in range(3, 9):
        inside = F(1, m - 1)
        outside = inside + F(1, 1000)
        data = json.loads(cli("game", "exists", "--n", "2", "--m", str(m),
                              "--peak", str(inside)))
        assert data["exists"] is True
        data = json.loads(cli("game", "exists", "--n", "2", "--m", str(m),
                              "--peak", str(outside)))
        assert data["exists"] is False

        prof = tmp_path / f"eq_{m}.json"
        out = json.loads(cli("game", "construct", "--n", "2", "--m", str(m),
                             "--peak", str(inside), "--out", str(prof)))
        verify = json.loads(cli("game", "verify", "--profile", str(prof)))
        assert verify["is_nash"] is True
        # exact arithmetic, zero tolerance: attained equals current exactly
        for row in verify["per_player"]:
            assert row["attained_exact"] == row["current_exact"]

        res = _RUNNER.invoke(cli_main, ["game", "construct", "--n", "2", "--m", str(m),
                                        "--peak", str(outside)])
        assert res.exit_code == 1  # refusal outside the existence region
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s (budget 1s)"
    report(1, "existence boundary", f"m=3..8 in {elapsed:.2f}s")


def test_criterion_2_existence_sweep():
    """Existence characterization: construct/verify on both sides of the
    threshold, grid-oracle corroboration in the empty region.

    The closed form presumes competition, so the sweep runs n >= 2 (with a
    single player every profile is trivially an equilibrium).
    """
    start = time.perf_counter()
    delta = F(1, 1000)
    checked = 0
    for n, m in itertools.product(range(2, 7), range(1, 9)):
        threshold = existence_threshold(n, m)
        if threshold < 1:
            peaks = [threshold - 2 * delta, threshold - delta, threshold,
                     threshold + delta, threshold + 2 * delta]
        else:
            peaks = [threshold * F(k, 5) for k in range(1, 6)]
        for peak in peaks:
            if not 0 < peak <= 1:
                continue
            verdict = exists_equilibrium(n, m, peak)
            game = RankingGame.tent(n, m, peak)
            nash = verify_nash(game, candidate_profile(game)).is_nash
            assert nash == verdict.exists, (n, m, peak)
            checked += 1

    # corroboration sub-sweep: exact-mode grid search returns empty in
    # the no-equilibrium region
    grid_cells = [(2, 3, 12), (2, 4, 12), (3, 4, 6)]
    for n, m, g in grid_cells:
        threshold = existence_threshold(n, m)
        for peak in (threshold + delta, threshold + 2 * delta):
            game = RankingGame.tent(n, m, peak)
            result = grid_nash_search(game, GridSpec(g=g, n=n, m=m, peak=peak))
            assert result.equilibria == (), (n, m, g, peak)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"criterion 2 took {elapsed:.1f}s (budget 5min)"
    report(2, "existence sweep",
           f"{checked} cells + {len(grid_cells)} grid cells in {elapsed:.1f}s")


def test_criterion_3_small_p_and_copycat():
    """All-(p, ..., p) is Nash for p <= 1/m; identical pairs earn m/2 each."""
    for n, m in itertools.product(range(2, 7), range(1, 9)):
        for peak in (F(1, m), F(1, 2 * m), F(1, 3 * m)):
            game = RankingGame.tent(n, m, peak)
            prof = StrategyProfile([[peak] * m] * n)
            assert verify_nash(game, prof).is_nash, (n, m, peak)

    rng = random.Random(3)
    from conftest import random_strategy

    for _ in range(50):
        m = rng.randint(1, 8)
        peak = F(rng.randint(1, 10), 10)
        game = RankingGame.tent(2, m, peak)
        strategy = random_strategy(rng, m)
        pair = StrategyProfile([strategy, strategy])
        assert utilities(game, pair) == (F(m, 2), F(m, 2))
    report(3, "uniform-emphasis equilibrium and copycat utilities")


def test_criterion_4_nonconvergence_example(tmp_path):
    """The reference alternation: mover values 3, 2, 2 and a symmetric
    cycle between steps 0 and 3, driven through the CLI."""
    start = time.perf_counter()
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(
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
    output = cli("game", "dynamics", "--replay", str(seq_path))
    lines = [json.loads(line) for line in output.strip().splitlines()]
    steps, tail = lines[:-1], lines[-1]
    assert [s["value"] for s in steps] == [3.0, 2.0, 2.0]
    assert [s["mover"] for s in steps] == [1, 0, 1]
    assert all(s["optimal"] for s in steps), "verify_trace accepts every step"
    assert tail["cycle"] == {
        "first": 0,
        "second": 3,
        "equivalence": "symmetric",
        "player_perm": [1, 0],
        "query_perm": [2, 1, 0],
    }
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 4 took {elapsed:.2f}s (budget 1s)"
    report(4, "non-convergence example", f"values 3,2,2; cycle (0,3) in {elapsed:.2f}s")


def test_criterion_5_best_response_oracle_equivalence():
    """The knapsack optimizer equals 2^m enumeration (value and plan) on 500
    random, 200 tie-heavy and 2 x 100 non-tent instances, and within 1e-9
    on 200 float instances; witness utilities recompute exactly."""
    rng = random.Random(5)

    def exact_instances():
        yield from (random_instance(rng, max_n=5, max_m=8) for _ in range(500))
        yield from (tie_heavy_instance(rng) for _ in range(200))
        for f in (SKEWED_F, FLOOR_F):
            yield from (non_tent_instance(rng, f) for _ in range(100))

    for i, (game, profile) in enumerate(exact_instances()):
        player = rng.randrange(game.n)
        br = best_response_value(game, profile, player)
        assert br == enumerate_best_response(game, profile, player), (i, game, profile)
        witness = best_response_witness(game, profile, player)
        achieved = utilities(game, profile.replace(player, witness.strategy))[player]
        assert achieved == br.attained_value, (i, game, profile)
    for i in range(200):
        game, profile = float_instance(rng)
        player = rng.randrange(game.n)
        br = best_response_value(game, profile, player)
        oracle = enumerate_best_response(game, profile, player)
        assert numbers_equal(br.attained_value, oracle.attained_value), (i, game, profile)
        assert numbers_equal(br.sup_value, oracle.sup_value), (i, game, profile)
    report(5, "best-response oracle equivalence", "900 exact + 200 float instances")


def test_criterion_6_feature_correctness():
    """Hand fixtures exact; BM25/LMIR vs independent oracle at 1e-9; RBO vs
    brute-force extrapolated overlap at 1e-12 on 200 random pairs."""
    stops = frozenset({"the", "a", "of"})
    texts = ["cat cat dog", "dog mouse the", "the cat of a mouse"]
    docs = [tokenize(t) for t in texts]
    stats = CorpusStats.from_documents(docs)

    feats = compute_features(docs[0], tokenize("cat"), stats, stops)
    assert feats.tf == 2.0
    assert feats.normtf == 2 / 3
    assert feats.len == 3.0
    assert feats.fracstop == 0.0
    assert feats.stopcover == 0.0
    ent_expected = -(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3)
    assert feats.ent == pytest.approx(ent_expected, abs=1e-15)

    feats2 = compute_features(docs[2], tokenize("cat mouse"), stats, stops)
    assert feats2.fracstop == 3 / 5
    assert feats2.stopcover == 1.0
    assert feats2.ent == pytest.approx(math.log2(5), abs=1e-15)

    rng = random.Random(6)
    vocab = ["cat", "dog", "mouse", "fish", "the", "a", "runs", "of", "tree"]
    for _ in range(60):
        sample_texts = [" ".join(rng.choices(vocab, k=rng.randint(1, 25)))
                        for _ in range(rng.randint(2, 5))]
        sample_docs = [tokenize(t) for t in sample_texts]
        sample_stats = CorpusStats.from_documents(sample_docs)
        query = tokenize(" ".join(rng.sample(vocab, rng.randint(1, 3))))
        target = sample_docs[0]
        got = compute_features(target, query, sample_stats, stops)
        token_lists = [list(d.tokens) for d in sample_docs]
        assert abs(got.bm25 - bm25_oracle(list(target.tokens), list(query.tokens),
                                          token_lists)) <= 1e-9
        assert abs(got.lmir - lmir_oracle(list(target.tokens), list(query.tokens),
                                          token_lists)) <= 1e-9

    for _ in range(200):
        pool = list(range(rng.randint(1, 15)))
        a = rng.sample(pool, rng.randint(1, len(pool)))
        b = rng.sample(pool, rng.randint(1, len(pool)))
        p = rng.choice([0.5, 0.8, 0.9, 0.95])
        assert abs(rbo(a, b, p) - rbo_ext_oracle(a, b, p)) <= 1e-12
    report(6, "feature correctness", "fixtures exact; oracles within tolerance")


def test_criterion_7_prediction_layout_and_metrics():
    """27-feature layout with fixed offsets; AllW/AllL closed forms; t-test
    conventions and reference CDF fixtures."""
    assert FEATURE_DIM == 27
    assert section_slices() == {
        "micro": slice(0, 12),
        "macro": slice(12, 15),
        "topic_macro": slice(15, 17),
        "topic_rank": slice(17, 20),
        "query_rank": slice(20, 23),
        "prev_change": slice(23, 26),
        "len": slice(26, 27),
    }
    log = synthesize(SynthesisConfig(topics=6, rounds=8), seed=77)
    insts = normalize_per_query(build_instances(log))
    assert insts and all(len(i.features) == 27 for i in insts)

    out = baselines(log, insts, seed=7)
    for gp in out["allw"]:
        k = len(gp.candidates)
        acc, f1 = evaluate([gp])
        assert acc == pytest.approx(1 / k)
        assert f1 == pytest.approx(2 / (k + 1))
    _, f1_alll = evaluate(out["alll"])
    assert f1_alll == 0.0

    r = paired_t_test([0.4, 0.6, 0.9], [0.4, 0.6, 0.9])
    assert r.t == 0.0 and r.p_two_tailed == 1.0

    fixtures = {
        (2.0, 4): 0.1161165235168155,
        (1.5, 9): 0.16785065605707486,
        (2.7764451051977987, 4): 0.049999999999999774,
        (0.5, 2): 0.6666666666666667,
        (3.0, 7): 0.019942126131992522,
    }
    for (t, df), expected in fixtures.items():
        assert abs(t_sf_two_tailed(t, df) - expected) <= 1e-6
    report(7, "prediction layout and metrics")


def test_criterion_8_end_to_end_direction():
    """On synthetic mimic logs (30 topics, 3 queries, 10 rounds, 20 seeds):
    cross-validated model accuracy strictly above the random baseline,
    paired t-test significant at 0.05."""
    start = time.perf_counter()
    config = SynthesisConfig(topics=30, rounds=10, queries_per_topic=3)
    lreg_accs, rand_accs = [], []
    for seed in range(20):
        log = synthesize(config, seed=9000 + seed)
        insts = normalize_per_query(build_instances(log))
        cv = cross_validate(insts, (1.0, 10.0, 50.0, 100.0), seed=seed)
        lreg_accs.append(cv.mean_acc)
        rand_acc, _ = evaluate(baselines(log, insts, seed=seed)["rand"])
        rand_accs.append(rand_acc)
    mean_lreg = sum(lreg_accs) / len(lreg_accs)
    mean_rand = sum(rand_accs) / len(rand_accs)
    assert mean_lreg > mean_rand, (mean_lreg, mean_rand)
    ttest = paired_t_test(lreg_accs, rand_accs)
    assert ttest.p_two_tailed <= 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"criterion 8 took {elapsed:.0f}s (budget 10min)"
    report(
        8,
        "end-to-end direction",
        f"LReg {mean_lreg:.3f} vs Rand {mean_rand:.3f}, "
        f"p={ttest.p_two_tailed:.2e}, {elapsed:.0f}s",
    )


def test_criterion_9_cli_determinism(tmp_path):
    """Every CLI invocation recorded by this suite, plus one seeded call of
    every remaining subcommand, reruns byte-identically."""
    # cover subcommands the earlier criteria did not touch
    log_path = tmp_path / "det.jsonl"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"topics": 4, "rounds": 6}), encoding="utf-8")
    cli("simulate", "competition", "--config", str(cfg), "--seed", "11",
        "--out", str(log_path))
    feats_csv = tmp_path / "f.csv"
    cli("features", "extract", "--log", str(log_path), "--out", str(feats_csv))
    ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
    ra.write_text("[1, 2, 3]", encoding="utf-8")
    rb.write_text("[3, 2, 1]", encoding="utf-8")
    cli("features", "rbo", "--a", str(ra), "--b", str(rb), "--p", "0.9")
    cli("report", "win-spread", "--log", str(log_path))
    cli("report", "rbo", "--log", str(log_path))
    inst_csv = tmp_path / "i.csv"
    cli("predict", "build", "--log", str(log_path), "--out", str(inst_csv))
    cli("predict", "cv", "--instances", str(inst_csv), "--params", "1,10",
        "--seed", "4")
    cli("predict", "baselines", "--log", str(log_path), "--seed", "4")
    cli("game", "oracle", "--n", "2", "--m", "2", "--peak", "1/3", "--grid", "3")
    init = tmp_path / "init.json"
    init.write_text(
        json.dumps({"n": 2, "m": 3, "peak": 0.5,
                    "strategies": [["0.3", "0.4", "0"], ["0.2", "0.3", "0.5"]]}),
        encoding="utf-8",
    )
    cli("game", "dynamics", "--init", str(init), "--epsilon", "1/10",
        "--max-rounds", "8")

    assert _CLI_CALLS, "earlier criteria should have recorded CLI invocations"
    reruns = 0
    for args, first_output in list(_CLI_CALLS):
        again = _RUNNER.invoke(cli_main, list(args), catch_exceptions=False)
        assert again.exit_code == 0
        assert again.output == first_output, f"non-deterministic output for {args}"
        reruns += 1
    report(9, "CLI determinism", f"{reruns} invocations byte-identical")
