import math
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from rankcomp import logreg as logreg_module
from rankcomp import prediction as prediction_module
from rankcomp.competition_log import (
    CompetitionLog,
    GameHistory,
    RoundRecord,
    SynthesisConfig,
    filter_for_prediction,
    synthesize,
)
from rankcomp.logreg import (
    LinearModel,
    mean_logloss,
    mean_logloss_grad,
    train_lreg,
    train_lreg_grid,
)
from rankcomp.numeric import CapacityError, DomainError
from rankcomp.prediction import (
    FEATURE_DIM,
    FEATURE_NAMES,
    CvReport,
    FoldReport,
    GroupPrediction,
    PredictionInstance,
    baselines,
    build_instances,
    cross_validate,
    evaluate,
    instances_from_csv,
    instances_to_csv,
    mask_sections,
    model_predictions,
    normalize_per_query,
    predict_winner,
    section_slices,
)
from rankcomp.stats import paired_t_test, t_sf_two_tailed


def fixture_log(texts_by_round, rankings_by_round, queries=("cat", "dog", "fish")):
    """Single-topic log from explicit per-round texts and rankings."""
    pubs = sorted(texts_by_round[0])
    rounds = []
    for idx, (texts, rankings) in enumerate(zip(texts_by_round, rankings_by_round), start=1):
        rounds.append(
            RoundRecord(
                round_index=idx,
                documents={p: (texts[p], False) for p in pubs},
                rankings=tuple(tuple(r) for r in rankings),
            )
        )
    return CompetitionLog(
        topics=(GameHistory(topic_id="T", queries=tuple(queries), rounds=tuple(rounds)),)
    )


# three rounds, three publishers; designed so round-3 prediction for q0 is
# eligible (ann wins rounds 1-2, bob takes over in round 3)
TEXTS = [
    {"ann": "cat cat dog", "bob": "fish the", "eve": "dog dog"},
    {"ann": "cat cat dog", "bob": "cat fish the", "eve": "dog dog dog"},
    {"ann": "cat dog", "bob": "cat cat fish fish the", "eve": "dog"},
]
RANKINGS = [
    [["ann", "bob", "eve"], ["eve", "ann", "bob"], ["bob", "ann", "eve"]],
    [["ann", "bob", "eve"], ["eve", "ann", "bob"], ["bob", "eve", "ann"]],
    [["bob", "ann", "eve"], ["eve", "bob", "ann"], ["bob", "ann", "eve"]],
]
LOG = fixture_log(TEXTS, RANKINGS)


class TestLayout:
    def test_feature_dim_is_27(self):
        assert FEATURE_DIM == 27
        assert len(FEATURE_NAMES) == 27

    def test_section_offsets_are_frozen(self):
        assert section_slices() == {
            "micro": slice(0, 12),
            "macro": slice(12, 15),
            "topic_macro": slice(15, 17),
            "topic_rank": slice(17, 20),
            "query_rank": slice(20, 23),
            "prev_change": slice(23, 26),
            "len": slice(26, 27),
        }

    def test_built_instances_are_27_dimensional(self):
        insts = build_instances(LOG)
        assert insts
        assert all(len(i.features) == 27 for i in insts)

    def test_exactly_one_positive_label_per_group(self):
        insts = build_instances(LOG)
        groups = {}
        for inst in insts:
            groups.setdefault(inst.group_key, []).append(inst.label)
        for labels in groups.values():
            assert sum(labels) == 1


class TestFeatureValues:
    def _by_publisher(self, query_index=0, round_index=3):
        insts = build_instances(LOG)
        return {
            i.publisher: i
            for i in insts
            if i.query_index == query_index and i.round_index == round_index
        }

    def test_candidates_exclude_previous_winner(self):
        by_pub = self._by_publisher()
        assert set(by_pub) == {"bob", "eve"}  # ann won q0 at round 2

    def test_label_marks_the_new_winner(self):
        by_pub = self._by_publisher()
        assert by_pub["bob"].label is True
        assert by_pub["eve"].label is False

    def test_topic_rank_and_query_rank(self):
        by_pub = self._by_publisher()
        # bob's round-2 ranks across queries: q0=2, q1=3, q2=1
        names = dict(zip(FEATURE_NAMES, by_pub["bob"].features))
        assert names["topicrank_min"] == 1.0
        assert names["topicrank_median"] == 2.0
        assert names["topicrank_max"] == 3.0
        # bob's own rank for q0 was 2 = the median
        assert names["queryrank_is_min"] == 0.0
        assert names["queryrank_is_median"] == 1.0
        assert names["queryrank_is_max"] == 0.0

    def test_prev_change_formula_cases(self):
        # bob: q0 rank 2 -> 2 gives 0; q1 3 -> 3 gives 0; q2 1 -> 1 gives 0
        names = dict(zip(FEATURE_NAMES, self._by_publisher()["bob"].features))
        assert names["prevchange_min"] == 0.0
        # eve: q0 3 -> 3 = 0; q1 1 -> 1 = degenerate 0; q2 3 -> 2 = 1/2
        eve = dict(zip(FEATURE_NAMES, self._by_publisher()["eve"].features))
        assert eve["prevchange_min"] == 0.0
        assert eve["prevchange_median"] == 0.0
        assert eve["prevchange_max"] == 0.5

    def test_len_feature_counts_current_tokens(self):
        by_pub = self._by_publisher()
        assert dict(zip(FEATURE_NAMES, by_pub["bob"].features))["len"] == 5.0
        assert dict(zip(FEATURE_NAMES, by_pub["eve"].features))["len"] == 1.0

    def test_micro_counts_for_bob(self):
        # winner doc (round 2, q0) = ann: {cat, dog}; bob: prev {cat, fish,
        # the} -> now {cat, fish, the}: no unique-term changes at all
        names = dict(zip(FEATURE_NAMES, self._by_publisher()["bob"].features))
        for g in ("query", "stop", "other"):
            for k in ("add_w", "rmv_w", "add_nw", "rmv_nw"):
                assert names[f"micro_{g}_{k}"] == 0.0

    def test_micro_counts_for_eve(self):
        # eve: prev {dog} -> now {dog}: unchanged unique terms
        names = dict(zip(FEATURE_NAMES, self._by_publisher()["eve"].features))
        assert all(names[f"micro_{g}_{k}"] == 0.0
                   for g in ("query", "stop", "other")
                   for k in ("add_w", "rmv_w", "add_nw", "rmv_nw"))

    def test_micro_detects_winner_term_adoption(self):
        texts = [
            {"ann": "cat dog", "bob": "fish"},
            {"ann": "cat dog", "bob": "fish"},
            {"ann": "cat dog", "bob": "cat dog the"},
        ]
        rankings = [
            [["ann", "bob"], ["ann", "bob"], ["ann", "bob"]],
            [["ann", "bob"], ["ann", "bob"], ["ann", "bob"]],
            [["bob", "ann"], ["ann", "bob"], ["ann", "bob"]],
        ]
        log = fixture_log(texts, rankings)
        insts = [i for i in build_instances(log) if i.publisher == "bob"]
        names = dict(zip(FEATURE_NAMES, insts[0].features))
        # query group = {cat}: bob added "cat", a winner term
        assert names["micro_query_add_w"] == 1.0
        # other group: added winner term "dog", removed non-winner "fish"
        assert names["micro_other_add_w"] == 1.0
        assert names["micro_other_rmv_nw"] == 1.0
        # stop group: "the" added, not in the winner doc
        assert names["micro_stop_add_nw"] == 1.0

    def test_verbatim_copy_of_winner_has_unit_similarity(self):
        texts = [
            {"ann": "cat dog mouse", "bob": "fish fish"},
            {"ann": "cat dog mouse", "bob": "fish fish"},
            {"ann": "cat dog mouse", "bob": "cat dog mouse"},
        ]
        rankings = [
            [["ann", "bob"], ["ann", "bob"], ["ann", "bob"]],
            [["ann", "bob"], ["ann", "bob"], ["ann", "bob"]],
            [["bob", "ann"], ["ann", "bob"], ["ann", "bob"]],
        ]
        log = fixture_log(texts, rankings)
        inst = [i for i in build_instances(log) if i.publisher == "bob"][0]
        names = dict(zip(FEATURE_NAMES, inst.features))
        assert names["macro_sim_now_winner"] == pytest.approx(1.0)
        assert names["micro_other_add_nw"] == 0.0


class TestNormalization:
    def test_two_values_map_to_zero_one(self):
        insts = build_instances(LOG)
        norm = normalize_per_query(insts)
        for inst in norm:
            assert all(0.0 <= v <= 1.0 for v in inst.features)

    def test_idempotent(self):
        norm = normalize_per_query(build_instances(LOG))
        again = normalize_per_query(norm)
        assert [i.features for i in again] == [i.features for i in norm]

    def test_single_instance_group_all_zero(self):
        texts = [
            {"ann": "cat", "bob": "dog"},
            {"ann": "cat", "bob": "dog"},
            {"ann": "cat", "bob": "cat cat"},
        ]
        rankings = [
            [["ann", "bob"]],
            [["ann", "bob"]],
            [["bob", "ann"]],
        ]
        log = fixture_log(texts, rankings, queries=("cat",))
        norm = normalize_per_query(build_instances(log))
        assert len(norm) == 1
        assert set(norm[0].features) == {0.0}

    def test_labels_untouched(self):
        insts = build_instances(LOG)
        norm = normalize_per_query(insts)
        assert [i.label for i in norm] == [i.label for i in insts]


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        insts = normalize_per_query(build_instances(LOG))
        path = tmp_path / "inst.csv"
        instances_to_csv(path, insts)
        back = instances_from_csv(path)
        assert back == insts

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda row: row[:4] + ["abc"] + row[5:], "line 3: could not convert"),
            (lambda row: row[:5] + row[6:], "line 3: 31 columns, expected 32"),
            (lambda row: row + ["0"], "line 3: 33 columns, expected 32"),
            (lambda row: row[:1] + ["q"] + row[2:], "line 3: invalid literal"),
            (lambda row: row[:-1] + ["yes"], "line 3: label 'yes' is not 0 or 1"),
            (lambda row: row[:4] + ["nan"] + row[5:], "line 3: feature micro_query_add_w is not finite"),
            (lambda row: row[:30] + ["-inf"] + row[31:], "line 3: feature len is not finite"),
        ],
    )
    def test_malformed_row_names_its_line(self, tmp_path, edit, message):
        path = tmp_path / "inst.csv"
        instances_to_csv(path, build_instances(LOG)[:3])
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DomainError, match=message):
            instances_from_csv(path)

    def test_empty_file_is_a_header_error(self, tmp_path):
        path = tmp_path / "inst.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DomainError, match="header"):
            instances_from_csv(path)


def rank_deficient_set():
    """Round 5 of a 5-topic log alone: 20 rows with constant columns, so
    the 27 features and the bias span only 20 dimensions."""
    log = synthesize(SynthesisConfig(topics=5, rounds=5), seed=8)
    insts = normalize_per_query(build_instances(log))
    return prediction_module._layout([i for i in insts if i.round_index == 5])[:2]


def solver_set(name):
    if name == "rank_deficient":
        return rank_deficient_set()
    if name == "separable":
        return np.array([[0.0, 0.0], [0.1, 0.0], [1.0, 1.0], [0.9, 1.0]]), np.array([0.0, 0.0, 1.0, 1.0])
    np_rng = np.random.default_rng(9)
    return np_rng.random(size=(60, 7)), (np_rng.random(60) < 0.5).astype(float)


def split_form_optimum(optimize, X, y, alpha):
    """The minimum of mean logistic loss + alpha * ||w||_1 by L-BFGS-B on
    w = u - v with u, v >= 0, a smooth bound-constrained form."""
    D = X.shape[1]

    def objective(x):
        u, v, b = x[:D], x[D : 2 * D], x[2 * D]
        gw, gb = mean_logloss_grad(X, y, u - v, b)
        value = mean_logloss(X, y, u - v, b) + alpha * (u.sum() + v.sum())
        return value, np.concatenate([gw + alpha, alpha - gw, [gb]])

    res = optimize.minimize(
        objective, np.zeros(2 * D + 1), jac=True, method="L-BFGS-B",
        bounds=[(0.0, None)] * (2 * D) + [(None, None)],
        options={"maxiter": 100000, "maxfun": 100000, "ftol": 0.0, "gtol": 1e-13, "maxcor": 30},
    )
    return res.fun


GRID = (1.0, 10.0, 50.0, 100.0)


class TestLogreg:
    def test_separable_toy_set_fits_perfectly(self):
        X = np.array([[0.0, 0.0], [0.1, 0.0], [1.0, 1.0], [0.9, 1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = train_lreg(X, y, 100.0)
        assert (((model.decision_scores(X) > 0.5) == y).mean()) == 1.0

    def test_gradient_matches_central_finite_differences(self, rng):
        np_rng = np.random.default_rng(5)
        X = np_rng.normal(size=(30, 6))
        y = (np_rng.random(30) < 0.5).astype(float)
        w = np_rng.normal(size=6)
        b = 0.25
        gw, gb = mean_logloss_grad(X, y, w, b)
        eps = 1e-6
        for d in range(6):
            wp, wm = w.copy(), w.copy()
            wp[d] += eps
            wm[d] -= eps
            fd = (mean_logloss(X, y, wp, b) - mean_logloss(X, y, wm, b)) / (2 * eps)
            assert abs(fd - gw[d]) / max(abs(fd), 1e-9) < 1e-5
        fdb = (mean_logloss(X, y, w, b + eps) - mean_logloss(X, y, w, b - eps)) / (2 * eps)
        assert abs(fdb - gb) / max(abs(fdb), 1e-9) < 1e-5

    def test_duplicated_dataset_with_scaled_penalty_gives_same_model(self):
        np_rng = np.random.default_rng(6)
        X = np_rng.random(size=(25, 4))
        y = (np_rng.random(25) < 0.5).astype(float)
        base = train_lreg(X, y, 10.0)
        doubled = train_lreg(np.vstack([X, X]), np.concatenate([y, y]), 5.0)
        assert np.allclose(base.weights, doubled.weights, atol=1e-12)
        assert base.bias == pytest.approx(doubled.bias, abs=1e-12)

    def test_degenerate_labels_error(self):
        X = np.zeros((4, 2))
        with pytest.raises(DomainError):
            train_lreg(X, np.ones(4), 10.0)

    def test_determinism(self):
        np_rng = np.random.default_rng(7)
        X = np_rng.random(size=(40, 5))
        y = (np_rng.random(40) < 0.5).astype(float)
        assert train_lreg(X, y, 10.0) == train_lreg(X, y, 10.0)

    @pytest.mark.parametrize("name", ["random", "rank_deficient", "separable"])
    def test_kkt_conditions_hold_at_every_returned_model(self, name):
        X, y = solver_set(name)
        # the solver's tolerance, plus rounding between two ways to sum a gradient
        tol = 1e-9 + 1e-12
        for model in train_lreg_grid(X, y, GRID):
            alpha = 1.0 / (model.c_inverse_reg * len(X))
            w = np.array(model.weights)
            gw, gb = mean_logloss_grad(X, y, w, model.bias)
            nonzero = w != 0
            assert abs(gb) <= tol
            assert np.all(np.abs(gw[nonzero] + alpha * np.sign(w[nonzero])) <= tol)
            assert np.all(np.abs(gw[~nonzero]) <= alpha + tol)
            assert isinstance(model.meta["iters"], int) and model.meta["iters"] >= 0
            assert 0.0 <= model.meta["residual"] <= 1e-9

    @pytest.mark.parametrize("name", ["random", "rank_deficient", "separable"])
    def test_objective_matches_split_form_lbfgsb(self, name):
        optimize = pytest.importorskip("scipy.optimize")
        X, y = solver_set(name)
        for model in train_lreg_grid(X, y, GRID):
            alpha = 1.0 / (model.c_inverse_reg * len(X))
            ours = mean_logloss(X, y, np.array(model.weights), model.bias, alpha)
            assert abs(ours - split_form_optimum(optimize, X, y, alpha)) <= 1e-10

    def test_rank_deficient_set_converges_and_repeats_bitwise(self):
        X, y = rank_deficient_set()
        assert X.shape == (20, 27)
        assert np.linalg.matrix_rank(np.column_stack([X, np.ones(len(X))])) == 20
        assert np.any(np.ptp(X, axis=0) == 0)
        first, second = train_lreg_grid(X, y, GRID), train_lreg_grid(X, y, GRID)
        for a, b in zip(first, second):
            assert a.meta["residual"] <= 1e-9
            assert np.array(a.weights).tobytes() == np.array(b.weights).tobytes()
            assert np.float64(a.bias).tobytes() == np.float64(b.bias).tobytes()
            assert a.meta == b.meta

    def test_unreachable_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(logreg_module, "_MAX_STEPS", 3)
        X, y = rank_deficient_set()
        with pytest.raises(CapacityError, match="not converged after 3 steps"):
            train_lreg(X, y, 100.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_are_refused(self, bad):
        X, y = np.array([[0.0], [1.0]]), np.array([0.0, 1.0])
        with pytest.raises(DomainError, match="regularization parameter must be positive and finite"):
            train_lreg_grid(X, y, (10.0, bad))
        with pytest.raises(DomainError, match="features must be finite"):
            train_lreg(np.array([[0.0], [bad]]), y, 10.0)

    def test_grid_fit_equals_single_fits(self):
        np_rng = np.random.default_rng(10)
        X = np_rng.random(size=(50, 6))
        y = (np_rng.random(50) < 0.5).astype(float)
        grid = (1.0, 10.0, 50.0, 100.0)
        models = train_lreg_grid(X, y, grid, seed=3)
        assert models == tuple(train_lreg(X, y, c, seed=3) for c in grid)

    def test_grid_fit_rejects_any_nonpositive_parameter(self):
        X = np.array([[0.0], [1.0]])
        with pytest.raises(DomainError):
            train_lreg_grid(X, np.array([0.0, 1.0]), (10.0, 0.0))


def _mk_group(scores_by_pub, winner):
    feats = {p: tuple([s] + [0.0] * (FEATURE_DIM - 1)) for p, s in scores_by_pub.items()}
    return [
        type("I", (), {"publisher": p, "features": feats[p], "label": p == winner,
                       "group_key": ("T", 0, 3)})()
        for p in sorted(scores_by_pub)
    ]


class TestPredictWinner:
    def _model(self, w0=1.0):
        w = (w0,) + (0.0,) * (FEATURE_DIM - 1)
        return LinearModel(weights=w, bias=0.0, c_inverse_reg=1.0, meta={})

    def test_single_candidate(self):
        group = _mk_group({"solo": 0.4}, "solo")
        assert predict_winner(self._model(), group) == "solo"

    def test_all_equal_scores_lowest_id(self):
        group = _mk_group({"zeta": 0.5, "alpha": 0.5, "mid": 0.5}, "zeta")
        assert predict_winner(self._model(), group) == "alpha"

    def test_hand_weighted_argmax(self):
        group = _mk_group({"a": 0.2, "b": 0.9, "c": 0.5}, "a")
        assert predict_winner(self._model(), group) == "b"

    def test_argmax_invariant_under_monotone_weight_scaling(self):
        group = _mk_group({"a": 0.2, "b": 0.9, "c": 0.5}, "a")
        assert predict_winner(self._model(3.7), group) == predict_winner(
            self._model(0.4), group
        )


class TestEvaluate:
    def test_allwinners_closed_form(self):
        for k in (2, 3, 5):
            preds = [
                GroupPrediction(("T", 0, 3), frozenset(f"p{i}" for i in range(k)),
                                "p0", tuple(f"p{i}" for i in range(k)))
            ]
            acc, f1 = evaluate(preds)
            assert acc == pytest.approx(1 / k)
            assert f1 == pytest.approx(2 / (k + 1))

    def test_alllosers_closed_form(self):
        for k in (2, 3, 5):
            preds = [
                GroupPrediction(("T", 0, 3), frozenset(), "p0",
                                tuple(f"p{i}" for i in range(k)))
            ]
            acc, f1 = evaluate(preds)
            assert acc == pytest.approx((k - 1) / k)
            assert f1 == 0.0

    def test_perfect_prediction(self):
        preds = [GroupPrediction(("T", 0, 3), frozenset(["p0"]), "p0", ("p0", "p1", "p2"))]
        acc, f1 = evaluate(preds)
        assert acc == 1.0 and f1 == 1.0

    def test_wrong_single_prediction(self):
        preds = [GroupPrediction(("T", 0, 3), frozenset(["p1"]), "p0", ("p0", "p1", "p2"))]
        acc, f1 = evaluate(preds)
        assert acc == pytest.approx(1 / 3)
        assert f1 == 0.0


class TestBaselines:
    def _log_and_instances(self, seed=13):
        log = synthesize(SynthesisConfig(topics=4, rounds=6), seed=seed)
        insts = normalize_per_query(build_instances(log))
        return log, insts

    def test_reproducible_given_seed(self):
        log, insts = self._log_and_instances()
        a = baselines(log, insts, seed=3)
        b = baselines(log, insts, seed=3)
        assert a == b

    def test_allw_alll_label_everyone_uniformly(self):
        log, insts = self._log_and_instances()
        out = baselines(log, insts, seed=3)
        for gp in out["allw"]:
            assert gp.predicted_positive == frozenset(gp.candidates)
        for gp in out["alll"]:
            assert gp.predicted_positive == frozenset()

    def test_query_and_topic_majorities_pick_past_winners(self):
        # round-3 q0 candidates are bob and eve (ann won round 2); bob has
        # one past q0 win, eve none, so qmaj picks bob; across the whole
        # topic eve has two wins (q2 both rounds) to bob's one, so tmaj
        # picks eve
        texts = [
            {"ann": "cat", "bob": "dog", "eve": "fish"},
            {"ann": "cat", "bob": "dog", "eve": "fish"},
            {"ann": "cat", "bob": "dog cat", "eve": "fish"},
        ]
        rankings = [
            [["bob", "ann", "eve"], ["ann", "bob", "eve"], ["eve", "bob", "ann"]],
            [["ann", "bob", "eve"], ["ann", "bob", "eve"], ["eve", "bob", "ann"]],
            [["bob", "ann", "eve"], ["ann", "bob", "eve"], ["eve", "bob", "ann"]],
        ]
        log = fixture_log(texts, rankings)
        insts = build_instances(log)
        out = baselines(log, insts, seed=0)
        q0_qmaj = [gp for gp in out["qmaj"] if gp.group_key[1] == 0]
        assert len(q0_qmaj) == 1
        assert q0_qmaj[0].predicted_positive == frozenset(["bob"])
        q0_tmaj = [gp for gp in out["tmaj"] if gp.group_key[1] == 0]
        assert q0_tmaj[0].predicted_positive == frozenset(["eve"])

    def test_rand_seed_changes_choices(self):
        log, insts = self._log_and_instances()
        a = baselines(log, insts, seed=1)["rand"]
        b = baselines(log, insts, seed=2)["rand"]
        assert any(x.predicted_positive != y.predicted_positive for x, y in zip(a, b))


class TestCrossValidate:
    def test_three_round_fold_structure(self):
        log = synthesize(SynthesisConfig(topics=6, rounds=5), seed=21)
        insts = normalize_per_query(build_instances(log))
        rounds = sorted({i.round_index for i in insts})
        report = cross_validate(insts, (1.0, 10.0), seed=0)
        assert [f.test_round for f in report.folds] == rounds
        assert all(f.selected_param in (1.0, 10.0) for f in report.folds)

    def test_insufficient_rounds(self):
        log = synthesize(SynthesisConfig(topics=4, rounds=4), seed=2)
        insts = normalize_per_query(build_instances(log))
        # rounds 3..4 only: two rounds of data
        with pytest.raises(DomainError):
            cross_validate(insts)

    def test_deterministic(self):
        log = synthesize(SynthesisConfig(topics=5, rounds=5), seed=8)
        insts = normalize_per_query(build_instances(log))
        assert cross_validate(insts, (1.0, 10.0)) == cross_validate(insts, (1.0, 10.0))

    def test_selected_param_matches_exhaustive_recomputation(self):
        log = synthesize(SynthesisConfig(topics=6, rounds=5), seed=4)
        insts = normalize_per_query(build_instances(log))
        params = (1.0, 10.0, 50.0)
        report = cross_validate(insts, params, seed=0)
        by_round = {}
        for inst in insts:
            by_round.setdefault(inst.round_index, []).append(inst)
        rounds = sorted(by_round)
        for fold in report.folds:
            train_rounds = [r for r in rounds if r != fold.test_round]
            means = []
            for param in params:
                accs = []
                for val in train_rounds:
                    fit = [i for r in train_rounds if r != val for i in by_round[r]]
                    labels = {i.label for i in fit}
                    if labels != {True, False} or not by_round[val]:
                        continue
                    model = train_lreg(*prediction_module._layout(fit)[:2], param, seed=0)
                    acc, _ = evaluate(model_predictions(model, by_round[val]))
                    accs.append(acc)
                means.append(sum(accs) / len(accs) if accs else 0.0)
            best = params[max(range(len(params)), key=lambda i: (means[i], -i))]
            assert fold.selected_param == best

    def test_section_masking(self):
        insts = normalize_per_query(build_instances(LOG))
        masked = mask_sections(insts, ["len"])
        sl = section_slices()["len"]
        for inst, orig in zip(masked, insts):
            assert inst.features[sl.start: sl.stop] == orig.features[sl.start: sl.stop]
            assert all(
                v == 0.0
                for i, v in enumerate(inst.features)
                if not (sl.start <= i < sl.stop)
            )
        with pytest.raises(DomainError):
            mask_sections(insts, ["nonsense"])


def reference_predictions(model, instances):
    """One prediction per candidate group, each group scored on its own array."""
    groups = {}
    for inst in instances:
        groups.setdefault(inst.group_key, []).append(inst)
    return [
        GroupPrediction(
            key,
            frozenset([predict_winner(model, members)]),
            next(inst.publisher for inst in members if inst.label),
            tuple(inst.publisher for inst in members),
        )
        for key, members in sorted(groups.items())
    ]


def reference_cross_validate(instances, params, seed=0):
    """Nested leave-one-round-out CV written as plain loops: every (fold,
    parameter, validation round) is fit on its own, with no sharing, and
    every candidate group is scored on its own array."""
    by_round = {}
    for inst in instances:
        by_round.setdefault(inst.round_index, []).append(inst)
    rounds = sorted(by_round)

    def fit(insts, param):
        X = np.array([i.features for i in insts], dtype=np.float64)
        y = np.array([1.0 if i.label else 0.0 for i in insts])
        return train_lreg(X, y, param, seed=seed)

    folds = []
    for test in rounds:
        train = [r for r in rounds if r != test]
        means = []
        for param in params:
            accs = []
            for val in train:
                fit_insts = [i for r in train if r != val for i in by_round[r]]
                if {i.label for i in fit_insts} != {True, False}:
                    continue
                model = fit(fit_insts, param)
                accs.append(evaluate(reference_predictions(model, by_round[val]))[0])
            means.append(sum(accs) / len(accs) if accs else 0.0)
        best = params[max(range(len(params)), key=lambda i: (means[i], -i))]
        model = fit([i for r in train for i in by_round[r]], best)
        acc, f1 = evaluate(reference_predictions(model, by_round[test]))
        folds.append(FoldReport(test, best, acc, f1))
    return CvReport(
        folds=tuple(folds),
        mean_acc=sum(f.acc for f in folds) / len(folds),
        mean_f1=sum(f.f1 for f in folds) / len(folds),
        params=tuple(params),
    )


def random_instances(np_rng, group_sizes_by_round):
    """Random features, one winner per (query, round) candidate group."""
    out = []
    for round_index, sizes in group_sizes_by_round.items():
        for q, size in enumerate(sizes):
            winner = int(np_rng.integers(size))
            for c in range(size):
                out.append(
                    PredictionInstance(
                        topic_id="T",
                        query_index=q,
                        round_index=round_index,
                        publisher=f"p{c}",
                        features=tuple(float(v) for v in np_rng.random(FEATURE_DIM)),
                        label=c == winner,
                    )
                )
    return out


class TestCrossValidateEngine:
    def test_matches_reference_on_synthetic_logs(self):
        for seed, rounds in [(31, 6), (32, 7)]:
            log = synthesize(SynthesisConfig(topics=3, rounds=rounds), seed=seed)
            insts = normalize_per_query(build_instances(log))
            params = (1.0, 10.0, 50.0, 100.0)
            assert cross_validate(insts, params) == reference_cross_validate(insts, params)

    def test_matches_reference_when_an_inner_set_lacks_a_class(self):
        # rounds 5 and 6 hold single-candidate groups only (all winners), so
        # the inner training set {5, 6} of folds (3, 4) and (4, 3) is skipped
        np_rng = np.random.default_rng(11)
        insts = random_instances(
            np_rng, {3: [3, 4, 2], 4: [4, 3, 3], 5: [1, 1, 1], 6: [1, 1]}
        )
        params = (1.0, 10.0, 100.0)
        report = cross_validate(insts, params)
        assert report == reference_cross_validate(insts, params)

    def test_accuracy_tie_selects_the_earliest_parameter(self):
        # C this small zeroes every weight, so both entries predict alike
        np_rng = np.random.default_rng(12)
        insts = random_instances(np_rng, {r: [3, 4, 4] for r in range(3, 7)})
        params = (1e-6, 1e-5)
        report = cross_validate(insts, params)
        assert all(fold.selected_param == 1e-6 for fold in report.folds)
        assert report == reference_cross_validate(insts, params)

    def test_one_kernel_call_per_distinct_training_set(self, monkeypatch):
        log = synthesize(SynthesisConfig(topics=2, rounds=10), seed=33)
        insts = normalize_per_query(build_instances(log))
        assert len({i.round_index for i in insts}) == 8
        batch_sizes = []
        fit = logreg_module._fit

        def counting_fit(X, y, alphas):
            batch_sizes.append(len(alphas))
            return fit(X, y, alphas)

        monkeypatch.setattr(logreg_module, "_fit", counting_fit)
        cross_validate(insts, (1.0, 10.0, 50.0, 100.0))
        # 8 * 7 / 2 inner training sets for all four C values, then 8 refits
        assert len(batch_sizes) == 28 + 8
        assert sorted(batch_sizes) == [1] * 8 + [4] * 28

    def test_one_product_per_model_and_scored_round(self, monkeypatch):
        log = synthesize(SynthesisConfig(topics=2, rounds=10), seed=33)
        insts = normalize_per_query(build_instances(log))
        products = []
        scores = LinearModel.decision_scores

        def counting_scores(model, X):
            products.append(len(X))
            return scores(model, X)

        monkeypatch.setattr(LinearModel, "decision_scores", counting_scores)
        cross_validate(insts, (1.0, 10.0, 50.0, 100.0))
        # 8 folds x 7 validation rounds x 4 models, then 8 refits on the test round
        assert len(products) == 8 * 7 * 4 + 8
        per_round = sorted(len([i for i in insts if i.round_index == r]) for r in range(3, 11))
        assert sorted(set(products)) == sorted(set(per_round))

    def test_training_rows_keep_round_then_input_order(self, monkeypatch):
        # rounds interleaved in the input; feature 0 carries each row's id
        np_rng = np.random.default_rng(13)
        insts = random_instances(np_rng, {r: [3, 2, 4] for r in range(3, 7)})
        random.Random(5).shuffle(insts)
        insts = [replace(inst, features=(float(k),) + inst.features[1:])
                 for k, inst in enumerate(insts)]
        seen = []

        def recording(X, y, *args, **kwargs):
            seen.append((np.array(X), np.array(y)))
            return train_lreg_grid(X, y, *args, **kwargs)

        monkeypatch.setattr(prediction_module, "train_lreg_grid", recording)
        monkeypatch.setattr(prediction_module, "train_lreg",
                            lambda X, y, c, **kw: recording(X, y, (c,), **kw)[0])
        cross_validate(insts, (1.0, 10.0))
        assert len(seen) == 4 * 3 // 2 + 4
        for X, y in seen:
            ids = [int(v) for v in X[:, 0]]
            fit_rounds = sorted({insts[k].round_index for k in ids})
            expected = [k for r in fit_rounds for k, inst in enumerate(insts)
                        if inst.round_index == r]
            assert ids == expected
            assert list(y) == [1.0 if insts[k].label else 0.0 for k in ids]

    def test_model_predictions_match_per_group_scoring(self):
        np_rng = np.random.default_rng(14)
        insts = random_instances(np_rng, {r: [3, 1, 4] for r in range(3, 6)})
        random.Random(6).shuffle(insts)
        trained = train_lreg(*prediction_module._layout(insts)[:2], 10.0)
        # zero weights tie every candidate, so the lowest publisher id wins
        flat = LinearModel((0.0,) * FEATURE_DIM, 0.0, 1.0, {})
        for model in (trained, flat):
            assert model_predictions(model, insts) == reference_predictions(model, insts)
        assert all(gp.predicted_positive == {"p0"} for gp in model_predictions(flat, insts))
        assert model_predictions(trained, []) == []


class TestPairedTTest:
    def test_identical_samples(self):
        r = paired_t_test([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
        assert r.t == 0.0 and r.p_two_tailed == 1.0 and not r.significant_at_005

    def test_constant_nonzero_differences(self):
        r = paired_t_test([2, 3, 4, 5], [1, 2, 3, 4])
        assert math.isinf(r.t) and r.p_two_tailed == 0.0 and r.significant_at_005

    def test_reference_cdf_fixtures(self):
        # frozen from an independent implementation of the t distribution
        fixtures = {
            (2.0, 4): 0.1161165235168155,
            (1.5, 9): 0.16785065605707486,
            (2.7764451051977987, 4): 0.049999999999999774,
            (0.5, 2): 0.6666666666666667,
            (3.0, 7): 0.019942126131992522,
        }
        for (t, df), expected in fixtures.items():
            assert t_sf_two_tailed(t, df) == pytest.approx(expected, abs=1e-6)

    def test_hand_computed_t_statistic(self):
        # diffs (1, 0, 2, 1, 1): mean 1, sd sqrt(0.5), t = 1/sqrt(0.1)
        a = [2, 1, 3, 2, 2]
        b = [1, 1, 1, 1, 1]
        r = paired_t_test(a, b)
        assert r.t == pytest.approx(1 / math.sqrt(0.1))
        assert r.df == 4

    def test_length_validation(self):
        with pytest.raises(DomainError):
            paired_t_test([1], [1])
        with pytest.raises(DomainError):
            paired_t_test([1, 2], [1])


class TestEndToEndDirection:
    def test_learned_model_beats_random_on_mimic_logs(self):
        # small-scale version of the acceptance check: a handful of seeds,
        # mean accuracy of the learned model above the random baseline
        lreg_accs, rand_accs = [], []
        for seed in range(4):
            log = synthesize(SynthesisConfig(topics=8, rounds=8), seed=1000 + seed)
            insts = normalize_per_query(build_instances(log))
            report = cross_validate(insts, (1.0, 10.0, 50.0, 100.0), seed=seed)
            lreg_accs.append(report.mean_acc)
            rand_preds = baselines(log, insts, seed=seed)["rand"]
            acc, _ = evaluate(rand_preds)
            rand_accs.append(acc)
        assert sum(lreg_accs) / len(lreg_accs) > sum(rand_accs) / len(rand_accs)


class TestTopicOrder:
    def test_interleaved_topics_keep_input_order(self):
        log = synthesize(SynthesisConfig(topics=3, rounds=5), seed=33)
        by_topic = {}
        for t in filter_for_prediction(log):
            by_topic.setdefault(t.topic_id, []).append(t)
        a, b = list(by_topic.values())[:2]
        assert len(a) >= 2 and b
        half = len(a) // 2
        triples = a[:half] + b + a[half:]  # topic A, then B, then A again
        got = build_instances(log, triples)
        want = [inst for t in triples for inst in build_instances(log, [t])]
        assert got == want
        assert [inst.group_key for inst in got] == [inst.group_key for inst in want]
        assert got[0].topic_id == got[-1].topic_id == a[0].topic_id

    def test_runs_match_single_triple_builds(self):
        # most (topic, round) runs of this log hold several queries, so a
        # per-run memo that carried one query's values to the next shows here
        log = synthesize(SynthesisConfig(), seed=77)
        triples = filter_for_prediction(log)
        runs = Counter((t.topic_id, t.round_index) for t in triples)
        assert sum(count >= 2 for count in runs.values()) >= len(runs) // 2
        want = [inst for t in triples for inst in build_instances(log, [t])]
        assert build_instances(log) == want
