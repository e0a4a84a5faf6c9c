"""Per-layer metrics of a traced run.

Times are seconds per pass, measured by the tracer's spans around the
public entry points and brought to the reference speed of clock.py by
the traced phase's median slowdown.  Counts are per pass.  Metrics
marked ``computed`` are derived from call arguments or results rather
than timed; the rest are ``measured``.
"""

from __future__ import annotations

import hashlib
import inspect
import statistics
from collections import defaultdict

import numpy as np

from rankcomp import (
    best_response,
    dynamics,
    equilibria,
    grid_oracle,
    kernels,
    logreg,
    prediction,
)

# metric -> (unit, how it is obtained)
METRICS = {
    "competition_log.synthesize_s": ("s", "measured"),
    "competition_log.reports_s": ("s", "measured"),
    "competition_log.self_s": ("s", "measured"),
    "text_features.tokenize_calls": ("count", "measured"),
    "text_features.corpus_stats_builds": ("count", "measured"),
    "text_features.corpus_stats_s": ("s", "measured"),
    "text_features.compute_features_calls": ("count", "measured"),
    "text_features.tfidf_vector_calls": ("count", "measured"),
    "text_features.self_s": ("s", "measured"),
    "prediction.build_instances_s": ("s", "measured"),
    "prediction.instances": ("count", "measured"),
    "prediction.normalize_s": ("s", "measured"),
    "prediction.cross_validate_s": ("s", "measured"),
    "prediction.baselines_s": ("s", "measured"),
    "prediction.fits": ("count", "measured"),
    "prediction.distinct_fits": ("count", "computed"),
    "prediction.fit_useful_ratio": ("ratio", "computed"),
    "prediction.cv_mean_acc": ("ratio", "measured"),
    "prediction.self_s": ("s", "measured"),
    "logreg.train_s": ("s", "measured"),
    "logreg.fit_p50_ms": ("ms", "measured"),
    "logreg.rows_per_fit": ("count", "measured"),
    "logreg.iters_total": ("count", "measured"),
    "logreg.residual_max": ("1", "computed"),
    "logreg.self_s": ("s", "measured"),
    "kernels.grid_screen_s": ("s", "measured"),
    "kernels.profiles_screened": ("count", "measured"),
    "kernels.screen_combo_evals": ("count", "computed"),
    "kernels.logreg_fit_s": ("s", "measured"),
    "kernels.self_s": ("s", "measured"),
    "grid_oracle.search_s": ("s", "measured"),
    "grid_oracle.enumerate_s": ("s", "measured"),
    "grid_oracle.profiles": ("count", "measured"),
    "grid_oracle.survivors": ("count", "measured"),
    "grid_oracle.survivor_ratio": ("ratio", "computed"),
    "grid_oracle.equilibria": ("count", "measured"),
    "equilibria.verify_nash_calls": ("count", "measured"),
    "equilibria.verify_nash_s": ("s", "measured"),
    "equilibria.construct_s": ("s", "measured"),
    "equilibria.self_s": ("s", "measured"),
    "best_response.value_calls": ("count", "measured"),
    "best_response.value_s": ("s", "measured"),
    "best_response.witness_s": ("s", "measured"),
    "best_response.subsets_enumerated": ("count", "computed"),
    "best_response.self_s": ("s", "measured"),
    "dynamics.runs": ("count", "measured"),
    "dynamics.steps": ("count", "measured"),
    "dynamics.self_s": ("s", "measured"),
    "game.utilities_calls": ("count", "measured"),
    "game.utilities_s": ("s", "measured"),
    "trace.wall_s": ("s", "measured"),
    "trace.overhead_s": ("s", "measured"),
    "trace.overhead_frac": ("ratio", "measured"),
    "trace.target_share": ("ratio", "measured"),
}

# the layers each workload was chosen to stress, as self-time metrics
TARGET_LAYERS = {
    "predict": ("prediction.cross_validate_s",),  # inclusive of its logreg fits
    "corpus": ("text_features.self_s", "competition_log.self_s"),
    "grid": ("kernels.self_s", "grid_oracle.enumerate_s"),
    "solver": ("best_response.self_s", "dynamics.self_s"),
}


def prox_grad_residual(X, y, c_inverse_reg, model) -> float:
    """Max-norm of the proximal-gradient mapping at the returned model.

    Zero exactly at a minimizer of mean logistic loss + ||w||_1 / (C N)
    with an unpenalized bias.  The step is 1 / L for the Frobenius
    curvature bound (||X||_F^2 + N) / (4N), fixed here so the figure does
    not depend on the solver's own step choice.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    alpha = 1.0 / (c_inverse_reg * n)
    step = 4.0 * n / (float(np.sum(X * X)) + n)
    w = np.asarray(model.weights, dtype=np.float64)
    gw, gb = logreg.mean_logloss_grad(X, y, w, model.bias)
    z = w - step * gw
    w_next = np.sign(z) * np.maximum(np.abs(z) - step * alpha, 0.0)
    return float(max(np.max(np.abs(w - w_next), initial=0.0), abs(step * gb)) / step)


class Probes:
    """Counters that need a call's arguments or result, fed by tracer hooks."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.counts = defaultdict(float)
        self.fit_keys: set[bytes] = set()
        self.residual_max = 0.0
        hooks = {
            "logreg.train_lreg": (logreg.train_lreg, self._on_fit),
            "kernels.grid_screen": (kernels.grid_screen, self._on_screen),
            "best_response.best_response_value": (
                best_response.best_response_value,
                self._on_value,
            ),
            "equilibria.verify_nash": (equilibria.verify_nash, self._on_verify),
            "grid_oracle.grid_nash_search": (grid_oracle.grid_nash_search, self._on_search),
            "prediction.build_instances": (prediction.build_instances, self._on_build),
            "dynamics.run_dynamics": (dynamics.run_dynamics, self._on_dynamics),
        }
        for name, (fn, hook) in hooks.items():
            tracer.hooks[name] = self._binding(inspect.signature(fn), hook)

    @staticmethod
    def _binding(signature, hook):
        def call(tracer, span, duration, result):
            bound = signature.bind(*span.args, **span.kwargs)
            bound.apply_defaults()
            hook(bound.arguments, result)

        return call

    def _on_fit(self, args, model):
        X = np.ascontiguousarray(args["X"], dtype=np.float64)
        y = np.ascontiguousarray(args["y"], dtype=np.float64)
        c = float(args["c_inverse_reg"])
        self.fit_keys.add(hashlib.sha1(X.tobytes() + y.tobytes() + repr(c).encode()).digest())
        self.counts["fit_rows"] += X.shape[0]
        self.counts["fit_iters"] += model.meta.get("iters", model.meta.get("n_iters", 0))
        self.residual_max = max(self.residual_max, prox_grad_residual(X, y, c, model))

    def _on_screen(self, args, mask):
        rows, n = args["prof"].shape
        self.counts["profiles_screened"] += rows
        self.counts["screen_combo_evals"] += rows * n * 3 ** args["strat"].shape[1]

    def _on_value(self, args, result):
        self.counts["subsets_enumerated"] += 2 ** args["game"].m

    def _on_verify(self, args, report):
        if self.tracer.inside("grid_oracle.grid_nash_search"):
            self.counts["survivors"] += 1

    def _on_search(self, args, result):
        self.counts["grid_profiles"] += result.profiles_checked
        self.counts["grid_equilibria"] += len(result.equilibria)

    def _on_build(self, args, instances):
        self.counts["instances"] += len(instances)

    def _on_dynamics(self, args, trace):
        self.counts["dynamics_steps"] += len(trace.steps)


def metrics(tracer, probes, workload, traced, untraced) -> dict:
    """Every per-layer metric, per pass, for a traced phase and the untraced
    phase that ran the same passes before it."""
    total = tracer.total_s
    calls = tracer.calls
    counts = probes.counts
    fits = calls["logreg.train_lreg"]
    distinct = len(probes.fit_keys)
    profiles = counts["grid_profiles"]
    fit_ms = [d * 1000.0 for d in tracer.durations.get("logreg.train_lreg", ())]
    raw = {
        "competition_log.synthesize_s": total["competition_log.synthesize"],
        "competition_log.reports_s": sum(
            total[f"competition_log.report_{r}"]
            for r in ("feature_trajectories", "ranking_agreement", "win_spread")
        ),
        "competition_log.self_s": tracer.self_s["competition_log"],
        "text_features.tokenize_calls": calls["text_features.tokenize"],
        "text_features.corpus_stats_builds": calls["text_features.from_documents"],
        "text_features.corpus_stats_s": total["text_features.from_documents"],
        "text_features.compute_features_calls": calls["text_features.compute_features"],
        "text_features.tfidf_vector_calls": calls["text_features.tfidf_vector"],
        "text_features.self_s": tracer.self_s["text_features"],
        "prediction.build_instances_s": total["prediction.build_instances"],
        "prediction.instances": counts["instances"],
        "prediction.normalize_s": total["prediction.normalize_per_query"],
        "prediction.cross_validate_s": total["prediction.cross_validate"],
        "prediction.baselines_s": total["prediction.baselines"],
        "prediction.fits": fits,
        "prediction.distinct_fits": distinct,
        "prediction.self_s": tracer.self_s["prediction"],
        "logreg.train_s": total["logreg.train_lreg"],
        "logreg.iters_total": counts["fit_iters"],
        "logreg.self_s": tracer.self_s["logreg"],
        "kernels.grid_screen_s": total["kernels.grid_screen"],
        "kernels.profiles_screened": counts["profiles_screened"],
        "kernels.screen_combo_evals": counts["screen_combo_evals"],
        "kernels.logreg_fit_s": total["kernels.logreg_fit"],
        "kernels.self_s": tracer.self_s["kernels"],
        "grid_oracle.search_s": total["grid_oracle.grid_nash_search"],
        "grid_oracle.enumerate_s": tracer.self_s["grid_oracle"],
        "grid_oracle.profiles": profiles,
        "grid_oracle.survivors": counts["survivors"],
        "grid_oracle.equilibria": counts["grid_equilibria"],
        "equilibria.verify_nash_calls": calls["equilibria.verify_nash"],
        "equilibria.verify_nash_s": total["equilibria.verify_nash"],
        "equilibria.construct_s": total["equilibria.candidate_profile"]
        + total["equilibria.construct_equilibrium"],
        "equilibria.self_s": tracer.self_s["equilibria"],
        "best_response.value_calls": calls["best_response.best_response_value"],
        "best_response.value_s": total["best_response.best_response_value"],
        "best_response.witness_s": total["best_response.best_response_witness"],
        "best_response.subsets_enumerated": counts["subsets_enumerated"],
        "best_response.self_s": tracer.self_s["best_response"],
        "dynamics.runs": calls["dynamics.run_dynamics"],
        "dynamics.steps": counts["dynamics_steps"],
        "dynamics.self_s": tracer.self_s["dynamics"],
        "game.utilities_calls": calls["game.utilities"],
        "game.utilities_s": total["game.utilities"],
    }
    passes = len(traced.pass_s)
    scale = 1.0 / traced.slowdown
    out = {
        name: value * (scale if METRICS[name][0] == "s" else 1.0) / passes
        for name, value in raw.items()
    }
    # ratios and per-fit figures are not divided by the pass count
    out["prediction.fit_useful_ratio"] = distinct / fits if fits else 0.0
    out["prediction.cv_mean_acc"] = traced.mean_quality().get("cv_mean_acc", 0.0)
    out["logreg.fit_p50_ms"] = scale * statistics.median(fit_ms) if fit_ms else 0.0
    out["logreg.rows_per_fit"] = counts["fit_rows"] / fits if fits else 0.0
    out["logreg.residual_max"] = probes.residual_max
    out["grid_oracle.survivor_ratio"] = counts["survivors"] / profiles if profiles else 0.0
    out["trace.wall_s"] = traced.wall_s()
    out["trace.overhead_s"] = traced.wall_s() - untraced.wall_s()
    out["trace.overhead_frac"] = out["trace.overhead_s"] / untraced.wall_s()
    # raw span time over raw pass time, so calibration cannot skew the share
    target_s = sum(raw[m] for m in TARGET_LAYERS[workload]) / passes
    out["trace.target_share"] = target_s / statistics.fmean(traced.pass_s)
    return {name: {"value": out[name], "unit": METRICS[name][0]} for name in METRICS}
