"""The four benchmark workloads: inputs made from a seed, timed items, checks.

A workload is a closed loop that repeats one pass, a fixed list of items
made from the seed.  Each item is one call chain into rankcomp, timed as
a whole, plus a check of its output that runs outside the timing.  Every call into rankcomp
goes through a module attribute (``prediction.cross_validate(...)``), so
the traced run sees it.

Why these four (each stresses a different part of the package):

* ``predict``: the criterion-8 pipeline, where cross-validation and the
  L1-logreg fits do most of the work; the game solver is not used.
* ``corpus``: synthesis, instance building and the log reports, with no
  model fitting, so the text layer does most of the work.
* ``grid``: exact-mode grid search, where symmetric enumeration and the
  float screen dominate and exact confirmation sees few survivors.
* ``solver``: the existence sweep, exact Nash checks at larger m and
  best-response dynamics, where 2^m best-response enumeration and m!
  symmetric cycle matching dominate; the kernels are not used.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Any, Callable, Optional

from rankcomp import competition_log, dynamics, equilibria, game, grid_oracle, prediction
from rankcomp.competition_log import SynthesisConfig
from rankcomp.game import EmphasisVector, RankingGame, StrategyProfile
from rankcomp.grid_oracle import GridSpec

# criterion-8 log shape and parameter grid
LOG_CONFIG = SynthesisConfig(topics=30, rounds=10, queries_per_topic=3)
CV_PARAMS = (1.0, 10.0, 50.0, 100.0)

# logs per pass: one from each instance-count stratum of the seed set, so a
# pass does about the same work whichever logs the seed picks
LOGS_PER_PASS = {"predict": 3, "corpus": 3}

# (n, m, g): an n=2 cell whose screen scores 3^4 role combinations per
# player, and an n=3 cell that leans on symmetric enumeration.  Both
# thresholds (1/3 and 1/2) lie on their grids, so the search at the
# threshold finds equilibria to confirm.
GRID_CELLS = ((2, 4, 9), (3, 4, 4))

# existence sweep of criterion 2
SWEEP_N = range(2, 7)
SWEEP_M = range(1, 9)
# exact Nash checks of random rational profiles: (n, m).  m >= 9 keeps each
# check well above the largest sweep cell, so which items form the latency
# tail does not depend on the seed.
VERIFY_SHAPES = ((2, 9), (2, 10), (2, 11), (3, 9), (3, 10))
# best-response dynamics from random starts: (n, m)
DYNAMICS_SHAPES = ((2, 5), (2, 6), (2, 7), (3, 5))
DYNAMICS_ROUNDS = 20


class CheckFailed(Exception):
    """An item's output disagrees with what the benchmark expects."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Item:
    name: str
    run: Callable[[], Any]
    # returns quality figures to aggregate (may be empty); raises CheckFailed
    check: Callable[[Any], dict]


# --- digests -------------------------------------------------------------------


def _jsonable(obj):
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(obj) -> str:
    """sha256 of a canonical JSON rendering (floats rendered exactly)."""
    text = json.dumps(obj, sort_keys=True, default=_jsonable)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def instances_csv_digest(instances, scratch: Path) -> str:
    """sha256 of the instance CSV exactly as ``instances_to_csv`` writes it."""
    path = scratch / "instances.csv"
    prediction.instances_to_csv(path, instances)
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    finally:
        path.unlink()


def corpus_outputs(log) -> tuple:
    """Everything the corpus workload computes from one log."""
    return (
        prediction.build_instances(log),
        competition_log.report_feature_trajectories(log),
        competition_log.report_ranking_agreement(log),
        competition_log.report_win_spread(log),
    )


def corpus_digests(outputs, scratch: Path) -> dict:
    """Digests of corpus_outputs, as recorded in expected.json."""
    instances, trajectories, agreement, win_spread = outputs
    return {
        "instances_csv": instances_csv_digest(instances, scratch),
        "trajectories": digest(trajectories),
        "agreement": digest(agreement),
        "win_spread": digest(win_spread),
    }


# --- random rational games --------------------------------------------------------


def random_fraction(rng: random.Random, max_den: int = 12) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def random_strategy(rng: random.Random, m: int) -> EmphasisVector:
    vals = [Fraction(0) if rng.random() < 0.3 else random_fraction(rng) for _ in range(m)]
    total = sum(vals)
    if total > 1:
        vals = [v / total for v in vals]
    return EmphasisVector(vals)


def random_profile(rng: random.Random, n: int, m: int) -> StrategyProfile:
    return StrategyProfile([random_strategy(rng, m) for _ in range(n)])


# --- workloads -------------------------------------------------------------------


class Workload:
    name = ""
    pass_items: list[Item]
    # the workload's mix of work kinds, for clock.SpeedClock; taken from the
    # traced layer shares at the time the benchmark was defined
    calibration: dict[str, float]


class _LogWorkload(Workload):
    """A pass processes synthetic logs whose seeds come from a recorded seed set."""

    def __init__(self, rng, seed_set, expected, scratch):
        self.logs = expected["logs"]
        self.scratch = scratch
        by_size = sorted(
            expected["seed_sets"][seed_set], key=lambda s: (self.logs[str(s)]["instances"], s)
        )
        k = LOGS_PER_PASS[self.name]
        strata = [by_size[i * len(by_size) // k : (i + 1) * len(by_size) // k] for i in range(k)]
        seeds = [rng.choice(stratum) for stratum in strata]
        self.pass_items = [self._item(seed) for seed in seeds]

    def _item(self, seed: int) -> Item:
        raise NotImplementedError


class Predict(_LogWorkload):
    name = "predict"
    calibration = {"numpy": 0.75, "interpreter": 0.25}  # FISTA fits; text, CV bookkeeping

    def _item(self, seed):
        def run():
            log = competition_log.synthesize(LOG_CONFIG, seed=seed)
            insts = prediction.build_instances(log)
            norm = prediction.normalize_per_query(insts)
            cv = prediction.cross_validate(norm, CV_PARAMS, seed=seed)
            rand_acc, _ = prediction.evaluate(prediction.baselines(log, norm, seed=seed)["rand"])
            return insts, norm, cv.mean_acc, rand_acc

        def check(out):
            insts, norm, lreg_acc, rand_acc = out
            expect(
                instances_csv_digest(insts, self.scratch) == self.logs[str(seed)]["instances_csv"],
                f"log {seed}: instance digest differs from the recorded one",
            )
            winners = Counter()
            for inst in norm:
                winners[(inst.topic_id, inst.query_index, inst.round_index)] += inst.label
            expect(
                all(count == 1 for count in winners.values()),
                f"log {seed}: a candidate group does not have exactly one winner",
            )
            expect(lreg_acc > rand_acc, f"log {seed}: LReg {lreg_acc} <= Rand {rand_acc}")
            return {"cv_mean_acc": lreg_acc}

        return Item(f"log{seed}", run, check)


class Corpus(_LogWorkload):
    name = "corpus"
    calibration = {"interpreter": 1.0}

    def _item(self, seed):
        def run():
            return corpus_outputs(competition_log.synthesize(LOG_CONFIG, seed=seed))

        def check(out):
            got = corpus_digests(out, self.scratch)
            want = self.logs[str(seed)]
            bad = sorted(key for key in got if got[key] != want[key])
            expect(not bad, f"log {seed}: digests differ from the recorded ones: {bad}")
            return {}

        return Item(f"log{seed}", run, check)


class Grid(Workload):
    name = "grid"
    calibration = {"numpy": 0.85, "interpreter": 0.15}  # float screen; enumeration

    def __init__(self, rng, seed_set, expected, scratch):
        self.pass_items = []
        for n, m, g in GRID_CELLS:
            threshold = equilibria.existence_threshold(n, m)
            found = expected["grid_equilibria"][f"{n},{m},{g}"]
            above = threshold + Fraction(1, rng.randint(1000, 1999))
            self.pass_items.append(self._item(n, m, g, threshold, found))
            self.pass_items.append(self._item(n, m, g, above, 0))

    @staticmethod
    def _item(n, m, g, peak, expected_count) -> Item:
        rgame = RankingGame.tent(n, m, peak)
        spec = GridSpec(g=g, n=n, m=m, peak=peak)

        def run():
            return grid_oracle.grid_nash_search(rgame, spec, "exact", jobs=1)

        def check(result):
            expect(
                len(result.equilibria) == expected_count,
                f"grid {(n, m, g)} at peak {peak}: {len(result.equilibria)} equilibria, "
                f"expected {expected_count}",
            )
            for profile in result.equilibria:
                expect(
                    equilibria.verify_nash(rgame, profile).is_nash,
                    f"grid {(n, m, g)} at peak {peak}: a reported profile is not Nash",
                )
            return {}

        return Item(f"grid{n}x{m}x{g}@{peak}", run, check)


class Solver(Workload):
    name = "solver"
    calibration = {"fractions": 1.0}

    def __init__(self, rng, seed_set, expected, scratch):
        delta = Fraction(1, rng.randint(500, 1500))
        self.pass_items = []
        for n, m in product(SWEEP_N, SWEEP_M):
            threshold = equilibria.existence_threshold(n, m)
            if threshold < 1:
                peaks = [threshold + k * delta for k in (-2, -1, 0, 1, 2)]
            else:
                peaks = [threshold * Fraction(k, 5) for k in range(1, 6)]
            self.pass_items.extend(
                self._sweep_item(n, m, peak) for peak in peaks if 0 < peak <= 1
            )
        for n, m in VERIFY_SHAPES:
            peak = Fraction(rng.randint(1, 9), 10)
            self.pass_items.append(
                self._verify_item(RankingGame.tent(n, m, peak), random_profile(rng, n, m))
            )
        for n, m in DYNAMICS_SHAPES:
            peak = Fraction(rng.randint(2, 8), 10)
            self.pass_items.append(
                self._dynamics_item(RankingGame.tent(n, m, peak), random_profile(rng, n, m))
            )

    @staticmethod
    def _sweep_item(n, m, peak) -> Item:
        def run():
            verdict = equilibria.exists_equilibrium(n, m, peak)
            rgame = RankingGame.tent(n, m, peak)
            report = equilibria.verify_nash(rgame, equilibria.candidate_profile(rgame))
            return verdict.exists, report.is_nash

        def check(out):
            exists, is_nash = out
            expect(
                exists == is_nash, f"sweep {(n, m, peak)}: verify_nash {is_nash}, exists {exists}"
            )
            return {}

        return Item(f"sweep{n}x{m}@{peak}", run, check)

    @staticmethod
    def _verify_item(rgame, profile) -> Item:
        def run():
            return equilibria.verify_nash(rgame, profile)

        def check(report):
            current = game.utilities(rgame, profile)
            improving_any = False
            for row in report.per_player:
                improving = row.attained > current[row.player]
                improving_any |= improving
                expect(
                    row.current == current[row.player],
                    f"verify {rgame}: player {row.player} current utility differs",
                )
                expect(
                    (row.improving_witness is not None) == improving,
                    f"verify {rgame}: player {row.player} witness/improvement mismatch",
                )
                if improving:
                    achieved = game.utilities(
                        rgame, profile.replace(row.player, row.improving_witness)
                    )[row.player]
                    expect(
                        achieved == row.attained,
                        f"verify {rgame}: player {row.player} witness earns {achieved}, "
                        f"not {row.attained}",
                    )
            expect(report.is_nash == (not improving_any), f"verify {rgame}: verdict inconsistent")
            if report.is_nash:
                expect(
                    equilibria.exists_equilibrium(rgame.n, rgame.m, rgame.peak).exists,
                    f"verify {rgame}: Nash profile where no equilibrium exists",
                )
            return {}

        return Item(f"verify{rgame.n}x{rgame.m}", run, check)

    @staticmethod
    def _dynamics_item(rgame, initial) -> Item:
        def run():
            return dynamics.run_dynamics(rgame, initial, max_rounds=DYNAMICS_ROUNDS)

        def check(trace):
            expect(
                trace.outcome.kind in ("converged", "cycled", "budget_exhausted"),
                f"dynamics {rgame}: unknown outcome {trace.outcome.kind}",
            )
            expect(len(trace.steps) <= DYNAMICS_ROUNDS, f"dynamics {rgame}: too many steps")
            if trace.steps:
                reports = dynamics.verify_trace(
                    rgame, trace.profiles, [step.mover for step in trace.steps]
                )
                expect(
                    all(r.optimal for r in reports),
                    f"dynamics {rgame}: a step is not a best response",
                )
            return {}

        return Item(f"dynamics{rgame.n}x{rgame.m}", run, check)


_CLASSES = {cls.name: cls for cls in (Predict, Corpus, Grid, Solver)}


def make(name: str, seed: int, seed_set: str, expected: dict, scratch: Optional[Path]) -> Workload:
    """Build a workload's inputs; the same (name, seed, seed_set) gives the same inputs."""
    rng = random.Random(f"{name}:{seed_set}:{seed}")
    return _CLASSES[name](rng, seed_set, expected, scratch)
