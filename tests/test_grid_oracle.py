import os
from fractions import Fraction as F

import numpy as np
import pytest

from rankcomp import kernels
from rankcomp.equilibria import construct_equilibrium, verify_nash
from rankcomp.game import RankingGame, SinglePeakFunction, StrategyProfile
from rankcomp.grid_oracle import (
    GridSpec,
    grid_nash_search,
    grid_profiles,
    grid_strategies,
    profile_count,
    strategy_count,
)
from rankcomp.numeric import CapacityError, DomainError


class TestCounting:
    def test_single_player_single_query(self):
        spec = GridSpec(g=2, n=1, m=1, peak=F(1, 2))
        assert strategy_count(spec) == 3
        strategies = [p.strategies[0].emphases for p in grid_profiles(spec)]
        assert strategies == [(F(0),), (F(1, 2),), (F(1),)]

    def test_two_by_two_grid(self):
        spec = GridSpec(g=2, n=2, m=2, peak=F(1, 2), symmetry=False)
        assert strategy_count(spec) == 6
        assert profile_count(spec) == 36
        sym = GridSpec(g=2, n=2, m=2, peak=F(1, 2), symmetry=True)
        assert profile_count(sym) == 21

    def test_unit_grid_three_queries(self):
        spec = GridSpec(g=1, n=2, m=3, peak=F(1, 2))
        assert strategy_count(spec) == 4

    def test_budget_capacity_error(self):
        spec = GridSpec(g=12, n=3, m=4, peak=F(1, 2), budget=1000)
        with pytest.raises(CapacityError):
            list(grid_profiles(spec))

    def test_strategies_respect_simplex(self):
        for nums in grid_strategies(GridSpec(g=4, n=1, m=3, peak=F(1, 2))):
            assert sum(nums) <= 4


class TestExactSearch:
    def test_finds_small_p_equilibrium_on_grid(self):
        peak = F(1, 3)
        game = RankingGame.tent(2, 3, peak)
        res = grid_nash_search(game, GridSpec(g=3, n=2, m=3, peak=peak))
        target = StrategyProfile([[F(1, 3)] * 3] * 2)
        assert any(p.strategies == target.strategies for p in res.equilibria)

    def test_empty_above_two_player_threshold(self):
        peak = F(2, 3)
        game = RankingGame.tent(2, 3, peak)
        res = grid_nash_search(game, GridSpec(g=12, n=2, m=3, peak=peak))
        assert res.equilibria == ()

    def test_n_ge_m_split_found_at_peak_one(self):
        peak = F(1)
        game = RankingGame.tent(2, 2, peak)
        res = grid_nash_search(game, GridSpec(g=4, n=2, m=2, peak=peak))
        assert len(res.equilibria) > 0
        split = StrategyProfile([[F(1), F(0)], [F(0), F(1)]])
        canon = tuple(sorted(v.emphases for v in split.strategies))
        assert any(
            tuple(sorted(v.emphases for v in p.strategies)) == canon
            for p in res.equilibria
        )

    def test_construction_on_grid_is_found(self):
        peak = F(1, 2)
        game = RankingGame.tent(2, 3, peak)
        eq = construct_equilibrium(game)  # (1/2, 1/2, 0) twice: on a g=2 grid
        res = grid_nash_search(game, GridSpec(g=2, n=2, m=3, peak=peak))
        canon = tuple(sorted(v.emphases for v in eq.strategies))
        assert any(
            tuple(sorted(v.emphases for v in p.strategies)) == canon
            for p in res.equilibria
        )

    def test_exact_results_are_genuine_equilibria(self):
        peak = F(1, 3)
        game = RankingGame.tent(2, 2, peak)
        res = grid_nash_search(game, GridSpec(g=3, n=2, m=2, peak=peak))
        assert res.equilibria
        for prof in res.equilibria:
            assert verify_nash(game, prof).is_nash

    def test_exact_subset_of_grid_mode(self):
        peak = F(1, 2)
        game = RankingGame.tent(2, 2, peak)
        spec = GridSpec(g=3, n=2, m=2, peak=peak)
        exact = grid_nash_search(game, spec, deviation_mode="exact")
        grid = grid_nash_search(game, spec, deviation_mode="grid")
        exact_set = {tuple(v.emphases for v in p.strategies) for p in exact.equilibria}
        grid_set = {tuple(v.emphases for v in p.strategies) for p in grid.equilibria}
        assert exact_set <= grid_set

    def test_exact_mode_rejects_non_tent_function(self):
        f = SinglePeakFunction(
            knots=((F(0), F(0)), (F(1, 4), F(3, 4)), (F(1, 2), F(1)), (F(1), F(0))),
            peak=F(1, 2),
        )
        game = RankingGame(n=2, m=2, f=f)
        spec = GridSpec(g=2, n=2, m=2, peak=F(1, 2))
        with pytest.raises(DomainError):
            grid_nash_search(game, spec, deviation_mode="exact")
        assert grid_nash_search(game, spec, deviation_mode="grid").mode == "grid"

    def test_parallel_jobs_match_serial(self):
        peak = F(1, 2)
        game = RankingGame.tent(2, 3, peak)
        spec = GridSpec(g=4, n=2, m=3, peak=peak)
        serial = grid_nash_search(game, spec, jobs=1)
        parallel = grid_nash_search(game, spec, jobs=2)
        assert [p.strategies for p in serial.equilibria] == [
            p.strategies for p in parallel.equilibria
        ]


class TestKernelBackends:
    def _random_inputs(self, rng, n, m, S=60, P=3000):
        strat = rng.integers(0, 7, size=(S, m)).astype(np.float64)
        sums = strat.sum(axis=1)
        strat[sums > 6] *= (6.0 / sums[sums > 6])[:, None]
        strat /= 6.0
        prof = rng.integers(0, S, size=(P, n))
        return strat, prof

    @pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba unavailable")
    def test_numba_and_numpy_screens_agree(self):
        rng = np.random.default_rng(7)
        for n, m, peak in [(2, 3, 0.5), (3, 2, 0.25), (2, 4, 1 / 3), (4, 2, 0.8)]:
            strat, prof = self._random_inputs(rng, n, m)
            a = kernels.grid_screen_numba(strat, prof, peak)
            b = kernels.grid_screen_numpy(strat, prof, peak)
            assert np.array_equal(a, b)

    def test_batched_logreg_fit_equals_single_fits(self):
        # solving a grid of alphas together must not change a single bit
        rng = np.random.default_rng(8)
        for N, D in [(150, 12), (37, 27), (400, 3)]:
            X = rng.random(size=(N, D))
            y = (rng.random(N) < 0.4).astype(np.float64)
            alphas = [1.0 / (c * N) for c in (1.0, 10.0, 50.0, 100.0)]
            W, B = kernels.logreg_fit(X, y, alphas, 0.05, 300)
            assert W.shape == (4, D) and B.shape == (4,)
            for k, alpha in enumerate(alphas):
                w, b = kernels.logreg_fit(X, y, [alpha], 0.05, 300)
                assert np.array_equal(W[k], w[0])
                assert np.array_equal(B[k], b[0])

    def test_backend_env_selection(self, monkeypatch):
        monkeypatch.setenv("RANKCOMP_BACKEND", "numpy")
        assert kernels.active_backend() == "numpy"
        monkeypatch.setenv("RANKCOMP_BACKEND", "auto")
        assert kernels.active_backend() in {"numba", "numpy"}
        monkeypatch.setenv("RANKCOMP_BACKEND", "nonsense")
        with pytest.raises(RuntimeError):
            kernels.active_backend()

    def test_screen_agrees_with_exact_verification(self):
        # float screen must keep every true equilibrium of small instances
        peak = F(1, 3)
        game = RankingGame.tent(2, 2, peak)
        spec = GridSpec(g=3, n=2, m=2, peak=peak)
        strategies = grid_strategies(spec)
        strat = np.array(strategies, dtype=np.float64) / spec.g
        from itertools import combinations_with_replacement

        idx = list(combinations_with_replacement(range(len(strategies)), 2))
        mask = kernels.grid_screen(strat, np.array(idx, dtype=np.int64), float(peak))
        profiles = list(grid_profiles(spec))
        for keep, prof in zip(mask, profiles):
            exact = verify_nash(game, prof).is_nash
            if exact:
                assert keep  # soundness: never screen out a true equilibrium


class TestGridModeIsDiagnosticOnly:
    def test_grid_mode_accepts_a_spurious_profile_exact_mode_rejects(self):
        # at resolution 1 every document scores zero (f(0) = f(1) = 0), so
        # every grid profile is grid-stable; continuous deviations through
        # the peak expose them
        peak = F(1, 2)
        game = RankingGame.tent(2, 2, peak)
        spec = GridSpec(g=1, n=2, m=2, peak=peak)
        grid = grid_nash_search(game, spec, deviation_mode="grid")
        exact = grid_nash_search(game, spec, deviation_mode="exact")
        assert len(grid.equilibria) > 0
        assert exact.equilibria == ()
        assert any("spurious" in note for note in grid.notes)
