import time
from fractions import Fraction as F
from itertools import combinations_with_replacement, permutations, product

import numpy as np
import pytest

from rankcomp import grid_oracle, kernels
from rankcomp.best_response import best_response_value
from rankcomp.equilibria import construct_equilibrium, existence_threshold, verify_nash
from rankcomp.game import RankingGame, SinglePeakFunction, StrategyProfile, utilities
from rankcomp.grid_oracle import (
    GridSpec,
    grid_nash_search,
    grid_profiles,
    grid_strategies,
    profile_count,
    strategy_count,
)
from rankcomp.numeric import CapacityError, DomainError, improves
from conftest import FLOOR_F, SKEWED_F
from screen_oracle import screen_oracle

EXACT = grid_oracle._MODES["exact"]


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

    def test_numpy_enumeration_equals_itertools(self, monkeypatch):
        # 7-row chunks end mid-block, inside a run of equal leading indices
        monkeypatch.setattr(grid_oracle, "_CHUNK_ROWS", 7)
        for k in range(1, 5):
            for count in range(1, 7):
                chunks = list(grid_oracle._index_chunks(count, k))
                assert all(c.dtype == np.int64 and 0 < len(c) <= 7 for c in chunks)
                rows = [tuple(r) for c in chunks for r in c.tolist()]
                assert rows == list(combinations_with_replacement(range(count), k)), (k, count)

    def test_orbit_yields_each_distinct_ordering_once_in_product_order(self):
        for k in range(5):
            for idx in combinations_with_replacement(range(3), k):
                assert list(grid_oracle._orbit(idx)) == sorted(set(permutations(idx))), idx

    def test_strategies_respect_simplex(self):
        for nums in grid_strategies(GridSpec(g=4, n=1, m=3, peak=F(1, 2))):
            assert sum(nums) <= 4


class TestRefusals:
    @pytest.mark.parametrize("fields, message", [
        ({"g": 0}, "grid resolution must be >= 1"),
        ({"n": 0}, "need n >= 1 and m >= 1"),
        ({"m": 0}, "need n >= 1 and m >= 1"),
        ({"peak": F(3, 2)}, "peak 3/2 outside"),
        ({"peak": F(-1, 2)}, "peak -1/2 outside"),
    ])
    def test_spec_refuses_an_empty_grid_or_a_peak_outside_the_unit(self, fields, message):
        with pytest.raises(DomainError, match=message):
            GridSpec(**{"g": 2, "n": 2, "m": 3, "peak": F(1, 2), **fields})

    @pytest.mark.parametrize("spec, mode, message", [
        (GridSpec(g=2, n=3, m=3, peak=F(1, 2)), "exact", "disagree on n or m"),
        (GridSpec(g=2, n=2, m=2, peak=F(1, 2)), "exact", "disagree on n or m"),
        (GridSpec(g=2, n=2, m=3, peak=F(1, 3)), "exact", "disagree on the peak"),
        (GridSpec(g=2, n=2, m=3, peak=F(1, 2)), "fancy", "unknown deviation mode 'fancy'"),
    ])
    def test_search_refuses_a_spec_or_mode_that_does_not_fit(self, spec, mode, message):
        with pytest.raises(DomainError, match=message):
            grid_nash_search(RankingGame.tent(2, 3, F(1, 2)), spec, mode)


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

    def test_no_symmetry_expansion_scales_with_the_orbits_not_n_factorial(self):
        # the all-ones profile has a single ordering among 12! permutations;
        # expanding it through all of them takes near a minute, its orbit milliseconds
        game = RankingGame.tent(12, 1, F(1))
        start = time.perf_counter()
        res = grid_nash_search(game, GridSpec(g=1, n=12, m=1, peak=F(1), symmetry=False))
        assert time.perf_counter() - start < 5
        assert res.profiles_checked == 2**12
        assert [p.strategies for p in res.equilibria] == [StrategyProfile([[F(1)]] * 12).strategies]

    def test_exact_mode_equals_brute_force_on_non_tent_functions(self):
        # the screen scores through f, so it keeps every profile that exact
        # verification over the whole grid accepts; FLOOR_F has f(0) = 2/5,
        # so zero emphasis wins outright against tail emphases
        def is_nash(game, profile):
            # verify_nash's decision, without witnesses for improving players
            current = utilities(game, profile)
            return not any(
                improves(best_response_value(game, profile, i).attained_value, current[i])
                for i in range(game.n)
            )

        for f in (SKEWED_F, FLOOR_F):
            found = 0
            for n, m, g in [(1, 2, 4), (2, 2, 10), (2, 3, 5), (3, 2, 5), (3, 3, 3), (2, 4, 4)]:
                game = RankingGame(n=n, m=m, f=f)
                spec = GridSpec(g=g, n=n, m=m, peak=f.peak)
                brute = tuple(p for p in grid_profiles(spec) if is_nash(game, p))
                exact = grid_nash_search(game, spec, deviation_mode="exact").equilibria
                assert exact == brute
                assert all(verify_nash(game, p).is_nash for p in exact)
                found += len(exact)
            assert found
        # grid mode screens through its own table of grid deviations, so it
        # keeps every profile that the exact grid-deviation check accepts
        tents = [SinglePeakFunction.tent(F(1, 2)), SinglePeakFunction.tent(0.5)]
        for f in (SKEWED_F, FLOOR_F, *tents):
            found = 0
            for (n, m, g), symmetry in product([(1, 2, 4), (2, 2, 4), (2, 3, 2), (3, 2, 2)],
                                               (True, False)):
                game = RankingGame(n=n, m=m, f=f)
                spec = GridSpec(g=g, n=n, m=m, peak=f.peak, symmetry=symmetry)
                every = [v for (v,) in grid_profiles(GridSpec(g=g, n=1, m=m, peak=f.peak))]
                brute = tuple(p for p in grid_profiles(spec)
                              if grid_oracle._grid_stable(game, p, every))
                assert grid_nash_search(game, spec, deviation_mode="grid").equilibria == brute
                found += len(brute)
            assert found

    def test_larger_cells_corroborate_non_existence(self):
        # just above the existence threshold, no grid profile of these
        # cells (4.5M and 2.7M profiles) survives exact confirmation
        for n, m, g in [(2, 5, 10), (3, 5, 5)]:
            peak = existence_threshold(n, m) + F(1, 1000)
            game = RankingGame.tent(n, m, peak)
            result = grid_nash_search(game, GridSpec(g=g, n=n, m=m, peak=peak))
            assert result.profiles_checked > 2_000_000
            assert result.equilibria == (), (n, m, g)

    def test_parallel_jobs_match_serial(self):
        for (n, m, g, peak, symmetry), mode in product([
            (1, 2, 2, F(1, 2), True),
            (2, 3, 4, F(1, 2), True),
            (3, 2, 3, F(1, 3), True),
            (2, 2, 3, F(1, 3), False),
        ], ("exact", "grid")):
            game = RankingGame.tent(n, m, peak)
            spec = GridSpec(g=g, n=n, m=m, peak=peak, symmetry=symmetry)
            serial = grid_nash_search(game, spec, mode, jobs=1)
            parallel = grid_nash_search(game, spec, mode, jobs=2)
            assert serial.equilibria
            assert [p.strategies for p in serial.equilibria] == [
                p.strategies for p in parallel.equilibria
            ]
            assert serial.profiles_checked == parallel.profiles_checked == profile_count(spec)
            assert serial.strategy_count == parallel.strategy_count

    def test_parallel_screen_keeps_at_most_two_chunks_per_job(self, monkeypatch):
        import concurrent.futures

        in_flight = []

        class LazyFuture:
            """Computes on first ``result()``, as a slow worker would."""

            def __init__(self, fn, args):
                self.fn, self.args, self.done = fn, args, False

            def result(self):
                if not self.done:
                    self.value, self.done = self.fn(*self.args), True
                return self.value

        class RecordingPool:
            """Runs submissions in-process and records the unresolved futures."""

            def __init__(self, max_workers):
                self.futures = []

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                self.futures.append(LazyFuture(fn, args))
                in_flight.append(sum(not f.done for f in self.futures))
                return self.futures[-1]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(grid_oracle, "_CHUNK_ROWS", 7)
        spec = GridSpec(g=3, n=2, m=3, peak=F(1, 3))
        strategies, f = grid_oracle._strategies(spec), SinglePeakFunction.tent(spec.peak)
        jobs = 2
        serial = list(grid_oracle._screen_survivors(spec, strategies, f, EXACT, jobs=1))
        parallel = list(grid_oracle._screen_survivors(spec, strategies, f, EXACT, jobs=jobs))
        assert len(in_flight) == -(-profile_count(spec) // 7)  # one submit per chunk
        assert max(in_flight) == 2 * jobs
        assert serial and parallel == serial
        game = RankingGame.tent(2, 3, spec.peak)
        assert grid_nash_search(game, spec, jobs=jobs) == grid_nash_search(game, spec, jobs=1)


class TestKernelBackends:
    def _random_inputs(self, rng, n, m, S=60, P=3000):
        strat = rng.integers(0, 7, size=(S, m)).astype(np.float64)
        sums = strat.sum(axis=1)
        strat[sums > 6] *= (6.0 / sums[sums > 6])[:, None]
        strat /= 6.0
        prof = np.sort(rng.integers(0, S, size=(P, n)), axis=1)
        return strat, prof

    def test_screen_equals_role_combination_oracle(self, monkeypatch):
        # the 2^m invest-set table decides exactly as the 3^m role walk, for
        # the tent at every peak kind and for non-tent shapes; random rows
        # are sorted, as the enumeration's are, and at 64 rows a chunk the
        # larger tables are built across several chunks
        monkeypatch.setattr(grid_oracle, "_CHUNK_ROWS", 64)
        tents = [SinglePeakFunction.tent(peak) for peak in (0.0, 1.0, 1 / 3, 0.5, 0.8)]
        kept = total = chunked_tables = 0
        for seed, shapes in ((7, tents), (9, [SKEWED_F, FLOOR_F])):
            rng = np.random.default_rng(seed)
            for n in range(1, 5):
                for m in range(1, 5):
                    for f in shapes:
                        fine = self._random_inputs(rng, n, m, S=30, P=40)
                        g = int(rng.integers(1, 4))  # tie-heavy coarse grid
                        nums = grid_strategies(GridSpec(g=g, n=n, m=m, peak=F(1, 2)))
                        coarse = np.array(nums, dtype=np.float64) / g
                        coarse_prof = np.sort(rng.integers(0, len(nums), size=(40, n)), axis=1)
                        few = coarse[rng.permutation(len(nums))[:3]]
                        ordered = np.concatenate(list(grid_oracle._index_chunks(len(few), n)))
                        for strat, prof in (fine, (coarse, coarse_prof), (few, ordered)):
                            best = grid_oracle._deviation_table(strat, n, f, EXACT)
                            chunked_tables += len(best) > 64
                            mask = kernels.grid_screen(strat, prof, f, best)
                            assert mask.dtype == np.uint8
                            assert np.array_equal(mask, screen_oracle(strat, prof, f))
                            kept += int(mask.sum())
                            total += len(mask)
        assert 0 < kept < total
        assert chunked_tables

    def test_shares_sum_to_the_exact_utilities(self):
        # each profile draws its players from three grid strategies, so
        # most queries end in ties; FLOOR_F ties zero emphasis with tails,
        # and on grids of 3, 5 or 6 steps some scores equal on f's two
        # branches differ in the last float bit, so ties need the tolerance
        rng = np.random.default_rng(11)
        tents = [SinglePeakFunction.tent(peak) for peak in (F(0), F(1, 3), F(1, 2), F(2, 5), F(1))]
        tied = 0
        for n in range(2, 5):
            for m in range(1, 5):
                for f in (*tents, SKEWED_F, FLOOR_F):
                    game = RankingGame(n=n, m=m, f=f)
                    g = int(rng.choice([2, 3, 5, 6]))
                    nums = grid_strategies(GridSpec(g=g, n=n, m=m, peak=f.peak))
                    scores = kernels._query_scores(np.array(nums, dtype=np.float64) / g, f)
                    pool = rng.choice(len(nums), size=min(3, len(nums)), replace=False)
                    for idx in rng.choice(pool, size=(10, n)):
                        shares = [kernels._shares([q[i] for i in idx]) for q in scores]
                        tied += sum(0 < max(row) < 1 for row in shares)
                        got = [sum(row[i] for row in shares) for i in range(n)]
                        profile = StrategyProfile([[F(c, g) for c in nums[i]] for i in idx])
                        want = [float(u) for u in utilities(game, profile)]
                        assert np.allclose(got, want, rtol=0, atol=1e-12), (n, m, f, idx)
        assert tied > 1000

    def test_screen_refuses_a_table_of_the_wrong_shape(self):
        strat = np.array([[0.0], [0.5], [1.0]])
        f = SinglePeakFunction.tent(0.5)
        best = grid_oracle._deviation_table(strat, 3, f, EXACT)  # a table for n = 3
        with pytest.raises(ValueError, match="deviation table of shape"):
            kernels.grid_screen(strat, np.array([[0, 2]]), f, best)

    def test_screen_refuses_an_unsorted_row(self):
        strat = np.array([[0.0], [0.5], [1.0]])
        f = SinglePeakFunction.tent(0.5)
        best = grid_oracle._deviation_table(strat, 2, f, EXACT)
        kernels.grid_screen(strat, np.array([[0, 2]]), f, best)
        with pytest.raises(ValueError, match="non-decreasing"):
            kernels.grid_screen(strat, np.array([[0, 2], [2, 0]]), f, best)

    def test_screen_agrees_with_exact_verification(self):
        # float screen must keep every true equilibrium of small instances
        peak = F(1, 3)
        game = RankingGame.tent(2, 2, peak)
        spec = GridSpec(g=3, n=2, m=2, peak=peak)
        strategies = grid_strategies(spec)
        strat = np.array(strategies, dtype=np.float64) / spec.g
        idx = list(combinations_with_replacement(range(len(strategies)), 2))
        best = grid_oracle._deviation_table(strat, 2, game.f, EXACT)
        mask = kernels.grid_screen(strat, np.array(idx, dtype=np.int64), game.f, best)
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

    def test_grid_confirmation_checks_every_player(self, monkeypatch):
        # with a screen that keeps every profile, the confirmation alone must
        # reject each profile where any player, not only the first, has an
        # improving grid deviation
        monkeypatch.setattr(grid_oracle, "_survivors",
                            lambda strat, prof, f, best: [tuple(r) for r in prof.tolist()])
        for (n, m, g), f, symmetry in product([(2, 2, 4), (3, 2, 2)],
                                              (SinglePeakFunction.tent(F(1, 2)), SKEWED_F),
                                              (True, False)):
            game = RankingGame(n=n, m=m, f=f)
            spec = GridSpec(g=g, n=n, m=m, peak=f.peak, symmetry=symmetry)
            every = [v for (v,) in grid_profiles(GridSpec(g=g, n=1, m=m, peak=f.peak))]
            brute = tuple(p for p in grid_profiles(spec)
                          if grid_oracle._grid_stable(game, p, every))
            assert len(brute) < profile_count(spec)
            assert grid_nash_search(game, spec, deviation_mode="grid").equilibria == brute

    def test_grid_mode_budget_counts_profiles_only(self):
        # 406 profiles fit a budget of 1000, although checking each against
        # its n·S = 56 grid deviations would not
        peak = F(1, 2)
        game = RankingGame.tent(2, 2, peak)
        spec = GridSpec(g=6, n=2, m=2, peak=peak, budget=1000)
        result = grid_nash_search(game, spec, deviation_mode="grid")
        assert result.profiles_checked == 406 <= spec.budget < 406 * 2 * strategy_count(spec)
        unbounded = GridSpec(g=6, n=2, m=2, peak=peak)
        assert result.equilibria == grid_nash_search(game, unbounded, "grid").equilibria
        assert result.equilibria
        with pytest.raises(CapacityError, match="406 grid profiles exceed the budget of 405"):
            grid_nash_search(game, GridSpec(g=6, n=2, m=2, peak=peak, budget=405), "grid")

    def test_float_tent_grid_mode_matches_the_exact_tent(self):
        # float tie shares carry rounding noise; deviations are compared with
        # numeric.improves, so noise is no improvement and both modes agree
        for n, m, g, peak in [(3, 3, 3, F(1, 2)), (2, 2, 6, F(3, 10))]:
            found = [
                grid_nash_search(RankingGame.tent(n, m, p), GridSpec(g=g, n=n, m=m, peak=p),
                                 deviation_mode="grid").equilibria
                for p in (peak, float(peak))
            ]
            assert found[0] and found[0] == found[1]
