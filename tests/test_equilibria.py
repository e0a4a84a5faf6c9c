import itertools
import time
from fractions import Fraction as F

import pytest

from rankcomp.best_response import best_response_witness
from rankcomp.equilibria import (
    NoEquilibriumError,
    candidate_profile,
    construct_equilibrium,
    exists_equilibrium,
    existence_threshold,
    verify_nash,
)
from rankcomp.game import RankingGame, StrategyProfile, utilities


class TestExistence:
    def test_two_player_threshold_is_one_over_m_minus_one(self):
        v = exists_equilibrium(2, 3, F(1, 2))
        assert v.exists and v.threshold == F(1, 2)

    def test_two_player_just_above_threshold(self):
        v = exists_equilibrium(2, 3, F(51, 100))
        assert not v.exists

    def test_n_at_least_m_exists_for_every_peak(self):
        for n, m in [(2, 2), (3, 2), (5, 5), (6, 3)]:
            v = exists_equilibrium(n, m, F(1))
            assert v.exists and v.threshold == 1

    def test_threshold_formula_values(self):
        assert existence_threshold(2, 3) == F(1, 2)
        assert existence_threshold(2, 4) == F(1, 3)
        assert existence_threshold(3, 4) == F(1, 2)
        assert existence_threshold(5, 8) == F(1, 3)
        assert existence_threshold(4, 4) == F(1, 1)

    def test_regimes(self):
        assert exists_equilibrium(4, 3, F(1, 4)).regime == "small_p"
        assert exists_equilibrium(2, 3, F(45, 100)).regime == "two_player_band"
        assert exists_equilibrium(3, 4, F(45, 100)).regime == "alg1_band"
        assert exists_equilibrium(5, 3, F(9, 10)).regime == "n_ge_m"
        assert exists_equilibrium(2, 5, F(3, 10)).regime == "none"


class TestConstruct:
    def test_two_player_band_profile(self):
        g = RankingGame.tent(2, 3, F(45, 100))
        prof = construct_equilibrium(g)
        assert prof.strategies[0].emphases == (F(9, 20), F(9, 20), F(1, 10))
        assert prof.strategies[0] == prof.strategies[1]
        assert verify_nash(g, prof).is_nash

    def test_small_p_all_peak_vector(self):
        g = RankingGame.tent(2, 3, F(1, 3))
        prof = construct_equilibrium(g)
        assert all(v.emphases == (F(1, 3),) * 3 for v in prof.strategies)
        assert verify_nash(g, prof).is_nash

    def test_n_ge_m_splits_players_across_queries(self):
        g = RankingGame.tent(3, 2, F(9, 10))
        prof = construct_equilibrium(g)
        # each player pins one query at the peak and defends the other
        # with the leftover budget; pinned counts stay balanced
        owners = {0: 0, 1: 0}
        for vec in prof.strategies:
            pinned = [j for j, e in enumerate(vec.emphases) if e == F(9, 10)]
            assert len(pinned) == 1
            owners[pinned[0]] += 1
            assert sorted(vec.emphases) == [F(1, 10), F(9, 10)]
        assert sorted(owners.values()) == [1, 2]
        assert verify_nash(g, prof).is_nash

    def test_refusal_outside_existence_region(self):
        with pytest.raises(NoEquilibriumError):
            construct_equilibrium(RankingGame.tent(2, 3, F(51, 100)))

    def test_assignment_budget_invariant(self):
        # every player: min(floor(1/p), m) coordinates at the peak, at most
        # one remainder coordinate, total spend at most 1
        for n, m, peak in [(3, 4, F(45, 100)), (4, 6, F(45, 100)), (5, 8, F(1, 3)),
                           (3, 2, F(9, 10)), (6, 8, F(1, 2))]:
            g = RankingGame.tent(n, m, peak)
            prof = construct_equilibrium(g)
            k = min(int(F(1) / peak), m)
            leftover = 1 - k * peak
            for vec in prof.strategies:
                at_peak = [e for e in vec.emphases if e == peak]
                others = [e for e in vec.emphases if e != peak and e != 0]
                assert len(at_peak) == k
                assert sum(vec.emphases) <= 1
                if leftover > 0 and len(at_peak) < m:
                    assert others == [leftover]
                else:
                    assert others == []


class TestVerifyNash:
    def test_small_p_profile_verifies(self):
        for m in range(1, 7):
            g = RankingGame.tent(2, m, F(1, m))
            prof = StrategyProfile([[F(1, m)] * m] * 2)
            assert verify_nash(g, prof).is_nash

    def test_half_peak_pair_at_the_boundary_is_nash(self):
        # at peak exactly 1/(m-1) the best deviation (solo the open query
        # plus one pinned tie) reaches exactly the current 3/2, no better:
        # soloing plus both ties would need the full budget plus a margin
        g = RankingGame.tent(2, 3, F(1, 2))
        prof = StrategyProfile([[F(1, 2), F(1, 2), F(0)]] * 2)
        report = verify_nash(g, prof)
        assert report.is_nash
        assert report.per_player[0].attained == F(3, 2)
        assert report.per_player[0].current == F(3, 2)

    def test_uneven_pair_above_threshold_is_not_nash(self):
        g = RankingGame.tent(2, 3, F(51, 100))
        prof = StrategyProfile([[F(51, 100), F(49, 100), F(0)]] * 2)
        report = verify_nash(g, prof)
        assert not report.is_nash
        assert report.per_player[0].attained == F(2)

    def test_witness_returned_for_improving_player(self):
        g = RankingGame.tent(2, 3, F(1, 2))
        prof = StrategyProfile(
            [[F(3, 10), F(2, 5), F(0)], [F(1, 5), F(3, 10), F(1, 2)]]
        )
        report = verify_nash(g, prof)
        assert not report.is_nash
        for pd in report.per_player:
            if pd.attained > pd.current:
                assert pd.improving_witness is not None
                bumped = prof.replace(pd.player, pd.improving_witness)
                assert utilities(g, bumped)[pd.player] == pd.attained

    def test_two_player_band_construction_verifies(self):
        g = RankingGame.tent(2, 3, F(45, 100))
        assert verify_nash(g, construct_equilibrium(g)).is_nash

    def test_verified_profile_witnesses_never_improve(self):
        g = RankingGame.tent(3, 4, F(1, 2))
        prof = construct_equilibrium(g)
        assert verify_nash(g, prof).is_nash
        current = utilities(g, prof)
        for player in range(g.n):
            wit = best_response_witness(g, prof, player)
            bumped = utilities(g, prof.replace(player, wit.strategy))[player]
            assert bumped <= current[player]


def rational_peak_grid(threshold):
    peaks = {threshold, threshold / 2, threshold - F(1, 1000)}
    if threshold < 1:
        peaks |= {threshold + F(1, 1000), threshold + F(2, 1000)}
    return sorted(p for p in peaks if 0 < p <= 1)


class TestParameterSweep:
    def test_construction_matches_existence_exactly(self):
        # moderate sweep here; the acceptance suite runs the full one
        for n, m in itertools.product(range(2, 6), range(1, 7)):
            threshold = existence_threshold(n, m)
            for peak in rational_peak_grid(threshold):
                verdict = exists_equilibrium(n, m, peak)
                game = RankingGame.tent(n, m, peak)
                report = verify_nash(game, candidate_profile(game))
                assert verdict.exists == report.is_nash, (n, m, peak)

    def test_boundary_is_inclusive(self):
        for n, m in [(2, 3), (2, 5), (3, 4), (4, 6)]:
            threshold = existence_threshold(n, m)
            assert exists_equilibrium(n, m, threshold).exists
            g = RankingGame.tent(n, m, threshold)
            assert verify_nash(g, construct_equilibrium(g)).is_nash

    def test_construction_fails_just_past_threshold(self):
        for n, m in [(2, 3), (2, 6), (3, 4), (4, 6), (5, 8)]:
            threshold = existence_threshold(n, m)
            peak = threshold + F(1, 1000)
            game = RankingGame.tent(n, m, peak)
            assert not verify_nash(game, candidate_profile(game)).is_nash

    def test_a_lone_player_gets_a_candidate_that_verifies(self):
        for m in range(1, 6):
            for peak in (F(k, 10) for k in range(11)):
                game = RankingGame.tent(1, m, peak)
                assert verify_nash(game, candidate_profile(game)).is_nash, (m, peak)
        # the leftover goes to the first unpinned query, not onto a pin
        (lone,) = candidate_profile(RankingGame.tent(1, 4, F(2, 5))).strategies
        assert lone.emphases == (F(2, 5), F(2, 5), F(1, 5), 0)

    def test_verification_matches_existence_at_large_m(self):
        for n, m in [(2, 40), (3, 24)]:
            threshold = existence_threshold(n, m)
            for peak in (threshold - F(1, 1000), threshold, threshold + F(1, 1000), F(1, 2)):
                game = RankingGame.tent(n, m, peak)
                start = time.perf_counter()
                report = verify_nash(game, candidate_profile(game))
                elapsed = time.perf_counter() - start
                assert report.is_nash == exists_equilibrium(n, m, peak).exists, (n, m, peak)
                assert elapsed < 1.0, f"verify_nash at {(n, m, peak)} took {elapsed:.2f}s"


class TestDegeneratePeaks:
    def test_peak_zero_all_zero_vector(self):
        for n, m in [(2, 3), (3, 2), (4, 4)]:
            g = RankingGame.tent(n, m, F(0))
            prof = construct_equilibrium(g)
            assert all(set(v.emphases) == {F(0)} for v in prof.strategies)
            assert verify_nash(g, prof).is_nash

    def test_peak_one_single_pin(self):
        for n, m in [(2, 2), (3, 2), (4, 3)]:
            g = RankingGame.tent(n, m, F(1))
            prof = construct_equilibrium(g)
            assert verify_nash(g, prof).is_nash
            for vec in prof.strategies:
                assert sum(vec.emphases) <= 1
