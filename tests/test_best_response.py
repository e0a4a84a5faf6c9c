import random
from fractions import Fraction as F

import pytest

from rankcomp.best_response import (
    best_response_value,
    best_response_witness,
    thresholds,
)
from rankcomp.game import (
    EmphasisVector, RankingGame, SinglePeakFunction, StrategyProfile, utilities,
)
from rankcomp.numeric import DomainError, numbers_equal

from conftest import (
    FLOOR_F,
    SKEWED_F,
    float_instance,
    non_tent_instance,
    random_instance,
    random_strategy,
    tie_heavy_instance,
)
from enumeration_oracle import enumerate_best_response

# large, distinct primes: the lcm of a profile's cost denominators is far
# above any one of them
PRIMES = (97, 101, 999983, 1000003, 10**9 + 7, 10**12 + 39, 2**61 - 1)


def prime_denominator_instance(rng):
    """Tent profile whose nonzero emphases have large prime denominators.

    A player copies the previous player's emphasis on a query with
    probability 0.3, so ties (and tie-share gains) still occur.
    """
    n, m = rng.randint(2, 4), rng.randint(1, 7)
    rows = []
    for i in range(n):
        row = []
        for j in range(m):
            if i and rng.random() < 0.3:
                row.append(rows[-1][j])
            else:
                p = rng.choice(PRIMES)
                row.append(F(rng.randint(0, p // m), p))
        rows.append(row)
    peak = F(rng.randint(1, 2 * m), 2 * m)
    return RankingGame.tent(n, m, peak), StrategyProfile(rows)


def two_player(opponent, peak=F(1, 2), m=None):
    m = m if m is not None else len(opponent)
    game = RankingGame.tent(2, m, peak)
    profile = StrategyProfile([[F(0)] * m, list(opponent)])
    return game, profile


class TestThresholds:
    def test_motivating_example_round_one(self):
        game = RankingGame.tent(2, 3, F(1, 2))
        profile = StrategyProfile([[F(0)] * 3, [F("0.4"), F("0.5"), F("0.1")]])
        ths = thresholds(game, profile, 0)
        assert [t.cost for t in ths] == [F(2, 5), F(1, 2), F(1, 10)]
        assert [t.top_is_peak for t in ths] == [False, True, False]
        assert [t.tie_count for t in ths] == [1, 1, 1]

    def test_all_opponents_at_zero(self):
        game = RankingGame.tent(3, 2, F(1, 2))
        profile = StrategyProfile([[F(0), F(0)]] * 3)
        ths = thresholds(game, profile, 0)
        assert all(t.cost == 0 for t in ths)
        assert all(t.tie_count == 2 for t in ths)

    def test_two_opponents_pinned_at_peak(self):
        game = RankingGame.tent(3, 1, F(1, 2))
        profile = StrategyProfile([[F(0)], [F(1, 2)], [F(1, 2)]])
        ths = thresholds(game, profile, 0)
        assert ths[0].cost == F(1, 2)
        assert ths[0].top_is_peak
        assert ths[0].tie_count == 2

    def test_single_player_semantics(self):
        game = RankingGame.tent(1, 3, F(1, 2))
        ths = thresholds(game, StrategyProfile([[F(0)] * 3]), 0)
        assert all(t.cost == 0 and t.tie_count == 0 for t in ths)

    def test_float_profile_gives_float_costs_against_exact_knots(self):
        # the opponent sits on f's exact knots (the peak, and zero as an int),
        # yet a float profile keeps every number the thresholds report float
        game = RankingGame.tent(2, 3, F(1, 2))
        profile = StrategyProfile([[0.5, 0.25, 0], [0.5, 0, 0.25]])
        ths = thresholds(game, profile, 1)
        assert [t.cost for t in ths] == [0.5, 0.25, 0.0]
        for t in ths:
            assert type(t.cost) is float
            assert type(t.zero_value) is float


class TestBestResponseValue:
    def test_value_two_against_a_peak_pinning_document(self):
        game, profile = two_player([F("0.4"), F("0.5"), F("0.1")])
        br = best_response_value(game, profile, 0)
        assert br.attained_value == 2
        # tie at the pinned query is approachable but not attainable
        assert br.sup_value == F(5, 2)

    def test_value_three_against_a_slack_document(self):
        game, profile = two_player([F("0.3"), F("0.4"), F(0)])
        br = best_response_value(game, profile, 0)
        assert br.attained_value == 3

    def test_no_improvement_at_small_p_profile(self):
        game = RankingGame.tent(2, 3, F(1, 3))
        profile = StrategyProfile([[F(1, 3)] * 3] * 2)
        br = best_response_value(game, profile, 0)
        assert br.attained_value == F(3, 2)
        assert br.attained_value == utilities(game, profile)[0]

    def test_tie_only_optimum_when_budget_exactly_saturates(self):
        # both queries cost 1/2 but only margin-free ties fit together
        game = RankingGame.tent(2, 2, F(3, 4))
        profile = StrategyProfile([[F(0), F(0)], [F(1, 2), F(1, 2)]])
        br = best_response_value(game, profile, 0)
        assert br.attained_value == 1
        assert br.sup_value == 2

    def test_exact_past_sixteen_queries(self):
        game = RankingGame.tent(2, 16, F(1, 32))
        profile = StrategyProfile([[F(1, 32)] * 16] * 2)
        br = best_response_value(game, profile, 0)
        assert br.attained_value == br.sup_value == 8
        assert br.attained_value == utilities(game, profile)[0]

    def test_optimizer_equals_enumeration_oracle(self, rng):
        for _ in range(300):
            game, profile = random_instance(rng, max_n=5, max_m=8)
            player = rng.randrange(game.n)
            assert best_response_value(game, profile, player) == enumerate_best_response(
                game, profile, player
            ), (game, profile, player)

    def test_optimizer_equals_enumeration_oracle_on_tie_heavy_profiles(self, rng):
        for _ in range(150):
            game, profile = tie_heavy_instance(rng)
            for player in range(game.n):
                assert best_response_value(game, profile, player) == enumerate_best_response(
                    game, profile, player
                ), (game, profile, player)

    @pytest.mark.parametrize("f", [SKEWED_F, FLOOR_F], ids=["skewed", "floor"])
    def test_optimizer_equals_enumeration_oracle_on_non_tent_functions(self, rng, f):
        for _ in range(80):
            game, profile = non_tent_instance(rng, f)
            player = rng.randrange(game.n)
            assert best_response_value(game, profile, player) == enumerate_best_response(
                game, profile, player
            ), (game, profile, player)

    def test_optimizer_equals_enumeration_oracle_on_prime_denominators(self, rng):
        for _ in range(100):
            game, profile = prime_denominator_instance(rng)
            for player in range(game.n):
                assert best_response_value(game, profile, player) == enumerate_best_response(
                    game, profile, player
                ), (game, profile, player)

    @pytest.mark.parametrize("p, q", zip(PRIMES, PRIMES[1:]))
    def test_costs_over_distinct_primes_overrun_the_budget_exactly(self, p, q):
        # a/p + b/q exceeds 1 by less than 1/q: the two solos do not fit
        a = 3 * p // 5
        b = q * (p - a) // p + 1
        game = RankingGame.tent(3, 2, F(1))
        profile = StrategyProfile([[F(0), F(0)], [F(a, p), F(0)], [F(0), F(b, q)]])
        br = best_response_value(game, profile, 0)
        assert br.attained_value == br.sup_value == 1
        assert br == enumerate_best_response(game, profile, 0)

    def test_optimizer_equals_enumeration_oracle_with_int_knots(self, rng):
        # f(x) = x on plain int knots: a zero or whole-unit top costs an int
        f = SinglePeakFunction(((0, 0), (1, 1)), 1)
        for _ in range(60):
            n, m = rng.randint(2, 4), rng.randint(1, 6)
            rows = [random_strategy(rng, m) for _ in range(n)]
            if rng.random() < 0.3:
                rows[-1] = EmphasisVector([F(j == 0) for j in range(m)])
            game, profile = RankingGame(n=n, m=m, f=f), StrategyProfile(rows)
            for player in range(n):
                assert best_response_value(game, profile, player) == enumerate_best_response(
                    game, profile, player
                ), (game, profile, player)

    @pytest.mark.parametrize(
        "gap, attained, solos", [(5e-10, 1.0, {0}), (2e-9, 2.0, {0, 1})]
    )
    def test_float_mode_budget_slack_has_tolerance(self, gap, attained, solos):
        # two solos cost 1 - gap: within 1e-9 of the budget they leave no slack
        e = 0.5 - gap / 2
        game = RankingGame.tent(2, 2, 1.0)
        profile = StrategyProfile([[0.0, 0.0], [e, e]])
        br = best_response_value(game, profile, 0)
        assert br.attained_value == attained and isinstance(br.attained_value, float)
        assert br.sup_value == 2.0
        assert br.plan.solo_set == solos

    def test_optimizer_matches_enumeration_oracle_in_float_mode(self, rng):
        for _ in range(150):
            game, profile = float_instance(rng)
            player = rng.randrange(game.n)
            a = best_response_value(game, profile, player)
            b = enumerate_best_response(game, profile, player)
            assert isinstance(a.attained_value, float)
            assert numbers_equal(a.attained_value, b.attained_value), (game, profile, player)
            assert numbers_equal(a.sup_value, b.sup_value), (game, profile, player)

    def test_attained_at_least_current_and_at_most_m(self, rng):
        for _ in range(60):
            game, profile = random_instance(rng)
            player = rng.randrange(game.n)
            br = best_response_value(game, profile, player)
            current = utilities(game, profile)[player]
            assert current <= br.attained_value <= br.sup_value <= game.m

    def test_weakly_decreasing_in_opponent_top_score(self, rng):
        for _ in range(40):
            game, profile = random_instance(rng, max_n=4, max_m=5)
            opp = (0 + 1) % game.n
            j = rng.randrange(game.m)
            e = profile[opp].emphases[j]
            if e >= game.peak:
                continue
            room = game.peak - e
            bumped_vec = list(profile[opp].emphases)
            bumped_vec[j] = e + room / 2
            if sum(bumped_vec) > 1:
                continue
            before = best_response_value(game, profile, 0).attained_value
            after = best_response_value(
                game, profile.replace(opp, EmphasisVector(bumped_vec)), 0
            ).attained_value
            assert after <= before


class TestBestResponseWitness:
    def test_witness_against_a_peak_pinning_document(self):
        game, profile = two_player([F("0.4"), F("0.5"), F("0.1")])
        wit = best_response_witness(game, profile, 0, F(1, 10))
        assert wit.strategy.emphases == (F(1, 2), F(0), F(1, 5))
        assert wit.value == 2

    def test_witness_against_the_round_two_document(self):
        game, profile = two_player([F("0.5"), F("0.3"), F("0.2")])
        wit = best_response_witness(game, profile, 0, F(1, 10))
        assert wit.strategy.emphases == (F(0), F(2, 5), F(3, 10))
        assert wit.value == 2

    def test_full_budget_witness_reproduces_round_one_move(self):
        game, profile = two_player([F("0.3"), F("0.4"), F(0)])
        wit = best_response_witness(game, profile, 0, F(1, 10))
        assert wit.strategy.emphases == (F(2, 5), F(1, 2), F(1, 10))
        assert wit.value == 3

    def test_single_player_witness(self):
        game = RankingGame.tent(1, 3, F(1, 2))
        wit = best_response_witness(game, StrategyProfile([[F(0)] * 3]), 0)
        assert wit.value == 3

    def test_nan_epsilon_is_refused(self):
        game, profile = two_player([F(1, 5), F(0)])
        with pytest.raises(DomainError, match="epsilon must be positive"):
            best_response_witness(game, profile, 0, float("nan"))

    def test_epsilon_autoshrinks_to_stay_feasible(self):
        game, profile = two_player([F("0.3"), F("0.4"), F(0)])
        wit = best_response_witness(game, profile, 0, F(10))  # absurd margin
        assert sum(wit.strategy.emphases) <= 1
        assert wit.value == 3
        assert wit.epsilon_used < F(10)

    def test_witness_utility_matches_attained_on_random_instances(self, rng):
        for _ in range(120):
            game, profile = random_instance(rng, max_n=4, max_m=6)
            player = rng.randrange(game.n)
            br = best_response_value(game, profile, player)
            wit = best_response_witness(game, profile, player)
            achieved = utilities(game, profile.replace(player, wit.strategy))[player]
            assert achieved == br.attained_value

    def test_witness_never_uses_decreasing_branch(self, rng):
        # equal score always costs more emphasis past the peak, so the
        # canonical witness stays at or below it
        for _ in range(60):
            game, profile = random_instance(rng, max_n=4, max_m=6)
            wit = best_response_witness(game, profile, 0)
            assert all(e <= game.peak for e in wit.strategy.emphases)

    def test_plan_sets_disjoint_and_solo_never_on_pinned_query(self, rng):
        for _ in range(60):
            game, profile = random_instance(rng, max_n=4, max_m=6)
            wit = best_response_witness(game, profile, 0)
            ths = thresholds(game, profile, 0)
            assert not (wit.plan.solo_set & wit.plan.tie_set)
            for j in wit.plan.solo_set:
                assert not ths[j].top_is_peak


def _scan_deviation_max(game, profile, player, g=14):
    """Brute force: best utility over all grid deviations (resolution 1/g)."""
    from fractions import Fraction

    best = None

    def rec(prefix, remaining, slots):
        nonlocal best
        if slots == 0:
            vec = EmphasisVector([Fraction(c, g) for c in prefix])
            value = utilities(game, profile.replace(player, vec))[player]
            if best is None or value > best:
                best = value
            return
        for c in range(remaining + 1):
            prefix.append(c)
            rec(prefix, remaining - c, slots - 1)
            prefix.pop()

    rec([], g, game.m)
    return best


class TestDeviationScanSoundness:
    def test_no_grid_deviation_beats_the_reported_optimum(self, rng):
        for _ in range(25):
            game, profile = random_instance(rng, max_n=4, max_m=3)
            player = rng.randrange(game.n)
            attained = best_response_value(game, profile, player).attained_value
            assert _scan_deviation_max(game, profile, player) <= attained

    def test_general_piecewise_function_soundness(self, rng):
        for _ in range(20):
            game, profile = non_tent_instance(rng, SKEWED_F, max_n=3, max_m=3)
            player = rng.randrange(game.n)
            result = best_response_value(game, profile, player)
            witness = best_response_witness(game, profile, player)
            achieved = utilities(game, profile.replace(player, witness.strategy))[player]
            assert achieved == result.attained_value
            assert _scan_deviation_max(game, profile, player) <= result.attained_value

    def test_nonzero_floor_function_beats_at_cost_path(self):
        game = RankingGame(n=2, m=2, f=FLOOR_F)
        profile = StrategyProfile([[F(0), F(0)], [F(19, 20), F(1, 20)]])
        ths = thresholds(game, profile, 0)
        # opponent's q0 score f(19/20) = 1/10 < f(0) = 2/5: free win
        assert ths[0].beats_at_cost
        assert ths[0].cost == 0
        result = best_response_value(game, profile, 0)
        assert result.attained_value == 2  # win q0 free, beat q1 cheaply
        witness = best_response_witness(game, profile, 0)
        achieved = utilities(game, profile.replace(0, witness.strategy))[0]
        assert achieved == 2


class TestWitnessValidity:
    def test_witnesses_always_satisfy_the_simplex(self, rng):
        from rankcomp.game import validate_profile

        for _ in range(80):
            game, profile = random_instance(rng, max_n=4, max_m=7)
            player = rng.randrange(game.n)
            wit = best_response_witness(game, profile, player)
            report = validate_profile(game, profile.replace(player, wit.strategy))
            assert report.ok, report.violations
