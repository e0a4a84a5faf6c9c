from fractions import Fraction as F

import pytest
from conftest import random_strategy
from symmetry_oracle import symmetric_match_oracle

from rankcomp.dynamics import (
    SYMMETRY_BUDGET,
    _next_mover,
    _symmetric_match,
    detect_cycle,
    infer_movers,
    run_dynamics,
    verify_trace,
)
from rankcomp.equilibria import construct_equilibrium, verify_nash
from rankcomp.game import RankingGame, StrategyProfile
from rankcomp.numeric import CapacityError, DomainError

GAME = RankingGame.tent(2, 3, F(1, 2))

# the motivating non-convergence run: two players, three queries, peak 1/2
S0 = StrategyProfile([[F("0.3"), F("0.4"), F(0)], [F("0.2"), F("0.3"), F("0.5")]])
S1 = StrategyProfile([[F("0.3"), F("0.4"), F(0)], [F("0.4"), F("0.5"), F("0.1")]])
S2 = StrategyProfile([[F("0.5"), F("0.3"), F("0.2")], [F("0.4"), F("0.5"), F("0.1")]])
S3 = StrategyProfile([[F("0.5"), F("0.3"), F("0.2")], [F("0"), F("0.4"), F("0.3")]])
SEQUENCE = [S0, S1, S2, S3]


class TestVerifyTrace:
    def test_reference_sequence_is_all_optimal(self):
        reports = verify_trace(GAME, SEQUENCE)
        assert [r.mover for r in reports] == [1, 0, 1]
        assert [r.achieved for r in reports] == [F(3), F(2), F(2)]
        assert all(r.optimal for r in reports)

    def test_dominated_move_is_flagged(self):
        bad = StrategyProfile([[F("0.3"), F("0.4"), F(0)], [F("0.1"), F(0), F(0)]])
        reports = verify_trace(GAME, [S0, bad])
        assert not reports[0].optimal
        assert reports[0].achieved < reports[0].optimal_value

    def test_equilibrium_followed_by_itself_is_optimal_stay(self):
        g = RankingGame.tent(2, 3, F(45, 100))
        eq = construct_equilibrium(g)
        reports = verify_trace(g, [eq, eq])
        assert reports[0].mover is None
        assert reports[0].optimal

    def test_two_players_moving_at_once_is_structural_error(self):
        with pytest.raises(DomainError):
            verify_trace(GAME, [S0, S2])

    def test_infer_movers(self):
        assert infer_movers(SEQUENCE) == [1, 0, 1]

    def test_a_trace_needs_two_profiles(self):
        with pytest.raises(DomainError, match="need at least two profiles"):
            verify_trace(GAME, [S0])

    def test_infer_movers_refuses_a_change_in_player_count(self):
        lone = StrategyProfile([[F("0.3"), F("0.4"), F(0)]])
        with pytest.raises(DomainError, match="must keep the same player count"):
            infer_movers([S0, lone])

    def test_next_mover_follows_the_most_recent_successor(self):
        # player 0 was followed by 1, then by 2: the rotation continues with 2
        assert _next_mover([0, 1, 0, 2, 0], 3) == 2
        assert _next_mover([0, 1, 2, 0, 1], 3) == 2
        assert _next_mover([None, 1], 3) == 2
        assert _next_mover([None, None], 3) == 0

    @pytest.mark.parametrize("check", [verify_trace, detect_cycle])
    @pytest.mark.parametrize("movers", [[1], [1, 0, 1, 0], [1, 0, 2]],
                             ids=["short", "long", "no_player_2"])
    def test_movers_must_name_one_player_per_step(self, check, movers):
        # verify_trace used to drop the steps past a short list silently,
        # detect_cycle to raise IndexError
        with pytest.raises(DomainError, match="movers"):
            check(GAME, SEQUENCE, movers)

    @pytest.mark.parametrize("check", [verify_trace, detect_cycle])
    @pytest.mark.parametrize("profiles, movers, error", [
        (SEQUENCE, [0, 0, 1], "step 0: player 1 changed, but the given mover is 0"),
        (SEQUENCE, [1, 0, None], "step 2: player 1 changed, but the given mover is None"),
        ([S0, S2], [1], "step 0: consecutive profiles differ in 2 players"),
    ], ids=["other_player", "none_for_a_move", "two_players"])
    def test_given_movers_must_agree_with_the_profiles(self, check, profiles, movers, error):
        # these used to be accepted: verify_trace then judged a player who
        # never moved, or a "stay" of a changed profile
        with pytest.raises(DomainError, match=error):
            check(GAME, profiles, movers)

    def test_a_given_mover_may_stay(self):
        # a scheduled player who keeps its strategy, as run_dynamics records
        reports = verify_trace(GAME, [S0, S0, S1], [0, 1])
        assert [r.mover for r in reports] == [0, 1]
        assert detect_cycle(GAME, [S0, S0, S1], [0, 1]) is None


class TestDetectCycle:
    def test_reference_sequence_symmetric_cycle(self):
        cyc = detect_cycle(GAME, SEQUENCE)
        assert cyc is not None
        assert (cyc.first, cyc.second) == (0, 3)
        assert cyc.equivalence == "symmetric"
        assert cyc.player_perm == (1, 0)
        # the query relabeling reverses the emphasis vectors
        assert cyc.query_perm == (2, 1, 0)

    def test_exact_mode_does_not_fire_on_the_reference_sequence(self):
        assert detect_cycle(GAME, SEQUENCE, mode="exact") is None

    def test_padded_reference_sequence_at_m9_still_cycles(self):
        # six zero-emphasis queries take m to 9, where 9! query relabelings
        # used to exceed the budget and detection was silently skipped
        padded = [
            StrategyProfile([list(s.emphases) + [F(0)] * 6 for s in prof.strategies])
            for prof in SEQUENCE
        ]
        cyc = detect_cycle(RankingGame.tent(2, 9, F(1, 2)), padded)
        assert cyc is not None
        assert (cyc.first, cyc.second) == (0, 3)
        assert cyc.player_perm == (1, 0)
        assert cyc.query_perm == (2, 1, 0, 3, 4, 5, 6, 7, 8)

    def test_float_reference_sequence_symmetric_cycle(self):
        floats = [
            StrategyProfile([[float(e) for e in s.emphases] for s in prof.strategies])
            for prof in SEQUENCE
        ]
        cyc = detect_cycle(RankingGame.tent(2, 3, 0.5), floats)
        assert cyc is not None
        assert (cyc.first, cyc.second, cyc.equivalence) == (0, 3, "symmetric")
        assert cyc.player_perm == (1, 0)
        assert cyc.query_perm == (2, 1, 0)

    @pytest.mark.parametrize("to_float", [False, True], ids=["exact", "float"])
    def test_column_matching_equals_permutation_search_oracle(self, rng, to_float):
        levels = [F(0), F(1, 10), F(1, 5)]
        matches = 0
        for _ in range(600):
            n, m = rng.randint(1, 4), rng.randint(1, 5)
            rows_a = [[rng.choice(levels) for _ in range(m)] for _ in range(n)]
            mover_a = rng.randrange(n)
            if rng.random() < 0.6:
                # a true relabeling of a, sometimes with one entry disturbed
                pperm = rng.sample(range(n), n)
                qperm = rng.sample(range(m), m)
                rows_b = [[F(0)] * m for _ in range(n)]
                for k in range(n):
                    for q in range(m):
                        rows_b[pperm[k]][qperm[q]] = rows_a[k][q]
                mover_b = pperm[mover_a]
                if rng.random() < 0.3:
                    rows_b[rng.randrange(n)][rng.randrange(m)] = rng.choice(levels)
            else:
                rows_b = [[rng.choice(levels) for _ in range(m)] for _ in range(n)]
                mover_b = rng.randrange(n)
            if to_float:
                rows_a = [[float(e) for e in row] for row in rows_a]
                rows_b = [[float(e) for e in row] for row in rows_b]
            a = (StrategyProfile(rows_a), mover_a)
            b = (StrategyProfile(rows_b), mover_b)
            expected = symmetric_match_oracle(a, b)
            assert _symmetric_match(a, b) == expected, (a, b)
            matches += expected is not None
        assert matches > 300

    def test_constant_sequence_exact_cycle(self):
        g = RankingGame.tent(2, 2, F(1, 2))
        p = StrategyProfile([[F(1, 2), F(0)], [F(0), F(1, 2)]])
        cyc = detect_cycle(g, [p, p, p], movers=[None, None])
        assert cyc is not None and cyc.equivalence == "exact"
        assert (cyc.first, cyc.second) == (0, 1)

    def test_state_after_a_stay_matches_only_exactly(self):
        # the stay leaves state 0 without a known mover; it used to crash the
        # symmetric match, and now it is skipped there
        assert detect_cycle(GAME, [S0, S0, S1]) is None
        cyc = detect_cycle(GAME, [S0] + SEQUENCE)
        assert (cyc.first, cyc.second, cyc.equivalence) == (1, 4, "symmetric")
        assert cyc.player_perm == (1, 0)
        assert cyc.query_perm == (2, 1, 0)

    def test_detect_cycle_accepts_every_dynamics_trace(self, rng):
        with_stays = 0
        for _ in range(80):
            n, m = rng.randint(2, 3), rng.randint(2, 4)
            g = RankingGame.tent(n, m, F(rng.randint(1, 9), 10))
            trace = run_dynamics(
                g, StrategyProfile([random_strategy(rng, m) for _ in range(n)]), max_rounds=12
            )
            with_stays += not all(s.moved for s in trace.steps)
            for mode in ("symmetric", "exact"):
                detect_cycle(g, trace.profiles, mode=mode)
        assert with_stays >= 5

    def test_strictly_escalating_run_has_no_cycle(self):
        g = RankingGame.tent(2, 2, F(4, 5))
        trace = run_dynamics(
            g,
            StrategyProfile([[F(1, 10), F(1, 5)], [F(3, 10), F(1, 10)]]),
            max_rounds=30,
        )
        assert trace.outcome.kind == "budget_exhausted"


class TestCycleModeLimits:
    def test_unknown_cycle_mode_is_a_domain_error(self):
        with pytest.raises(DomainError, match="symetric"):
            detect_cycle(GAME, SEQUENCE, mode="symetric")
        with pytest.raises(DomainError, match="Exact"):
            run_dynamics(GAME, S0, cycle_mode="Exact")

    def test_symmetric_mode_beyond_the_player_budget_is_refused(self):
        # 9! = 362,880 player relabelings exceed the budget; 8! does not
        assert 40_320 <= SYMMETRY_BUDGET < 362_880
        g = RankingGame.tent(10, 2, F(1, 2))
        start = StrategyProfile([[F(k, 20), F(0)] for k in range(10)])
        with pytest.raises(CapacityError, match='cycle_mode="exact"'):
            run_dynamics(g, start, max_rounds=3)
        with pytest.raises(CapacityError, match='cycle_mode="exact"'):
            detect_cycle(g, [start, start])
        trace = run_dynamics(g, start, max_rounds=3, cycle_mode="exact")
        assert len(trace.steps) == 3
        cyc = detect_cycle(g, [start] * 3, movers=[None, None], mode="exact")
        assert cyc is not None and cyc.equivalence == "exact"

    def test_symmetric_mode_runs_at_nine_players(self):
        g = RankingGame.tent(9, 1, F(1, 2))
        a = StrategyProfile([[F(k, 10)] for k in range(9)])
        b = a.replace(0, [F(9, 10)])
        assert detect_cycle(g, [a, b]) is None


class TestRunDynamics:
    def test_equilibrium_is_a_fixed_point(self):
        g = RankingGame.tent(2, 3, F(45, 100))
        eq = construct_equilibrium(g)
        trace = run_dynamics(g, eq, max_rounds=20)
        assert trace.outcome.kind == "converged"
        assert trace.outcome.round == 0
        assert not any(s.moved for s in trace.steps)

    def test_single_player_converges_immediately(self):
        g = RankingGame.tent(1, 3, F(1, 2))
        trace = run_dynamics(g, StrategyProfile([[F(1, 4), F(0), F(0)]]), max_rounds=5)
        assert trace.outcome.kind == "converged"
        assert trace.outcome.round == 0

    def test_convergence_round_counts_the_steps_before_the_final_stays(self):
        g = RankingGame.tent(3, 2, F(1, 6))
        start = StrategyProfile([[F(0), F(1, 6)], [F(0), F(2, 3)], [F(1, 6), F(0)]])
        trace = run_dynamics(g, start)
        assert [(s.mover, s.moved) for s in trace.steps] == [
            (1, True), (2, True), (0, True), (1, False), (2, False), (0, False)]
        assert (trace.outcome.kind, trace.outcome.round) == ("converged", 3)

    def test_converged_final_profile_is_nash(self):
        g = RankingGame.tent(2, 3, F(1, 3))
        start = StrategyProfile([[F(1, 6), F(0), F(1, 4)], [F(0), F(1, 5), F(0)]])
        trace = run_dynamics(g, start, max_rounds=60)
        if trace.outcome.kind == "converged":
            assert verify_nash(g, trace.steps[-1].profile).is_nash

    def test_every_move_strictly_improves_the_mover(self):
        from rankcomp.game import utilities

        trace = run_dynamics(GAME, S0, epsilon=F(1, 10), max_rounds=8)
        prev = S0
        for step in trace.steps:
            if step.moved:
                before = utilities(GAME, prev)[step.mover]
                after = utilities(GAME, step.profile)[step.mover]
                assert after > before
                assert after == step.value
            prev = step.profile

    def test_determinism(self):
        a = run_dynamics(GAME, S0, epsilon=F(1, 10), max_rounds=10)
        b = run_dynamics(GAME, S0, epsilon=F(1, 10), max_rounds=10)
        assert a == b

    def test_mover_schedule_starts_at_player_two(self):
        trace = run_dynamics(GAME, S0, epsilon=F(1, 10), max_rounds=4)
        assert [s.mover for s in trace.steps][:2] == [1, 0]

    def test_first_move_matches_reference_round_one(self):
        trace = run_dynamics(GAME, S0, epsilon=F(1, 10), max_rounds=1)
        assert trace.steps[0].profile.strategies[1].emphases == (
            F(2, 5), F(1, 2), F(1, 10),
        )
        assert trace.steps[0].value == 3

    @pytest.mark.parametrize("epsilon", [0, F(-1, 10), float("nan")])
    def test_epsilon_is_checked_at_entry(self, epsilon):
        # an equilibrium start converges without ever building a witness
        g = RankingGame.tent(2, 3, F(9, 20))
        eq = construct_equilibrium(g)
        assert run_dynamics(g, eq).outcome.kind == "converged"
        with pytest.raises(DomainError, match="epsilon must be positive"):
            run_dynamics(g, eq, epsilon=epsilon)

    def test_unknown_order_is_a_domain_error(self):
        with pytest.raises(DomainError, match="unknown order 'backwards'"):
            run_dynamics(GAME, S0, order="backwards")

    def test_max_rounds_below_one_is_a_domain_error(self):
        with pytest.raises(DomainError, match="max_rounds must be >= 1"):
            run_dynamics(GAME, S0, max_rounds=0)

    def test_random_order_requires_seed(self):
        with pytest.raises(DomainError):
            run_dynamics(GAME, S0, order="random")

    def test_random_order_is_seed_deterministic(self):
        a = run_dynamics(GAME, S0, order="random", seed=9, max_rounds=6)
        b = run_dynamics(GAME, S0, order="random", seed=9, max_rounds=6)
        assert a == b
