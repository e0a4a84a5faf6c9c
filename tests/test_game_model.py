import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankcomp.game import (
    EmphasisVector,
    RankingGame,
    SinglePeakFunction,
    StrategyProfile,
    induce_ranking,
    load_profile,
    profile_from_dict,
    read_json,
    save_profile,
    sequence_from_dict,
    score,
    utilities,
    validate_profile,
)
from rankcomp.numeric import DomainError, dual_view

from conftest import random_instance


def tent_game(n, m, peak):
    return RankingGame.tent(n, m, peak)


class TestSinglePeakFunction:
    def test_tent_at_peak(self):
        f = SinglePeakFunction.tent(F(1, 2))
        assert f(F(1, 2)) == 1

    def test_tent_branch_endpoints(self):
        f = SinglePeakFunction.tent(F(1, 2))
        assert f(F(0)) == 0
        assert f(F(1)) == 0

    def test_tent_increasing_branch_formula(self):
        f = SinglePeakFunction.tent(F(1, 2))
        assert f(F(3, 10)) == F(3, 5)

    def test_degenerate_peaks(self):
        assert SinglePeakFunction.tent(F(0))(F(0)) == 1
        assert SinglePeakFunction.tent(F(0))(F(1, 2)) == F(1, 2)
        assert SinglePeakFunction.tent(F(1))(F(1)) == 1
        assert SinglePeakFunction.tent(F(1))(F(1, 4)) == F(1, 4)

    def test_inverse_on_increasing_branch(self):
        f = SinglePeakFunction.tent(F(2, 5))
        for x in [F(0), F(1, 10), F(3, 10), F(2, 5)]:
            assert f.inverse_increasing_geq(f(x)) == x

    def test_general_piecewise_validation(self):
        # non-monotone segment before the peak is rejected
        with pytest.raises(DomainError):
            SinglePeakFunction(
                knots=((F(0), F(1, 2)), (F(1, 4), F(1, 4)), (F(1, 2), F(1)), (F(1), F(0))),
                peak=F(1, 2),
            )

    def test_general_piecewise_inverse(self):
        f = SinglePeakFunction(
            knots=((F(0), F(0)), (F(1, 4), F(4, 5)), (F(1, 2), F(1)), (F(1), F(0))),
            peak=F(1, 2),
        )
        assert f.inverse_increasing_geq(F(2, 5)) == F(1, 8)
        assert f.inverse_increasing_geq(F(9, 10)) == F(3, 8)


class TestScore:
    def test_value_at_peak(self):
        g = tent_game(1, 1, F(1, 2))
        assert score(g, EmphasisVector([F(1, 2)]), 0) == 1

    def test_branch_endpoint(self):
        g = tent_game(1, 1, F(1, 2))
        assert score(g, EmphasisVector([F(0)]), 0) == 0

    def test_default_tent_formula(self):
        g = tent_game(1, 1, F(1, 2))
        assert score(g, EmphasisVector([F(3, 10)]), 0) == F(3, 5)

    def test_out_of_range_query(self):
        g = tent_game(1, 2, F(1, 2))
        with pytest.raises(DomainError):
            score(g, EmphasisVector([F(0), F(0)]), 2)


class TestInduceRanking:
    def test_round_one_ranking_from_the_motivating_example(self):
        g = tent_game(2, 3, F(1, 2))
        prof = StrategyProfile([[F("0.3"), F("0.4"), F(0)], [F("0.4"), F("0.5"), F("0.1")]])
        r = induce_ranking(g, prof, 0)
        assert [(grp.score, grp.players) for grp in r.tie_groups] == [
            (F(4, 5), (1,)),
            (F(3, 5), (0,)),
        ]

    def test_identical_strategies_single_group(self):
        g = tent_game(3, 2, F(1, 2))
        prof = StrategyProfile([[F(1, 4), F(1, 4)]] * 3)
        r = induce_ranking(g, prof, 0)
        assert len(r.tie_groups) == 1
        assert r.tie_groups[0].players == (0, 1, 2)

    def test_all_distinct_scores_three_singletons(self):
        g = tent_game(3, 1, F(1, 2))
        prof = StrategyProfile([[F(1, 10)], [F(3, 10)], [F(1, 2)]])
        r = induce_ranking(g, prof, 0)
        assert [grp.players for grp in r.tie_groups] == [(2,), (1,), (0,)]
        scores = [grp.score for grp in r.tie_groups]
        assert all(a > b for a, b in zip(scores, scores[1:]))

    def test_rank_of_counts_group_sizes(self):
        g = tent_game(3, 1, F(1, 2))
        prof = StrategyProfile([[F(1, 2)], [F(1, 2)], [F(1, 10)]])
        r = induce_ranking(g, prof, 0)
        assert r.rank_of(0) == 1 and r.rank_of(1) == 1
        assert r.rank_of(2) == 3


class TestUtilities:
    def test_copycat_pair_splits_every_query(self):
        g = tent_game(2, 4, F(1, 3))
        prof = StrategyProfile([[F(1, 5), F(1, 5), F(1, 5), F(1, 5)]] * 2)
        assert utilities(g, prof) == (F(2), F(2))

    def test_motivating_example_round_one(self):
        g = tent_game(2, 3, F(1, 2))
        prof = StrategyProfile([[F("0.3"), F("0.4"), F(0)], [F("0.4"), F("0.5"), F("0.1")]])
        assert utilities(g, prof) == (F(0), F(3))

    def test_single_player_tops_every_query(self):
        g = tent_game(1, 3, F(1, 2))
        assert utilities(g, StrategyProfile([[F(1, 8), F(0), F(1, 3)]])) == (F(3),)

    def test_sum_is_m_on_random_profiles(self, rng):
        for _ in range(40):
            game, profile = random_instance(rng)
            assert sum(utilities(game, profile)) == game.m

    def test_player_permutation_equivariance(self, rng):
        for _ in range(20):
            game, profile = random_instance(rng)
            perm = list(range(game.n))
            rng.shuffle(perm)
            permuted = StrategyProfile([profile[perm[i]] for i in range(game.n)])
            base = utilities(game, profile)
            assert utilities(game, permuted) == tuple(base[perm[i]] for i in range(game.n))

    def test_query_permutation_invariance(self, rng):
        for _ in range(20):
            game, profile = random_instance(rng)
            qperm = list(range(game.m))
            rng.shuffle(qperm)
            permuted = StrategyProfile(
                [[v.emphases[qperm[j]] for j in range(game.m)] for v in profile.strategies]
            )
            assert utilities(game, permuted) == utilities(game, profile)

    def test_top_group_is_argmax(self, rng):
        for _ in range(20):
            game, profile = random_instance(rng)
            for j in range(game.m):
                r = induce_ranking(game, profile, j)
                best = max(score(game, profile[i], j) for i in range(game.n))
                assert set(r.top_players) == {
                    i for i in range(game.n) if score(game, profile[i], j) == best
                }


@settings(max_examples=60, deadline=None)
@given(
    peak=st.fractions(min_value=F(1, 100), max_value=F(99, 100)),
    a=st.fractions(min_value=0, max_value=1),
    b=st.fractions(min_value=0, max_value=1),
)
def test_score_single_peak_monotonicity(peak, a, b):
    f = SinglePeakFunction.tent(peak)
    lo, hi = min(a, b), max(a, b)
    if hi <= peak:
        assert f(lo) <= f(hi)
    if lo >= peak:
        assert f(lo) >= f(hi)


class TestValidate:
    def test_simplex_cap_breach(self):
        g = tent_game(1, 3, F(1, 2))
        report = validate_profile(g, StrategyProfile([[F(1, 2), F(1, 2), F(1, 10)]]))
        assert not report.ok
        assert any("sum" in v and "> 1" in v for v in report.violations)

    def test_length_mismatch(self):
        g = tent_game(1, 3, F(1, 2))
        report = validate_profile(g, StrategyProfile([[F(1, 2), F(1, 2)]]))
        assert not report.ok
        assert any("length 2" in v for v in report.violations)

    def test_reference_strategy_is_valid(self):
        g = tent_game(1, 3, F(1, 2))
        report = validate_profile(g, StrategyProfile([[F("0.3"), F("0.4"), F("0.0")]]))
        assert report.ok

    def test_float_profile_gets_simplex_tolerance(self):
        g = RankingGame.tent(1, 2, 0.5)
        report = validate_profile(g, StrategyProfile([[0.7, 0.3 + 5e-13]]))
        assert report.ok

    def test_out_of_range_component(self):
        g = tent_game(1, 2, F(1, 2))
        report = validate_profile(g, StrategyProfile([[F(3, 2), F(0)]]))
        assert not report.ok


class TestProfileFiles:
    def test_round_trip_preserves_exactness(self, tmp_path):
        g = tent_game(2, 3, F(1, 3))
        prof = StrategyProfile([[F(1, 3), F(1, 3), F(1, 3)]] * 2)
        path = tmp_path / "prof.json"
        save_profile(path, g, prof)
        g2, prof2 = load_profile(path)
        assert g2.peak == F(1, 3)
        assert prof2.strategies == prof.strategies

    def test_accepts_plain_float_numbers(self):
        g, prof = profile_from_dict(
            {"n": 1, "m": 2, "peak": 0.5, "strategies": [[0.45, 0.1]]}
        )
        assert g.peak == F(1, 2)
        assert prof[0].emphases == (F(9, 20), F(1, 10))

    def test_accepts_fraction_strings(self):
        g, prof = profile_from_dict(
            {"n": 1, "m": 1, "peak": "1/3", "strategies": [["1/3"]]}
        )
        assert prof[0][0] == F(1, 3)

    def test_save_profile_writes_compact_sorted_json(self, tmp_path):
        g = tent_game(2, 2, F(1, 3))
        path = tmp_path / "prof.json"
        save_profile(path, g, StrategyProfile([[F(1, 3), F(0)], [F(1, 2), F(1, 4)]]))
        assert path.read_text(encoding="utf-8") == (
            '{"m":2,"n":2,"peak":0.3333333333333333,"peak_exact":"1/3",'
            '"strategies":[[0.3333333333333333,0.0],[0.5,0.25]],'
            '"strategies_exact":[["1/3",0],["1/2","1/4"]]}\n'
        )

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"m": 1, "peak": 0.5, "strategies": [[0]]}, "profile file missing field 'n'"),
            ({"n": 1, "m": 1, "strategies": [[0]]}, "profile file missing field 'peak'"),
            ({"n": 1, "m": 1, "peak": 0.5}, "profile file missing field 'strategies'"),
            ({"n": "x", "m": 1, "peak": 0.5, "strategies": [[0]]}, "n and m must be integers"),
            ({"n": 1, "m": 1, "peak": 0.5, "strategies": 3}, "list of number lists"),
            ({"n": 1, "m": 1, "peak": 0.5, "strategies": [[{}]]}, "cannot parse number"),
            ([1, 2], "profile file must hold a JSON object"),
            ({"n": 2.9, "m": 1, "peak": 0.5, "strategies": [[0], [0]]},
             "n and m must be integers"),
            ({"n": 1, "m": True, "peak": 0.5, "strategies": [[0]]}, "n and m must be integers"),
        ],
    )
    def test_malformed_profile_is_a_domain_error(self, data, message):
        with pytest.raises(DomainError, match=message):
            profile_from_dict(data)

    @pytest.mark.parametrize("size", [2, 2.0, "2"])
    def test_integral_sizes_are_accepted(self, size):
        g, _ = profile_from_dict({"n": size, "m": size, "peak": 0.5, "strategies": [[0, 0]] * 2})
        assert (g.n, g.m) == (2, 2) and type(g.n) is int and type(g.m) is int

    def test_sequence_shares_the_profile_fields(self):
        g, profiles = sequence_from_dict(
            {"n": 2, "m": 1, "peak": 0.5, "peak_exact": "1/3",
             "profiles": [[["1/3"], [0]], [["1/3"], [0.25]]]}
        )
        assert g == tent_game(2, 1, F(1, 3))
        assert profiles == [StrategyProfile([[F(1, 3)], [F(0)]]),
                            StrategyProfile([[F(1, 3)], [F(1, 4)]])]
        with pytest.raises(DomainError, match="sequence file missing field 'profiles'"):
            sequence_from_dict({"n": 2, "m": 1, "peak": 0.5})

    def test_read_json_names_the_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{bad", encoding="utf-8")
        with pytest.raises(DomainError, match=r"bad\.json: invalid JSON"):
            read_json(path)

    def test_dual_view_nests_float_and_exact_views(self):
        assert dual_view("v", F(1, 4)) == {"v": 0.25, "v_exact": "1/4"}
        assert dual_view("v", ((F(2), F(1, 2)), [0.5])) == {
            "v": [[2.0, 0.5], [0.5]], "v_exact": [[2, "1/2"], [0.5]],
        }


class TestFloatMode:
    def test_float_scores_group_within_tolerance(self):
        g = RankingGame.tent(3, 1, 0.5)
        # two scores equal up to sub-tolerance noise form one tie group
        prof = StrategyProfile([[0.3], [0.3 + 1e-12], [0.1]])
        r = induce_ranking(g, prof, 0)
        assert r.tie_groups[0].players == (0, 1)

    def test_float_utilities_sum_close_to_m(self):
        g = RankingGame.tent(3, 4, 0.37)
        prof = StrategyProfile(
            [[0.1, 0.2, 0.05, 0.3], [0.37, 0.0, 0.2, 0.1], [0.0, 0.37, 0.37, 0.2]]
        )
        total = sum(utilities(g, prof))
        assert abs(total - g.m) <= 1e-9

    def test_mixed_exact_and_float_degrades_to_float(self):
        g = RankingGame.tent(2, 2, 0.5)
        prof = StrategyProfile([[F(1, 4), 0.25], [0.25, F(1, 4)]])
        u = utilities(g, prof)
        assert all(isinstance(v, float) for v in u)
        assert sum(u) == pytest.approx(2.0)
