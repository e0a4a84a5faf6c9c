"""The arithmetic-mode rule: inputs decide exact vs float, everywhere alike."""

import random
from fractions import Fraction

import pytest

from conftest import random_fraction, random_strategy
from rankcomp import best_response, game as game_module
from rankcomp.best_response import best_response_value, best_response_witness, thresholds
from rankcomp.equilibria import verify_nash
from rankcomp.game import (
    RankingGame, SinglePeakFunction, StrategyProfile, induce_ranking, query_scores, utilities,
)
from rankcomp.numeric import DomainError, improves, numbers_equal, one_like, parse_number


def test_one_like_is_exact_only_without_floats():
    assert type(one_like()) is Fraction
    assert type(one_like(Fraction(1, 3), 2)) is Fraction
    assert type(one_like(Fraction(1, 3), 0.5)) is float


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), float("1e400")])
def test_parse_number_refuses_non_finite_floats(value):
    with pytest.raises(DomainError, match="^cannot parse number from -?(nan|inf)$"):
        parse_number(value)


def test_improves_is_strict_beyond_the_float_tolerance():
    assert improves(Fraction(1) + Fraction(1, 10**12), Fraction(1))
    assert improves(1.0 + 1e-6, 1.0)
    assert not improves(1.0 + 1e-12, 1.0)
    assert not improves(1.0, 1.0)
    assert not improves(0.5, 1.0)
    assert numbers_equal(1.0 + 1e-12, 1.0) and not numbers_equal(Fraction(1, 10**12), 0)


def _rows(rng, n, m, emphases):
    rows = [list(random_strategy(rng, m).emphases) for _ in range(n)]
    if emphases == "float":
        return [[float(e) for e in row] for row in rows]
    if emphases == "mixed":  # every other emphasis a float, the first one included
        return [[float(e) if (i * m + j) % 2 == 0 else e for j, e in enumerate(row)]
                for i, row in enumerate(rows)]
    return rows


@pytest.mark.parametrize("emphases", ["exact", "float", "mixed"])
@pytest.mark.parametrize("float_knots", [False, True], ids=["exact_knots", "float_knots"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_returned_number_is_in_the_mode_of_the_inputs(n, float_knots, emphases):
    rng = random.Random(f"{n}:{float_knots}:{emphases}")
    kind = Fraction if not float_knots and emphases == "exact" else float
    for _ in range(25):
        m = rng.randint(1, 5)
        peak = random_fraction(rng, 10)
        game = RankingGame.tent(n, m, float(peak) if float_knots else peak)
        profile = StrategyProfile(_rows(rng, n, m, emphases))
        numbers = list(utilities(game, profile))
        numbers += [s for column in query_scores(game, profile) for s in column]
        for i in range(n):
            numbers += [th.cost for th in thresholds(game, profile, i)]
            br = best_response_value(game, profile, i)
            wit = best_response_witness(game, profile, i)
            numbers += [br.sup_value, br.attained_value, br.plan.value, br.plan.epsilon,
                        wit.value, wit.epsilon_used, wit.plan.value, wit.plan.epsilon,
                        *wit.strategy.emphases]
        for dev in verify_nash(game, profile).per_player:
            numbers += [dev.current, dev.attained]
        assert [type(x) for x in numbers] == [kind] * len(numbers), (game, profile)


@pytest.mark.parametrize("n", [1, 2])
def test_a_float_epsilon_puts_the_witness_in_float_mode(n):
    game = RankingGame.tent(n, 3, Fraction(1, 2))
    opponent = [Fraction(3, 10), Fraction(2, 5), Fraction(0)]
    profile = StrategyProfile([[Fraction(0)] * 3] + [opponent] * (n - 1))
    wit = best_response_witness(game, profile, 0, 0.1)
    numbers = [wit.value, wit.epsilon_used, wit.plan.value, wit.plan.epsilon,
               *wit.strategy.emphases]
    assert [type(x) for x in numbers] == [float] * len(numbers)


def test_a_float_profile_scores_in_float_on_every_query():
    # emphases on f's knots (0, 1/2) and int zeros next to float emphases
    game = RankingGame.tent(2, 3, Fraction(1, 2))
    profile = StrategyProfile([[0.5, 0.25, 0], [0.5, 0, 0.25]])
    for q in range(3):
        groups = induce_ranking(game, profile, q).tie_groups
        assert all(type(group.score) is float for group in groups), (q, groups)
    # query 0 holds only exact emphases, query 1 a float: the profile ranks
    # and prices in floats on every query, query 0 included
    mixed = StrategyProfile([[Fraction(1, 4), 0.25, 0], [Fraction(1, 2), 0, Fraction(1, 4)]])
    for q in range(3):
        groups = induce_ranking(game, mixed, q).tie_groups
        assert all(type(group.score) is float for group in groups), (q, groups)
    for player in range(2):
        costs = [th.cost for th in thresholds(game, mixed, player)]
        assert [type(c) for c in costs] == [float] * 3, (player, costs)
    assert type(game.f(0.5)) is float and type(game.f(Fraction(1, 2))) is Fraction
    assert type(game.f.inverse_increasing_geq(1.0)) is float
    assert type(game.f.inverse_increasing_geq(0.0)) is float
    assert type(game.f.inverse_increasing_geq(Fraction(1))) is Fraction


def test_int_knots_keep_an_exact_inverse_exact():
    # f(x) = x on int knots: f(1) is the int knot value 1, and its branch
    # inverse must not divide int by int into the float 1.0
    f = SinglePeakFunction(((0, 0), (1, 1)), 1)
    assert type(f(Fraction(1))) is int
    assert [type(f.inverse_increasing_geq(t)) for t in (0, 1, Fraction(1, 3))] == [
        int, int, Fraction]
    assert type(f.inverse_increasing_geq(1.0)) is float


def test_verify_nash_validates_once_and_solves_once_per_player(monkeypatch):
    # player 2 idles on a query the others leave open, so it can improve
    game = RankingGame.tent(3, 3, Fraction(1, 3))
    third = Fraction(1, 3)
    profile = StrategyProfile([[third, third, 0], [third, third, 0], [0, 0, 0]])
    counts = {"validate": 0, "solve": 0}

    def counting(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(game_module, "validate_profile",
                        counting("validate", game_module.validate_profile))
    monkeypatch.setattr(best_response, "_optimize", counting("solve", best_response._optimize))
    report = verify_nash(game, profile)
    assert not report.is_nash and report.per_player[2].improving_witness is not None
    assert counts == {"validate": 1, "solve": 3}
