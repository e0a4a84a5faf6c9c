"""Exact best-response analysis against fixed opponents.

For a deviating player, each query is priced by the cheapest emphasis on
the increasing branch that reaches the opponents' top score (the branch
inverse).  A deviation plan picks, per query, one of: stay at zero, match
the top score exactly (tie), or beat it strictly (solo).  A solo needs
an arbitrarily small margin above its cost unless f(0) already beats the
top, so a plan with such a solo is feasible only with strict budget slack;
other plans may spend the whole budget.  Playing past the peak is never useful: for equal score the
decreasing branch always costs more emphasis.

Choosing the invest-subset is a 0/1 knapsack whose gains are all 1 or a
tie share 1/(t+1).  It is solved exactly, at any m, by a dynamic program
over least cost per gain, run on integers: gains are scaled by the lcm
of their denominators and, in exact mode, costs and the budget by the
lcm of the cost denominators (Kellerer, Pferschy & Pisinger, *Knapsack
Problems*, 2004, ch. 2); the tests check it against 2^m enumeration.

The public functions validate and score the profile once; the private
helpers take those scores (:func:`~rankcomp.game.query_scores`, whose
values carry the arithmetic mode), so a caller scores a profile once for
all its players, and a witness reuses the thresholds and plan of its value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .game import EmphasisVector, RankingGame, StrategyProfile, query_scores, require_valid
from .game import unit, utilities
from .numeric import DomainError, Number, number_less, numbers_equal, one_like

DEFAULT_EPSILON = Fraction(1, 1000)


@dataclass(frozen=True)
class QueryThreshold:
    """Price of contesting one query against the fixed opponents.

    cost          least emphasis in [0, peak] reaching the opponents' top
                  score on the increasing branch
    top_is_peak   the top score equals f(peak), so it cannot be beaten
    tie_count     opponents attaining the top score
    beats_at_cost playing exactly `cost` already exceeds the top score
                  (possible only when f(0) > top; never for the tent)
    zero_value    utility earned at zero spend (free tie/win when the
                  opponents' top is f(0))
    """

    query_index: int
    cost: Number
    top_is_peak: bool
    tie_count: int
    beats_at_cost: bool
    zero_value: Number


@dataclass(frozen=True)
class DeviationPlan:
    solo_set: frozenset[int]
    tie_set: frozenset[int]
    value: Number
    epsilon: Number


@dataclass(frozen=True)
class BestResponse:
    sup_value: Number
    attained_value: Number
    plan: DeviationPlan


@dataclass(frozen=True)
class WitnessResult:
    strategy: EmphasisVector
    value: Number
    epsilon_used: Number
    plan: DeviationPlan


def thresholds(game: RankingGame, profile: StrategyProfile, player: int) -> tuple[QueryThreshold, ...]:
    """Per-query thresholds for `player` deviating against the others.

    For n = 1 there are no opponents: every query reports cost 0 with
    tie_count 0, meaning the sole player wins everything for free.
    """
    require_valid(game, profile)
    return _thresholds(game, query_scores(game, profile), player)


def _thresholds(game: RankingGame, columns, player: int) -> tuple[QueryThreshold, ...]:
    """Thresholds from a validated profile's query scores, in the scores' mode."""
    if not 0 <= player < game.n:
        raise DomainError(f"player {player} outside [0, {game.n})")
    f = game.f
    one = one_like(columns[0][0])
    zero = 0 * one
    # the branch inverse reaches the top exactly, unless the top is below
    # f(0): then the cost is 0 and zero spend already beats it
    f_zero, f_peak = f(zero), f.max_score
    out = []
    for j, column in enumerate(columns):
        opp_scores = column[:player] + column[player + 1:]
        if not opp_scores:
            out.append(
                QueryThreshold(j, cost=zero, top_is_peak=False, tie_count=0,
                               beats_at_cost=True, zero_value=one)
            )
            continue
        top = max(opp_scores)
        tie_count = sum(1 for s in opp_scores if numbers_equal(s, top))
        cost = f.inverse_increasing_geq(top)
        beats = number_less(top, f_zero)
        if numbers_equal(cost, zero):
            zv = one if beats else one / (tie_count + 1)
        else:
            zv = zero
        out.append(
            QueryThreshold(j, cost=cost, top_is_peak=numbers_equal(top, f_peak),
                           tie_count=tie_count, beats_at_cost=beats, zero_value=zv)
        )
    return tuple(out)


def best_response_value(game: RankingGame, profile: StrategyProfile, player: int) -> BestResponse:
    """Supremum and attained optimum over all deviations of one player.

    attained_value is realizable by an explicit strategy (see
    :func:`best_response_witness`); sup_value additionally counts plans
    that exhaust the budget exactly while still needing a strict win
    margin, and so may be approached but not reached.
    """
    require_valid(game, profile)
    return _respond(game, query_scores(game, profile), player)[1]


def _respond(game: RankingGame, columns, player: int):
    """(thresholds, best response) of `player` against scored opponents."""
    ths = _thresholds(game, columns, player)
    if game.n == 1:
        m_val = sum(th.zero_value for th in ths)
        plan = DeviationPlan(frozenset(range(game.m)), frozenset(), m_val, 0 * m_val)
        return ths, BestResponse(sup_value=m_val, attained_value=m_val, plan=plan)
    return ths, _optimize(ths)


def _gains(th: QueryThreshold) -> tuple[Fraction, Fraction]:
    """(open gain, closed gain) of investing in one query.

    Gains are measured over the zero-spend value, exactly, in both
    arithmetic modes: every role is worth 1 or a tie share 1/(t+1).
    """
    tie = Fraction(1, th.tie_count + 1)
    open_role = tie if th.top_is_peak else 1
    closed_role = 1 if th.beats_at_cost else tie
    base = closed_role if th.zero_value else 0
    return open_role - base, closed_role - base


def _optimize(ths) -> BestResponse:
    """Exact 0/1 knapsack over invest-subsets by a gain-indexed DP.

    An open plan gives every invested query its best role, a solo
    wherever the top is below the peak; a solo may need a win margin, so
    an open plan must leave budget slack.  A closed plan gives every
    invested query its margin-free role and may spend the whole budget.
    A query whose solo needs no margin has equal open and closed roles,
    so no plan is lost.  For each prefix of queries a table keeps the
    least cost per gain.  The DP runs on Python ints: gains are scaled
    by the lcm of their denominators and, in exact mode, costs and the
    budget by the lcm of the cost denominators; float mode keeps float
    costs and its tolerance on the budget.  Gains have small
    denominators, so the tables stay small at any m.  The plan is the
    lowest invest mask (as an integer over query bits) attaining the
    optimum, in its open roles when it affords them.  Every threshold
    value is in the scores' mode, so the budget's 1 comes from them.
    """
    one = one_like(ths[0].zero_value)
    zero = 0 * one
    zero_total = sum((t.zero_value for t in ths), zero)
    open_gains, closed_gains = zip(*map(_gains, ths))
    scale = math.lcm(*(g.denominator for g in open_gains + closed_gains))
    open_gains, closed_gains = (
        [g.numerator * scale // g.denominator for g in gains]
        for gains in (open_gains, closed_gains)
    )
    costs = [t.cost for t in ths]
    budget = one
    if isinstance(one, Fraction):
        budget = math.lcm(*(c.denominator for c in costs))
        costs = [c.numerator * budget // c.denominator for c in costs]
    zero_cost = 0 * budget

    def tables(gains):
        out = [{0: zero_cost}]
        for c_j, g_j in zip(costs, gains):
            table = dict(out[-1])
            for g, c in out[-1].items():
                g, c = g + g_j, c + c_j
                if c <= budget and (g not in table or c < table[g]):
                    table[g] = c
            out.append(table)
        return out

    def reachable(table, gain, spent, affords):
        return gain in table and affords(spent + table[gain])

    def lowest_mask(prefix, gains, affords, gain):
        # highest query first: keep it only when the rest cannot reach `gain`
        if not reachable(prefix[-1], gain, zero_cost, affords):
            return None
        mask, spent = 0, zero_cost
        for j in reversed(range(len(ths))):
            if not reachable(prefix[j], gain, spent, affords):
                mask |= 1 << j
                gain, spent = gain - gains[j], spent + costs[j]
        return mask

    def with_slack(cost):
        return number_less(cost, budget)

    opens, closeds = tables(open_gains), tables(closed_gains)
    sup = max(opens[-1])
    best = max(max(closeds[-1]), max(g for g, c in opens[-1].items() if with_slack(c)))

    open_mask = lowest_mask(opens, open_gains, with_slack, best)
    closed_mask = lowest_mask(closeds, closed_gains, lambda cost: cost <= budget, best)
    if open_mask is not None and (closed_mask is None or open_mask <= closed_mask):
        mask, solo = open_mask, lambda th: not th.top_is_peak
    else:
        mask, solo = closed_mask, lambda th: th.beats_at_cost
    invested = frozenset(j for j in range(len(ths)) if mask >> j & 1)
    solos = frozenset(j for j in invested if solo(ths[j]))
    sup, best = zero_total + Fraction(sup, scale), zero_total + Fraction(best, scale)
    plan = DeviationPlan(solos, invested - solos, best, zero)
    return BestResponse(sup_value=sup, attained_value=best, plan=plan)


def best_response_witness(
    game: RankingGame,
    profile: StrategyProfile,
    player: int,
    epsilon: Number = DEFAULT_EPSILON,
) -> WitnessResult:
    """Concrete strategy achieving the attained best-response value.

    Tie queries get exactly their cost; solo queries get cost plus a
    margin, capped at the peak.  The margin starts from `epsilon` and is
    auto-shrunk to half the remaining budget slack split across the solo
    wins, so the witness always validates.  The achieved utility is
    recomputed through :func:`utilities` and asserted to match.
    """
    require_valid(game, profile)
    ths, br = _respond(game, query_scores(game, profile), player)
    return _witness(game, profile, player, ths, br, epsilon)


def _witness(game, profile, player, ths, br: BestResponse, epsilon) -> WitnessResult:
    """Witness for the plan that `br` solved from `ths` against `profile`."""
    if not epsilon > 0:  # refuses NaN too
        raise DomainError("epsilon must be positive")
    one = one_like(unit(game, profile), epsilon)
    zero = 0 * one
    plan = br.plan
    open_solos = [j for j in plan.solo_set if not ths[j].beats_at_cost]
    total_cost = sum((ths[j].cost for j in plan.solo_set | plan.tie_set), zero)

    def build(margin):
        emphases = [zero] * game.m
        for j in plan.solo_set | plan.tie_set:
            emphases[j] = ths[j].cost
        for j in open_solos:
            emphases[j] = min(game.peak, ths[j].cost + margin)
        return emphases

    eps = epsilon * one if open_solos else zero
    emphases = build(eps)
    if open_solos and sum(emphases) > one:
        # requested margin overruns the budget: shrink to half the slack
        eps = (one - total_cost) / (2 * len(open_solos))
        emphases = build(eps)
    # f's knots are exact in a float profile: every emphasis joins the mode
    vec = EmphasisVector([e + zero for e in emphases])

    achieved = utilities(game, profile.replace(player, vec))[player]
    if not numbers_equal(achieved, br.attained_value):
        raise AssertionError(
            f"witness utility {achieved} does not match attained value {br.attained_value}"
        )
    plan = DeviationPlan(plan.solo_set, plan.tie_set, plan.value + zero, eps)
    return WitnessResult(vec, achieved, eps, plan)
