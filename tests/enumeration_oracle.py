"""Reference best response by walking all 2^m invest-subsets.

Test-only oracle for :func:`rankcomp.best_response.best_response_value`
(n >= 2).  Masks are visited in increasing integer order and a plan is
replaced only on strict improvement, so the reported plan is the lowest
mask attaining the optimum, in its best roles when it affords them.
"""

from rankcomp.best_response import BestResponse, DeviationPlan, thresholds
from rankcomp.game import unit
from rankcomp.numeric import number_less


def enumerate_best_response(game, profile, player) -> BestResponse:
    ths = thresholds(game, profile, player)
    one = unit(game, profile)
    zero = 0 * one

    def tie_share(th):
        return one / (th.tie_count + 1)

    def solo_available(th):
        return not th.top_is_peak or th.beats_at_cost

    zero_total = sum((t.zero_value for t in ths), zero)
    best_attained = best_sup = zero_total
    best_plan = DeviationPlan(frozenset(), frozenset(), zero_total, zero)

    for mask in range(1 << game.m):
        subset = [j for j in range(game.m) if mask >> j & 1]
        cost = sum((ths[j].cost for j in subset), zero)
        if cost > one:
            continue
        rest = zero_total - sum((ths[j].zero_value for j in subset), zero)
        # every invested query at its best role (solos where beatable)
        value_open = rest + sum(
            (one if solo_available(ths[j]) else tie_share(ths[j]) for j in subset), zero
        )
        # every invested query at a margin-free role
        value_closed = rest + sum(
            (one if ths[j].beats_at_cost else tie_share(ths[j]) for j in subset), zero
        )
        best_sup = max(best_sup, value_open)
        needs_margin = any(solo_available(ths[j]) and not ths[j].beats_at_cost for j in subset)
        if (not needs_margin or number_less(cost, one)) and value_open > best_attained:
            best_attained = value_open
            solos = frozenset(j for j in subset if solo_available(ths[j]))
            best_plan = DeviationPlan(solos, frozenset(subset) - solos, value_open, zero)
        if value_closed > best_attained:
            best_attained = value_closed
            solos = frozenset(j for j in subset if ths[j].beats_at_cost)
            best_plan = DeviationPlan(solos, frozenset(subset) - solos, value_closed, zero)

    return BestResponse(sup_value=best_sup, attained_value=best_attained, plan=best_plan)
