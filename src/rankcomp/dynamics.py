"""Best-response dynamics: runner, trace verification, cycle detection.

The runner replaces the scheduled mover's strategy with a best-response
witness whenever a strictly improving deviation exists; a full pass with
no move is convergence.  Cycle detection compares states (profile plus
player-to-act) either exactly or up to a symmetry: a relabeling of
players combined with a relabeling of queries, with the mover role mapped
through the player relabeling.  The non-convergence example that motivates
all of this alternates two players through profiles that repeat only up to
such a symmetry.

Symmetric matching tries, in order, the (n-1)! player relabelings that
send one state's mover to the other's.  For each it matches query
columns (a column is one query's emphases across players) greedily: each
query of the earlier state takes the first unused equal column of the
later one.  A query relabeling exists exactly when the two column
multisets agree, and the greedy one is the lexicographically first, so
any m is cheap.  Only the player walk is capped: symmetric mode raises
CapacityError when (n-1)! > SYMMETRY_BUDGET, i.e. for n >= 10; exact mode
has no cap.  Columns are compared with ``numbers_equal``, which is exact
on rationals.  On floats its 1e-9 tolerance is not transitive, so where
distinct column values lie within 1e-9 of each other the greedy match can
miss a relabeling that trying every query permutation would find.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial
from typing import Optional, Sequence

from .best_response import DEFAULT_EPSILON, _respond, _witness
from .game import RankingGame, StrategyProfile, _utilities, query_scores, require_valid
from .numeric import CapacityError, DomainError, Number, improves, numbers_equal

#: most player relabelings symmetric cycle detection may try, (n-1)!
SYMMETRY_BUDGET = 200_000

CYCLE_MODES = ("symmetric", "exact")


@dataclass(frozen=True)
class DynamicsStep:
    index: int
    mover: int
    moved: bool
    value: Number
    profile: StrategyProfile


@dataclass(frozen=True)
class CycleInfo:
    first: int
    second: int
    equivalence: str  # "exact" | "symmetric"
    player_perm: Optional[tuple[int, ...]] = None
    query_perm: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class DynamicsOutcome:
    kind: str  # converged | cycled | budget_exhausted
    round: Optional[int] = None
    cycle: Optional[CycleInfo] = None


@dataclass(frozen=True)
class DynamicsTrace:
    initial: StrategyProfile
    steps: tuple[DynamicsStep, ...]
    outcome: DynamicsOutcome

    @property
    def profiles(self) -> list[StrategyProfile]:
        return [self.initial] + [s.profile for s in self.steps]


@dataclass(frozen=True)
class TraceStepReport:
    index: int
    mover: Optional[int]
    achieved: Number
    optimal_value: Number
    optimal: bool


def _schedule(order: str, n: int, seed: Optional[int]):
    if order == "round-robin":
        i = min(1, n - 1)
        while True:
            yield i
            i = (i + 1) % n
    elif order == "random":
        import random

        if seed is None:
            raise DomainError("random order requires a seed")
        rng = random.Random(seed)
        while True:
            yield rng.randrange(n)
    else:
        raise DomainError(f"unknown order {order!r}")


def run_dynamics(
    game: RankingGame,
    initial: StrategyProfile,
    *,
    order: str = "round-robin",
    seed: Optional[int] = None,
    max_rounds: int = 100,
    epsilon: Number = DEFAULT_EPSILON,
    cycle_mode: str = "symmetric",
) -> DynamicsTrace:
    """Iterate best responses until convergence, a cycle, or the budget.

    Round-robin order starts at the second player (the only one when
    n = 1), matching the motivating example's move order; random order
    draws each mover from `seed`.  Movers play the attained optimum (not
    the supremum): every strategy written down must be realizable.  The
    run converges once n steps in a row stay; its round is the number of
    steps before those n.
    """
    _check_cycle_mode(game, cycle_mode)
    require_valid(game, initial)
    if max_rounds < 1:
        raise DomainError("max_rounds must be >= 1")
    if not epsilon > 0:  # a fixed point never builds a witness, so check here
        raise DomainError("epsilon must be positive")
    sched = _schedule(order, game.n, seed)

    profile = initial
    steps: list[DynamicsStep] = []
    states: list[tuple[StrategyProfile, int]] = []

    for t in range(max_rounds):
        mover = next(sched)
        # a stay leaves the configuration unchanged, so only states reached
        # by an actual move (plus the start) can open a cycle; this keeps
        # convergence at a fixed point from masquerading as a symmetric
        # repeat between the two movers of an identical-strategy profile
        if not steps or steps[-1].moved:
            states.append((profile, mover))
            cyc = _find_cycle(states, cycle_mode)
            if cyc is not None:
                outcome = DynamicsOutcome(kind="cycled", cycle=cyc)
                break
            # a witness is valid by construction, so each new profile is only scored
            columns = query_scores(game, profile)
            utility = _utilities(columns)

        current = utility[mover]
        ths, br = _respond(game, columns, mover)
        if improves(br.attained_value, current):
            witness = _witness(game, profile, mover, ths, br, epsilon)
            profile = profile.replace(mover, witness.strategy)
            steps.append(DynamicsStep(t, mover, True, witness.value, profile))
        else:
            steps.append(DynamicsStep(t, mover, False, current, profile))
            if len(steps) >= game.n and not any(s.moved for s in steps[-game.n:]):
                outcome = DynamicsOutcome(kind="converged", round=len(steps) - game.n)
                break
    else:
        outcome = DynamicsOutcome(kind="budget_exhausted")
    return DynamicsTrace(initial=initial, steps=tuple(steps), outcome=outcome)


def infer_movers(profiles: Sequence[StrategyProfile]) -> list[Optional[int]]:
    """Mover per step from consecutive profile diffs (None for a stay)."""
    movers: list[Optional[int]] = []
    for t, (a, b) in enumerate(zip(profiles, profiles[1:])):
        if len(a) != len(b):
            raise DomainError("profiles in a trace must keep the same player count")
        diff = [i for i in range(len(a)) if a[i].emphases != b[i].emphases]
        if len(diff) > 1:
            raise DomainError(f"step {t}: consecutive profiles differ in {len(diff)} players")
        movers.append(diff[0] if diff else None)
    return movers


def verify_trace(
    game: RankingGame,
    profiles: Sequence[StrategyProfile],
    movers: Optional[Sequence[Optional[int]]] = None,
) -> tuple[TraceStepReport, ...]:
    """Check every step of an explicit sequence for best-response play.

    A moving step is optimal when the mover's utility in the new profile
    equals the attained best-response value against the old one; a stay
    is optimal when nobody could improve (the profile is a fixed point
    for the scheduled player, which we check for all players since the
    mover is unidentified).  Each profile is validated and scored once.
    """
    if len(profiles) < 2:
        raise DomainError("need at least two profiles")
    for prof in profiles:
        require_valid(game, prof)
    movers = _movers(game, profiles, movers)
    scored = [query_scores(game, prof) for prof in profiles]
    utility = [_utilities(columns) for columns in scored]
    reports = []
    for t, mover in enumerate(movers):
        columns, current = scored[t], utility[t]
        players = range(game.n) if mover is None else (mover,)
        attained = {i: _respond(game, columns, i)[1].attained_value for i in players}
        if mover is None:
            # report the player with the largest improvement gap; a stay is
            # optimal only when even that player cannot gain
            _, i = max((attained[i] - current[i], i) for i in players)
            reports.append(TraceStepReport(t, None, current[i], attained[i],
                                           optimal=not improves(attained[i], current[i])))
        else:
            achieved = utility[t + 1][mover]
            reports.append(TraceStepReport(t, mover, achieved, attained[mover],
                                           optimal=numbers_equal(achieved, attained[mover])))
    return tuple(reports)


def _movers(game: RankingGame, profiles, movers) -> Sequence[Optional[int]]:
    """The inferred movers, or the given ones if each agrees with them (a given mover may stay)."""
    if movers is None:
        return infer_movers(profiles)
    if len(movers) != len(profiles) - 1:
        raise DomainError(f"{len(movers)} movers for {len(profiles) - 1} steps")
    if any(mv is not None and not 0 <= mv < game.n for mv in movers):
        raise DomainError(f"movers must be players in [0, {game.n}) or None")
    for t, (given, changed) in enumerate(zip(movers, infer_movers(profiles))):
        if changed is not None and changed != given:
            raise DomainError(f"step {t}: player {changed} changed, but the given mover is {given}")
    return movers


def _profiles_equal(a: StrategyProfile, b: StrategyProfile) -> bool:
    return all(
        len(x) == len(y) and all(numbers_equal(p, q) for p, q in zip(x.emphases, y.emphases))
        for x, y in zip(a.strategies, b.strategies)
    )


def _check_cycle_mode(game: RankingGame, mode: str) -> None:
    if mode not in CYCLE_MODES:
        raise DomainError(f"unknown cycle mode {mode!r}; expected one of {CYCLE_MODES}")
    if mode == "symmetric":
        relabelings = factorial(game.n - 1)
        if relabelings > SYMMETRY_BUDGET:
            raise CapacityError(
                f"symmetric cycle detection at n={game.n} would try (n-1)! = "
                f"{relabelings} player relabelings, over the budget of "
                f'{SYMMETRY_BUDGET}; use cycle_mode="exact"'
            )


def _find_cycle(states, mode) -> Optional[CycleInfo]:
    last_profile, last_mover = states[-1]
    j = len(states) - 1
    for i in range(j):
        profile_i, mover_i = states[i]
        if mover_i == last_mover and _profiles_equal(profile_i, last_profile):
            return CycleInfo(first=i, second=j, equivalence="exact")
        # a state after a stay has no known mover, so it matches only exactly
        if mode == "symmetric" and mover_i is not None and last_mover is not None:
            found = _symmetric_match(states[i], states[-1])
            if found is not None:
                pperm, qperm = found
                return CycleInfo(
                    first=i, second=j, equivalence="symmetric",
                    player_perm=pperm, query_perm=qperm,
                )
    return None


def _symmetric_match(state_a, state_b):
    """First (player_perm, query_perm) mapping state_a onto state_b, if any.

    Player k of a becomes player player_perm[k] of b, with a's mover sent
    to b's mover, and query q becomes query query_perm[q].  Player
    permutations are tried in order; for each, the greedy column match
    gives the lexicographically first query permutation.
    """
    profile_a, mover_a = state_a
    profile_b, mover_b = state_b
    n = len(profile_a)
    columns_a = list(zip(*(s.emphases for s in profile_a.strategies)))
    others_a = [i for i in range(n) if i != mover_a]
    others_b = [i for i in range(n) if i != mover_b]
    for rest in permutations(others_b):
        pperm = [0] * n
        pperm[mover_a] = mover_b
        for src, dst in zip(others_a, rest):
            pperm[src] = dst
        columns_b = list(zip(*(profile_b[k].emphases for k in pperm)))
        qperm = _match_columns(columns_a, columns_b)
        if qperm is not None:
            return tuple(pperm), qperm
    return None


def _match_columns(columns_a, columns_b) -> Optional[tuple[int, ...]]:
    """Send each column of a to the first unused equal column of b."""
    unused = list(range(len(columns_b)))
    qperm = []
    for col in columns_a:
        for pos, q in enumerate(unused):
            if all(numbers_equal(x, y) for x, y in zip(col, columns_b[q])):
                qperm.append(q)
                del unused[pos]
                break
        else:
            return None
    return tuple(qperm)


def detect_cycle(
    game: RankingGame,
    profiles: Sequence[StrategyProfile],
    movers: Optional[Sequence[Optional[int]]] = None,
    *,
    mode: str = "symmetric",
) -> Optional[CycleInfo]:
    """Scan an explicit profile sequence for a (possibly symmetric) repeat.

    Movers are inferred from diffs when not given; the player to act at
    the final state is extrapolated by continuing the observed rotation
    (for two players this is simply the other player).
    """
    _check_cycle_mode(game, mode)
    movers = _movers(game, profiles, movers)
    states = list(zip(profiles, [*movers, _next_mover(movers, game.n)]))
    for j in range(1, len(states)):
        cyc = _find_cycle(states[: j + 1], mode)
        if cyc is not None:
            return cyc
    return None


def _next_mover(movers: Sequence[Optional[int]], n: int) -> int:
    """Continue the observed mover rotation one step; player 0 if nobody moved."""
    acted = [mv for mv in movers if mv is not None]
    if not acted:
        return 0
    last = acted[-1]
    # look for the most recent successor of `last` in the history
    for t in reversed(range(len(acted) - 1)):
        if acted[t] == last:
            return acted[t + 1]
    return (last + 1) % n
