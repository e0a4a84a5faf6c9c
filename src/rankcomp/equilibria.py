"""Pure-Nash existence, construction, and exact verification.

Existence is a closed form: an equilibrium exists iff the peak is at most
1 / max{ceil(2m/n - 1), 1}.  Construction dispatches by regime:

* peak <= 1/m            every player plays (p, ..., p)
* n = 2, above 1/m       both players play (p, ..., p, 1 - p(m-1))
* n >= 3, above 1/m      balanced assignment: each player pins
                         k = floor(1/p) distinct queries at the peak, with
                         per-query pin counts as equal as possible, then
                         places its leftover budget defensively

The assignment also covers n >= m (k = 1 reproduces the classic split of
players across queries, plus the defensive remainder); a bare
one-query-per-player split is not an equilibrium once budget remains,
because the sole owner of a query could abandon it, re-buy it for free,
and spend the rest on ties elsewhere.  Verification is exact: a profile
is Nash iff no player's attained best-response value exceeds their
current utility.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .best_response import DEFAULT_EPSILON, _respond, _witness
from .game import EmphasisVector, RankingGame, StrategyProfile, _utilities, query_scores, require_valid
from .game import unit
from .numeric import DomainError, Number, ceil_div, improves, parse_number


@dataclass(frozen=True)
class ExistenceVerdict:
    exists: bool
    threshold: Fraction
    regime: str  # small_p | two_player_band | alg1_band | n_ge_m | none


@dataclass(frozen=True)
class PlayerDeviation:
    player: int
    current: Number
    attained: Number
    improving_witness: Optional[EmphasisVector]


@dataclass(frozen=True)
class NashReport:
    is_nash: bool
    per_player: tuple[PlayerDeviation, ...]


class NoEquilibriumError(DomainError):
    """Raised when construction is requested outside the existence region."""


def existence_threshold(n: int, m: int) -> Fraction:
    """1 / max{ceil(2m/n - 1), 1}, computed exactly."""
    if n < 1 or m < 1:
        raise DomainError("need n >= 1 and m >= 1")
    denom = max(ceil_div(2 * m - n, n), 1)
    return Fraction(1, denom)


def exists_equilibrium(n: int, m: int, peak: Number) -> ExistenceVerdict:
    """Existence verdict for the game <n, m, peak>.

    Note the closed form presumes actual competition; with a single
    player every profile is trivially an equilibrium, yet the formula is
    applied verbatim as stated.
    """
    peak = parse_number(peak) if isinstance(peak, str) else peak
    if not 0 <= peak <= 1:
        raise DomainError(f"peak {peak} outside [0, 1]")
    threshold = existence_threshold(n, m)
    exists = peak <= threshold
    if not exists:
        regime = "none"
    elif peak <= Fraction(1, m):
        regime = "small_p"
    elif n == 2:
        regime = "two_player_band"
    elif n < m:
        regime = "alg1_band"
    else:
        regime = "n_ge_m"
    return ExistenceVerdict(exists=exists, threshold=threshold, regime=regime)


def _peak_assignment_profile(game: RankingGame) -> StrategyProfile:
    """Balanced peak assignment plus one defensive remainder pass.

    Peak slots (k = floor(1/p) per player) are dealt with per-query counts
    within one of each other; dealing positions round-robin keeps every
    player's pinned queries distinct.  The remainder pass is load-bearing:
    a query pinned by a single player would otherwise cost its owner
    nothing to re-buy after abandoning it, making "re-buy cheap, tie
    elsewhere" a profitable deviation.  Placing each player's leftover
    1 - kp on a least-defended unowned query — singleton queries covered
    first, each by another singleton's owner — prices those re-buys just
    high enough that the deviation no longer fits in the budget.
    """
    p = game.peak
    n, m = game.n, game.m
    if p <= 0:
        raise DomainError("assignment construction needs peak > 0")
    # floor(1/p); the small bias guards against 1/float(p) landing just
    # under an integer
    k = int(Fraction(1) / Fraction(p)) if not isinstance(p, float) else int(1.0 / p + 1e-9)
    k = min(k, m)
    one = unit(game)
    zero = 0 * one

    # deal nk peak slots with per-query counts as equal as possible;
    # player i takes slot positions congruent to i mod n, which keeps each
    # player's k queries distinct because no count exceeds n
    total = n * k
    base, extra = divmod(total, m)
    counts = [base + (1 if j < extra else 0) for j in range(m)]
    slots = [j for j in range(m) for _ in range(counts[j])]
    owned: list[set[int]] = [set() for _ in range(n)]
    for pos, j in enumerate(slots):
        owned[pos % n].add(j)

    leftover = one - k * p
    remainders = [0] * m
    dump: list[Optional[int]] = [None] * n
    if leftover > 0:
        # singleton queries must each receive one external remainder: the
        # owner of each singleton covers the next singleton cyclically
        # (never its own); within the existence region there are at most n
        # singletons, so coverage always resolves; a lone player has no one
        # to cover its queries and takes its first unpinned one
        singles = [j for j in range(m) if counts[j] == 1] if n > 1 else []
        owner_of = {j: next(i for i in range(n) if j in owned[i]) for j in singles}
        assigned: set[int] = set()
        for t, j in enumerate(singles):
            if len(singles) == 1:
                helper = next(i for i in range(n) if j not in owned[i])
            else:
                helper = owner_of[singles[(t + 1) % len(singles)]]
            dump[helper] = j
            remainders[j] += 1
            assigned.add(helper)
        for i in range(n):
            if i in assigned:
                continue
            fresh = [j for j in range(m) if j not in owned[i]]
            if not fresh:
                continue
            j_star = min(fresh, key=lambda j: (counts[j], remainders[j], (j - i) % m))
            dump[i] = j_star
            remainders[j_star] += 1
    rows = []
    for i in range(n):
        row = [p if j in owned[i] else zero for j in range(m)]
        if dump[i] is not None:
            row[dump[i]] = leftover
        rows.append(EmphasisVector(row))
    return StrategyProfile(rows)


def _budget_fill_profile(game: RankingGame) -> StrategyProfile:
    """Both players pin queries at p while the budget lasts, remainder next.

    Inside the two-player band this is exactly (p, ..., p, 1 - p(m-1));
    outside it (used as the falsification candidate) it stays a valid
    profile where the literal formula would go negative.
    """
    p = game.peak
    one = unit(game)
    zero = 0 * one
    emphases = []
    budget = one
    for _ in range(game.m):
        if p > 0 and budget >= p:
            emphases.append(p)
            budget = budget - p
        else:
            emphases.append(budget if budget > 0 else zero)
            budget = zero
    return StrategyProfile([EmphasisVector(emphases)] * game.n)


def candidate_profile(game: RankingGame) -> StrategyProfile:
    """The regime-appropriate profile, built without the existence guard.

    Used to show computationally that the constructions stop working just
    past the threshold: callers verify the candidate and expect failure
    in the no-equilibrium region.
    """
    p = game.peak
    if p <= Fraction(1, game.m):
        return StrategyProfile([EmphasisVector([p] * game.m)] * game.n)
    if game.n == 2:
        return _budget_fill_profile(game)
    return _peak_assignment_profile(game)


def construct_equilibrium(game: RankingGame) -> StrategyProfile:
    """A pure Nash equilibrium for any game in the existence region."""
    verdict = exists_equilibrium(game.n, game.m, game.peak)
    if not verdict.exists:
        raise NoEquilibriumError(
            f"no pure Nash equilibrium for n={game.n}, m={game.m}, "
            f"peak={game.peak} (threshold {verdict.threshold})"
        )
    return candidate_profile(game)


def verify_nash(game: RankingGame, profile: StrategyProfile) -> NashReport:
    """Exact Nash check via attained best-response values.

    In rational mode the comparison is exact; with floats a 1e-9
    tolerance applies.  The profile is validated and scored once, and
    each player's best response is solved once.  For any player with a
    strictly improving deviation, a witness strategy achieving it is
    included.
    """
    require_valid(game, profile)
    columns = query_scores(game, profile)
    current = _utilities(columns)
    per_player = []
    for i in range(game.n):
        ths, br = _respond(game, columns, i)
        witness = None
        if improves(br.attained_value, current[i]):
            witness = _witness(game, profile, i, ths, br, DEFAULT_EPSILON).strategy
        per_player.append(
            PlayerDeviation(
                player=i,
                current=current[i],
                attained=br.attained_value,
                improving_witness=witness,
            )
        )
    is_nash = all(row.improving_witness is None for row in per_player)
    return NashReport(is_nash=is_nash, per_player=tuple(per_player))
