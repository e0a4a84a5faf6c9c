"""Brute-force equilibrium search on a rational grid.

Strategies are restricted to emphases that are multiples of 1/g (still on
the capped simplex); profiles are enumerated lexicographically, by default
up to player-permutation symmetry.  :func:`grid_profiles` and both search
modes share one enumeration, which checks the budget and builds the exact
strategies once.

``exact`` mode first builds one best-deviation table, a player's best
invest-set value against each multiset of n - 1 opponent strategies
(:func:`rankcomp.kernels.best_deviation`, chunk by chunk over the
multisets).  It then streams the profile indices in int64 chunks through
the float screen :func:`rankcomp.kernels.grid_screen`, which gathers
each player's table row, inline or on a process pool holding at most two
chunks per worker, and confirms each survivor, in enumeration order,
with exact rational best responses against *continuous* deviations.  A
reported profile is therefore a genuine equilibrium of the full game,
while an empty result only corroborates non-existence (equilibria may
lie off-grid).  The screen scores through f's knots, so ``exact`` mode
takes any single-peaked f.

The enumeration is numpy throughout: a chunk is a range of row numbers,
unranked to index tuples (:func:`rankcomp.kernels.multiset_unrank` for
the symmetric order, base-S digits for the product order), so no array
ever holds one row per profile.

``grid`` mode checks deviations restricted to grid strategies (n·S
utility evaluations per profile, all counted against the budget) and is
diagnostic only: it can accept spurious profiles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import numpy as np

from . import kernels
from .equilibria import verify_nash
from .game import EmphasisVector, RankingGame, SinglePeakFunction, StrategyProfile, utilities
from .numeric import CapacityError, DomainError, Number, improves, parse_number

DEFAULT_BUDGET = 100_000_000
_CHUNK_ROWS = 65536  # profiles per float-screen chunk


@dataclass(frozen=True)
class GridSpec:
    g: int
    n: int
    m: int
    peak: Number
    budget: int = DEFAULT_BUDGET
    symmetry: bool = True

    def __post_init__(self):
        if self.g < 1:
            raise DomainError("grid resolution must be >= 1")
        if self.n < 1 or self.m < 1:
            raise DomainError("need n >= 1 and m >= 1")
        peak = self.peak
        if isinstance(peak, str):
            peak = parse_number(peak)
            object.__setattr__(self, "peak", peak)
        if not 0 <= peak <= 1:
            raise DomainError(f"peak {peak} outside [0, 1]")


@dataclass(frozen=True)
class GridSearchResult:
    equilibria: tuple[StrategyProfile, ...]
    profiles_checked: int
    strategy_count: int
    mode: str
    symmetry: bool
    notes: tuple[str, ...] = field(default_factory=tuple)


def strategy_count(spec: GridSpec) -> int:
    """Grid points per player: compositions of <= g into m parts."""
    return comb(spec.g + spec.m, spec.m)


def profile_count(spec: GridSpec) -> int:
    s = strategy_count(spec)
    if spec.symmetry:
        return comb(s + spec.n - 1, spec.n)
    return s**spec.n


def grid_strategies(spec: GridSpec) -> list[tuple[int, ...]]:
    """All numerator vectors (c_1..c_m), sum <= g, lexicographic."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, slots: int):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for c in range(remaining + 1):
            prefix.append(c)
            rec(prefix, remaining - c, slots - 1)
            prefix.pop()

    rec([], spec.g, spec.m)
    return out


def _strategies(spec: GridSpec, work: int = 1) -> list[EmphasisVector]:
    """The grid's exact strategies, once ``work`` checks per profile fit the budget."""
    count = profile_count(spec)
    if count * work > spec.budget:
        each = f" at {work} utility evaluations each" if work > 1 else ""
        raise CapacityError(f"{count} grid profiles{each} exceed the budget of {spec.budget}")
    return [EmphasisVector([Fraction(c, spec.g) for c in s]) for s in grid_strategies(spec)]


def _profiles(strategies: list[EmphasisVector], index):
    for idx in index:
        yield StrategyProfile([strategies[i] for i in idx])


def _index_chunks(count: int, k: int, symmetric: bool):
    """Every k-tuple of indices into ``count`` strategies, in int64 chunks.

    Symmetric mode yields the non-decreasing tuples in lexicographic
    (``combinations_with_replacement``) order, otherwise all tuples in
    ``product`` order.  Each chunk holds at most ``_CHUNK_ROWS`` rows and
    unranks its own row numbers, so no array grows with the total.
    """
    total = comb(count + k - 1, k) if symmetric else count**k
    for start in range(0, total, _CHUNK_ROWS):
        rank = np.arange(start, min(start + _CHUNK_ROWS, total), dtype=np.int64)
        if symmetric:
            yield kernels.multiset_unrank(rank, count, k)
        else:
            yield np.stack(np.unravel_index(rank, (count,) * k), axis=1)


def _index_rows(spec: GridSpec, count: int):
    for chunk in _index_chunks(count, spec.n, spec.symmetry):
        yield from chunk.tolist()


def grid_profiles(spec: GridSpec):
    """Enumerate grid StrategyProfiles (respecting the symmetry flag)."""
    strategies = _strategies(spec)
    yield from _profiles(strategies, _index_rows(spec, len(strategies)))


def _deviation_table(strat: np.ndarray, n: int, f: SinglePeakFunction) -> np.ndarray:
    """Best deviation against every (n - 1)-multiset of strategies, in rank order.

    Built chunk by chunk over the multisets, so the only array of full
    length is the table itself, C(S + n - 2, n - 1) floats.
    """
    if n == 1:
        return np.zeros(0)
    S = strat.shape[0]
    best = np.empty(comb(S + n - 2, n - 1))
    start = 0
    for opp in _index_chunks(S, n - 1, symmetric=True):
        best[start : start + opp.shape[0]] = kernels.best_deviation(strat, opp, f)
        start += opp.shape[0]
    return best


def _screen_survivors(spec: GridSpec, strategies, f: SinglePeakFunction, jobs: int = 1):
    """Float-screen every grid profile under f, yield surviving index tuples in order.

    Profiles are cut into int64 chunks of at most ``_CHUNK_ROWS`` rows and
    screened against one best-deviation table.  With ``jobs > 1`` the
    chunks go to a process pool that holds at most ``2 * jobs`` of them at
    a time, so memory stays bounded.
    """
    strat = np.array([v.emphases for v in strategies], dtype=np.float64)
    best = _deviation_table(strat, spec.n, f)
    chunks = _index_chunks(strat.shape[0], spec.n, spec.symmetry)
    if jobs <= 1:
        for prof in chunks:
            yield from _survivors(strat, prof, f, best)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        pending = deque()
        for prof in chunks:
            if len(pending) >= 2 * jobs:
                yield from pending.popleft().result()
            pending.append(pool.submit(_survivors, strat, prof, f, best))
        while pending:
            yield from pending.popleft().result()


def _survivors(strat, prof, f, best) -> list[tuple[int, ...]]:
    keep = kernels.grid_screen(strat, prof, f, best).astype(bool)
    return [tuple(idx) for idx in prof[keep].tolist()]


_NOTES = {
    "exact": (
        "grid profiles passing the exact check are genuine equilibria of the continuous game",
        "an empty result corroborates but does not prove non-existence",
    ),
    "grid": ("grid mode checks grid deviations only and may accept spurious profiles",),
}


def grid_nash_search(
    game: RankingGame,
    spec: GridSpec,
    deviation_mode: str = "exact",
    jobs: int = 1,
) -> GridSearchResult:
    """Search the grid for equilibria under the chosen deviation model."""
    if (game.n, game.m) != (spec.n, spec.m):
        raise DomainError("game and grid spec disagree on n or m")
    if game.peak != spec.peak:
        raise DomainError("game and grid spec disagree on the peak")
    if deviation_mode not in _NOTES:
        raise DomainError(f"unknown deviation mode {deviation_mode!r}")
    if deviation_mode == "exact":
        strategies = _strategies(spec)
        screened = _profiles(strategies, _screen_survivors(spec, strategies, game.f, jobs))
        found = [p for p in screened if verify_nash(game, p).is_nash]
    else:
        # every player tries every grid strategy against each profile
        strategies = _strategies(spec, work=spec.n * strategy_count(spec))
        every = _profiles(strategies, _index_rows(spec, len(strategies)))
        found = [p for p in every if _grid_stable(game, p, strategies)]
    return GridSearchResult(
        equilibria=tuple(found),
        profiles_checked=profile_count(spec),
        strategy_count=len(strategies),
        mode=deviation_mode,
        symmetry=spec.symmetry,
        notes=_NOTES[deviation_mode],
    )


def _grid_stable(game, profile, strategies) -> bool:
    current = utilities(game, profile)
    for i in range(game.n):
        for alt in strategies:
            if alt.emphases == profile[i].emphases:
                continue
            if improves(utilities(game, profile.replace(i, alt))[i], current[i]):
                return False
    return True
