"""Brute-force equilibrium search on a rational grid.

Strategies are restricted to emphases that are multiples of 1/g (still on
the capped simplex); profiles are enumerated lexicographically, by default
up to player-permutation symmetry.

``exact`` mode streams the profile indices in int64 chunks through the
float screen :func:`rankcomp.kernels.grid_screen`, inline or on a process
pool holding at most two chunks per worker, and confirms each survivor,
in enumeration order, with exact rational best responses against
*continuous* deviations.  A reported profile is therefore a genuine
equilibrium of the full game, while an empty result only corroborates
non-existence (equilibria may lie off-grid).  The screen scores with the
tent, so ``exact`` mode refuses any other f.

``grid`` mode checks deviations restricted to grid strategies, accepts
any f, and is diagnostic only: it can accept spurious profiles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, islice, product
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


def _strategy_vector(nums: tuple[int, ...], g: int) -> EmphasisVector:
    return EmphasisVector([Fraction(c, g) for c in nums])


def _index_profiles(spec: GridSpec, count: int):
    if spec.symmetry:
        return combinations_with_replacement(range(count), spec.n)
    return product(range(count), repeat=spec.n)


def grid_profiles(spec: GridSpec):
    """Enumerate grid StrategyProfiles (respecting the symmetry flag)."""
    total = profile_count(spec)
    if total > spec.budget:
        raise CapacityError(
            f"{total} grid profiles exceed the budget of {spec.budget}"
        )
    strategies = [_strategy_vector(s, spec.g) for s in grid_strategies(spec)]
    for idx in _index_profiles(spec, len(strategies)):
        yield StrategyProfile([strategies[i] for i in idx])


def _screen_survivors(spec: GridSpec, jobs: int = 1):
    """Float-screen every grid profile, yield surviving index tuples in order.

    Profiles are cut into int64 chunks of at most ``_CHUNK_ROWS`` rows.
    With ``jobs > 1`` the chunks go to a process pool that holds at most
    ``2 * jobs`` of them at a time, so memory stays bounded.
    """
    strat = np.array(grid_strategies(spec), dtype=np.float64) / spec.g
    peak = float(spec.peak)
    chunks = _index_chunks(spec, strat.shape[0])
    if jobs <= 1:
        for prof in chunks:
            yield from _survivors(strat, prof, peak)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        pending = deque()
        for prof in chunks:
            if len(pending) >= 2 * jobs:
                yield from pending.popleft().result()
            pending.append(pool.submit(_survivors, strat, prof, peak))
        while pending:
            yield from pending.popleft().result()


def _index_chunks(spec: GridSpec, count: int):
    index = _index_profiles(spec, count)
    row = np.dtype((np.int64, spec.n))
    while True:
        prof = np.fromiter(islice(index, _CHUNK_ROWS), dtype=row)
        if not prof.shape[0]:
            return
        yield prof


def _survivors(strat, prof, peak) -> list[tuple[int, ...]]:
    keep = kernels.grid_screen(strat, prof, peak).astype(bool)
    return [tuple(idx) for idx in prof[keep].tolist()]


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
    total = profile_count(spec)
    if total > spec.budget:
        raise CapacityError(f"{total} grid profiles exceed the budget of {spec.budget}")
    s_count = strategy_count(spec)

    if deviation_mode == "exact":
        if game.f != SinglePeakFunction.tent(game.peak):
            raise DomainError("exact mode screens with tent scoring; use grid mode for other f")
        numerators = grid_strategies(spec)
        strategies = [_strategy_vector(s, spec.g) for s in numerators]
        found = []
        for idx in _screen_survivors(spec, jobs):
            profile = StrategyProfile([strategies[i] for i in idx])
            if verify_nash(game, profile).is_nash:
                found.append(profile)
        notes = (
            "grid profiles passing the exact check are genuine equilibria of the continuous game",
            "an empty result corroborates but does not prove non-existence",
        )
        return GridSearchResult(
            equilibria=tuple(found),
            profiles_checked=total,
            strategy_count=s_count,
            mode="exact",
            symmetry=spec.symmetry,
            notes=notes,
        )

    if deviation_mode == "grid":
        strategies = [_strategy_vector(s, spec.g) for s in grid_strategies(spec)]
        alt_cost = total * spec.n * len(strategies)
        if alt_cost > spec.budget:
            raise CapacityError(
                f"grid-deviation check needs {alt_cost} utility evaluations, over budget"
            )
        found = []
        for idx in _index_profiles(spec, len(strategies)):
            profile = StrategyProfile([strategies[i] for i in idx])
            if _grid_stable(game, profile, strategies):
                found.append(profile)
        notes = (
            "grid mode checks grid deviations only and may accept spurious profiles",
        )
        return GridSearchResult(
            equilibria=tuple(found),
            profiles_checked=total,
            strategy_count=s_count,
            mode="grid",
            symmetry=spec.symmetry,
            notes=notes,
        )

    raise DomainError(f"unknown deviation mode {deviation_mode!r}")


def _grid_stable(game, profile, strategies) -> bool:
    current = utilities(game, profile)
    for i in range(game.n):
        for alt in strategies:
            if alt.emphases == profile[i].emphases:
                continue
            if improves(utilities(game, profile.replace(i, alt))[i], current[i]):
                return False
    return True
