"""Brute-force equilibrium search on a rational grid.

Strategies are restricted to emphases that are multiples of 1/g (still on
the capped simplex); profiles are enumerated lexicographically, by default
up to player-permutation symmetry.  :func:`grid_profiles` and both search
modes share one enumeration, which checks the budget.

Both modes run one pipeline.  They build one table of a player's best
deviation against each multiset of n - 1 opponent strategies, chunk by
chunk over the multisets, stream the profile indices in int64 chunks
through the float screen :func:`rankcomp.kernels.grid_screen` (inline or
on a process pool holding at most two chunks per worker), and confirm
each survivor exactly, in enumeration order.  A ``_MODES`` entry picks
the table builder, its chunk size and the confirmation.  ``exact``
tables continuous invest-set deviations (:func:`kernels.best_deviation`)
and confirms with exact rational best responses, so a reported profile
is a genuine equilibrium of the full game, while an empty result only
corroborates non-existence (equilibria may lie off-grid).  ``grid``
tables the best grid strategy (:func:`kernels.best_grid_deviation`) and
confirms every player against every grid deviation; it is diagnostic
only and can accept spurious profiles.  Both tables score through f's
knots, so both modes take any single-peaked f.  The budget counts
profiles; exact strategies are built only for the profiles confirmed.
Since the budget does not see the 2^m invest sets, ``exact`` mode with
n >= 2 refuses m > ``EXACT_MAX_M`` with a ``CapacityError``.

The enumeration is numpy throughout: a chunk is a range of row numbers,
unranked to index tuples (:func:`rankcomp.kernels.multiset_unrank` for
the symmetric order, base-S digits for the product order), so no array
ever holds one row per profile.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import comb
from typing import Callable, NamedTuple

import numpy as np

from . import kernels
from .equilibria import verify_nash
from .game import EmphasisVector, RankingGame, SinglePeakFunction, StrategyProfile, _scored, _utilities
from .numeric import CapacityError, DomainError, Number, improves, parse_number

DEFAULT_BUDGET = 100_000_000
EXACT_MAX_M = 16  # exact tables walk 2^m invest sets per opponent multiset
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
    out: list[tuple[int, ...]] = [()]
    for _ in range(spec.m):
        # extending each prefix in order, by ascending c, keeps the order
        out = [v + (c,) for v in out for c in range(spec.g + 1 - sum(v))]
    return out


def _strategies(spec: GridSpec) -> list[tuple[int, ...]]:
    """The grid's strategy numerators, once the profiles fit the budget."""
    count = profile_count(spec)
    if count > spec.budget:
        raise CapacityError(f"{count} grid profiles exceed the budget of {spec.budget}")
    return grid_strategies(spec)


def _exact_strategies(spec: GridSpec, nums):
    """Index -> exact EmphasisVector of ``nums[index]``, each built on first use."""
    return cache(lambda i: EmphasisVector([Fraction(c, spec.g) for c in nums[i]]))


def _profiles(vector, index):
    for idx in index:
        yield StrategyProfile([vector(i) for i in idx])


def _index_chunks(count: int, k: int, symmetric: bool, rows: int | None = None):
    """Every k-tuple of indices into ``count`` strategies, in int64 chunks.

    Symmetric mode yields the non-decreasing tuples in lexicographic
    (``combinations_with_replacement``) order, otherwise all tuples in
    ``product`` order.  Each chunk holds at most ``rows`` (by default
    ``_CHUNK_ROWS``) rows and unranks its own row numbers, so no array
    grows with the total.
    """
    rows = rows or _CHUNK_ROWS
    total = comb(count + k - 1, k) if symmetric else count**k
    for start in range(0, total, rows):
        rank = np.arange(start, min(start + rows, total), dtype=np.int64)
        if symmetric:
            yield kernels.multiset_unrank(rank, count, k)
        else:
            yield np.stack(np.unravel_index(rank, (count,) * k), axis=1)


def grid_profiles(spec: GridSpec):
    """Enumerate grid StrategyProfiles (respecting the symmetry flag)."""
    nums = _strategies(spec)
    index = _index_chunks(len(nums), spec.n, spec.symmetry)
    yield from _profiles(_exact_strategies(spec, nums), (r for c in index for r in c.tolist()))


def _deviation_table(strat: np.ndarray, n: int, f, mode: _Mode) -> np.ndarray:
    """``mode``'s best deviation against every (n - 1)-multiset of strategies, in rank order.

    Built in chunks of ``mode.rows(S)`` multisets, so the only array of
    full length is the table itself, C(S + n - 2, n - 1) floats.
    """
    if n == 1:
        return np.zeros(0)
    S = strat.shape[0]
    best = np.empty(comb(S + n - 2, n - 1))
    start = 0
    for opp in _index_chunks(S, n - 1, True, mode.rows(S)):
        best[start : start + opp.shape[0]] = mode.build(strat, opp, f)
        start += opp.shape[0]
    return best


def _screen_survivors(spec: GridSpec, nums, f: SinglePeakFunction, mode: _Mode, jobs: int = 1):
    """Float-screen every grid profile under f, yield surviving index tuples in order.

    Profiles are cut into int64 chunks of at most ``_CHUNK_ROWS`` rows and
    screened against ``mode``'s table.  With ``jobs > 1`` the chunks go
    to a process pool that holds at most ``2 * jobs`` of them at a time,
    so memory stays bounded.
    """
    strat = np.array(nums) / spec.g
    best = _deviation_table(strat, spec.n, f, mode)
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


def _nash(game, profile, alternatives) -> bool:
    return verify_nash(game, profile).is_nash


def _grid_stable(game, profile, alternatives) -> bool:
    """No player gains by switching to a grid strategy.

    The profile and the alternatives are scored once, together; a
    deviation swaps the deviator's score on each query.
    """
    alternatives = tuple(alternatives)  # iterated once per player
    stacked = StrategyProfile(profile.strategies + alternatives)
    one, columns = _scored(game, stacked)
    current = _utilities(game, [column[:game.n] for column in columns], one)
    for i in range(game.n):
        for k, alt in enumerate(alternatives, game.n):
            if alt.emphases == profile[i].emphases:
                continue
            swapped = [column[:i] + (column[k],) + column[i + 1:game.n] for column in columns]
            if improves(_utilities(game, swapped, one)[i], current[i]):
                return False
    return True


class _Mode(NamedTuple):
    build: Callable  # (strat, opp, f) -> best deviation per opponent multiset
    rows: Callable  # S -> multisets per table chunk; grid's temporaries are S floats wide
    confirm: Callable  # (game, profile, grid strategies) -> is it confirmed
    notes: tuple[str, ...]


_MODES = {
    "exact": _Mode(kernels.best_deviation, lambda S: _CHUNK_ROWS, _nash, (
        "grid profiles passing the exact check are genuine equilibria of the continuous game",
        "an empty result corroborates but does not prove non-existence",
    )),
    "grid": _Mode(kernels.best_grid_deviation, lambda S: max(1, _CHUNK_ROWS // S), _grid_stable, (
        "grid mode checks grid deviations only and may accept spurious profiles",
    )),
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
    if deviation_mode not in _MODES:
        raise DomainError(f"unknown deviation mode {deviation_mode!r}")
    if deviation_mode == "exact" and spec.n >= 2 and spec.m > EXACT_MAX_M:
        raise CapacityError(
            "exact mode walks 2^m invest sets per opponent multiset; "
            f"m = {spec.m} exceeds {EXACT_MAX_M}, use --mode grid"
        )
    mode = _MODES[deviation_mode]
    nums = _strategies(spec)
    vector = _exact_strategies(spec, nums)
    survivors = _profiles(vector, _screen_survivors(spec, nums, game.f, mode, jobs))
    return GridSearchResult(
        # the alternatives are every grid strategy, built exactly on first use
        equilibria=tuple(
            p for p in survivors if mode.confirm(game, p, map(vector, range(len(nums))))
        ),
        profiles_checked=profile_count(spec),
        strategy_count=len(nums),
        mode=deviation_mode,
        symmetry=spec.symmetry,
        notes=mode.notes,
    )
