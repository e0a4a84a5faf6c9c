"""Core ranking-game model: strategies, scoring, rankings, utilities.

A game has n players, m queries, and a single-peaked scoring function f.
A player's strategy is an emphasis vector on the capped simplex (every
component in [0, 1], components summing to at most 1); the score of a
document for query j is f applied to its j-th emphasis.  Per query, the
players sharing the top score split one unit of utility equally — the
expected value of "ties broken arbitrarily" under a uniform draw, and the
only sharing rule consistent with two identical documents earning m/2
each.  Rankings, utilities and best-response thresholds all read their
scores from :func:`query_scores`, the one place a score's mode is set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .numeric import (
    DomainError,
    Number,
    dual_view,
    numbers_equal,
    one_like,
    parse_number,
    simplex_cap,
)


@dataclass(frozen=True)
class SinglePeakFunction:
    """Piecewise-linear single-peaked function on [0, 1].

    ``knots`` are (x, y) pairs with x strictly increasing from 0 to 1;
    y rises strictly to the unique maximum at ``peak`` and falls strictly
    after it.  Degenerate peaks 0 and 1 keep only the surviving branch.
    The default shape used throughout is the normalized tent, built with
    :meth:`tent`.
    """

    knots: tuple[tuple[Number, Number], ...]
    peak: Number

    def __post_init__(self):
        ks = self.knots
        if len(ks) < 2:
            raise DomainError("need at least two knots")
        if ks[0][0] != 0 or ks[-1][0] != 1:
            raise DomainError("knots must span [0, 1]")
        xs = [x for x, _ in ks]
        ys = [y for _, y in ks]
        if any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
            raise DomainError("knot x-coordinates must be strictly increasing")
        if not 0 <= self.peak <= 1:
            raise DomainError("peak must lie in [0, 1]")
        if self.peak not in xs:
            raise DomainError("peak must be one of the knot x-coordinates")
        if any(y < 0 or y > 1 for y in ys):
            raise DomainError("knot values must lie in [0, 1]")
        p_idx = xs.index(self.peak)
        for i in range(p_idx):
            if not ys[i] < ys[i + 1]:
                raise DomainError("function must increase strictly up to the peak")
        for i in range(p_idx, len(ys) - 1):
            if not ys[i] > ys[i + 1]:
                raise DomainError("function must decrease strictly after the peak")

    @classmethod
    def tent(cls, peak: Number) -> "SinglePeakFunction":
        """Normalized tent: x/peak up to the peak, (1-x)/(1-peak) after."""
        peak = parse_number(peak) if isinstance(peak, str) else peak
        if not 0 <= peak <= 1:
            raise DomainError(f"peak {peak} outside [0, 1]")
        one = one_like(peak)
        zero = 0 * one
        if peak == 0:
            return cls(knots=((zero, one), (one, zero)), peak=zero)
        if peak == 1:
            return cls(knots=((zero, zero), (one, one)), peak=one)
        return cls(knots=((zero, zero), (peak, one), (one, zero)), peak=peak)

    @property
    def max_score(self) -> Number:
        return self(self.peak)

    def __call__(self, x: Number) -> Number:
        """f(x); a float x gets a float score, on a knot too."""
        if not 0 <= x <= 1:
            raise DomainError(f"emphasis {x} outside [0, 1]")
        ks = self.knots
        for (x0, y0), (x1, y1) in zip(ks, ks[1:]):
            if x <= x1:
                if x == x0:
                    return float(y0) if isinstance(x, float) else y0
                if x == x1:
                    return float(y1) if isinstance(x, float) else y1
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        return ks[-1][1]

    def inverse_increasing_geq(self, target: Number) -> Number:
        """Least x in [0, peak] with f(x) >= target.

        This is the branch inverse used to price beating a given score:
        with target = f(e) for some opponent emphasis e, the result is the
        cheapest emphasis achieving at least that score.  Requires
        target <= f(peak).  A float target gets a float emphasis.
        """
        if target > self.max_score:
            raise DomainError("target exceeds the maximum score")
        ks = self.knots
        x0, y0 = ks[0]
        if y0 >= target:
            return float(x0) if isinstance(target, float) else x0
        for (xa, ya), (xb, yb) in zip(ks, ks[1:]):
            if xa >= self.peak:
                break
            if yb >= target:
                if isinstance(target, int) and yb == target:
                    return xb  # an int knot value: int / int would give a float
                return xa + (target - ya) * (xb - xa) / (yb - ya)
        return float(self.peak) if isinstance(target, float) else self.peak


@dataclass(frozen=True)
class EmphasisVector:
    """A document abstracted as per-query emphases."""

    emphases: tuple[Number, ...]

    def __init__(self, emphases: Sequence[Number]):
        object.__setattr__(self, "emphases", tuple(emphases))

    @property
    def total(self) -> Number:
        return sum(self.emphases)

    def __len__(self) -> int:
        return len(self.emphases)

    def __getitem__(self, j: int) -> Number:
        return self.emphases[j]


@dataclass(frozen=True)
class RankingGame:
    """Game parameters: player count, query count, scoring function."""

    n: int
    m: int
    f: SinglePeakFunction

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("need at least one player")
        if self.m < 1:
            raise DomainError("need at least one query")

    @classmethod
    def tent(cls, n: int, m: int, peak: Number) -> "RankingGame":
        return cls(n=n, m=m, f=SinglePeakFunction.tent(peak))

    @property
    def peak(self) -> Number:
        return self.f.peak


@dataclass(frozen=True)
class StrategyProfile:
    """All players' strategies, indexed by player id."""

    strategies: tuple[EmphasisVector, ...]

    def __init__(self, strategies: Sequence):
        vecs = tuple(
            s if isinstance(s, EmphasisVector) else EmphasisVector(s) for s in strategies
        )
        object.__setattr__(self, "strategies", vecs)

    def __len__(self) -> int:
        return len(self.strategies)

    def __getitem__(self, i: int) -> EmphasisVector:
        return self.strategies[i]

    def replace(self, player: int, strategy: EmphasisVector) -> "StrategyProfile":
        s = list(self.strategies)
        s[player] = strategy
        return StrategyProfile(s)


@dataclass(frozen=True)
class TieGroup:
    score: Number
    players: tuple[int, ...]


@dataclass(frozen=True)
class InducedRanking:
    """Per-query ordered tie groups, best score first."""

    query_index: int
    tie_groups: tuple[TieGroup, ...]

    def rank_of(self, player: int) -> int:
        """1-based rank, counting every member of better groups."""
        seen = 0
        for group in self.tie_groups:
            if player in group.players:
                return seen + 1
            seen += len(group.players)
        raise DomainError(f"player {player} not in ranking")

    @property
    def top_players(self) -> tuple[int, ...]:
        return self.tie_groups[0].players


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def score(game: RankingGame, strategy: EmphasisVector, query_index: int) -> Number:
    """Retrieval score of a document for one query: f(emphasis)."""
    if not 0 <= query_index < game.m:
        raise DomainError(f"query index {query_index} outside [0, {game.m})")
    return game.f(strategy[query_index])


def query_scores(game: RankingGame, profile: StrategyProfile) -> tuple[tuple[Number, ...], ...]:
    """Every query's scores, indexed by player, in the profile's mode (see numeric).

    Float mode makes every score a float and exact scores stay exact, so
    any one score carries the mode: ``one_like(columns[0][0])`` is its 1.
    """
    f = game.f
    columns = tuple(tuple(f(vec[j]) for vec in profile.strategies) for j in range(game.m))
    if isinstance(unit(game, profile), float):
        columns = tuple(tuple(map(float, column)) for column in columns)
    return columns


def induce_ranking(game: RankingGame, profile: StrategyProfile, query_index: int) -> InducedRanking:
    """Rank players by descending score; equal scores share a tie group.

    The scores are one query's column of :func:`query_scores`.
    """
    if not 0 <= query_index < game.m:
        raise DomainError(f"query index {query_index} outside [0, {game.m})")
    column = query_scores(game, profile)[query_index]
    groups: list[tuple[Number, list[int]]] = []
    for i in sorted(range(len(column)), key=column.__getitem__, reverse=True):
        if groups and numbers_equal(groups[-1][0], column[i]):
            groups[-1][1].append(i)
        else:
            groups.append((column[i], [i]))
    return InducedRanking(query_index, tuple(TieGroup(s, tuple(sorted(p))) for s, p in groups))


def unit(game: RankingGame, *profiles: StrategyProfile) -> Number:
    """The mode's 1 for f's knots and the profiles' emphases (see numeric)."""
    knots = [k for xy in game.f.knots for k in xy]
    return one_like(*knots, *(e for p in profiles for v in p.strategies for e in v.emphases))


def utilities(game: RankingGame, profile: StrategyProfile) -> tuple[Number, ...]:
    """Per-player expected utility: each query's top group splits one unit."""
    return _utilities(query_scores(game, profile))


def _utilities(columns) -> tuple[Number, ...]:
    one = one_like(columns[0][0])
    out = [0 * one] * len(columns[0])
    for column in columns:
        top = max(column)
        winners = [i for i, s in enumerate(column) if numbers_equal(s, top)]
        share = one / len(winners)
        for i in winners:
            out[i] = out[i] + share
    return tuple(out)


def validate_profile(game: RankingGame, profile: StrategyProfile) -> ValidationReport:
    """Report every invariant violation; never raises."""
    violations: list[str] = []
    if len(profile) != game.n:
        violations.append(f"profile has {len(profile)} strategies, game has n={game.n}")
    for i, vec in enumerate(profile.strategies):
        if len(vec) != game.m:
            violations.append(f"player {i}: length {len(vec)} != m={game.m}")
            continue
        for j, e in enumerate(vec.emphases):
            if not 0 <= e <= 1:
                violations.append(f"player {i}: emphasis {e} on query {j} outside [0, 1]")
        total = vec.total
        if total > simplex_cap(*vec.emphases):
            violations.append(f"player {i}: sum {total} > 1")
    return ValidationReport(ok=not violations, violations=tuple(violations))


def require_valid(game: RankingGame, profile: StrategyProfile) -> None:
    report = validate_profile(game, profile)
    if not report.ok:
        raise DomainError("invalid profile: " + "; ".join(report.violations))


# --- profile file format -------------------------------------------------
#
# {"n": int, "m": int, "peak": number, "strategies": [[number, ...], ...]}
#
# Numbers may be JSON numbers or strings ("1/3", "0.45"); both are read
# exactly.  save_profile emits a float view plus an exact string view so
# downstream verification stays rational.  A sequence file (dynamics
# replay) carries the same game fields plus "profiles", a list of
# strategy matrices.


def read_json(path):
    """Parse a JSON file; malformed content is a DomainError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise DomainError(f"{path}: invalid JSON ({exc})") from exc


def profile_to_dict(game: RankingGame, profile: StrategyProfile) -> dict:
    return {
        "n": game.n,
        "m": game.m,
        **dual_view("peak", game.peak),
        **dual_view("strategies", [v.emphases for v in profile.strategies]),
    }


def _field(data, key: str, kind: str):
    if not isinstance(data, dict):
        raise DomainError(f"{kind} file must hold a JSON object")
    try:
        return data[key]
    except KeyError:
        raise DomainError(f"{kind} file missing field {key!r}") from None


def _game_from_dict(data, kind: str) -> RankingGame:
    n, m = _field(data, "n", kind), _field(data, "m", kind)
    try:  # exactly, so that 2.9 is refused rather than truncated
        n, m = parse_number(n), parse_number(m)
        if n.denominator != 1 or m.denominator != 1:
            raise DomainError(f"got n={n}, m={m}")
    except DomainError as exc:
        raise DomainError(f"{kind} file: n and m must be integers ({exc})") from None
    peak = data["peak_exact"] if "peak_exact" in data else _field(data, "peak", kind)
    return RankingGame.tent(int(n), int(m), parse_number(peak))


def _profile_from_rows(rows, kind: str) -> StrategyProfile:
    if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
        raise DomainError(f"{kind} file: a strategy profile must be a list of number lists")
    return StrategyProfile([[parse_number(e) for e in row] for row in rows])


def profile_from_dict(data: dict) -> tuple[RankingGame, StrategyProfile]:
    game = _game_from_dict(data, "profile")
    if "strategies_exact" in data:
        rows = data["strategies_exact"]
    else:
        rows = _field(data, "strategies", "profile")
    return game, _profile_from_rows(rows, "profile")


def sequence_from_dict(data: dict) -> tuple[RankingGame, list[StrategyProfile]]:
    game = _game_from_dict(data, "sequence")
    profiles = _field(data, "profiles", "sequence")
    if not isinstance(profiles, list):
        raise DomainError("sequence file: profiles must be a list of strategy profiles")
    return game, [_profile_from_rows(rows, "sequence") for rows in profiles]


def _load(path, parse):
    data = read_json(path)
    try:
        return parse(data)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc


def load_profile(path) -> tuple[RankingGame, StrategyProfile]:
    return _load(path, profile_from_dict)


def load_sequence(path) -> tuple[RankingGame, list[StrategyProfile]]:
    return _load(path, sequence_from_dict)


def save_profile(path, game: RankingGame, profile: StrategyProfile) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(profile_to_dict(game, profile), sort_keys=True, separators=(",", ":")))
        fh.write("\n")
