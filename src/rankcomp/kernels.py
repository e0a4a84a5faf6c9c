"""Hot numeric kernels.

One inner loop dominates runtime: screening millions of grid profiles
for equilibrium candidates.  It is vectorized numpy throughout.

The screen asks, for every player of every grid profile, whether some
deviation beats the player's current utility.  A player's best deviation
depends only on the multiset of its opponents' strategies, as in
anonymous games, so the caller stores it as one table over the
C(S + n - 2, n - 1) opponent multisets of S grid strategies, in
lexicographic order, built by ``best_deviation`` (its own walk over the
2^m invest sets, under the budget rule of :mod:`rankcomp.best_response`)
or ``best_grid_deviation`` (the best grid strategy).  One share rule,
``_shares``, shares out a query among all players, in tables and screen.
``grid_screen`` then takes a chunk of non-decreasing profile rows, ranks
each player's opponents, a sorted multiset, to a table row with exact
int64 combinatorics (``multiset_rank``, the inverse of the enumeration's
``multiset_unrank``), gathers the best deviation and compares it with
the player's current utility.  It is float arithmetic over quantities
whose exact values are rationals with small denominators, so a 1e-9
acceptance margin cannot misclassify; accepted profiles are re-verified
exactly by the caller.

``python3 perfbench/run.py --workload grid`` times it end to end.
"""

from __future__ import annotations

import math

import numpy as np

_EQ_TOL = 1e-12  # score-equality threshold (exact values are well separated)
_MARGIN = 1e-9  # attained-vs-current acceptance margin for the screen


# ---------------------------------------------------------------------------
# grid screen: one best-deviation table per opponent multiset, then a gather
# ---------------------------------------------------------------------------


def _multiset_counts(S: int, k: int) -> np.ndarray:
    """(k, S + 1) int64 table whose row L holds C(u + L, L + 1) at column u.

    That is the number of non-decreasing (L + 1)-tuples over u values.
    Rows are cumulative sums of the row above, exact in int64 for any
    count within the grid budget.
    """
    counts = np.zeros((k, S + 1), dtype=np.int64)
    counts[0] = np.arange(S + 1)
    for L in range(1, k):
        np.cumsum(counts[L - 1, 1:], out=counts[L, 1:])
    return counts


def multiset_unrank(rank: np.ndarray, S: int, k: int) -> np.ndarray:
    """The k-multisets of range(S) at the given lexicographic ranks.

    Returns (len(rank), k) int64 rows, each non-decreasing: row r of
    ``combinations_with_replacement(range(S), k)`` for rank r.  Entry j is
    the largest value whose block, among the multisets sharing the
    entries before it, starts at or before the remaining rank.
    """
    counts = _multiset_counts(S, k)
    rank = np.array(rank, dtype=np.int64)
    rows = np.empty((rank.shape[0], k), dtype=np.int64)
    lo = np.full(rank.shape[0], S, dtype=np.int64)  # S - previous entry
    for j in range(k - 1):
        row = counts[k - 1 - j]
        hi = np.searchsorted(row, row[lo] - rank)
        rank -= row[lo] - row[hi]
        rows[:, j] = S - hi
        lo = hi
    rows[:, k - 1] = S - lo + rank  # the last entry counts up one by one
    return rows


def multiset_rank(cols, S: int) -> np.ndarray:
    """Lexicographic rank of each multiset among the k-multisets of range(S).

    cols: k int64 index arrays, non-decreasing from one to the next, so
    that entry r of each spells multiset r; the inverse of
    :func:`multiset_unrank`.  The multisets before (a_1..a_k) that share
    its first j - 1 entries and differ at a_j number R_j(a_{j-1}) -
    R_j(a_j), with R_j(a) = C(S - a + k - j, k - j + 1) and a_0 = 0.
    Regrouped by entry, the rank is R_1(0) plus one table lookup per
    entry: R_{j+1}(a_j) - R_j(a_j), with R_{k+1} = 0.
    """
    k = len(cols)
    tail = np.zeros((k + 1, S + 1), dtype=np.int64)
    tail[:k] = _multiset_counts(S, k)[::-1, ::-1]  # tail[j - 1][a] = R_j(a)
    rank = tail[0, 0]
    for j, col in enumerate(cols):
        rank = rank + (tail[j + 1] - tail[j])[col]
    return rank


def _query_scores(strat: np.ndarray, f) -> np.ndarray:
    """(m, S) float scores of every grid strategy, one row per query."""
    xs, ys = np.array(f.knots, dtype=np.float64).T
    return np.ascontiguousarray(np.interp(strat, xs, ys).T)


def _shares(scores: list) -> list:
    """Every player's share of one query: the players on top split one unit.

    scores: the n players' scores, arrays that broadcast together.  A
    player within ``_EQ_TOL`` of the top, tied with k others, earns
    1/(k + 1); a player below earns 0.
    """
    top = scores[0]
    for s in scores[1:]:
        top = np.maximum(top, s)
    on_top = [s > top - _EQ_TOL for s in scores]
    ties = sum(on_top)
    return [t / ties for t in on_top]


def best_grid_deviation(strat: np.ndarray, opp: np.ndarray, f) -> np.ndarray:
    """A player's best float utility over the grid strategies against each row of opponents.

    strat: (S, m) float emphases of the distinct grid strategies
    opp:   (T, n - 1) int indices into strat, one opponent multiset a row
    f:     the :class:`~rankcomp.game.SinglePeakFunction` scoring every query
    Returns (T,) float64.

    Each strategy's :func:`_shares` entry of every query is summed in query
    order, bitwise as :func:`grid_screen` sums a current utility.  The
    temporaries are (T, S) arrays, so callers bound T·S.
    """
    value = np.zeros((opp.shape[0], strat.shape[0]))
    for q_scores in _query_scores(np.asarray(strat, dtype=np.float64), f):
        value += _shares([q_scores, *(q_scores[col][:, None] for col in opp.T)])[0]
    return value.max(axis=1)


def best_deviation(strat: np.ndarray, opp: np.ndarray, f) -> np.ndarray:
    """A player's best invest-set value against each row of opponents.

    strat: (S, m) float emphases of the distinct grid strategies
    opp:   (T, n - 1) int indices into strat, one opponent multiset a row
    f:     the :class:`~rankcomp.game.SinglePeakFunction` scoring every query
    Returns (T,) float64.

    Scores are f interpolated on its float knots; a query's cost is the
    increasing-branch inverse at the top opponent score (0 at or below
    f(0)).  Zero spend wins a top below f(0) and ties one at f(0).  A
    deviation invests in a set of queries; a tie and a solo on a query
    cost the same, so within an affordable set every query takes its
    better role: a solo where the top opponent is below f(peak), else a
    tie.  Solos need a margin under the unit budget, so a set costing 1
    (within ``_EQ_TOL``) can only tie, and a dearer set is infeasible.
    Each sum adds its terms in query order, so a set's value is bitwise
    the best of its per-query role choices.  The value depends only on
    the opponents' multiset, not on their order or on the player's own
    strategy.
    """
    xs, ys = np.array(f.knots, dtype=np.float64).T
    rise = [x for x, _ in f.knots].index(f.peak) + 1  # knots up to the peak
    f0, f_peak = ys[0], ys[rise - 1]
    scores = _query_scores(np.asarray(strat, dtype=np.float64), f)[:, opp]  # (m, T, n-1)
    m, T, _ = scores.shape
    top = scores.max(axis=2)  # (m, T)
    # per-query rows, (m, T): the cost to reach the top opponent, and the
    # shares of zero spend, of a tie and of the better role once paid for,
    # with f(0), the top and f(peak) in the player's place
    costs = np.interp(top, ys[:rise], xs[:rise])
    rest = list(np.moveaxis(scores, 2, 0))  # each opponent's (m, T) scores
    zero_val, tie_share, open_share = (_shares([own, *rest])[0] for own in (f0, top, f_peak))

    best = np.zeros(T)
    for invest in range(1 << m):
        cost = np.zeros(T)
        open_value = np.zeros(T)
        tie_value = np.zeros(T)
        for q in range(m):
            if invest >> q & 1:
                cost += costs[q]
                open_value += open_share[q]
                tie_value += tie_share[q]
            else:
                open_value += zero_val[q]
                tie_value += zero_val[q]
        value = np.where(
            cost < 1.0 - _EQ_TOL,
            open_value,
            np.where(cost <= 1.0 + _EQ_TOL, tie_value, 0.0),
        )
        np.maximum(best, value, out=best)
    return best


def grid_screen(strat: np.ndarray, prof: np.ndarray, f, best: np.ndarray) -> np.ndarray:
    """Flag the profiles where no player has an improving deviation.

    strat: (S, m) float emphases of the distinct grid strategies
    prof:  (P, n) int indices into strat, each row non-decreasing
    f:     the :class:`~rankcomp.game.SinglePeakFunction` scoring every query
    best:  :func:`best_deviation` or :func:`best_grid_deviation` of every
           (n - 1)-multiset of range(S), in lexicographic order (its row
           for a multiset is its :func:`multiset_rank`)
    Returns (P,) uint8, 1 where the profile survives the screen.

    In a non-decreasing row every player's opponents form a sorted
    multiset, ranked to its table row.  The gathered best deviation is
    compared with the player's current utility: each query is shared out
    once among all players by :func:`_shares`, summed in query order.
    """
    strat = np.asarray(strat, dtype=np.float64)
    prof = np.asarray(prof, dtype=np.int64)
    P, n = prof.shape
    ok = np.ones(P, dtype=bool)
    if n == 1:
        return ok.astype(np.uint8)
    S = strat.shape[0]
    if best.shape != (math.comb(S + n - 2, n - 1),):
        raise ValueError(f"deviation table of shape {best.shape} does not fit {S} strategies")
    if (np.diff(prof, axis=1) < 0).any():
        raise ValueError("profile rows must be non-decreasing")
    cols = list(prof.T)
    current = np.zeros((n, P))
    for q_scores in _query_scores(strat, f):
        current += _shares([q_scores[col] for col in cols])
    for i in range(n):
        ok &= best[multiset_rank(cols[:i] + cols[i + 1 :], S)] <= current[i] + _MARGIN
    return ok.astype(np.uint8)
