"""Hot numeric kernels.

Two inner loops dominate runtime: screening millions of grid profiles for
equilibrium candidates, and the proximal-gradient fits inside the
cross-validation protocol.  Each is one vectorized numpy function.

``grid_screen`` scores a chunk of grid profiles through f's knots and
asks, for every player, whether some subset of queries to invest in
beats the player's current utility (the invest-set model of
:mod:`rankcomp.best_response`, over 2^m sets).  It is float arithmetic
over quantities whose exact values are rationals with small
denominators, so a 1e-9 acceptance margin cannot misclassify; accepted
profiles are re-verified exactly by the caller.

``logreg_fit`` solves a whole grid of regularization strengths on one
training set at once.

``python3 perfbench/run.py --workload grid`` and ``--workload predict``
time them end to end.
"""

from __future__ import annotations

import math

import numpy as np

_EQ_TOL = 1e-12  # score-equality threshold (exact values are well separated)
_MARGIN = 1e-9  # attained-vs-current acceptance margin for the screen


# ---------------------------------------------------------------------------
# grid screen: scoring through f, per-profile attained best response vs current
# ---------------------------------------------------------------------------


def grid_screen(strat: np.ndarray, prof: np.ndarray, f) -> np.ndarray:
    """Flag the profiles where no player has an improving deviation.

    strat: (S, m) float emphases of the distinct grid strategies
    prof:  (P, n) int indices into strat
    f:     the :class:`~rankcomp.game.SinglePeakFunction` scoring every query
    Returns (P,) uint8, 1 where the profile survives the screen.

    Scores are f interpolated on its float knots; a query's cost is the
    increasing-branch inverse at the top opponent score (0 at or below
    f(0)).  Zero spend wins a top below f(0) and ties one at f(0).  A
    deviation invests in a set of queries; a tie and a solo on a query
    cost the same, so within an affordable set every query takes its
    better role: a solo where the top opponent is below f(peak), else a
    tie.  Solos need a margin under the unit budget, so a set costing 1
    (within ``_EQ_TOL``) can only tie, and a dearer set is infeasible.
    Each sum adds its terms in query order, so a set's value is bitwise
    the best of its per-query role choices.
    """
    strat = np.asarray(strat, dtype=np.float64)
    prof = np.asarray(prof, dtype=np.int64)
    P, n = prof.shape
    m = strat.shape[1]
    ok = np.ones(P, dtype=bool)
    if n == 1:
        return ok.astype(np.uint8)
    xs, ys = np.array(f.knots, dtype=np.float64).T
    rise = [x for x, _ in f.knots].index(f.peak) + 1  # knots up to the peak
    f0, f_peak = ys[0], ys[rise - 1]
    scores = np.interp(strat, xs, ys)[prof]  # (P, n, m)

    cost = np.empty(P)
    open_value = np.empty(P)
    tie_value = np.empty(P)
    best = np.empty(P)
    for i in range(n):
        opp = np.delete(scores, i, axis=1)  # (P, n-1, m)
        top = opp.max(axis=1)  # (P, m)
        cnt = (opp > top[:, None, :] - _EQ_TOL).sum(axis=1)  # (P, m)
        own = scores[:, i, :]
        current = np.where(
            own > top + _EQ_TOL, 1.0, np.where(own > top - _EQ_TOL, 1.0 / (cnt + 1), 0.0)
        ).sum(axis=1)
        tie_share = 1.0 / (cnt + 1)
        # per-query rows, (m, P): the cost to reach the top opponent, the
        # value of skipping and of the better role once paid for
        costs = np.ascontiguousarray(np.interp(top, ys[:rise], xs[:rise]).T)
        zero_val = np.ascontiguousarray(
            np.where(top < f0 - _EQ_TOL, 1.0, np.where(top <= f0 + _EQ_TOL, tie_share, 0.0)).T
        )
        open_share = np.ascontiguousarray(np.where(top < f_peak - _EQ_TOL, 1.0, tie_share).T)
        tie_share = np.ascontiguousarray(tie_share.T)

        best.fill(0.0)
        for invest in range(1 << m):
            cost.fill(0.0)
            open_value.fill(0.0)
            tie_value.fill(0.0)
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
        ok &= best <= current + _MARGIN
    return ok.astype(np.uint8)


# ---------------------------------------------------------------------------
# L1 logistic regression: FISTA with soft-thresholding (bias unpenalized)
# ---------------------------------------------------------------------------


def logreg_fit(X, y, alphas, step, n_iters):
    """FISTA on mean logistic loss + alpha * ||w||_1 (bias free), for K alphas.

    X: (N, D), y: (N,) in {0, 1}, alphas: (K,).  Returns W (K, D) and B (K,).
    Deterministic: zero init, fixed iteration count, one shared step size.
    Every fit sees the same ``X`` and step, so the K fits advance in
    lockstep on row-contiguous buffers.  The matrix products run one
    ``gemv`` per row, not one ``gemm``: BLAS may sum a ``gemm`` in a
    different order, and the per-row form keeps row ``k`` bitwise equal to
    a fit with ``alphas[k]`` alone.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    thr = (step * np.asarray(alphas, dtype=np.float64))[:, None]
    N, D = X.shape
    K = thr.shape[0]
    Xt = X.T
    # one row per alpha: D weights, then the bias
    P = np.zeros((K, D + 1))
    P_new = np.empty((K, D + 1))
    PZ = np.zeros((K, D + 1))  # extrapolated point
    G = np.empty((K, D + 1))
    Z = np.empty((K, N))
    A = np.empty((K, D))
    t_acc = 1.0
    for _ in range(int(n_iters)):
        for k in range(K):
            np.dot(X, PZ[k, :D], out=Z[k])
        Z += PZ[:, D:]
        # Z <- (sigmoid(Z) - y) / N: the mean loss derivative in each score
        np.negative(Z, out=Z)
        np.exp(Z, out=Z)
        Z += 1.0
        np.divide(1.0, Z, out=Z)
        Z -= y
        Z /= N
        for k in range(K):
            np.dot(Xt, Z[k], out=G[k, :D])
        np.add.reduce(Z, axis=1, out=G[:, D])
        # gradient step, then soft-threshold the weights
        G *= step
        np.subtract(PZ, G, out=P_new)
        W_new = P_new[:, :D]
        np.abs(W_new, out=A)
        A -= thr
        np.maximum(A, 0.0, out=A)
        np.sign(W_new, out=W_new)
        W_new *= A
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc)) / 2.0
        beta = (t_acc - 1.0) / t_next
        np.subtract(P_new, P, out=PZ)
        PZ *= beta
        PZ += P_new
        P, P_new = P_new, P
        t_acc = t_next
    return P[:, :D].copy(), P[:, D].copy()
