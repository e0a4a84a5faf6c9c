"""Hot numeric kernels.

Two inner loops dominate runtime: screening millions of grid profiles for
equilibrium candidates, and the proximal-gradient fits inside the
cross-validation protocol.

The grid screen ships in two implementations with identical decisions:

* ``grid_screen_numba`` — ``@njit`` compiled, used when numba imports cleanly;
* ``grid_screen_numpy`` — vectorized fallback.

Selection is controlled by the ``RANKCOMP_BACKEND`` environment variable:
``numba``, ``numpy``, or ``auto`` (default: numba when available).  The
screen is float arithmetic over quantities whose exact values are
rationals with small denominators, so a 1e-9 acceptance margin cannot
misclassify; accepted profiles are re-verified exactly by the caller.

The logistic-regression fit is a single numpy kernel that solves a whole
grid of regularization strengths on one training set at once.

``benchmarks/bench_kernels.py`` times both kernels.
"""

from __future__ import annotations

import math
import os

import numpy as np

try:  # pragma: no cover - exercised indirectly via backend selection
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    numba = None
    HAVE_NUMBA = False

_EQ_TOL = 1e-12  # score-equality threshold (exact values are well separated)
_MARGIN = 1e-9  # attained-vs-current acceptance margin for the screen


def active_backend() -> str:
    """Resolve the backend from RANKCOMP_BACKEND (numba|numpy|auto)."""
    choice = os.environ.get("RANKCOMP_BACKEND", "auto").strip().lower()
    if choice == "numpy":
        return "numpy"
    if choice == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError("RANKCOMP_BACKEND=numba but numba is not importable")
        return "numba"
    if choice == "auto" or choice == "":
        return "numba" if HAVE_NUMBA else "numpy"
    raise RuntimeError(f"unknown RANKCOMP_BACKEND {choice!r}")


# ---------------------------------------------------------------------------
# grid screen: tent scoring, per-profile attained best response vs current
# ---------------------------------------------------------------------------


def _screen_py(strat, prof, peak, out):
    """Reference loop shared by both backends (numba-compilable).

    strat: (S, m) float emphases of the distinct grid strategies
    prof:  (P, n) int32 indices into strat
    out:   (P,) uint8, set to 1 when no player has an improving deviation
    """
    P, n = prof.shape
    m = strat.shape[1]
    scores = np.empty((n, m))
    combos = 3**m
    for p in range(P):
        for i in range(n):
            row = strat[prof[p, i]]
            for q in range(m):
                x = row[q]
                if peak <= 0.0:
                    s = 1.0 - x
                elif peak >= 1.0:
                    s = x
                elif x <= peak:
                    s = x / peak
                else:
                    s = (1.0 - x) / (1.0 - peak)
                scores[i, q] = s
        ok = True
        for i in range(n):
            # opponent top per query, tie count, own current share
            current = 0.0
            costs = np.empty(m)
            tie_share = np.empty(m)
            solo_ok = np.empty(m, dtype=np.uint8)
            zero_val = np.empty(m)
            for q in range(m):
                top = -1.0
                cnt = 0
                for k in range(n):
                    if k == i:
                        continue
                    s = scores[k, q]
                    if s > top + _EQ_TOL:
                        top = s
                        cnt = 1
                    elif s > top - _EQ_TOL:
                        cnt += 1
                own = scores[i, q]
                if own > top + _EQ_TOL:
                    current += 1.0
                elif own > top - _EQ_TOL:
                    current += 1.0 / (cnt + 1)
                costs[q] = top * peak if top > 0.0 else 0.0
                tie_share[q] = 1.0 / (cnt + 1)
                solo_ok[q] = 1 if top < 1.0 - _EQ_TOL else 0
                zero_val[q] = tie_share[q] if top <= _EQ_TOL else 0.0
            # enumerate per-query roles: 0 skip, 1 tie, 2 solo
            best = 0.0
            for combo in range(combos):
                c = combo
                cost = 0.0
                value = 0.0
                needs_eps = False
                valid = True
                for q in range(m):
                    d = c % 3
                    c //= 3
                    if d == 0:
                        value += zero_val[q]
                    elif d == 1:
                        cost += costs[q]
                        value += tie_share[q]
                    else:
                        if solo_ok[q] == 0:
                            valid = False
                            break
                        cost += costs[q]
                        value += 1.0
                        needs_eps = True
                if not valid or cost > 1.0 + _EQ_TOL:
                    continue
                if needs_eps and cost >= 1.0 - _EQ_TOL:
                    continue
                if value > best:
                    best = value
            if best > current + _MARGIN:
                ok = False
                break
        out[p] = 1 if ok else 0
    return out


if HAVE_NUMBA:
    _screen_numba_jit = numba.njit(cache=True)(_screen_py)


def grid_screen_numba(strat: np.ndarray, prof: np.ndarray, peak: float) -> np.ndarray:
    out = np.zeros(prof.shape[0], dtype=np.uint8)
    return _screen_numba_jit(
        np.ascontiguousarray(strat, dtype=np.float64),
        np.ascontiguousarray(prof, dtype=np.int64),
        float(peak),
        out,
    )


def grid_screen_numpy(strat: np.ndarray, prof: np.ndarray, peak: float) -> np.ndarray:
    """Vectorized screen over profile chunks; same decisions as the loop."""
    strat = np.asarray(strat, dtype=np.float64)
    prof = np.asarray(prof, dtype=np.int64)
    P, n = prof.shape
    m = strat.shape[1]
    emph = strat[prof]  # (P, n, m)
    if peak <= 0.0:
        scores = 1.0 - emph
    elif peak >= 1.0:
        scores = emph.copy()
    else:
        scores = np.where(emph <= peak, emph / peak, (1.0 - emph) / (1.0 - peak))

    ok = np.ones(P, dtype=bool)
    if n == 1:
        return ok.astype(np.uint8)
    for i in range(n):
        opp = np.delete(scores, i, axis=1)  # (P, n-1, m)
        top = opp.max(axis=1)  # (P, m)
        cnt = (opp > top[:, None, :] - _EQ_TOL).sum(axis=1)  # (P, m)
        own = scores[:, i, :]
        current = np.where(
            own > top + _EQ_TOL, 1.0, np.where(own > top - _EQ_TOL, 1.0 / (cnt + 1), 0.0)
        ).sum(axis=1)
        costs = np.where(top > 0.0, top * peak, 0.0)
        tie_share = 1.0 / (cnt + 1)
        solo_ok = top < 1.0 - _EQ_TOL
        zero_val = np.where(top <= _EQ_TOL, tie_share, 0.0)

        best = np.zeros(P)
        for combo in range(3**m):
            digits = [(combo // 3**q) % 3 for q in range(m)]
            valid = np.ones(P, dtype=bool)
            cost = np.zeros(P)
            value = np.zeros(P)
            needs_eps = any(d == 2 for d in digits)
            for q, d in enumerate(digits):
                if d == 0:
                    value += zero_val[:, q]
                elif d == 1:
                    cost += costs[:, q]
                    value += tie_share[:, q]
                else:
                    cost += costs[:, q]
                    value += 1.0
                    valid &= solo_ok[:, q]
            feasible = cost <= 1.0 + _EQ_TOL
            if needs_eps:
                feasible &= cost < 1.0 - _EQ_TOL
                feasible &= valid
            np.maximum(best, np.where(feasible, value, 0.0), out=best)
        ok &= best <= current + _MARGIN
    return ok.astype(np.uint8)


def grid_screen(strat: np.ndarray, prof: np.ndarray, peak: float) -> np.ndarray:
    if active_backend() == "numba":
        return grid_screen_numba(strat, prof, peak)
    return grid_screen_numpy(strat, prof, peak)


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
