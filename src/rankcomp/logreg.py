"""L1-regularized logistic regression, deterministic and scikit-compatible.

The objective follows the usual inverse-regularization convention: for a
grid value C, minimize

    mean logistic loss  +  (1 / (C * N)) * ||w||_1

which is the scikit-learn liblinear objective scaled by 1/(C*N).  The
bias is unpenalized.  Each fit is an orthant-wise Newton method, as in
OWL-QN (Andrew & Gao 2007, *Scalable training of L1-regularized
log-linear models*), with an exact Hessian: a damped Newton step on the
free coordinates, projected onto the current orthant, then an Armijo
backtrack.  A fit stops when its min-norm subgradient (KKT) residual is
at most ``_TOL``, and raises :class:`~rankcomp.numeric.CapacityError`
rather than return a model that has not converged within ``_MAX_STEPS``
steps.  Every fit starts from zero, so :func:`train_lreg_grid` returns,
for each C, the model that :func:`train_lreg` fits for that C alone,
bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numeric import CapacityError, DomainError

_TOL = 1e-9  # KKT residual at which a fit has converged
_MAX_STEPS = 1000  # outer Newton steps before a fit gives up
_ARMIJO = 1e-4  # sufficient-decrease fraction of the predicted decrease
_HALVINGS = 8  # backtracking halvings before a step fails


@dataclass(frozen=True)
class LinearModel:
    weights: tuple[float, ...]
    bias: float
    c_inverse_reg: float
    meta: dict

    def decision_scores(self, X) -> np.ndarray:
        z = np.asarray(X, dtype=np.float64) @ np.asarray(self.weights) + self.bias
        return 1.0 / (1.0 + np.exp(-z))


def mean_logloss_grad(X, y, w, b):
    """Gradient of the unpenalized mean logistic loss (oracle-testable)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    z = X @ w + b
    pr = 1.0 / (1.0 + np.exp(-z))
    r = (pr - y) / X.shape[0]
    return X.T @ r, r.sum()


def mean_logloss(X, y, w, b, alpha=0.0):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    z = X @ w + b
    # log(1 + exp(-z)) computed stably
    loss = np.logaddexp(0.0, -z) * y + np.logaddexp(0.0, z) * (1.0 - y)
    return loss.mean() + alpha * np.abs(w).sum()


def _fit(X, y, alphas):
    """Minimize mean logistic loss + alpha * ||w||_1 (bias free), once per alpha.

    X: (N, D), y: (N,), alphas: (K,).  Returns one (weights then bias,
    steps, residual) per alpha, each solved from zero on A = [X, 1].

    A step solves (H_F + lam I) d = -pg_F on the free set F: the nonzero
    weights, the zero weights whose gradient exceeds alpha, and the bias.
    pg is the min-norm subgradient and H the exact Hessian.  A weight that
    leaves its orthant (a zero weight's orthant is the one its descent
    points into) is set to 0.  The damping lam starts at 0; it grows
    tenfold, to at least 1e-4 of H_F's mean diagonal, when a step fails or
    needs two or more halvings, and shrinks tenfold after a full step, so
    rank-deficient training sets still converge.
    """
    n, d = X.shape
    A = np.hstack([X, np.ones((n, 1))])

    def objective(p, alpha):
        z = A @ p
        neg, pos = np.logaddexp(0.0, -z), np.logaddexp(0.0, z)  # -log P(1), -log P(0)
        return (y @ neg + (1.0 - y) @ pos) / n + alpha * np.abs(p[:d]).sum(), neg, pos

    fits = []
    for alpha in alphas:
        p = np.zeros(d + 1)
        f, neg, pos = objective(p, alpha)
        lam, steps = 0.0, 0
        while True:
            g = A.T @ ((np.exp(-neg) - y) / n)
            w, gw, pg = p[:d], g[:d], g.copy()
            shrunk = np.sign(gw) * np.maximum(np.abs(gw) - alpha, 0.0)
            pg[:d] = np.where(w != 0, gw + alpha * np.sign(w), shrunk)
            residual = float(np.max(np.abs(pg)))
            if residual <= _TOL:
                break
            if steps == _MAX_STEPS:
                raise CapacityError(
                    f"L1 logistic fit not converged after {_MAX_STEPS} steps "
                    f"(KKT residual {residual:.3g})"
                )
            steps += 1
            free = (p != 0) | (np.abs(g) > alpha)
            free[d] = True
            orthant = np.sign(np.where(p != 0, p, -pg))
            orthant[d] = 0.0  # the bias is unconstrained
            AF = A[:, free]
            H = AF.T @ (AF * (np.exp(-neg - pos) / n)[:, None])
            try:
                step = np.linalg.solve(H + lam * np.eye(len(H)), -pg[free])
            except np.linalg.LinAlgError:  # singular and undamped: fail, then damp
                step = np.zeros(len(H))
            moved = False
            if pg[free] @ step < 0:
                for halvings in range(_HALVINGS + 1):
                    q = p.copy()
                    q[free] += 0.5**halvings * step
                    q[q * orthant < 0] = 0.0
                    fq, negq, posq = objective(q, alpha)
                    if fq <= f + _ARMIJO * (pg @ (q - p)):
                        p, f, neg, pos, moved = q, fq, negq, posq, True
                        break
            if not moved or halvings >= 2:
                lam = max(10.0 * lam, 1e-4 * float(np.mean(np.diag(H))))
            elif halvings == 0:
                lam = lam / 10.0 if lam / 10.0 >= 1e-12 else 0.0
        fits.append((p, steps, residual))
    return fits


def train_lreg(
    X,
    y,
    c_inverse_reg: float = 10.0,
    *,
    seed: int = 0,
) -> LinearModel:
    """Fit the L1 logistic model; requires both label classes present.

    ``seed`` is only a label stored in ``meta``: the fit is deterministic.
    """
    return train_lreg_grid(X, y, (c_inverse_reg,), seed=seed)[0]


def train_lreg_grid(
    X,
    y,
    c_grid: Sequence[float],
    *,
    seed: int = 0,
) -> tuple[LinearModel, ...]:
    """One model per entry of ``c_grid``, all fit on the same (X, y)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DomainError("X must be (N, D) with one label per row")
    if not np.all(np.isfinite(X)):
        raise DomainError("features must be finite")
    if not all(0 < c < math.inf for c in c_grid):
        raise DomainError("regularization parameter must be positive and finite")
    n = X.shape[0]
    if not (np.any(y == 1.0) and np.any(y == 0.0)):
        raise DomainError("training needs at least one positive and one negative label")
    return tuple(
        LinearModel(
            weights=tuple(float(v) for v in p[:-1]),
            bias=float(p[-1]),
            c_inverse_reg=float(c),
            meta={"iters": steps, "residual": residual, "seed": seed, "n_train": int(n)},
        )
        for c, (p, steps, residual) in zip(c_grid, _fit(X, y, [1.0 / (c * n) for c in c_grid]))
    )
