"""L1-regularized logistic regression, deterministic and scikit-compatible.

The objective follows the usual inverse-regularization convention: for a
grid value C, minimize

    mean logistic loss  +  (1 / (C * N)) * ||w||_1

which is the scikit-learn liblinear objective scaled by 1/(C*N).  The
bias is unpenalized.  Optimization is accelerated proximal gradient with
a fixed step (1 over a Frobenius bound on the curvature) and a fixed
iteration budget, so identical inputs give identical models.  The inner
loop is one numpy kernel in :mod:`rankcomp.kernels`.  The step depends on
the data only, so :func:`train_lreg_grid` solves a whole grid of C values
on one training set in a single batched kernel call; each model is
bitwise equal to the one :func:`train_lreg` fits for that C alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .numeric import DomainError

DEFAULT_ITERS = 600


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


def train_lreg(
    X,
    y,
    c_inverse_reg: float = 10.0,
    *,
    n_iters: int = DEFAULT_ITERS,
    seed: int = 0,
) -> LinearModel:
    """Fit the L1 logistic model; requires both label classes present."""
    return train_lreg_grid(X, y, (c_inverse_reg,), n_iters=n_iters, seed=seed)[0]


def train_lreg_grid(
    X,
    y,
    c_grid: Sequence[float],
    *,
    n_iters: int = DEFAULT_ITERS,
    seed: int = 0,
) -> tuple[LinearModel, ...]:
    """One model per entry of ``c_grid``, all fit on the same (X, y)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DomainError("X must be (N, D) with one label per row")
    if any(c <= 0 for c in c_grid):
        raise DomainError("regularization parameter must be positive")
    n = X.shape[0]
    if not (np.any(y == 1.0) and np.any(y == 0.0)):
        raise DomainError("training needs at least one positive and one negative label")
    alphas = [1.0 / (c * n) for c in c_grid]
    # Lipschitz bound for the mean logistic loss: ||A||^2 / (4N) with the
    # bias column included; Frobenius over-estimates, keeping steps safe
    lips = (float(np.sum(X * X)) + n) / (4.0 * n)
    step = 1.0 / max(lips, 1e-12)
    W, B = kernels.logreg_fit(X, y, alphas, step, n_iters)
    return tuple(
        LinearModel(
            weights=tuple(float(v) for v in w),
            bias=float(b),
            c_inverse_reg=float(c),
            meta={"n_iters": n_iters, "seed": seed, "n_train": int(n)},
        )
        for c, w, b in zip(c_grid, W, B)
    )
