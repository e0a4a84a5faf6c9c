"""Paired t-test with a self-contained t-distribution CDF.

The two-tailed p-value comes from the regularized incomplete beta
function, evaluated with a Lentz continued fraction — no external
stats dependency.  Degenerate cases follow the documented conventions:
all-zero differences give t = 0, p = 1; zero variance with a nonzero
mean is reported as infinitely significant (p -> 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .numeric import DomainError


@dataclass(frozen=True)
class TTestResult:
    t: float
    p_two_tailed: float
    significant_at_005: bool
    df: int


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            break
    return h


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf_two_tailed(t: float, df: int) -> float:
    """P(|T| >= t) for Student's t with df degrees of freedom."""
    if df < 1:
        raise DomainError("degrees of freedom must be >= 1")
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    return betainc_reg(df / 2.0, 0.5, x)


def paired_t_test(scores_a: Sequence[float], scores_b: Sequence[float]) -> TTestResult:
    """Two-tailed paired t-test on equal-length samples (n >= 2)."""
    if len(scores_a) != len(scores_b):
        raise DomainError("paired samples must have equal length")
    n = len(scores_a)
    if n < 2:
        raise DomainError("need at least two pairs")
    for name, sample in (("scores_a", scores_a), ("scores_b", scores_b)):
        for i, score in enumerate(sample):
            if not math.isfinite(score):
                raise DomainError(f"{name}[{i}] is {score}, not a finite score")
    diffs = [a - b for a, b in zip(scores_a, scores_b)]
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    df = n - 1
    if var == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, p_two_tailed=1.0, significant_at_005=False, df=df)
        t = math.inf if mean > 0 else -math.inf
        return TTestResult(t=t, p_two_tailed=0.0, significant_at_005=True, df=df)
    t = mean / math.sqrt(var / n)
    p = t_sf_two_tailed(abs(t), df)
    return TTestResult(t=t, p_two_tailed=p, significant_at_005=p <= 0.05, df=df)
