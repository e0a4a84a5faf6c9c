"""Benchmark the hot kernels.

Run from the repository root:

    python benchmarks/bench_kernels.py

The grid screen is timed on random profiles; the logistic-regression
kernel is timed for one C value and for a batch of four.
"""

import time

import numpy as np

from rankcomp import kernels


def _time(fn, *args, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_grid_screen():
    rng = np.random.default_rng(0)
    g = 12
    m, n = 4, 2
    S = 1820
    strat = rng.integers(0, g + 1, size=(S, m)).astype(np.float64)
    sums = strat.sum(axis=1)
    strat[sums > g] *= (g / sums[sums > g])[:, None]
    strat /= g
    P = 400_000
    prof = rng.integers(0, S, size=(P, n))
    peak = 1.0 / 3.0

    t_screen = _time(kernels.grid_screen, strat, prof, peak)
    print(f"grid_screen  ({P} profiles, n={n}, m={m})")
    print(f"  time  : {t_screen:8.3f} s")


def bench_logreg():
    rng = np.random.default_rng(1)
    N, D = 2500, 27
    X = rng.random(size=(N, D))
    y = (rng.random(N) < 0.5).astype(np.float64)
    step, iters = 0.05, 600
    alphas = [1.0 / (c * N) for c in (1.0, 10.0, 50.0, 100.0)]

    t_one = _time(kernels.logreg_fit, X, y, alphas[:1], step, iters)
    t_four = _time(kernels.logreg_fit, X, y, alphas, step, iters)
    print(f"logreg_fit   (N={N}, D={D}, {iters} iterations)")
    print(f"  K=1   : {t_one:8.3f} s")
    print(f"  K=4   : {t_four:8.3f} s   ({t_four / (4 * t_one):.2f} of four K=1 fits)")


if __name__ == "__main__":
    bench_grid_screen()
    print()
    bench_logreg()
