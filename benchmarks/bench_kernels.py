"""Benchmark the hot kernels.

Run from the repository root:

    python benchmarks/bench_kernels.py

The grid screen's numba and numpy implementations are called directly
(no env-flag juggling); the numba path is warmed once so compilation time
is reported separately from steady-state throughput.  The logistic-
regression kernel is timed for one C value and for a batch of four.
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

    if kernels.HAVE_NUMBA:
        t0 = time.perf_counter()
        kernels.grid_screen_numba(strat, prof[:128], peak)
        compile_s = time.perf_counter() - t0
        t_numba = _time(kernels.grid_screen_numba, strat, prof, peak)
    else:
        compile_s = float("nan")
        t_numba = float("nan")
    t_numpy = _time(kernels.grid_screen_numpy, strat, prof, peak)
    print(f"grid_screen  ({P} profiles, n={n}, m={m})")
    print(f"  numba : {t_numba:8.3f} s   (first-call compile {compile_s:.2f} s)")
    print(f"  numpy : {t_numpy:8.3f} s")
    if kernels.HAVE_NUMBA:
        print(f"  speedup: {t_numpy / t_numba:5.1f}x")


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
    print(f"numba available: {kernels.HAVE_NUMBA}")
    print(f"active backend : {kernels.active_backend()}")
    print()
    bench_grid_screen()
    print()
    bench_logreg()
