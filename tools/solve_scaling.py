"""Time and peak traced memory of one statics.solve_stress call by size.

    PYTHONPATH=src python3 tools/solve_scaling.py

Each case marches the perturbed2d framework (seed 3, amplitude 0.005) from
lambda0 = 1, 1.5, 2, ... with a trigonometric CoordFunction mu_{-1}.  The
time is the best of 5 calls on one framework, so its grid table is cached
after the first; the memory is the tracemalloc peak of one call on a fresh
framework, grid table included.  Run it with PYTHONPATH pointing at another
checkout's src to compare two versions on the same host.
"""

import time
import tracemalloc

import numpy as np

import striplift as sl

CASES = ((4, 256), (4, 1024), (16, 1024), (32, 1024), (64, 1024), (16, 4096))
MU = sl.CoordFunction((0.01, -0.003), ((0.02, 2.0, 0.7),))


def case(n, N):
    fw = sl.builtin("perturbed2d", n=n, seed=3, amplitude=0.005)
    return fw, 1.0 + 0.5 * np.arange(n + 1), sl.Grid(fw.T, N)


def main():
    print(f"{'n':>3} {'N':>5} {'best of 5':>10} {'peak MB':>8}")
    for n, N in CASES:
        fw, lambda0, grid = case(n, N)
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            sl.solve_stress(fw, lambda0, MU, grid)
            best = min(best, time.perf_counter() - start)
        fw, lambda0, grid = case(n, N)
        tracemalloc.start()
        sl.solve_stress(fw, lambda0, MU, grid)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"{n:>3} {N:>5} {best * 1e3:>7.1f} ms {peak / 2**20:>8.1f}")


if __name__ == "__main__":
    main()
