"""Time and peak traced memory, by strip count n, of the kernels and writers that grow with n.

    PYTHONPATH=src python3 tools/scaling.py

Each case is the perturbed2d framework (seed 3, amplitude 0.005) on N = 1024
panels with the stress marched from lambda0 = 1, 1.5, 2, ... and a
trigonometric CoordFunction mu_{-1}.  The kernels:

- solve_stress: the march (`solve`)
- residual_report: the equilibrium residual (`check`, and the gate of `lift`)
- height_scale: the axis-path height profiles (`lift`'s heights)
- build_lifting: the residual gate plus the height profiles (`lift`)
- path_independence_spread: the exact height spread over every increasing
  path to (n, T), two prefix max/min recursions, plus the height scale (`check`)

the grid table itself, at the two orders a table holds:

- grid_table order 2: positions, tangents and accelerations, what the
  balance, the heights, regularity and the strip defects read
- grid_table order 3: plus the jerk, which only the one-strip criterion reads

and the writers, timed on the same cases with the lifted surface built once:

- save_stress: the stress document (`solve`, `project`)
- export_obj: the OBJ of the lifted surface (`lift --format obj`)

A writer's row also gives the time per number written: every float of
`lam` and `mu` for save_stress, every vertex coordinate and face index for
export_obj.

The time is the best of 5 calls on one framework, so its grid table is cached
after the first; a grid_table row is the best of 5 fresh frameworks, the
packing of their coefficient tables included.  The memory is the
tracemalloc peak of one call on a fresh framework: for solve_stress and
grid_table the grid table is included, as they build it; the other kernels
read a table built before tracing starts, as `check` and `lift` share one.
Run it with PYTHONPATH pointing at another checkout's
src to compare two versions on the same host.
"""

import time
import tracemalloc

import numpy as np

import striplift as sl

NS, N = (4, 16, 32, 64), 1024
MU = sl.CoordFunction((0.01, -0.003), ((0.02, 2.0, 0.7),))
KERNELS = {
    "solve_stress": lambda fw, stress: sl.solve_stress(fw, stress.lam[:, 0], MU, stress.grid),
    "residual_report": sl.residual_report,
    "height_scale": sl.height_scale,
    "build_lifting": sl.build_lifting,
    "path_independence_spread": sl.path_independence_spread,
}
WRITERS = {  # name: (writer of (surface, stress), count of numbers it writes)
    "save_stress": (lambda surface, stress: sl.save_stress(stress),
                    lambda surface, stress: stress.lam.size + stress.mu.size),
    "export_obj": (lambda surface, stress: sl.export_obj(surface, reproducible=True),
                   lambda surface, stress: 3 * surface.z.size + 4 * (len(surface.z) - 1) * N),
}


def framework(n):
    """A fresh perturbed2d framework: no grid table built yet."""
    return sl.builtin("perturbed2d", n=n, seed=3, amplitude=0.005)


def main():
    grid = sl.Grid(framework(1).T, N)
    stresses = {n: sl.solve_stress(framework(n), 1.0 + 0.5 * np.arange(n + 1), MU, grid) for n in NS}
    print(f"{'kernel':<24} {'n':>3} {'N':>5} {'best of 5':>10} {'peak MB':>8}")
    for name, kernel in KERNELS.items():
        for n, stress in stresses.items():
            fw, best = framework(n), float("inf")
            for _ in range(5):
                start = time.perf_counter()
                kernel(fw, stress)
                best = min(best, time.perf_counter() - start)
            fw = framework(n)
            if name != "solve_stress":
                fw.grid_table(grid)
            tracemalloc.start()
            kernel(fw, stress)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            print(f"{name:<24} {n:>3} {N:>5} {best * 1e3:>7.2f} ms {peak / 2**20:>8.1f}")
    for order in (2, 3):
        for n in NS:
            best = float("inf")
            for _ in range(5):
                fw = framework(n)
                start = time.perf_counter()
                fw.grid_table(grid, order)
                best = min(best, time.perf_counter() - start)
            fw = framework(n)
            tracemalloc.start()
            fw.grid_table(grid, order)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            print(f"{f'grid_table order {order}':<24} {n:>3} {N:>5} {best * 1e3:>7.2f} ms {peak / 2**20:>8.1f}")
    print(f"\n{'writer':<24} {'n':>3} {'N':>5} {'best of 5':>10} {'peak MB':>8} {'ns/number':>10}")
    for name, (writer, count) in WRITERS.items():
        for n, stress in stresses.items():
            surface, best = sl.build_lifting(framework(n), stress), float("inf")
            for _ in range(5):
                start = time.perf_counter()
                writer(surface, stress)
                best = min(best, time.perf_counter() - start)
            tracemalloc.start()
            writer(surface, stress)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            per = best / count(surface, stress) * 1e9
            print(f"{name:<24} {n:>3} {N:>5} {best * 1e3:>7.2f} ms {peak / 2**20:>8.1f} {per:>10.0f}")


if __name__ == "__main__":
    main()
