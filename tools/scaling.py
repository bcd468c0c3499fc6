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

Last, `cli.main` itself on the `roundtrip` benchmark's median case: a
translational surface of n = 6 (translational3d's base curve, offsets
stepping 1.05 in y) on N = 2048 panels, timed for

- cli project: `project` of the surface document to a framework and stress
- cli lift: `lift` of that framework and stress to a reproducible OBJ

Each command reads and writes files in a temporary directory; its stdout
is dropped.

The time is the best of 5 calls on one framework, so its grid table is cached
after the first; a grid_table row is the best of 5 fresh frameworks, the
packing of their coefficient tables included.  Faults are the minor page
faults (`ru_minflt`) per call over the last 4 of those calls, `-` where the
`resource` module is missing: pages the process takes from the kernel
afresh, whether first touched or handed back by the allocator and faulted
in again.  The CLI rows run in a process of their own, as a command does:
the large blocks the kernels above free raise glibc's dynamic heap
thresholds, and `cli.main` sets its own for the rest of its process
(README, Command line).  The memory is the
tracemalloc peak of one call on a fresh framework: for solve_stress and
grid_table the grid table is included, as they build it; the other kernels
read a table built before tracing starts, as `check` and `lift` share one.
Run it with PYTHONPATH pointing at another checkout's
src to compare two versions on the same host.
"""

import io
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import striplift as sl
from striplift import cli

try:
    import resource
except ImportError:  # missing on Windows
    resource = None

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
CLI_N, CLI_GRID = 6, 2048


def framework(n):
    """A fresh perturbed2d framework: no grid table built yet."""
    return sl.builtin("perturbed2d", n=n, seed=3, amplitude=0.005)


def translational_surface(n):
    """n + 3 translates of translational3d's base curve, stepping 1.05 in y and 0.4 in z."""
    base = sl.builtin("translational3d").curve(0).coords
    curves = [sl.AnalyticCurve(tuple(sl.shifted(cf, d) for cf, d in
                                     zip(base, (0.1 * (-1) ** k, 1.05 * k, 0.4 * k))))
              for k in range(n + 3)]
    return sl.AnalyticSurface3D(1.6, n, curves)


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt if resource else 0


def best_of_5(call, setup=lambda: None):
    """Best time of 5 calls of call(setup()), and the minor page faults per call of the last 4."""
    best, faults = float("inf"), 0
    for k in range(5):
        arg = setup()
        before, start = minor_faults(), time.perf_counter()
        call(arg)
        best = min(best, time.perf_counter() - start)
        faults += (minor_faults() - before) * (k > 0)
    return best, f"{faults / 4:.0f}" if resource else "-"


def traced_peak(call):
    """The tracemalloc peak of one call, in MB."""
    tracemalloc.start()
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 2**20


def main():
    grid = sl.Grid(framework(1).T, N)
    stresses = {n: sl.solve_stress(framework(n), 1.0 + 0.5 * np.arange(n + 1), MU, grid) for n in NS}
    print(f"{'kernel':<24} {'n':>3} {'N':>5} {'best of 5':>10} {'peak MB':>8} {'faults':>7}")
    for name, kernel in KERNELS.items():
        for n, stress in stresses.items():
            fw = framework(n)
            best, faults = best_of_5(lambda _: kernel(fw, stress))
            fw = framework(n)
            if name != "solve_stress":
                fw.grid_table(grid)
            peak = traced_peak(lambda: kernel(fw, stress))
            print(f"{name:<24} {n:>3} {N:>5} {best * 1e3:>7.2f} ms {peak:>8.1f} {faults:>7}")
    for order in (2, 3):
        for n in NS:
            best, faults = best_of_5(lambda fw: fw.grid_table(grid, order), lambda: framework(n))
            fw = framework(n)
            peak = traced_peak(lambda: fw.grid_table(grid, order))
            print(f"{f'grid_table order {order}':<24} {n:>3} {N:>5} {best * 1e3:>7.2f} ms {peak:>8.1f} {faults:>7}")
    print(f"\n{'writer':<24} {'n':>3} {'N':>5} {'best of 5':>10} {'peak MB':>8} {'faults':>7} {'ns/number':>10}")
    for name, (writer, count) in WRITERS.items():
        for n, stress in stresses.items():
            surface = sl.build_lifting(framework(n), stress)
            best, faults = best_of_5(lambda _: writer(surface, stress))
            peak = traced_peak(lambda: writer(surface, stress))
            per = best / count(surface, stress) * 1e9
            print(f"{name:<24} {n:>3} {N:>5} {best * 1e3:>7.2f} ms {peak:>8.1f} {faults:>7} {per:>10.0f}")
    sys.stdout.flush()
    subprocess.run([sys.executable, __file__, "--cli-rows"], check=True)


def cli_rows():
    """The rows of `cli.main`, in a process of their own (see the module docstring)."""
    print(f"\n{'command':<24} {'n':>3} {'N':>5} {'best of 5':>10} {'peak MB':>8} {'faults':>7}")
    with tempfile.TemporaryDirectory() as tmp:
        surface, out = Path(tmp) / "surface.json", str(Path(tmp) / "out")
        surface.write_text(sl.save_framework(translational_surface(CLI_N)))
        commands = {
            "cli project": ["project", "--input", str(surface), "--grid", str(CLI_GRID), "--output", out],
            "cli lift": ["lift", "--input", out + ".framework.json", "--stress", out + ".stress.json",
                         "--grid", str(CLI_GRID), "--format", "obj", "--reproducible",
                         "--output", out + ".obj"],
        }
        for name, argv in commands.items():
            def command(_=None):
                with redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if code != 0:
                    raise SystemExit(f"{name} failed with exit code {code}")
            best, faults = best_of_5(command)
            peak = traced_peak(command)
            print(f"{name:<24} {CLI_N:>3} {CLI_GRID:>5} {best * 1e3:>7.2f} ms {peak:>8.1f} {faults:>7}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--cli-rows"]:
        cli_rows()
    else:
        main()
