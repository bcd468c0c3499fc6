"""Size sweep: one traced op per cell over n x N on two generators.

    python3 perfbench/sweep.py --seed 1 > sweep.txt

Cells are n in {1, 4, 16} by N in {128, 512, 2048} on the `march` (solve)
and `roundtrip` (project, lift) generators; one document per (generator, n)
is reused across N, so a row compares one input at three grid sizes.  Each
cell reports the per-layer self times of its op next to the values its
outputs reach (residual, and conjugacy for roundtrip) and the observed order
log2(r_prev / r) / log2(N / N_prev) against the next coarser grid.  Values
are printed as measured: where stencil roundoff lifts the residual at large
N, the order drops and the table shows it.  The sweep is informational and
is not one of the gated workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import boot

NS = (1, 4, 16)
GRIDS = (128, 512, 2048)


def run_cell(cli, tracing, workloads, case):
    """Run the case's commands once under a fresh tracer; return the cell record."""
    tracer = tracing.Tracer()
    tracer.install()
    codes = []
    out = io.StringIO()
    try:
        tracer.active = True
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            for command in case.commands:
                codes.append(cli.main(command.argv))
        op_s = perf_counter() - start
    finally:
        tracer.restore()
    layers = {name[: -len(".self_s_per_op")]: value
              for name, value in tracer.summary(1).items()
              if name.endswith(".self_s_per_op") and value > 0.0}
    cell = {"exit_codes": codes, "op_s_traced": op_s, "self_s": layers}
    try:
        cell["values"] = case.values(case)
    except workloads.RECHECK_ERRORS as exc:  # a cell without usable output still gets a row
        cell["values"] = {}
        cell["error"] = f"{type(exc).__name__}: {exc}"
    return cell


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    try:
        root = boot.prepare()
    except boot.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy as np
    import tracing
    import workloads
    from striplift import cli

    generators = {"march": workloads.march_case, "roundtrip": workloads.roundtrip_case}
    cells = []
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="sweep-", dir=out_dir) as tmp:
        for w, (name, build) in enumerate(generators.items()):
            for n in NS:
                previous = None
                for N in GRIDS:
                    rng = np.random.default_rng([args.seed, w, n])  # same document at every N
                    case = build(rng, Path(tmp), f"{name}-n{n}-N{N}", n, N)
                    cell = {"generator": name, "n": n, "N": N, **run_cell(cli, tracing, workloads, case)}
                    if previous is not None:
                        cell["order"] = {
                            k: math.log2(previous["values"][k] / v) / math.log2(N / previous["N"])
                            for k, v in cell["values"].items()
                            if v > 0.0 and previous["values"].get(k, 0.0) > 0.0
                        }
                    cells.append(cell)
                    previous = cell
                    top = sorted(cell["self_s"].items(), key=lambda kv: -kv[1])[:3]
                    print(f"{name:9s} n={n:<2d} N={N:<5d} exit={cell['exit_codes']} "
                          f"op {cell['op_s_traced']:.4f} s  "
                          + " ".join(f"{k} {v:.3e}" for k, v in cell["values"].items())
                          + "  order " + " ".join(f"{k} {v:.2f}" for k, v in cell.get("order", {}).items())
                          + "  | " + ", ".join(f"{k} {v:.4f}s" for k, v in top)
                          + (f"  ({cell['error']})" if "error" in cell else ""),
                          flush=True)
    print(json.dumps({"environment": boot.environment(args.seed), "cells": cells}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
