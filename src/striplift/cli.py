"""Command-line front end.

Subcommands: validate, solve, check, lift, project, onestrip, demo.
Exit codes: 0 success / check passed, 1 check failed, 2 invalid input,
3 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateBasisError,
    DivergenceError,
    GridAlignmentError,
    NotConjugateError,
    NotSelfStressedError,
    SchemaError,
    StripLiftError,
)
from .framework import (
    AnalyticSurface3D,
    CoordFunction,
    Framework,
    builtin,
    load_framework,
    parse_document,
    save_framework,
    _coord_from_doc,
    _dump_json,
)
from .geomcore import regularity_report
from .lifting import (
    build_lifting,
    conjugacy_residual,
    export_obj,
    height_scale,
    load_lifting,
    path_independence_spread,
    random_paths,
    save_lifting,
)
from .onestrip import onestrip_verify
from .projection import developability_report, induced_stress, project
from .statics import load_stress, residual_report, save_stress, solve_stress

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_DEGENERATE = 3

DEFAULT_TOL = 1e-6


def _read(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise SchemaError(f"no such file: {path}")
    return p.read_text()


def _with(prefix: Path, ext: str) -> Path:
    return prefix.parent / (prefix.name + ext)


def _write(path: Path, text: str, quiet=False):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    if not quiet:
        print(f"wrote {path}")


def _load_planar(args) -> Framework:
    obj = load_framework(_read(args.input), grid_panels=args.grid)
    if not isinstance(obj, Framework):
        raise SchemaError("expected a planar (dimension 2) framework document")
    return obj


def _parse_mu_spec(text: str) -> CoordFunction:
    try:
        return CoordFunction((float(text),))
    except ValueError:
        pass
    doc = parse_document(text)
    if not isinstance(doc, dict):
        raise SchemaError("edge stress spec must be a number or a coordinate object")
    return _coord_from_doc(doc, "--mu-minus1")


def _load_stressed(args):
    """The framework and stress of check and lift; --grid may only repeat the stress's N."""
    fw, stress = _load_planar(args), load_stress(_read(args.stress))
    if args.grid not in (None, stress.grid.N):
        raise SchemaError(f"--grid {args.grid} differs from the stress document's {stress.grid.N}",
                          field="N")
    return fw, stress


def cmd_validate(args) -> int:
    # regularity reads only the x and y columns, so a surface is judged by its projection
    report = regularity_report(load_framework(_read(args.input), grid_panels=args.grid))
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_solve(args) -> int:
    fw = _load_planar(args)
    report = regularity_report(fw)
    if not report.passed:
        print(report.summary())
        return EXIT_CHECK_FAILED
    lambda0 = [float(v) for v in args.lambda0.split(",")]
    mu = _parse_mu_spec(args.mu_minus1)
    stress = solve_stress(fw, lambda0, mu)
    res = residual_report(fw, stress)
    print(res.summary())
    if args.output:
        _write(Path(args.output), save_stress(stress))
    return EXIT_OK


def cmd_check(args) -> int:
    fw, stress = _load_stressed(args)
    res = residual_report(fw, stress)
    print(res.summary())
    paths = random_paths(fw.n, fw.T, stress.grid, count=20, seed=args.seed)
    spread = path_independence_spread(fw, stress, (fw.n, fw.T), paths)
    scale = height_scale(fw, stress)
    print(
        f"height spread over 20 paths to ({fw.n}, T): {spread:.6e} "
        f"(height scale {scale:.6e})"
    )
    if args.output:
        doc = {
            "residual_max": res.max_normalized,
            "residual_argmax": list(res.argmax),
            "spread": spread,
            "height_scale": scale,
            "tolerance": args.tol,
        }
        _write(Path(args.output), _dump_json(doc))
    ok = res.max_normalized < args.tol and spread < args.tol * scale
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_lift(args) -> int:
    fw, stress = _load_stressed(args)
    surface = build_lifting(fw, stress, tol=args.tol, force=args.force)
    if surface.path_dependent:
        print("warning: stress failed the residual gate; output is path-dependent")
    if args.format == "obj":
        _write(Path(args.output), export_obj(surface, reproducible=args.reproducible))
    else:
        _write(Path(args.output), save_lifting(surface))
    print(f"conjugacy residual {conjugacy_residual(surface):.6e}")
    return EXIT_OK


def cmd_project(args) -> int:
    text = _read(args.input)
    doc = parse_document(text)
    if isinstance(doc, dict) and doc.get("kind") == "lifted_surface":
        surface = load_lifting(text)
    else:
        surface = load_framework(text, grid_panels=args.grid)
        if not isinstance(surface, AnalyticSurface3D):
            raise SchemaError("project expects a dimension-3 document or a lifting dump")
    proj = project(surface)
    worst, where = developability_report(proj)
    print(f"developability defect max {worst:.6e} at {where}")
    out = Path(args.output) if args.output else None
    if out is not None:
        _write(_with(out, ".framework.json"), save_framework(proj.framework))
    full_cover = list(proj.z_indices) == list(proj.framework.curve_indices)
    if not full_cover:
        print("heights cover only part of the curves; no stress document written")
        return EXIT_OK
    stress = induced_stress(proj, conjugacy_tol=args.tol)
    res = residual_report(proj.framework, stress)
    print("induced stress " + res.summary())
    if out is not None:
        _write(_with(out, ".stress.json"), save_stress(stress))
    return EXIT_OK if res.max_normalized < DEFAULT_TOL else EXIT_CHECK_FAILED


def cmd_onestrip(args) -> int:
    fw = _load_planar(args)
    report = onestrip_verify(fw, tol=args.tol)
    print(
        f"criterion max {report.criterion_max:.6e}, verdict "
        f"{'liftable' if report.verdict else 'not liftable'}, "
        f"coupling {report.coupling:.6g} (sign {report.coupling_sign:+d})"
    )
    if report.equilibrium_max is not None:
        print(f"assembled stress equilibrium residual max {report.equilibrium_max:.6e}")
    if args.output:
        text = report.to_json() if args.format == "json" else report.to_csv()
        _write(Path(args.output), text)
    return EXIT_OK if report.verdict else EXIT_CHECK_FAILED


def cmd_demo(args) -> int:
    name = args.name
    prefix = Path(args.output) if args.output else Path(name.replace("-", "_"))
    if name in ("translational3d", "cylinder-strip3d"):
        surface = builtin(name)
        _write(_with(prefix, ".surface.json"), save_framework(surface))
        proj = project(surface)
        _write(_with(prefix, ".framework.json"), save_framework(proj.framework))
        stress = induced_stress(proj)
        _write(_with(prefix, ".stress.json"), save_stress(stress))
        res = residual_report(proj.framework, stress)
        lifted = build_lifting(proj.framework, stress, tol=args.tol)
        _write(
            _with(prefix, ".lifting.obj"),
            export_obj(lifted, reproducible=args.reproducible),
        )
        doc = {
            "name": name,
            "residual_max": res.max_normalized,
            "developability_max": developability_report(proj)[0],
            "conjugacy_residual": conjugacy_residual(lifted),
        }
        _write(_with(prefix, ".report.json"), _dump_json(doc))
        print(res.summary())
        return EXIT_OK
    if name == "circles2d":
        fw = builtin(name)
        _write(_with(prefix, ".framework.json"), save_framework(fw))
        stress = solve_stress(fw, np.ones(fw.n + 1), 0.0)
        _write(_with(prefix, ".stress.json"), save_stress(stress))
        res = residual_report(fw, stress)
        _write(
            _with(prefix, ".report.json"),
            _dump_json({"name": name, "residual_max": res.max_normalized}),
        )
        print(res.summary())
        return EXIT_OK
    if name == "perturbed2d":
        fw = builtin(name, seed=args.seed)
        _write(_with(prefix, ".framework.json"), save_framework(fw))
        report = regularity_report(fw)
        _write(
            _with(prefix, ".report.json"),
            _dump_json(
                {
                    "name": name,
                    "regularity_passed": report.passed,
                    "min_forward": report.min_forward,
                    "min_backward": report.min_backward,
                }
            ),
        )
        print(report.summary())
        return EXIT_OK
    raise SchemaError(f"unknown demo {name!r}")


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="striplift",
        description="Self-stresses, liftings, and projections of semi-discrete planar frameworks",
    )
    sub = top.add_subparsers(dest="command", required=True)

    flags = {
        "input": dict(required=True, metavar="PATH", help="input document path"),
        "stress": dict(required=True, metavar="PATH", help="stress document path"),
        "grid": dict(type=int, default=None, metavar="N",
                     help="override the grid panel count (even, >= 16)"),
        "tol": dict(type=float, default=DEFAULT_TOL, metavar="X",
                    help="tolerance override (default 1e-6)"),
        "output": dict(default=None, metavar="PATH", help="output path"),
        "format": dict(help="output file format"),
        "seed": dict(type=int, default=0, metavar="S"),
        "force": dict(action="store_true", help="lift even when the residual gate fails"),
        "reproducible": dict(action="store_true",
                             help="omit timestamps for byte-identical outputs"),
    }

    def command(name, fn, help, names, **overrides):
        """Subparser `name` with the flags `names`; overrides update a flag's settings."""
        p = sub.add_parser(name, help=help)
        for flag in names:
            p.add_argument(f"--{flag}", **{**flags[flag], **overrides.get(flag, {})})
        p.set_defaults(fn=fn)
        return p

    command("validate", cmd_validate, "schema and regularity check", ("input", "grid"))

    p = command("solve", cmd_solve, "march a stress from initial data", ("input", "grid", "output"))
    p.add_argument("--lambda0", required=True,
                   help="comma-separated curve stresses at t=0, one per curve 0..n")
    p.add_argument("--mu-minus1", default="0", dest="mu_minus1",
                   help="prescribed first boundary edge stress: a number or a "
                        'coordinate object like {"poly": [0, 1], "trig": []}')

    stress_grid = dict(help="the stress document's panel count N; any other value is rejected")
    command("check", cmd_check, "equilibrium residual and path-independence spread",
            ("input", "stress", "grid", "tol", "seed", "output"), grid=stress_grid)

    command("lift", cmd_lift, "build the lifted surface of a self-stress",
            ("input", "stress", "grid", "tol", "force", "format", "reproducible", "output"),
            format=dict(choices=("obj", "json"), default="obj"), output=dict(required=True),
            grid=stress_grid)

    command("project", cmd_project, "project a spatial surface and induce its stress",
            ("input", "grid", "tol", "output"))

    command("onestrip", cmd_onestrip, "one-strip liftability analysis (n=1)",
            ("input", "grid", "tol", "format", "output"),
            format=dict(choices=("json", "csv"), default="json"))

    p = command("demo", cmd_demo, "write a built-in scenario bundle",
                ("tol", "seed", "reproducible", "output"))
    p.add_argument("name", help="translational3d | cylinder-strip3d | circles2d | perturbed2d")

    return top


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error (code 2) or the help (0)
        return exc.code
    grid = getattr(args, "grid", None)
    if grid is not None and (grid < 16 or grid % 2):
        print("error: --grid must be even and >= 16", file=sys.stderr)
        return EXIT_BAD_INPUT
    if getattr(args, "tol", DEFAULT_TOL) <= 0:
        print("error: --tol must be positive", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return args.fn(args)
    except SchemaError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (DegenerateBasisError, DivergenceError) as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (NotSelfStressedError, NotConjugateError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (GridAlignmentError, StripLiftError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
