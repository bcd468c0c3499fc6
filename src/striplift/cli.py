"""Command-line front end.

Subcommands: validate, solve, check, lift, project, onestrip, demo.
Exit codes: 0 success / check passed, 1 check failed, 2 invalid input,
3 numerical degeneracy, 4 internal error (a fault of the program, reported
in one line without a traceback).

One table, `_COMMANDS` with the flag settings of `_FLAGS`, is read by two
paths.  `_namespace` reads a well-formed command line straight off it and
builds no parser.  Any other argv (help, an abbreviation, "--flag=value",
an error) goes to argparse through `_parser`, which builds every command
with its flags from the same table, so usage, help and error text and their
exit codes are argparse's own.  A command refuses its input by raising; the
error map of `main` turns each refusal into its one-line message and exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import sys
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateBasisError,
    DivergenceError,
    NotConjugateError,
    NotRegularError,
    NotSelfStressedError,
    SchemaError,
    StripLiftError,
)
from .framework import (
    AnalyticSurface3D,
    CoordFunction,
    Framework,
    builtin,
    framework_from_doc,
    load_framework,
    parse_document,
    save_framework,
    _coord_from_doc,
    _dump_json,
)
from .geomcore import regularity_report
from .lifting import (
    _gated_lifting,
    build_lifting,
    conjugacy_residual,
    export_obj,
    lifting_from_doc,
    path_independence_spread,
    save_lifting,
)
from .numerics import DEFAULT_TOL, ratio
from .onestrip import onestrip_verify
from .projection import developability_report, induced_stress, project
from .statics import load_stress, residual_report, save_stress, solve_stress

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_INTERNAL = 4


def _os_error(verb, path, exc: OSError) -> SchemaError:
    """A path the user named cannot be used: one line, exit 2."""
    where = f" ({exc.filename})" if exc.filename not in (None, str(path)) else ""
    return SchemaError(f"cannot {verb} {path}: {exc.strerror or exc}{where}")


def _read(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise SchemaError(f"{'not a file' if p.exists() else 'no such file'}: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except OSError as exc:
        raise _os_error("read", path, exc) from None
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
        raise SchemaError(f"cannot read {path}: {reason}") from None


def _with(prefix: Path, ext: str) -> Path:
    return prefix.parent / (prefix.name + ext)


def _write(path: Path, text: str):
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:  # files written before this one stay
        raise _os_error("write", path, exc) from None
    print(f"wrote {path}")


def _load_planar(args) -> Framework:
    obj = load_framework(_read(args.input), grid_panels=args.grid)
    if not isinstance(obj, Framework):
        raise SchemaError("expected a planar (dimension 2) framework document")
    return obj


def _parse_mu_spec(text: str) -> CoordFunction:
    try:
        doc = {"poly": [float(text)]}
    except ValueError:
        doc = parse_document(text)
    if not isinstance(doc, dict):
        raise SchemaError("edge stress spec must be a number or a coordinate object")
    return _coord_from_doc(doc, "--mu-minus1")


def _stored_grid(args, grid, document):
    """A sampled document keeps its own grid: --grid may only repeat its N."""
    if args.grid not in (None, grid.N):
        raise SchemaError(f"--grid {args.grid} differs from the {document}'s {grid.N}", field="N")


def _print_residual(res, tol: float, lead: str = "") -> bool:
    """Print the residual line with its grid, tolerance and verdict; whether it passed."""
    passed = res.max_normalized < tol
    print(f"{lead}{res.summary()} on N = {res.grid.N}, tolerance {tol:g}: "
          f"{'PASS' if passed else 'FAIL'}")
    return passed


def _load_stressed(args):
    """The framework and stress of check and lift."""
    fw, stress = _load_planar(args), load_stress(_read(args.stress))
    _stored_grid(args, stress.grid, "stress document")
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
        raise NotRegularError(report)
    lambda0 = [float(v) for v in args.lambda0.split(",")]
    mu = _parse_mu_spec(args.mu_minus1)
    stress = solve_stress(fw, lambda0, mu)
    passed = _print_residual(residual_report(fw, stress), args.tol)
    if args.output:
        _write(Path(args.output), save_stress(stress))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_check(args) -> int:
    fw, stress = _load_stressed(args)
    res = residual_report(fw, stress)
    passed = _print_residual(res, args.tol)
    spread, scale, paths = path_independence_spread(fw, stress)
    print(
        f"height spread over all paths to ({fw.n}, T): {spread:.6e} "
        f"(height scale {scale:.6e})"
    )
    if args.output:
        doc = {
            "residual_max": res.max_normalized,
            "residual_argmax": list(res.argmax),
            "spread": spread,
            "spread_paths": paths,
            "height_scale": scale,
            "tolerance": args.tol,
        }
        _write(Path(args.output), _dump_json(doc))
    return EXIT_OK if passed and ratio(spread, scale) < args.tol else EXIT_CHECK_FAILED


def cmd_lift(args) -> int:
    fw, stress = _load_stressed(args)
    surface = build_lifting(fw, stress, tol=args.tol, force=args.force)
    if surface.path_dependent:
        print("warning: stress failed the residual gate; output is path-dependent")
    conjugacy = conjugacy_residual(surface)  # a non-finite defect raises before any file is written
    if args.format == "obj":
        _write(Path(args.output), export_obj(surface, reproducible=args.reproducible))
    else:
        _write(Path(args.output), save_lifting(surface))
    print(f"conjugacy residual {conjugacy:.6e}")
    return EXIT_OK


def cmd_project(args) -> int:
    doc = parse_document(_read(args.input))
    if isinstance(doc, dict) and doc.get("kind") == "lifted_surface":
        surface = lifting_from_doc(doc)
        _stored_grid(args, surface.grid, "lifting dump")
    else:
        surface = framework_from_doc(doc, grid_panels=args.grid)
        if not isinstance(surface, AnalyticSurface3D):
            raise SchemaError("project expects a dimension-3 document or a lifting dump")
    proj = project(surface)
    worst, where = developability_report(proj)
    print(f"developability defect max {worst:.6e} at {where}")
    out = Path(args.output) if args.output else None
    if list(proj.z_indices) != list(proj.framework.curve_indices):
        print("heights cover only part of the curves; no stress document written")
        if out is not None:
            _write(_with(out, ".framework.json"), save_framework(proj.framework))
        return EXIT_OK if worst < args.tol else EXIT_CHECK_FAILED
    # a refused induced stress raises before either file is written
    stress = induced_stress(proj, conjugacy_tol=args.tol)
    passed = _print_residual(residual_report(proj.framework, stress), args.tol, "induced stress ")
    if out is not None:
        _write(_with(out, ".framework.json"), save_framework(proj.framework))
        _write(_with(out, ".stress.json"), save_stress(stress))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


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
        stress = induced_stress(proj, conjugacy_tol=args.tol)
        _write(_with(prefix, ".stress.json"), save_stress(stress))
        res = residual_report(proj.framework, stress)
        lifted = _gated_lifting(proj.framework, stress, res, tol=args.tol)
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
        _print_residual(res, args.tol)
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
        _print_residual(res, args.tol)
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


_FLAGS = {
    "--input": dict(required=True, metavar="PATH", help="input document path"),
    "--stress": dict(required=True, metavar="PATH", help="stress document path"),
    "--grid": dict(type=int, default=None, metavar="N",
                   help="override the grid panel count (even, >= 4, (n+3)(N+1) <= 2**22)"),
    "--tol": dict(type=float, default=DEFAULT_TOL, metavar="X",
                  help="tolerance override (default 1e-6)"),
    "--output": dict(default=None, metavar="PATH", help="output path"),
    "--format": dict(help="output file format"),
    "--seed": dict(type=int, default=0, metavar="S"),
    "--force": dict(action="store_true", help="lift even when the residual gate fails"),
    "--reproducible": dict(action="store_true",
                           help="omit timestamps for byte-identical outputs"),
    "--lambda0": dict(required=True,
                      help="comma-separated curve stresses at t=0, one per curve 0..n"),
    "--mu-minus1": dict(default="0",
                        help="prescribed first boundary edge stress: a number or a "
                             'coordinate object like {"poly": [0, 1], "trig": []}'),
    "name": dict(help="translational3d | cylinder-strip3d | circles2d | perturbed2d"),
}

_STRESS_GRID = dict(help="the stress document's panel count N; any other value is rejected")

# (name, function, help, flags, overrides): an override updates a flag's settings
_COMMANDS = (
    ("validate", cmd_validate, "schema and regularity check", ("--input", "--grid"), {}),
    ("solve", cmd_solve, "march a stress from initial data",
     ("--input", "--grid", "--tol", "--output", "--lambda0", "--mu-minus1"), {}),
    ("check", cmd_check, "equilibrium residual and path-independence spread",
     ("--input", "--stress", "--grid", "--tol", "--seed", "--output"), {"--grid": _STRESS_GRID}),
    ("lift", cmd_lift, "build the lifted surface of a self-stress",
     ("--input", "--stress", "--grid", "--tol", "--force", "--format", "--reproducible", "--output"),
     {"--format": dict(choices=("obj", "json"), default="obj"), "--output": dict(required=True),
      "--grid": _STRESS_GRID}),
    ("project", cmd_project, "project a spatial surface and induce its stress",
     ("--input", "--grid", "--tol", "--output"), {}),
    ("onestrip", cmd_onestrip, "one-strip liftability analysis (n=1)",
     ("--input", "--grid", "--tol", "--format", "--output"),
     {"--format": dict(choices=("json", "csv"), default="json")}),
    ("demo", cmd_demo, "write a built-in scenario bundle",
     ("--tol", "--seed", "--reproducible", "--output", "name"), {}),
)


def _settings(flag, overrides) -> dict:
    """The add_argument settings of `flag` in a command with `overrides`."""
    return {**_FLAGS[flag], **overrides.get(flag, {})}


def _namespace(argv):
    """The namespace argparse gives a well-formed `argv`, read off the command table; None
    for any other argv.

    Well-formed is a subset on which argparse cannot differ: `argv[0]` names a
    command; every later token is an exact long flag of that command, at most
    once, or demo's one positional; a value flag takes the next token, which does
    not start with "-"; the flag's type converts it, and its choices hold it.
    """
    command = next((c for c in _COMMANDS if argv and argv[0] == c[0]), None)
    if command is None:
        return None
    name, fn, _, flags, overrides = command
    settings = {flag: _settings(flag, overrides) for flag in flags}
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):  # a positional
            flag = next((f for f in flags if f[0] != "-" and f not in given), None)
            if flag is None:
                return None
            given[flag] = token
        elif token in settings and token not in given:
            if settings[token].get("action") == "store_true":
                given[token] = True
            else:
                given[token] = next(tokens, "-")  # a missing value reads as one starting with "-"
                if given[token].startswith("-"):
                    return None
        else:
            return None
    args = argparse.Namespace(command=name, fn=fn)
    for flag, spec in settings.items():
        switch = spec.get("action") == "store_true"
        if flag in given:
            value = given[flag]
            if not switch:
                try:
                    value = spec.get("type", str)(value)
                except (TypeError, ValueError):
                    return None
                if "choices" in spec and value not in spec["choices"]:
                    return None
        elif spec.get("required", flag[0] != "-"):  # a positional is required
            return None
        else:
            value = spec.get("default", False if switch else None)
        setattr(args, flag.lstrip("-").replace("-", "_"), value)
    return args


def _parser() -> argparse.ArgumentParser:
    """The argparse parser of every command and its flags, built from the command table."""
    top = argparse.ArgumentParser(
        prog="striplift",
        description="Self-stresses, liftings, and projections of semi-discrete planar frameworks",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, fn, help, flags, overrides in _COMMANDS:
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        for flag in flags:
            p.add_argument(flag, **_settings(flag, overrides))
    return top


@functools.cache
def _keep_freed_heap() -> None:
    """Raise glibc's mmap and trim thresholds: reuse freed heap pages, not fault in new ones."""
    with contextlib.suppress(OSError, TypeError, AttributeError):  # not glibc: no C library or mallopt
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at glibc's maximum
        libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_heap()
    argv = sys.argv[1:] if argv is None else argv
    args = _namespace(argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:  # argparse has printed the usage error (code 2) or the help (0)
            return exc.code
    if not 0 < getattr(args, "tol", DEFAULT_TOL) < float("inf"):  # refuses nan too
        print("error: --tol must be positive and finite", file=sys.stderr)
        return EXIT_BAD_INPUT
    if getattr(args, "seed", 0) < 0:
        print("error: --seed must be a non-negative integer", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return args.fn(args)
    except (DegenerateBasisError, DivergenceError) as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (NotSelfStressedError, NotConjugateError, NotRegularError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (StripLiftError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: {' '.join(str(exc).splitlines())}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
