import argparse
import ast
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import striplift as sl
from striplift import cli, framework, geomcore
from striplift.cli import (
    cmd_check,
    cmd_demo,
    cmd_lift,
    cmd_onestrip,
    cmd_project,
    cmd_solve,
    cmd_validate,
    main,
)
from striplift.numerics import DEFAULT_TOL
from striplift.statics import load_stress, save_stress

from conftest import prefix_rule_heights, random_jump_nodes


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """Framework, surface, and stress documents shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    surface = sl.builtin("translational3d")
    proj = sl.project(surface)
    stress = sl.induced_stress(proj)
    paths = {
        "surface": root / "surface.json",
        "framework": root / "framework.json",
        "stress": root / "stress.json",
        "bad_stress": root / "bad_stress.json",
        "collapsed": root / "collapsed.json",
        "truncated": root / "truncated.json",
        "onestrip": root / "onestrip.json",
        "circle1": root / "circle1.json",
        "lifting": root / "lifting.json",
    }
    paths["surface"].write_text(sl.save_framework(surface))
    paths["framework"].write_text(sl.save_framework(proj.framework))
    paths["stress"].write_text(save_stress(stress))
    bad_mu = stress.mu.copy()
    bad_mu[1] *= 1.2
    paths["bad_stress"].write_text(
        save_stress(sl.StressField(stress.grid, stress.lam, bad_mu))
    )
    line = {"poly": [0.0, 1.0]}
    collapsed = {
        "dimension": 2,
        "T": 1.0,
        "n": 0,
        "curves": [
            {"index": -1, "x": line, "y": {"poly": [-1.0]}},
            {"index": 0, "x": line, "y": {"poly": [0.0]}},
            {"index": 1, "x": line, "y": {"poly": [0.0]}},
        ],
    }
    paths["collapsed"].write_text(json.dumps(collapsed))
    paths["truncated"].write_text(sl.save_framework(proj.framework)[:200])
    cyl = sl.project(sl.builtin("cylinder-strip3d"))
    paths["onestrip"].write_text(sl.save_framework(cyl.framework))
    paths["circle1"].write_text(sl.save_framework(sl.builtin("circles2d", n=0)))
    paths["lifting"].write_text(sl.save_lifting(sl.build_lifting(proj.framework, stress)))
    return root, paths


@pytest.fixture(scope="module")
def perturbed_bundle(tmp_path_factory):
    """The framework file of `demo perturbed2d` (seed 0)."""
    prefix = tmp_path_factory.mktemp("perturbed") / "p"
    assert main(["demo", "perturbed2d", "--output", str(prefix)]) == 0
    return prefix.parent / "p.framework.json"


class TestValidate:
    def test_pass_exit_0(self, docs):
        _, p = docs
        assert main(["validate", "--input", str(p["framework"])]) == 0

    def test_regularity_fail_exit_1(self, docs):
        _, p = docs
        assert main(["validate", "--input", str(p["collapsed"])]) == 1

    def test_truncated_file_exit_2(self, docs, capsys):
        _, p = docs
        assert main(["validate", "--input", str(p["truncated"])]) == 2
        assert "invalid input" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert main(["validate", "--input", "/nonexistent/x.json"]) == 2
        assert capsys.readouterr().err == "invalid input: no such file: /nonexistent/x.json\n"

    def test_directory_input_is_not_a_file_exit_2(self, tmp_path, capsys):
        assert main(["validate", "--input", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"invalid input: not a file: {tmp_path}\n"

    def test_surface_document_validates_projection(self, docs):
        _, p = docs
        assert main(["validate", "--input", str(p["surface"])]) == 0

    def test_irregular_surface_fails_exit_1(self, tmp_path, capsys):
        # lines along the x axis: every tangent runs along its edges, in the
        # plane and on the surface above it
        for dimension in (2, 3):
            curves = []
            for i in range(-1, 3):
                curve = {"index": i, "x": {"poly": [float(i), 1.0]}, "y": {"poly": [0.0]}}
                if dimension == 3:
                    curve["z"] = {"poly": [0.1 * i]}
                curves.append(curve)
            path = tmp_path / f"lines{dimension}.json"
            path.write_text(json.dumps({"dimension": dimension, "T": 1.0, "n": 1, "curves": curves}))
            assert main(["validate", "--input", str(path)]) == 1
            assert "regularity FAIL" in capsys.readouterr().out

    def test_force_flag_rejected_exit_2(self, docs):
        _, p = docs
        assert main(["validate", "--input", str(p["framework"]), "--force"]) == 2

    def test_bad_grid_flag(self, docs):
        _, p = docs
        assert main(["validate", "--input", str(p["framework"]), "--grid", "7"]) == 2

    def test_overflowing_frequency_exit_2(self, tmp_path, capsys):
        # freq**2 overflows to inf: the jet table names the curve, no traceback
        line = {"poly": [0.0, 1.0]}
        wavy = {"poly": [0.0], "trig": [{"amp": 0.1, "freq": 1e300, "phase": 0.0}]}
        doc = {
            "dimension": 2,
            "T": 1.0,
            "n": 0,
            "curves": [
                {"index": -1, "x": line, "y": {"poly": [-1.0]}},
                {"index": 0, "x": line, "y": wavy},
                {"index": 1, "x": line, "y": {"poly": [1.0]}},
            ],
        }
        path = tmp_path / "freq.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--input", str(path)]) == 2
        assert "jet of curve 0 is not finite at t=0.0" in capsys.readouterr().err


def _reading(kind, p, path):
    """The command that reads the document `path` of the given kind."""
    return {
        "stress": ["check", "--input", str(p["framework"]), "--stress", str(path)],
        "lifting": ["project", "--input", str(path)],
        "framework": ["validate", "--input", str(path)],
    }[kind]


class TestDocumentNumbers:
    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("stress", "N", 16.9),
            ("stress", "T", True),
            ("lifting", "N", [1]),
            ("lifting", "N", None),
            ("lifting", "T", "1.6"),
            ("framework", "T", True),
            ("framework", "n", True),
        ],
    )
    def test_bad_number_exit_2_with_field(self, docs, tmp_path, capsys, kind, key, value):
        _, p = docs
        doc = json.loads(p[kind].read_text())
        doc[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(_reading(kind, p, bad)) == 2
        assert f"invalid input: {key}: {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("source, command", [
        ("onestrip", ["validate"]), ("onestrip", ["onestrip"]),
        ("onestrip", ["solve", "--lambda0", "1,1"]), ("onestrip", ["check", "--stress", "{stress}"]),
        ("onestrip", ["lift", "--stress", "{stress}", "--output", "{out}"]),
        ("surface", ["project", "--output", "{out}"]),
    ], ids=lambda value: value if isinstance(value, str) else value[0])
    def test_zero_grid_spacing_exit_2(self, docs, tmp_path, capsys, source, command):
        # T = 5e-324 over 256 panels rounds the spacing T / N to 0: every node coincides
        _, p = docs
        doc = json.loads(p[source].read_text())
        doc["T"] = 5e-324
        tiny = tmp_path / "tiny.json"
        tiny.write_text(json.dumps(doc))
        flags = [a.format(stress=p["stress"], out=tmp_path / "out.obj") for a in command[1:]]
        assert main([command[0], "--input", str(tiny), *flags]) == 2
        err = capsys.readouterr().err
        assert err == "invalid input: grid spacing T / N is 0 for T=5e-324, N=256\n"
        assert not (tmp_path / "out.obj").exists()


class TestPanelBound:
    """A panel count past the size rule is invalid input naming N, before any grid or row exists."""

    @pytest.mark.parametrize("N", [2**62, 2**63])
    @pytest.mark.parametrize("command", [
        ["validate", "--input", "{framework}"],
        ["solve", "--input", "{framework}", "--lambda0", "1,1,1,1"],
        ["check", "--input", "{framework}", "--stress", "{stress}"],
        ["project", "--input", "{surface}"],
        ["onestrip", "--input", "{onestrip}"],
    ], ids=lambda argv: argv[0])
    def test_grid_flag_beyond_the_bound_exit_2(self, docs, capsys, command, N):
        _, p = docs
        argv = [a.format(**p) for a in command]
        assert main(argv + ["--grid", str(N)]) == 2
        assert capsys.readouterr().err == (
            f"invalid input: N = {N} is too large: 1 x {N + 1} curve samples exceed "
            "MAX_SAMPLES = 4194304\n"
        )

    @pytest.mark.parametrize("kind, field, command", [
        ("stress", "lambda", "check"), ("stress", "lambda", "lift"), ("lifting", "z", "project"),
    ])
    def test_document_beyond_the_bound_exit_2(self, docs, tmp_path, capsys, kind, field, command):
        _, p = docs
        doc = json.loads(p[kind].read_text())
        doc["N"] = 2**63
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        argv = _reading(kind, p, bad)
        if command == "lift":
            argv = ["lift", *argv[1:], "--output", str(tmp_path / "out.obj")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"invalid input: N: N = {2**63} is too large: 1 x {2**63 + 1} curve samples exceed "
            "MAX_SAMPLES = 4194304\n"
        )
        assert not (tmp_path / "out.obj").exists()


class TestFewestPanels:
    """N = 4 (MIN_PANELS, the five nodes of the stencils) runs every command; N = 2 is
    refused by every reader and by --grid, naming N."""

    def test_every_command_runs_on_four_panels(self, docs, tmp_path):
        _, p = docs
        out = tmp_path / "p4"
        steps = [  # exit 1: four panels leave the residual gate far behind
            (1, ["project", "--input", str(p["surface"]), "--output", str(out)]),
            (0, ["validate", "--input", f"{out}.framework.json"]),
            (0, ["solve", "--input", str(p["circle1"]), "--lambda0", "1", "--output", f"{out}.solved.json"]),
            (1, ["check", "--input", f"{out}.framework.json", "--stress", f"{out}.stress.json"]),
            (0, ["lift", "--input", f"{out}.framework.json", "--stress", f"{out}.stress.json",
                 "--force", "--output", f"{out}.obj"]),
            (0, ["lift", "--input", f"{out}.framework.json", "--stress", f"{out}.stress.json",
                 "--force", "--format", "json", "--output", f"{out}.lifting.json"]),
            (1, ["project", "--input", f"{out}.lifting.json"]),
            (0, ["onestrip", "--input", str(p["onestrip"])]),
        ]
        for code, argv in steps:
            assert _outcome(argv + ["--grid", "4"])[::2] == (code, ""), argv
        for name in ("stress", "solved", "lifting"):
            assert json.loads(Path(f"{out}.{name}.json").read_text())["N"] == 4
        assert "# grid: curves=4 nodes=5" in Path(f"{out}.obj").read_text()

    @pytest.mark.parametrize("argv", [
        ["validate", "--input", "{framework}"],
        ["solve", "--input", "{framework}", "--lambda0", "1,1,1,1"],
        ["check", "--input", "{framework}", "--stress", "{stress}"],
        ["lift", "--input", "{framework}", "--stress", "{stress}", "--output", "{out}"],
        ["project", "--input", "{surface}"],
        ["onestrip", "--input", "{onestrip}"],
    ], ids=lambda argv: argv[0])
    def test_two_panels_on_the_grid_flag_exit_2(self, docs, tmp_path, argv):
        _, p = docs
        argv = [a.format(out=tmp_path / "out.obj", **p) for a in argv]
        assert _outcome(argv + ["--grid", "2"]) == (
            2, "", "invalid input: N must be an even panel count >= 4, got 2\n")
        assert not (tmp_path / "out.obj").exists()

    @pytest.mark.parametrize("kind, command", [
        ("stress", "check"), ("stress", "lift"), ("lifting", "project"),
    ])
    def test_two_panel_document_exit_2(self, docs, tmp_path, kind, command):
        # nodes 0, 128 and 256 of the 256-panel document: a consistent two-panel one,
        # which once reached the stencils' "need at least 5 samples"
        _, p = docs
        doc = json.loads(p[kind].read_text())
        doc["N"] = 2
        for block in {"stress": ("lambda", "mu"), "lifting": ("z",)}[kind]:
            doc[block] = [row[::128] for row in doc[block]]
        bad = tmp_path / "two.json"
        bad.write_text(json.dumps(doc))
        argv = _reading(kind, p, bad)
        if command == "lift":
            argv = ["lift", *argv[1:], "--output", str(tmp_path / "out.obj")]
        assert _outcome(argv) == (2, "", "invalid input: N: N must be an even panel count >= 4, got 2\n")
        assert not (tmp_path / "out.obj").exists()


class TestSolve:
    def test_circle_demo(self, docs, tmp_path):
        _, p = docs
        out = tmp_path / "solved.json"
        code = main(
            [
                "solve",
                "--input", str(p["circle1"]),
                "--lambda0", "1.0",
                "--mu-minus1", "0",
                "--output", str(out),
            ]
        )
        assert code == 0
        stress = load_stress(out.read_text())
        fw = sl.load_framework(p["circle1"].read_text())
        assert sl.residual_report(fw, stress).max_normalized < 1e-7

    def test_zero_seed_gives_zero_stress(self, docs, tmp_path):
        _, p = docs
        out = tmp_path / "zero.json"
        assert main(
            ["solve", "--input", str(p["circle1"]), "--lambda0", "0", "--output", str(out)]
        ) == 0
        stress = load_stress(out.read_text())
        assert np.all(stress.lam == 0.0) and np.all(stress.mu == 0.0)

    def test_degenerate_input_exit_1_with_location(self, docs, capsys):
        _, p = docs
        assert main(["solve", "--input", str(p["collapsed"]), "--lambda0", "1"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "i=0" in out

    def test_incomplete_mu_spec_exit_2_with_field(self, docs, capsys):
        _, p = docs
        spec = '{"trig": [{"amp": 1}]}'
        code = main(["solve", "--input", str(p["circle1"]), "--lambda0", "1.0", "--mu-minus1", spec])
        assert code == 2
        assert "--mu-minus1.trig[0]" in capsys.readouterr().err

    def test_trig_mu_spec(self, docs, tmp_path):
        _, p = docs
        spec = '{"poly": [0.0], "trig": [{"amp": 0.1, "freq": 1.0, "phase": 0.0}]}'
        assert main(
            [
                "solve",
                "--input", str(p["circle1"]),
                "--lambda0", "1.0",
                "--mu-minus1", spec,
                "--output", str(tmp_path / "s.json"),
            ]
        ) == 0


class TestCheck:
    def test_self_stress_passes(self, docs):
        _, p = docs
        code = main(
            ["check", "--input", str(p["framework"]), "--stress", str(p["stress"])]
        )
        assert code == 0

    def test_perturbed_fails(self, docs):
        _, p = docs
        code = main(
            ["check", "--input", str(p["framework"]), "--stress", str(p["bad_stress"])]
        )
        assert code == 1

    def test_negative_seed_exit_2_before_any_output(self, docs, tmp_path, capsys):
        _, p = docs
        argv = ["check", "--input", str(p["framework"]), "--stress", str(p["stress"]),
                "--seed", "-1", "--output", str(tmp_path / "check.json")]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --seed must be a non-negative integer\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_exit_2_before_any_output(self, tmp_path, capsys, tol):
        # a circles2d stress whose mu row 1 is off by 1%: no tolerance may pass it
        assert main(["demo", "circles2d", "--output", str(tmp_path / "c")]) == 0
        stress = load_stress((tmp_path / "c.stress.json").read_text())
        mu = stress.mu.copy()
        mu[1] *= 1.01
        (tmp_path / "bad.json").write_text(save_stress(sl.StressField(stress.grid, stress.lam, mu)))
        capsys.readouterr()
        before = sorted(tmp_path.iterdir())
        fw = str(tmp_path / "c.framework.json")
        for argv in (["check", "--input", fw, "--stress", str(tmp_path / "bad.json"),
                      "--output", str(tmp_path / "check.json")],
                     ["project", "--input", fw, "--output", str(tmp_path / "p")]):
            assert main([*argv, "--tol", tol]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: --tol must be positive and finite\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_spread_paths_reach_the_extremes(self, docs, tmp_path):
        _, p = docs
        out = tmp_path / "check.json"
        assert main(["check", "--input", str(p["framework"]), "--stress", str(p["stress"]),
                     "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        fw, stress = sl.load_framework(p["framework"].read_text()), load_stress(p["stress"].read_text())
        scale, spread, paths = report["height_scale"], report["spread"], report["spread_paths"]
        top, bottom = prefix_rule_heights(fw, stress, [paths["max"], paths["min"]])
        assert abs(top - bottom - spread) <= 1e-13 * scale
        # 20 seeded paths of the oracle walk and the axis path, under the same rule
        sampled = random_jump_nodes(fw.n, stress.grid.N, 20, seed=0) + [[0] * fw.n]
        heights = prefix_rule_heights(fw, stress, sampled)
        assert bottom <= heights.min() and heights.max() <= top
        assert spread >= heights.max() - heights.min()

    def test_seed_changes_nothing(self, docs, tmp_path, capsys):
        _, p = docs
        texts = []
        for seed in ("0", "3"):
            out = tmp_path / f"check{seed}.json"
            assert main(["check", "--input", str(p["framework"]), "--stress", str(p["bad_stress"]),
                         "--seed", seed, "--output", str(out)]) == 1
            texts.append((capsys.readouterr().out.replace(str(out), ""), out.read_text()))
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("factor", [1.0, 2.0**-120])
    def test_wrong_stress_fails_at_every_framework_scale(self, docs, tmp_path, capsys, factor):
        # one mu row 1% off; the residual and the verdict must not depend on units
        _, p = docs
        stress = load_stress(p["stress"].read_text())
        mu = stress.mu.copy()
        mu[1] *= 1.01
        (tmp_path / "wrong.json").write_text(save_stress(sl.StressField(stress.grid, stress.lam, mu)))
        framework = tmp_path / "framework.json"
        framework.write_text(json.dumps(_magnify(json.loads(p["framework"].read_text()), factor)))
        assert main(["check", "--input", str(framework), "--stress", str(tmp_path / "wrong.json")]) == 1
        assert "normalized equilibrium residual max 9.900993e-03" in capsys.readouterr().out

    def test_zero_stress_reads_zero(self, docs, tmp_path, capsys):
        _, p = docs
        stress = load_stress(p["stress"].read_text()).scaled(0.0)
        (tmp_path / "zero.json").write_text(save_stress(stress))
        argv = ["--input", str(p["framework"]), "--stress", str(tmp_path / "zero.json")]
        out = tmp_path / "check.json"
        assert main(["check", *argv, "--output", str(out)]) == 0
        assert "(height scale 0.000000e+00)" in capsys.readouterr().out
        assert json.loads(out.read_text())["height_scale"] == 0.0
        lifted = tmp_path / "lifted.json"
        assert main(["lift", *argv, "--format", "json", "--output", str(lifted)]) == 0
        assert "conjugacy residual 0.000000e+00" in capsys.readouterr().out
        assert not np.any(sl.load_lifting(lifted.read_text()).z)


class TestLift:
    def test_obj_output(self, docs, tmp_path):
        _, p = docs
        out = tmp_path / "lift.obj"
        code = main(
            [
                "lift",
                "--input", str(p["framework"]),
                "--stress", str(p["stress"]),
                "--output", str(out),
                "--reproducible",
            ]
        )
        assert code == 0
        assert out.read_text().startswith("# lifted semi-discrete surface")

    def test_missing_output_exit_2(self, docs, capsys):
        _, p = docs
        assert main(["lift", "--input", str(p["framework"]), "--stress", str(p["stress"])]) == 2
        assert "--output" in capsys.readouterr().err

    def test_failing_stress_without_force_exit_1(self, docs, tmp_path):
        _, p = docs
        code = main(
            [
                "lift",
                "--input", str(p["framework"]),
                "--stress", str(p["bad_stress"]),
                "--output", str(tmp_path / "x.obj"),
            ]
        )
        assert code == 1

    def test_force_lifts_anyway(self, docs, tmp_path, capsys):
        _, p = docs
        out = tmp_path / "forced.json"
        code = main(
            [
                "lift",
                "--input", str(p["framework"]),
                "--stress", str(p["bad_stress"]),
                "--output", str(out),
                "--format", "json",
                "--force",
            ]
        )
        assert code == 0
        assert "path-dependent" in capsys.readouterr().out
        assert json.loads(out.read_text())["path_dependent"] is True


def _magnify(doc, factor):
    """A framework or surface document with every x and y coefficient times a factor."""
    for curve in doc["curves"]:
        for axis in (curve["x"], curve["y"]):
            axis["poly"] = [factor * c for c in axis["poly"]]
            for term in axis.get("trig", []):
                term["amp"] *= factor
    return doc


class TestNonFinite:
    """Overflow ends in exit 2 naming where it arose, and no file is written."""

    @pytest.fixture
    def scaled(self, docs, tmp_path):
        def write(factor):
            stress = load_stress(docs[1]["stress"].read_text())
            path = tmp_path / f"scaled_{factor:g}.json"
            path.write_text(save_stress(stress.scaled(factor)))
            return path

        return write

    def test_overflowing_residual_fails_closed(self, docs, scaled, tmp_path, capsys):
        _, p = docs
        stress, out = scaled(1e306), tmp_path / "x.obj"
        argv = ["--input", str(p["framework"]), "--stress", str(stress)]
        assert main(["lift", *argv, "--output", str(out)]) == 2
        assert not out.exists()
        assert "normalized residual of curve 0 is not finite at t=0.0" in capsys.readouterr().err
        assert main(["check", *argv]) == 2
        assert "nan" not in capsys.readouterr().out

    def test_overflowing_heights_write_nothing(self, docs, scaled, tmp_path, capsys):
        _, p = docs
        out = tmp_path / "x.json"
        code = main(["lift", "--input", str(p["framework"]), "--stress", str(scaled(1.5e308)),
                     "--force", "--format", "json", "--output", str(out)])
        assert code in (2, 3)
        assert not out.exists()
        stdout = capsys.readouterr().out
        assert "nan" not in stdout and "inf" not in stdout

    @pytest.fixture
    def magnified(self, docs, tmp_path):
        """A document (the demo framework by default) with every x and y coefficient times a factor."""
        def write(factor, kind="framework"):
            doc = _magnify(json.loads(docs[1][kind].read_text()), factor)
            path = tmp_path / f"magnified_{kind}_{factor:g}.json"
            path.write_text(json.dumps(doc))
            return path

        return write

    @pytest.mark.parametrize("factor", [1e153, 3e153])
    def test_finite_magnified_heights_keep_the_relative_spread(self, docs, magnified, tmp_path,
                                                               capsys, factor):
        # heights grow with factor**2 and peak at 2.7e306 and 2.4e307: finite, so the
        # verdict and the spread over the height scale are those of the unscaled framework
        _, p = docs
        reports = []
        for framework in (p["framework"], magnified(factor)):
            out = tmp_path / "check.json"
            assert main(["check", "--input", str(framework), "--stress", str(p["stress"]),
                         "--output", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        assert "inf" not in capsys.readouterr().out
        plain, scaled_up = (report["spread"] / report["height_scale"] for report in reports)
        assert f"{plain:.3e}" == "1.378e-11"
        assert scaled_up == pytest.approx(plain, rel=1e-3)

    @pytest.mark.parametrize("factor", [1e154, 2e154])
    def test_overflowing_path_heights_exit_2(self, docs, magnified, capsys, factor):
        # the residual is scale-free and passes at 1.5e-8; the height profiles overflow
        _, p = docs
        assert main(["check", "--input", str(magnified(factor)), "--stress", str(p["stress"])]) == 2
        out, err = capsys.readouterr()
        assert "inf" not in out and "nan" not in out
        where = {1e154: "0.40625", 2e154: "0.13125"}[factor]
        assert f"invalid input: height of curve 0 is not finite at t={where}" in err

    def test_overflowing_strip_defects_write_nothing(self, docs, magnified, tmp_path, capsys):
        _, p = docs
        out = tmp_path / "x.obj"
        argv = ["--input", str(magnified(1e150)), "--stress", str(p["stress"]), "--output", str(out)]
        assert main(["lift", *argv]) == 2
        assert not out.exists()
        stdout, err = capsys.readouterr()
        assert "nan" not in stdout
        assert "invalid input: strip defect of curve 0 is not finite at t=0.0" in err

    @pytest.mark.parametrize("command, kind", [
        ("validate", "surface"), ("validate", "framework"), ("solve", "framework"),
    ])
    def test_overflowing_regularity_determinants_exit_2(self, magnified, capsys, command, kind):
        argv = [command, "--input", str(magnified(1e200, kind))]
        assert main(argv + (["--lambda0", "1,1,1,1"] if command == "solve" else [])) == 2
        out, err = capsys.readouterr()
        assert "nan" not in out and "inf" not in out
        assert "invalid input: det(tangent, forward edge) of curve 0 is not finite at t=0.0" in err

    def test_overflowing_induced_stress_exit_2(self, magnified, tmp_path, capsys):
        # b**2 overflows while the numerators stay finite: mu would read 0, not nan
        prefix = tmp_path / "proj"
        assert main(["project", "--input", str(magnified(1e150, "surface")), "--output", str(prefix)]) == 2
        assert not (tmp_path / "proj.stress.json").exists()
        assert not (tmp_path / "proj.framework.json").exists()
        out, err = capsys.readouterr()
        assert "nan" not in out and "inf" not in out and "induced stress" not in out
        assert "invalid input: squared det(edge_i, tan_i) of curve -1 is not finite at t=0.0" in err

    def test_overflowing_onestrip_exit_2(self, magnified, tmp_path, capsys):
        out_path = tmp_path / "strip.json"
        argv = ["onestrip", "--input", str(magnified(1e150, "onestrip")), "--output", str(out_path)]
        assert main(argv) == 2
        assert not out_path.exists()
        out, err = capsys.readouterr()
        assert out == ""
        assert "invalid input: one-strip normalization scale of curve 0 is not finite at t=0.0" in err

    @pytest.mark.parametrize("factor", [1e160, 1e200, 1e300])
    def test_overflowing_onestrip_determinant_exit_2(self, magnified, tmp_path, capsys, factor):
        # det(edge_0, tan_0) and its threshold overflow: not finite, not degenerate
        out_path = tmp_path / "strip.json"
        argv = ["onestrip", "--input", str(magnified(factor, "onestrip")), "--output", str(out_path)]
        assert main(argv) == 2
        assert not out_path.exists()
        out, err = capsys.readouterr()
        assert out == ""
        assert "invalid input: det(edge_0, tan_0) is not finite at t=0.0" in err

    def test_overflowing_onestrip_scale_exit_2(self, magnified, capsys):
        # the norm bounds overflow while the products stay finite: the criterion would read 0
        assert main(["onestrip", "--input", str(magnified(3.8e38, "onestrip"))]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "invalid input: one-strip normalization scale of curve 0 is not finite at t=0.0" in err

    def test_overflowing_lifting_dump_stencils_exit_2(self, docs, tmp_path, capsys):
        _, p = docs
        doc = json.loads(p["lifting"].read_text())
        doc["z"][0][3] = 1e308
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["project", "--input", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert "nan" not in out
        assert "invalid input: height derivative of curve 0 is not finite at t=0.0" in err

    def test_lambda0_beyond_the_divergence_guard_exit_2(self, tmp_path, capsys):
        fw = tmp_path / "circles.json"
        fw.write_text(sl.save_framework(sl.builtin("circles2d")))
        assert main(["solve", "--input", str(fw), "--lambda0", "1e308,1"]) == 2
        assert "invalid input: lambda0 must stay below" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_mu_spec_names_the_flag(self, docs, capsys, value):
        _, p = docs
        code = main(["solve", "--input", str(p["circle1"]), "--lambda0", "1", "--mu-minus1", value])
        assert code == 2
        err = capsys.readouterr().err
        assert "--mu-minus1: coefficient table contains non-finite entries" in err
        assert "JSON" not in err


class TestProject:
    def test_surface_roundtrip(self, docs, tmp_path):
        _, p = docs
        out = tmp_path / "proj"
        code = main(
            ["project", "--input", str(p["surface"]), "--output", str(out)]
        )
        assert code == 0
        fw = sl.load_framework((tmp_path / "proj.framework.json").read_text())
        stress = load_stress((tmp_path / "proj.stress.json").read_text())
        assert sl.residual_report(fw, stress).max_normalized < 1e-7

    def test_lift_project_roundtrip(self, docs, tmp_path):
        _, p = docs
        lift_out = tmp_path / "lift.json"
        assert main(
            [
                "lift",
                "--input", str(p["framework"]),
                "--stress", str(p["stress"]),
                "--output", str(lift_out),
                "--format", "json",
            ]
        ) == 0
        code = main(["project", "--input", str(lift_out), "--output", str(tmp_path / "back")])
        assert code == 0
        assert (tmp_path / "back.framework.json").exists()
        assert not (tmp_path / "back.stress.json").exists()

    def test_planar_framework_rejected(self, docs):
        _, p = docs
        assert main(["project", "--input", str(p["framework"])]) == 2

    @pytest.mark.parametrize("tol, code", [("1e-2", 0), ("1e-6", 1)])
    def test_exit_gate_reads_tol(self, docs, tol, code):
        # on 32 panels the induced stress's residual is 4.6e-5
        _, p = docs
        assert main(["project", "--input", str(p["surface"]), "--grid", "32", "--tol", tol]) == code

    @pytest.mark.parametrize("tol, code", [("1e-12", 1), ("1e-6", 0)])
    def test_lifting_dump_gate_reads_tol(self, perturbed_bundle, tmp_path, capsys, tol, code):
        # the forced lifting of a marched stress has a developability defect of 7.2e-7
        stress, lifting = tmp_path / "p.stress.json", tmp_path / "p.lifting.json"
        fw = ["--input", str(perturbed_bundle)]
        assert main(["solve", *fw, "--lambda0", "1,1", "--output", str(stress)]) == 0
        assert main(["lift", *fw, "--stress", str(stress), "--force", "--format", "json",
                     "--output", str(lifting)]) == 0
        capsys.readouterr()
        assert main(["project", "--input", str(lifting), "--tol", tol]) == code
        assert "developability defect max 7.17" in capsys.readouterr().out


    def test_lifting_dump_defect_equal_to_the_tolerance_fails(self, docs, tmp_path, capsys):
        # every gate passes strictly below its tolerance
        _, p = docs
        lifting = tmp_path / "l.json"
        assert main(["lift", "--input", str(p["framework"]), "--stress", str(p["stress"]),
                     "--format", "json", "--output", str(lifting)]) == 0
        worst, _ = sl.developability_report(sl.project(sl.load_lifting(lifting.read_text())))
        assert main(["project", "--input", str(lifting), "--tol", repr(worst)]) == 1
        above = repr(float(np.nextafter(worst, np.inf)))
        assert main(["project", "--input", str(lifting), "--tol", above]) == 0
        assert f"developability defect max {worst:.6e}" in capsys.readouterr().out


class TestLiftingDump:
    """A lifting dump must agree with its embedded framework."""

    @pytest.mark.parametrize(
        "key, edit",
        [
            pytest.param("T", lambda T: 1.5 * T, id="T-past-the-framework"),
            pytest.param("n", lambda n: 7, id="n-other-than-the-framework"),
            pytest.param("path_dependent", lambda flag: "no", id="path-dependent-string"),
        ],
    )
    def test_disagreeing_field_exit_2(self, docs, tmp_path, capsys, key, edit):
        _, p = docs
        doc = json.loads(p["lifting"].read_text())
        doc[key] = edit(doc[key])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(_reading("lifting", p, bad)) == 2
        assert f"invalid input: {key}: " in capsys.readouterr().err

    def test_grid_other_than_the_dump_n_exit_2(self, docs, capsys):
        _, p = docs
        argv = ["project", "--input", str(p["lifting"])]
        assert main(argv + ["--grid", "64"]) == 2
        assert "invalid input: N: --grid 64 differs from the lifting dump's 256" in (
            capsys.readouterr().err
        )
        assert main(argv + ["--grid", "256"]) == 0


class TestOneStrip:
    def test_cylinder_passes_with_csv(self, docs, tmp_path):
        _, p = docs
        out = tmp_path / "report.csv"
        code = main(
            [
                "onestrip",
                "--input", str(p["onestrip"]),
                "--output", str(out),
                "--format", "csv",
            ]
        )
        assert code == 0
        assert out.read_text().startswith("t,criterion_residual")

    def test_perturbed_fails(self, tmp_path):
        fw = sl.builtin("perturbed2d", seed=1, amplitude=0.05)
        path = tmp_path / "p.json"
        path.write_text(sl.save_framework(fw))
        assert main(["onestrip", "--input", str(path)]) == 1

    def test_failed_verdict_writes_no_null(self, perturbed_bundle, tmp_path):
        # the equilibrium residual is computed only for a liftable strip
        out = tmp_path / "report.json"
        assert main(["onestrip", "--input", str(perturbed_bundle), "--output", str(out)]) == 1
        text = out.read_text()
        assert "null" not in text
        assert "equilibrium_max" not in json.loads(text)

    def test_wrong_strip_count_exit_2(self, docs):
        _, p = docs
        assert main(["onestrip", "--input", str(p["framework"])]) == 2


class TestDemo:
    def test_translational_bundle_checks_out(self, tmp_path):
        prefix = tmp_path / "demo"
        assert main(["demo", "translational3d", "--output", str(prefix), "--reproducible"]) == 0
        fw = sl.load_framework((tmp_path / "demo.framework.json").read_text())
        stress = load_stress((tmp_path / "demo.stress.json").read_text())
        assert sl.residual_report(fw, stress).max_normalized < 1e-7
        report = json.loads((tmp_path / "demo.report.json").read_text())
        assert report["conjugacy_residual"] < 1e-6

    def test_grid_flag_rejected_exit_2(self, tmp_path):
        # demo bundles use each built-in's own grid, so --grid is not a demo flag
        assert main(["demo", "translational3d", "--grid", "512", "--output", str(tmp_path / "x")]) == 2
        assert not list(tmp_path.iterdir())

    def test_unknown_demo_exit_2(self, tmp_path):
        assert main(["demo", "nonsense", "--output", str(tmp_path / "x")]) == 2

    def test_demo_project_check_chain(self, tmp_path):
        prefix = tmp_path / "demo"
        assert main(["demo", "translational3d", "--output", str(prefix), "--reproducible"]) == 0
        assert main(
            [
                "project",
                "--input", str(tmp_path / "demo.surface.json"),
                "--output", str(tmp_path / "back"),
            ]
        ) == 0
        code = main(
            [
                "check",
                "--input", str(tmp_path / "back.framework.json"),
                "--stress", str(tmp_path / "back.stress.json"),
                "--tol", "1e-7",
            ]
        )
        assert code == 0

    def test_reproducible_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for prefix in (a, b):
            assert main(
                ["demo", "cylinder-strip3d", "--output", str(prefix), "--reproducible"]
            ) == 0
        for ext in (".surface.json", ".framework.json", ".stress.json", ".lifting.obj", ".report.json"):
            pa = tmp_path / ("a" + ext)
            pb = tmp_path / ("b" + ext)
            assert pa.read_bytes() == pb.read_bytes(), ext

    def test_perturbed_demo_seeded(self, tmp_path):
        assert main(
            ["demo", "perturbed2d", "--output", str(tmp_path / "p"), "--seed", "5"]
        ) == 0
        text = (tmp_path / "p.framework.json").read_text()
        fw = sl.builtin("perturbed2d", seed=5)
        assert text == sl.save_framework(fw)

    def test_negative_seed_exit_2_before_any_output(self, tmp_path, capsys):
        assert main(["demo", "perturbed2d", "--output", str(tmp_path / "p"), "--seed", "-3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --seed must be a non-negative integer\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name", ["translational3d", "cylinder-strip3d"])
    def test_one_residual_report_per_demo(self, tmp_path, monkeypatch, name):
        # the report printed by the demo is the one its lifting gate reads
        calls = []
        report = sl.statics.residual_report

        def counted(*args, **kwargs):
            calls.append(args)
            return report(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("striplift") and getattr(module, "residual_report", None) is report:
                monkeypatch.setattr(module, "residual_report", counted)
        assert main(["demo", name, "--output", str(tmp_path / "d"), "--reproducible"]) == 0
        assert len(calls) == 1


def _corrupt(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


class TestDocumentEntries:
    @pytest.mark.parametrize(
        "kind, path, value, field",
        [
            pytest.param("stress", ("lambda", 1, 5), {}, "lambda", id="lambda-object"),
            pytest.param("stress", ("lambda", 0, 3), True, "lambda", id="lambda-bool"),
            pytest.param("stress", ("mu", 0, 0), {}, "mu", id="mu-object"),
            pytest.param("lifting", ("z", 2, 7), {}, "z", id="z-object"),
            pytest.param("lifting", ("framework",), [], "framework", id="framework-array"),
            pytest.param("lifting", ("framework", "dimension"), 2.0, "framework.dimension",
                         id="framework-dimension-float"),
            pytest.param("lifting", ("framework", "curves", 1, "x", "poly", 0), True,
                         "framework.curves[index=0].x.poly", id="framework-poly-bool"),
            pytest.param("framework", ("curves", 3, "index"), "2", "curves[3]", id="index-string"),
            pytest.param("framework", ("curves", 2, "index"), True, "curves[2]", id="index-bool"),
            pytest.param("framework", ("dimension",), 2.0, "dimension", id="dimension-float"),
            pytest.param("framework", ("curves", 1, "x", "poly", 0), True,
                         "curves[index=0].x.poly", id="poly-bool"),
            pytest.param("framework", ("curves", 1, "y", "trig", 0, "amp"), True,
                         "curves[index=0].y.trig[0]", id="trig-bool"),
        ],
    )
    def test_bad_entry_exit_2_with_field(self, docs, tmp_path, capsys, kind, path, value, field):
        _, p = docs
        doc = json.loads(p[kind].read_text())
        _corrupt(doc, path, value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(_reading(kind, p, bad)) == 2
        assert f"invalid input: {field}: " in capsys.readouterr().err


def _nested(levels):
    """An array nested `levels` deep: [[...[]...]]."""
    value = []
    for _ in range(levels - 1):
        value = [value]
    return value


class TestDocumentText:
    """Text no document can hold is exit 2 in one line: never exit 4, never a crash."""

    @pytest.mark.parametrize("kind", ["framework", "stress", "lifting"])  # validate, check, project
    def test_deep_nesting_exit_2_naming_the_limit(self, docs, tmp_path, capsys, kind):
        _, p = docs
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 10**5 + "]" * 10**5)
        assert main(_reading(kind, p, deep)) == 2
        err = capsys.readouterr().err
        assert f"deeper than {framework.MAX_NESTING} levels" in err and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["framework", "stress", "lifting"])
    def test_million_deep_document_exit_2_in_a_child_process(self, docs, tmp_path, kind):
        # a parser that recursed into this text would overflow the C stack: run it in a child
        _, p = docs
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 10**6 + "]" * 10**6)
        paths = [str(Path(sl.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        run = subprocess.run([sys.executable, "-m", "striplift.cli", *_reading(kind, p, deep)],
                             capture_output=True, text=True, env=env, timeout=300)
        assert run.returncode == 2, run.stderr
        assert run.stderr.startswith("invalid input: invalid JSON: ") and run.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "kind, path, levels, field",
        [
            ("stress", ("T",), 1, "T"),
            ("framework", ("curves", 2, "index"), 3, "curves[2]"),
            ("lifting", ("path_dependent",), 1, "path_dependent"),
        ],
    )
    def test_value_nested_to_the_limit_exit_2_in_one_line(self, docs, tmp_path, capsys, kind, path,
                                                          levels, field):
        # the document nests exactly MAX_NESTING deep: `levels` around the value, the rest inside it
        _, p = docs
        doc = json.loads(p[kind].read_text())
        _corrupt(doc, path, _nested(framework.MAX_NESTING - levels))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(_reading(kind, p, bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: {field}: ") and err.endswith("got an array\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kind, path", [("stress", ("lambda", 1, 5)),
                                            ("framework", ("curves", 1, "x", "poly", 0))])
    def test_integer_beyond_the_double_range_exit_2(self, docs, tmp_path, capsys, kind, path):
        _, p = docs
        doc = json.loads(p[kind].read_text())
        _corrupt(doc, path, 10**400)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(_reading(kind, p, bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: invalid JSON: ") and err.count("\n") == 1

    def test_integer_beyond_int64_reads_as_its_double(self, docs):
        _, p = docs
        doc = json.loads(p["stress"].read_text())
        doc["lambda"][1][5] = 10**30
        assert load_stress(json.dumps(doc)).lam[1, 5] == 1e30
        doc = json.loads(p["framework"].read_text())
        doc["curves"][1]["x"]["poly"][0] = 10**30
        assert sl.load_framework(json.dumps(doc)).curve(0).coords[0].poly[0] == 1e30


class TestStressGrid:
    @pytest.mark.parametrize("command", ["check", "lift"])
    def test_grid_other_than_the_stress_n_exit_2(self, tmp_path, capsys, command):
        prefix = tmp_path / "demo"
        assert main(["demo", "translational3d", "--output", str(prefix), "--reproducible"]) == 0
        out = tmp_path / "out"
        argv = [command, "--input", f"{prefix}.framework.json",
                "--stress", f"{prefix}.stress.json", "--output", str(out)]
        capsys.readouterr()
        assert main(argv + ["--grid", "128"]) == 2
        assert "invalid input: N: --grid 128 differs from the stress document's 256" in (
            capsys.readouterr().err
        )
        assert not out.exists()
        assert main(argv + ["--grid", "256"]) == 0


class TestRegularityScans:
    """Loading only parses: a command scans regularity only where it reports it."""

    @pytest.mark.parametrize(
        "argv, scans",
        [
            (["validate", "--input", "{framework}"], 1),
            (["validate", "--input", "{surface}"], 1),
            (["solve", "--input", "{circle1}", "--lambda0", "1"], 1),
            (["check", "--input", "{framework}", "--stress", "{stress}"], 0),
            (["lift", "--input", "{framework}", "--stress", "{stress}", "--output", "{out}"], 0),
            (["onestrip", "--input", "{onestrip}"], 0),
        ],
    )
    def test_one_scan_per_report(self, docs, tmp_path, monkeypatch, argv, scans):
        _, p = docs
        calls = []
        scan = geomcore.regularity_report

        def counted(*args, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("striplift") and getattr(module, "regularity_report", None) is scan:
                monkeypatch.setattr(module, "regularity_report", counted)
        assert main([a.format(**p, out=tmp_path / "out.obj") for a in argv]) == 0
        assert len(calls) == scans

    def test_loader_does_not_judge(self):
        tree = ast.parse(inspect.getsource(framework))
        imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "geomcore" not in imported


def reference_parser() -> argparse.ArgumentParser:
    """The parser with every flag of every command, built on each call: the oracle of `cli._parser`."""
    top = argparse.ArgumentParser(
        prog="striplift",
        description="Self-stresses, liftings, and projections of semi-discrete planar frameworks",
    )
    sub = top.add_subparsers(dest="command", required=True)

    flags = {
        "input": dict(required=True, metavar="PATH", help="input document path"),
        "stress": dict(required=True, metavar="PATH", help="stress document path"),
        "grid": dict(type=int, default=None, metavar="N",
                     help="override the grid panel count (even, >= 4, (n+3)(N+1) <= 2**22)"),
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



def _outcome(argv):
    """Exit code, stdout and stderr of `main(argv)`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


_COMMAND_NAMES = ("validate", "solve", "check", "lift", "project", "onestrip", "demo")



class TestDevelopabilityPasses:
    """A projection judges its strips once, however many checks read the defects."""

    @pytest.mark.parametrize("argv, judged", [
        (["project", "--input", "{surface}", "--output", "{out}"], ["AnalyticSurface3D"]),
        # the demo's lifting is judged too, for its conjugacy residual
        (["demo", "translational3d", "--output", "{out}", "--reproducible"],
         ["AnalyticSurface3D", "SampledLifting"]),
    ])
    def test_one_strip_defect_pass_per_surface(self, docs, tmp_path, monkeypatch, argv, judged):
        _, p = docs
        calls = []
        defects = sl.lifting.strip_defects

        def counted(surface, *args, **kwargs):
            calls.append(type(surface).__name__)
            return defects(surface, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("striplift") and getattr(module, "strip_defects", None) is defects:
                monkeypatch.setattr(module, "strip_defects", counted)
        assert main([a.format(**p, out=tmp_path / "out") for a in argv]) == 0
        assert calls == judged

class TestParser:
    """One command's flags per call, with the usage, help and errors of the full parser."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize(
        "argv",
        [
            [], ["-h"], ["--he"], ["bogus"], ["bogus", "solve"], ["--", "solve"],
            ["--foo", "solve", "--input", "x", "--lambda0", "1"],
            *([name, "-h"] for name in _COMMAND_NAMES),
            *([name] for name in _COMMAND_NAMES),
            ["solve", "--input", "x"], ["lift", "--input", "x", "--stress", "s"],
            ["lift", "--format", "x"], ["solve", "--input", "x", "--lambda0", "1", "extra"],
            ["demo", "a", "b"], ["check", "--bogus"], ["validate", "--lambda0", "1"],
            ["check", "--input", "a", "--stress", "s", "--seed", "-1"],
        ],
        ids=" ".join,
    )
    def test_main_matches_the_full_parser(self, monkeypatch, argv):
        ours = _outcome(argv)
        monkeypatch.setattr(cli, "_parser", lambda argv: reference_parser())
        assert ours == _outcome(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--input", "a", "--grid", "64"],
            ["solve", "--input", "a", "--lambda0", "1,2", "--mu-minus1", "0.5", "--output", "o"],
            ["solve", "--input", "a", "--lambda0", "1"],
            ["check", "--input", "a", "--stress", "s", "--seed", "3", "--tol", "1e-3"],
            ["lift", "--input", "a", "--stress", "s", "--output", "o", "--format", "json", "--force"],
            ["lift", "--input", "a", "--stress", "s", "--output", "o", "--reproducible"],
            ["project", "--input", "a", "--output", "o"],
            ["onestrip", "--input", "a", "--format", "csv"],
            ["demo", "circles2d", "--reproducible", "--seed", "2"],
            ["demo", "solve"],
        ],
        ids=" ".join,
    )
    def test_namespace_matches_the_full_parser(self, argv):
        assert cli._parser(argv).parse_args(argv) == reference_parser().parse_args(argv)

    def test_only_the_invoked_command_gets_flags(self, docs, tmp_path, monkeypatch):
        _, p = docs
        calls = []
        add = argparse.ArgumentParser.add_argument

        def counted(self, *args, **kwargs):
            calls.append(args)
            return add(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
        argv = ["solve", "--input", str(p["circle1"]), "--lambda0", "1",
                "--output", str(tmp_path / "s.json")]
        assert main(argv) == 0
        # --input --grid --output --lambda0 --mu-minus1, no positional, and -h of striplift and solve
        assert len(calls) <= 5 + 0 + 2

    @pytest.mark.parametrize(
        "argv, parsers",
        [
            *(([name, "-h"], 2) for name in _COMMAND_NAMES),
            (["check", "--input", "{framework}", "--stress", "{stress}"], 2),
            (["demo", "circles2d", "--output", "{out}"], 2),
            (["-h"], 1), (["bogus"], 1), ([], 1),
        ],
        ids=lambda v: (" ".join(v) or "no argv") if isinstance(v, list) else f"{v} parsers",
    )
    def test_one_parser_per_invoked_command(self, docs, tmp_path, monkeypatch, capsys, argv, parsers):
        # the top-level parser, plus the parser of the command argparse dispatches to
        _, p = docs
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        main([a.format(**p, out=tmp_path / "out") for a in argv])
        assert len(built) == parsers


class TestInternalError:
    def test_unexpected_exception_exit_4_in_one_line(self, docs, monkeypatch, capsys):
        _, p = docs

        def broken(fw):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(cli, "regularity_report", broken)
        assert main(["validate", "--input", str(p["framework"])]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["internal error: ZeroDivisionError: float division by zero"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
    def test_interrupt_and_exit_pass_through(self, docs, monkeypatch, exc):
        _, p = docs

        def interrupted(fw):
            raise exc()

        monkeypatch.setattr(cli, "regularity_report", interrupted)
        with pytest.raises(exc):
            main(["validate", "--input", str(p["framework"])])


class TestUnusablePath:
    """A path the system cannot read or write is invalid input: exit 2 in one line."""

    def _refused(self, capsys, argv, path, verb="write"):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"invalid input: cannot {verb} {path}: "), err

    def test_check_output_is_a_directory(self, docs, tmp_path, capsys):
        _, p = docs
        argv = ["check", "--input", str(p["framework"]), "--stress", str(p["stress"]),
                "--output", str(tmp_path)]
        self._refused(capsys, argv, tmp_path)

    def test_lift_output_under_a_regular_file(self, docs, tmp_path, capsys):
        _, p = docs
        (tmp_path / "f").write_text("")
        out = tmp_path / "f" / "x.obj"
        argv = ["lift", "--input", str(p["framework"]), "--stress", str(p["stress"]),
                "--output", str(out)]
        self._refused(capsys, argv, out)

    def test_demo_prefix_under_a_regular_file(self, tmp_path, capsys):
        (tmp_path / "f").write_text("")
        argv = ["demo", "circles2d", "--output", str(tmp_path / "f" / "c")]
        self._refused(capsys, argv, tmp_path / "f" / "c.framework.json")

    def test_unreadable_input(self, docs, monkeypatch, capsys):
        _, p = docs

        def refused(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", refused)
        self._refused(capsys, ["validate", "--input", str(p["framework"])], p["framework"], "read")


# every command that reads a document of the kind, {mutant} standing for the document
_FUZZ_COMMANDS = {
    "framework": (
        ["validate", "--input", "{mutant}"],
        ["solve", "--input", "{mutant}", "--lambda0", "1,1,1,1", "--output", "{out}.json"],
        ["check", "--input", "{mutant}", "--stress", "{stress}", "--output", "{out}.json"],
        ["lift", "--input", "{mutant}", "--stress", "{stress}", "--output", "{out}.obj"],
        ["onestrip", "--input", "{mutant}", "--output", "{out}.json"],
    ),
    "stress": (
        ["check", "--input", "{framework}", "--stress", "{mutant}", "--output", "{out}.json"],
        ["lift", "--input", "{framework}", "--stress", "{mutant}", "--output", "{out}.obj"],
    ),
    "surface": (
        ["validate", "--input", "{mutant}"],
        ["project", "--input", "{mutant}", "--output", "{out}"],
    ),
    "lifting": (
        ["project", "--input", "{mutant}", "--output", "{out}"],
    ),
    "onestrip": (
        ["validate", "--input", "{mutant}"],
        ["solve", "--input", "{mutant}", "--lambda0", "1,1", "--output", "{out}.json"],
        ["onestrip", "--input", "{mutant}", "--output", "{out}.json"],
        ["onestrip", "--input", "{mutant}", "--format", "csv", "--output", "{out}.csv"],
    ),
}
_FUZZ_VALUES = (None, True, 1e308, -1e308, 1e200, "x", [], {}, 0, -1, 1e-320, 3.5,
                2**53 + 1, 2**63, 10**400, 5e-324)
_DELETE = "<delete>"
_NON_VALUES = re.compile(r"\b(nan|inf|None)\b")


def _assert_finite_numbers(path):
    """A written file holds finite numbers only: JSON read back through parse_document holds no
    null and no non-finite float, and every field of an OBJ v/f row or a CSV row is one."""
    text = path.read_text()
    if path.suffix == ".json":
        values = [framework.parse_document(text)]
        while values:
            value = values.pop()
            if isinstance(value, (dict, list)):
                values.extend(value.values() if isinstance(value, dict) else value)
            else:
                assert value is not None and (type(value) is not float or np.isfinite(value)), path
        return
    lines = text.splitlines()
    if path.suffix == ".obj":
        rows = [line.split(" ")[1:] for line in lines if line[:2] in ("v ", "f ")]
        assert len(rows) == len([line for line in lines if not line.startswith("#")]), path
    else:
        rows = [line.split(",") for line in lines[1:]]  # below the CSV header
    assert np.isfinite([float(field) for row in rows for field in row]).all(), path


def _fuzz(kind, doc, paths):
    """Run every command reading `doc` in place of the `kind` document; judge each outcome
    and every file it writes."""
    with tempfile.TemporaryDirectory() as tmp:
        mutant = Path(tmp) / "mutant.json"
        mutant.write_text(json.dumps(doc))
        for argv in _FUZZ_COMMANDS[kind]:
            argv = [a.format(mutant=mutant, out=Path(tmp) / "out", **paths) for a in argv]
            code, out, err = _outcome(argv)
            assert code in (0, 1, 2, 3), (argv, err)
            assert "Traceback" not in out + err, argv
            assert not _NON_VALUES.search(out + err), (argv, out, err)
            written = [f for f in Path(tmp).iterdir() if f != mutant]
            if code in (2, 3):  # exit 1 may still write its report
                assert written == [], (argv, err)
            for f in written:
                _assert_finite_numbers(f)
                f.unlink()


class TestFuzz:
    """Malformed documents end in a documented exit code, a clean message and no stray file."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_single_field_mutation(self, docs, data):
        _, p = docs
        kind = data.draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
        doc = node = json.loads(p[kind].read_text())
        key = data.draw(st.sampled_from(sorted(node)))
        # descend three times in four, so deep fields are reached as well as top-level ones
        while isinstance(node[key], (dict, list)) and node[key] and data.draw(st.integers(0, 3)):
            node = node[key]
            key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        value = data.draw(st.sampled_from((*_FUZZ_VALUES, _DELETE)))
        if value == _DELETE:
            del node[key]
        else:
            node[key] = value
        _fuzz(kind, doc, p)

    @pytest.mark.parametrize("kind", sorted(_FUZZ_COMMANDS))
    def test_unmutated_document(self, docs, kind):
        # every command succeeds or fails its check, so every file kind is written and judged
        _, p = docs
        _fuzz(kind, json.loads(p[kind].read_text()), p)

    @pytest.mark.parametrize("N", [2**40, 2**52, 2**63])
    @pytest.mark.parametrize("kind", sorted(_FUZZ_COMMANDS))
    def test_grid_flag_past_the_cap(self, docs, tmp_path, kind, N):
        # 2**40 nodes were numpy's 8 TiB MemoryError, exit 4.  No size between the cap and
        # 2**40 is run: a program without the cap could really allocate it.
        _, p = docs
        for argv in _FUZZ_COMMANDS[kind]:
            argv = [a.format(mutant=p[kind], out=tmp_path / "out", **p) for a in argv]
            code, out, err = _outcome(argv + ["--grid", str(N)])
            assert code == 2, (argv, err)
            assert re.match(rf"invalid input: (N = {N} is too large|N: --grid {N} differs)", err), err
            assert list(tmp_path.iterdir()) == [], argv

    @pytest.mark.parametrize(
        "kind, factor",
        [(kind, factor) for kind in ("framework", "surface", "onestrip") for factor in (1e100, 1e160)]
        + [("onestrip", 3.8e38)],
    )
    def test_whole_document_scaling(self, docs, kind, factor):
        _, p = docs
        _fuzz(kind, _magnify(json.loads(p[kind].read_text()), factor), p)
