import ast
import inspect
import json
import sys

import numpy as np
import pytest

import striplift as sl
from striplift import framework, geomcore
from striplift.cli import main
from striplift.statics import load_stress, save_stress


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

    def test_missing_file_exit_2(self):
        assert main(["validate", "--input", "/nonexistent/x.json"]) == 2

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
