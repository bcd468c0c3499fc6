import json
import math

import numpy as np
import pytest

import striplift as sl
from striplift.errors import SchemaError
from striplift.framework import (
    AnalyticCurve,
    CoordFunction,
    combine,
    load_framework,
    reparametrized,
    save_framework,
    shifted,
)


def make_line(slope_y=0.0, offset_y=0.0):
    return AnalyticCurve(
        (CoordFunction((0.0, 1.0)), CoordFunction((offset_y, slope_y)))
    )


class TestCoordFunction:
    def test_poly_degree_cap(self):
        with pytest.raises(ValueError):
            CoordFunction(tuple(range(10)))

    def test_trig_term_cap(self):
        with pytest.raises(ValueError):
            CoordFunction((0.0,), tuple((1.0, 1.0, 0.0) for _ in range(17)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            CoordFunction((float("nan"),))

    def test_vectorized_matches_scalar(self):
        cf = CoordFunction((1.0, -0.5, 0.25), ((0.3, 2.0, 0.1),))
        ts = np.linspace(0.0, 2.0, 7)
        batch = cf.derivatives(ts, order=3)
        for j, t in enumerate(ts):
            single = cf.derivatives(float(t), order=3)
            for k in range(4):
                assert batch[k][j] == pytest.approx(single[k], rel=1e-15)


class TestJets:
    def test_line_jet(self):
        fw = sl.Framework(
            1.0, 0, [make_line(offset_y=c) for c in (-1.0, 0.0, 1.0)], sl.Grid(1.0, 16)
        )
        jet = fw.jet(0, 0.3)
        assert np.allclose(jet.p, [0.3, 0.0])
        assert np.array_equal(jet.d1, [1.0, 0.0])
        assert np.array_equal(jet.d2, [0.0, 0.0])
        assert np.array_equal(jet.d3, [0.0, 0.0])

    def test_circle_jet_at_zero(self):
        fw = sl.builtin("circles2d", n=0)
        jet = fw.jet(0, 0.0)
        r = 1.6
        assert np.allclose(jet.p, [r, 0.0], atol=1e-15)
        assert np.allclose(jet.d1, [0.0, r], atol=1e-15)
        assert np.allclose(jet.d2, [-r, 0.0], atol=1e-15)
        assert np.allclose(jet.d3, [0.0, -r], atol=1e-15)

    def test_against_symbolic_oracle(self, translational):
        sympy = pytest.importorskip("sympy")
        _, proj, _ = translational
        fw = proj.framework
        t = sympy.Symbol("t")
        tv = sympy.pi / 3
        for i in (0, 2):
            jet = fw.jet(i, float(math.pi / 3))
            for c, cf in enumerate(fw.curve(i).coords):
                expr = sum(
                    a * t**k for k, a in enumerate(cf.poly)
                ) + sum(a * sympy.sin(f * t + p) for a, f, p in cf.trig)
                for order, got in enumerate((jet.p, jet.d1, jet.d2, jet.d3)):
                    want = float(sympy.diff(expr, t, order).subs(t, tv).evalf(30))
                    assert got[c] == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_jets_match_finite_differences(self):
        for name, kwargs in (
            ("circles2d", {}),
            ("perturbed2d", {"seed": 3}),
            ("translational3d", {}),
            ("cylinder-strip3d", {}),
        ):
            obj = sl.builtin(name, **kwargs)
            h = 1e-5
            for i in (0, 1):
                jet = obj.jet(i, 0.7)
                plus, minus = obj.jet(i, 0.7 + h), obj.jet(i, 0.7 - h)
                assert np.allclose((plus.p - minus.p) / (2 * h), jet.d1, atol=1e-8)
                assert np.allclose(
                    (plus.p - 2 * jet.p + minus.p) / h**2, jet.d2, atol=1e-5
                )
                assert np.allclose((plus.d2 - minus.d2) / (2 * h), jet.d3, atol=1e-8)

    def test_parameter_range_enforced(self, parallel_lines):
        with pytest.raises(ValueError):
            parallel_lines.jet(0, 2.5)
        with pytest.raises(IndexError):
            parallel_lines.jet(5, 0.5)


class TestDelta:
    def test_parallel_translates_constant(self, parallel_lines):
        for t in (0.0, 0.7, 2.0):
            assert np.array_equal(parallel_lines.delta(0, t), [0.0, 1.0])

    def test_coincident_curves_zero(self):
        line = make_line()
        fw = sl.Framework(1.0, 0, [make_line(offset_y=-1.0), line, line], sl.Grid(1.0, 16))
        assert np.array_equal(fw.delta(0, 0.5), [0.0, 0.0])

    def test_circles_radial(self):
        fw = sl.builtin("circles2d", n=1)
        t = 0.9
        d = fw.delta(0, t)
        assert np.allclose(d, 0.6 * np.array([math.cos(t), math.sin(t)]), atol=1e-14)

    def test_reversed_difference(self, translational):
        _, proj, _ = translational
        fw = proj.framework
        for i in range(-1, fw.n + 1):
            d = fw.delta(i, 0.4)
            assert np.allclose(d, -(fw.jet(i, 0.4).p - fw.jet(i + 1, 0.4).p))


class TestDocuments:
    def test_minimal_one_curve_document(self):
        doc = {
            "dimension": 2,
            "T": 1.0,
            "n": 0,
            "curves": [
                {"index": -1, "x": {"poly": [0, 1]}, "y": {"poly": [-1.0]}},
                {"index": 0, "x": {"poly": [0, 1]}, "y": {"poly": [0.0]}},
                {"index": 1, "x": {"poly": [0, 1]}, "y": {"poly": [1.0]}},
            ],
        }
        fw = load_framework(json.dumps(doc))
        assert isinstance(fw, sl.Framework)
        assert list(fw.curve_indices) == [-1, 0, 1]
        assert sl.regularity_report(fw).passed

    def test_roundtrip_is_bit_exact(self, translational):
        surface, proj, _ = translational
        for obj in (surface, proj.framework):
            text = save_framework(obj)
            again = load_framework(text)
            assert save_framework(again) == text
            for i in obj.curve_indices:
                for a, b in zip(obj.curve(i).coords, again.curve(i).coords):
                    assert a == b

    def test_reload_evaluates_identically(self):
        fw = sl.builtin("perturbed2d", seed=9, amplitude=0.08)
        again = load_framework(save_framework(fw))
        rng = np.random.default_rng(1)
        for _ in range(100):
            i = int(rng.integers(-1, fw.n + 2))
            t = float(rng.uniform(0.0, fw.T))
            a, b = fw.jet(i, t), again.jet(i, t)
            assert np.array_equal(a.p, b.p)
            assert np.array_equal(a.d3, b.d3)

    def test_malformed_coefficient_names_field(self):
        doc = {
            "dimension": 2,
            "T": 1.0,
            "n": 0,
            "curves": [
                {"index": -1, "x": {"poly": [0, 1]}, "y": {"poly": [-1.0]}},
                {"index": 0, "x": {"poly": [0, 1]}, "y": {"poly": ["zero"]}},
                {"index": 1, "x": {"poly": [0, 1]}, "y": {"poly": [1.0]}},
            ],
        }
        with pytest.raises(SchemaError) as err:
            load_framework(json.dumps(doc))
        assert "curves[index=0].y" in str(err.value)

    def test_wrong_curve_count(self):
        doc = {
            "dimension": 2,
            "T": 1.0,
            "n": 1,
            "curves": [
                {"index": -1, "x": {"poly": [0, 1]}, "y": {"poly": [-1.0]}},
                {"index": 0, "x": {"poly": [0, 1]}, "y": {"poly": [0.0]}},
                {"index": 1, "x": {"poly": [0, 1]}, "y": {"poly": [1.0]}},
            ],
        }
        with pytest.raises(SchemaError) as err:
            load_framework(json.dumps(doc))
        assert "expected 4 curves" in str(err.value)

    def test_nan_literal_rejected(self):
        text = '{"dimension": 2, "T": NaN, "n": 0, "curves": []}'
        with pytest.raises(SchemaError):
            load_framework(text)

    def test_regularity_failure_is_warning_not_error(self):
        line = {"poly": [0, 1]}
        doc = {
            "dimension": 2,
            "T": 1.0,
            "n": 0,
            "curves": [
                {"index": -1, "x": line, "y": {"poly": [-1.0]}},
                {"index": 0, "x": line, "y": {"poly": [0.0]}},
                {"index": 1, "x": line, "y": {"poly": [0.0]}},  # coincides with f_0
            ],
        }
        fw = load_framework(json.dumps(doc))
        assert not sl.regularity_report(fw).passed


class TestBuiltins:
    def test_translational_is_conjugate(self):
        surface = sl.builtin("translational3d")
        assert sl.conjugacy_residual(surface) < 1e-12

    def test_cylinder_boundaries_planar(self):
        surface = sl.builtin("cylinder-strip3d")
        for i in surface.curve_indices:
            z = surface.curve(i).coords[2]
            vals = z.derivatives(np.linspace(0, surface.T, 9), order=1)
            assert np.ptp(vals[0]) == 0.0
            assert np.all(vals[1] == 0.0)

    def test_perturbed_deterministic(self):
        a = sl.builtin("perturbed2d", seed=1, amplitude=0.05)
        b = sl.builtin("perturbed2d", seed=1, amplitude=0.05)
        assert save_framework(a) == save_framework(b)
        c = sl.builtin("perturbed2d", seed=2, amplitude=0.05)
        assert save_framework(a) != save_framework(c)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            sl.builtin("moebius")


class TestCoefficientHelpers:
    def test_translation_shifts_positions_only(self, translational):
        _, proj, _ = translational
        fw = proj.framework
        shift = np.array([1.25, -2.5])
        moved = sl.Framework(
            fw.T,
            fw.n,
            [
                AnalyticCurve(
                    tuple(shifted(cf, shift[c]) for c, cf in enumerate(fw.curve(i).coords))
                )
                for i in fw.curve_indices
            ],
            fw.grid,
        )
        for i in (0, 3):
            a, b = fw.jet(i, 0.6), moved.jet(i, 0.6)
            assert np.allclose(b.p - a.p, shift, atol=1e-15)
            assert np.array_equal(a.d1, b.d1)
            assert np.array_equal(a.d2, b.d2)
            assert np.array_equal(a.d3, b.d3)

    def test_combine_evaluates_linearly(self):
        f = CoordFunction((1.0, 2.0), ((0.5, 1.5, 0.2),))
        g = CoordFunction((0.0, 0.0, 1.0), ((0.25, 0.5, 0.9),))
        h = combine(f, 2.0, g, -3.0)
        for t in (0.0, 0.4, 1.1):
            assert h.value(t) == pytest.approx(2.0 * f.value(t) - 3.0 * g.value(t), rel=1e-14)

    def test_reparametrized(self):
        f = CoordFunction((1.0, 2.0, -0.5), ((0.3, 1.2, 0.4),))
        g = reparametrized(f, 0.5)
        for t in (0.0, 0.8, 1.6):
            assert g.value(t) == pytest.approx(f.value(0.5 * t), rel=1e-14)
