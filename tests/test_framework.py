import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import striplift as sl
from striplift.errors import SchemaError
from striplift.framework import (
    MAX_NESTING,
    AnalyticCurve,
    CoordFunction,
    _Coefficients,
    _dump_json,
    combine,
    document_rows,
    load_framework,
    parse_document,
    reparametrized,
    save_framework,
    shifted,
)

from striplift.lifting import strip_defects
from striplift.numerics import MAX_SAMPLES

from conftest import PROPERTY


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


def reference_derivatives(cf, t, order=3):
    """The per-order evaluation the jet kernel replaced: value and first `order` derivatives.

    Order k of a trig term is amp * freq**k * sin(freq t + phase + k pi/2),
    a sine per order, term and time; the polynomial part differentiates the
    coefficients and runs Horner per order.
    """
    t = np.asarray(t, dtype=float)
    out = []
    coeffs = np.array(cf.poly)
    with np.errstate(over="ignore"):
        for k in range(order + 1):
            val = np.zeros_like(t)
            for c in coeffs[::-1]:
                val = val * t + c
            for amp, freq, phase in cf.trig:
                val = val + amp * np.float64(freq) ** k * np.sin(freq * t + phase + k * math.pi / 2)
            out.append(val)
            coeffs = coeffs[1:] * np.arange(1, coeffs.size) if coeffs.size > 1 else np.zeros(0)
    return out


def term_scale(cf, t, order):
    """Sum of the absolute terms of derivative `order` at the times t."""
    poly = sum(
        abs(c) * math.perm(j, order) * np.abs(t) ** (j - order)
        for j, c in enumerate(cf.poly) if j >= order
    )
    return poly + sum(abs(amp) * abs(freq) ** order for amp, freq, _ in cf.trig)


# a few shared frequencies (zero and negative ones among them) and distinct draws
FREQUENCIES = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.0, -0.5, 3.0]), st.floats(-3.0, 3.0))


@st.composite
def coord_functions(draw):
    """Polynomial degree 0..8 plus 0..16 sine terms."""
    poly = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=9))
    trig = draw(st.lists(st.tuples(st.floats(-2.0, 2.0), FREQUENCIES, st.floats(-math.pi, math.pi)),
                         max_size=16))
    return CoordFunction(tuple(poly), tuple(trig))


@PROPERTY
@given(coord_functions())
def test_kernel_matches_the_reference_and_the_symbolic_oracle(cf):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("t")
    exact = sympy.Rational  # the exact binary value of each float coefficient
    expr = sum(exact(c) * x**j for j, c in enumerate(cf.poly)) + sum(
        exact(a) * sympy.sin(exact(f) * x + exact(p)) for a, f, p in cf.trig
    )
    ts = np.linspace(0.0, 1.0, 5)
    got, want = cf.derivatives(ts, order=3), reference_derivatives(cf, ts, order=3)
    for k in range(4):
        oracle = np.array([float(sympy.diff(expr, x, k).evalf(30, subs={x: exact(tj)})) for tj in ts])
        tol = 8 * np.finfo(float).eps * term_scale(cf, ts, k)
        assert np.all(np.abs(got[k] - oracle) <= tol)
        assert np.all(np.abs(got[k] - want[k]) <= tol)


def reference_jets(coefs, t, order):
    """_Coefficients.jets with Horner over every order, the all-zero polynomial rows too."""
    curves, dim, degree = coefs.poly.shape
    acc = np.zeros((order + 1, curves, dim, t.size))
    coef = np.zeros((order + 1,) + coefs.poly.shape)
    coef[0] = coefs.poly
    for k in range(1, min(order, degree - 1) + 1):
        coef[k, ..., :-k] = coef[k - 1, ..., 1 : degree - k + 1] * np.arange(1, degree - k + 1)
    k = np.arange(order + 1)[:, None, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        sin, cos = (np.vstack([fn(np.multiply.outer(coefs.distinct, t)), np.zeros(t.size)])
                    for fn in (np.sin, np.cos))
        for c in np.moveaxis(coef, -1, 0)[::-1]:
            acc *= t
            acc += c[..., None]
        scale = ((1 - 2 * (k // 2 % 2)) * coefs.freq**k)[..., None]
        for m, row in enumerate(np.moveaxis(coefs.row, -1, 0)):
            s, c, a, b = sin[row], cos[row], coefs.a[..., m, None], coefs.b[..., m, None]
            even = a * s
            even += b * c
            c *= a
            c -= np.multiply(s, b, out=s)
            for k, acc_k in enumerate(acc):
                acc_k += np.multiply(scale[k, ..., m, :], c if k % 2 else even, out=s)
    return np.ascontiguousarray(acc.transpose(0, 1, 3, 2))


COEFFICIENTS = st.floats(-2.0, 2.0)
TRIG_TERMS = st.lists(st.tuples(COEFFICIENTS, FREQUENCIES, st.floats(-math.pi, math.pi)),
                      min_size=1, max_size=4)
ROWS = {
    "polynomial": st.builds(lambda p: CoordFunction(tuple(p)),
                            st.lists(COEFFICIENTS, min_size=1, max_size=9)),
    "trig": st.builds(lambda trig: CoordFunction((0.0,), tuple(trig)), TRIG_TERMS),
    "degree 8": st.builds(lambda p, trig: CoordFunction(tuple(p), tuple(trig)),
                          st.lists(COEFFICIENTS, min_size=9, max_size=9),
                          st.lists(st.tuples(COEFFICIENTS, FREQUENCIES, COEFFICIENTS), max_size=2)),
}
MIXED_ROW = st.one_of(*ROWS.values(), coord_functions())


@st.composite
def coefficient_tables(draw):
    """1..3 curves of dimension 2 or 3, all rows of one kind or each of any kind."""
    row = draw(st.sampled_from(list(ROWS.values()) + [MIXED_ROW]))
    dim = draw(st.sampled_from([2, 3]))
    return [tuple(draw(row) for _ in range(dim)) for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coefficient_tables(), st.integers(0, 5),
       st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=6))
def test_jets_are_bit_identical_to_the_reference(curves, order, times):
    coefs, t = _Coefficients(curves), np.array(times)
    assert coefs.jets(t, order).tobytes() == reference_jets(coefs, t, order).tobytes()


@pytest.mark.parametrize("name, kwargs, distinct", [
    ("perturbed2d", {"n": 1}, 2),
    ("perturbed2d", {"n": 6}, 2),
    ("translational3d", {}, 4),
])
@pytest.mark.parametrize("order", [0, 1, 3])
def test_tabulate_evaluates_one_sin_and_cos_per_distinct_frequency(monkeypatch, name, kwargs,
                                                                   distinct, order):
    # the work is per distinct frequency and time, whatever the order and curve count
    obj = sl.builtin(name, **kwargs)
    times = np.linspace(0.0, obj.T, 33)
    obj.tabulate(times, order)  # the coefficient tables are packed once, on first use
    counts = Counter()

    def counted(fn):
        def wrapper(x, *args, **kwargs):
            counts[fn.__name__] += np.size(x)
            return fn(x, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(np, "sin", counted(np.sin))
    monkeypatch.setattr(np, "cos", counted(np.cos))
    obj.tabulate(times, order)
    assert counts == {"sin": distinct * times.size, "cos": distinct * times.size}


class TestJets:
    def test_line_jet(self):
        fw = sl.Framework(
            1.0, 0, [make_line(offset_y=c) for c in (-1.0, 0.0, 1.0)], sl.Grid(1.0, 16)
        )
        jet = fw.jet(0, 0.3)
        assert np.allclose(jet[0], [0.3, 0.0])
        assert np.array_equal(jet[1], [1.0, 0.0])
        assert np.array_equal(jet[2], [0.0, 0.0])
        assert np.array_equal(jet[3], [0.0, 0.0])

    def test_circle_jet_at_zero(self):
        fw = sl.builtin("circles2d", n=0)
        jet = fw.jet(0, 0.0)
        r = 1.6
        assert np.allclose(jet[0], [r, 0.0], atol=1e-15)
        assert np.allclose(jet[1], [0.0, r], atol=1e-15)
        assert np.allclose(jet[2], [-r, 0.0], atol=1e-15)
        assert np.allclose(jet[3], [0.0, -r], atol=1e-15)

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
                for order, got in enumerate(jet):
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
                assert np.allclose((plus[0] - minus[0]) / (2 * h), jet[1], atol=1e-8)
                assert np.allclose(
                    (plus[0] - 2 * jet[0] + minus[0]) / h**2, jet[2], atol=1e-5
                )
                assert np.allclose((plus[2] - minus[2]) / (2 * h), jet[3], atol=1e-8)

    def test_parameter_range_enforced(self, parallel_lines):
        with pytest.raises(ValueError):
            parallel_lines.jet(0, 2.5)
        with pytest.raises(IndexError):
            parallel_lines.jet(5, 0.5)


class TestInterval:
    curves = [make_line(offset_y=float(i)) for i in range(-1, 3)]

    @pytest.mark.parametrize("T", [math.nan, math.inf, -5.0, 0.0])
    def test_interval_end_must_be_positive_and_finite(self, T):
        for grid in (sl.Grid(1.0, 16), None):
            with pytest.raises(ValueError, match="T must be positive and finite|does not span"):
                sl.Framework(T, 1, self.curves, grid)

    def test_grid_over_another_interval_rejected(self):
        with pytest.raises(ValueError, match=r"^grid over \[0, 0.5\] does not span \[0, 1.0\]$"):
            sl.Framework(1.0, 1, self.curves, sl.Grid(0.5, 16))
        # the rule of a stress on a framework: equal to 1e-12 relative
        assert sl.Framework(1.0, 1, self.curves, sl.Grid(1.0 + 1e-13, 16)).grid.N == 16

    @pytest.mark.parametrize("table", ["regularity", "march", "lifting", "strip-defects"])
    def test_every_curve_table_refuses_another_interval(self, table):
        """A grid over [0, 0.5] would judge, march or lift only part of the curves."""
        fw, grid = sl.builtin("circles2d", n=1), sl.Grid(0.5, 64)
        build = {
            "regularity": lambda: sl.regularity_report(fw, grid),
            "march": lambda: sl.solve_stress(fw, [1.0, 1.0], 0.0, grid),
            "lifting": lambda: sl.SampledLifting(fw, np.zeros((fw.n + 1, grid.N + 1)), grid),
            "strip-defects": lambda: strip_defects(sl.builtin("translational3d"), grid),
        }[table]
        with pytest.raises(ValueError, match=r"^grid over \[0, 0.5\] does not span \[0, (6.28|1.6\])"):
            build()

    def test_a_stress_a_grid_table_and_a_lifting_read_one_message(self):
        fw, grid = sl.builtin("circles2d", n=1), sl.Grid(3.0, 64)
        stress = sl.StressField(grid, np.ones((2, 65)), np.zeros((3, 65)))
        refused = [lambda: sl.residual_report(fw, stress), lambda: fw.grid_table(grid),
                   lambda: sl.SampledLifting(fw, np.zeros((2, 65)), grid)]
        for build in refused:
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == f"grid over [0, 3.0] does not span [0, {fw.T!r}]"


class TestTableSize:
    """Every curve table passes the size rule before any jet is evaluated."""

    @pytest.fixture
    def no_jets(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a jet was evaluated")

        monkeypatch.setattr(_Coefficients, "jets", refused)

    def test_times_past_the_cap_rejected(self, no_jets):
        fw = sl.builtin("circles2d", n=1)
        times = np.broadcast_to(0.0, (MAX_SAMPLES // 4 + 1,))  # a view: nothing is allocated
        with pytest.raises(ValueError, match=r"^N is too large: 4 x 1048577 curve samples exceed"):
            fw.tabulate(times)

    def test_grid_table_of_many_curves_past_the_cap_rejected(self, no_jets):
        # 65537 nodes pass for one curve, not for the 67 curves of n = 64
        fw = sl.builtin("circles2d", n=64)
        fw = sl.Framework(fw.T, 64, [fw.curve(i) for i in fw.curve_indices], sl.Grid(fw.T, 2**16))
        with pytest.raises(ValueError, match=r"^N is too large: 67 x 65537 curve samples exceed"):
            fw.grid_table()
        assert fw._tables == {}


class TestDocuments:
    @pytest.mark.parametrize("panels, N", [(None, 256), (4, 4), (64, 64)])
    def test_panel_override(self, panels, N):
        text = sl.save_framework(sl.builtin("circles2d"))
        assert load_framework(text, grid_panels=panels).grid.N == N

    @pytest.mark.parametrize("panels", [0, 2, -4])
    def test_panel_override_below_the_minimum_rejected(self, panels):
        # 0 once read as "no override" and gave N = 256
        text = sl.save_framework(sl.builtin("circles2d"))
        with pytest.raises(ValueError, match=rf"^N must be an even panel count >= 4, got {panels}$"):
            load_framework(text, grid_panels=panels)

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
            assert np.array_equal(a[0], b[0])
            assert np.array_equal(a[3], b[3])

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


# numbers every draw of the reading property also holds: signed zeros ("-0" is the integer 0,
# which reads +0.0), subnormals, the ends of the exponent range, a literal below the smallest
# subnormal (reads 0.0) and integers past 2^53 and 2^64
_EDGE_NUMBERS = ("-0.0", "-0", "5e-324", "-2.2250738585072009e-308", "1e300", "-1e+300", "1e-300",
                 "-1E-300", "1e-400", str(2**53 + 1), str(-(2**53) - 3), str(2**64 + 1),
                 str(-(2**64) - 5), str(10**30))


@settings(PROPERTY, max_examples=100)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64),
       st.lists(st.integers(-(2**80), 2**80), max_size=8), st.sampled_from(["orjson", "repr"]))
def test_numbers_read_as_json_loads_reads_them(floats, ints, writer):
    """parse_document reads every number bit for bit as the standard library does."""
    if writer == "orjson":  # the writer of every document striplift saves
        written = _dump_json(np.array(floats))[1:-1]
    else:  # json.dumps, the writer of documents made by hand or by perfbench
        written = json.dumps(floats)[1:-1]
    text = '{"rows": [[' + ", ".join([written, *map(str, ints), *_EDGE_NUMBERS]) + "]]}"
    doc = parse_document(text)
    got = document_rows(doc, "rows", 1, len(doc["rows"][0]) - 1)
    want = np.array(json.loads(text)["rows"], dtype=float)
    assert got.tobytes() == want.tobytes()


class TestParseDocument:
    def test_nesting_limit(self):
        at_limit = '{"a": ' + "[" * (MAX_NESTING - 1) + "]" * (MAX_NESTING - 1) + "}"
        assert parse_document(at_limit) == json.loads(at_limit)
        with pytest.raises(SchemaError, match=f"deeper than {MAX_NESTING} levels"):
            parse_document("[" + at_limit + "]")

    def test_brackets_inside_strings_do_not_count(self):
        # escaped quotes and backslashes must not end a string early or start one
        note = "[" * 100 + '"{' * 100 + "\\" + "]\\" * 3
        text = json.dumps({"note": note, "rows": [[1.5]] * (MAX_NESTING + 1), note: [[[note]]]})
        assert parse_document(text) == json.loads(text)

    def test_top_level_string_of_brackets(self):
        text = json.dumps("[{" * 100)
        assert parse_document(text) == json.loads(text)

    @pytest.mark.parametrize("text", [
        pytest.param("[1e400]", id="overflowing-double"),
        pytest.param("[-1" + "0" * 400 + "]", id="overflowing-integer"),
        pytest.param("[Infinity]", id="infinity"),
        pytest.param("[-Infinity]", id="minus-infinity"),
        pytest.param('"\ud800"', id="lone-surrogate"),  # no UTF-8 text holds one
        pytest.param("[1, 2", id="truncated"),
        pytest.param('{"a": 1} x', id="trailing-text"),
    ])
    def test_what_json_cannot_hold_is_a_schema_error(self, text):
        with pytest.raises(SchemaError, match="^invalid JSON: "):
            parse_document(text)


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
            assert np.allclose(b[0] - a[0], shift, atol=1e-15)
            assert np.array_equal(a[1], b[1])
            assert np.array_equal(a[2], b[2])
            assert np.array_equal(a[3], b[3])

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
