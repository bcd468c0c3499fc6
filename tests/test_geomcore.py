import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import striplift as sl
from striplift.geomcore import det2, det3, gp_residual, norm
from striplift.numerics import basis_guard
from striplift.onestrip import _strip_data


def reference_norm(v):
    """The generic norm the kernels used before geomcore.norm."""
    return np.linalg.norm(v, axis=-1)


VECTORS = st.sampled_from([2, 3]).flatmap(
    lambda dim: arrays(
        float,
        st.tuples(st.integers(0, 3), st.integers(0, 4)).map(lambda shape: shape + (dim,)),
        elements=st.one_of(st.floats(allow_nan=False), st.sampled_from([1e200, -1e200, -0.0])),
    )
)


class TestNorm:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(VECTORS)
    def test_bit_identical_to_the_generic_norm(self, v):
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = norm(v), reference_norm(v)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_overflow_reads_inf_like_the_generic_norm(self, dim):
        v = np.full((4, dim), 1e200) * np.array([1.0, -1.0, 1.0, -1.0])[:, None]
        with np.errstate(over="ignore"):
            got, want = norm(v), reference_norm(v)
        assert np.all(got == np.inf)
        assert got.tobytes() == want.tobytes()

    def test_single_vectors(self):
        assert norm((3.0, 4.0)) == 5.0
        assert norm((2.0, 3.0, 6.0)) == 7.0


class TestDet2:
    def test_unit_axes(self):
        assert det2((1, 0), (0, 1)) == 1.0

    def test_repeated_argument_vanishes(self):
        assert det2((3.7, -1.2), (3.7, -1.2)) == 0.0

    def test_direct_arithmetic(self):
        assert det2((2, 1), (3, 4)) == 5.0

    def test_antisymmetry_and_bilinearity(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            a, b, c = rng.normal(size=(3, 2))
            s = rng.normal()
            assert det2(a, b) == -det2(b, a)
            assert det2(s * a, b) == pytest.approx(s * det2(a, b), rel=1e-14, abs=1e-14)
            assert det2(a + c, b) == pytest.approx(det2(a, b) + det2(c, b), rel=1e-12, abs=1e-12)
            # shear invariance
            assert det2(a + s * b, b) == pytest.approx(det2(a, b), rel=1e-12, abs=1e-12)

    def test_broadcasts_over_rows(self):
        a = np.array([[1.0, 0.0], [2.0, 1.0]])
        b = np.array([[0.0, 1.0], [3.0, 4.0]])
        assert np.array_equal(det2(a, b), [1.0, 5.0])


class TestDet3:
    def test_unit_axes(self):
        assert det3((1, 0, 0), (0, 1, 0), (0, 0, 1)) == 1.0

    def test_equal_arguments_vanish(self):
        a = np.array([1.3, -0.2, 4.0])
        b = np.array([0.5, 2.0, -1.0])
        assert det3(a, a, b) == 0.0
        assert det3(a, b, b) == 0.0

    def test_expansion(self):
        assert det3((1, 2, 3), (0, 1, 0), (0, 0, 1)) == 1.0


class TestGrassmannPlucker:
    def test_hundred_thousand_random_quadruples(self):
        rng = np.random.default_rng(2024)
        vecs = rng.uniform(-1.0, 1.0, size=(100_000, 4, 2))
        a, b, c, d = vecs[:, 0], vecs[:, 1], vecs[:, 2], vecs[:, 3]
        res = gp_residual(a, b, c, d)
        norms = np.prod(np.linalg.norm(vecs, axis=2), axis=1)
        assert np.all(np.abs(res) < 1e-14 + 1e-14 * norms)

    def test_repeated_vector_exact_zero(self):
        a = np.array([0.5, -0.25])  # dyadic components keep the arithmetic exact
        b = np.array([2.0, 4.0])
        c = np.array([-1.0, 8.0])
        assert gp_residual(a, a, b, c) == 0.0

    def test_large_norm_error_model(self):
        rng = np.random.default_rng(7)
        vecs = rng.uniform(-1e3, 1e3, size=(100_000, 4, 2))
        res = gp_residual(vecs[:, 0], vecs[:, 1], vecs[:, 2], vecs[:, 3])
        norms = np.prod(np.linalg.norm(vecs, axis=2), axis=1)
        assert np.all(np.abs(res) < 1e-7 * norms)


class TestRegularity:
    def test_parallel_translates_pass(self, parallel_lines):
        report = sl.regularity_report(parallel_lines)
        assert report.passed
        assert report.min_forward == pytest.approx(1.0)
        assert report.min_backward == pytest.approx(1.0)

    def test_collapsed_framework_fails(self):
        line = sl.AnalyticCurve((sl.CoordFunction((0.0, 1.0)), sl.CoordFunction((1.0,))))
        curves = [
            sl.AnalyticCurve((sl.CoordFunction((0.0, 1.0)), sl.CoordFunction((0.0,)))),
            line,
            line,  # f_1 collapses onto f_0
            sl.AnalyticCurve((sl.CoordFunction((0.0, 1.0)), sl.CoordFunction((2.0,)))),
        ]
        fw = sl.Framework(1.0, 1, curves, sl.Grid(1.0, 16))
        report = sl.regularity_report(fw)
        assert not report.passed
        assert report.min_forward == 0.0

    def test_scale_free(self):
        # det = 1e200 on both edges: no norm may square its way to inf
        def lines(slope):
            curves = [
                sl.AnalyticCurve((sl.CoordFunction((0.0, slope)), sl.CoordFunction((float(i),))))
                for i in (-1, 0, 1)
            ]
            return sl.Framework(1.0, 0, curves, sl.Grid(1.0, 16))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big, unit = sl.regularity_report(lines(1e200)), sl.regularity_report(lines(1.0))
        assert big.passed and unit.passed
        assert big.min_forward == 1e200 and unit.min_forward == 1.0
        assert big.min_forward_normalized == unit.min_forward_normalized == 1.0
        assert big.min_backward_normalized == unit.min_backward_normalized == 1.0

    def test_translational_demo_passes(self, translational):
        _, proj, _ = translational
        report = sl.regularity_report(proj.framework)
        assert report.passed
        assert report.min_forward > 0.1
        assert report.argmin_forward[0] in range(0, 4)


def brackets(fw, i, t):
    """The local brackets [u, v] = det2(u, v) at (i, t), from the point jets of curves i-1..i+1."""
    prev, cur, nxt = fw.jet(i - 1, t), fw.jet(i, t), fw.jet(i + 1, t)
    edge, edge_prev = nxt[0] - cur[0], cur[0] - prev[0]
    return {
        "edge_prev_edge": det2(edge_prev, edge),
        "edge_tan": det2(edge, cur[1]),
        "edge_tan_prev": det2(edge, prev[1]),
        "edge_acc": det2(edge, cur[2]),
        "edge_prev_tan": det2(edge_prev, cur[1]),
        "edge_prev_tan_prev": det2(edge_prev, prev[1]),
        "edge_prev_tan_next": det2(edge_prev, nxt[1]),
        "edge_prev_acc": det2(edge_prev, cur[2]),
        "edge_prev_acc_prev": det2(edge_prev, prev[2]),
        "tan_tan_next": det2(cur[1], nxt[1]),
        "tan_prev_tan": det2(prev[1], cur[1]),
        "tan_acc": det2(cur[1], cur[2]),
        "tan_prev_acc": det2(prev[1], cur[2]),
        "tan_prev_acc_prev": det2(prev[1], prev[2]),
        "acc_prev_tan": det2(prev[2], cur[1]),
    }


class TestBracketSet:
    """The brackets of the local jets: the determinants the statics and the strip test read."""

    def test_straight_lines_zero_curvature_brackets(self, parallel_lines):
        bs = brackets(parallel_lines, 1, 0.25)
        for name in (
            "edge_acc",
            "edge_prev_acc_prev",
            "edge_prev_acc",
            "tan_acc",
            "tan_prev_acc_prev",
            "tan_prev_acc",
            "acc_prev_tan",
        ):
            assert bs[name] == 0.0

    def test_antisymmetry_against_regularity_determinant(self, translational):
        # the regularity scan reads det(tangent, forward edge) = -det(edge, tangent)
        _, proj, _ = translational
        fw = proj.framework
        table = fw.grid_table()
        det, _, _ = basis_guard(table[1, 2, 37], table[0, 3, 37] - table[0, 2, 37])
        assert brackets(fw, 1, fw.grid.t[37])["edge_tan"] == pytest.approx(-det, rel=1e-14)

    def test_index_out_of_range(self, parallel_lines):
        # the brackets at curve 2 need curve 3, past the last curve n+1 = 2
        with pytest.raises(IndexError):
            brackets(parallel_lines, 2, 0.0)

    def test_derivative_identities_by_finite_differences(self, translational):
        # d/dt of det(edge, tan) equals det(edge, acc) - det(tan, tan_next), etc.
        _, proj, _ = translational
        fw = proj.framework
        h = 1e-5
        for i in (0, 2):
            for t in (0.3, 0.9):
                plus = brackets(fw, i, t + h)
                minus = brackets(fw, i, t - h)
                mid = brackets(fw, i, t)

                def fd(name):
                    return (plus[name] - minus[name]) / (2 * h)

                want = -mid["tan_tan_next"] + mid["edge_acc"]
                assert fd("edge_tan") == pytest.approx(want, rel=1e-7, abs=1e-8)
                want = -mid["tan_prev_tan"] + mid["edge_prev_acc_prev"]
                assert fd("edge_prev_tan_prev") == pytest.approx(want, rel=1e-7, abs=1e-8)
                want = -mid["tan_prev_tan"] + mid["edge_prev_acc"]
                assert fd("edge_prev_tan") == pytest.approx(want, rel=1e-7, abs=1e-8)
                want = mid["acc_prev_tan"] + mid["tan_prev_acc"]
                assert fd("tan_prev_tan") == pytest.approx(want, rel=1e-7, abs=1e-8)
                want = (
                    -mid["edge_tan"] + mid["edge_tan_prev"]
                    + mid["edge_prev_tan_next"] - mid["edge_prev_tan"]
                )
                assert fd("edge_prev_edge") == pytest.approx(want, rel=1e-7, abs=1e-8)

    def test_array_valued_brackets(self, cylinder):
        # the one-strip brackets, read from the grid table, against point jets
        _, proj, _ = cylinder
        fw = proj.framework
        grid = fw.grid
        strip, _ = _strip_data(fw, grid)
        assert strip.edge_tan1.shape == (grid.N + 1,)
        at0, at1 = brackets(fw, 0, grid.t[10]), brackets(fw, 1, grid.t[10])
        assert strip.edge_tan0[10] == pytest.approx(at0["edge_tan"], rel=1e-15)
        assert strip.edge_acc1[10] == pytest.approx(at1["edge_prev_acc"], rel=1e-15)
        assert strip.tan0_acc1[10] == pytest.approx(at1["tan_prev_acc"], rel=1e-15)
