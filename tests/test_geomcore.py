import warnings

import numpy as np
import pytest

import striplift as sl
from striplift.geomcore import bracket_set, brackets_from_jets, det2, det3, gp_residual


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


class TestBracketSet:
    def test_straight_lines_zero_curvature_brackets(self, parallel_lines):
        bs = bracket_set(parallel_lines, 1, 0.25)
        for name in (
            "edge_acc",
            "edge_prev_acc_prev",
            "edge_prev_acc",
            "tan_acc",
            "tan_prev_acc_prev",
            "tan_prev_acc",
            "acc_prev_tan",
        ):
            assert getattr(bs, name) == 0.0

    def test_antisymmetry_against_regularity_determinant(self, translational):
        _, proj, _ = translational
        fw = proj.framework
        t = fw.grid.t[37]
        bs = bracket_set(fw, 1, t)
        jet = fw.jet(1, t)
        edge = fw.delta(1, t)
        assert bs.edge_tan == pytest.approx(-det2(jet.d1, edge), rel=1e-14)

    def test_matches_independent_recomputation(self):
        fw = sl.builtin("circles2d", n=1)
        i, t = 1, 0.0
        bs = bracket_set(fw, i, t)
        jp, jc, jn = fw.jet(i - 1, t), fw.jet(i, t), fw.jet(i + 1, t)
        edge = jn.p - jc.p
        edge_prev = jc.p - jp.p
        pairs = {
            "edge_prev_edge": (edge_prev, edge),
            "edge_tan": (edge, jc.d1),
            "edge_prev_tan_prev": (edge_prev, jp.d1),
            "edge_tan_next": (edge, jn.d1),
            "edge_prev_tan": (edge_prev, jc.d1),
            "edge_tan_prev": (edge, jp.d1),
            "edge_prev_tan_next": (edge_prev, jn.d1),
            "edge_acc": (edge, jc.d2),
            "edge_prev_acc_prev": (edge_prev, jp.d2),
            "edge_prev_acc": (edge_prev, jc.d2),
            "tan_tan_next": (jc.d1, jn.d1),
            "tan_prev_tan": (jp.d1, jc.d1),
            "tan_acc": (jc.d1, jc.d2),
            "tan_prev_acc_prev": (jp.d1, jp.d2),
            "tan_prev_acc": (jp.d1, jc.d2),
            "acc_prev_tan": (jp.d2, jc.d1),
        }
        for name, (u, v) in pairs.items():
            assert getattr(bs, name) == pytest.approx(det2(u, v), rel=1e-14, abs=1e-14), name

    def test_index_out_of_range(self, parallel_lines):
        with pytest.raises(IndexError):
            bracket_set(parallel_lines, 2, 0.0)

    def test_derivative_identities_by_finite_differences(self, translational):
        # d/dt of det(edge, tan) equals det(edge, acc) - det(tan, tan_next), etc.
        _, proj, _ = translational
        fw = proj.framework
        h = 1e-5
        for i in (0, 2):
            for t in (0.3, 0.9):
                plus = bracket_set(fw, i, t + h)
                minus = bracket_set(fw, i, t - h)
                mid = bracket_set(fw, i, t)
                fd = (plus.edge_tan - minus.edge_tan) / (2 * h)
                want = -mid.tan_tan_next + mid.edge_acc
                assert fd == pytest.approx(want, rel=1e-7, abs=1e-8)
                fd = (plus.edge_prev_tan_prev - minus.edge_prev_tan_prev) / (2 * h)
                want = -mid.tan_prev_tan + mid.edge_prev_acc_prev
                assert fd == pytest.approx(want, rel=1e-7, abs=1e-8)
                fd = (plus.edge_prev_tan - minus.edge_prev_tan) / (2 * h)
                want = -mid.tan_prev_tan + mid.edge_prev_acc
                assert fd == pytest.approx(want, rel=1e-7, abs=1e-8)
                fd = (plus.tan_prev_tan - minus.tan_prev_tan) / (2 * h)
                want = mid.acc_prev_tan + mid.tan_prev_acc
                assert fd == pytest.approx(want, rel=1e-7, abs=1e-8)
                fd = (plus.edge_prev_edge - minus.edge_prev_edge) / (2 * h)
                want = (
                    -mid.edge_tan + mid.edge_tan_prev
                    + mid.edge_prev_tan_next - mid.edge_prev_tan
                )
                assert fd == pytest.approx(want, rel=1e-7, abs=1e-8)

    def test_array_valued_brackets(self, translational):
        _, proj, _ = translational
        fw = proj.framework
        grid = fw.grid
        bs = brackets_from_jets(
            fw.grid_jets(0, grid), fw.grid_jets(1, grid), fw.grid_jets(2, grid)
        )
        assert bs.edge_tan.shape == (grid.N + 1,)
        single = bracket_set(fw, 1, grid.t[10])
        assert bs.edge_tan[10] == pytest.approx(single.edge_tan, rel=1e-15)
