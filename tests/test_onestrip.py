import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import striplift as sl
from striplift import onestrip
from striplift.errors import DegenerateBasisError
from striplift.framework import AnalyticCurve, CoordFunction, parse_document, reparametrized

from conftest import PROPERTY, frameworks


def reference_strip_data(fw, grid):
    """onestrip._strip_data with the generic norm."""
    table = fw.grid_table(grid)
    (f0, f1), (tan0, tan1), (acc0, acc1), (jerk0, jerk1) = (field[1:3] for field in table)
    vectors = {
        "edge": f1 - f0, "tan0": tan0, "tan1": tan1,
        "acc0": acc0, "acc1": acc1, "jerk0": jerk0, "jerk1": jerk1,
    }
    pairs = (
        "edge_tan0", "edge_tan1", "edge_acc0", "edge_acc1", "tan0_tan1",
        "tan0_acc0", "tan0_acc1", "tan1_acc1", "tan0_jerk0", "tan1_jerk1",
    )
    brackets = {name: sl.det2(*(vectors[v] for v in name.split("_"))) for name in pairs}
    norms = {name: np.linalg.norm(v, axis=-1) for name, v in vectors.items()}
    return SimpleNamespace(**brackets), norms


def one_strip_builtin(name):
    if name == "cylinder-strip3d":
        return sl.project(sl.builtin(name)).framework
    if name == "circles2d":
        return sl.builtin(name, n=1)
    return sl.builtin("perturbed2d", seed=4, amplitude=0.08)


@PROPERTY
@given(st.one_of(st.sampled_from(["cylinder-strip3d", "circles2d", "perturbed2d"]),
                 frameworks(ns=st.just(1))))
def test_verify_is_bit_identical_to_the_reference(drawn):
    fw = one_strip_builtin(drawn) if isinstance(drawn, str) else drawn[0]
    got = sl.onestrip_verify(fw)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(onestrip, "_strip_data", reference_strip_data)
        want = sl.onestrip_verify(fw)
    for name in ("lambda0", "lambda1", "mu0", "criterion"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert np.array(got.system_residuals).tobytes() == np.array(want.system_residuals).tobytes()
    for name in ("criterion_max", "verdict", "coupling", "coupling_sign", "equilibrium_max"):
        assert getattr(got, name) == getattr(want, name)


class TestStresses:
    def test_straight_parallel_lines(self, parallel_lines):
        report = sl.onestrip_verify(parallel_lines)
        assert np.all(report.lambda0 == 1.0)
        assert np.all(report.lambda1 == 1.0)
        assert np.all(report.mu0 == 0.0)

    def test_solutions_satisfy_their_rate_equations(self, cylinder):
        # the two exponential solutions against finite differences of their samples
        _, proj, _ = cylinder
        fw = proj.framework
        report = sl.onestrip_verify(fw)
        r1, r2, r3, r4 = report.system_residuals
        assert np.abs(r1).max() < 1e-14  # algebraic by construction
        assert np.abs(r3).max() < 1e-8
        assert np.abs(r4).max() < 1e-8

    def test_cross_equation_iff_verdict(self, cylinder):
        _, proj, _ = cylinder
        report = sl.onestrip_verify(proj.framework)
        assert report.verdict
        assert np.abs(report.system_residuals[1]).max() < 1e-6

        bad = sl.builtin("perturbed2d", seed=1, amplitude=0.05)
        bad_report = sl.onestrip_verify(bad)
        assert not bad_report.verdict
        assert np.abs(bad_report.system_residuals[1]).max() > 1e-3

    def test_positive_and_unit_at_zero(self, cylinder):
        _, proj, _ = cylinder
        report = sl.onestrip_verify(proj.framework)
        lam0, lam1 = report.lambda0, report.lambda1
        assert lam0[0] == 1.0 and lam1[0] == 1.0
        assert np.all(lam0 > 0.0) and np.all(lam1 > 0.0)

    def test_requires_n_equal_one(self, translational):
        _, proj, _ = translational
        with pytest.raises(ValueError):
            sl.onestrip_verify(proj.framework)

    def test_degenerate_strip_rejected(self):
        # det(edge_0, tan_1) = -t^2 - 3t: the tangent of curve 1 runs along the edge at t = 0;
        # the strip sits off the origin, so f0 != 0 there
        curves = [
            AnalyticCurve((CoordFunction((3.0, 1.0)), CoordFunction((4.0,)))),
            AnalyticCurve((CoordFunction((3.0, 1.0)), CoordFunction((5.0,)))),
            AnalyticCurve((CoordFunction((3.0, 0.0, 1.0)), CoordFunction((6.0, 1.0)))),
            AnalyticCurve((CoordFunction((3.0, 1.0)), CoordFunction((7.0,)))),
        ]
        fw = sl.Framework(2.0, 1, curves, sl.Grid(2.0, 16))
        with pytest.raises(DegenerateBasisError) as err:
            sl.onestrip_verify(fw)
        assert err.value.location == ("det(edge_0, tan_1)", 0.0)


class TestCriterion:
    def test_projected_cylinder_passes(self, cylinder):
        _, proj, _ = cylinder
        crit = sl.liftability_criterion(proj.framework)
        assert np.abs(crit).max() < 1e-6

    def test_cone_frustum_passes(self):
        # every product is an exact zero evaluated with rounding noise; the
        # scale floor keeps the normalized residual at noise-over-floor level
        fw = sl.builtin("circles2d", n=1)
        crit = sl.liftability_criterion(fw)
        assert np.abs(crit).max() < 1e-6

    def test_perturbed_strip_fails(self):
        fw = sl.builtin("perturbed2d", seed=1, amplitude=0.05)
        crit = sl.liftability_criterion(fw)
        assert np.abs(crit).max() > 1e-2

    def test_translate_pair_terms_vanish_identically(self, parallel_lines):
        # congruent parallel translates: both sides of the identity are zero
        base_x = CoordFunction((0.0, 1.0), ((0.2, 1.3, 0.1),))
        base_y = CoordFunction((0.0,), ((0.4, 1.0, 0.0),))
        curves = [
            AnalyticCurve((sl.shifted(base_x, 0.1 * i), sl.shifted(base_y, 1.0 * i)))
            for i in range(-1, 3)
        ]
        fw = sl.Framework(1.5, 1, curves, sl.Grid(1.5, 64))
        crit = sl.liftability_criterion(fw)
        assert np.abs(crit).max() < 1e-12

    def test_depends_on_third_derivatives(self):
        # zeroing the jerk brackets must change the residual on curved strips
        # (translates cancel them pairwise, so probe a generic strip)
        fw = sl.builtin("perturbed2d", seed=1, amplitude=0.05)
        grid = fw.grid
        from striplift.onestrip import _strip_data

        b, _ = _strip_data(fw, grid)
        jj = b.tan0_acc0 * b.tan1_acc1
        p1 = jj * b.edge_tan0 * (2.0 * b.edge_acc1 - b.tan0_tan1)
        p2 = jj * b.edge_tan1 * (2.0 * b.edge_acc0 - b.tan0_tan1)
        bc = b.edge_tan0 * b.edge_tan1
        p3 = bc * b.tan0_acc0 * b.tan1_jerk1
        p4 = bc * b.tan1_acc1 * b.tan0_jerk0
        scale = np.max(np.abs([p1, p2, p3, p4]), axis=0)
        without_jerk = (p1 - p2) / np.maximum(scale, 1e-30)
        with_jerk = sl.liftability_criterion(fw)
        assert np.abs(with_jerk - without_jerk).max() > 1e-3

    def test_scale_invariant_verdict(self, cylinder):
        _, proj, _ = cylinder
        fw = proj.framework
        c = 0.5
        rescaled = sl.Framework(
            fw.T / c,
            fw.n,
            [
                AnalyticCurve(tuple(reparametrized(cf, c) for cf in fw.curve(i).coords))
                for i in fw.curve_indices
            ],
            sl.Grid(fw.T / c, fw.grid.N),
        )
        assert sl.onestrip_verify(rescaled).verdict
        bad = sl.builtin("perturbed2d", seed=1, amplitude=0.05)
        bad_rescaled = sl.Framework(
            bad.T / c,
            bad.n,
            [
                AnalyticCurve(tuple(reparametrized(cf, c) for cf in bad.curve(i).coords))
                for i in bad.curve_indices
            ],
            sl.Grid(bad.T / c, bad.grid.N),
        )
        assert not sl.onestrip_verify(bad_rescaled).verdict


class TestVerify:
    def test_cylinder_verdict_and_equilibrium(self, cylinder):
        _, proj, _ = cylinder
        report = sl.onestrip_verify(proj.framework)
        assert report.verdict
        assert report.criterion_max < 1e-6
        assert report.equilibrium_max is not None
        assert report.equilibrium_max < 1e-6
        # projected translates: the balancing ratio is exactly -1
        assert report.coupling == pytest.approx(-1.0, abs=1e-9)
        assert report.coupling_sign == -1

    def test_twisted_strip_fails(self):
        fw = sl.builtin("perturbed2d", seed=4, amplitude=0.08)
        report = sl.onestrip_verify(fw)
        assert not report.verdict
        assert report.equilibrium_max is None

    def test_straight_lines_trivial_verdict(self, parallel_lines):
        report = sl.onestrip_verify(parallel_lines)
        assert report.verdict
        assert np.all(report.mu0 == 0.0)
        assert report.coupling == 1.0
        assert report.equilibrium_max == 0.0

    def test_cone_frustum_full_pipeline(self):
        # rotationally symmetric strip: criterion passes, the balanced stress
        # has constant rows and carries opposite signs on the two circles
        fw = sl.builtin("circles2d", n=1)
        report = sl.onestrip_verify(fw)
        assert report.verdict
        assert report.coupling == pytest.approx(-1.6 / 2.2, abs=1e-9)
        assert report.equilibrium_max < 1e-7

    def test_report_serialization(self, cylinder):
        _, proj, _ = cylinder
        report = sl.onestrip_verify(proj.framework)
        for doc in (parse_document(report.to_json()), json.loads(report.to_json())):
            assert doc["verdict"] is True
        csv = report.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "t,criterion_residual"
        assert len(lines) == report.grid.N + 2

    def test_csv_matches_the_per_float_writer(self, cylinder):
        # every row reads back, by float(), as the (t, criterion) pair it was written from
        _, proj, _ = cylinder
        report = sl.onestrip_verify(proj.framework)
        header, *lines = report.to_csv().splitlines()
        got = np.array([[float(x) for x in line.split(",")] for line in lines])
        want = np.array([[t, c] for t, c in zip(report.grid.t, np.asarray(report.criterion))])
        assert header == "t,criterion_residual"
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_assembled_sign_matters(self, cylinder):
        # without the balancing ratio the positive pair violates equilibrium
        _, proj, _ = cylinder
        fw = proj.framework
        report = sl.onestrip_verify(fw)
        naive = sl.assemble_stress(fw, report.lambda0, report.lambda1, report.mu0)
        assert sl.residual_report(fw, naive).max_normalized > 1e-2
        balanced = sl.assemble_stress(
            fw, report.lambda0, report.coupling * report.lambda1, report.mu0
        )
        assert sl.residual_report(fw, balanced).max_normalized < 1e-6
