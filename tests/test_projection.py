import numpy as np
import pytest

import striplift as sl
from striplift.errors import DegenerateBasisError, NotConjugateError, StripLiftError
from striplift.framework import AnalyticCurve, AnalyticSurface3D, CoordFunction, combine, shifted
from striplift.lifting import strip_defects
from striplift.projection import recovered_interior_stress

from conftest import twisted_surface


def flat_surface(height=0.0):
    """Parallel translated lines at constant height: projects to a regular framework."""
    curves = [
        AnalyticCurve(
            (
                CoordFunction((0.0, 1.0)),
                CoordFunction((float(i),)),
                CoordFunction((height,)),
            )
        )
        for i in range(-1, 3)
    ]
    return AnalyticSurface3D(2.0, 1, curves, sl.Grid(2.0, 32))


class TestProject:
    def test_flat_surface_splits(self):
        proj = sl.project(flat_surface(0.25))
        assert isinstance(proj.framework, sl.Framework)
        table = proj.surface.grid_table(proj.grid)
        for field, want in ((table.p, 0.25), (table.d1, 0.0), (table.d2, 0.0)):
            assert np.all(field[..., 2] == want)

    def test_translational_split(self, translational):
        surface, proj, _ = translational
        plane = proj.framework.grid_table().p
        space = proj.surface.grid_table(proj.grid).p
        assert proj.surface is surface
        assert np.array_equal(plane, space[..., :2])
        for i in surface.curve_indices:
            assert np.array_equal(space[i + 1, :, 2], surface.curve(i).coords[2].value(proj.grid.t))

    def test_vertical_strip_degenerate(self):
        # two coincident projected curves separated only in height
        base = (CoordFunction((0.0, 1.0)), CoordFunction((0.0,)))
        curves = [
            AnalyticCurve((base[0], CoordFunction((-1.0,)), CoordFunction((0.0,)))),
            AnalyticCurve((*base, CoordFunction((0.0,)))),
            AnalyticCurve((*base, CoordFunction((1.0,)))),
            AnalyticCurve((base[0], CoordFunction((1.0,)), CoordFunction((2.0,)))),
        ]
        surface = AnalyticSurface3D(2.0, 1, curves, sl.Grid(2.0, 16))
        with pytest.raises(StripLiftError) as err:
            sl.project(surface)
        assert err.value.report.min_forward == 0.0

    def test_lifting_projects_with_sampled_heights(self, translational):
        _, proj, stress = translational
        lifted = sl.build_lifting(proj.framework, stress)
        back = sl.project(lifted)
        assert back.surface is lifted
        assert list(back.z_indices) == [0, 1, 2, 3]
        assert np.array_equal(back.surface.grid_table(back.grid).p[2, :, 2], lifted.z[2])

    def test_lifting_keeps_its_own_grid(self):
        # a loaded lifting carries its stress grid; its framework the default one
        fw = sl.builtin("circles2d", n=1)
        stress = sl.solve_stress(fw, [1.0, 1.0], 0.0, sl.Grid(fw.T, 64))
        lifted = sl.load_lifting(sl.save_lifting(sl.build_lifting(fw, stress)))
        assert lifted.framework.grid.N != 64
        back = sl.project(lifted)
        assert back.grid == lifted.grid
        worst, _ = sl.developability_report(back)
        assert np.isfinite(worst)
        rows = recovered_interior_stress(back)
        assert rows["mu"][0].shape == (65,)


class TestDevelopability:
    def test_flat_heights_zero_defect(self):
        proj = sl.project(flat_surface())
        assert np.all(strip_defects(proj.surface, proj.grid) == 0.0)
        assert sl.developability_report(proj) == (0.0, (None, None))

    def test_builtin_conjugates_below_tolerance(self, translational, cylinder):
        for _, proj, _ in (translational, cylinder):
            worst, _ = sl.developability_report(proj)
            assert worst < 1e-10

    def test_one_row_per_strip(self, translational):
        # strips -1..n: none lies before the first curve or after the last
        _, proj, _ = translational
        defects = strip_defects(proj.surface, proj.grid)
        assert defects.shape == (len(proj.z_indices) - 1, proj.grid.N + 1)
        assert np.all(np.isfinite(defects))

    def test_twisted_control_large_defect(self):
        proj = sl.project(twisted_surface())
        worst, _ = sl.developability_report(proj)
        assert worst > 1e-2

    def test_projected_lifting_defect_is_its_conjugacy(self, translational):
        # one defect for both: projecting a lifting reports the lifting's conjugacy
        _, proj, stress = translational
        lifted = sl.build_lifting(proj.framework, stress)
        worst, _ = sl.developability_report(sl.project(lifted))
        assert worst == sl.conjugacy_residual(lifted)
        assert worst < 1e-6

    def test_report_is_the_worst_strip_row(self):
        proj = sl.project(twisted_surface())
        defects = np.abs(strip_defects(proj.surface, proj.grid))
        worst, (i, t) = sl.developability_report(proj)
        k, j = i - proj.z_indices[0], proj.grid.node_index(t)
        assert worst == defects.max() == defects[k, j]


class TestInducedStress:
    def test_flat_heights_zero_stress(self):
        proj = sl.project(flat_surface(0.7))
        stress = sl.induced_stress(proj)
        assert np.all(stress.lam == 0.0)
        assert np.all(stress.mu == 0.0)

    def test_affine_heights_zero_stress(self):
        # heights affine in the plane position: every term cancels through
        # the planar Cramer identity det(u,v)w - det(u,w)v + det(v,w)u = 0
        rng = np.random.default_rng(4)
        base = sl.builtin("translational3d")
        for _ in range(3):
            a = rng.uniform(-2, 2, size=2)
            b = rng.uniform(-1, 1)
            curves = []
            for i in base.curve_indices:
                x, y, _ = base.curve(i).coords
                z = shifted(combine(combine(CoordFunction((0.0,)), 0.0, x, a[0]), 1.0, y, a[1]), b)
                curves.append(AnalyticCurve((x, y, z)))
            surface = AnalyticSurface3D(base.T, base.n, curves)
            stress = sl.induced_stress(sl.project(surface))
            assert np.abs(stress.lam).max() < 1e-13
            assert np.abs(stress.mu).max() < 1e-13

    def test_cramer_identity_oracle(self):
        # the cancellation the affine-gauge behavior rests on
        rng = np.random.default_rng(12)
        for _ in range(1000):
            u, v, w = rng.normal(size=(3, 2))
            resid = sl.det2(u, v) * w - sl.det2(u, w) * v + sl.det2(v, w) * u
            assert np.abs(resid).max() < 1e-13

    def test_builtin_residuals(self, translational, cylinder):
        for _, proj, stress in (translational, cylinder):
            rep = sl.residual_report(proj.framework, stress)
            assert rep.max_normalized < 1e-7

    def test_affine_gauge_invariance(self, translational):
        surface, proj, stress = translational
        rng = np.random.default_rng(77)
        lam_scale = np.abs(stress.lam).max()
        mu_scale = np.abs(stress.mu).max()
        for _ in range(10):
            a = rng.uniform(-1, 1, size=2)
            b = rng.uniform(-1, 1)
            curves = []
            for i in surface.curve_indices:
                x, y, z = surface.curve(i).coords
                z2 = shifted(combine(combine(z, 1.0, x, a[0]), 1.0, y, a[1]), b)
                curves.append(AnalyticCurve((x, y, z2)))
            gauged = AnalyticSurface3D(surface.T, surface.n, curves)
            stress2 = sl.induced_stress(sl.project(gauged))
            assert np.abs(stress2.lam - stress.lam).max() / lam_scale < 1e-9
            assert np.abs(stress2.mu - stress.mu).max() / mu_scale < 1e-9

    def test_refuses_non_conjugate(self):
        proj = sl.project(twisted_surface())
        with pytest.raises(NotConjugateError) as err:
            sl.induced_stress(proj)
        assert err.value.worst_defect > 1e-2

    def test_round_trip_lifting_conjugate(self, translational, cylinder):
        for _, proj, stress in (translational, cylinder):
            lifted = sl.build_lifting(proj.framework, stress)
            assert sl.conjugacy_residual(lifted) < 1e-6

    def test_interior_recovery_diagnostic(self, translational):
        _, proj, stress = translational
        lifted = sl.build_lifting(proj.framework, stress)
        back = sl.project(lifted)
        with pytest.raises(StripLiftError):
            sl.induced_stress(back)
        rows = recovered_interior_stress(back)
        assert sorted(rows["lambda"]) == [1, 2]
        assert sorted(rows["mu"]) == [0, 1, 2]
        # recovered interior rows stay close to the generating stress
        for i, row in rows["lambda"].items():
            err = np.abs(row - stress.lam_at(i)).max() / np.abs(stress.lam).max()
            assert err < 1e-5
        for i, row in rows["mu"].items():
            err = np.abs(row - stress.mu_at(i)).max() / np.abs(stress.mu).max()
            assert err < 1e-5

    def test_degenerate_denominator_raises(self):
        # the boundary strip carries no height jump, so any first curve keeps
        # the surface conjugate, and regularity never looks at the boundary
        # curve's own tangent; a vertical f_{-1} against diagonal translates
        # makes det(edge_{-1}, tan_{-1}) = t - 0.75 vanish exactly at node 8
        curves = [
            AnalyticCurve(
                (CoordFunction((0.75,)), CoordFunction((0.0, 1.0)), CoordFunction((0.0,)))
            ),
            AnalyticCurve(
                (CoordFunction((0.0, 1.0)), CoordFunction((1.0, 1.0)), CoordFunction((0.0,)))
            ),
            AnalyticCurve(
                (CoordFunction((0.0, 1.0)), CoordFunction((2.0, 1.0)), CoordFunction((0.5,)))
            ),
            AnalyticCurve(
                (CoordFunction((0.0, 1.0)), CoordFunction((3.0, 1.0)), CoordFunction((1.0,)))
            ),
        ]
        surface = AnalyticSurface3D(1.5, 1, curves, sl.Grid(1.5, 16))
        assert sl.conjugacy_residual(surface) < 1e-15
        with pytest.raises(DegenerateBasisError) as err:
            sl.induced_stress(sl.project(surface))
        assert err.value.location == ("det(edge_-1, tan_-1)", 0.75)


class TestPlanarBoundaries:
    def test_plane_fit_exact_plane(self):
        rng = np.random.default_rng(3)
        pts2 = rng.normal(size=(40, 2))
        normal = np.array([0.3, -0.5, 1.0])
        pts = np.column_stack([pts2, (1.2 - pts2 @ normal[:2]) / normal[2]])
        assert sl.plane_fit_distance(pts) < 1e-12

    def test_vanishing_boundary_forces_lift_to_planes(self, cylinder):
        _, proj, _ = cylinder
        fw = proj.framework
        report = sl.onestrip_verify(fw)
        assert report.verdict
        stress = sl.assemble_stress(
            fw, report.lambda0, report.coupling * report.lambda1, report.mu0
        )
        assert sl.residual_report(fw, stress).max_normalized < 1e-6
        lifted = sl.build_lifting(fw, stress)
        first, last = sl.boundary_planarity(lifted)
        assert first < 1e-6
        assert last < 1e-6
        assert np.abs(lifted.z[0]).max() == 0.0
