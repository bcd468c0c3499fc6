import json
import math

import numpy as np
import pytest

import striplift as sl
from striplift.errors import (
    DegenerateBasisError,
    DivergenceError,
    EvaluationError,
    GridAlignmentError,
    SchemaError,
)
from striplift.statics import load_stress, save_stress, segment_force_scale

from conftest import mu_minus1_fn, mu_scaled


def zero_stress(fw):
    g = fw.grid
    return sl.StressField(g, np.zeros((fw.n + 1, g.N + 1)), np.zeros((fw.n + 2, g.N + 1)))


def reference_solve_stress(fw, lambda0, mu_fn, grid=None):
    """The per-point march: exact jets and solve2x2 at every RK4 stage time.

    mu_fn is a scalar function of t.  Returns (lam, mu) sample arrays.
    """
    grid = grid or fw.grid
    lam0 = np.asarray(lambda0, dtype=float)
    guard = 1e12 * max(1.0, float(np.abs(lam0).max()))

    def sweep(t, lam):
        lam_dot = np.empty_like(lam)
        mu = np.empty(fw.n + 1)
        jets = [fw.jet(i, t) for i in range(-1, fw.n + 2)]
        mu_prev = mu_fn(t)
        for i in range(fw.n + 1):
            cur = jets[i + 1]
            edge_fwd = jets[i + 2].p - cur.p
            edge_bwd = cur.p - jets[i].p
            rhs = -lam[i] * cur.d2 + mu_prev * edge_bwd
            lam_dot[i], mu[i] = sl.solve2x2(cur.d1, edge_fwd, rhs, location=(i, float(t)))
            mu_prev = mu[i]
        return lam_dot, mu

    def deriv(t, lam):
        if np.abs(lam).max() > guard:
            raise DivergenceError(f"curve stress exceeded {guard:.3e}")
        return sweep(t, lam)[0]

    lam_samples = sl.ode_march(deriv, lam0, grid).T
    mu_samples = np.empty((fw.n + 2, grid.N + 1))
    for j, t in enumerate(grid.t):
        mu_samples[0, j] = mu_fn(t)
        _, mu_samples[1:, j] = sweep(t, lam_samples[:, j])
    return lam_samples, mu_samples


def line(y):
    """The curve t -> (t, y(t)) for a polynomial coefficient tuple y."""
    return sl.AnalyticCurve((sl.CoordFunction((0.0, 1.0)), sl.CoordFunction(y)))


class TestStressField:
    def test_row_shape_validation(self):
        g = sl.Grid(1.0, 16)
        with pytest.raises(ValueError):
            sl.StressField(g, np.zeros((2, 17)), np.zeros((2, 17)))
        with pytest.raises(ValueError):
            sl.StressField(g, np.zeros((2, 16)), np.zeros((3, 16)))

    def test_index_ranges(self, translational):
        _, _, stress = translational
        assert stress.n == 3
        assert stress.lam_at(0).shape == (stress.grid.N + 1,)
        assert stress.mu_at(-1).shape == (stress.grid.N + 1,)
        assert stress.mu_at(3).shape == (stress.grid.N + 1,)
        with pytest.raises(IndexError):
            stress.lam_at(4)
        with pytest.raises(IndexError):
            stress.mu_at(-2)

    def test_document_roundtrip(self, translational):
        _, _, stress = translational
        text = save_stress(stress)
        again = load_stress(text)
        assert np.array_equal(again.lam, stress.lam)
        assert np.array_equal(again.mu, stress.mu)
        assert save_stress(again) == text

    def test_document_row_validation(self):
        with pytest.raises(SchemaError):
            load_stress('{"T": 1.0, "n": 1, "N": 16, "lambda": [[0]], "mu": [[0]]}')

    @pytest.mark.parametrize("n", ['"3"', "true", "1.0", "-1"])
    def test_document_n_must_be_an_integer(self, n):
        # rows fit n = 1, which true and 1.0 would pass for without the check
        lam, mu = json.dumps(np.zeros((2, 17)).tolist()), json.dumps(np.zeros((3, 17)).tolist())
        text = f'{{"T": 1.0, "n": {n}, "N": 16, "lambda": {lam}, "mu": {mu}}}'
        with pytest.raises(SchemaError) as err:
            load_stress(text)
        assert err.value.field == "n"


class TestForceVector:
    def test_zero_stress(self, parallel_lines):
        stress = zero_stress(parallel_lines)
        assert np.array_equal(
            sl.force_vector(parallel_lines, stress, 0, 0.0), [0.0, 0.0]
        )

    def test_unit_stress_on_straight_line(self, parallel_lines):
        g = parallel_lines.grid
        stress = sl.StressField(
            g, np.ones((2, g.N + 1)), np.zeros((3, g.N + 1))
        )
        v = sl.force_vector(parallel_lines, stress, 0, g.t[5])
        assert np.array_equal(v, [1.0, 0.0])

    def test_matches_jet_times_sample(self, translational):
        _, proj, stress = translational
        fw = proj.framework
        j = 100
        t = stress.grid.t[j]
        v = sl.force_vector(fw, stress, 2, t)
        assert np.allclose(v, stress.lam[2, j] * fw.jet(2, t).d1, rtol=1e-15)

    def test_off_grid_rejected(self, translational):
        _, proj, stress = translational
        with pytest.raises(GridAlignmentError):
            sl.force_vector(proj.framework, stress, 0, 0.1234567)


class TestEquilibriumResidual:
    def test_zero_stress_zero_residual(self, parallel_lines):
        residual = sl.residual_report(parallel_lines, zero_stress(parallel_lines)).residual
        assert np.array_equal(residual, np.zeros_like(residual))

    def test_induced_stress_near_zero(self, translational):
        _, proj, stress = translational
        rep = sl.residual_report(proj.framework, stress)
        assert rep.max_normalized < 1e-7

    def test_perturbed_mu_detected(self, translational):
        _, proj, stress = translational
        bad = mu_scaled(stress, 0, 1.1)
        rep = sl.residual_report(proj.framework, bad)
        assert rep.max_normalized > 1e-3

    def test_translation_leaves_residuals_put(self, translational):
        # positions never enter the balance; only float re-association of the
        # edge differences can move the result, so allow a few ulps
        _, proj, stress = translational
        fw = proj.framework
        moved = sl.Framework(
            fw.T,
            fw.n,
            [
                sl.AnalyticCurve(
                    (
                        sl.shifted(fw.curve(i).coords[0], 3.5),
                        sl.shifted(fw.curve(i).coords[1], -1.25),
                    )
                )
                for i in fw.curve_indices
            ],
            fw.grid,
        )
        a = sl.residual_report(fw, stress)
        b = sl.residual_report(moved, stress)
        assert np.allclose(b.residual, a.residual, atol=2e-13)
        assert b.max_normalized == pytest.approx(a.max_normalized, abs=1e-10)

    def test_rotation_equivariance(self, translational):
        _, proj, stress = translational
        fw = proj.framework
        theta = 0.73
        c, s = math.cos(theta), math.sin(theta)
        rotated = sl.Framework(
            fw.T,
            fw.n,
            [
                sl.AnalyticCurve(
                    (
                        sl.combine(fw.curve(i).coords[0], c, fw.curve(i).coords[1], -s),
                        sl.combine(fw.curve(i).coords[0], s, fw.curve(i).coords[1], c),
                    )
                )
                for i in fw.curve_indices
            ],
            fw.grid,
        )
        a = sl.residual_report(fw, stress)
        b = sl.residual_report(rotated, stress)
        R = np.array([[c, -s], [s, c]])
        assert np.allclose(b.residual, a.residual @ R.T, atol=1e-12)
        na = np.linalg.norm(a.residual, axis=-1)
        nb = np.linalg.norm(b.residual, axis=-1)
        assert np.abs(na - nb).max() < 1e-12


class TestResidualReport:
    def test_zero_stress_reports_zero(self, parallel_lines):
        rep = sl.residual_report(parallel_lines, zero_stress(parallel_lines))
        assert rep.max_normalized == 0.0

    def test_power_of_two_scaling_is_bitwise_invariant(self, translational):
        _, proj, stress = translational
        rep = sl.residual_report(proj.framework, stress)
        rep2 = sl.residual_report(proj.framework, stress.scaled(2.0))
        assert np.array_equal(rep2.normalized, rep.normalized)
        assert rep2.argmax == rep.argmax

    def test_generic_scaling_within_rounding(self, translational):
        # the residual of a near-exact self-stress is rounding noise (~1e-11),
        # so a generic scale only matches to absolute rounding level
        _, proj, stress = translational
        rep = sl.residual_report(proj.framework, stress)
        rep3 = sl.residual_report(proj.framework, stress.scaled(1.7))
        assert np.allclose(rep3.normalized, rep.normalized, atol=2e-12)


class TestForceLoad:
    def test_empty_segment(self, translational):
        _, proj, stress = translational
        t = stress.grid.t[17]
        assert np.array_equal(sl.force_load(proj.framework, stress, 1, t, t), [0.0, 0.0])

    def test_zero_stress(self, parallel_lines):
        stress = zero_stress(parallel_lines)
        g = parallel_lines.grid
        assert np.array_equal(
            sl.force_load(parallel_lines, stress, 0, g.t[2], g.t[40]), [0.0, 0.0]
        )

    def test_self_stress_segments_vanish(self, translational):
        _, proj, stress = translational
        fw = proj.framework
        rng = np.random.default_rng(3)
        for i in range(fw.n + 1):
            for _ in range(50):
                ja, jb = np.sort(rng.integers(0, stress.grid.N + 1, size=2))
                a, b = stress.grid.t[ja], stress.grid.t[jb]
                load = sl.force_load(fw, stress, i, a, b)
                scale = segment_force_scale(fw, stress, i, a, b)
                assert np.linalg.norm(load) < 1e-6 * scale

    def test_equivalence_with_residual_both_directions(self, translational):
        _, proj, stress = translational
        fw = proj.framework
        g = stress.grid
        # self-stress: residual below 1e-6 and all sampled loads below 1e-6*scale
        assert sl.residual_report(fw, stress).max_normalized < 1e-6
        # perturbed stress: residual above 1e-3 and some load above 1e-3*scale
        bad = mu_scaled(stress, 0, 1.1)
        assert sl.residual_report(fw, bad).max_normalized > 1e-3
        worst = 0.0
        for i in range(fw.n + 1):
            load = sl.force_load(fw, bad, i, g.t[0], g.t[g.N])
            worst = max(worst, np.linalg.norm(load) / segment_force_scale(fw, bad, i, g.t[0], g.t[g.N]))
        assert worst > 1e-3

    def test_non_grid_endpoint_rejected(self, translational):
        _, proj, stress = translational
        with pytest.raises(GridAlignmentError):
            sl.force_load(proj.framework, stress, 0, 0.0, 0.1234567)


class TestSolveStress:
    def test_zero_is_a_fixed_point(self, parallel_lines):
        out = sl.solve_stress(parallel_lines, [0.0, 0.0], 0.0)
        assert np.all(out.lam == 0.0)
        assert np.all(out.mu == 0.0)

    def test_one_curve_circle(self):
        fw = sl.builtin("circles2d", n=0)
        out = sl.solve_stress(fw, [1.0], 0.0)
        rep = sl.residual_report(fw, out)
        assert rep.max_normalized < 1e-7
        # analytic solution: lam constant, mu_0 = lam * r0 / (r1 - r0)
        assert np.abs(out.lam[0] - 1.0).max() < 1e-12
        assert np.abs(out.mu_at(0) - 1.6 / 0.6).max() < 1e-10

    def test_oracle_roundtrip_and_order(self, translational):
        surface, proj, stress = translational
        fw = proj.framework
        mu_fn = mu_minus1_fn(proj)
        solved = sl.solve_stress(fw, stress.lam[:, 0], mu_fn)
        lam_scale = np.abs(stress.lam).max()
        mu_scale = np.abs(stress.mu).max()
        err = max(
            np.abs(solved.lam - stress.lam).max() / lam_scale,
            np.abs(solved.mu - stress.mu).max() / mu_scale,
        )
        assert err < 1e-6
        fine = sl.Grid(fw.T, 2 * stress.grid.N)
        proj_fine = sl.project(surface, grid=fine)
        oracle_fine = sl.induced_stress(proj_fine)
        solved_fine = sl.solve_stress(fw, stress.lam[:, 0], mu_fn, grid=fine)
        err_fine = max(
            np.abs(solved_fine.lam - oracle_fine.lam).max() / lam_scale,
            np.abs(solved_fine.mu - oracle_fine.mu).max() / mu_scale,
        )
        assert err_fine * 8.0 < err

    @pytest.mark.parametrize("kind", ["coord_function", "callable"])
    def test_matches_per_point_reference(self, kind):
        fw = sl.builtin("perturbed2d", n=2, seed=4)
        cf = sl.CoordFunction((0.01, -0.003), ((0.02, 2.0, 0.7),))

        def mu_fn(t):
            return float(cf.value(t))

        out = sl.solve_stress(fw, [1.0, 1.5, 2.0], cf if kind == "coord_function" else mu_fn)
        lam, mu = reference_solve_stress(fw, [1.0, 1.5, 2.0], mu_fn)
        # equal bit for bit unless the host's vector sin differs from its scalar sin
        assert np.abs(out.lam - lam).max() <= 1e-13 * np.abs(lam).max()
        assert np.abs(out.mu - mu).max() <= 1e-13 * np.abs(mu).max()

    def test_degenerate_framework_reports_location(self):
        # delta_0 = (0, t^2) is parallel to neither tangent, but at t=0 it vanishes
        fw = sl.Framework(2.0, 0, [line((-1.0,)), line((0.0,)), line((0.0, 0.0, 1.0))], sl.Grid(2.0, 32))
        with pytest.raises(DegenerateBasisError) as err:
            sl.solve_stress(fw, [1.0], 0.0)
        assert err.value.location == (0, 0.0)

    def test_degeneracy_raised_when_the_march_reaches_it(self):
        # delta_0 = (0, (t-2)^2) vanishes only at the last node t = T = 2; the
        # backward edge has a tangential part, so a huge mu_{-1} blows lam up
        # at the first step, before the march gets there
        curves = [
            sl.AnalyticCurve((sl.CoordFunction((0.5, 1.0)), sl.CoordFunction((-1.0,)))),
            line((0.0,)),
            line((4.0, -4.0, 1.0)),
        ]
        fw = sl.Framework(2.0, 0, curves, sl.Grid(2.0, 32))
        with pytest.raises(DegenerateBasisError) as err:
            sl.solve_stress(fw, [1.0], 0.0)
        assert err.value.location[0] == 0
        assert err.value.location[1] == pytest.approx(2.0, abs=1e-14)
        with pytest.raises(DivergenceError):
            sl.solve_stress(fw, [1.0], 1e18)

    def test_zero_det_with_overflowing_threshold_is_not_finite(self):
        # a resting curve (zero tangent) next to one whose edge norm overflows:
        # det is 0 and the threshold NaN, so the guard passes and the
        # derivative must come out non-finite rather than divide by zero
        curves = [
            line((-1.0,)),
            sl.AnalyticCurve((sl.CoordFunction((0.0,)), sl.CoordFunction((0.0,)))),
            sl.AnalyticCurve((sl.CoordFunction((1.5e308,)), sl.CoordFunction((1.5e308,)))),
        ]
        fw = sl.Framework(1.0, 0, curves, sl.Grid(1.0, 16))
        with pytest.raises(EvaluationError), np.errstate(all="ignore"):
            sl.solve_stress(fw, [1.0], 0.5)

    def test_divergence_guard(self):
        # rotate the inner boundary circle so its edge vector gains a
        # tangential component; a huge boundary stress then drives lam
        def circle(r, phase):
            return sl.AnalyticCurve(
                (
                    sl.CoordFunction((0.0,), ((r, 1.0, math.pi / 2.0 + phase),)),
                    sl.CoordFunction((0.0,), ((r, 1.0, phase),)),
                )
            )

        fw = sl.Framework(
            2.0 * math.pi,
            0,
            [circle(1.0, 0.4), circle(1.6, 0.0), circle(2.2, 0.0)],
            sl.Grid(2.0 * math.pi, 64),
        )
        with pytest.raises(DivergenceError):
            sl.solve_stress(fw, [1.0], 1e18)

    def test_boundary_stress_emitted(self):
        fw = sl.builtin("circles2d", n=1)
        out = sl.solve_stress(fw, [1.0, 2.0], 0.0)
        # outermost edge stress balances the outer curve: nonzero constants
        assert np.abs(out.mu_at(1)).min() > 0.0
        assert np.ptp(out.mu_at(1)) < 1e-9
