import math

import numpy as np
import pytest

from striplift.errors import DegenerateBasisError, EvaluationError, GridAlignmentError
from striplift.numerics import (
    Grid,
    basis_guard,
    cumulative_samples,
    fd_derivative,
    integrate_samples,
    ode_march,
    solve2x2,
)


class TestGrid:
    def test_nodes_span_interval(self):
        g = Grid(2.0, 16)
        assert g.t[0] == 0.0
        assert g.t[-1] == 2.0
        assert np.all(np.diff(g.t) > 0)
        assert np.allclose(np.diff(g.t), g.h)

    def test_odd_panel_count_rejected(self):
        with pytest.raises(ValueError):
            Grid(1.0, 15)

    def test_node_index_roundtrip_and_offgrid(self):
        g = Grid(1.0, 32)
        for j in (0, 7, 32):
            assert g.node_index(g.t[j]) == j
        with pytest.raises(GridAlignmentError):
            g.node_index(g.h * 0.5)


class TestIntegrate:
    """The node rules of integrate_samples and cumulative_samples on closed forms."""

    def test_constant(self):
        assert integrate_samples(np.ones(9), 1.0 / 8.0) == pytest.approx(1.0, abs=1e-15)

    def test_quadratic_exact(self):
        # every rule is exact on cubics: Simpson, the 3/8 tail and the one-panel rule
        g = Grid(1.0, 8)
        antiderivative = g.t**4 / 4.0 - g.t**2 / 2.0
        for j0, j1 in [(0, 2), (0, 8), (0, 7), (2, 5), (4, 5), (7, 8)]:
            got = integrate_samples(g.t**3 - g.t, g.h, j0, j1)
            assert got == pytest.approx(antiderivative[j1] - antiderivative[j0], abs=1e-15)

    def test_cosine_against_antiderivative(self):
        # composite Simpson error bound (b-a) h^4 max|f''''| / 180:
        # 3.2e-9 at 64 panels, 1.3e-11 at 256
        for n, bound in ((64, 4e-9), (256, 1e-10)):
            g = Grid(math.pi / 2.0, n)
            assert abs(integrate_samples(np.cos(g.t), g.h) - 1.0) < bound

    def test_empty_interval_is_exactly_zero(self):
        g = Grid(1.0, 8)
        assert cumulative_samples(np.exp(g.t), g.h)[0] == 0.0

    def test_additive_on_aligned_subdivisions(self):
        # splitting at an even node adds up the same Simpson pairs
        g = Grid(2.0, 64)
        vals = np.sin(2.1 * g.t) + 0.3 * g.t**2
        whole = integrate_samples(vals, g.h)
        split = integrate_samples(vals, g.h, 0, 40) + integrate_samples(vals, g.h, 40, 64)
        assert abs(whole - split) < 1e-12 * max(1.0, abs(whole))


class TestIntegrateSamples:
    def setup_method(self):
        self.grid = Grid(2.0, 64)
        self.vals = np.sin(1.7 * self.grid.t) + 0.2 * self.grid.t**3

    def exact(self, a, b):
        F = lambda t: -np.cos(1.7 * t) / 1.7 + 0.05 * t**4
        return F(b) - F(a)

    def test_even_odd_and_single_panel_ranges(self):
        g = self.grid
        for j0, j1 in [(0, 64), (0, 63), (3, 4), (0, 1), (63, 64), (5, 12), (7, 16)]:
            got = integrate_samples(self.vals, g.h, j0, j1)
            want = self.exact(g.t[j0], g.t[j1])
            assert abs(got - want) < 5e-7, (j0, j1)

    def test_empty_range(self):
        assert integrate_samples(self.vals, self.grid.h, 5, 5) == 0.0

    def test_cumulative_matches_prefix_rule(self):
        cum = cumulative_samples(self.vals, self.grid.h)
        for j in (0, 1, 2, 3, 10, 33, 64):
            direct = integrate_samples(self.vals, self.grid.h, 0, j)
            assert cum[j] == pytest.approx(direct, rel=1e-13, abs=1e-15)

    def test_fourth_order_convergence(self):
        errs = []
        for n in (32, 64, 128):
            g = Grid(2.0, n)
            vals = np.sin(1.7 * g.t) + 0.2 * g.t**3
            errs.append(abs(integrate_samples(vals, g.h, 0, n - 1) - self.exact(0.0, g.t[-2])))
        rate = np.log2(errs[0] / errs[2]) / 2.0
        assert rate > 3.7


class TestSolve2x2:
    def test_identity_basis(self):
        assert solve2x2((1, 0), (0, 1), (3, 4)) == (3.0, 4.0)

    def test_scaled_basis(self):
        assert solve2x2((2, 0), (0, 2), (2, 2)) == (1.0, 1.0)

    def test_random_residuals(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            c1, c2, rhs = rng.normal(size=(3, 2))
            det = c1[0] * c2[1] - c1[1] * c2[0]
            if abs(det) < 1e-6 * np.linalg.norm(c1) * np.linalg.norm(c2):
                continue
            x1, x2 = solve2x2(c1, c2, rhs)
            res = np.linalg.norm(x1 * c1 + x2 * c2 - rhs)
            assert res < 1e-12 * max(1.0, np.linalg.norm(rhs))

    def test_degenerate_raises_with_det(self):
        with pytest.raises(DegenerateBasisError) as err:
            solve2x2((1.0, 1.0), (2.0, 2.0 + 1e-12), (1.0, 0.0))
        assert abs(err.value.det) <= err.value.threshold

    def test_whole_array_guard_matches_scalar_guard(self):
        rng = np.random.default_rng(8)
        c1, c2 = rng.normal(size=(2, 40, 3, 2))
        c2[::4] = c1[::4] * 2.5  # parallel pairs
        c2[1::4, 0] = 0.0  # one zero column in some pairs
        det, threshold, degenerate = basis_guard(c1, c2)
        assert det.shape == threshold.shape == degenerate.shape == (40, 3)
        assert degenerate[::4].all() and degenerate[1::4, 0].all()
        for idx in np.ndindex(40, 3):
            try:
                solve2x2(c1[idx], c2[idx], (1.0, 0.0))
            except DegenerateBasisError as err:
                assert degenerate[idx]
                assert (err.det, err.threshold) == (det[idx], threshold[idx])
            else:
                assert not degenerate[idx]


class TestOdeMarch:
    def test_zero_derivative_is_constant(self):
        out = ode_march(lambda t, y: np.zeros_like(y), [2.5, -1.0], Grid(1.0, 16))
        assert np.all(out == [2.5, -1.0])

    def test_exponential_growth(self):
        out = ode_march(lambda t, y: y, [1.0], Grid(1.0, 128))
        assert abs(out[-1, 0] - math.e) < 1e-8

    def test_decay_is_monotone(self):
        out = ode_march(lambda t, y: -y, [1.0], Grid(1.0, 32))
        assert np.all(np.diff(out[:, 0]) < 0)

    def test_observed_order_slope(self):
        A = np.array([[0.0, 1.3], [-0.9, -0.2]])
        y0 = np.array([1.0, 0.4])

        def exact(T):
            # series for expm(A*T) @ y0, summed far past convergence
            acc = np.zeros(2)
            term = y0.astype(float)
            for k in range(60):
                acc = acc + term
                term = (A @ term) * (T / (k + 1.0))
            return acc

        errs = []
        ns = (16, 32, 64)
        for n in ns:
            out = ode_march(lambda t, y: A @ y, y0, Grid(1.0, n))
            errs.append(np.linalg.norm(out[-1] - exact(1.0)))
        slope = np.polyfit(np.log([1.0 / n for n in ns]), np.log(errs), 1)[0]
        assert slope > 3.9

    def test_nonfinite_derivative_reports_stage(self):
        def deriv(t, y):
            return np.array([float("nan")]) if t > 0.5 else y

        with pytest.raises(EvaluationError) as err:
            ode_march(deriv, [1.0], Grid(1.0, 8))
        assert err.value.stage is not None


class TestFdDerivative:
    def test_exact_on_quartics(self):
        g = Grid(1.0, 32)
        vals = g.t**4 - 2.0 * g.t**2 + 3.0
        want = 4.0 * g.t**3 - 4.0 * g.t
        assert np.abs(fd_derivative(vals, g.h) - want).max() < 1e-11

    def test_fourth_order_on_smooth_data(self):
        errs = []
        for n in (32, 64):
            g = Grid(2.0, n)
            d = fd_derivative(np.sin(2.0 * g.t), g.h) - 2.0 * np.cos(2.0 * g.t)
            errs.append(np.abs(d).max())
        assert errs[0] / errs[1] > 12.0
