"""The whole-array grid table against point evaluations, and the balance
residual's linearity and rotation equivariance, on generated frameworks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import striplift as sl
from striplift import framework
from striplift.framework import combine
from striplift.numerics import fd_derivative

from conftest import PROPERTY, frameworks


@PROPERTY
@given(frameworks())
def test_table_rows_are_the_curve_jets(drawn):
    fw, _ = drawn
    table = fw.grid_table(order=3)
    for i in fw.curve_indices:
        jet = fw.curve(i).jet(fw.grid.t)
        assert np.array_equal(table[:, i + 1], jet)


def test_grid_table_is_the_tabulated_array():
    fw = sl.builtin("perturbed2d", n=2, seed=1)
    table = fw.grid_table()
    assert type(table) is np.ndarray and table.shape == (3, fw.n + 3, fw.grid.N + 1, 2)
    assert not table.flags.writeable
    assert np.array_equal(table, fw.tabulate(fw.grid.t, 2))
    assert len(fw.grid_table(order=3)) == 4 and len(fw.grid_table()) == 4
    assert np.array_equal(fw.grid_table()[:3], table)


def test_point_jets_are_columns_of_the_order_three_table():
    fw = sl.builtin("perturbed2d", n=2, seed=1)
    table = fw.grid_table(order=3)
    for i in fw.curve_indices:
        for j in (0, 37, fw.grid.N):
            jet = fw.jet(i, fw.grid.t[j])
            assert type(jet) is np.ndarray and jet.shape == (4, 2)
            # equal bit for bit unless the host's vector sin differs from its scalar sin
            assert np.abs(jet - table[:, i + 1, j]).max() <= 1e-13 * np.abs(table[:, i + 1, j]).max()
        assert np.array_equal(fw.grid_jets(i), fw.grid_table()[:, i + 1])


def test_projected_table_is_a_view_of_the_surface_table():
    surface = sl.builtin("translational3d")
    proj = sl.project(surface)
    plane, space = proj.framework.grid_table(), surface.grid_table(proj.grid)
    assert np.array_equal(plane, space[..., :2]) and np.shares_memory(plane, space)


def test_lifted_table_is_one_read_only_array():
    proj = sl.project(sl.builtin("translational3d"))
    surface = sl.build_lifting(proj.framework, sl.induced_stress(proj))
    table = surface.grid_table()
    assert type(table) is np.ndarray and table.shape == (3, surface.n + 1, surface.grid.N + 1, 3)
    assert not table.flags.writeable and surface.grid_table() is table
    assert np.array_equal(table[..., 2], [surface.z, surface.z_d1, surface.z_d2])
    assert np.array_equal(table[..., :2], proj.framework.grid_table()[:3, 1:-1])


def random_stress(fw, rng):
    lam, mu = rng.normal(size=(fw.n + 1, fw.grid.N + 1)), rng.normal(size=(fw.n + 2, fw.grid.N + 1))
    return sl.StressField(fw.grid, lam, mu)


@pytest.fixture
def jet_orders(monkeypatch):
    """The order of every call of the jet kernel, in call order."""
    orders, jets = [], framework._Coefficients.jets

    def counted(self, t, order):
        orders.append(order)
        return jets(self, t, order)

    monkeypatch.setattr(framework._Coefficients, "jets", counted)
    return orders


def test_the_balance_tabulates_two_orders_once(jet_orders):
    fw = sl.builtin("perturbed2d", n=2, seed=1)
    sl.residual_report(fw, random_stress(fw, np.random.default_rng(0)))
    assert len(fw.grid_table()) == 3
    assert jet_orders == [2]


def test_order_three_tabulates_once_more_and_serves_every_later_call(jet_orders):
    fw = sl.builtin("perturbed2d", n=2, seed=1)
    low = fw.grid_table()
    high = fw.grid_table(order=3)
    assert fw.grid_table() is high and fw.grid_table(order=3) is high
    assert len(fw.grid_jets(0)) == 4
    assert jet_orders == [2, 3]
    assert len(low) == 3 and len(fw.grid_jets(0, sl.Grid(fw.T, 16))) == 3
    for a, b in zip(list(low)[:3], list(high)[:3]):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError, match="^grid tables hold order 2 or 3, got 1$"):
        fw.grid_table(order=1)


def test_onestrip_tabulates_once(jet_orders):
    # a framework read from a document, as the onestrip command reads it
    fw = sl.load_framework(sl.save_framework(sl.project(sl.builtin("cylinder-strip3d")).framework))
    jet_orders.clear()
    report = sl.onestrip_verify(fw)
    assert report.verdict and report.equilibrium_max is not None  # the residual ran too
    assert jet_orders == [3]


@PROPERTY
@given(frameworks())
def test_residual_is_the_balance_of_point_jets(drawn):
    fw, seed = drawn
    grid = fw.grid
    stress = random_stress(fw, np.random.default_rng(seed))
    lam, mu = stress.lam, stress.mu
    report = sl.residual_report(fw, stress)
    lam_dot = fd_derivative(lam, grid.h)
    for j, t in enumerate(grid.t):
        jets = [fw.jet(k, t) for k in fw.curve_indices]  # curve k at jets[k + 1]
        for i in range(fw.n + 1):
            prev, cur, nxt = jets[i : i + 3]
            terms = (
                lam_dot[i, j] * cur[1],
                lam[i, j] * cur[2],
                mu[i + 1, j] * (nxt[0] - cur[0]),
                mu[i, j] * (cur[0] - prev[0]),
            )
            balance = terms[0] + terms[1] + terms[2] - terms[3]
            scale = max(np.abs(term).max() for term in terms)
            # equal bit for bit unless the host's vector sin differs from its scalar sin
            assert np.abs(report.residual[i, j] - balance).max() <= 1e-13 * scale


#: stress weights, away from the underflow range where a * lam loses its digits
WEIGHTS = st.floats(-3.0, 3.0).filter(lambda v: v == 0.0 or abs(v) > 1e-3)


@PROPERTY
@given(frameworks(), WEIGHTS, WEIGHTS)
def test_residual_is_linear_in_the_stress(drawn, a, b):
    fw, seed = drawn
    rng = np.random.default_rng(seed)
    s1, s2 = random_stress(fw, rng), random_stress(fw, rng)
    combo = sl.StressField(fw.grid, a * s1.lam + b * s2.lam, a * s1.mu + b * s2.mu)
    r1, r2, r = (sl.residual_report(fw, s).residual for s in (s1, s2, combo))
    scale = abs(a) * np.abs(r1).max() + abs(b) * np.abs(r2).max()
    assert np.abs(r - (a * r1 + b * r2)).max() <= 1e-12 * scale


@PROPERTY
@given(frameworks(), st.floats(0.0, 2.0 * np.pi))
def test_residual_turns_with_the_framework(drawn, angle):
    # rotating every curve's coefficient tables rotates every residual vector
    fw, seed = drawn
    c, s = np.cos(angle), np.sin(angle)
    curves = [fw.curve(i).coords for i in fw.curve_indices]
    turned = [sl.AnalyticCurve((combine(x, c, y, -s), combine(x, s, y, c))) for x, y in curves]
    turned = sl.Framework(fw.T, fw.n, turned, fw.grid)
    stress = random_stress(fw, np.random.default_rng(seed))
    residual = sl.residual_report(fw, stress).residual
    want = residual @ np.array([[c, s], [-s, c]])  # row vectors times R^T
    got = sl.residual_report(turned, stress).residual
    assert np.abs(got - want).max() <= 1e-12 * np.abs(residual).max()


@PROPERTY
@given(frameworks())
def test_lifting_heights_are_the_axis_path_heights(drawn):
    fw, seed = drawn
    rng = np.random.default_rng(seed)
    stress = sl.solve_stress(fw, rng.uniform(0.5, 2.0, fw.n + 1), float(rng.uniform(-0.1, 0.1)))
    z = sl.build_lifting(fw, stress, force=True).z  # forced: a coarse grid may miss the gate
    scale = sl.height_scale(fw, stress)
    assert scale == np.abs(z).max()
    for k in range(fw.n + 1):
        for j, t in enumerate(fw.grid.t):
            assert abs(z[k, j] - sl.height(fw, stress, (k, t))) <= 1e-12 * scale


@PROPERTY
@given(frameworks(st.integers(2, 4), st.floats(0.0, 0.05), st.just(512)))
def test_projected_lifting_gives_back_its_stress(drawn):
    # lift a marched stress with mu_{-1} = 0, project the lifting: its heights
    # induce the stress's interior rows.  On 80 draws the residuals stayed
    # below 1.8e-7 (every lift passes the 1e-6 gate; at N = 256 some do not)
    # and the worst error was 5.0e-6 of the largest stress sample.
    fw, seed = drawn
    stress = sl.solve_stress(fw, np.random.default_rng(seed).uniform(1.0, 2.0, fw.n + 1), 0.0)
    rows = sl.recovered_interior_stress(sl.project(sl.build_lifting(fw, stress)))
    assert sorted(rows["lambda"]) == list(range(1, fw.n))
    assert sorted(rows["mu"]) == list(range(fw.n))
    scale = max(np.abs(stress.lam).max(), np.abs(stress.mu).max())
    for i, row in rows["lambda"].items():
        assert np.abs(row - stress.lam_at(i)).max() <= 5e-5 * scale
    for i, row in rows["mu"].items():
        assert np.abs(row - stress.mu_at(i)).max() <= 5e-5 * scale
