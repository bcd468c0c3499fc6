"""The whole-array grid table against point evaluations, and the balance
residual's linearity and rotation equivariance, on generated frameworks."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import striplift as sl
from striplift.framework import combine
from striplift.numerics import NORM_FLOOR, fd_derivative

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def frameworks(draw):
    """perturbed2d frameworks with n in 1..6 on a 16- or 64-panel grid, and a seed."""
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    amplitude = draw(st.floats(0.0, 0.2))
    fw = sl.builtin("perturbed2d", n=n, seed=seed, amplitude=amplitude)
    grid = sl.Grid(fw.T, draw(st.sampled_from([16, 64])))
    return sl.Framework(fw.T, n, [fw.curve(i) for i in fw.curve_indices], grid), seed


@PROPERTY
@given(frameworks())
def test_table_rows_are_the_curve_jets(drawn):
    fw, _ = drawn
    table = fw.grid_table()
    for i in fw.curve_indices:
        jet = fw.curve(i).jet(fw.grid.t)
        for field in ("p", "d1", "d2", "d3"):
            assert np.array_equal(getattr(table, field)[i + 1], getattr(jet, field))


def random_stress(fw, rng):
    lam, mu = rng.normal(size=(fw.n + 1, fw.grid.N + 1)), rng.normal(size=(fw.n + 2, fw.grid.N + 1))
    return sl.StressField(fw.grid, lam, mu)


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
                lam_dot[i, j] * cur.d1,
                lam[i, j] * cur.d2,
                mu[i + 1, j] * (nxt.p - cur.p),
                mu[i, j] * (cur.p - prev.p),
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
    assert scale == max(np.abs(z).max(), NORM_FLOOR)
    for k in range(fw.n + 1):
        for j, t in enumerate(fw.grid.t):
            assert abs(z[k, j] - sl.height(fw, stress, (k, t), sl.lpath(k, t))) <= 1e-12 * scale
