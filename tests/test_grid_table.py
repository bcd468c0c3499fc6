"""The whole-array grid table against point evaluations, on generated frameworks."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import striplift as sl
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


@PROPERTY
@given(frameworks())
def test_residual_is_the_balance_of_point_jets(drawn):
    fw, seed = drawn
    grid = fw.grid
    rng = np.random.default_rng(seed)
    lam = rng.normal(size=(fw.n + 1, grid.N + 1))
    mu = rng.normal(size=(fw.n + 2, grid.N + 1))
    report = sl.residual_report(fw, sl.StressField(grid, lam, mu))
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
