import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import striplift as sl
from striplift.numerics import cumulative_samples

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def frameworks(draw, ns=st.integers(1, 6), amplitudes=st.floats(0.0, 0.2),
               panels=st.sampled_from([16, 64])):
    """perturbed2d frameworks (by default n in 1..6 on a 16- or 64-panel grid), and a seed."""
    n = draw(ns)
    seed = draw(st.integers(0, 2**32 - 1))
    amplitude = draw(amplitudes)
    fw = sl.builtin("perturbed2d", n=n, seed=seed, amplitude=amplitude)
    grid = sl.Grid(fw.T, draw(panels))
    return sl.Framework(fw.T, n, [fw.curve(i) for i in fw.curve_indices], grid), seed


BUILTINS = ("translational3d", "cylinder-strip3d", "circles2d", "perturbed2d")


@lru_cache(maxsize=None)
def builtin_stressed(name):
    """A built-in framework and a stress on it: the induced stress of a projected
    surface, or the stress solved from lambda0 = 1 and mu_{-1} = 0."""
    obj = sl.builtin(name)
    if isinstance(obj, sl.AnalyticSurface3D):
        proj = sl.project(obj)
        return proj.framework, sl.induced_stress(proj)
    return obj, sl.solve_stress(obj, np.ones(obj.n + 1), 0.0)


def generated_stressed(drawn):
    """A generated framework with the stress solved from a lambda0 in [0.5, 2] and a
    constant mu_{-1} in [-0.1, 0.1], both drawn from its seed."""
    fw, seed = drawn
    rng = np.random.default_rng(seed)
    return fw, sl.solve_stress(fw, rng.uniform(0.5, 2.0, fw.n + 1), float(rng.uniform(-0.1, 0.1)))


def diverging_framework():
    """Three lines y = -1, 0, 1 traced as x = (t - c)^7 / 7, c = 1 + 1/64, on Grid(2, 32).

    The tangent nearly vanishes at t = c, between nodes, and the marched curve
    stress ~ (t - c)^-6 grows by about 8e13 there: a blow-up at any scale of
    lambda0, which the march reports at t = 1.0625.
    """
    c = 1.0 + 1.0 / 64.0
    x = sl.CoordFunction(tuple(math.comb(7, k) * (-c) ** (7 - k) / 7.0 for k in range(8)))
    curves = [sl.AnalyticCurve((x, sl.CoordFunction((y,)))) for y in (-1.0, 0.0, 1.0)]
    return sl.Framework(2.0, 0, curves, sl.Grid(2.0, 32))


@st.composite
def stressed_frameworks(draw, ns=st.integers(0, 6)):
    """A built-in or generated framework with a stress, one mu row of it maybe scaled by 1.01.

    Generated frameworks (see `frameworks`) carry their `generated_stressed` stress.
    """
    if draw(st.booleans()):
        fw, stress = builtin_stressed(draw(st.sampled_from(BUILTINS)))
    else:
        fw, stress = generated_stressed(draw(frameworks(ns=ns)))
    if draw(st.booleans()):
        stress = mu_scaled(stress, draw(st.integers(-1, fw.n)), 1.01)
    return fw, stress


@pytest.fixture(scope="session")
def translational():
    """The 3-strip translational demo with its projection and induced stress."""
    surface = sl.builtin("translational3d")
    proj = sl.project(surface)
    stress = sl.induced_stress(proj)
    return surface, proj, stress


@pytest.fixture(scope="session")
def cylinder():
    surface = sl.builtin("cylinder-strip3d")
    proj = sl.project(surface)
    stress = sl.induced_stress(proj)
    return surface, proj, stress


@pytest.fixture(scope="session")
def parallel_lines():
    """Straight horizontal lines y = i, a trivially regular 1-strip framework."""
    curves = [
        sl.AnalyticCurve(
            (sl.CoordFunction((0.0, 1.0)), sl.CoordFunction((float(i),)))
        )
        for i in range(-1, 3)
    ]
    return sl.Framework(2.0, 1, curves, sl.Grid(2.0, 64))


def mu_minus1_fn(proj):
    """Closed-form boundary edge stress of an analytic projected surface."""
    fw = proj.framework
    z_funcs = [proj.surface.curve(i).coords[2] for i in (-1, 0)]

    def fn(t):
        cur = fw.jet(-1, t)
        nxt = fw.jet(0, t)
        edge = nxt[0] - cur[0]
        b = sl.det2(edge, cur[1])
        g = sl.det2(edge, cur[2])
        jj = sl.det2(cur[1], cur[2])
        z, z1, z2, _ = z_funcs[0].derivatives(t, order=3)
        z_next = z_funcs[1].value(t)
        return (g * z1 - b * z2 - jj * (z_next - z)) / b**2

    return fn


def twisted_surface():
    """translational3d with an index-dependent twist added to the heights."""
    surface = sl.builtin("translational3d")
    curves = []
    for i in surface.curve_indices:
        x, y, z = surface.curve(i).coords
        twist = sl.CoordFunction((0.0,), ((0.3 * i, 2.0, 0.4 * i),))
        curves.append(sl.AnalyticCurve((x, y, sl.combine(z, 1.0, twist, 1.0))))
    return sl.AnalyticSurface3D(surface.T, surface.n, curves)


def mu_scaled(stress, edge_index, factor):
    """Copy of a stress with one edge row multiplied by factor."""
    mu = stress.mu.copy()
    mu[edge_index + 1] *= factor
    return sl.StressField(stress.grid, stress.lam.copy(), mu)


def prefix_rule_heights(fw, stress, jumps, target=None):
    """Heights at the point (k, t_j), by default (n, T), along the paths whose jump
    nodes are the rows of `jumps`: the walk of an increasing path, as an oracle.

    Row m holds the node where path m jumps off each curve 0..k-1.  A run along
    curve i over nodes [j0, j1] integrates as the difference of the prefix
    integrals (cumulative_samples) of its integrand towards the target.
    """
    grid = stress.grid
    k, j = (fw.n, grid.N) if target is None else target
    jumps = np.asarray(jumps, dtype=int).reshape(len(jumps), k)
    rows = np.c_[np.zeros(len(jumps), int), jumps, np.full(len(jumps), j)]
    point = fw.grid_jets(k, grid)[0, j]
    heights = np.zeros(len(jumps))
    for i in range(k + 1):
        prev, cur = fw.grid_jets(i - 1, grid), fw.grid_jets(i, grid)
        prefix = cumulative_samples(stress.mu_at(i - 1) * sl.det2(cur[0] - prev[0], point - prev[0]), grid.h)
        heights -= prefix[rows[:, i + 1]] - prefix[rows[:, i]]
        if i < k:
            at = rows[:, i + 1]
            heights += stress.lam_at(i)[at] * sl.det2(cur[1, at], point - cur[0, at])
    return heights


def random_jump_nodes(k, j, count, seed=0):
    """Seeded random increasing paths to (k, t_j), one row per path: the sorted nodes in
    0..j at which it jumps off curves 0..k-1, one `integers` draw of k nodes per path."""
    rng = np.random.default_rng(seed)
    return [np.sort(rng.integers(0, j + 1, size=k)).tolist() for _ in range(count)]
