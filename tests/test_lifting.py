import itertools
import json
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import striplift as sl
from striplift import framework
from striplift.errors import EvaluationError, NotSelfStressedError, SchemaError
from striplift.framework import _dump_json, parse_document
from striplift.geomcore import det2
from striplift.lifting import (
    SampledLifting,
    _height_profiles,
    export_obj,
    load_lifting,
    save_lifting,
    strip_defects,
)
from striplift.numerics import cumulative_samples, ratio

from conftest import (
    BUILTINS, PROPERTY, builtin_stressed, frameworks, generated_stressed, mu_scaled,
    prefix_rule_heights, random_jump_nodes, stressed_frameworks, twisted_surface,
)


def zero_stress(fw):
    g = fw.grid
    return sl.StressField(g, np.zeros((fw.n + 1, g.N + 1)), np.zeros((fw.n + 2, g.N + 1)))


def reference_height(fw, stress, p, jumps):
    """The height at p = (k, s) along the path jumping off curves 0..k-1 at the grid
    nodes `jumps`, per point: point jets at the target and at every jump node, and
    each run along curve i as C_i(end) - C_i(start), C_i = P_y px_i - P_x py_i - q_i
    from one 1-d prefix integral per bilinear part of its integrand."""
    k, s = p
    if not 0 <= k <= fw.n:
        raise IndexError(f"target curve {k} outside 0..{fw.n}")
    grid = stress.grid
    idx = [0, *jumps, grid.node_index(s)]
    target = fw.jet(k, grid.t[idx[-1]]).p
    total = 0.0
    for i in range(k):
        tj = grid.t[idx[i + 1]]
        jet = fw.jet(i, tj)
        total += stress.lam_at(i)[idx[i + 1]] * det2(jet.d1, target - jet.p)
    for i in range(k + 1):
        prev = fw.grid_jets(i - 1, grid).p
        edge = fw.grid_jets(i, grid).p - prev
        mu = stress.mu_at(i - 1)
        px, py, q = (cumulative_samples(part, grid.h)
                     for part in (mu * edge[:, 0], mu * edge[:, 1], mu * det2(edge, prev)))
        c = target[1] * px - target[0] * py - q
        total -= c[idx[i + 1]] - c[idx[i]]
    return float(total)


def reference_jump_sums(weights, base, tangent, target):
    """Every running sum of the jump terms, as one (jumps+1, curves, N+1) tensor."""
    terms = weights[:, None, None] * det2(tangent[:, None, None], target - base[:, None, None])
    return np.cumsum(np.concatenate([np.zeros((1,) + target.shape[:-1]), terms]), axis=0)


def reference_height_profiles(fw, stress):
    """Axis-path heights with the jump sums read off the diagonal of the tensor."""
    grid = stress.grid
    table = fw.grid_table(grid)
    prev, target = table.p[:-2], table.p[1:-1]
    mu = stress.mu[:-1]
    k = np.arange(fw.n + 1)
    edge = target - prev
    px, py, q = cumulative_samples(
        np.stack([mu * edge[..., 0], mu * edge[..., 1], mu * det2(edge, prev)]), grid.h
    )
    z = reference_jump_sums(stress.lam[:-1, 0], table.p[1:-2, 0], table.d1[1:-2, 0], target)[k, k]
    return z - (px * target[..., 1] - py * target[..., 0] - q)


def reference_reversal_affine_defect(fw, stress):
    """reversal_affine_defect without its gate, from the reference heights and jump sums."""
    z_fwd = reference_height_profiles(fw, stress)
    z_rev = reference_height_profiles(sl.reversed_framework(fw), sl.reversed_stress(stress))[::-1]
    table = fw.grid_table(stress.grid)
    curves = table.p[1:-1]
    affine = reference_jump_sums(stress.lam[:, 0], curves[:, 0], table.d1[1:-1, 0], curves)[-1]
    return float(np.abs(z_fwd - z_rev - affine).max())


def reference_strip_defects(surface, grid=None):
    """strip_defects with the generic norm."""
    table = surface.grid_table(grid or surface.grid)
    a1, b1 = table.d1[:-1], table.d1[1:]
    norm = lambda v: np.linalg.norm(v, axis=-1)
    ruling = table.p[1:] - table.p[:-1]
    return ratio(sl.det3(ruling, a1, b1), norm(ruling) * norm(a1) * norm(b1))


def reference_plane_fit_distance(points):
    """plane_fit_distance with the generic norm."""
    centered = points - points.mean(axis=0)
    normal = np.linalg.svd(centered, full_matrices=False)[2][-1]
    diameter = 2.0 * np.linalg.norm(centered, axis=1).max()
    return float(ratio(np.abs(centered @ normal).max(), diameter))


@PROPERTY
@given(stressed_frameworks())
def test_height_kernels_are_bit_identical_to_the_reference(drawn):
    fw, stress = drawn
    # one evaluation of summed affine forms rounds apart from the per-term reference
    want, scale = reference_height_profiles(fw, stress), sl.height_scale(fw, stress)
    assert np.abs(_height_profiles(fw, stress) - want).max() <= 1e-13 * scale
    assert sl.path_independence_spread(fw, stress)[1] == scale
    # the gate is the residual report's, checked on its own; tol=inf lets every stress through
    defect = sl.reversal_affine_defect(fw, stress, tol=np.inf)
    assert abs(defect - reference_reversal_affine_defect(fw, stress)) <= 1e-13 * scale


ANALYTIC = ("translational3d", "cylinder-strip3d", "twisted")


@PROPERTY
@given(st.one_of(st.sampled_from(ANALYTIC), stressed_frameworks(ns=st.integers(1, 6))))
def test_strip_defects_are_bit_identical_to_the_reference(drawn):
    if drawn in ANALYTIC:
        surface = twisted_surface() if drawn == "twisted" else sl.builtin(drawn)
    else:
        surface = sl.build_lifting(*drawn, force=True)
        first, last = surface.grid_table().p[[0, -1]]
        assert sl.boundary_planarity(surface) == (
            reference_plane_fit_distance(first), reference_plane_fit_distance(last)
        )
    assert strip_defects(surface).tobytes() == reference_strip_defects(surface).tobytes()


def test_height_memory_is_linear_in_the_curve_count():
    # a few (3, n+1, N+1) form tables, no (n, n+1, N+1) jump tensor: ~7 MB here
    fw = sl.builtin("perturbed2d", n=64, seed=3, amplitude=0.005)
    grid = sl.Grid(fw.T, 1024)
    stress = sl.solve_stress(fw, 1.0 + 0.5 * np.arange(65), 0.01, grid)
    fw.grid_table(grid)
    for kernel in (_height_profiles, sl.path_independence_spread):  # lift's heights, check's spread
        tracemalloc.start()
        try:
            kernel(fw, stress)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20, kernel.__name__


class TestHeight:
    def test_zero_stress_any_path(self, translational):
        _, proj, _ = translational
        fw = proj.framework
        stress = zero_stress(fw)
        jumps = random_jump_nodes(fw.n, stress.grid.N, 4, seed=2)
        assert np.all(prefix_rule_heights(fw, stress, jumps) == 0.0)
        assert sl.height(fw, stress, (fw.n, fw.T)) == 0.0

    def test_first_curve_with_zero_boundary_stress(self, translational):
        # along curve 0 only the first boundary edge integral survives
        _, proj, stress = translational
        fw = proj.framework
        cleared = mu_scaled(stress, -1, 0.0)
        s = stress.grid.t[128]
        assert sl.height(fw, cleared, (0, s)) == 0.0
        assert sl.height(fw, stress, (0, s)) != 0.0

    def test_origin_is_zero(self, translational):
        _, proj, stress = translational
        assert sl.height(proj.framework, stress, (0, 0.0)) == 0.0

    def test_two_paths_agree_for_self_stress(self, translational):
        # a staircase path of the oracle walk and the axis path of height
        _, proj, stress = translational
        fw = proj.framework
        a = prefix_rule_heights(fw, stress, [[32, 80, 150]], target=(3, 192))[0]
        b = sl.height(fw, stress, (3, stress.grid.t[192]))
        scale = sl.height_scale(fw, stress)
        assert abs(a - b) < 1e-6 * scale

    def test_off_grid_path_node_rejected(self, translational):
        _, proj, stress = translational
        with pytest.raises(sl.GridAlignmentError):
            sl.height(proj.framework, stress, (3, 0.1234567))

    def test_mismatched_target_rejected(self, translational):
        # a target curve outside 0..n raises what the reference raises; a negative row would wrap
        _, proj, stress = translational
        fw = proj.framework
        for k in (-1, fw.n + 1):
            with pytest.raises(IndexError) as want:
                reference_height(fw, stress, (k, fw.T), [0] * max(k, 0))
            with pytest.raises(IndexError, match=f"^{re.escape(str(want.value))}$"):
                sl.height(fw, stress, (k, fw.T))

    def test_linear_in_stress(self, translational):
        _, proj, stress = translational
        fw = proj.framework
        jumps = random_jump_nodes(2, 100, 1, seed=5)
        other = mu_scaled(stress, 0, 0.7)
        a, b = 1.25, -0.5
        combo = sl.StressField(
            stress.grid, a * stress.lam + b * other.lam, a * stress.mu + b * other.mu
        )
        stresses = (combo, stress, other)
        walked = [prefix_rule_heights(fw, each, jumps, target=(2, 100))[0] for each in stresses]
        axis = [sl.height(fw, each, (2, stress.grid.t[100])) for each in stresses]
        for h, h1, h2 in (walked, axis):
            assert h == pytest.approx(a * h1 + b * h2, rel=1e-12, abs=1e-12)


class TestSpread:
    def test_zero_stress(self, translational):
        _, proj, _ = translational
        fw = proj.framework
        assert sl.path_independence_spread(fw, zero_stress(fw))[:2] == (0.0, 0.0)

    def test_self_stress_small_perturbed_large(self, translational):
        _, proj, stress = translational
        fw = proj.framework
        spread, scale, _ = sl.path_independence_spread(fw, stress)
        assert spread < 1e-6 * scale
        bad = mu_scaled(stress, 0, 1.1)
        assert sl.path_independence_spread(fw, bad)[0] > 1e-3 * scale


@PROPERTY
@given(frameworks(panels=st.sampled_from([16, 32, 64, 128, 256])), st.data())
def test_path_heights_are_the_reference_heights(drawn, data):
    # the oracle walk against the per-point reference, and height along the axis path
    fw, seed = drawn
    rng = np.random.default_rng(seed)
    stress = sl.solve_stress(fw, rng.uniform(0.5, 2.0, fw.n + 1), float(rng.uniform(-0.1, 0.1)))
    k = data.draw(st.integers(0, fw.n))
    j = data.draw(st.integers(0, fw.grid.N))
    s = float(fw.grid.t[j])
    paths = random_jump_nodes(k, j, 8, seed=seed) + [[0] * k]
    want = np.array([reference_height(fw, stress, (k, s), jumps) for jumps in paths])
    heights, scale = prefix_rule_heights(fw, stress, paths, (k, j)), sl.height_scale(fw, stress)
    assert np.abs(heights - want).max() <= 1e-13 * scale
    assert abs(sl.height(fw, stress, (k, s)) - want[-1]) <= 1e-13 * scale


@PROPERTY
@given(stressed_frameworks())
def test_axis_path_heights_are_the_lifting_profiles(drawn):
    fw, stress = drawn
    z = _height_profiles(fw, stress)
    for k in range(fw.n + 1):
        heights = [sl.height(fw, stress, (k, t)) for t in stress.grid.t.tolist()]
        assert np.array(heights).tobytes() == z[k].tobytes()


@PROPERTY
@given(stressed_frameworks(), st.integers(0, 2**32 - 1), st.data())
def test_exact_spread_bounds_the_oracle_walk(drawn, seed, data):
    # 20 seeded paths to (n, T) and the axis path; the kernel and the oracle sum the
    # same terms in different orders, so each bound holds up to 1e-13 H
    fw, stress = drawn
    spread, scale, paths = sl.path_independence_spread(fw, stress)
    jumps = random_jump_nodes(fw.n, stress.grid.N, 20, seed) + [[0] * fw.n]
    walked = prefix_rule_heights(fw, stress, jumps)
    top, bottom = prefix_rule_heights(fw, stress, [paths["max"], paths["min"]])
    assert bottom - 1e-13 * scale <= walked.min() and walked.max() <= top + 1e-13 * scale
    assert abs(top - bottom - spread) <= 1e-13 * scale
    k, j = data.draw(st.integers(0, fw.n)), data.draw(st.integers(0, stress.grid.N))
    axis = prefix_rule_heights(fw, stress, [[0] * k], target=(k, j))[0]
    assert abs(sl.height(fw, stress, (k, stress.grid.t[j])) - axis) <= 1e-12 * scale


@pytest.mark.parametrize("name", BUILTINS)
def test_sampled_spread_is_bounded_by_the_spread_over_every_path(name):
    fw, stress = builtin_stressed(name)
    spread, scale, _ = sl.path_independence_spread(fw, stress)
    heights = prefix_rule_heights(fw, stress, random_jump_nodes(fw.n, stress.grid.N, 200, seed=101))
    assert heights.max() - heights.min() <= spread + 1e-13 * scale


def coarse(fw, stress, panels=16):
    """The framework and its stress sampled on `panels` panels over the same T."""
    grid, step = sl.Grid(fw.T, panels), stress.grid.N // panels
    curves = [fw.curve(i) for i in fw.curve_indices]
    return (sl.Framework(fw.T, fw.n, curves, grid),
            sl.StressField(grid, stress.lam[:, ::step].copy(), stress.mu[:, ::step].copy()))


@PROPERTY
@given(stressed_frameworks(), st.integers(0, 2**32 - 1))
def test_spread_over_every_path_is_the_brute_force_spread(drawn, seed):
    fw, stress = coarse(*drawn)
    spread, scale, paths = sl.path_independence_spread(fw, stress)
    every = list(itertools.combinations_with_replacement(range(stress.grid.N + 1), fw.n))
    heights = prefix_rule_heights(fw, stress, every)
    assert abs(spread - (heights.max() - heights.min())) <= 1e-13 * scale
    top, bottom = prefix_rule_heights(fw, stress, [paths["max"], paths["min"]])
    assert abs(top - heights.max()) <= 1e-13 * scale
    assert abs(bottom - heights.min()) <= 1e-13 * scale
    # 20 sampled paths under the same rule: the exact spread bounds theirs, up to
    # the rounding that separates the kernel's sums from the brute force's
    heights = prefix_rule_heights(fw, stress, random_jump_nodes(fw.n, stress.grid.N, 20, seed))
    assert spread >= heights.max() - heights.min() - 1e-13 * scale


@PROPERTY
@given(st.one_of(st.sampled_from(BUILTINS).map(builtin_stressed), frameworks().map(generated_stressed)))
def test_every_read_mu_row_times_1_01_fails_the_gate(drawn):
    # the heights to (n, T) read edges -1..n-1; a zero row scaled stays the same stress
    fw, stress = drawn
    scale = sl.height_scale(fw, stress)
    for edge in range(-1, fw.n):
        if np.any(stress.mu[edge + 1]):
            assert sl.path_independence_spread(fw, mu_scaled(stress, edge, 1.01))[0] > 1e-6 * scale


def test_spread_reads_no_point_jets(monkeypatch, translational):
    # the spread and the heights come from the cached grid table
    _, proj, stress = translational
    fw = proj.framework
    fw.grid_table(stress.grid)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner in (framework._IndexedCurves, framework.AnalyticCurve):
        monkeypatch.setattr(owner, "jet", counted(owner.__name__, owner.jet))
    spread, scale, _ = sl.path_independence_spread(fw, stress)
    assert spread < 1e-6 * scale
    assert sl.height(fw, stress, (fw.n, fw.T)) != 0.0
    assert calls == {}


# the points (k, s) of three requests: the target (n, T) or beyond it, another target, off the grid
POINTS = {"axis": lambda k, T: (k, T), "other target": lambda k, T: (k - 1, T),
          "off grid": lambda k, T: (k, 0.1234567)}


@pytest.mark.parametrize("order", list(itertools.permutations(POINTS)), ids=" then ".join)
@pytest.mark.parametrize("k", [3, 4], ids=["curve 3", "curve 4 of 3"])
def test_first_bad_path_raises_what_the_reference_raises(translational, k, order):
    # a curve outside 0..n is refused before an off-grid parameter, as the reference does
    _, proj, stress = translational
    fw = proj.framework
    points = [POINTS[name](k, fw.T) for name in order]
    with pytest.raises((IndexError, sl.GridAlignmentError)) as want:
        [reference_height(fw, stress, p, [0] * p[0]) for p in points]
    with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
        [sl.height(fw, stress, p) for p in points]


HEIGHT_KERNELS = {
    "height": lambda fw, stress: sl.height(fw, stress, (0, 0.0)),
    "height_scale": sl.height_scale,
    "path_independence_spread": sl.path_independence_spread,
    "build_lifting": sl.build_lifting,
    "reversal_affine_defect": sl.reversal_affine_defect,
}


@pytest.mark.parametrize("name", HEIGHT_KERNELS)
def test_height_kernels_refuse_a_stress_of_another_framework(name):
    # another n, and a grid over [0, 3] against a framework on [0, 2 pi]
    fw = sl.builtin("circles2d", n=1)
    stress = sl.solve_stress(fw, np.ones(2), 0.0)
    other_n = sl.solve_stress(sl.builtin("circles2d", n=2), np.ones(3), 0.0)
    other_T = sl.StressField(sl.Grid(3.0, stress.grid.N), stress.lam, stress.mu)
    for wrong, message in ((other_n, "stress is for n=2, framework has n=1"),
                           (other_T, "stress grid does not span the framework interval")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            HEIGHT_KERNELS[name](fw, wrong)


class TestBuildLifting:
    def test_zero_stress_lifts_flat(self, translational):
        _, proj, _ = translational
        fw = proj.framework
        surface = sl.build_lifting(fw, zero_stress(fw))
        assert np.all(surface.z == 0.0)
        assert not surface.path_dependent

    def test_z_rows_match_lpath_heights(self, translational):
        _, proj, stress = translational
        fw = proj.framework
        surface = sl.build_lifting(fw, stress)
        for k in (0, 2, 3):
            for j in (1, 3, 100, 256):
                t = stress.grid.t[j]
                want = reference_height(fw, stress, (k, t), [0] * k)
                assert surface.z[k, j] == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_lifted_table_has_no_third_derivative(self, translational):
        _, proj, stress = translational
        surface = sl.build_lifting(proj.framework, stress)
        assert surface.grid_table().d3 is None
        assert not hasattr(surface, "z_d3")

    def test_one_curve_circle_flat_boundary(self):
        fw = sl.builtin("circles2d", n=0)
        stress = sl.solve_stress(fw, [1.0], 0.0)
        surface = sl.build_lifting(fw, stress)
        assert np.abs(surface.z[0]).max() == 0.0

    def test_projects_back_to_source(self, translational):
        _, proj, stress = translational
        fw = proj.framework
        surface = sl.build_lifting(fw, stress)
        lifted = surface.grid_table().p  # row i holds lifted curve i
        assert np.array_equal(lifted[..., :2], fw.grid_table(stress.grid).p[1:-1])

    def test_refuses_non_self_stress(self, translational):
        _, proj, stress = translational
        fw = proj.framework
        bad = mu_scaled(stress, 1, 1.2)
        with pytest.raises(NotSelfStressedError) as err:
            sl.build_lifting(fw, bad)
        assert err.value.report.max_normalized > 1e-3

    def test_force_overrides_gate(self, translational):
        _, proj, stress = translational
        fw = proj.framework
        bad = mu_scaled(stress, 1, 1.2)
        surface = sl.build_lifting(fw, bad, force=True)
        assert surface.path_dependent

    def test_round_trip_conjugacy(self, translational, cylinder):
        for _, proj, stress in (translational, cylinder):
            surface = sl.build_lifting(proj.framework, stress)
            assert sl.conjugacy_residual(surface) < 1e-6


class TestConjugacyResidual:
    def test_translational_exact(self):
        assert sl.conjugacy_residual(sl.builtin("translational3d")) < 1e-12

    def test_cylinder_exact(self):
        assert sl.conjugacy_residual(sl.builtin("cylinder-strip3d")) < 1e-12

    def test_twisted_control_fails(self):
        assert sl.conjugacy_residual(twisted_surface()) > 1e-2


class TestReversal:
    def test_zero_stress(self, translational):
        _, proj, _ = translational
        fw = proj.framework
        assert sl.reversal_affine_defect(fw, zero_stress(fw)) == 0.0

    def test_translational_demo(self, translational):
        _, proj, stress = translational
        defect = sl.reversal_affine_defect(proj.framework, stress)
        assert defect < 1e-6 * sl.height_scale(proj.framework, stress)

    def test_two_strip_solver_stress(self):
        fw = sl.builtin("circles2d", n=2)
        stress = sl.solve_stress(fw, [1.0, -0.5, 0.8], 0.0)
        assert sl.residual_report(fw, stress).max_normalized < 1e-7
        defect = sl.reversal_affine_defect(fw, stress)
        assert defect < 1e-6 * sl.height_scale(fw, stress)

    def test_reversed_stress_is_self_stress(self, translational):
        _, proj, stress = translational
        rev_fw = sl.reversed_framework(proj.framework)
        rev_stress = sl.reversed_stress(stress)
        assert sl.residual_report(rev_fw, rev_stress).max_normalized < 1e-7

    def test_gate(self, translational):
        _, proj, stress = translational
        with pytest.raises(NotSelfStressedError):
            sl.reversal_affine_defect(proj.framework, mu_scaled(stress, 0, 2.0))


class TestExport:
    def test_obj_counts_and_reproducibility(self, translational):
        _, proj, stress = translational
        surface = sl.build_lifting(proj.framework, stress)
        text = export_obj(surface, reproducible=True)
        lines = text.splitlines()
        n_v = sum(1 for l in lines if l.startswith("v "))
        n_f = sum(1 for l in lines if l.startswith("f "))
        grid = surface.grid
        assert n_v == 4 * (grid.N + 1)
        assert n_f == 3 * grid.N
        assert text == export_obj(surface, reproducible=True)
        stamped = export_obj(surface, reproducible=False)
        assert any(l.startswith("# generated:") for l in stamped.splitlines())

    def test_json_dump_roundtrip(self, translational):
        _, proj, stress = translational
        surface = sl.build_lifting(proj.framework, stress)
        text = save_lifting(surface)
        again = load_lifting(text)
        assert np.array_equal(again.z, surface.z)
        assert save_lifting(again) == text

    def test_dump_rejects_bad_kind(self):
        with pytest.raises(SchemaError):
            load_lifting('{"kind": "nope"}')

    def test_profile_matches_direct_heights(self, translational):
        _, proj, stress = translational
        fw = proj.framework
        prof = _height_profiles(fw, stress)[2]
        for j in (0, 1, 5, 64, 255):
            t = stress.grid.t[j]
            direct = reference_height(fw, stress, (2, t), [0, 0])
            assert prof[j] == pytest.approx(direct, rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# the writers: every number reads back bit for bit, whatever text orjson chose for it


def bits(value):
    """Shape and float64 bytes of a number or nested lists: equal values and signs of zero."""
    array = np.array(value, dtype=float)
    return array.shape, array.tobytes()


def read_back(text):
    """A document's value as parse_document reads it and as json.loads reads it."""
    return parse_document(text), json.loads(text)


def obj_arrays(text):
    """Vertex and face arrays of an OBJ body, every number read by float() or int()."""
    assert text.endswith("\n")
    rows = [line.split(" ") for line in text.splitlines() if not line.startswith("#")]
    assert all(r[0] in ("v", "f") for r in rows)
    vertices = np.array([[float(x) for x in r[1:]] for r in rows if r[0] == "v"]).reshape(-1, 3)
    faces = np.array([[int(x) for x in r[1:]] for r in rows if r[0] == "f"], np.int64).reshape(-1, 4)
    return vertices, faces


def per_float_obj(surface):
    """Vertex and face arrays of an OBJ, built one vertex and one face at a time."""
    N, rows = surface.grid.N, surface.n + 1
    faces = []
    for r in range(rows - 1):
        for j in range(N):
            a = r * (N + 1) + j + 1
            b = (r + 1) * (N + 1) + j + 1
            faces.append((a, b, b + 1, a + 1))
    return surface.grid_table().p.reshape(-1, 3), np.array(faces, np.int64).reshape(-1, 4)


def assert_obj_reads_back(surface):
    vertices, faces = obj_arrays(export_obj(surface, reproducible=True))
    want_vertices, want_faces = per_float_obj(surface)
    assert bits(vertices) == bits(want_vertices)
    assert np.array_equal(faces, want_faces)
    return faces


FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0, 2.0**53, 1e22]),
    st.integers(-10**9, 10**9).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cols=st.integers(0, 5), data=st.data())
def test_json_rows_match_the_per_float_writer(cols, data):
    """Arrays and scalars read back as what json.dumps, one repr per float, reads back as."""
    rows = data.draw(st.lists(st.lists(FLOATS, min_size=cols, max_size=cols), max_size=4))
    matrix = np.array(rows, dtype=float).reshape(len(rows), cols)
    scalar = data.draw(FLOATS)
    text = _dump_json({"m": matrix, "v": matrix.ravel(), "s": scalar})
    want = json.loads(json.dumps({"m": rows, "v": matrix.ravel().tolist(), "s": scalar}))
    for got in read_back(text):
        assert list(got) == ["m", "v", "s"]
        assert bits(np.reshape(got["m"], (len(rows), cols))) == bits(matrix)
        assert bits(got["v"]) == bits(want["v"]) and bits(got["s"]) == bits(want["s"])


class TestRowFormatter:
    def test_one_curve_obj_matches_the_per_float_writer(self):
        fw = sl.builtin("circles2d", n=0)
        surface = sl.build_lifting(fw, sl.solve_stress(fw, [1.0], 0.0))
        assert len(assert_obj_reads_back(surface)) == 0  # one curve: no strip, no face line

    def test_sixteen_panel_obj_matches_the_per_float_writer(self):
        base = sl.builtin("circles2d", n=2)
        grid = sl.Grid(base.T, 16)
        fw = sl.Framework(base.T, base.n, [base.curve(i) for i in range(-1, base.n + 2)], grid)
        rng = np.random.default_rng(5)
        z = np.round(rng.normal(size=(fw.n + 1, grid.N + 1)), 3)
        z[0, :3] = (-0.0, 5e-324, 7.0)
        surface = SampledLifting(fw, z, grid)
        assert len(assert_obj_reads_back(surface)) == 2 * 16

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_writers_refuse_non_finite_heights(self, bad):
        """No writer meets a non-finite number: each constructor of written data refuses
        one and names it, so nothing is built and nothing can be written."""
        fw = sl.builtin("circles2d", n=0)
        rows = np.zeros((2, fw.grid.N + 1))
        rows[0, 7] = bad
        with pytest.raises(EvaluationError, match=r"^height of curve 0 is not finite at t=0\.17"):
            SampledLifting(fw, rows[:1], fw.grid)
        for lam, mu in ((rows[:1], np.zeros((2, fw.grid.N + 1))), (np.zeros((1, fw.grid.N + 1)), rows)):
            with pytest.raises(ValueError, match="^stress samples must be finite$"):
                sl.StressField(fw.grid, lam, mu)
        with pytest.raises(ValueError, match="^coefficient table contains non-finite entries$"):
            sl.CoordFunction((0.0,), ((1.0, bad, 0.0),))

    def test_shared_samples_are_read_only(self):
        """The grid nodes, grid tables, stresses and heights that kernels and writers share
        refuse assignment; they are views of the caller's arrays, which stay writable."""
        fw = sl.builtin("circles2d", n=0)
        lam, mu, z = np.ones((1, fw.grid.N + 1)), np.zeros((2, fw.grid.N + 1)), np.zeros((1, fw.grid.N + 1))
        stress, surface = sl.StressField(fw.grid, lam, mu), SampledLifting(fw, z, fw.grid)
        lifted = surface.grid_table()
        shared = [fw.grid.t, *fw.grid_table(), fw.tabulate(fw.grid.t[:4], 1), stress.lam, stress.mu,
                  surface.z, surface.z_d1, surface.z_d2, lifted.p, lifted.d1, lifted.d2]
        for values in shared:
            with pytest.raises(ValueError, match="read-only"):
                values[(0,) * values.ndim] = np.nan
            with pytest.raises(ValueError, match="read-only"):
                values += 1.0
        for own, view in ((lam, stress.lam), (mu, stress.mu), (z, surface.z)):
            assert own.flags.writeable and view.base is own  # a view, not a copy


# ---------------------------------------------------------------------------
# the writers value by value: the document and the row writer read back bit for bit


def assert_reads_back(values):
    """Values written as one document array and one per line read back bit for bit."""
    for got in read_back(_dump_json(values)):
        assert bits(got) == bits(values)
    lines = framework.format_rows(values.reshape(-1, 1), "", "").splitlines()
    assert bits([float(line) for line in lines]) == bits(values)


def near_ties(rng, count):
    """N / 2**j whose decimal expansion has 18 digits ending in 5: exact ties at 17 digits."""
    ties = []
    for j in range(3, 70):
        lo, hi = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
        if lo < hi:
            ties.append((rng.integers(lo, hi, count) | 1).astype(float) / 2.0**j)
    return np.concatenate(ties)


class TestRowKernel:
    """_dump_json and format_rows value by value: each number reads back as the float it was."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(FLOATS, st.floats(allow_nan=False, allow_infinity=False, width=32),
                              st.floats(min_value=-1e-300, max_value=1e-300)), max_size=40))
    def test_drawn_values_read_back_bit_for_bit(self, xs):
        assert_reads_back(np.array(xs, dtype=float))
        for got in read_back(_dump_json(xs)):  # a list of Python floats
            assert bits(got) == bits(xs)

    def test_sweep_of_a_million_values_matches_format(self):
        """A million values, exact ties at 17 digits among them, read back bit for bit."""
        rng = np.random.default_rng(20)
        bits_ = rng.integers(0, 2**64, size=400_000, dtype=np.uint64).view(np.float64)
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)] + [2.0**k for k in range(-1074, 1024)])
        powers = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        ties = near_ties(rng, 1000)
        sweep = [
            bits_[np.isfinite(bits_)],
            powers[np.isfinite(powers)],
            rng.integers(-2**63, 2**63, size=150_000, dtype=np.int64).astype(float),
            (rng.integers(0, 2**63, size=150_000, dtype=np.int64) >> rng.integers(0, 63, 150_000)).astype(float),
            rng.integers(0, 2**52, size=20_000, dtype=np.int64).view(np.float64),  # subnormals
            rng.integers(-2**20, 2**20, size=100_000) / 2.0 ** rng.integers(0, 60, 100_000),
            rng.normal(size=150_000) * 10.0 ** rng.integers(-12, 12, 150_000),
            np.round(rng.normal(size=50_000), 3),
            np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
            ties, -ties * 2.0**-200,
        ]
        values = np.concatenate(sweep)
        assert len(values) >= 10**6
        assert_reads_back(values)

    def test_writes_what_percent_d_writes(self):
        # an integer has one spelling in JSON, so its text is pinned as well as its value
        rng = np.random.default_rng(21)
        tens = 10 ** np.arange(19)
        ints = np.concatenate([rng.integers(-2**63, 2**63, size=50_000, dtype=np.int64),
                               tens, tens - 1, -tens, [0, 2**63 - 1, -2**63]])
        for got in read_back(_dump_json(ints)):
            assert np.array_equal(np.array(got, dtype=np.int64), ints)
        lines = framework.format_rows(ints.reshape(-1, 1), "", "").splitlines()
        assert lines == ["%d" % v for v in ints.tolist()]

    def test_roundtrip_sized_values_read_back_bit_for_bit(self):
        # the vertices, heights and stress rows one `roundtrip` op writes, at N = 2048
        surface = sl.builtin("translational3d")
        proj = sl.project(surface, sl.Grid(surface.T, 2048))
        stress = sl.induced_stress(proj)
        lifted = sl.build_lifting(proj.framework, stress)
        again = sl.load_stress(sl.save_stress(stress))
        assert bits(again.lam) == bits(stress.lam) and bits(again.mu) == bits(stress.mu)
        assert bits(load_lifting(save_lifting(lifted)).z) == bits(lifted.z)
        assert_obj_reads_back(lifted)

    def test_six_digit_face_indices_match_the_per_float_writer(self):
        base = sl.builtin("circles2d", n=48)
        grid = sl.Grid(base.T, 2048)
        fw = sl.Framework(base.T, base.n, [base.curve(i) for i in range(-1, base.n + 2)], grid)
        z = np.random.default_rng(6).normal(size=(fw.n + 1, grid.N + 1))
        surface = SampledLifting(fw, z, grid)
        faces = assert_obj_reads_back(surface)
        assert faces[-1, 0] == 98351  # (n + 1) * (N + 1) = 100401 vertices
