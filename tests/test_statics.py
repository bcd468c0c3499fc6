import json
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import striplift as sl
from striplift import framework, statics
from striplift.errors import (
    DegenerateBasisError,
    DivergenceError,
    EvaluationError,
    GridAlignmentError,
    SchemaError,
)
from striplift.geomcore import balance_vectors
from striplift.numerics import MAX_SAMPLES, MIN_PANELS, cumulative_samples, ode_march, ratio, solve2x2
from striplift.statics import load_stress, save_stress, segment_force_scale

from conftest import PROPERTY, diverging_framework, mu_minus1_fn, mu_scaled, stressed_frameworks


def zero_stress(fw):
    g = fw.grid
    return sl.StressField(g, np.zeros((fw.n + 1, g.N + 1)), np.zeros((fw.n + 2, g.N + 1)))


def reference_solve_stress(fw, lambda0, mu_fn, grid=None):
    """The per-point march: exact jets and solve2x2 at every RK4 stage time.

    mu_fn is a scalar function of t.  Returns (lam, mu) sample arrays.
    """
    grid = grid or fw.grid
    lam0 = np.asarray(lambda0, dtype=float)
    times = [*grid.t, *(grid.t[:-1] + 0.5 * grid.h)]  # the nodes and half steps, as solve_stress
    guard = 1e12 * max(float(np.abs(lam0).max()), max(abs(mu_fn(t)) for t in times))

    def sweep(t, lam):
        lam_dot = np.empty_like(lam)
        mu = np.empty(fw.n + 1)
        jets = [fw.jet(i, t) for i in range(-1, fw.n + 2)]
        mu_prev = mu_fn(t)
        for i in range(fw.n + 1):
            cur = jets[i + 1]
            edge_fwd = jets[i + 2][0] - cur[0]
            edge_bwd = cur[0] - jets[i][0]
            rhs = -lam[i] * cur[2] + mu_prev * edge_bwd
            lam_dot[i], mu[i] = solve2x2(cur[1], edge_fwd, rhs, location=(i, float(t)))
            mu_prev = mu[i]
        return lam_dot, mu

    def deriv(t, lam):
        if np.abs(lam).max() > guard:
            raise DivergenceError(f"curve stress exceeded {guard:.3e}")
        return sweep(t, lam)[0]

    lam_samples = ode_march(deriv, lam0, grid).T
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
        assert np.allclose(v, stress.lam[2, j] * fw.jet(2, t)[1], rtol=1e-15)

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


def reference_residual_report(fw, stress):
    """The residual kernel before geomcore.norm: generic norms and one max over the
    stacked term norms.  Returns (residual, normalized, argmax flat index)."""
    terms = statics._force_terms(fw, stress)
    t1, t2, t3, t4 = terms
    res = t1 + t2 + t3 - t4
    scale = np.max([np.linalg.norm(term, axis=-1) for term in terms], axis=0)
    normed = ratio(np.linalg.norm(res, axis=-1), scale)
    return res, normed, int(np.argmax(normed))


def reference_segment_force_scale(fw, stress, i, a, b):
    """segment_force_scale with the generic norm."""
    grid = stress.grid
    ja, jb = grid.node_index(a), grid.node_index(b)
    tan, _, fwd, bwd = balance_vectors(fw.grid_table(grid))
    norm = lambda v: np.linalg.norm(v[i], axis=-1)
    tension = np.abs(stress.lam_at(i)) * norm(tan)
    ruling = np.abs(stress.mu_at(i)) * norm(fwd) + np.abs(stress.mu_at(i - 1)) * norm(bwd)
    span = grid.t[jb] - grid.t[ja]
    return max(float(tension.max()), span * float(ruling.max()))


@PROPERTY
@given(stressed_frameworks())
def test_stress_documents_read_back_bit_for_bit(drawn):
    _, stress = drawn
    again = load_stress(save_stress(stress))
    assert (again.grid.T, again.grid.N) == (stress.grid.T, stress.grid.N)
    assert again.lam.tobytes() == stress.lam.tobytes()
    assert again.mu.tobytes() == stress.mu.tobytes()


def sampled_document(kind, n, N):
    """A valid stress document or lifting dump (over circles2d curves) of zero samples."""
    if kind == "stress":
        return {"T": 1.0, "n": n, "N": N, "lambda": np.zeros((n + 1, N + 1)).tolist(),
                "mu": np.zeros((n + 2, N + 1)).tolist()}
    fw = sl.builtin("circles2d", n=n)
    return {"kind": "lifted_surface", "T": fw.T, "n": n, "N": N,
            "framework": framework.framework_to_doc(fw), "z": np.zeros((n + 1, N + 1)).tolist()}


_READERS = {"stress": load_stress, "lifting": sl.load_lifting}
_BLOCKS = {"stress": ("lambda", "mu"), "lifting": ("z",)}
# N at most 2**24 or from 2**62 on: a reader that builds the grid first allocates N + 1 nodes
_OTHER_N = st.one_of(st.integers(1, 2**23).map(lambda k: 2 * k), st.sampled_from([2**62, 2**63]))


@PROPERTY
@given(st.sampled_from(sorted(_READERS)), st.integers(0, 3), st.sampled_from([4, 8, 16]),
       st.sampled_from(["rows", "width", "N", "n"]), st.data())
def test_sample_blocks_of_another_shape_name_their_field(kind, n, N, change, data):
    doc = sampled_document(kind, n, N)
    _READERS[kind](json.dumps(doc))
    blocks = _BLOCKS[kind]
    field = blocks[0]
    if change == "n" and kind == "stress":  # a dump's n must equal its framework's, which it names
        doc["n"] = data.draw(st.integers(0, 6).filter(lambda m: m != n))
    elif change in ("N", "n"):
        doc["N"] = data.draw(_OTHER_N.filter(lambda M: M != N))
        if not MIN_PANELS <= doc["N"] < MAX_SAMPLES:  # the size rule refuses N before any row
            field = "N"
    else:
        field = data.draw(st.sampled_from(blocks))
        block = doc[field]
        if change == "rows":
            block.pop() if data.draw(st.booleans()) else block.append(list(block[0]))
        else:
            row = block[data.draw(st.integers(0, len(block) - 1))]
            row.pop() if data.draw(st.booleans()) else row.append(0.0)
    with pytest.raises(SchemaError, match=f"^{field}: ") as err:
        _READERS[kind](json.dumps(doc))
    assert err.value.field == field


def test_oversized_panel_count_is_refused_before_any_allocation():
    # 488 bytes claiming N = 2**24 panels: the size rule refuses N before any row is read
    lam, mu = json.dumps(np.zeros((2, 17)).tolist()), json.dumps(np.zeros((3, 17)).tolist())
    text = f'{{"T": 1.0, "n": 1, "N": {2**24}, "lambda": {lam}, "mu": {mu}}}'
    assert len(text) == 488
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError, match=r"^N: N = 16777216 is too large: 1 x 16777217 curve"):
            load_stress(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_strided_stress_rows_read_back_bit_for_bit():
    # every other column of a wider array: a view the writer gets as a non-contiguous array
    rows = np.random.default_rng(7).normal(size=(5, 2 * 257)) * 10.0 ** np.arange(-2, 3)[:, None]
    rows[0, 0] = -0.0
    lam, mu = rows[:2, ::2], rows[2:, ::2]
    assert not lam.flags.c_contiguous
    text = framework._dump_json({"T": 2.0, "n": 1, "N": 256, "lambda": lam, "mu": mu})
    again = load_stress(text)
    assert again.lam.tobytes() == lam.tobytes()
    assert again.mu.tobytes() == mu.tobytes()
    assert save_stress(sl.StressField(sl.Grid(2.0, 256), lam, mu)) == text  # its own copy writes the same


@PROPERTY
@given(stressed_frameworks(), st.data())
def test_residual_kernels_are_bit_identical_to_the_reference(drawn, data):
    fw, stress = drawn
    report = sl.residual_report(fw, stress)
    res, normed, flat = reference_residual_report(fw, stress)
    assert report.residual.tobytes() == res.tobytes()
    assert report.normalized.tobytes() == normed.tobytes()
    i, j = divmod(flat, stress.grid.N + 1)
    assert report.argmax == (i, float(stress.grid.t[j]))
    assert report.max_normalized == normed[i, j]
    i = data.draw(st.integers(0, fw.n))
    ja, jb = sorted(data.draw(st.lists(st.integers(0, stress.grid.N), min_size=2, max_size=2)))
    a, b = stress.grid.t[ja], stress.grid.t[jb]
    got = segment_force_scale(fw, stress, i, a, b)
    assert got == reference_segment_force_scale(fw, stress, i, a, b)


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

    def test_scale_refuses_what_the_load_refuses(self):
        # a stress over [0, 2T], or for fewer curves, judges no segment of the framework,
        # and no stress judges a reversed segment (nodes 200 -> 10)
        fw = sl.builtin("circles2d", n=1)
        grid = sl.Grid(2.0 * fw.T, 64)
        long = sl.StressField(grid, np.ones((2, 65)), np.ones((3, 65)))
        fewer = sl.solve_stress(fw, [1.0, 1.0], 0.0)
        wider = sl.builtin("circles2d", n=2)
        whole, backwards = (0.0, fw.T), (fewer.grid.t[200], fewer.grid.t[10])
        for stress, frame, i, (a, b), match in ((long, fw, 0, whole, "does not span"),
                                                (fewer, wider, 2, whole, "n=1"),
                                                (fewer, fw, 0, backwards, "^segment out of order")):
            for judge in (sl.force_load, segment_force_scale):
                with pytest.raises(ValueError, match=match):
                    judge(frame, stress, i, a, b)


def reference_force_vector(fw, stress, i, t):
    """force_vector from the point jet of curve i."""
    statics._check_compatible(fw, stress)
    j = stress.grid.node_index(t)
    return stress.lam_at(i)[j] * fw.jet(i, stress.grid.t[j])[1]


def reference_force_load(fw, stress, i, a, b):
    """force_load from point jets at the cut ends and the ruling terms of every curve,
    integrated as a difference of prefix integrals, one coordinate at a time."""
    statics._check_compatible(fw, stress)
    grid = stress.grid
    ja, jb = grid.node_index(a), grid.node_index(b)
    if ja > jb:
        raise ValueError(f"segment out of order: a={a} > b={b}")
    end = reference_force_vector(fw, stress, i, grid.t[jb])
    start = reference_force_vector(fw, stress, i, grid.t[ja])
    _, _, t3, t4 = statics._force_terms(fw, stress)
    ruling = t3[i] - t4[i]
    prefix = np.array([cumulative_samples(ruling[:, c], grid.h) for c in range(2)])
    return end - start + (prefix[:, jb] - prefix[:, ja])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(stressed_frameworks(), st.data())
def test_force_loads_are_bit_identical_to_the_point_jet_forms(drawn, data):
    fw, stress = drawn
    grid = stress.grid
    ja, jb = sorted(data.draw(st.lists(st.integers(0, grid.N), min_size=2, max_size=2)))
    a, b = grid.t[ja], grid.t[jb]
    for i in range(fw.n + 1):
        got, want = sl.force_vector(fw, stress, i, b), reference_force_vector(fw, stress, i, b)
        assert got.tobytes() == want.tobytes()
        got, want = sl.force_load(fw, stress, i, a, b), reference_force_load(fw, stress, i, a, b)
        assert got.tobytes() == want.tobytes()
    # the grid table has rows for curves -1..n+1: only the index check refuses these
    for i in (-1, fw.n + 1):
        for form, reference, args in ((sl.force_vector, reference_force_vector, (b,)),
                                      (sl.force_load, reference_force_load, (a, b))):
            with pytest.raises(IndexError) as want:
                reference(fw, stress, i, *args)
            with pytest.raises(IndexError) as got:
                form(fw, stress, i, *args)
            assert str(got.value) == str(want.value)


@PROPERTY
@given(stressed_frameworks(), st.data())
def test_force_loads_add_up_over_adjacent_segments(drawn, data):
    # both loads and their union read one prefix integral, so only rounding separates them
    fw, stress = drawn
    grid = stress.grid
    ja, jb, jc = sorted(data.draw(st.lists(st.integers(0, grid.N), min_size=3, max_size=3)))
    a, b, c = grid.t[[ja, jb, jc]]
    for i in range(fw.n + 1):
        parts = sl.force_load(fw, stress, i, a, b) + sl.force_load(fw, stress, i, b, c)
        defect = np.linalg.norm(parts - sl.force_load(fw, stress, i, a, c))
        assert defect <= 1e-14 * segment_force_scale(fw, stress, i, a, c)


class TestSolveStress:
    def test_zero_is_a_fixed_point(self, parallel_lines):
        out = sl.solve_stress(parallel_lines, [0.0, 0.0], 0.0)
        assert np.all(out.lam == 0.0)
        assert np.all(out.mu == 0.0)

    @pytest.mark.parametrize("values", [[1.0], [1.0, 1.0, 1.0, 1.0]])
    def test_wrong_lambda0_count_names_the_count(self, values):
        fw = sl.builtin("perturbed2d", n=2, seed=4)
        with pytest.raises(ValueError) as err:
            sl.solve_stress(fw, values, 0.0)
        assert str(err.value) == f"lambda0 must supply 3 values, got shape ({len(values)},)"

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
        assert np.abs(out.lam - lam).max() <= 1e-13 * np.abs(lam).max()
        assert np.abs(out.mu - mu).max() <= 1e-13 * np.abs(mu).max()

    def test_degenerate_framework_reports_location(self):
        # delta_0 = (0, t^2) is parallel to neither tangent, but at t=0 it vanishes
        fw = sl.Framework(2.0, 0, [line((-1.0,)), line((0.0,)), line((0.0, 0.0, 1.0))], sl.Grid(2.0, 32))
        with pytest.raises(DegenerateBasisError) as err:
            sl.solve_stress(fw, [1.0], 0.0)
        assert err.value.location == (0, 0.0)

    def test_degeneracy_at_a_half_step_is_located_there(self):
        # delta_0 = (0, (t - c)^2) vanishes only at c = t_5 + h/2, a time that
        # stages 2 and 3 of step 5 read and no grid node is
        c = 5 / 16 + 1 / 32
        fw = sl.Framework(
            2.0, 0, [line((-1.0,)), line((0.0,)), line((c * c, -2.0 * c, 1.0))], sl.Grid(2.0, 32)
        )
        with pytest.raises(DegenerateBasisError) as ref:
            reference_solve_stress(fw, [1.0], lambda t: 0.0)
        with pytest.raises(DegenerateBasisError) as err:
            sl.solve_stress(fw, [1.0], 0.0)
        assert err.value.location == ref.value.location == (0, c)

    def test_degeneracy_raised_when_the_march_reaches_it(self):
        # delta_0 = (0, (t-2)^2) vanishes only at the last node t = T = 2; the
        # backward edge has a tangential part, so a huge mu_{-1} drives lam, but
        # only in proportion to itself: the guard scales with it, and the march
        # still gets there
        curves = [
            sl.AnalyticCurve((sl.CoordFunction((0.5, 1.0)), sl.CoordFunction((-1.0,)))),
            line((0.0,)),
            line((4.0, -4.0, 1.0)),
        ]
        fw = sl.Framework(2.0, 0, curves, sl.Grid(2.0, 32))
        for mu in (0.0, 1e18):
            with pytest.raises(DegenerateBasisError) as err:
                sl.solve_stress(fw, [1.0], mu)
            assert err.value.location[0] == 0
            assert err.value.location[1] == pytest.approx(2.0, abs=1e-14)

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
        # tangential component; a huge boundary stress then drives lam, but
        # only to about 1.5 times itself, well inside a guard relative to it
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
        stress = sl.solve_stress(fw, [1.0], 1e18)
        assert f"{np.abs(stress.lam).max():.3e}" == "1.529e+18"
        assert sl.residual_report(fw, stress).max_normalized < 1e-12

    def test_divergence_is_judged_against_the_inputs(self):
        # lam grows by about 8e13: a blow-up at any scale of lambda0, 2^-60
        # included, where an absolute guard of 1e12 let it pass
        fw = diverging_framework()
        for lam0 in (1.0, 2.0**-60, 2.0**60):
            message = f"curve stress exceeded {1e12 * lam0:.3e} at t=1.0625"
            with pytest.raises(DivergenceError, match=f"^{re.escape(message)}$"):
                sl.solve_stress(fw, [lam0], 0.0)

    def test_false_refusal_of_a_large_boundary_stress(self):
        # lam stays near 2.4e-2 mu_{-1}, but an absolute guard of 1e12 refused
        # mu_{-1} = 3e14 and passed 3e12
        fw = sl.builtin("perturbed2d", n=1, seed=3, amplitude=0.005)
        stress = sl.solve_stress(fw, [0.0, 0.0], 3e14, sl.Grid(fw.T, 256))
        assert sl.residual_report(fw, stress).max_normalized < 1e-7

    def test_huge_boundary_stress_marches_without_warning(self):
        # mu_{-1} = 1e308 makes the guard inf; lam peaks at 2.8e307 and mu at 1.5e308,
        # with no step overflowing, and the rows are those of the march at 2^-60 times
        # 2^60, bit for bit; the per-point reference overflows in its Cramer solve at
        # this scale, so it is compared at 2^-60
        fw = sl.builtin("perturbed2d", n=2, seed=1)
        stress = sl.solve_stress(fw, [1.0, 1.0, 1.0], 1e308)
        assert f"{np.abs(stress.lam).max():.2e}" == "2.78e+307"
        small = sl.solve_stress(fw, [2.0**-60] * 3, 1e308 * 2.0**-60)
        assert (stress.lam == 2.0**60 * small.lam).all() and (stress.mu == 2.0**60 * small.mu).all()
        lam, mu = reference_solve_stress(fw, [2.0**-60] * 3, lambda t: 1e308 * 2.0**-60)
        assert np.abs(lam - small.lam).max() <= 1e-12 * np.abs(small.lam).max()
        assert np.abs(mu - small.mu).max() <= 1e-12 * np.abs(small.mu).max()

    def test_boundary_stress_emitted(self):
        fw = sl.builtin("circles2d", n=1)
        out = sl.solve_stress(fw, [1.0, 2.0], 0.0)
        # outermost edge stress balances the outer curve: nonzero constants
        assert np.abs(out.mu_at(1)).min() > 0.0
        assert np.ptp(out.mu_at(1)) < 1e-9


@settings(max_examples=25, deadline=None, derandomize=True)
@example(n=24, half_panels=16, amplitude=0.02, seed=5)
@given(
    n=st.integers(0, 5),
    half_panels=st.integers(8, 64),
    amplitude=st.floats(0.0, 0.1),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_the_reference_on_generated_frameworks(n, half_panels, amplitude, seed):
    fw = sl.builtin("perturbed2d", n=n, seed=seed, amplitude=amplitude)
    grid = sl.Grid(fw.T, 2 * half_panels)
    rng = np.random.default_rng(seed)
    mu = sl.CoordFunction(
        tuple(rng.uniform(-0.05, 0.05, 2)),
        ((rng.uniform(0.0, 0.05), float(rng.integers(1, 4)), rng.uniform(0.0, 2.0 * math.pi)),),
    )
    lambda0 = rng.uniform(0.5, 2.0, n + 1)
    lam, mu_samples = reference_solve_stress(fw, lambda0, lambda t: float(mu.value(t)), grid)
    out = sl.solve_stress(fw, lambda0, mu, grid)
    assert np.abs(out.lam - lam).max() <= 1e-13 * np.abs(lam).max()
    assert np.abs(out.mu - mu_samples).max() <= 1e-13 * np.abs(mu_samples).max()


def test_solve_memory_is_linear_in_the_curve_count():
    # one scalar recurrence per curve keeps the memory O(n N): ~22 MB here
    fw = sl.builtin("perturbed2d", n=64, seed=3, amplitude=0.005)
    mu = sl.CoordFunction((0.01, -0.003), ((0.02, 2.0, 0.7),))
    tracemalloc.start()
    try:
        sl.solve_stress(fw, 1.0 + 0.5 * np.arange(65), mu, sl.Grid(fw.T, 1024))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2**20


@pytest.mark.parametrize("panels", [64, 1024])
def test_solve_work_does_not_grow_with_the_grid(monkeypatch, panels):
    # the coefficients are whole-array: a fixed number of determinants and tabulations
    # whatever the grid, once the grid table is cached
    fw = sl.builtin("perturbed2d", n=2, seed=1)
    grid = sl.Grid(fw.T, panels)
    fw.grid_table(grid)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(statics, "det2", counted("det2", statics.det2))
    monkeypatch.setattr(
        framework._IndexedCurves, "tabulate", counted("tabulate", framework._IndexedCurves.tabulate)
    )
    sl.solve_stress(fw, [1.0, 1.5, 2.0], 0.0, grid=grid)
    assert calls == {"det2": 4, "tabulate": 1}
