import numpy as np
import pytest

import striplift as sl
from striplift.errors import NotSelfStressedError, SchemaError
from striplift.lifting import (
    _height_profiles,
    export_obj,
    load_lifting,
    lpath,
    save_lifting,
)

from conftest import mu_scaled, twisted_surface


def zero_stress(fw):
    g = fw.grid
    return sl.StressField(g, np.zeros((fw.n + 1, g.N + 1)), np.zeros((fw.n + 2, g.N + 1)))


class TestIncreasingPath:
    def test_validation(self):
        with pytest.raises(ValueError):
            sl.IncreasingPath(1, 1.0, (0.0, 1.0))  # wrong length
        with pytest.raises(ValueError):
            sl.IncreasingPath(1, 1.0, (0.1, 0.5, 1.0))  # must start at 0
        with pytest.raises(ValueError):
            sl.IncreasingPath(1, 1.0, (0.0, 0.5, 0.4))  # not ending at target
        with pytest.raises(ValueError):
            sl.IncreasingPath(2, 1.0, (0.0, 0.8, 0.5, 1.0))  # decreasing

    def test_empty_intervals_allowed(self):
        p = sl.IncreasingPath(2, 1.0, (0.0, 0.5, 0.5, 1.0))
        assert p.gamma[1] == p.gamma[2]

    def test_random_paths_are_valid_and_seeded(self, translational):
        _, proj, stress = translational
        a = sl.random_paths(3, proj.framework.T, stress.grid, 5, seed=9)
        b = sl.random_paths(3, proj.framework.T, stress.grid, 5, seed=9)
        assert [p.gamma for p in a] == [p.gamma for p in b]
        assert len(a) == 5


class TestHeight:
    def test_zero_stress_any_path(self, translational):
        _, proj, _ = translational
        fw = proj.framework
        stress = zero_stress(fw)
        for path in sl.random_paths(fw.n, fw.T, stress.grid, 4, seed=2):
            assert sl.height(fw, stress, (fw.n, fw.T), path) == 0.0

    def test_first_curve_with_zero_boundary_stress(self, translational):
        # along curve 0 only the first boundary edge integral survives
        _, proj, stress = translational
        fw = proj.framework
        cleared = mu_scaled(stress, -1, 0.0)
        s = stress.grid.t[128]
        assert sl.height(fw, cleared, (0, s), lpath(0, s)) == 0.0
        assert sl.height(fw, stress, (0, s), lpath(0, s)) != 0.0

    def test_origin_is_zero(self, translational):
        _, proj, stress = translational
        assert sl.height(proj.framework, stress, (0, 0.0), lpath(0, 0.0)) == 0.0

    def test_two_paths_agree_for_self_stress(self, translational):
        _, proj, stress = translational
        fw = proj.framework
        s = stress.grid.t[192]
        stair = sl.IncreasingPath(
            3, s, (0.0, stress.grid.t[32], stress.grid.t[80], stress.grid.t[150], s)
        )
        a = sl.height(fw, stress, (3, s), stair)
        b = sl.height(fw, stress, (3, s), lpath(3, s))
        scale = sl.height_scale(fw, stress)
        assert abs(a - b) < 1e-6 * scale

    def test_off_grid_path_node_rejected(self, translational):
        _, proj, stress = translational
        fw = proj.framework
        path = sl.IncreasingPath(3, fw.T, (0.0, 0.1234567, 0.2, 0.3, fw.T))
        with pytest.raises(sl.GridAlignmentError):
            sl.height(fw, stress, (3, fw.T), path)

    def test_mismatched_target_rejected(self, translational):
        _, proj, stress = translational
        fw = proj.framework
        with pytest.raises(ValueError):
            sl.height(fw, stress, (2, fw.T), lpath(3, fw.T))

    def test_linear_in_stress(self, translational):
        _, proj, stress = translational
        fw = proj.framework
        s = stress.grid.t[100]
        path = sl.random_paths(2, s, stress.grid, 1, seed=5)[0]
        other = mu_scaled(stress, 0, 0.7)
        a, b = 1.25, -0.5
        combo = sl.StressField(
            stress.grid, a * stress.lam + b * other.lam, a * stress.mu + b * other.mu
        )
        h = sl.height(fw, combo, (2, s), path)
        h1 = sl.height(fw, stress, (2, s), path)
        h2 = sl.height(fw, other, (2, s), path)
        assert h == pytest.approx(a * h1 + b * h2, rel=1e-12, abs=1e-12)


class TestSpread:
    def test_zero_stress(self, translational):
        _, proj, _ = translational
        fw = proj.framework
        stress = zero_stress(fw)
        paths = sl.random_paths(fw.n, fw.T, stress.grid, 5, seed=1)
        assert sl.path_independence_spread(fw, stress, (fw.n, fw.T), paths) == 0.0

    def test_self_stress_small_perturbed_large(self, translational):
        _, proj, stress = translational
        fw = proj.framework
        paths = sl.random_paths(fw.n, fw.T, stress.grid, 5, seed=11)
        scale = sl.height_scale(fw, stress)
        spread = sl.path_independence_spread(fw, stress, (fw.n, fw.T), paths)
        assert spread < 1e-6 * scale
        bad = mu_scaled(stress, 0, 1.1)
        bad_spread = sl.path_independence_spread(fw, bad, (fw.n, fw.T), paths)
        assert bad_spread > 1e-3 * scale

    def test_needs_two_paths(self, translational):
        _, proj, stress = translational
        fw = proj.framework
        with pytest.raises(ValueError):
            sl.path_independence_spread(fw, stress, (3, fw.T), [lpath(3, fw.T)])


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
                want = sl.height(fw, stress, (k, t), lpath(k, t))
                assert surface.z[k, j] == pytest.approx(want, rel=1e-12, abs=1e-13)

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
            direct = sl.height(fw, stress, (2, t), lpath(2, t))
            assert prof[j] == pytest.approx(direct, rel=1e-12, abs=1e-14)
