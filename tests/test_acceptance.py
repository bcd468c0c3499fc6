"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
execute.  Every tolerance is fixed here, not computed.
"""

import numpy as np
import pytest

import striplift as sl
from striplift.cli import main
from striplift.onestrip import assemble_stress
from striplift.statics import segment_force_scale

from conftest import mu_minus1_fn, mu_scaled, twisted_surface


def _record(number, label, passed, detail):
    line = f"ACCEPTANCE {number:2d} {label}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def test_criterion_01_grassmann_plucker():
    rng = np.random.default_rng(20250809)
    vecs = rng.uniform(-1000.0, 1000.0, size=(100_000, 4, 2))
    res = np.abs(sl.gp_residual(vecs[:, 0], vecs[:, 1], vecs[:, 2], vecs[:, 3]))
    bound = 1e-7 * np.prod(np.linalg.norm(vecs, axis=2), axis=1)
    worst = float((res / bound).max())
    _record(
        1,
        "determinant identity on 1e5 random quadruples",
        bool(np.all(res < bound)),
        f"worst residual/bound ratio {worst:.3e}",
    )


def test_criterion_02_induced_stress_equilibrium(translational, cylinder):
    worst = 0.0
    for name, (_, proj, stress) in (("translational", translational), ("cylinder", cylinder)):
        worst = max(worst, sl.residual_report(proj.framework, stress).max_normalized)
    _record(
        2,
        "projected conjugate surfaces induce equilibrium stresses at 1e-7",
        worst < 1e-7,
        f"max normalized residual {worst:.3e}",
    )


def test_criterion_03_liftings_are_conjugate(translational, cylinder):
    worst = 0.0
    for _, proj, stress in (translational, cylinder):
        lifted = sl.build_lifting(proj.framework, stress)
        worst = max(worst, sl.conjugacy_residual(lifted))
    control = sl.developability_report(sl.project(twisted_surface()))[0]
    _record(
        3,
        "liftings of self-stresses are conjugate at 1e-6, twisted control fails",
        worst < 1e-6 and control > 1e-2,
        f"worst conjugacy {worst:.3e}, twisted defect {control:.3e}",
    )


def test_criterion_04_path_independence(translational, cylinder):
    worst = 0.0
    for _, proj, stress in (translational, cylinder):
        fw = proj.framework
        paths = sl.random_paths(fw.n, fw.T, stress.grid, 20, seed=101)
        spread = sl.path_independence_spread(fw, stress, (fw.n, fw.T), paths)
        worst = max(worst, spread / sl.height_scale(fw, stress))
    _, proj, stress = translational
    fw = proj.framework
    bad = mu_scaled(stress, 0, 1.1)
    paths = sl.random_paths(fw.n, fw.T, stress.grid, 20, seed=101)
    bad_spread = sl.path_independence_spread(fw, bad, (fw.n, fw.T), paths)
    bad_ratio = bad_spread / sl.height_scale(fw, stress)
    _record(
        4,
        "heights are path-independent at 1e-6, perturbed control above 1e-4",
        worst < 1e-6 and bad_ratio > 1e-4,
        f"worst spread {worst:.3e}, control spread {bad_ratio:.3e} of height scale",
    )


def test_criterion_05_force_loads_vanish(translational, cylinder):
    rng = np.random.default_rng(55)
    worst = 0.0
    for _, proj, stress in (translational, cylinder):
        fw = proj.framework
        grid = stress.grid
        for i in range(fw.n + 1):
            for _ in range(50):
                ja, jb = np.sort(rng.integers(0, grid.N + 1, size=2))
                a, b = grid.t[ja], grid.t[jb]
                load = np.linalg.norm(sl.force_load(fw, stress, i, a, b))
                worst = max(worst, load / segment_force_scale(fw, stress, i, a, b))
    _record(
        5,
        "segment force loads vanish at 1e-6 of scale (50 random segments/curve)",
        worst < 1e-6,
        f"worst normalized load {worst:.3e}",
    )


def test_criterion_06_reversal_affine(translational):
    _, proj, stress = translational
    defect = sl.reversal_affine_defect(proj.framework, stress)
    ratio = defect / sl.height_scale(proj.framework, stress)
    _record(
        6,
        "reversed lifting differs by an affine height at 1e-6 (3-strip demo)",
        ratio < 1e-6,
        f"defect {ratio:.3e} of height scale",
    )


def test_criterion_07_solver_oracle_roundtrip(translational):
    surface, proj, stress = translational
    fw = proj.framework
    mu_fn = mu_minus1_fn(proj)
    lam_scale = np.abs(stress.lam).max()
    mu_scale = np.abs(stress.mu).max()

    def err_against(oracle, solved):
        return max(
            np.abs(solved.lam - oracle.lam).max() / lam_scale,
            np.abs(solved.mu - oracle.mu).max() / mu_scale,
        )

    err = err_against(stress, sl.solve_stress(fw, stress.lam[:, 0], mu_fn))
    fine = sl.Grid(fw.T, 2 * stress.grid.N)
    oracle_fine = sl.induced_stress(sl.project(surface, grid=fine))
    err_fine = err_against(oracle_fine, sl.solve_stress(fw, stress.lam[:, 0], mu_fn, grid=fine))
    _record(
        7,
        "marching solver reproduces the induced stress at 1e-6, order ~ 4",
        err < 1e-6 and err_fine * 8.0 <= err,
        f"relative error {err:.3e}, halved step {err_fine:.3e} ({err / max(err_fine, 1e-300):.1f}x)",
    )


def test_criterion_08_planar_boundaries(cylinder):
    _, proj, _ = cylinder
    fw = proj.framework
    report = sl.onestrip_verify(fw)
    stress = assemble_stress(fw, report.lambda0, report.coupling * report.lambda1, report.mu0)
    lifted = sl.build_lifting(fw, stress)
    first, last = sl.boundary_planarity(lifted)
    _record(
        8,
        "vanishing boundary forces lift to planar boundary curves at 1e-6",
        max(first, last) < 1e-6,
        f"plane-fit distances {first:.3e}, {last:.3e}",
    )


def test_criterion_09_one_strip_liftability(cylinder):
    _, proj, _ = cylinder
    report = sl.onestrip_verify(proj.framework)
    perturbed = sl.onestrip_verify(sl.builtin("perturbed2d", seed=1, amplitude=0.05))
    ok = (
        report.verdict
        and report.criterion_max < 1e-6
        and report.equilibrium_max is not None
        and report.equilibrium_max < 1e-6
        and not perturbed.verdict
        and perturbed.criterion_max > 1e-2
    )
    _record(
        9,
        "one-strip criterion: cylinder passes at 1e-6, perturbed fails above 1e-2",
        ok,
        f"cylinder {report.criterion_max:.3e} (equilibrium {report.equilibrium_max:.3e}), "
        f"perturbed {perturbed.criterion_max:.3e}",
    )


def test_criterion_10_affine_gauge(translational):
    surface, proj, stress = translational
    rng = np.random.default_rng(1010)
    lam_scale = np.abs(stress.lam).max()
    mu_scale = np.abs(stress.mu).max()
    worst = 0.0
    for _ in range(10):
        a = rng.uniform(-1.0, 1.0, size=2)
        b = rng.uniform(-1.0, 1.0)
        curves = []
        for i in surface.curve_indices:
            x, y, z = surface.curve(i).coords
            z2 = sl.shifted(sl.combine(sl.combine(z, 1.0, x, a[0]), 1.0, y, a[1]), b)
            curves.append(sl.AnalyticCurve((x, y, z2)))
        gauged = sl.AnalyticSurface3D(surface.T, surface.n, curves)
        stress2 = sl.induced_stress(sl.project(gauged))
        worst = max(
            worst,
            np.abs(stress2.lam - stress.lam).max() / lam_scale,
            np.abs(stress2.mu - stress.mu).max() / mu_scale,
        )
    _record(
        10,
        "induced stress is invariant under affine height gauges at 1e-9",
        worst < 1e-9,
        f"worst normalized change {worst:.3e}",
    )


def test_criterion_11_cli_determinism(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        prefix = tmp_path / tag / "demo"
        code = main(["demo", "cylinder-strip3d", "--output", str(prefix), "--reproducible"])
        assert code == 0
        bundle = sorted((tmp_path / tag).glob("demo.*"))
        outputs.append([p.read_bytes() for p in bundle])
        assert len(bundle) == 5
    identical = outputs[0] == outputs[1]
    _record(
        11,
        "repeated --reproducible runs are byte-identical",
        identical,
        f"{len(outputs[0])} files compared",
    )
