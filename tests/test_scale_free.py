"""Every normalized value and verdict is scale-free.

A self-stress stays one when it is scaled, and when the framework it balances
is scaled, so no verdict may depend on units.  Scaling by a power of two is
exact in floating point, so under x, y -> 2^k x, 2^k y and stress -> 2^m
stress each normalized value must stay bit-identical while the squares of
the scaled components stay normal.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

import striplift as sl
from striplift.errors import StripLiftError
from striplift.framework import AnalyticCurve, CoordFunction
from striplift.lifting import strip_defects
from striplift.numerics import ratio
from striplift.statics import segment_force_scale

from conftest import (
    PROPERTY, builtin_stressed, diverging_framework, frameworks, mu_scaled, stressed_frameworks, twisted_surface,
)

EXPONENTS = st.integers(-60, 60)


def magnified(obj, c, dims=2):
    """A framework or surface with its first `dims` coordinates times c, on the same grid."""
    def times(cf):
        return CoordFunction(tuple(c * a for a in cf.poly), tuple((c * a, f, p) for a, f, p in cf.trig))

    curves = [
        AnalyticCurve(tuple(times(cf) if d < dims else cf for d, cf in enumerate(obj.curve(i).coords)))
        for i in obj.curve_indices
    ]
    return type(obj)(obj.T, obj.n, curves, obj.grid)


def readings(fw, stress):
    """The normalized values and verdicts of fw and stress, as comparable bytes and numbers."""
    report = sl.residual_report(fw, stress)
    spread, scale, paths = sl.path_independence_spread(fw, stress)
    regular = sl.regularity_report(fw, stress.grid)
    return {
        "residual": report.normalized.tobytes(),
        "argmax": report.argmax,
        "spread / H": ratio(spread, scale).tobytes(),
        "spread_paths": paths,
        "regular": regular.passed,
        "regular minima": (regular.min_forward_normalized, regular.min_backward_normalized),
    }


def lifted_defects(fw, stress):
    return strip_defects(sl.build_lifting(fw, stress, force=True)).tobytes()


def onestrip_readings(fw):
    report = sl.onestrip_verify(fw)
    return (
        report.criterion.tobytes(), report.criterion_max, report.coupling, report.verdict,
        [r.tobytes() for r in report.system_residuals], report.equilibrium_max,
    )


# one mu row 1% off reads residual 9.900993e-03; at 2^-120 the floor of 1e-30 read 2.5e-09
_translational, _induced = builtin_stressed("translational3d")
_wrong = (_translational, mu_scaled(_induced, 0, 1.01))


@PROPERTY
@given(stressed_frameworks(), EXPONENTS, EXPONENTS)
@example(_wrong, 0, -120)
def test_power_of_two_scalings_change_no_normalized_value(drawn, k, m):
    fw, stress = drawn
    big = magnified(fw, 2.0**k)
    assert readings(big, stress.scaled(2.0**m)) == readings(fw, stress)
    if fw.n >= 1:
        # z scales by 2^(m + 2k) while x and y scale by 2^k: only m = -k scales the
        # lifted surface uniformly, so only there is its normalized defect pinned
        assert lifted_defects(big, stress.scaled(2.0**-k)) == lifted_defects(fw, stress)


def march(fw, lambda0, mu_minus1):
    """The stress march's rows, or the type of its failure and where it failed."""
    try:
        stress = sl.solve_stress(fw, lambda0, mu_minus1)
    except StripLiftError as exc:
        return type(exc), str(exc).rpartition(" at ")[2]
    return stress.lam, stress.mu


@PROPERTY
@given(frameworks(ns=st.integers(0, 4)), EXPONENTS)
@example((diverging_framework(), 0), -60)
@example((diverging_framework(), 0), 500)
@example((sl.builtin("perturbed2d", n=2, seed=1), 1), -500)
@example((sl.builtin("perturbed2d", n=2, seed=1), 1), 500)
def test_march_verdict_and_rows_scale_with_its_inputs(drawn, k):
    # the stress is linear in (lambda0, mu_{-1}), and so is the divergence guard
    fw, seed = drawn
    rng = np.random.default_rng(seed)
    lambda0, (m0, m1, amp, freq, phase) = rng.uniform(0.5, 2.0, fw.n + 1), rng.uniform(-0.1, 0.1, 5)

    def mu_minus1(c):
        return CoordFunction((c * m0, c * m1), ((c * amp, 10.0 * freq, phase),))

    base, scaled = march(fw, lambda0, mu_minus1(1.0)), march(fw, 2.0**k * lambda0, mu_minus1(2.0**k))
    assert isinstance(scaled[0], type) == isinstance(base[0], type)  # the same verdict
    if isinstance(base[0], type):
        assert scaled == base
    else:
        assert scaled[0].tobytes() == (2.0**k * base[0]).tobytes()
        assert scaled[1].tobytes() == (2.0**k * base[1]).tobytes()


# liftable with coupling -1 and equilibrium 1.084e-10; at 2^-80 the floor read coupling 1
_cylinder = builtin_stressed("cylinder-strip3d")[0]


@PROPERTY
@given(frameworks(ns=st.just(1)), EXPONENTS)
@example((_cylinder, None), -80)
def test_onestrip_readings_are_scale_free(drawn, k):
    fw, _ = drawn
    assert onestrip_readings(magnified(fw, 2.0**k)) == onestrip_readings(fw)


def test_twisted_surface_stays_non_developable_at_every_scale():
    # acceptance 3's control; x, y and z scale together, so the surface is only magnified
    defects = [sl.developability_report(sl.project(magnified(twisted_surface(), 2.0**k, dims=3)))[0]
               for k in (0, -40)]
    assert defects[0] == defects[1]
    assert f"{defects[1]:.4f}" == "0.6517"


def test_zero_stress_has_zero_scales():
    fw, stress = builtin_stressed("translational3d")
    zero = stress.scaled(0.0)
    assert sl.height_scale(fw, zero) == 0.0
    assert segment_force_scale(fw, zero, 0, 0.0, fw.T) == 0.0
    assert sl.residual_report(fw, zero).max_normalized == 0.0
    lifted = sl.build_lifting(fw, zero)
    assert not np.any(lifted.z)
    assert sl.conjugacy_residual(lifted) == 0.0
