"""Explicit stresses and the liftability test for a single strip.

For a framework of two curves (plus the two boundary-direction curves) with
both boundary edge stresses forced to zero, the balance system collapses to
four scalar equations in lambda_0, lambda_1, mu_0.  Three of them integrate
in closed form; the fourth holds exactly when a third-order determinant
identity between the two curves is satisfied, which is the liftability
criterion evaluated here.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .framework import Framework, _dump_json, format_rows
from .geomcore import det2, norm
from .numerics import (
    DEFAULT_TOL, EPS_REG, Grid, cumulative_samples, fd_derivative, ratio, require_basis,
    require_finite,
)
from .statics import StressField, residual_report


def _require_onestrip(fw: Framework):
    if fw.n != 1:
        raise ValueError(f"one-strip analysis needs n=1, framework has n={fw.n}")


def _strip_data(fw: Framework, grid: Grid):
    """Brackets and norms of the strip's local data at the grid nodes.

    Reads rows 1 and 2 of the grid table (curves 0 and 1), tabulated to
    order 3: the jerk brackets are its only reader of order 3, and the later
    order-2 reads of the analysis reuse this table.  Each bracket
    [u, v] = det2(u, v) is named after its two arguments: edge = f_1 - f_0,
    and tan, acc, jerk are the first three derivatives of curve 0 or 1.
    Returns (brackets, norms), norms keyed by vector name.
    """
    table = fw.grid_table(grid, order=3)
    (f0, f1), (tan0, tan1), (acc0, acc1), (jerk0, jerk1) = table[:, 1:3]
    vectors = {
        "edge": f1 - f0, "tan0": tan0, "tan1": tan1,
        "acc0": acc0, "acc1": acc1, "jerk0": jerk0, "jerk1": jerk1,
    }
    pairs = (
        "edge_tan0", "edge_tan1", "edge_acc0", "edge_acc1", "tan0_tan1",
        "tan0_acc0", "tan0_acc1", "tan1_acc1", "tan0_jerk0", "tan1_jerk1",
    )
    brackets = {name: det2(*(vectors[v] for v in name.split("_"))) for name in pairs}
    norms = {name: norm(v) for name, v in vectors.items()}
    return SimpleNamespace(**brackets), norms


def _floored_scale(term_magnitudes, term_bounds, t):
    """max |term|, floored at EPS_REG times the a-priori magnitude bounds.

    Determinants that vanish identically (circular strips, translates) only
    evaluate to rounding noise; treating products below EPS_REG of their
    norm-product bound as numerically zero keeps the normalization from
    dividing noise by noise.  A bound that overflows raises EvaluationError
    at its first time t: a finite residual over an inf scale would read 0.
    """
    scale = np.max(np.abs(np.stack(term_magnitudes)), axis=0)
    floor = EPS_REG * np.sum(np.stack(term_bounds), axis=0)
    scale = np.maximum(scale, floor)
    return require_finite(scale[None], "one-strip normalization scale", t)[0]


def _system_residual(b, nb, t, *terms):
    """Normalized sum of the terms coef * [u, v], each given as (coef, "u_v").

    The terms are added in order; term magnitudes and their a-priori bounds
    |coef| * |u| * |v| (norms nb) set the scale, see _floored_scale.
    """
    values = [coef * getattr(b, name) for coef, name in terms]
    bounds = [np.abs(coef) * nb[u] * nb[v] for coef, name in terms for u, v in [name.split("_")]]
    return ratio(sum(values[1:], values[0]), _floored_scale(values, bounds, t))


def _stresses(fw: Framework, b, grid: Grid):
    """Closed-form stresses of the strip and the coupling between them.

    lambda_0 and lambda_1 are strictly positive exponentials of cumulative
    quadratures from 0 (so both start at 1); mu_0 follows algebraically from
    the strip brackets b.  The two strip determinants det(edge_0, tan_0) and
    det(edge_0, tan_1) must stay away from zero on the grid.  Each lambda is
    fixed only up to scale; the cross equation pins the ratio, including its
    sign (negative for e.g. projected cylinders and cone frustums).  The
    coupling is its least-squares fit over the grid, or 1 where the equation
    degenerates (straight strips).  Returns (lam0, lam1, mu0, coupling).
    A non-finite stress or cross-equation term raises EvaluationError.
    """
    (f0, f1), (tan0, tan1) = fw.grid_table(grid)[:2, 1:3]
    edge = f1 - f0
    require_basis(edge, tan0, "det(edge_0, tan_0)", grid.t)
    require_basis(edge, tan1, "det(edge_0, tan_1)", grid.t)
    lam0 = np.exp(-cumulative_samples(b.edge_acc0 / b.edge_tan0, grid.h))
    lam1 = np.exp(-cumulative_samples(b.edge_acc1 / b.edge_tan1, grid.h))
    mu0 = lam0 * b.tan0_acc0 / b.edge_tan0
    lam1_rate = -b.edge_acc1 / b.edge_tan1 * lam1
    lhs = lam1_rate * b.tan0_tan1 + lam1 * b.tan0_acc1
    rhs = -mu0 * b.edge_tan0
    require_finite(np.stack([lam0, lam1, mu0, lhs, rhs], axis=-1)[None],
                   "one-strip stress or cross-equation term", grid.t)
    denom = float(lhs @ lhs)
    ref = np.max(np.abs(rhs))  # squared as a numpy float: inf, not OverflowError
    coupling = 1.0 if denom <= (1e-12 * ref) ** 2 * lhs.size else float((lhs @ rhs) / denom)
    return lam0, lam1, mu0, coupling


def liftability_criterion(fw: Framework) -> np.ndarray:
    """Per-node normalized residual of the one-strip liftability identity.

    The identity couples the first three derivatives of the two curves:

        [tan0, acc0][tan1, acc1] * ( [edge, tan0](2[edge, acc1] - [tan0, tan1])
                                   - [edge, tan1](2[edge, acc0] - [tan0, tan1]) )
      = [edge, tan0][edge, tan1] * ( [tan0, acc0][tan1, jerk1]
                                   - [tan1, acc1][tan0, jerk0] )

    with edge = f_1 - f_0 and [.,.] the planar determinant.  The residual is
    left minus right, divided by the largest magnitude among the four
    products (floored at EPS_REG of their norm bounds, see _floored_scale).
    """
    _require_onestrip(fw)
    with np.errstate(over="ignore", invalid="ignore"):  # _criterion reports it
        return _criterion(*_strip_data(fw, fw.grid), fw.grid.t)


def _criterion(b, nb, t):
    """liftability_criterion from the strip brackets b and norms nb at the times t.

    A non-finite residual raises EvaluationError at its first t.
    """
    jj = b.tan0_acc0 * b.tan1_acc1  # [tan0, acc0][tan1, acc1]
    p1 = jj * b.edge_tan0 * (2.0 * b.edge_acc1 - b.tan0_tan1)
    p2 = jj * b.edge_tan1 * (2.0 * b.edge_acc0 - b.tan0_tan1)
    bc = b.edge_tan0 * b.edge_tan1
    p3 = bc * b.tan0_acc0 * b.tan1_jerk1
    p4 = bc * b.tan1_acc1 * b.tan0_jerk0
    residual = (p1 - p2) - (p3 - p4)
    jj_b = nb["tan0"] * nb["acc0"] * nb["tan1"] * nb["acc1"]
    cross_b = 2.0 * nb["edge"] * np.maximum(nb["acc0"], nb["acc1"]) + nb["tan0"] * nb["tan1"]
    bc_b = nb["edge"] ** 2 * nb["tan0"] * nb["tan1"]
    bounds = (
        jj_b * nb["edge"] * nb["tan0"] * cross_b,
        jj_b * nb["edge"] * nb["tan1"] * cross_b,
        bc_b * nb["tan0"] * nb["acc0"] * nb["tan1"] * nb["jerk1"],
        bc_b * nb["tan1"] * nb["acc1"] * nb["tan0"] * nb["jerk0"],
    )
    return require_finite(ratio(residual, _floored_scale((p1, p2, p3, p4), bounds, t))[None],
                          "one-strip criterion", t)[0]


@dataclass(frozen=True)
class OneStripReport:
    """Everything the one-strip analysis produces on one grid."""

    grid: Grid
    lambda0: np.ndarray
    lambda1: np.ndarray
    mu0: np.ndarray
    system_residuals: tuple        # four normalized per-node arrays
    criterion: np.ndarray          # normalized criterion residual per node
    criterion_max: float
    verdict: bool
    coupling: float                # fitted lambda_1 scale for the balance
    coupling_sign: int             # sign diagnostic of the exponential relation
    equilibrium_max: float | None  # residual_report max of the assembled stress, if liftable

    def to_doc(self) -> dict:
        doc = {
            "T": self.grid.T,
            "N": self.grid.N,
            "lambda0": self.lambda0,
            "lambda1": self.lambda1,
            "mu0": self.mu0,
            "system_residuals": list(self.system_residuals),
            "system_residual_max": [float(np.abs(r).max()) for r in self.system_residuals],
            "criterion": self.criterion,
            "criterion_max": self.criterion_max,
            "verdict": self.verdict,
            "coupling": self.coupling,
            "coupling_sign": self.coupling_sign,
            "equilibrium_max": self.equilibrium_max,
        }
        return {key: value for key, value in doc.items() if value is not None}

    def to_json(self) -> str:
        return _dump_json(self.to_doc())

    def to_csv(self) -> str:
        rows = np.column_stack([self.grid.t, self.criterion])
        return "t,criterion_residual\n" + format_rows(rows, "", ",")


def onestrip_verify(fw: Framework, tol: float = DEFAULT_TOL) -> OneStripReport:
    """Assemble the one-strip stresses and judge liftability.

    The verdict is the normalized criterion residual staying below tol at
    every node.  The four balance residuals are evaluated with stencil
    derivatives of the sampled solutions; the cross equation and the final
    equilibrium check use the sign-resolved lambda_1 (coupling * lambda1),
    because the strictly positive exponential pair leaves the relative sign
    of the two curve stresses undetermined.
    """
    _require_onestrip(fw)
    grid = fw.grid
    with np.errstate(over="ignore", invalid="ignore"):  # the gates in these steps report it
        b, nb = _strip_data(fw, grid)
        lam0, lam1, mu0, sigma = _stresses(fw, b, grid)
        criterion = _criterion(b, nb, grid.t)
        lam0_dot = fd_derivative(lam0, grid.h)
        lam1_eq = sigma * lam1
        lam1_eq_dot = fd_derivative(lam1_eq, grid.h)
        residuals = (
            _system_residual(b, nb, grid.t, (lam0, "tan0_acc0"), (-mu0, "edge_tan0")),
            _system_residual(
                b, nb, grid.t, (lam1_eq_dot, "tan0_tan1"), (lam1_eq, "tan0_acc1"), (mu0, "edge_tan0")
            ),
            _system_residual(b, nb, grid.t, (lam0_dot, "edge_tan0"), (lam0, "edge_acc0")),
            _system_residual(b, nb, grid.t, (lam1_eq_dot, "edge_tan1"), (lam1_eq, "edge_acc1")),
        )
        ratio0 = -b.edge_tan0[0] * b.tan1_acc1[0]
        denom0 = b.edge_tan1[0] * b.tan0_acc0[0]
        sign = int(np.sign(ratio0 * denom0)) if denom0 * ratio0 != 0 else 0
    require_finite(np.stack(residuals, axis=-1)[None], "one-strip balance residual", grid.t)
    criterion_max = float(np.abs(criterion).max())
    verdict = bool(criterion_max < tol)

    equilibrium_max = None
    if verdict:
        stress = assemble_stress(fw, lam0, sigma * lam1, mu0)
        equilibrium_max = residual_report(fw, stress).max_normalized

    return OneStripReport(
        grid=grid,
        lambda0=lam0,
        lambda1=lam1,
        mu0=mu0,
        system_residuals=residuals,
        criterion=criterion,
        criterion_max=criterion_max,
        verdict=verdict,
        coupling=sigma,
        coupling_sign=sign,
        equilibrium_max=equilibrium_max,
    )


def assemble_stress(fw: Framework, lam0, lam1, mu0) -> StressField:
    """StressField on fw.grid with zero boundary edge rows from the three strip samples."""
    _require_onestrip(fw)
    zeros = np.zeros(fw.grid.N + 1)
    return StressField(fw.grid, np.stack([lam0, lam1]), np.stack([zeros, mu0, zeros]))
