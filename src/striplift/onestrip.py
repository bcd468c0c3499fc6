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

import numpy as np

from .framework import Framework, _dump_json
from .geomcore import brackets_from_jets, det2
from .numerics import EPS_REG, NORM_FLOOR, Grid, cumulative_samples, fd_derivative, require_basis
from .statics import StressField, residual_report

DEFAULT_CRITERION_TOL = 1e-6


def _require_onestrip(fw: Framework):
    if fw.n != 1:
        raise ValueError(f"one-strip analysis needs n=1, framework has n={fw.n}")


def _strip_data(fw: Framework, grid: Grid):
    """Bracket arrays at the strip (curves 0 and 1) over the grid nodes."""
    prev = fw.grid_jets(0, grid)
    cur = fw.grid_jets(1, grid)
    nxt = fw.grid_jets(2, grid)
    bs = brackets_from_jets(prev, cur, nxt)
    third = {
        "tan_jerk": det2(cur.d1, cur.d3),        # d/dt det(tan_1, acc_1)
        "tan_prev_jerk_prev": det2(prev.d1, prev.d3),
    }
    norms = {
        "edge": np.linalg.norm(cur.p - prev.p, axis=-1),
        "tan0": np.linalg.norm(prev.d1, axis=-1),
        "tan1": np.linalg.norm(cur.d1, axis=-1),
        "acc0": np.linalg.norm(prev.d2, axis=-1),
        "acc1": np.linalg.norm(cur.d2, axis=-1),
        "jerk0": np.linalg.norm(prev.d3, axis=-1),
        "jerk1": np.linalg.norm(cur.d3, axis=-1),
    }
    return bs, third, norms


def _floored_scale(term_magnitudes, term_bounds):
    """max |term|, floored at EPS_REG times the a-priori magnitude bounds.

    Determinants that vanish identically (circular strips, translates) only
    evaluate to rounding noise; treating products below EPS_REG of their
    norm-product bound as numerically zero keeps the normalization from
    dividing noise by noise.
    """
    scale = np.max(np.abs(np.stack(term_magnitudes)), axis=0)
    floor = EPS_REG * np.sum(np.stack(term_bounds), axis=0)
    return np.maximum(scale, np.maximum(floor, NORM_FLOOR))


def onestrip_stresses(fw: Framework, grid: Grid | None = None):
    """Closed-form strictly positive stress pair and the ruling stress.

    lambda_0 and lambda_1 are exponentials of cumulative quadratures from 0
    (so both start at 1); mu_0 follows algebraically.  Requires the two
    strip determinants det(edge_0, tan_0) and det(edge_0, tan_1) bounded away
    from zero on the grid.
    """
    _require_onestrip(fw)
    grid = grid or fw.grid
    bs, _, _ = _strip_data(fw, grid)
    jets0 = fw.grid_jets(0, grid)
    jets1 = fw.grid_jets(1, grid)
    edge = jets1.p - jets0.p
    require_basis(edge, jets0.d1, "det(edge_0, tan_0)", grid.t)
    require_basis(edge, jets1.d1, "det(edge_0, tan_1)", grid.t)
    lam0 = np.exp(-cumulative_samples(bs.edge_prev_acc_prev / bs.edge_prev_tan_prev, grid.h))
    lam1 = np.exp(-cumulative_samples(bs.edge_prev_acc / bs.edge_prev_tan, grid.h))
    mu0 = lam0 * bs.tan_prev_acc_prev / bs.edge_prev_tan_prev
    return lam0, lam1, mu0


def liftability_criterion(fw: Framework, grid: Grid | None = None) -> np.ndarray:
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
    grid = grid or fw.grid
    bs, third, nb = _strip_data(fw, grid)
    jj = bs.tan_prev_acc_prev * bs.tan_acc  # [tan0, acc0][tan1, acc1]
    p1 = jj * bs.edge_prev_tan_prev * (2.0 * bs.edge_prev_acc - bs.tan_prev_tan)
    p2 = jj * bs.edge_prev_tan * (2.0 * bs.edge_prev_acc_prev - bs.tan_prev_tan)
    bc = bs.edge_prev_tan_prev * bs.edge_prev_tan
    p3 = bc * bs.tan_prev_acc_prev * third["tan_jerk"]
    p4 = bc * bs.tan_acc * third["tan_prev_jerk_prev"]
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
    return residual / _floored_scale((p1, p2, p3, p4), bounds)


def coupling_constant(fw: Framework, lam0, lam1, mu0, grid: Grid | None = None) -> float:
    """Relative scale of lambda_1 that balances the cross equation.

    The closed-form solutions fix each lambda only up to scale; the remaining
    balance equation pins the ratio, including its sign (negative for e.g.
    projected cylinders and cone frustums).  Fitted by least squares over the
    grid; falls back to 1 when the equation degenerates (straight strips).
    """
    _require_onestrip(fw)
    grid = grid or fw.grid
    bs, _, _ = _strip_data(fw, grid)
    lam1_rate = -bs.edge_prev_acc / bs.edge_prev_tan * lam1
    lhs = lam1_rate * bs.tan_prev_tan + lam1 * bs.tan_prev_acc
    rhs = -mu0 * bs.edge_prev_tan_prev
    denom = float(lhs @ lhs)
    ref = float(np.max(np.abs(rhs))) + NORM_FLOOR
    if denom <= (1e-12 * ref) ** 2 * lhs.size:
        return 1.0
    return float((lhs @ rhs) / denom)


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
    equilibrium_max: float | None  # residual_report max of the assembled stress

    def to_doc(self) -> dict:
        return {
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

    def to_json(self) -> str:
        return _dump_json(self.to_doc())

    def to_csv(self) -> str:
        lines = ["t,criterion_residual"]
        for t, r in zip(self.grid.t, self.criterion):
            lines.append(f"{format(t, '.17g')},{format(r, '.17g')}")
        return "\n".join(lines) + "\n"


def onestrip_verify(
    fw: Framework,
    tol: float = DEFAULT_CRITERION_TOL,
    grid: Grid | None = None,
) -> OneStripReport:
    """Assemble the one-strip stresses and judge liftability.

    The verdict is the normalized criterion residual staying below tol at
    every node.  The four balance residuals are evaluated with stencil
    derivatives of the sampled solutions; the cross equation and the final
    equilibrium check use the sign-resolved lambda_1 (coupling * lambda1),
    because the strictly positive exponential pair leaves the relative sign
    of the two curve stresses undetermined.
    """
    _require_onestrip(fw)
    grid = grid or fw.grid
    lam0, lam1, mu0 = onestrip_stresses(fw, grid)
    bs, _, nb = _strip_data(fw, grid)
    criterion = liftability_criterion(fw, grid)
    criterion_max = float(np.abs(criterion).max())
    verdict = bool(criterion_max < tol)
    sigma = coupling_constant(fw, lam0, lam1, mu0, grid)

    lam0_dot = fd_derivative(lam0, grid.h)
    lam1_eq = sigma * lam1
    lam1_eq_dot = fd_derivative(lam1_eq, grid.h)
    t_a = lam0 * bs.tan_prev_acc_prev
    t_b = mu0 * bs.edge_prev_tan_prev
    r1 = (t_a - t_b) / _floored_scale(
        (t_a, t_b),
        (np.abs(lam0) * nb["tan0"] * nb["acc0"], np.abs(mu0) * nb["edge"] * nb["tan0"]),
    )
    t_a = lam1_eq_dot * bs.tan_prev_tan
    t_b = lam1_eq * bs.tan_prev_acc
    t_c = mu0 * bs.edge_prev_tan_prev
    r2 = (t_a + t_b + t_c) / _floored_scale(
        (t_a, t_b, t_c),
        (
            np.abs(lam1_eq_dot) * nb["tan0"] * nb["tan1"],
            np.abs(lam1_eq) * nb["tan0"] * nb["acc1"],
            np.abs(mu0) * nb["edge"] * nb["tan0"],
        ),
    )
    t_a = lam0_dot * bs.edge_prev_tan_prev
    t_b = lam0 * bs.edge_prev_acc_prev
    r3 = (t_a + t_b) / _floored_scale(
        (t_a, t_b),
        (np.abs(lam0_dot) * nb["edge"] * nb["tan0"], np.abs(lam0) * nb["edge"] * nb["acc0"]),
    )
    t_a = lam1_eq_dot * bs.edge_prev_tan
    t_b = lam1_eq * bs.edge_prev_acc
    r4 = (t_a + t_b) / _floored_scale(
        (t_a, t_b),
        (np.abs(lam1_eq_dot) * nb["edge"] * nb["tan1"], np.abs(lam1_eq) * nb["edge"] * nb["acc1"]),
    )

    equilibrium_max = None
    if verdict:
        stress = assemble_stress(fw, lam0, sigma * lam1, mu0, grid)
        equilibrium_max = residual_report(fw, stress).max_normalized

    ratio0 = -bs.edge_prev_tan_prev[0] * bs.tan_acc[0]
    denom0 = bs.edge_prev_tan[0] * bs.tan_prev_acc_prev[0]
    sign = int(np.sign(ratio0 * denom0)) if denom0 * ratio0 != 0 else 0
    return OneStripReport(
        grid=grid,
        lambda0=lam0,
        lambda1=lam1,
        mu0=mu0,
        system_residuals=(r1, r2, r3, r4),
        criterion=criterion,
        criterion_max=criterion_max,
        verdict=verdict,
        coupling=sigma,
        coupling_sign=sign,
        equilibrium_max=equilibrium_max,
    )


def assemble_stress(fw: Framework, lam0, lam1, mu0, grid: Grid | None = None) -> StressField:
    """StressField with zero boundary edge rows from the three strip samples."""
    _require_onestrip(fw)
    grid = grid or fw.grid
    zeros = np.zeros(grid.N + 1)
    return StressField(grid, np.stack([lam0, lam1]), np.stack([zeros, mu0, zeros]))
