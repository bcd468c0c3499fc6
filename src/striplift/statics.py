"""Stress fields on frameworks and the equilibrium machinery.

A stress is a pair of sampled scalar families: one value per curve 0..n and
grid node (tension along the curve) and one per edge family -1..n and node
(density of the ruling forces).  The local balance at curve i reads

    lam_dot_i * tan_i + lam_i * acc_i + mu_i * edge_i - mu_{i-1} * edge_{i-1} = 0

with edge_i = f_{i+1} - f_i, and a stress satisfying it everywhere is a
self-stress.  The residual of that balance is evaluated from the *given*
samples (derivatives of lam by fourth-order stencils), so it is a fair judge
of any externally supplied stress, not only of solver output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasisError, DivergenceError, EvaluationError, SchemaError
from .framework import CoordFunction, Framework, _dump_json, parse_document
from .framework import document_numbers, document_rows, document_values
from .geomcore import balance_vectors, det2, norm
from .numerics import (
    Grid, basis_guard, cumulative_samples, fd_derivative, ratio, require_finite
)


@dataclass(frozen=True)
class StressField:
    """Sampled stress functions on a shared grid.

    lam has one row per curve index 0..n, mu one row per edge index -1..n;
    sample j of a row is at grid node t_j.  lam and mu are checked read-only
    copies of the arrays given (`Grid.samples`).
    """

    grid: Grid
    lam: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        lam = self.grid.samples(self.lam, None, "curve stress")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", self.grid.samples(self.mu, len(lam) + 1, "edge stress", first=-1))

    @property
    def n(self) -> int:
        return self.lam.shape[0] - 1

    def lam_at(self, i: int) -> np.ndarray:
        if not 0 <= i <= self.n:
            raise IndexError(f"curve stress index {i} outside 0..{self.n}")
        return self.lam[i]

    def mu_at(self, i: int) -> np.ndarray:
        if not -1 <= i <= self.n:
            raise IndexError(f"edge stress index {i} outside -1..{self.n}")
        return self.mu[i + 1]

    def scaled(self, c: float) -> "StressField":
        return StressField(self.grid, c * self.lam, c * self.mu)


def save_stress(stress: StressField) -> str:
    doc = {
        "T": stress.grid.T,
        "n": stress.n,
        "N": stress.grid.N,
        "lambda": stress.lam,
        "mu": stress.mu,
    }
    return _dump_json(doc)


def load_stress(text: str) -> StressField:
    doc = parse_document(text)
    if not isinstance(doc, dict):
        raise SchemaError("stress document root must be an object")
    document_values(doc, "T", "n", "N", "lambda", "mu")
    T, n, N = document_numbers(doc, "T", "n", "N")
    lam, mu = document_rows(doc, "lambda", n + 1, N), document_rows(doc, "mu", n + 2, N)
    return StressField(Grid(float(T), N), lam, mu)


def _force_terms(fw: Framework, stress: StressField):
    """The four force terms of the balance, each of shape (n+1, N+1, 2).

    lam_dot_i * tan_i, lam_i * acc_i, mu_i * edge_i and mu_{i-1} * edge_{i-1}
    at every curve 0..n and grid node; the balance is t1 + t2 + t3 - t4.
    """
    tan, acc, fwd, bwd = balance_vectors(fw.grid_table(stress.grid))
    lam_dot = fd_derivative(stress.lam, stress.grid.h)
    return (
        lam_dot[..., None] * tan,
        stress.lam[..., None] * acc,
        stress.mu[1:, :, None] * fwd,
        stress.mu[:-1, :, None] * bwd,
    )


def _check_compatible(fw: Framework, stress: StressField):
    if stress.n != fw.n:
        raise ValueError(f"stress is for n={stress.n}, framework has n={fw.n}")
    stress.grid.require_span(fw.T)


def force_vector(fw: Framework, stress: StressField, i: int, t: float) -> np.ndarray:
    """Tension force lam_i(t) * tangent_i(t); t must be a grid node."""
    _check_compatible(fw, stress)
    j = stress.grid.node_index(t)
    lam = stress.lam_at(i)  # raises for an i outside 0..n, which would wrap a table row
    _, d1 = fw.grid_table(stress.grid)[:2]
    return lam[j] * d1[i + 1, j]


@dataclass(frozen=True)
class ResidualReport:
    """Equilibrium defect of a stress over every curve and grid node.

    residual[i, j] is the defect vector at curve i, node j; normalized[i, j]
    divides its magnitude (at most 4x the largest force-term magnitude) by
    that largest magnitude, so where all four force terms vanish it reads 0.
    """

    grid: Grid
    residual: np.ndarray     # (n+1, N+1, 2)
    normalized: np.ndarray   # (n+1, N+1)
    max_normalized: float
    argmax: tuple            # (i, t_j)

    def summary(self) -> str:
        return (
            f"normalized equilibrium residual max {self.max_normalized:.6e} "
            f"at (i={self.argmax[0]}, t={self.argmax[1]:.6g})"
        )


def residual_report(fw: Framework, stress: StressField) -> ResidualReport:
    _check_compatible(fw, stress)
    grid = stress.grid
    with np.errstate(over="ignore", invalid="ignore"):  # require_finite below reports it
        t1, t2, t3, t4 = _force_terms(fw, stress)
        res = t1 + t2 + t3 - t4
        scale = np.maximum(np.maximum(np.maximum(norm(t1), norm(t2)), norm(t3)), norm(t4))
        normed = ratio(norm(res), scale)
    require_finite(normed, "normalized residual", grid.t)
    # a finite residual over an infinite scale reads 0, which no gate should trust
    require_finite(scale, "force scale", grid.t)
    flat = int(np.argmax(normed))
    i_max, j_max = divmod(flat, grid.N + 1)
    return ResidualReport(
        grid=grid,
        residual=res,
        normalized=normed,
        max_normalized=float(normed[i_max, j_max]),
        argmax=(int(i_max), float(grid.t[j_max])),
    )


def _segment_nodes(grid: Grid, a: float, b: float):
    """The grid nodes of the segment ends a <= b; a > b raises ValueError."""
    ja, jb = grid.node_index(a), grid.node_index(b)
    if ja > jb:
        raise ValueError(f"segment out of order: a={a} > b={b}")
    return ja, jb


def force_load(fw: Framework, stress: StressField, i: int, a: float, b: float) -> np.ndarray:
    """Net force on the segment [a, b] of curve i (grid-aligned endpoints).

    Tension at the two cut ends plus the ruling forces, integrated over
    [a, b] as a difference of their prefix integrals, so loads add up over
    adjacent segments.  Vanishes for every segment exactly when the stress is
    a self-stress.
    """
    _check_compatible(fw, stress)
    grid = stress.grid
    ja, jb = _segment_nodes(grid, a, b)
    lam = stress.lam_at(i)  # raises for an i outside 0..n, which would wrap a table row
    tan, _, fwd, bwd = balance_vectors(fw.grid_table(grid))
    ruling = stress.mu_at(i)[:, None] * fwd[i] - stress.mu_at(i - 1)[:, None] * bwd[i]
    prefix = cumulative_samples(ruling.T, grid.h)
    return lam[jb] * tan[i, jb] - lam[ja] * tan[i, ja] + (prefix[:, jb] - prefix[:, ja])


def segment_force_scale(fw: Framework, stress: StressField, i: int, a: float, b: float) -> float:
    """Magnitude scale for judging force_load on [a, b] of curve i.

    Uses the sizes of the forces being balanced (tension at the cut ends and
    the two ruling force families separately), so stresses whose ruling
    forces cancel pairwise still get a physical scale (0 only if all vanish).
    """
    _check_compatible(fw, stress)
    grid = stress.grid
    ja, jb = _segment_nodes(grid, a, b)
    tan, _, fwd, bwd = balance_vectors(fw.grid_table(grid))
    tension = np.abs(stress.lam_at(i)) * norm(tan[i])
    ruling = np.abs(stress.mu_at(i)) * norm(fwd[i]) + np.abs(stress.mu_at(i - 1)) * norm(bwd[i])
    span = grid.t[jb] - grid.t[ja]
    return max(float(tension.max()), span * float(ruling.max()))


def _boundary_samples(spec, times: np.ndarray) -> np.ndarray:
    """A prescribed edge-stress input sampled at the given times."""
    if isinstance(spec, CoordFunction):
        return np.asarray(spec.value(times), dtype=float)
    if callable(spec):
        return np.array([float(spec(t)) for t in times])
    if isinstance(spec, (int, float)):
        return np.full(times.shape, float(spec))
    raise TypeError(f"cannot interpret edge stress specification {spec!r}")


def solve_stress(fw: Framework, lambda0, mu_minus1, grid: Grid | None = None) -> StressField:
    """March the equilibrium system forward in t to construct a stress.

    lambda0 prescribes the curve stresses at t = 0 (one value per curve
    0..n); mu_minus1 the first boundary edge stress as a function of t (a
    callable, a CoordFunction, or a constant).  By Cramer's rule on the basis
    (tangent, forward edge) the balance at curve i reads

        lam_dot_i = alpha_i lam_i + beta_i mu_{i-1},  mu_i = gamma_i lam_i + delta_i mu_{i-1},

    so the system is lower triangular and is marched curve by curve: classic
    RK4 on curve i, fed with mu_{i-1} at the four stage inputs of every step,
    is the scalar recurrence lam_i[j+1] = P_j lam_i[j] + Q_j, and mu_i at the
    stage inputs feeds curve i + 1.  The divergence guard is 1e12 times the
    largest input, |lambda0| or |mu_minus1| at the march's times, so scaling
    both by 2^k changes no verdict; zero inputs march at 0 under guard 0.  At
    the first step and stage in march order where any curve fails, an input
    |lam| above the guard raises DivergenceError, a degenerate basis at the
    stage time DegenerateBasisError at its first curve, a non-finite
    derivative EvaluationError.  The output includes the induced edge stress mu_n.
    """
    grid = grid or fw.grid
    lam0 = np.atleast_1d(np.asarray(lambda0, dtype=float))
    if lam0.shape != (fw.n + 1,):
        raise ValueError(f"lambda0 must supply {fw.n + 1} values, got shape {lam0.shape}")
    if not np.all(np.isfinite(lam0)):
        raise ValueError("lambda0 must be finite")

    # the nodes, then the half steps by the float operations of numerics.ode_march;
    # stage s of step j reads time row rows[s, j]
    N, h = grid.N, grid.h
    times = np.concatenate([grid.t, grid.t[:-1] + 0.5 * h])
    mids = np.arange(N + 1, 2 * N + 1)
    rows = np.stack([mids - N - 1, mids, mids, mids - N])
    table = np.concatenate([fw.grid_table(grid)[:3], fw.tabulate(times[N + 1:], 2)], axis=2)
    tan, acc, fwd, bwd = balance_vectors(table)
    lam = np.empty((fw.n + 1, N + 1))
    mu = np.empty((fw.n + 2, N + 1))
    diverged = np.zeros((4, N), dtype=bool)
    failed = np.zeros((4, N), dtype=bool)
    # inf and NaN only spread forward in j and to higher i: failures are located after the march
    with np.errstate(all="ignore"):
        det, threshold, degenerate = basis_guard(tan, fwd)
        divisor = np.where(degenerate | (det == 0), np.nan, det)  # no division by either
        alpha, beta = -det2(acc, fwd) / divisor, det2(bwd, fwd) / divisor
        gamma, delta = -det2(tan, acc) / divisor, det2(tan, bwd) / divisor
        mu_prev = _boundary_samples(mu_minus1, times)
        guard = 1e12 * max(float(np.abs(lam0).max()), float(np.abs(mu_prev).max()))
        mu[0] = mu_prev[:N + 1]
        mu_prev = mu_prev[rows]  # mu_{i-1} at the stage inputs
        for i, y in enumerate(lam0.tolist()):
            # the input of stage s of step j is Y[s, 0] * lam_i[j] + Y[s, 1],
            # its rate K[s, 0] * lam_i[j] + K[s, 1]
            a, b = alpha[i, rows], beta[i, rows]
            Y, K = np.zeros((2, 4, 2, N))
            Y[0, 0] = 1.0
            for s in range(4):
                K[s] = a[s] * Y[s]
                K[s, 1] += b[s] * mu_prev[s]
                if s < 3:
                    Y[s + 1] = (0.5 * h, 0.5 * h, h)[s] * K[s]
                    Y[s + 1, 0] += 1.0
            P, Q = (h / 6.0) * (K[0] + 2.0 * K[1] + 2.0 * K[2] + K[3])
            steps = [y]
            for p, q in zip((P + 1.0).tolist(), Q.tolist()):
                y = p * y + q
                steps.append(y)
            lam[i] = steps
            inputs = Y[:, 0] * lam[i, :-1] + Y[:, 1]
            diverged |= np.abs(inputs) > guard
            failed |= ~np.isfinite(K[:, 0] * lam[i, :-1] + K[:, 1])
            mu_prev = gamma[i, rows] * inputs + delta[i, rows] * mu_prev
            mu[i + 1] = gamma[i, :N + 1] * lam[i] + delta[i, :N + 1] * mu[i]

    if (diverged | failed).any():
        j, s = divmod(int(np.argmax((diverged | failed).T)), 4)
        k = rows[s, j]
        t = float(times[k])
        if diverged[s, j]:
            raise DivergenceError(f"curve stress exceeded {guard:.3e} at t={t:.6g}")
        if degenerate[:, k].any():
            i = int(np.argmax(degenerate[:, k]))
            raise DegenerateBasisError(float(det[i, k]), float(threshold[i, k]), (i, t))
        raise EvaluationError("derivative is not finite", t=t, stage=s + 1)
    return StressField(grid, lam, mu)
