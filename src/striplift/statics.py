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

from .errors import DegenerateBasisError, DivergenceError, SchemaError
from .framework import (
    CoordFunction, Framework, _dump_json, document_numbers, document_rows, parse_document
)
from .numerics import (
    NORM_FLOOR,
    Grid,
    basis_guard,
    fd_derivative,
    integrate_samples,
    ode_march,
)


@dataclass(frozen=True)
class StressField:
    """Sampled stress functions on a shared grid.

    lam has one row per curve index 0..n, mu one row per edge index -1..n;
    row j of either corresponds to grid node t_j.
    """

    grid: Grid
    lam: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        if lam.ndim != 2 or mu.ndim != 2:
            raise ValueError("stress samples must be 2-d arrays")
        if mu.shape[0] != lam.shape[0] + 1:
            raise ValueError(
                f"edge stress needs one more row than curve stress, got "
                f"{mu.shape[0]} vs {lam.shape[0]}"
            )
        if lam.shape[1] != self.grid.N + 1 or mu.shape[1] != self.grid.N + 1:
            raise ValueError("stress rows must have one sample per grid node")
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(mu))):
            raise ValueError("stress samples must be finite")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)

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
    for key in ("T", "n", "N", "lambda", "mu"):
        if key not in doc:
            raise SchemaError(f"missing key {key!r}", field=key)
    T, n, N = document_numbers(doc, "T", "n", "N")
    grid = Grid(float(T), N)
    lam = document_rows(doc, "lambda")
    mu = document_rows(doc, "mu")
    if lam.ndim != 2 or lam.shape[0] != n + 1:
        raise SchemaError(f"lambda must have {n + 1} rows", field="lambda")
    if mu.ndim != 2 or mu.shape[0] != n + 2:
        raise SchemaError(f"mu must have {n + 2} rows", field="mu")
    try:
        return StressField(grid, lam, mu)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def _balance_vectors(p, d1, d2):
    """Tangent, acceleration, forward and backward edge of curves 0..n.

    Takes positions and derivatives of all curves -1..n+1 (curve axis
    first) and returns the four vectors the balance at curves 0..n reads,
    each with one row per curve 0..n.
    """
    edge = p[1:] - p[:-1]  # edge[i + 1] = f_{i+1} - f_i
    return d1[1:-1], d2[1:-1], edge[1:], edge[:-1]


def _force_terms(fw: Framework, stress: StressField):
    """The four force terms of the balance, each of shape (n+1, N+1, 2).

    lam_dot_i * tan_i, lam_i * acc_i, mu_i * edge_i and mu_{i-1} * edge_{i-1}
    at every curve 0..n and grid node; the balance is t1 + t2 + t3 - t4.
    """
    table = fw.grid_table(stress.grid)
    tan, acc, fwd, bwd = _balance_vectors(table.p, table.d1, table.d2)
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
    if abs(stress.grid.T - fw.T) > 1e-12 * max(fw.T, 1.0):
        raise ValueError("stress grid does not span the framework interval")


def force_vector(fw: Framework, stress: StressField, i: int, t: float) -> np.ndarray:
    """Tension force lam_i(t) * tangent_i(t); t must be a grid node."""
    _check_compatible(fw, stress)
    j = stress.grid.node_index(t)
    return stress.lam_at(i)[j] * fw.jet(i, stress.grid.t[j]).d1


@dataclass(frozen=True)
class ResidualReport:
    """Equilibrium defect of a stress over every curve and grid node.

    residual[i, j] is the defect vector at curve i, node j; normalized[i, j]
    divides its magnitude by the largest of the four force-term magnitudes
    (floored, so the divisor is always positive).
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
    terms = _force_terms(fw, stress)
    t1, t2, t3, t4 = terms
    res = t1 + t2 + t3 - t4
    scale = np.max([np.linalg.norm(term, axis=-1) for term in terms], axis=0)
    normed = np.linalg.norm(res, axis=-1) / np.maximum(scale, NORM_FLOOR)
    flat = int(np.argmax(normed))
    i_max, j_max = divmod(flat, grid.N + 1)
    return ResidualReport(
        grid=grid,
        residual=res,
        normalized=normed,
        max_normalized=float(normed[i_max, j_max]),
        argmax=(int(i_max), float(grid.t[j_max])),
    )


def force_load(fw: Framework, stress: StressField, i: int, a: float, b: float) -> np.ndarray:
    """Net force on the segment [a, b] of curve i (grid-aligned endpoints).

    Tension at the two cut ends plus the accumulated ruling forces; vanishes
    for every segment exactly when the stress is a self-stress.
    """
    _check_compatible(fw, stress)
    grid = stress.grid
    ja, jb = grid.node_index(a), grid.node_index(b)
    if ja > jb:
        raise ValueError(f"segment out of order: a={a} > b={b}")
    end = force_vector(fw, stress, i, grid.t[jb])
    start = force_vector(fw, stress, i, grid.t[ja])
    _, _, t3, t4 = _force_terms(fw, stress)
    ruling = t3[i] - t4[i]
    integral = np.array(
        [integrate_samples(ruling[:, c], grid.h, ja, jb) for c in range(2)]
    )
    return end - start + integral


def segment_force_scale(fw: Framework, stress: StressField, i: int, a: float, b: float) -> float:
    """Magnitude scale for judging force_load on [a, b] of curve i.

    Uses the sizes of the forces being balanced (tension at the cut ends and
    the two ruling force families separately), so stresses whose ruling
    forces cancel pairwise still get a physical scale.
    """
    grid = stress.grid
    ja, jb = grid.node_index(a), grid.node_index(b)
    table = fw.grid_table(grid)
    tan, _, fwd, bwd = _balance_vectors(table.p, table.d1, table.d2)
    norm = lambda v: np.linalg.norm(v[i], axis=-1)
    tension = np.abs(stress.lam_at(i)) * norm(tan)
    ruling = np.abs(stress.mu_at(i)) * norm(fwd) + np.abs(stress.mu_at(i - 1)) * norm(bwd)
    span = grid.t[jb] - grid.t[ja]
    return max(float(tension.max()), span * float(ruling.max()), NORM_FLOOR)


def _boundary_samples(spec, times: np.ndarray) -> np.ndarray:
    """A prescribed edge-stress input sampled at the given times."""
    if isinstance(spec, CoordFunction):
        return np.asarray(spec.value(times), dtype=float)
    if callable(spec):
        return np.array([float(spec(t)) for t in times])
    if isinstance(spec, (int, float)):
        return np.full(times.shape, float(spec))
    raise TypeError(f"cannot interpret edge stress specification {spec!r}")


def _strip_table(fw: Framework, times: np.ndarray):
    """What the balance at curves 0..n reads, at every time in `times`.

    Returns the table, shape (len(times), n+1, 9), whose last axis holds
    tangent, acceleration, forward edge and backward edge (x, y each) and the
    Cramer determinant of (tangent, forward edge); then that determinant, its
    threshold and its degeneracy verdict, each of shape (len(times), n+1).
    """
    tan, acc, fwd, bwd = _balance_vectors(*fw.tabulate(times, order=2))
    det, threshold, degenerate = basis_guard(tan, fwd)
    table = np.concatenate([tan, acc, fwd, bwd, det[..., None]], axis=-1)
    return np.ascontiguousarray(table.transpose(1, 0, 2)), det.T, threshold.T, degenerate.T


def _sweep(entries, lam, mu_prev):
    """Sweep the balance over curves 0..n in increasing i.

    entries holds one strip-table entry per curve, lam the curve stresses and
    mu_prev the prescribed mu_{-1}.  Returns the growth rates of lam_0..lam_n
    and the edge stresses mu_0..mu_n, as lists.  Works on scalars (one time)
    and on arrays (many times at once) alike.
    """
    rates, mus = [], []
    for (d1x, d1y, d2x, d2y, fx, fy, bx, by, det), lam_i in zip(entries, lam):
        r0 = -lam_i * d2x + mu_prev * bx
        r1 = -lam_i * d2y + mu_prev * by
        rates.append((r0 * fy - r1 * fx) / det)
        mu_prev = (d1x * r1 - d1y * r0) / det
        mus.append(mu_prev)
    return rates, mus


def solve_stress(fw: Framework, lambda0, mu_minus1, grid: Grid | None = None) -> StressField:
    """March the equilibrium system forward in t to construct a stress.

    lambda0 prescribes the curve stresses at t = 0 (one value per curve
    0..n); mu_minus1 prescribes the first boundary edge stress as a function
    of t (a callable, a CoordFunction, or a constant).  At each time the
    curves are swept in increasing i: the balance at curve i determines the
    growth rate of lam_i and the edge stress mu_i, given mu_{i-1} from the
    previous stage.  Sampling is classic RK4 on the grid.  Before the march,
    the curve data the sweep reads (tangent, acceleration, both edges and
    the Cramer determinant per curve) and mu_{-1} are tabulated once, from
    the exact closed forms, at exactly the times the RK4 stages ask for
    (t_j, t_j + h/2, t_j + h) and at the grid nodes; the edge stresses at the
    nodes are then recovered in one pass over whole rows.  A degenerate
    basis is reported when the march reaches it.  The output includes the
    induced boundary edge stress at index n.
    """
    grid = grid or fw.grid
    lam0 = np.atleast_1d(np.asarray(lambda0, dtype=float))
    if lam0.shape != (fw.n + 1,):
        raise ValueError(f"lambda0 must supply {fw.n + 1} values, got shape {lam0.shape}")
    if not np.all(np.isfinite(lam0)):
        raise ValueError("lambda0 must be finite")
    guard = 1e12 * max(1.0, float(np.abs(lam0).max()))

    # the stage times by the same float operations ode_march uses, then the
    # grid nodes; each distinct time gets one table row
    starts = grid.t[:-1]
    row_of = {}
    for t in np.concatenate([starts, starts + 0.5 * grid.h, starts + grid.h, grid.t]).tolist():
        row_of.setdefault(t, len(row_of))
    times = np.array(list(row_of))
    mu_first = _boundary_samples(mu_minus1, times)
    table, det, threshold, degenerate = _strip_table(fw, times)
    degenerate_rows = set(np.flatnonzero(degenerate.any(axis=1)).tolist())

    def row(t):
        k = row_of[float(t)]
        if k in degenerate_rows:
            i = int(np.argmax(degenerate[k]))
            raise DegenerateBasisError(
                float(det[k, i]), float(threshold[k, i]), location=(i, float(t))
            )
        return k

    def deriv(t, lam):
        if np.abs(lam).max() > guard:
            raise DivergenceError(
                f"curve stress exceeded {guard:.3e} at t={float(t):.6g}"
            )
        k = row(t)
        try:
            return _sweep(table[k].tolist(), lam.tolist(), float(mu_first[k]))[0]
        except ZeroDivisionError:
            # det == 0 passes the guard only when its threshold overflowed to
            # NaN; give the non-finite rate numpy's division would, which
            # ode_march then reports
            return np.full(lam.shape, np.nan)

    lam_samples = ode_march(deriv, lam0, grid).T
    nodes = [row(t) for t in grid.t]
    mu_nodes = mu_first[nodes]
    _, mus = _sweep(table[nodes].transpose(1, 2, 0), lam_samples, mu_nodes)
    return StressField(grid, lam_samples, np.vstack([mu_nodes, *mus]))
