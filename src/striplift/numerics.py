"""Deterministic numerical kernels shared by the whole package.

Quadrature is composite Simpson on uniform nodes, time stepping is the
classic fourth-order Runge-Kutta scheme, and small linear solves go through
Cramer's rule with a scale-free degeneracy guard.  Everything here is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasisError, EvaluationError, GridAlignmentError

#: Scale-free degeneracy threshold: a pair of 2-vectors is rejected as a basis
#: when |det| <= EPS_REG * |u| * |v|.
EPS_REG = 1e-9

#: Default number of panels for grids.
DEFAULT_PANELS = 256

#: Floor used by normalizations so that zero fields report zero, not NaN.
NORM_FLOOR = 1e-30


@dataclass(frozen=True)
class Grid:
    """Uniform sampling of [0, T] with an even panel count N (N+1 nodes)."""

    T: float
    N: int

    def __post_init__(self):
        if not np.isfinite(self.T) or self.T <= 0.0:
            raise ValueError(f"grid endpoint T must be positive and finite, got {self.T!r}")
        if self.N < 2 or self.N % 2 != 0:
            raise ValueError(f"panel count N must be even and >= 2, got {self.N!r}")
        object.__setattr__(self, "_t", np.linspace(0.0, self.T, self.N + 1))

    @property
    def h(self) -> float:
        return self.T / self.N

    @property
    def t(self) -> np.ndarray:
        """Node values, shape (N+1,).  Do not mutate."""
        return self._t

    def node_index(self, t: float) -> int:
        """Index of the node equal to t, or GridAlignmentError if off-grid."""
        j = int(round(t / self.h))
        if j < 0 or j > self.N or abs(t - self._t[j]) > 1e-9 * max(self.T, 1.0):
            raise GridAlignmentError(
                f"t={t!r} is not a grid node (T={self.T}, N={self.N})"
            )
        return j

    def refined(self, factor: int = 2) -> "Grid":
        return Grid(self.T, self.N * factor)


def _startup_weights(h: float) -> np.ndarray:
    # One-panel rule exact on cubics, using the three nodes past the panel.
    return np.array([9.0, 19.0, -5.0, 1.0]) * (h / 24.0)


def integrate_samples(values: np.ndarray, h: float, j0: int = 0, j1: int | None = None) -> float:
    """Fourth-order integral of uniformly sampled values over nodes [j0, j1].

    Composite Simpson for even panel counts; odd counts >= 3 finish with a
    Simpson 3/8 tail; a single panel uses a cubic rule that borrows two nodes
    from outside the range (the sample array must extend past it).
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("integrate_samples expects a 1-d sample array")
    if j1 is None:
        j1 = v.size - 1
    if j0 > j1:
        raise ValueError(f"node range out of order: {j0} > {j1}")
    m = j1 - j0
    if m == 0:
        return 0.0
    if m == 1:
        if j1 + 2 < v.size:
            return float(_startup_weights(h) @ v[j0 : j0 + 4])
        if j0 - 2 >= 0:
            return float(_startup_weights(h) @ v[j0 - 2 : j1 + 1][::-1])
        raise ValueError("single-panel rule needs two nodes beyond the range")
    total = 0.0
    end = j1
    if m % 2 == 1:
        seg = v[j1 - 3 : j1 + 1]
        total += (3.0 * h / 8.0) * (seg[0] + 3.0 * seg[1] + 3.0 * seg[2] + seg[3])
        end = j1 - 3
    if end > j0:
        s = v[j0 : end + 1]
        total += (h / 3.0) * (
            s[0] + s[-1] + 4.0 * s[1:-1:2].sum() + 2.0 * s[2:-1:2].sum()
        )
    return float(total)


def cumulative_samples(values: np.ndarray, h: float) -> np.ndarray:
    """Prefix integrals over node ranges [0, j] for every j, fourth order.

    Works along the last axis; any leading axes are independent rows.  Entry
    j equals integrate_samples(values, h, 0, j) up to rounding: even j by
    composite Simpson, odd j >= 3 by Simpson plus a 3/8 tail, j == 1 by the
    single-panel cubic rule.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 0 or v.shape[-1] < 4:
        raise ValueError("cumulative rule needs at least 4 samples")
    n = v.shape[-1] - 1
    out = np.zeros(v.shape)
    pair = (h / 3.0) * (v[..., :-2:2] + 4.0 * v[..., 1:-1:2] + v[..., 2::2])
    out[..., 2::2] = np.cumsum(pair, axis=-1)
    # a (1, 4) @ (4, 1) product per row runs numpy's 1-d dot kernel, so rows
    # stay bit-identical to a 1-d call
    out[..., 1] = (v[..., None, :4] @ _startup_weights(h)[:, None])[..., 0, 0]
    odd = np.arange(3, n + 1, 2)
    tail = (3.0 * h / 8.0) * (
        v[..., odd - 3] + 3.0 * v[..., odd - 2] + 3.0 * v[..., odd - 1] + v[..., odd]
    )
    out[..., odd] = out[..., odd - 3] + tail
    return out


def basis_guard(col1, col2):
    """Determinant, degeneracy threshold and verdict of 2-vector pairs.

    The vectors lie along the last axis; any leading axes are elementwise.
    A pair is degenerate where |det| <= threshold = EPS_REG * |col1| * |col2|.
    Returns (det, threshold, degenerate).
    """
    c1 = np.asarray(col1, dtype=float)
    c2 = np.asarray(col2, dtype=float)
    det = c1[..., 0] * c2[..., 1] - c1[..., 1] * c2[..., 0]
    threshold = EPS_REG * np.hypot(c1[..., 0], c1[..., 1]) * np.hypot(c2[..., 0], c2[..., 1])
    return det, threshold, np.abs(det) <= threshold


def require_basis(col1, col2, label, t):
    """basis_guard that raises at the first degenerate pair; returns det.

    The last leading axis runs over the parameter values t; `label` names
    the pair, or is a nested list of names indexed by the other leading axes.
    The first degenerate pair in C order raises DegenerateBasisError at
    location (name, t).
    """
    det, threshold, degenerate = basis_guard(col1, col2)
    if degenerate.any():
        first = np.unravel_index(np.argmax(degenerate), degenerate.shape)
        for k in first[:-1]:
            label = label[k]
        raise DegenerateBasisError(
            float(det[first]), float(threshold[first]), location=(label, float(t[first[-1]]))
        )
    return det


def solve2x2(col1, col2, rhs, location=None):
    """Solve x1*col1 + x2*col2 = rhs by Cramer's rule.

    Raises DegenerateBasisError when |det(col1, col2)| falls below the
    scale-free threshold EPS_REG * |col1| * |col2| (see basis_guard).
    """
    c1 = np.asarray(col1, dtype=float)
    c2 = np.asarray(col2, dtype=float)
    r = np.asarray(rhs, dtype=float)
    det, threshold, degenerate = basis_guard(c1, c2)
    if degenerate:
        raise DegenerateBasisError(det, float(threshold), location=location)
    x1 = (r[0] * c2[1] - r[1] * c2[0]) / det
    x2 = (c1[0] * r[1] - c1[1] * r[0]) / det
    return x1, x2


def ode_march(deriv, y0, grid: Grid) -> np.ndarray:
    """Classic RK4 samples of y' = deriv(t, y) on the grid nodes.

    Returns an array of shape (N+1, len(y0)) whose first row equals y0.
    Half-step evaluations call deriv directly; nothing is interpolated.
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    h = grid.h
    out = np.empty((grid.N + 1, y0.size))
    out[0] = y0
    y = y0.copy()
    for j in range(grid.N):
        t = grid.t[j]
        k1 = _stage(deriv, t, y, 1)
        k2 = _stage(deriv, t + 0.5 * h, y + 0.5 * h * k1, 2)
        k3 = _stage(deriv, t + 0.5 * h, y + 0.5 * h * k2, 3)
        k4 = _stage(deriv, t + h, y + h * k3, 4)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[j + 1] = y
    return out


def _stage(deriv, t, y, stage):
    k = np.asarray(deriv(t, y), dtype=float)
    if not np.all(np.isfinite(k)):
        raise EvaluationError("derivative is not finite", t=float(t), stage=stage)
    return k


def fd_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative of uniform samples along the last axis.

    Central five-point stencil inside, one-sided five-point stencils at the
    two nodes on each end.  Needs at least five samples.
    """
    v = np.asarray(values, dtype=float)
    if v.shape[-1] < 5:
        raise ValueError("fourth-order stencils need at least 5 samples")
    d = np.empty_like(v)
    d[..., 2:-2] = (
        v[..., :-4] - 8.0 * v[..., 1:-3] + 8.0 * v[..., 3:-1] - v[..., 4:]
    ) / (12.0 * h)
    d[..., 0] = (
        -25.0 * v[..., 0] + 48.0 * v[..., 1] - 36.0 * v[..., 2]
        + 16.0 * v[..., 3] - 3.0 * v[..., 4]
    ) / (12.0 * h)
    d[..., 1] = (
        -3.0 * v[..., 0] - 10.0 * v[..., 1] + 18.0 * v[..., 2]
        - 6.0 * v[..., 3] + v[..., 4]
    ) / (12.0 * h)
    d[..., -1] = (
        25.0 * v[..., -1] - 48.0 * v[..., -2] + 36.0 * v[..., -3]
        - 16.0 * v[..., -4] + 3.0 * v[..., -5]
    ) / (12.0 * h)
    d[..., -2] = (
        3.0 * v[..., -1] + 10.0 * v[..., -2] - 18.0 * v[..., -3]
        + 6.0 * v[..., -4] - v[..., -5]
    ) / (12.0 * h)
    return d
