"""Deterministic numerical kernels shared by the whole package.

Quadrature is one prefix rule on uniform nodes (`cumulative_samples`): an
integral over a node range is a difference of two prefix integrals.  One
scale-free guard judges every 2x2 basis, and one division rule (`ratio`)
normalizes every quantity by its scale.  One size rule (`require_size`)
decides which panel counts and curve tables are valid.  Shared sampled
arrays are read-only views (`read_only`).  statics marches classic RK4 as
one scalar recurrence per curve.  The per-point RK4 march and Cramer solve
(ode_march, solve2x2) have no caller in the package and are not exported:
they stay for the tests' reference solver and the benchmark's tracer.
Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasisError, EvaluationError, GridAlignmentError

#: Scale-free degeneracy threshold: a pair of 2-vectors is rejected as a basis
#: when |det| <= EPS_REG * |u| * |v|.
EPS_REG = 1e-9

#: Default number of panels for grids.
DEFAULT_PANELS = 256

#: Fewest panels of a grid: five nodes, the width of the fd_derivative stencils.
MIN_PANELS = 4

#: Most curve samples one grid or table may hold.  At the cap a planar grid
#: table takes about 270 MB, and the march's tables about three times that.
MAX_SAMPLES = 2**22

#: Default tolerance of every pass/fail gate: the equilibrium residual, the
#: strip developability and the one-strip criterion.
DEFAULT_TOL = 1e-6


def require_size(N, curves: int = 1, samples: int | None = None) -> int | None:
    """N as an int, if it passes the one size rule of every grid and curve table.

    A grid's panel count N is an integer (a bool is not one), even and at
    least MIN_PANELS, and `curves` rows of N + 1 samples (one per node) hold
    at most MAX_SAMPLES values.  Given `samples` per curve instead, for a
    table at times of no grid, only that cap is checked.  Raises ValueError
    naming N.
    """
    if samples is None:
        try:
            if isinstance(N, bool):
                raise TypeError
            N = operator.index(N)
        except TypeError:
            raise ValueError(f"N must be an integer panel count, got {type(N).__name__}") from None
        if N < MIN_PANELS or N % 2:
            raise ValueError(f"N must be an even panel count >= {MIN_PANELS}, got {N}")
        samples = N + 1
    if curves * samples > MAX_SAMPLES:
        which = "N" if N is None else f"N = {N}"
        raise ValueError(f"{which} is too large: {curves} x {samples} curve samples "
                         f"exceed MAX_SAMPLES = {MAX_SAMPLES}")
    return N


@dataclass(frozen=True)
class Grid:
    """Uniform sampling of [0, T] with N panels (N+1 nodes); `require_size` judges N."""

    T: float
    N: int

    def __post_init__(self):
        if not np.isfinite(self.T) or self.T <= 0.0:
            raise ValueError(f"grid endpoint T must be positive and finite, got {self.T!r}")
        object.__setattr__(self, "N", require_size(self.N))
        if self.T / self.N == 0.0:
            raise ValueError(f"grid spacing T / N is 0 for T={self.T!r}, N={self.N!r}")
        object.__setattr__(self, "_t", read_only(np.linspace(0.0, self.T, self.N + 1)))

    @property
    def h(self) -> float:
        return self.T / self.N

    def spans(self, T: float) -> bool:
        """Whether [0, T] is the grid's interval: T is positive and finite and equals
        the grid's end to 1e-12 relative (absolute below 1)."""
        return 0.0 < T < math.inf and abs(self.T - T) <= 1e-12 * max(T, 1.0)

    @property
    def t(self) -> np.ndarray:
        """Node values, shape (N+1,), read-only: assigning into them raises ValueError."""
        return self._t

    def node_index(self, t: float) -> int:
        """Index of the node equal to t, or GridAlignmentError if off-grid or not finite."""
        q = t / self.h
        j = int(round(q)) if math.isfinite(q) else -1
        if j < 0 or j > self.N or abs(t - self._t[j]) > 1e-9 * max(self.T, 1.0):
            raise GridAlignmentError(
                f"t={t!r} is not a grid node (T={self.T}, N={self.N})"
            )
        return j


def read_only(values: np.ndarray) -> np.ndarray:
    """A read-only view of an array: no copy, its strides kept, the array's own flags untouched."""
    view = values.view()
    view.flags.writeable = False
    return view


def ratio(num, den):
    """num / den elementwise, where 0/0 reads 0 and x/0 reads inf, with no warning.

    Each normalized value divides a quantity by a scale that bounds it, so a
    zero scale means a zero quantity; no absolute floor makes it scale-dependent.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((num == 0) & (den == 0), 0.0, np.divide(num, den))


def _startup_weights(h: float) -> np.ndarray:
    # One-panel rule exact on cubics, using the three nodes past the panel.
    return np.array([9.0, 19.0, -5.0, 1.0]) * (h / 24.0)


def cumulative_samples(values: np.ndarray, h: float) -> np.ndarray:
    """Prefix integrals over node ranges [0, j] for every j, fourth order.

    Works along the last axis; any leading axes are independent rows, each
    bit-identical to a 1-d call.  Entry j integrates [0, j]: even j by
    composite Simpson, odd j >= 3 by Simpson plus a 3/8 tail, j == 1 by the
    one-panel cubic rule on nodes 0..3.  An integral over [j0, j1] is
    out[j1] - out[j0], so integrals over adjacent ranges add up to rounding.
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
    """basis_guard that raises at the first failing pair; returns det.

    The last leading axis runs over the parameter values t; `label` names
    the pair, or is a nested list of names indexed by the other leading axes.
    The first pair in C order whose det, then whose threshold, is not finite
    raises EvaluationError naming it and t; then the first degenerate pair
    raises DegenerateBasisError at location (name, t).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        det, threshold, degenerate = basis_guard(col1, col2)

    def first(failed):
        index = np.unravel_index(np.argmax(failed), failed.shape)
        name = label
        for k in index[:-1]:
            name = name[k]
        return index, name, float(t[index[-1]])

    for values, quantity in ((det, "{}"), (threshold, "degeneracy threshold of {}")):
        if not np.isfinite(values).all():
            _, name, at = first(~np.isfinite(values))
            raise EvaluationError(f"{quantity.format(name)} is not finite", t=at)
    if degenerate.any():
        index, name, at = first(degenerate)
        raise DegenerateBasisError(float(det[index]), float(threshold[index]), location=(name, at))
    return det


def require_finite(values, quantity, times, first=0):
    """Return values; raise EvaluationError at their first non-finite curve and time.

    Axis 0 runs over curves first, first + 1, ..., axis 1 over times; any
    further axes are reduced.  The message names the quantity, curve and t.
    """
    finite = np.isfinite(values)
    if finite.all():  # one pass; reducing over the trailing axes is slower
        return values
    row, j = np.argwhere(~finite.all(axis=tuple(range(2, finite.ndim))))[0]
    raise EvaluationError(f"{quantity} of curve {row + first} is not finite", t=float(times[j]))


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
