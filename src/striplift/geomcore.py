"""Planar and spatial determinant algebra and non-degeneracy predicates.

All determinant helpers broadcast over leading axes, so they accept single
vectors of shape (2,) or (3,) as well as stacked arrays of shape (m, dim).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import EPS_REG, basis_guard, ratio, require_finite


def det2(a, b):
    """Determinant of two planar vectors (z component of the cross product)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def norm(v):
    """Euclidean length of planar or spatial vectors along the last axis.

    Bit-identical to np.linalg.norm(v, axis=-1), which squares, adds in
    coordinate order and takes the root too, minus its generic reduction.
    """
    v = np.asarray(v, dtype=float)
    squares = v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1]
    if v.shape[-1] == 3:
        squares += v[..., 2] * v[..., 2]
    return np.sqrt(squares)


def det3(a, b, c):
    """Scalar triple product of three spatial vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    return (
        a[..., 0] * (b[..., 1] * c[..., 2] - b[..., 2] * c[..., 1])
        - a[..., 1] * (b[..., 0] * c[..., 2] - b[..., 2] * c[..., 0])
        + a[..., 2] * (b[..., 0] * c[..., 1] - b[..., 1] * c[..., 0])
    )


def balance_vectors(jets):
    """Tangent, acceleration, forward and backward edge of curves 0..n.

    Takes a table of all curves -1..n+1 in the layout of `tabulate` and
    `grid_table`, (order, curve, ..., coord) with row i+1 holding curve i;
    orders above 2 are ignored.  Returns the four vectors the balance at
    curves 0..n reads, each with one row per curve 0..n.
    """
    p, d1, d2 = jets[:3]
    edge = p[1:] - p[:-1]  # edge[i + 1] = f_{i+1} - f_i
    return d1[1:-1], d2[1:-1], edge[1:], edge[:-1]


def gp_residual(a, b, c, d):
    """det(a,b)det(c,d) - det(a,c)det(b,d) + det(a,d)det(b,c).

    Identically zero for any four planar vectors; the returned value is the
    floating-point defect of that identity.
    """
    return det2(a, b) * det2(c, d) - det2(a, c) * det2(b, d) + det2(a, d) * det2(b, c)


@dataclass(frozen=True)
class RegularityReport:
    """Minima of the two independence determinants over all curves and nodes.

    forward refers to det2(tangent_i, edge_i) with edge_i = f_{i+1} - f_i;
    backward to det2(tangent_i, edge_{i-1}).  Normalized values divide by the
    product of the two vector norms, which makes `passed` scale-free.
    """

    min_forward: float
    argmin_forward: tuple
    min_backward: float
    argmin_backward: tuple
    min_forward_normalized: float
    min_backward_normalized: float
    passed: bool

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return (
            f"regularity {state}: min |det(tangent, forward edge)| = "
            f"{self.min_forward:.6e} at (i={self.argmin_forward[0]}, "
            f"t={self.argmin_forward[1]:.6g}), "
            f"min |det(tangent, backward edge)| = {self.min_backward:.6e} at "
            f"(i={self.argmin_backward[0]}, t={self.argmin_backward[1]:.6g})"
        )


def regularity_report(fw, grid=None) -> RegularityReport:
    """Scan curves 0..n on the grid for the two independence determinants.

    A determinant or norm product that overflows raises EvaluationError
    naming it, the curve and t.
    """
    grid = grid or fw.grid
    tangent, _, forward, backward = balance_vectors(fw.grid_table(grid))
    found = []
    for other, edge in ((forward, "forward edge"), (backward, "backward edge")):
        with np.errstate(over="ignore", invalid="ignore"):  # require_finite below reports it
            det, threshold, degenerate = basis_guard(tangent, other)
            norms = threshold / EPS_REG
        require_finite(det, f"det(tangent, {edge})", grid.t)
        require_finite(norms, f"|tangent| |{edge}|", grid.t)
        dets = np.abs(det)
        i, j = np.unravel_index(np.argmin(dets), dets.shape)
        normed = ratio(dets, norms)
        found.append(
            (float(dets[i, j]), (int(i), float(grid.t[j])), float(normed.min()), degenerate.any())
        )
    (fwd, fwd_at, fwd_normed, fwd_bad), (bwd, bwd_at, bwd_normed, bwd_bad) = found
    return RegularityReport(
        min_forward=fwd,
        argmin_forward=fwd_at,
        min_backward=bwd,
        argmin_backward=bwd_at,
        min_forward_normalized=fwd_normed,
        min_backward_normalized=bwd_normed,
        passed=not (fwd_bad or bwd_bad),
    )
