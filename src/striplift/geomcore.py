"""Planar and spatial determinant algebra and non-degeneracy predicates.

All determinant helpers broadcast over leading axes, so they accept single
vectors of shape (2,) or (3,) as well as stacked arrays of shape (m, dim).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import EPS_REG, NORM_FLOOR, basis_guard


def det2(a, b):
    """Determinant of two planar vectors (z component of the cross product)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


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
    """Scan curves 0..n on the grid for the two independence determinants."""
    grid = grid or fw.grid
    table = fw.grid_table(grid)
    edge = table.p[1:] - table.p[:-1]  # edge[i + 1] = f_{i+1} - f_i
    tangent = table.d1[1:-1]
    found = []
    for other in (edge[1:], edge[:-1]):  # forward, then backward edges
        det, threshold, degenerate = basis_guard(tangent, other)
        dets = np.abs(det)
        i, j = np.unravel_index(np.argmin(dets), dets.shape)
        normed = dets / np.maximum(threshold / EPS_REG, NORM_FLOOR)
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


@dataclass(frozen=True)
class BracketSet:
    """The sixteen local determinants at one (curve, parameter) location.

    Field names spell out the two arguments of each 2x2 determinant:
    `edge` is the forward difference to the next curve, `edge_prev` the one
    arriving from the previous curve; `tan`/`acc` are the first/second
    derivatives of the current curve, with `_prev`/`_next` marking the
    neighboring curves.  So e.g. edge_prev_tan = det2(edge_prev, tan).
    """

    edge_prev_edge: float       # det2(edge_prev, edge)
    edge_tan: float             # det2(edge, tan)
    edge_prev_tan_prev: float   # det2(edge_prev, tan_prev)
    edge_tan_next: float        # det2(edge, tan_next)
    edge_prev_tan: float        # det2(edge_prev, tan)
    edge_tan_prev: float        # det2(edge, tan_prev)
    edge_prev_tan_next: float   # det2(edge_prev, tan_next)
    edge_acc: float             # det2(edge, acc)
    edge_prev_acc_prev: float   # det2(edge_prev, acc_prev)
    edge_prev_acc: float        # det2(edge_prev, acc)
    tan_tan_next: float         # det2(tan, tan_next)
    tan_prev_tan: float         # det2(tan_prev, tan)
    tan_acc: float              # det2(tan, acc)
    tan_prev_acc_prev: float    # det2(tan_prev, acc_prev)
    tan_prev_acc: float         # det2(tan_prev, acc)
    acc_prev_tan: float         # det2(acc_prev, tan)


def bracket_set(fw, i: int, t) -> BracketSet:
    """All sixteen determinants among the local derivative data at (i, t).

    Needs curves i-1, i and i+1; computed fresh from exact jets.  Accepts a
    scalar t (scalar fields) or an array (array-valued fields).
    """
    if not 0 <= i <= fw.n:
        raise IndexError(f"bracket set needs curves {i - 1}..{i + 1}, got i={i}")
    prev, cur, nxt = fw.jet(i - 1, t), fw.jet(i, t), fw.jet(i + 1, t)
    return brackets_from_jets(prev, cur, nxt)


def brackets_from_jets(prev, cur, nxt) -> BracketSet:
    """BracketSet from explicit jets of curves i-1, i, i+1."""
    edge = nxt.p - cur.p
    edge_prev = cur.p - prev.p
    return BracketSet(
        edge_prev_edge=det2(edge_prev, edge),
        edge_tan=det2(edge, cur.d1),
        edge_prev_tan_prev=det2(edge_prev, prev.d1),
        edge_tan_next=det2(edge, nxt.d1),
        edge_prev_tan=det2(edge_prev, cur.d1),
        edge_tan_prev=det2(edge, prev.d1),
        edge_prev_tan_next=det2(edge_prev, nxt.d1),
        edge_acc=det2(edge, cur.d2),
        edge_prev_acc_prev=det2(edge_prev, prev.d2),
        edge_prev_acc=det2(edge_prev, cur.d2),
        tan_tan_next=det2(cur.d1, nxt.d1),
        tan_prev_tan=det2(prev.d1, cur.d1),
        tan_acc=det2(cur.d1, cur.d2),
        tan_prev_acc_prev=det2(prev.d1, prev.d2),
        tan_prev_acc=det2(prev.d1, cur.d2),
        acc_prev_tan=det2(prev.d2, cur.d1),
    )
