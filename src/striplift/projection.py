"""Projecting spatial conjugate surfaces back to stressed planar frameworks.

Dropping the height coordinate of a conjugate surface gives a planar
framework, and the heights induce closed-form stress functions on it.  The
developability of each strip (the defect `conjugacy_residual` reads too) is
the admission test: the induced stress is only meaningful when it holds.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import NotConjugateError, NotRegularError, StripLiftError
from .framework import AnalyticSurface3D, Framework
from .geomcore import det2, norm, regularity_report
from .lifting import SampledLifting, strip_defects
from .numerics import DEFAULT_TOL, Grid, ratio, read_only, require_basis, require_finite
from .statics import StressField


class ProjectedSurface:
    """A planar framework together with the surface that carries its heights.

    The checks below read `surface.grid_table(grid)`, row k of which holds
    curve z_indices[k]: exact jets of an analytic surface, or the
    stencil-differentiated heights of a sampled lifting on its own grid; the
    heights are its z column.  Height data may cover only part of the curve
    range; `z_indices` lists the covered curve indices.
    """

    def __init__(self, framework: Framework, surface):
        self.framework = framework
        self.surface = surface
        self.grid = framework.grid if isinstance(surface, AnalyticSurface3D) else surface.grid
        self.z_indices = list(surface.curve_indices)

    @cached_property
    def strip_defects(self) -> np.ndarray:
        """`strip_defects` of the surface on the projection grid, computed once, read-only."""
        return read_only(strip_defects(self.surface, self.grid))


def project(surface, grid: Grid | None = None) -> ProjectedSurface:
    """Split off the height coordinate; the planar part must be regular (NotRegularError
    carries the report).  A sampled lifting keeps its own grid: another grid raises ValueError."""
    if isinstance(surface, AnalyticSurface3D):
        fw = surface.planar(grid or surface.grid)
    elif isinstance(surface, SampledLifting):
        fw, grid = surface.framework, surface.own_grid(grid)
    else:
        raise TypeError(f"cannot project {type(surface).__name__}")
    report = regularity_report(fw, grid)
    if not report.passed:
        raise NotRegularError(report)
    return ProjectedSurface(fw, surface)


def developability_report(proj: ProjectedSurface):
    """Worst normalized strip defect over all data and its first location."""
    rows = np.abs(proj.strip_defects)
    k, j = np.unravel_index(np.argmax(rows), rows.shape)
    return float(rows[k, j]), (proj.z_indices[k], float(proj.grid.t[j]))


def _height_stress(proj: ProjectedSurface):
    """Stress rows the heights induce wherever their formulas have the data.

    Returns (lam, mu): lam rows for curves z_indices[1:-1] and mu rows for
    z_indices[:-1].  The bases (edge_i, tan_i) and (edge_{i-1}, tan_i) are
    checked curve by curve in that order; the first degenerate one raises
    DegenerateBasisError.  A non-finite row, or a denominator that overflows,
    raises EvaluationError naming the curve and t.
    """
    lo, grid = proj.z_indices[0], proj.grid
    table = proj.surface.grid_table(grid)
    p, d1, d2 = table[:3, ..., :2]
    z, z1, z2 = table[:3, ..., 2]
    edge = p[1:] - p[:-1]  # edge[k] = edge_{lo+k}
    tan, acc = d1[:-1], d2[:-1]
    # the first curve has no (edge_{i-1}, tan_i) basis: repeat its first pair
    edge_prev = np.concatenate([edge[:1], edge[:-1]])
    labels = [
        [f"det(edge_{i}, tan_{i})", f"det(edge_{i - 1}, tan_{i})"]
        for i in range(lo, lo + len(edge))
    ]
    with np.errstate(over="ignore", invalid="ignore"):  # require_finite below reports it
        dets = require_basis(np.stack([edge, edge_prev], 1), tan[:, None], labels, grid.t)
        b, c_bar = dets[:, 0], dets[1:, 1]
        g = det2(edge, acc)
        j = det2(tan, acc)
        b_sq = b**2
        mu = (g * z1[:-1] - b * z2[:-1] - j * (z[1:] - z[:-1])) / b_sq
        a = det2(edge[:-1], edge[1:])
        b, z_mid = b[1:], z[1:-1]
        b_c_bar = b * c_bar
        lam = a * z1[1:-1] / b_c_bar + (z_mid - z[:-2]) / c_bar - (z[2:] - z_mid) / b
    # a finite numerator over an overflowed denominator reads 0: check both
    require_finite(b_sq, "squared det(edge_i, tan_i)", grid.t, first=lo)
    require_finite(mu, "induced mu", grid.t, first=lo)
    require_finite(b_c_bar, "det(edge_i, tan_i) * det(edge_{i-1}, tan_i)", grid.t, first=lo + 1)
    return require_finite(lam, "induced lambda", grid.t, first=lo + 1), mu


def induced_stress(
    proj: ProjectedSurface, conjugacy_tol: float = DEFAULT_TOL
) -> StressField:
    """Closed-form stress functions induced by the heights.

    Requires height data on every curve -1..n+1 and a developability defect
    below conjugacy_tol at every node (NotConjugateError otherwise); small
    projection denominators raise DegenerateBasisError.
    """
    fw = proj.framework
    missing = [i for i in fw.curve_indices if i not in proj.z_indices]
    if missing:
        raise StripLiftError(
            f"induced stress needs heights on every curve; missing {missing} "
            "(surfaces sampled from liftings only support the interior diagnostic)"
        )
    worst, where = developability_report(proj)
    if not worst < conjugacy_tol:
        raise NotConjugateError(worst, conjugacy_tol, location=where)
    lam, mu = _height_stress(proj)
    return StressField(proj.grid, lam, mu)


def recovered_interior_stress(proj: ProjectedSurface) -> dict:
    """Diagnostic stress rows recoverable without boundary heights.

    For height data on curves 0..n this returns lam rows for 1..n-1 and mu
    rows for 0..n-1 as a mapping, without any self-stress claim.
    """
    lam, mu = _height_stress(proj)
    lo = proj.z_indices[0]
    return {
        "lambda": {lo + 1 + k: row for k, row in enumerate(lam)},
        "mu": {lo + k: row for k, row in enumerate(mu)},
    }


def plane_fit_distance(points: np.ndarray) -> float:
    """Largest distance from a point set to its least-squares plane,
    normalized by the set diameter."""
    pts = np.asarray(points, dtype=float)
    centered = pts - pts.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    normal = vt[-1]
    dist = np.abs(centered @ normal).max()
    diameter = 2.0 * norm(centered).max()
    return float(ratio(dist, diameter))


def boundary_planarity(surface: SampledLifting) -> tuple:
    """Normalized plane-fit distances of the first and last lifted curves."""
    points, _, _ = surface.grid_table()  # row i holds lifted curve i
    return plane_fit_distance(points[0]), plane_fit_distance(points[surface.n])
