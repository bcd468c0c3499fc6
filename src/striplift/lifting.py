"""Height functions over stressed frameworks and the surfaces they generate.

The height of a point (k, s) of the parameter domain is accumulated along an
increasing path: jumps from curve to curve contribute tension determinants,
the stretches along a curve contribute integrals of the ruling forces.  For a
self-stress the value does not depend on the path, and attaching it as a
third coordinate produces a surface whose strips are all developable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import NotSelfStressedError, SchemaError
from .framework import (
    CurveJet,
    Framework,
    document_numbers,
    document_rows,
    framework_from_doc,
    framework_to_doc,
    save_framework,
    _dump_json,
    parse_document,
)
from .geomcore import det2, det3
from .numerics import NORM_FLOOR, Grid, cumulative_samples, fd_derivative, integrate_samples
from .statics import StressField, residual_report

DEFAULT_SELF_STRESS_TOL = 1e-6


@dataclass(frozen=True)
class IncreasingPath:
    """A nondecreasing jump sequence from (0, 0) to (k, s).

    gamma has k+2 entries: the path runs along curve i for parameters in
    [gamma_i, gamma_{i+1}); an empty interval means the path jumps over that
    curve.
    """

    k: int
    s: float
    gamma: tuple

    def __post_init__(self):
        gamma = tuple(float(g) for g in self.gamma)
        if len(gamma) != self.k + 2:
            raise ValueError(f"path to curve {self.k} needs {self.k + 2} nodes, got {len(gamma)}")
        if gamma[0] != 0.0:
            raise ValueError("paths start at parameter 0")
        if abs(gamma[-1] - self.s) > 1e-12 * max(abs(self.s), 1.0):
            raise ValueError(f"path ends at {gamma[-1]}, target parameter is {self.s}")
        if any(a > b + 1e-15 for a, b in zip(gamma, gamma[1:])):
            raise ValueError("path parameters must be nondecreasing")
        object.__setattr__(self, "gamma", gamma)


def lpath(k: int, s: float) -> IncreasingPath:
    """The axis path that jumps over all lower curves at parameter 0."""
    return IncreasingPath(k, s, (0.0,) * (k + 1) + (s,))


def random_paths(k: int, s: float, grid: Grid, count: int, seed: int = 0):
    """Seeded random increasing paths to (k, s) with grid-aligned jumps."""
    rng = np.random.default_rng(seed)
    js = grid.node_index(s)
    paths = []
    for _ in range(count):
        jumps = np.sort(rng.integers(0, js + 1, size=k))
        gamma = (0.0,) + tuple(grid.t[j] for j in jumps) + (s,)
        paths.append(IncreasingPath(k, s, gamma))
    return paths


def height(fw: Framework, stress: StressField, p, path: IncreasingPath) -> float:
    """Accumulated height of the framework point p = (k, s) along the path.

    Path nodes and s must coincide with grid nodes; the curve integrals use
    the fourth-order node rules, so nothing is interpolated.
    """
    k, s = p
    if path.k != k or abs(path.s - s) > 1e-12 * max(abs(s), 1.0):
        raise ValueError(f"path targets ({path.k}, {path.s}), point is ({k}, {s})")
    if not 0 <= k <= fw.n:
        raise IndexError(f"target curve {k} outside 0..{fw.n}")
    grid = stress.grid
    idx = [grid.node_index(g) for g in path.gamma]
    target = fw.jet(k, grid.t[idx[-1]]).p
    total = 0.0
    for i in range(k):
        tj = grid.t[idx[i + 1]]
        jet = fw.jet(i, tj)
        total += stress.lam_at(i)[idx[i + 1]] * det2(jet.d1, target - jet.p)
    for i in range(k + 1):
        j0, j1 = idx[i], idx[i + 1]
        if j1 > j0:
            prev = fw.grid_jets(i - 1, grid)
            edge = fw.grid_jets(i, grid).p - prev.p
            integrand = stress.mu_at(i - 1) * det2(edge, target[None, :] - prev.p)
            total -= integrate_samples(integrand, grid.h, j0, j1)
    return float(total)


def path_independence_spread(fw: Framework, stress: StressField, p, paths) -> float:
    """Largest pairwise height difference among paths to the same point."""
    if len(paths) < 2:
        raise ValueError("need at least two paths to measure a spread")
    values = [height(fw, stress, p, path) for path in paths]
    return float(max(values) - min(values))


def _jump_sums(weights, base, tangent, target) -> np.ndarray:
    """Running sums of the jump terms weights[i] * det2(tangent[i], target - base[i]).

    base and tangent hold one point per jump i; target is (curves, N+1, 2).
    Entry m is the sum over jumps i < m, added in order from zero, so it has
    shape (len(weights)+1, curves, N+1).
    """
    terms = weights[:, None, None] * det2(tangent[:, None, None], target - base[:, None, None])
    return np.cumsum(np.concatenate([np.zeros((1,) + target.shape[:-1]), terms]), axis=0)


def _height_profiles(fw: Framework, stress: StressField) -> np.ndarray:
    """Axis-path heights of curves 0..n at every grid node, shape (n+1, N+1).

    The axis path to (k, t) jumps over curves 0..k-1 at parameter 0, then runs
    along curve k.  Splitting the integrand's target-dependent determinant by
    bilinearity turns the per-node integrals into three cumulative
    quadratures, so every profile matches `height` along `lpath` node for
    node without a quadrature per node.
    """
    grid = stress.grid
    table = fw.grid_table(grid)
    prev, target = table.p[:-2], table.p[1:-1]  # curves k-1 and k, k = 0..n
    edge = target - prev
    mu = stress.mu[:-1]  # mu_{k-1}
    px, py, q = cumulative_samples(
        np.stack([mu * edge[..., 0], mu * edge[..., 1], mu * det2(edge, prev)]), grid.h
    )
    k = np.arange(fw.n + 1)
    z = _jump_sums(stress.lam[:-1, 0], table.p[1:-2, 0], table.d1[1:-2, 0], target)[k, k]
    return z - (px * target[..., 1] - py * target[..., 0] - q)


def height_scale(fw: Framework, stress: StressField) -> float:
    """max |height| over all curves and nodes, floored away from zero."""
    peak = float(np.abs(_height_profiles(fw, stress)).max())
    return max(peak, NORM_FLOOR)


class SampledLifting:
    """A lifted surface: the source framework plus height samples per curve.

    Covers curves 0..n of the source framework; the height derivatives come
    from the same fourth-order stencils used everywhere else.
    """

    def __init__(self, framework: Framework, z: np.ndarray, grid: Grid, path_dependent=False):
        z = np.asarray(z, dtype=float)
        if z.shape != (framework.n + 1, grid.N + 1):
            raise ValueError(f"height samples must have shape (n+1, N+1), got {z.shape}")
        self.framework = framework
        self.z = z
        self.grid = grid
        self.T = framework.T
        self.n = framework.n
        self.path_dependent = bool(path_dependent)
        self.z_d1 = fd_derivative(z, grid.h)
        self.z_d2 = fd_derivative(self.z_d1, grid.h)
        self.z_d3 = fd_derivative(self.z_d2, grid.h)
        self._table = None

    @property
    def curve_indices(self):
        return range(0, self.n + 1)

    def grid_table(self, grid: Grid | None = None) -> CurveJet:
        """Spatial jets of lifted curves 0..n at the grid nodes.

        Each field has shape (n+1, N+1, 3); row i holds curve i.  Built once.
        """
        if grid is not None and (grid.N != self.grid.N or grid.T != self.grid.T):
            raise ValueError("sampled liftings only know their own grid")
        if self._table is None:
            flat = self.framework.grid_table(self.grid)
            heights = (self.z, self.z_d1, self.z_d2, self.z_d3)
            self._table = CurveJet(
                *(np.concatenate([xy[1:-1], w[..., None]], axis=-1) for xy, w in zip(flat, heights))
            )
        return self._table


def build_lifting(
    fw: Framework,
    stress: StressField,
    tol: float = DEFAULT_SELF_STRESS_TOL,
    force: bool = False,
) -> SampledLifting:
    """Attach path-independent heights to a self-stressed framework.

    Refuses a stress whose normalized equilibrium residual exceeds tol
    (NotSelfStressedError carries the report).  With force=True the surface
    is built anyway from the axis-path heights and labeled path-dependent.
    """
    report = residual_report(fw, stress)
    path_dependent = False
    if report.max_normalized >= tol:
        if not force:
            raise NotSelfStressedError(report, tol)
        path_dependent = True
    z = _height_profiles(fw, stress)
    return SampledLifting(fw, z, stress.grid, path_dependent=path_dependent)


def strip_defects(surface, grid: Grid | None = None) -> np.ndarray:
    """Signed normalized developability defect of every strip at every node.

    Works on analytic surfaces and on sampled liftings.  Row k is the strip
    between rows k and k+1 of the surface's grid table: the spatial
    determinant of its ruling vector and the two curve tangents, divided by
    the product of their norms (floored).
    """
    table = surface.grid_table(grid or surface.grid)
    ruling = table.p[1:] - table.p[:-1]
    a1, b1 = table.d1[:-1], table.d1[1:]
    norm = lambda v: np.linalg.norm(v, axis=-1)
    return det3(ruling, a1, b1) / (norm(ruling) * norm(a1) * norm(b1) + NORM_FLOOR)


def conjugacy_residual(surface, grid: Grid | None = None) -> float:
    """Worst normalized developability defect over all strips and nodes."""
    if len(surface.curve_indices) < 2:
        raise ValueError("conjugacy needs at least two curves")
    return float(np.abs(strip_defects(surface, grid)).max())


def reversed_framework(fw: Framework) -> Framework:
    """The framework traversed in reversed curve order."""
    curves = [fw.curve(i) for i in reversed(list(fw.curve_indices))]
    return Framework(fw.T, fw.n, curves, fw.grid)


def reversed_stress(stress: StressField) -> StressField:
    """The stress matching the reversed framework (rows flipped and negated)."""
    return StressField(stress.grid, -stress.lam[::-1].copy(), -stress.mu[::-1].copy())


def reversal_affine_defect(
    fw: Framework, stress: StressField, tol: float = DEFAULT_SELF_STRESS_TOL
) -> float:
    """Defect of the reversal identity between the two liftings.

    Reversing curve order and negating the stress lifts to the same surface
    up to an affine height; this evaluates both height profiles and the
    affine term at every node and returns the largest absolute mismatch.
    """
    report = residual_report(fw, stress)
    if report.max_normalized >= tol:
        raise NotSelfStressedError(report, tol)
    z_fwd = _height_profiles(fw, stress)
    z_rev = _height_profiles(reversed_framework(fw), reversed_stress(stress))[::-1]
    table = fw.grid_table(stress.grid)
    curves = table.p[1:-1]
    affine = _jump_sums(stress.lam[:, 0], curves[:, 0], table.d1[1:-1, 0], curves)[-1]
    return float(np.abs(z_fwd - z_rev - affine).max())


# ---------------------------------------------------------------------------
# export


def _source_hash(surface) -> str:
    if isinstance(surface, SampledLifting):
        text = save_framework(surface.framework)
    else:
        text = save_framework(surface)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def export_obj(surface, reproducible: bool = False) -> str:
    """Wavefront OBJ text for a lifted or analytic surface on its grid.

    One vertex per (curve, node), quad faces per strip cell.  The header
    carries the source hash and grid size; the timestamp line is left out
    when reproducible is set.
    """
    grid = surface.grid
    rows = len(surface.curve_indices)
    lines = [
        "# lifted semi-discrete surface",
        f"# source: {_source_hash(surface)}",
        f"# grid: curves={rows} nodes={grid.N + 1} T={grid.T!r}",
    ]
    if getattr(surface, "path_dependent", False):
        lines.append("# warning: path-dependent heights (stress failed the residual gate)")
    if not reproducible:
        lines.append(f"# generated: {datetime.now(timezone.utc).isoformat()}")
    for p in surface.grid_table(grid).p.reshape(-1, 3):
        lines.append("v " + " ".join(format(x, ".17g") for x in p))
    for r in range(rows - 1):
        for j in range(grid.N):
            a = r * (grid.N + 1) + j + 1
            b = (r + 1) * (grid.N + 1) + j + 1
            lines.append(f"f {a} {b} {b + 1} {a + 1}")
    return "\n".join(lines) + "\n"


def save_lifting(surface: SampledLifting) -> str:
    """JSON dump: the full source framework plus the height sample rows."""
    doc = {
        "kind": "lifted_surface",
        "T": surface.T,
        "n": surface.n,
        "N": surface.grid.N,
        "path_dependent": surface.path_dependent,
        "source": _source_hash(surface),
        "framework": framework_to_doc(surface.framework),
        "z": surface.z,
    }
    return _dump_json(doc)


def load_lifting(text: str) -> SampledLifting:
    doc = parse_document(text)
    if not isinstance(doc, dict) or doc.get("kind") != "lifted_surface":
        raise SchemaError("not a lifted-surface document", field="kind")
    for key in ("T", "n", "N", "framework", "z"):
        if key not in doc:
            raise SchemaError(f"missing key {key!r}", field=key)
    T, _, N = document_numbers(doc, "T", "n", "N")
    fw = framework_from_doc(doc["framework"])
    if not isinstance(fw, Framework):
        raise SchemaError("embedded framework must be planar", field="framework")
    grid = Grid(float(T), N)
    z = document_rows(doc, "z")
    try:
        return SampledLifting(fw, z, grid, path_dependent=bool(doc.get("path_dependent", False)))
    except ValueError as exc:
        raise SchemaError(str(exc), field="z") from None
