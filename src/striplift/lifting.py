"""Height functions over stressed frameworks and the surfaces they generate.

The height of a point (k, s) of the parameter domain is accumulated along an
increasing path: jumps from curve to curve contribute tension determinants,
the stretches along a curve contribute integrals of the ruling forces.  For a
self-stress the value does not depend on the path, and attaching it as a
third coordinate produces a surface whose strips are all developable.

Every height term is an affine form of the target point P, a P_y - b P_x - c,
stored as its three coefficients: the jump off a curve at a node (`_jump_forms`)
and the prefix integral of the run along a curve (`_run_forms`), so a run is a
difference of two forms.  A height sums forms, then evaluates the sum at P
once.  `height` reads the axis-path profiles of the lifting, and
`path_independence_spread` is the exact spread over every increasing path to
(n, T), two prefix max/min recursions over the same forms, both O(n N).
"""

from __future__ import annotations

import hashlib
from datetime import datetime, timezone

import numpy as np

from .errors import NotSelfStressedError, SchemaError
from .framework import (
    CurveJet,
    Framework,
    document_numbers,
    document_rows,
    document_values,
    format_rows,
    framework_from_doc,
    framework_to_doc,
    save_framework,
    _dump_json,
    _quoted,
    _require_span,
    parse_document,
)
from .geomcore import det2, det3, norm
from .numerics import (
    DEFAULT_TOL, Grid, cumulative_samples, fd_derivative, ratio, read_only, require_finite,
)
from .statics import StressField, _check_compatible, residual_report


def _run_forms(table: CurveJet, stress: StressField):
    """The forms of C_i(j), (3, n+1, N+1): the integral over nodes [0, j] of the run along
    curve i, mu_{i-1} det2(f_i - f_{i-1}, P - f_{i-1}).  A run over [j0, j1] is C_i(j1) - C_i(j0)."""
    prev, cur, mu = table.p[:-2], table.p[1:-1], stress.mu[:-1]  # curves i-1 and i, mu_{i-1}
    edge = cur - prev
    return cumulative_samples(
        np.stack([mu * edge[..., 0], mu * edge[..., 1], mu * det2(edge, prev)]), stress.grid.h
    )


def _jump_forms(table: CurveJet, stress: StressField, at):
    """The jumps lam_i det2(f_i', P - f_i) as forms, at `at`, an index of (curve 0..n, node)."""
    lam, d1, p = stress.lam[at], table.d1[1:-1][at], table.p[1:-1][at]
    return np.stack([lam * d1[..., 0], lam * d1[..., 1], lam * det2(d1, p)])


def _at(form, P):
    """Affine forms (a, b, c) along the first axis, a P_y - b P_x - c at the points P (..., 2)."""
    return form[0] * P[..., 1] - form[1] * P[..., 0] - form[2]


def _profile_parts(fw: Framework, stress: StressField):
    """The grid table, the run forms of curves 0..n, the jump sums at node 0,
    shape (3, n+2), and the axis-path heights z at every grid node, shape (n+1, N+1).

    The axis path to (k, t_j) jumps over curves 0..k-1 at node 0, then runs
    along curve k: its form is sums[:, k] - C_k(j), where column k of the
    running sum sums the jumps off curves below k and column n+1 every jump.
    A stress of another framework raises ValueError (`_check_compatible`).
    """
    _check_compatible(fw, stress)
    grid = stress.grid
    table = fw.grid_table(grid)
    with np.errstate(over="ignore", invalid="ignore"):  # require_finite below reports it
        runs = _run_forms(table, stress)
        jumps = _jump_forms(table, stress, np.s_[:, 0])  # off every curve at node 0
        sums = np.cumsum(np.concatenate([np.zeros((3, 1)), jumps], axis=1), axis=1)
        z = require_finite(_at(sums[:, :-1, None] - runs, table.p[1:-1]), "height", grid.t)
    return table, runs, sums, z


def _height_profiles(fw: Framework, stress: StressField) -> np.ndarray:
    """Axis-path heights of curves 0..n at every grid node, shape (n+1, N+1)."""
    return _profile_parts(fw, stress)[3]


def height(fw: Framework, stress: StressField, p) -> float:
    """Axis-path height of p = (k, s), s a grid node: row k of the profiles at s."""
    k, s = p
    if not 0 <= k <= fw.n:  # a negative row would wrap
        raise IndexError(f"target curve {k} outside 0..{fw.n}")
    return float(_height_profiles(fw, stress)[k, stress.grid.node_index(s)])


def height_scale(fw: Framework, stress: StressField) -> float:
    """max |height| over all curves and nodes; 0 for the zero stress."""
    return float(np.abs(_height_profiles(fw, stress)).max())


def path_independence_spread(fw: Framework, stress: StressField):
    """(spread, H, spread_paths): the height spread over every increasing path
    to P = (n, T), `height_scale`, and the jump nodes of a highest and a lowest
    path, {"max": .., "min": ..}.

    With C_i the prefix integral towards P, a path jumping off curve i at node j_i has height
    sum_{i<n} g_i(j_i) - C_n(N), g_i = jump_i - C_i + C_{i+1} (one form per curve and node,
    evaluated at P); its extremes over j_0 <= ... <= j_{n-1} are prefix max/min recursions, O(n N).
    """
    table, runs, _, z = _profile_parts(fw, stress)
    n = fw.n
    with np.errstate(over="ignore", invalid="ignore"):  # require_finite below reports it
        jumps = _jump_forms(table, stress, np.s_[:n])  # off curves 0..n-1 at every node
        g = _at(jumps - runs[:, :n] + runs[:, 1:], table.p[n + 1, -1])
        hi, lo = [np.zeros(stress.grid.N + 1)], [np.zeros(stress.grid.N + 1)]  # no jump yet
        for row in g:  # row i: the best path whose last jump, off curve i, is at node j
            hi.append(row + np.maximum.accumulate(hi[-1]))
            lo.append(row + np.minimum.accumulate(lo[-1]))
        spread = float(hi[-1].max() - lo[-1].min())
    require_finite([[spread]], "height spread", [fw.T], first=n)
    paths = {}
    for key, rows, pick in (("max", hi, np.argmax), ("min", lo, np.argmin)):
        nodes = [stress.grid.N]
        for row in rows[:0:-1]:  # back from the last jump: each jump is at or before the next
            nodes.append(int(pick(row[: nodes[-1] + 1])))
        paths[key] = nodes[:0:-1]
    return spread, float(np.abs(z).max()), paths


class SampledLifting:
    """A lifted surface: the source framework plus height samples per curve.

    Covers curves 0..n of the source framework; the height derivatives come
    from the same fourth-order stencils used everywhere else.  z, z_d1 and
    z_d2 are finite and read-only; a grid over another interval is refused.
    """

    def __init__(self, framework: Framework, z: np.ndarray, grid: Grid, path_dependent=False):
        z = np.asarray(z, dtype=float)
        if z.shape != (framework.n + 1, grid.N + 1):
            raise ValueError(f"height samples must have shape (n+1, N+1), got {z.shape}")
        _require_span(grid, framework.T)
        self.framework = framework
        self.z = read_only(require_finite(z, "height", grid.t))
        self.grid = grid
        self.T = framework.T
        self.n = framework.n
        self.path_dependent = bool(path_dependent)
        with np.errstate(over="ignore", invalid="ignore"):  # require_finite below reports it
            z_d1 = fd_derivative(z, grid.h)
            self.z_d1, self.z_d2 = read_only(z_d1), read_only(fd_derivative(z_d1, grid.h))
        require_finite(np.stack([self.z_d1, self.z_d2], -1), "height derivative", grid.t)
        self._table = None

    @property
    def curve_indices(self):
        return range(0, self.n + 1)

    def own_grid(self, grid: Grid | None) -> Grid:
        """The lifting's grid, for None or that grid; any other grid raises ValueError."""
        if grid is not None and (grid.N != self.grid.N or grid.T != self.grid.T):
            raise ValueError("sampled liftings only know their own grid")
        return self.grid

    def grid_table(self, grid: Grid | None = None) -> CurveJet:
        """Spatial jets of lifted curves 0..n at the grid nodes.

        p, d1 and d2 have shape (n+1, N+1, 3), row i holding curve i; d3 is
        None, as nothing reads a third height derivative.  Built once, read-only.
        """
        self.own_grid(grid)
        if self._table is None:
            flat = self.framework.grid_table(self.grid)
            heights = (self.z, self.z_d1, self.z_d2)
            self._table = CurveJet(*(read_only(np.concatenate([xy[1:-1], w[..., None]], axis=-1))
                                     for xy, w in zip(flat, heights)), d3=None)
        return self._table


def build_lifting(
    fw: Framework,
    stress: StressField,
    tol: float = DEFAULT_TOL,
    force: bool = False,
) -> SampledLifting:
    """Attach path-independent heights to a self-stressed framework.

    Refuses a stress whose normalized equilibrium residual exceeds tol
    (NotSelfStressedError carries the report).  With force=True the surface
    is built anyway from the axis-path heights and labeled path-dependent.
    """
    return _gated_lifting(fw, stress, residual_report(fw, stress), tol, force)


def _gated_lifting(fw: Framework, stress: StressField, report, tol: float,
                   force: bool = False) -> SampledLifting:
    """build_lifting behind a residual report the caller has computed."""
    path_dependent = False
    if not report.max_normalized < tol:  # fails closed
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
    the product of their norms, which bounds it (0/0 reads 0).  A surface
    of one curve has no strip and raises ValueError, a non-finite defect EvaluationError.
    """
    if len(surface.curve_indices) < 2:
        raise ValueError("strip defects need at least two curves")
    table = surface.grid_table(grid or surface.grid)
    a1, b1 = table.d1[:-1], table.d1[1:]
    with np.errstate(over="ignore", invalid="ignore"):  # require_finite below reports it
        ruling = table.p[1:] - table.p[:-1]
        defects = ratio(det3(ruling, a1, b1), norm(ruling) * norm(a1) * norm(b1))
    return require_finite(defects, "strip defect", (grid or surface.grid).t, surface.curve_indices[0])


def conjugacy_residual(surface) -> float:
    """Worst normalized developability defect over all strips and nodes."""
    return float(np.abs(strip_defects(surface)).max())


def reversed_framework(fw: Framework) -> Framework:
    """The framework traversed in reversed curve order."""
    curves = [fw.curve(i) for i in reversed(list(fw.curve_indices))]
    return Framework(fw.T, fw.n, curves, fw.grid)


def reversed_stress(stress: StressField) -> StressField:
    """The stress matching the reversed framework (rows flipped and negated)."""
    return StressField(stress.grid, -stress.lam[::-1].copy(), -stress.mu[::-1].copy())


def reversal_affine_defect(
    fw: Framework, stress: StressField, tol: float = DEFAULT_TOL
) -> float:
    """Defect of the reversal identity between the two liftings.

    Reversing curve order and negating the stress lifts to the same surface
    up to an affine height; this evaluates both height profiles and the
    affine term at every node and returns the largest absolute mismatch.
    """
    report = residual_report(fw, stress)
    if not report.max_normalized < tol:  # fails closed
        raise NotSelfStressedError(report, tol)
    table, _, sums, z_fwd = _profile_parts(fw, stress)
    z_rev = _height_profiles(reversed_framework(fw), reversed_stress(stress))[::-1]
    return float(np.abs(z_fwd - z_rev - _at(sums[:, -1], table.p[1:-1])).max())


# ---------------------------------------------------------------------------
# export


def _source_hash(surface: SampledLifting) -> str:
    return hashlib.sha256(save_framework(surface.framework).encode()).hexdigest()[:12]


def export_obj(surface: SampledLifting, reproducible: bool = False) -> str:
    """Wavefront OBJ text for a lifted surface on its grid.

    One vertex per (curve, node) and quad faces per strip cell.  The header
    carries the source hash and grid size; the timestamp line is left out
    when reproducible is set.
    """
    N, rows = surface.grid.N, len(surface.curve_indices)
    lines = [
        "# lifted semi-discrete surface",
        f"# source: {_source_hash(surface)}",
        f"# grid: curves={rows} nodes={N + 1} T={surface.grid.T!r}",
    ]
    if surface.path_dependent:
        lines.append("# warning: path-dependent heights (stress failed the residual gate)")
    if not reproducible:
        lines.append(f"# generated: {datetime.now(timezone.utc).isoformat()}")
    a = np.arange(rows - 1)[:, None] * (N + 1) + np.arange(1, N + 1)
    quads = np.stack([a, a + N + 1, a + N + 2, a + 1], axis=-1)
    return "".join([*(line + "\n" for line in lines),
                    format_rows(surface.grid_table().p, "v ", " "),
                    format_rows(quads, "f ", " ")])


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
    return lifting_from_doc(parse_document(text))


def lifting_from_doc(doc) -> SampledLifting:
    """Build a SampledLifting from a parsed lifting-dump document object."""
    if not isinstance(doc, dict) or doc.get("kind") != "lifted_surface":
        raise SchemaError("not a lifted-surface document", field="kind")
    document_values(doc, "T", "n", "N", "framework", "z")
    T, n, N = document_numbers(doc, "T", "n", "N")
    if not isinstance(doc["framework"], dict):
        raise SchemaError("must be an object", field="framework")
    try:
        fw = framework_from_doc(doc["framework"])
    except SchemaError as exc:  # name the field within the dump
        raise SchemaError(exc.message, field=f"framework.{exc.field}") from None
    if not isinstance(fw, Framework):
        raise SchemaError("embedded framework must be planar", field="framework")
    for key, value, own in (("T", T, fw.T), ("n", n, fw.n)):
        if value != own:
            raise SchemaError(
                f"{_quoted(value)} differs from the embedded framework's {_quoted(own)}", field=key
            )
    path_dependent = doc.get("path_dependent", False)
    if not isinstance(path_dependent, bool):
        raise SchemaError(f"must be true or false, got {_quoted(path_dependent)}",
                          field="path_dependent")
    z = document_rows(doc, "z", n + 1, N)
    return SampledLifting(fw, z, Grid(float(T), N), path_dependent=path_dependent)
