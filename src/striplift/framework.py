"""Analytic curve families, the planar framework container, and file I/O.

Curves are stored as coefficient tables (polynomial part up to degree 8 plus
up to 16 sine terms per coordinate), so positions and the first three
derivatives are exact closed forms.  A framework holds n+3 curves indexed
-1 .. n+1 over a shared parameter interval [0, T]: the two extra boundary
curves only prescribe directions for boundary forces.

Document format (JSON):

    {
      "dimension": 2,             # or 3
      "T": 6.283185307179586,
      "n": 1,
      "curves": [
        {"index": -1,
         "x": {"poly": [a0, a1, ...], "trig": [{"amp": ..., "freq": ..., "phase": ...}]},
         "y": {...}},              # plus "z" when dimension is 3
        ...
      ]
    }

Indices must run -1 .. n+1 without gaps; all numbers must be finite.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, SchemaError
from .numerics import DEFAULT_PANELS, Grid

MAX_POLY_DEGREE = 8
MAX_TRIG_TERMS = 16

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class CoordFunction:
    """One scalar coordinate: polynomial plus sine terms, exactly differentiable.

    value(t) = sum_k poly[k] * t**k + sum_m amp_m * sin(freq_m * t + phase_m)
    """

    poly: tuple = (0.0,)
    trig: tuple = ()  # rows (amp, freq, phase)

    def __post_init__(self):
        poly = tuple(float(c) for c in self.poly) or (0.0,)
        trig = tuple((float(a), float(f), float(p)) for a, f, p in self.trig)
        if len(poly) > MAX_POLY_DEGREE + 1:
            raise ValueError(f"polynomial degree above {MAX_POLY_DEGREE}")
        if len(trig) > MAX_TRIG_TERMS:
            raise ValueError(f"more than {MAX_TRIG_TERMS} trigonometric terms")
        flat = poly + tuple(x for row in trig for x in row)
        if not all(math.isfinite(x) for x in flat):
            raise ValueError("coefficient table contains non-finite entries")
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "trig", trig)

    def derivatives(self, t, order: int = 3):
        """Values of the function and its first `order` derivatives at t.

        t may be a scalar or an ndarray; returns a list of arrays (or floats)
        of length order+1.
        """
        t = np.asarray(t, dtype=float)
        out = []
        coeffs = np.array(self.poly)
        with np.errstate(over="ignore"):  # a huge freq**k becomes inf, not an error
            for k in range(order + 1):
                val = _polyval(coeffs, t) if coeffs.size else np.zeros_like(t)
                for amp, freq, phase in self.trig:
                    val = val + amp * np.float64(freq) ** k * np.sin(freq * t + phase + k * _HALF_PI)
                out.append(val if val.ndim else float(val))
                coeffs = coeffs[1:] * np.arange(1, coeffs.size) if coeffs.size > 1 else np.zeros(0)
        return out

    def value(self, t):
        return self.derivatives(t, order=0)[0]


def _polyval(coeffs: np.ndarray, t: np.ndarray):
    acc = np.zeros_like(t)
    for c in coeffs[::-1]:
        acc = acc * t + c
    return acc


def combine(cf1: CoordFunction, s1: float, cf2: CoordFunction, s2: float) -> CoordFunction:
    """Coefficient-level linear combination s1*cf1 + s2*cf2."""
    n = max(len(cf1.poly), len(cf2.poly))
    p1 = cf1.poly + (0.0,) * (n - len(cf1.poly))
    p2 = cf2.poly + (0.0,) * (n - len(cf2.poly))
    poly = tuple(s1 * a + s2 * b for a, b in zip(p1, p2))
    trig = tuple((s1 * a, f, p) for a, f, p in cf1.trig if s1 * a != 0.0) + tuple(
        (s2 * a, f, p) for a, f, p in cf2.trig if s2 * a != 0.0
    )
    return CoordFunction(poly, trig)


def shifted(cf: CoordFunction, c: float) -> CoordFunction:
    """cf plus the constant c."""
    return CoordFunction((cf.poly[0] + c,) + cf.poly[1:], cf.trig)


def reparametrized(cf: CoordFunction, c: float) -> CoordFunction:
    """The coefficient table of t -> cf(c * t)."""
    poly = tuple(a * c**k for k, a in enumerate(cf.poly))
    trig = tuple((a, f * c, p) for a, f, p in cf.trig)
    return CoordFunction(poly, trig)


@dataclass(frozen=True)
class CurveJet:
    """Position and first three exact derivatives at one parameter value.

    Each field has shape (dim,) for scalar t or (len(t), dim) for array t.
    """

    p: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray

    def __iter__(self):
        return iter((self.p, self.d1, self.d2, self.d3))


@dataclass(frozen=True)
class AnalyticCurve:
    """A planar or spatial curve given per coordinate by coefficient tables."""

    coords: tuple  # 2 or 3 CoordFunction entries

    def __post_init__(self):
        coords = tuple(self.coords)
        if len(coords) not in (2, 3):
            raise ValueError("curves must have 2 or 3 coordinates")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def jet(self, t) -> CurveJet:
        per_coord = [c.derivatives(t, order=3) for c in self.coords]
        stacked = [np.stack([pc[k] for pc in per_coord], axis=-1) for k in range(4)]
        return CurveJet(*stacked)


class _IndexedCurves:
    """Shared container behavior: curves indexed -1 .. n+1 on [0, T]."""

    def __init__(self, T: float, n: int, curves, grid: Grid | None = None):
        if n < 0:
            raise ValueError("strip-count index n must be >= 0")
        curves = tuple(curves)
        if len(curves) != n + 3:
            raise ValueError(
                f"expected {n + 3} curves for n={n} (indices -1..{n + 1}), got {len(curves)}"
            )
        self.T = float(T)
        self.n = int(n)
        self._curves = curves
        self.grid = grid if grid is not None else Grid(self.T, DEFAULT_PANELS)
        self._tables = {}

    @property
    def curve_indices(self):
        return range(-1, self.n + 2)

    def curve(self, i: int) -> AnalyticCurve:
        if not -1 <= i <= self.n + 1:
            raise IndexError(f"curve index {i} outside -1..{self.n + 1}")
        return self._curves[i + 1]

    def jet(self, i: int, t) -> CurveJet:
        self._check_param(t)
        return self.curve(i).jet(t)

    def tabulate(self, times, order: int = 3) -> np.ndarray:
        """Values and first `order` derivatives of every curve at every time.

        Shape (order+1, n+3, len(times), dim): derivative order, curve (row
        i+1 holds curve i), time, coordinate.  Raises EvaluationError at the
        first curve and time where an entry is not finite.
        """
        times = np.asarray(times, dtype=float)
        table = np.empty((order + 1, self.n + 3, times.size, self._curves[0].dim))
        for row, curve in enumerate(self._curves):
            for c, coord in enumerate(curve.coords):
                table[:, row, :, c] = coord.derivatives(times, order)
        bad = ~np.isfinite(table).all(axis=(0, 3))
        if bad.any():
            row, j = np.argwhere(bad)[0]
            raise EvaluationError(f"jet of curve {row - 1} is not finite", t=float(times[j]))
        return table

    def grid_table(self, grid: Grid | None = None) -> CurveJet:
        """Jets of every curve at the grid nodes, cached per grid.

        Each field has shape (n+3, N+1, dim); row i+1 holds curve i.
        """
        grid = grid or self.grid
        key = (grid.N, grid.T)
        if key not in self._tables:
            self._tables[key] = CurveJet(*self.tabulate(grid.t))
        return self._tables[key]

    def grid_jets(self, i: int, grid: Grid | None = None) -> CurveJet:
        """Jets of curve i at all grid nodes: row i+1 of grid_table."""
        self.curve(i)
        return CurveJet(*(field[i + 1] for field in self.grid_table(grid)))

    def delta(self, i: int, t):
        """Forward difference f_{i+1}(t) - f_i(t)."""
        if i > self.n:
            raise IndexError(f"delta needs curve {i + 1}, curves end at {self.n + 1}")
        return self.jet(i + 1, t).p - self.jet(i, t).p

    def _check_param(self, t):
        t = np.asarray(t)
        if np.any(t < -1e-12) or np.any(t > self.T + 1e-12):
            raise ValueError(f"parameter outside [0, {self.T}]")


class Framework(_IndexedCurves):
    """A planar semi-discrete framework: curves f_{-1} .. f_{n+1} on [0, T]."""

    def __init__(self, T, n, curves, grid=None):
        super().__init__(T, n, curves, grid)
        if any(c.dim != 2 for c in self._curves):
            raise ValueError("framework curves must be planar")


class AnalyticSurface3D(_IndexedCurves):
    """A spatial semi-discrete surface with the same index layout as a framework."""

    def __init__(self, T, n, curves, grid=None):
        super().__init__(T, n, curves, grid)
        if any(c.dim != 3 for c in self._curves):
            raise ValueError("surface curves must have 3 coordinates")


# ---------------------------------------------------------------------------
# document I/O


def _coord_to_doc(cf: CoordFunction) -> dict:
    return {
        "poly": list(cf.poly),
        "trig": [{"amp": a, "freq": f, "phase": p} for a, f, p in cf.trig],
    }


def _coord_from_doc(doc, where: str) -> CoordFunction:
    if not isinstance(doc, dict):
        raise SchemaError("coordinate entry must be an object", field=where)
    poly = doc.get("poly", [0.0])
    trig = doc.get("trig", [])
    if not isinstance(poly, list) or not _numbers(poly):
        raise SchemaError("poly must be a list of numbers", field=f"{where}.poly")
    if not isinstance(trig, list):
        raise SchemaError("trig must be a list", field=f"{where}.trig")
    rows = []
    for m, term in enumerate(trig):
        if not isinstance(term, dict):
            raise SchemaError("trig term must be an object", field=f"{where}.trig[{m}]")
        try:
            rows.append((term["amp"], term["freq"], term["phase"]))
        except KeyError as exc:
            raise SchemaError(
                f"missing key {exc.args[0]!r}", field=f"{where}.trig[{m}]"
            ) from None
        if not _numbers(rows[-1]):
            raise SchemaError("trig entries must be numbers", field=f"{where}.trig[{m}]")
    try:
        return CoordFunction(tuple(poly), tuple(rows))
    except ValueError as exc:
        raise SchemaError(str(exc), field=where) from None


def _numbers(values) -> bool:
    """Whether every entry is a JSON number; a bool is not one."""
    return set(map(type, values)) <= {int, float}


_NUMBER_RULES = {
    "dimension": ("2 or 3", lambda v: isinstance(v, int) and v in (2, 3)),
    "T": ("a positive finite number", lambda v: isinstance(v, (int, float)) and 0 < v <= sys.float_info.max),
    "n": ("a non-negative integer", lambda v: isinstance(v, int) and v >= 0),
    "N": ("an even integer >= 2", lambda v: isinstance(v, int) and v >= 2 and v % 2 == 0),
}


def document_numbers(doc: dict, *keys):
    """The numbers `keys` ("dimension", "T", "n", "N") of a document.

    dimension must be the integer 2 or 3, T a positive finite number, n a
    non-negative integer and N an even integer >= 2; a bool is none of
    these.  Raises SchemaError naming the first field that fails.
    """
    values = []
    for key in keys:
        want, ok = _NUMBER_RULES[key]
        value = doc.get(key)
        if isinstance(value, bool) or not ok(value):
            raise SchemaError(f"{key} must be {want}, got {value!r}", field=key)
        values.append(value)
    return values


def document_rows(doc: dict, key: str) -> np.ndarray:
    """The sample rows `key` of a document: a list of equally long lists of numbers.

    A bool is not a number.  Raises SchemaError naming the field; the caller
    checks the shape.
    """
    rows = doc[key]
    if not isinstance(rows, list) or not all(isinstance(r, list) and _numbers(r) for r in rows):
        raise SchemaError("must be a list of rows of numbers", field=key)
    if len(set(map(len, rows))) > 1:
        raise SchemaError("rows must have equal length", field=key)
    return np.array(rows, dtype=float)


def _reject_constant(name):
    raise SchemaError(f"non-finite number {name!r} is not allowed in documents")


def parse_document(text: str) -> dict:
    """Parse JSON text, rejecting NaN/Infinity literals."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None


def format_float(x: float) -> str:
    """Serialize with 17 significant digits (bit-faithful round trips)."""
    return format(float(x), ".17g")


def _dump_json(obj) -> str:
    # json.dumps would reformat floats; substitute pre-formatted tokens.
    def enc(o):
        if isinstance(o, float):
            return format_float(o)
        if isinstance(o, (int, str, bool)) or o is None:
            return json.dumps(o)
        if isinstance(o, dict):
            items = ", ".join(f"{json.dumps(k)}: {enc(v)}" for k, v in o.items())
            return "{" + items + "}"
        if isinstance(o, (list, tuple)):
            return "[" + ", ".join(enc(v) for v in o) + "]"
        if isinstance(o, np.ndarray):
            return enc(o.tolist())
        raise TypeError(f"cannot serialize {type(o)!r}")

    return enc(obj)


def framework_to_doc(fw) -> dict:
    """Document object for a Framework or AnalyticSurface3D."""
    dim = 2 if isinstance(fw, Framework) else 3
    names = "xyz"[:dim]
    return {
        "dimension": dim,
        "T": fw.T,
        "n": fw.n,
        "curves": [
            {"index": i, **{names[c]: _coord_to_doc(fw.curve(i).coords[c]) for c in range(dim)}}
            for i in fw.curve_indices
        ],
    }


def save_framework(fw) -> str:
    """Serialize a Framework or AnalyticSurface3D to document text."""
    return _dump_json(framework_to_doc(fw))


def load_framework(text: str, grid_panels: int | None = None):
    """Parse a framework document.

    Returns a Framework for dimension 2 and an AnalyticSurface3D for
    dimension 3.  Loading only parses; `regularity_report` judges regularity.
    """
    doc = parse_document(text)
    return framework_from_doc(doc, grid_panels)


def framework_from_doc(doc, grid_panels: int | None = None):
    """Build a Framework or AnalyticSurface3D from a parsed document object."""
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    dim, T, n = document_numbers(doc, "dimension", "T", "n")
    entries = doc.get("curves")
    if not isinstance(entries, list):
        raise SchemaError("curves must be a list", field="curves")
    for k, entry in enumerate(entries):
        index = entry.get("index") if isinstance(entry, dict) else None
        if type(index) is not int:  # a bool is not an index
            raise SchemaError(f"needs an integer index, got {index!r}", field=f"curves[{k}]")
    entries = sorted(entries, key=lambda e: e["index"])
    if len(entries) != n + 3:
        raise SchemaError(
            f"expected {n + 3} curves for n={n}, got {len(entries)}", field="curves"
        )
    got = [e["index"] for e in entries]
    if got != list(range(-1, n + 2)):
        raise SchemaError(f"curve indices must run -1..{n + 1} without gaps, got {got}",
                          field="curves")
    names = "xyz"[:dim]
    curves = []
    for entry in entries:
        where = f"curves[index={entry['index']}]"
        coords = []
        for c in names:
            if c not in entry:
                raise SchemaError(f"missing coordinate {c!r}", field=where)
            coords.append(_coord_from_doc(entry[c], f"{where}.{c}"))
        curves.append(AnalyticCurve(tuple(coords)))
    grid = Grid(float(T), grid_panels) if grid_panels else None
    cls = Framework if dim == 2 else AnalyticSurface3D
    return cls(float(T), n, curves, grid)


# ---------------------------------------------------------------------------
# built-in demo families


def _const(v):
    return CoordFunction((float(v),))


def builtin(name: str, **params):
    """Construct a built-in demo framework or surface by name.

    Names: translational3d, cylinder-strip3d, circles2d, perturbed2d.
    perturbed2d accepts seed and amplitude; circles2d and perturbed2d accept
    the strip-count index n.
    """
    if name == "translational3d":
        return _translational3d(**params)
    if name == "cylinder-strip3d":
        return _cylinder_strip3d(**params)
    if name == "circles2d":
        return _circles2d(**params)
    if name == "perturbed2d":
        return _perturbed2d(**params)
    raise ValueError(f"unknown built-in {name!r}")


def _translational3d(T=1.6):
    """Six translated copies of one space curve (n = 3, conjugate by construction)."""
    base = (
        CoordFunction((0.0, 1.0), ((0.16, 1.5, 0.2),)),
        CoordFunction((0.0,), ((0.30, 1.0, 0.0), (0.10, 2.0, 0.7))),
        CoordFunction((0.0, 0.10), ((0.25, 1.3, 0.5),)),
    )
    points = [
        (0.10, -1.05, 0.55),
        (0.00, 0.00, 0.00),
        (-0.12, 1.00, 0.40),
        (0.10, 2.05, 0.95),
        (-0.08, 3.10, 1.20),
        (0.15, 4.00, 1.90),
    ]
    curves = [
        AnalyticCurve(tuple(shifted(base[c], pt[c]) for c in range(3))) for pt in points
    ]
    return AnalyticSurface3D(T, 3, curves)


def _cylinder_strip3d(T=1.3):
    """One developable strip (all rulings parallel) with z = const boundary curves."""
    x = CoordFunction((0.0, 1.0), ((0.16, 1.25, 0.3),))
    y = CoordFunction((0.0,), ((0.30, 1.0, 0.0), (0.12, 1.6, 1.1)))
    direction = (0.12, 1.0, 0.8)
    offsets = [-1.0, 0.0, 1.0, 2.1]
    curves = [
        AnalyticCurve(
            (
                shifted(x, a * direction[0]),
                shifted(y, a * direction[1]),
                _const(a * direction[2]),
            )
        )
        for a in offsets
    ]
    return AnalyticSurface3D(T, 1, curves)


def _circle_radii(n):
    return [1.0 + 0.6 * (i + 1) for i in range(-1, n + 2)]


def _circles2d(n=1, T=2.0 * math.pi):
    """Concentric circles; radius grows linearly with the curve index."""
    curves = [
        AnalyticCurve(
            (
                CoordFunction((0.0,), ((r, 1.0, _HALF_PI),)),  # r*cos t
                CoordFunction((0.0,), ((r, 1.0, 0.0),)),  # r*sin t
            )
        )
        for r in _circle_radii(n)
    ]
    return Framework(T, n, curves)


def _perturbed2d(seed=1, amplitude=0.05, n=1, T=2.0 * math.pi):
    """circles2d plus seeded trigonometric noise on every coordinate."""
    rng = np.random.default_rng(seed)
    curves = []
    for r in _circle_radii(n):
        coords = []
        for base_phase in (_HALF_PI, 0.0):
            terms = [(r, 1.0, base_phase)]
            for m in (1, 2):
                gain = amplitude * rng.uniform(0.5, 1.0)
                terms.append((gain, float(m), rng.uniform(0.0, 2.0 * math.pi)))
            coords.append(CoordFunction((0.0,), tuple(terms)))
        curves.append(AnalyticCurve(tuple(coords)))
    return Framework(T, n, curves)
