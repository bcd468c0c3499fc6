"""Analytic curve families, the planar framework container, and file I/O.

Curves are stored as coefficient tables (polynomial part up to degree 8 plus
up to 16 sine terms per coordinate), so positions and the first three
derivatives are exact closed forms.  One jet kernel (`_Coefficients.jets`)
evaluates them, with one sin and one cos per distinct frequency and time,
into the one layout of every table of curve data: (order, curve, time,
coord), len(table) orders, a point jet `jet(t)` of shape (4,) + t.shape +
(dim,).  A framework holds n+3 curves indexed -1 .. n+1 over a shared
parameter interval [0, T]: the two extra boundary curves only prescribe
directions for boundary forces.

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

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import orjson

from .errors import SchemaError
from .numerics import DEFAULT_PANELS, Grid, read_only, require_finite, require_size

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
        of length order+1, evaluated by the jet kernel `_Coefficients.jets`.
        """
        t = np.asarray(t, dtype=float)
        rows = _Coefficients([(self,)]).jets(t.reshape(-1), order)[:, 0, :, 0]
        return [row.reshape(t.shape) if t.ndim else float(row[0]) for row in rows]

    def value(self, t):
        return self.derivatives(t, order=0)[0]


class _Coefficients:
    """Coefficient tables of curves of one dimension, axes (curve, coord, ...).

    `poly` is zero-padded; per trig slot, `freq`, (a, b) = amp (cos, sin) phase
    and `row`, the frequency's row among the distinct ones (past them if empty).
    """

    def __init__(self, curves):
        coords, shape = [cf for cv in curves for cf in cv], (len(curves), len(curves[0]))
        degree, slots = max(len(cf.poly) for cf in coords), max(len(cf.trig) for cf in coords)
        poly = np.array([cf.poly + (0.0,) * (degree - len(cf.poly)) for cf in coords])
        rows = {}  # distinct frequency -> row; a dict, as np.unique imports numpy.ma
        terms = [[(a, f, p, rows.setdefault(f, len(rows))) for a, f, p in cf.trig] for cf in coords]
        trig = np.array([row + [(0.0, 0.0, 0.0, len(rows))] * (slots - len(row)) for row in terms])
        amp, self.freq, phase, row = np.moveaxis(trig.reshape(shape + (slots, 4)), -1, 0)
        self.a, self.b, self.row = amp * np.cos(phase), amp * np.sin(phase), row.astype(np.intp)
        self.poly, self.distinct = poly.reshape(shape + (degree,)), np.array(list(rows), dtype=float)

    def jets(self, t: np.ndarray, order: int) -> np.ndarray:
        """Values and first `order` derivatives at the 1-d times t, (order+1, curve, time, coord).

        One sin(f t) and cos(f t) per distinct frequency f.  Order k of a trig
        term is (-1)^(k//2) f^k (a sin + b cos) for even k, (a cos - b sin) for
        odd k: the quarter turns are exact sign swaps.  Horner over the padded
        polynomial rows of the orders below the padded degree (the higher ones
        stay +0.0), then the trig slots in order, elementwise only, so a curve
        alone is bit-identical to the same curve in a batch.  Overflow gives
        inf or nan without a warning; callers check it.
        """
        curves, dim, degree = self.poly.shape
        acc = np.zeros((order + 1, curves, dim, t.size))  # time-contiguous
        live = min(order, degree - 1) + 1  # orders with a nonzero polynomial row
        coef = np.zeros((live,) + self.poly.shape)  # coef[k]: derivative k, zero-padded
        coef[0] = self.poly
        for k in range(1, live):
            coef[k, ..., :-k] = coef[k - 1, ..., 1 : degree - k + 1] * np.arange(1, degree - k + 1)
        k = np.arange(order + 1)[:, None, None, None]
        with np.errstate(over="ignore", invalid="ignore"):
            sin, cos = (np.vstack([fn(np.multiply.outer(self.distinct, t)), np.zeros(t.size)])
                        for fn in (np.sin, np.cos))
            horner = acc[:live]
            for c in np.moveaxis(coef, -1, 0)[::-1]:
                horner *= t
                horner += c[..., None]
            scale = ((1 - 2 * (k // 2 % 2)) * self.freq**k)[..., None]
            for m, row in enumerate(np.moveaxis(self.row, -1, 0)):
                s, c, a, b = sin[row], cos[row], self.a[..., m, None], self.b[..., m, None]
                even = a * s
                even += b * c
                c *= a  # c, s become a cos, b sin: odd = a cos - b sin
                c -= np.multiply(s, b, out=s)
                for k, acc_k in enumerate(acc):  # s is free: the product buffer
                    acc_k += np.multiply(scale[k, ..., m, :], c if k % 2 else even, out=s)
            s = c = even = None  # freed before the (order, curve, time, coord) copy
        table = np.empty((order + 1, curves, t.size, dim))
        for c in range(dim):  # one strided write per coordinate, not a copy over 2 or 3 of them
            table[..., c] = acc[:, :, c]
        return table


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

    def jet(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return _Coefficients([self.coords]).jets(t.reshape(-1), 3).reshape((4,) + t.shape + (self.dim,))


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
        self.grid.require_span(self.T)
        self._tables = {}

    @cached_property
    def _coefficients(self):  # packed once: the curves are immutable
        return _Coefficients([c.coords for c in self._curves])

    @property
    def curve_indices(self):
        return range(-1, self.n + 2)

    def curve(self, i: int) -> AnalyticCurve:
        if not -1 <= i <= self.n + 1:
            raise IndexError(f"curve index {i} outside -1..{self.n + 1}")
        return self._curves[i + 1]

    def jet(self, i: int, t) -> np.ndarray:
        self._check_param(t)
        return self.curve(i).jet(t)

    def tabulate(self, times, order: int = 3) -> np.ndarray:
        """Values and first `order` derivatives of every curve at every time.

        Read-only, shape (order+1, n+3, len(times), dim): derivative order,
        curve (row i+1 holds curve i), time, coordinate.  Each order costs a
        plane of the table, so callers ask for the orders they read: the
        balance reads 2, only the one-strip criterion 3 (`grid_table`).  Too
        many samples for the size rule raise ValueError before any jet is
        evaluated; EvaluationError names the first curve and time of a
        non-finite entry.
        """
        times = np.asarray(times, dtype=float)
        require_size(None, len(self._curves), len(times))
        table = self._coefficients.jets(times, order)
        require_finite(np.moveaxis(table, 0, -1), "jet", times, first=-1)
        return read_only(table)

    def grid_table(self, grid: Grid | None = None, order: int = 2) -> np.ndarray:
        """`tabulate` at the grid nodes to `order` (2 or 3), cached per grid, read-only.

        Shape (orders, n+3, N+1, dim); row i+1 holds curve i.  The cached
        table is tabulated again only for more orders than it holds,
        len(table), and serves every call for as many or fewer.  A grid over
        another interval than [0, T] raises ValueError.
        """
        if order not in (2, 3):
            raise ValueError(f"grid tables hold order 2 or 3, got {order}")
        grid = grid or self.grid
        key = (grid.N, grid.T)
        table = self._tables.get(key)
        if table is None or len(table) <= order:
            grid.require_span(self.T)
            table = self._tables[key] = self.tabulate(grid.t, order)
        return table

    def grid_jets(self, i: int, grid: Grid | None = None) -> np.ndarray:
        """Jets of curve i at all grid nodes: row i+1 of grid_table, (orders, N+1, dim)."""
        self.curve(i)
        return self.grid_table(grid)[:, i + 1]

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

    def planar(self, grid: Grid) -> Framework:
        """The framework of the x and y columns, on `grid`.

        Its curves share their coordinate functions with this surface, so its
        grid table is the first two columns of the surface's.
        """
        fw = Framework(self.T, self.n, [AnalyticCurve(c.coords[:2]) for c in self._curves], grid)
        fw._tables[grid.N, grid.T] = self.grid_table(grid)[..., :2]
        return fw


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
        rows.append(document_values(term, "amp", "freq", "phase", field=f"{where}.trig[{m}]"))
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
}


def document_values(doc: dict, *keys, field=None) -> tuple:
    """The values of `keys`; the first missing key raises SchemaError naming `field` or itself."""
    for key in keys:
        if key not in doc:
            raise SchemaError(f"missing key {key!r}", field=field or key)
    return tuple(doc[key] for key in keys)


def document_numbers(doc: dict, *keys):
    """The numbers `keys` ("dimension", "T", "n", "N") of a document.

    dimension must be the integer 2 or 3, T a positive finite number and n a
    non-negative integer; a bool is none of these.  N is a grid's panel
    count (`numerics.require_size`).  Raises SchemaError naming the first
    field that fails.
    """
    values = []
    for key in keys:
        value = doc.get(key)
        if key == "N":
            try:
                value = require_size(value)
            except ValueError as exc:
                raise SchemaError(str(exc), field=key) from None
        else:
            want, ok = _NUMBER_RULES[key]
            if isinstance(value, bool) or not ok(value):
                raise SchemaError(f"{key} must be {want}, got {_quoted(value)}", field=key)
        values.append(value)
    return values


def document_rows(doc: dict, key: str, rows: int, N: int) -> np.ndarray:
    """The sample block `key` of a document: `rows` lists of N+1 numbers, as a (rows, N+1) array.

    A bool is not a number.  The row count and every row are checked before
    an array is built; any other block raises SchemaError naming the field.
    """
    block = doc[key]
    if not isinstance(block, list) or len(block) != rows:
        got = len(block) if isinstance(block, list) else _quoted(block)
        raise SchemaError(f"must be a list of {rows} rows, got {got}", field=key)
    for k, row in enumerate(block):
        if not (isinstance(row, list) and len(row) == N + 1 and _numbers(row)):
            raise SchemaError(f"row {k} must be a list of N + 1 = {N + 1} numbers", field=key)
    return np.array(block, dtype=float)


MAX_NESTING = 64  # levels of arrays and objects a document may nest; the schema uses 7
_NOT_BRACKET_OR_QUOTE = bytes(sorted(set(range(256)) - set(b'[]{}"')))
_DEPTH_STEP = bytes.maketrans(b'[{]}"', b"\x01\x01\xff\xff\x00")  # +1, -1 and 0 as int8
_COUNTED_BYTES = 16384  # up to here counting every byte costs less than a `find` per bracket
_DUMP_ROWS = 4096  # rows per flat dump in format_rows: a few hundred KB of text


def _nests_too_deep(data: bytes) -> bool:
    """Whether the arrays and objects of JSON text nest deeper than MAX_NESTING.

    Brackets inside strings do not count.  A text with no more opening brackets
    than the limit passes at once: a short text (a framework document) on two
    counts, a long one (a stress document has one bracket per row) after a few
    `find` calls, which skip the numbers between them.  Any other text is cut
    down to its brackets and quotes, and its depth is a cumulative sum.
    """
    if len(data) <= _COUNTED_BYTES:
        opens = data.count(b"[") + data.count(b"{")
    else:
        opens = 0
        for bracket in b"[{":
            at = data.find(bracket)
            while at >= 0 and opens <= MAX_NESTING:
                opens, at = opens + 1, data.find(bracket, at + 1)
    if opens <= MAX_NESTING:
        return False
    if b"\\" in data:  # drop escaped backslashes, then escaped quotes: every quote left delimits a string
        data = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    marks = data.translate(None, _NOT_BRACKET_OR_QUOTE)
    in_string = np.cumsum(np.frombuffer(marks, np.uint8) == ord('"')) % 2 == 1
    steps = np.where(in_string, 0, np.frombuffer(marks.translate(_DEPTH_STEP), np.int8))
    return steps.cumsum().max(initial=0) > MAX_NESTING


def parse_document(text: str):
    """The value of JSON text, read by orjson.

    Numbers read bit for bit as `json.loads` reads them.  NaN and Infinity
    literals, numbers beyond the double range and arrays or objects nested
    more than MAX_NESTING deep are invalid JSON; orjson recurses without a
    limit, so the depth is checked before it reads the text.  Raises
    SchemaError.
    """
    try:
        data = text.encode()
        if _nests_too_deep(data):
            raise SchemaError(f"invalid JSON: arrays and objects nest deeper than {MAX_NESTING} levels")
        return orjson.loads(data)
    except (UnicodeEncodeError, orjson.JSONDecodeError) as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None


def _quoted(value) -> str:
    """A document value in a message: the JSON of a scalar, the kind of an array or object."""
    if isinstance(value, list):
        return "an array"
    if isinstance(value, dict):
        return "an object"
    return orjson.dumps(value).decode()


def _dump_json(obj) -> str:
    """Document text of dicts, lists, numbers, strings and numpy arrays, each float in the
    shortest text that reads back bit for bit.  orjson writes a non-finite float as null, but
    every number passed here is finite by construction (README, Numbers)."""
    # a non-C-contiguous array goes through `default`
    return orjson.dumps(obj, default=np.ascontiguousarray,
                        option=orjson.OPT_SERIALIZE_NUMPY).decode()


def format_rows(values: np.ndarray, lead: str, sep: str) -> str:
    """One line per row of the last axis of a finite array: `lead`, then the entries joined
    by the one character `sep`, each as `_dump_json` writes it, from flat dumps of row blocks."""
    if not values.size:
        return ""
    rows, blocks = np.ascontiguousarray(values).reshape(-1, values.shape[-1]), []
    for start in range(0, len(rows), _DUMP_ROWS):  # flat, as orjson dumps 2-d arrays 2-3x slower
        flat = rows[start:start + _DUMP_ROWS].reshape(-1)
        text = bytearray(orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY))  # [a,b,c,d]
        chars = np.frombuffer(text, np.uint8)
        chars[0] = ord(",")  # ,a,b,c,d]: a comma before each row
        commas = np.flatnonzero(chars == ord(","))
        if rows.shape[1] > 1:
            chars[commas] = ord(sep)
        chars[commas[::rows.shape[1]]] = ord("\n")  # \na b\nc d]
        blocks.append(text[:-1].replace(b"\n", b"\n" + lead.encode()).decode())
    blocks[0] = blocks[0][1:]  # no newline before the first row
    return "".join([*blocks, "\n"])


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
            raise SchemaError(f"needs an integer index, got {_quoted(index)}",
                              field=f"curves[{k}]")
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
    grid = Grid(float(T), grid_panels) if grid_panels is not None else None
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
