"""Per-layer spans recorded from outside the package.

`Tracer.install()` replaces each traced function by a wrapper at every
module attribute of the package that holds it (so calls between modules,
such as `cli.solve_stress` or `lifting.residual_report`, are counted too),
and replaces traced methods on the class that defines them.  `restore()`
puts every original object back.  While `active` is false a wrapper only
forwards the call, so re-checks that run between ops leave no spans.

A span is (label, start, end, parent span, op id).  Spans are kept in
memory, in flat arrays, and written out by `save()` when the run ends.  A
span's self time is its duration minus the durations of its direct child
spans; calls nest on one thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

#: (metric label, module of striplift, attribute path in that module)
TARGETS = (
    ("cli.main", "cli", "main"),
    ("framework.load_framework", "framework", "load_framework"),
    ("framework.save_framework", "framework", "save_framework"),
    ("framework.jet", "framework", "_IndexedCurves.jet"),
    ("framework.grid_jets", "framework", "_IndexedCurves.grid_jets"),
    ("framework.AnalyticCurve.jet", "framework", "AnalyticCurve.jet"),
    ("geomcore.regularity_report", "geomcore", "regularity_report"),
    ("numerics.ode_march", "numerics", "ode_march"),
    ("numerics.solve2x2", "numerics", "solve2x2"),
    ("statics.solve_stress", "statics", "solve_stress"),
    ("statics.residual_report", "statics", "residual_report"),
    ("statics.load_stress", "statics", "load_stress"),
    ("statics.save_stress", "statics", "save_stress"),
    ("projection.project", "projection", "project"),
    ("projection.induced_stress", "projection", "induced_stress"),
    ("projection.developability_report", "projection", "developability_report"),
    ("lifting.build_lifting", "lifting", "build_lifting"),
    ("lifting.conjugacy_residual", "lifting", "conjugacy_residual"),
    ("lifting.path_independence_spread", "lifting", "path_independence_spread"),
    ("lifting.height", "lifting", "height"),
    ("lifting.height_scale", "lifting", "height_scale"),
    ("lifting.export_obj", "lifting", "export_obj"),
    ("lifting.save_lifting", "lifting", "save_lifting"),
    ("lifting.load_lifting", "lifting", "load_lifting"),
    ("onestrip.onestrip_verify", "onestrip", "onestrip_verify"),
    ("onestrip.liftability_criterion", "onestrip", "liftability_criterion"),
)

LABELS = tuple(label for label, _, _ in TARGETS)
_GRID_JETS = LABELS.index("framework.grid_jets")
_CURVE_JET = LABELS.index("framework.AnalyticCurve.jet")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "striplift" or name.startswith("striplift."))]


class Tracer:
    """Span recorder over the functions named in TARGETS."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self._current = -1
        self._patched = []  # (owner, attribute, original) in install order
        self.label = array("h")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, index: int, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.label)
            tracer.label.append(index)
            tracer.parent.append(tracer._current)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            outer, tracer._current = tracer._current, sid
            tracer.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[sid] = perf_counter()
                tracer._current = outer

        return traced

    def install(self) -> int:
        """Wrap every target; return the number of bindings replaced."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        for index, (_, modname, path) in enumerate(TARGETS):
            module = importlib.import_module(f"striplift.{modname}")
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(index, original))
                self._patched.append((owner, attr, original))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(index, original)
            for mod in modules:
                for attr in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))
        return len(self._patched)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
        self.active = False

    # -- results -----------------------------------------------------------

    def _arrays(self):
        return (np.array(self.label, dtype=np.int16), np.array(self.parent, dtype=np.int64),
                np.array(self.op, dtype=np.int64), np.array(self.start), np.array(self.end))

    def summary(self, ops: int) -> dict:
        """Per-label calls and self seconds per op, plus the jet-cache hit ratio."""
        label, parent, _, start, end = self._arrays()
        count = len(LABELS)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - child
        calls = np.bincount(label, minlength=count)
        self_s = np.bincount(label, weights=self_time, minlength=count)
        out = {}
        for k, name in enumerate(LABELS):
            out[f"{name}.calls_per_op"] = float(calls[k]) / ops
            out[f"{name}.self_s_per_op"] = float(self_s[k]) / ops
        curve_jets = label == _CURVE_JET
        misses = int(np.count_nonzero(curve_jets & nested & (label[np.maximum(parent, 0)] == _GRID_JETS)))
        lookups = int(calls[_GRID_JETS])
        out["framework.grid_jets.hit_ratio"] = 1.0 - misses / lookups if lookups else 0.0
        return out

    def inclusive(self, ops: int) -> dict:
        """Seconds per op spent inside each label's spans, children included."""
        label, _, _, start, end = self._arrays()
        total = np.bincount(label, weights=end - start, minlength=len(LABELS))
        return {name: float(total[k]) / ops for k, name in enumerate(LABELS) if total[k] > 0.0}

    def save(self, path):
        """Write every span to an .npz file (labels are indices into `labels`)."""
        label, parent, op, start, end = self._arrays()
        np.savez_compressed(path, labels=np.array(LABELS), label=label, parent=parent,
                            op=op, start=start, end=end)
