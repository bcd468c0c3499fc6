"""Seeded workload generators and the per-op oracle.

Every workload is a small pool of cases generated from the seed.  A case is
one op: one or more `striplift` CLI commands, each with the exit code it
must return, plus a re-check that reads the files the op wrote.  The mix of
properties in a pool (strip counts, corrupted stresses, one-strip cases) is
fixed by construction and only the parameters inside each family are drawn
from the seed, so two seeds load the program alike.  The families stay
regular through their parameter ranges; nothing is filtered on outcomes.

Documents are written as plain JSON by this module, so the program receives
only generated inputs.  The `verify` pool needs self-stresses as inputs;
those are induced from the generated surfaces through the public API while
the pool is built, which is part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import striplift as sl

GATE = 1e-6  # the CLI's default tolerance, which every op runs with


class CheckFailed(Exception):
    """An op's outputs disagree with what the oracle expects."""


#: What reading and judging an op's outputs can raise when they are wrong
RECHECK_ERRORS = (CheckFailed, OSError, ValueError, KeyError, TypeError, sl.StripLiftError)


@dataclass
class Command:
    argv: list
    expect: int  # exit code the command must return


@dataclass
class Case:
    """One op of a workload pool."""

    key: str
    commands: list
    outputs: list          # files the op writes; removed before each run of it
    props: dict            # properties whose measured shares the record reports
    values: object         # oracle: callable(case) -> {name: gating value}
    digest: str | None = None
    gating: float | None = None  # worst gating value of the first, re-checked run
    extra: dict = field(default_factory=dict)


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


def _coord(poly=(0.0,), trig=()):
    return {"poly": [float(c) for c in poly],
            "trig": [{"amp": float(a), "freq": float(f), "phase": float(p)} for a, f, p in trig]}


def _framework_doc(dim, T, n, curves):
    names = "xyz"[:dim]
    return {"dimension": dim, "T": float(T), "n": n,
            "curves": [{"index": i - 1, **dict(zip(names, coords))} for i, coords in enumerate(curves)]}


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# families


def perturbed_circles(rng, n, amplitude):
    """Concentric circles r_i = 1 + 0.6 (i+1) with seeded trig noise (perturbed2d)."""
    curves = []
    for i in range(-1, n + 2):
        r = 1.0 + 0.6 * (i + 1)
        coords = []
        for phase in (math.pi / 2.0, 0.0):
            terms = [(r, 1.0, phase)]
            for m in (1, 2):
                terms.append((amplitude * rng.uniform(0.5, 1.0), m, rng.uniform(0.0, 2.0 * math.pi)))
            coords.append(_coord(trig=terms))
        curves.append(coords)
    return _framework_doc(2, 2.0 * math.pi, n, curves)


def translational_surface(rng, n):
    """Translates of one space curve (translational3d with jittered amplitudes and offsets).

    The planar part moves mostly along x and the offsets step by about 1.05
    in y, so tangent and ruling stay far from parallel for every draw.
    """
    j = lambda: rng.uniform(0.8, 1.2)
    base = (
        ((0.0, 1.0), ((0.16 * j(), 1.5, 0.2),)),
        ((0.0,), ((0.30 * j(), 1.0, 0.0), (0.10 * j(), 2.0, 0.7))),
        ((0.0, 0.10), ((0.25 * j(), 1.3, 0.5),)),
    )
    curves = []
    for k in range(n + 3):
        offset = (rng.uniform(-0.15, 0.15), 1.05 * (k - 1) + rng.uniform(-0.05, 0.05),
                  0.4 * (k - 1) + rng.uniform(-0.2, 0.2))
        curves.append([_coord((poly[0] + offset[c],) + poly[1:], trig)
                       for c, (poly, trig) in enumerate(base)])
    return _framework_doc(3, 1.6, n, curves)


def strip_surface(rng, liftable):
    """One strip on a generalized cylinder (cylinder-strip3d, jittered).

    Curve k is f(t) + s_k(t) w for one planar curve f and one direction w,
    so every strip has parallel rulings and is developable.  With constant
    s_k the curves are translates in planes z = const and the strip is
    one-strip liftable.  The non-liftable variant adds (k - 1) b sin(1.7 t + phi)
    to s_k, b in 0.1 .. 0.2: ruling lengths then vary along the strip, the
    liftability criterion sits near 1, and the surface still induces a
    self-stress.
    """
    j = lambda: rng.uniform(0.8, 1.2)
    base = (
        ((0.0, 1.0), ((0.16 * j(), 1.25, 0.3),)),
        ((0.0,), ((0.30 * j(), 1.0, 0.0), (0.12 * j(), 1.6, 1.1))),
        ((0.0,), ()),
    )
    w = (0.12 + rng.uniform(-0.05, 0.05), 1.0, 0.8 + rng.uniform(-0.2, 0.2))
    b = 0.0 if liftable else rng.uniform(0.1, 0.2)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    curves = []
    for k, a in enumerate((-1.0, 0.0, 1.0, 2.1)):
        a += rng.uniform(-0.05, 0.05)
        wobble = (k - 1) * b
        curves.append([
            _coord((poly[0] + a * w[c],) + poly[1:],
                   trig + (((wobble * w[c], 1.7, phase),) if wobble else ()))
            for c, (poly, trig) in enumerate(base)
        ])
    return _framework_doc(3, 1.3, 1, curves)


# ---------------------------------------------------------------------------
# oracles: each returns the gating values of an op that should pass (every
# one must stay below GATE) and raises CheckFailed when the outputs contradict
# the expected verdict


def _residual(fw_text, stress_text, grid):
    fw = sl.load_framework(fw_text, grid_panels=grid)
    stress = sl.load_stress(stress_text)
    if stress.n != fw.n or stress.grid.N != grid:
        raise CheckFailed(f"stress has n={stress.n}, N={stress.grid.N}; expected n={fw.n}, N={grid}")
    return fw, stress, sl.residual_report(fw, stress).max_normalized


def _march_values(case):
    _, _, res = _residual(case.extra["framework"].read_text(), case.outputs[0].read_text(),
                          case.extra["grid"])
    return {"residual": res}


def _roundtrip_values(case):
    fw_out, stress_out, obj = case.outputs
    n, grid = case.props["n"], case.extra["grid"]
    fw, stress, res = _residual(fw_out.read_text(), stress_out.read_text(), grid)
    vertices = [line.split()[1:] for line in obj.read_text().splitlines() if line.startswith("v ")]
    if len(vertices) != (n + 1) * (grid + 1):
        raise CheckFailed(f"OBJ has {len(vertices)} vertices, expected {(n + 1) * (grid + 1)}")
    z = np.array([float(v[2]) for v in vertices]).reshape(n + 1, grid + 1)
    return {"residual": res,
            "conjugacy": sl.conjugacy_residual(sl.SampledLifting(fw, z, stress.grid))}


def _verify_values(case):
    report = json.loads(case.outputs[0].read_text())
    res, spread, scale = report["residual_max"], report["spread"], report["height_scale"]
    passes = res < GATE and spread < GATE * scale
    if passes == case.props["corrupted"]:
        raise CheckFailed(f"check report residual {res:.3e}, spread {spread:.3e} "
                          f"(scale {scale:.3e}) contradicts corrupted={case.props['corrupted']}")
    values = {"residual": res, "spread": spread / scale} if passes else {}
    if case.props["n"] == 1:
        strip = json.loads(case.outputs[1].read_text())
        liftable = case.props["liftable"]
        if strip["verdict"] != liftable or (strip["criterion_max"] < GATE) != liftable:
            raise CheckFailed(f"onestrip verdict {strip['verdict']} (criterion "
                              f"{strip['criterion_max']:.3e}) but liftable={liftable}")
        if liftable:
            values["criterion"] = strip["criterion_max"]
    return values


# ---------------------------------------------------------------------------
# cases and pools


def march_case(rng, workdir: Path, key: str, n: int, grid: int) -> Case:
    """`solve` on perturbed circles with seeded lambda0 and boundary edge stress."""
    fw = _write_json(workdir / f"{key}.framework.json",
                     perturbed_circles(rng, n, rng.uniform(0.002, 0.01)))
    lambda0 = ",".join(repr(float(v)) for v in rng.uniform(1.0, 2.0, n + 1))
    mu = _coord((rng.uniform(-0.05, 0.05), rng.uniform(-0.01, 0.01)),
                ((rng.uniform(0.0, 0.02), rng.integers(1, 3), rng.uniform(0.0, 2.0 * math.pi)),))
    out = workdir / f"{key}.stress.json"
    argv = ["solve", "--input", str(fw), "--grid", str(grid), "--lambda0", lambda0,
            "--mu-minus1", json.dumps(mu), "--output", str(out)]
    return Case(key, [Command(argv, 0)], [out], {"n": n}, _march_values,
                extra={"framework": fw, "grid": grid})


def roundtrip_case(rng, workdir: Path, key: str, n: int, grid: int) -> Case:
    """`project` a translational surface, then `lift` its stress to OBJ."""
    surface = _write_json(workdir / f"{key}.surface.json", translational_surface(rng, n))
    fw_out = workdir / f"{key}.out.framework.json"
    stress_out = workdir / f"{key}.out.stress.json"
    obj = workdir / f"{key}.obj"
    commands = [
        Command(["project", "--input", str(surface), "--grid", str(grid),
                 "--output", str(workdir / f"{key}.out")], 0),
        Command(["lift", "--input", str(fw_out), "--stress", str(stress_out), "--grid", str(grid),
                 "--format", "obj", "--reproducible", "--output", str(obj)], 0),
    ]
    return Case(key, commands, [fw_out, stress_out, obj], {"n": n}, _roundtrip_values,
                extra={"grid": grid})


# Op latency grows with n, so each pool is a few clusters of latency.  The
# mixes below put the median op and the tail op (the 11th slowest of the
# 25 .. 1000 ops a run makes) inside one cluster each, never on the edge
# between two, where a run with one op more or less would jump.  Every pool
# has a fixed order, so the warm-up op (the first case) does the same work
# for every seed.

#: march: two thirds n = 4, so both the median and the tail are n = 4 solves.
MARCH_NS = (1, 2, 4, 4, 4, 4)

#: roundtrip: the median lies among the three n = 6 ops, the tail among the
#: two n = 8 ops.
ROUNDTRIP_NS = (3, 4, 5, 6, 6, 6, 7, 8, 8)

#: verify, as (family, n, liftable): the n = 4 checks fill the middle of the
#: latency order and the one-strip ops (check plus onestrip, a third of the
#: pool) its top.
VERIFY_KINDS = (
    ("strip", 1, True), ("strip", 1, False),
    ("translational", 2, None), ("translational", 3, None),
    ("translational", 4, None), ("translational", 4, None),
)


def march(rng, workdir: Path, grid: int = 256):
    """solve on perturbed circles; n = 1, 2, 4 (mostly 4), N = 256."""
    return [march_case(rng, workdir, f"m{k}", n, grid) for k, n in enumerate(MARCH_NS)]


def roundtrip(rng, workdir: Path, grid: int = 2048):
    """project then lift (OBJ, reproducible) on translational surfaces; n = 3..8, N = 2048."""
    return [roundtrip_case(rng, workdir, f"r{k}", n, grid) for k, n in enumerate(ROUNDTRIP_NS)]


def verify(rng, workdir: Path, grid: int = 1024):
    """check (+ onestrip when n = 1) on stored framework/stress pairs, N = 1024.

    The pool holds every kind of VERIFY_KINDS twice; a quarter of the pool,
    chosen by the seed, has one interior edge-stress row scaled by 1.01.
    """
    kinds = VERIFY_KINDS * 2
    corrupted = set(rng.choice(len(kinds), size=len(kinds) // 4, replace=False).tolist())
    cases = []
    for k, (family, n, liftable) in enumerate(kinds):
        doc = strip_surface(rng, liftable) if family == "strip" else translational_surface(rng, n)
        proj = sl.project(sl.load_framework(json.dumps(doc)), sl.Grid(doc["T"], grid))
        stress_doc = json.loads(sl.save_stress(sl.induced_stress(proj)))
        if k in corrupted:
            row = 1 + int(rng.integers(0, n))  # an interior edge family 0 .. n-1
            stress_doc["mu"][row] = [1.01 * v for v in stress_doc["mu"][row]]
        fw = workdir / f"v{k}.framework.json"
        fw.write_text(sl.save_framework(proj.framework))
        stress = _write_json(workdir / f"v{k}.stress.json", stress_doc)
        report = workdir / f"v{k}.check.json"
        commands = [Command(["check", "--input", str(fw), "--stress", str(stress), "--grid", str(grid),
                             "--seed", str(k), "--output", str(report)], 1 if k in corrupted else 0)]
        outputs = [report]
        props = {"n": n, "family": family, "corrupted": k in corrupted}
        if n == 1:
            strip = workdir / f"v{k}.onestrip.json"
            commands.append(Command(["onestrip", "--input", str(fw), "--grid", str(grid),
                                     "--output", str(strip)], 0 if liftable else 1))
            outputs.append(strip)
            props["liftable"] = liftable
        cases.append(Case(f"v{k}", commands, outputs, props, _verify_values))
    return cases


POOLS = {"march": march, "roundtrip": roundtrip, "verify": verify}


def build(name: str, seed: int, workdir: Path):
    """The seeded case pool of a workload, with its input documents written to workdir."""
    rng = np.random.default_rng([seed, list(POOLS).index(name)])
    return POOLS[name](rng, workdir)
