"""End-to-end benchmark of the striplift command line.

    python3 perfbench/run.py --workload march --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Each op is one or more in-process `striplift.cli.main(argv)` calls on
documents generated from the seed (see workloads.py), run by one
closed-loop client in this process.  An op fails on an exception, an
unexpected exit code or a failed re-check of its outputs; re-checks are
not timed.  The first run of a case is re-checked in full by its oracle,
and later runs of it must write byte-identical outputs.

With `--trace 0` the run reports the end-to-end metrics.  Op latency and
set-up time are gated relative to a fixed reference task timed around every
op and inside the set-up, which cancels the host's speed swings; raw
seconds go to the record.  With
`--trace 1` each case runs untraced and then traced, and the run reports
per-layer counts and self times (tracing.py) and the tracing overhead.
The last line of standard output is the result object; the line before it
is the full record (environment, mix shares, tail percentile, errors).
"""

from __future__ import annotations

from time import perf_counter

_PROCESS_START = perf_counter()

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import boot

WORKLOADS = ("march", "roundtrip", "verify")
SETUP_SAMPLES = 3      # set-ups per run: this process plus two probe processes
REFERENCE_REPEATS = 5  # reference tasks per point of the set-up, of which the median counts
REFERENCE_NOMINAL_S = 1.5e-3  # the reference task's time that `setup_s` is scaled to
TAIL_BEYOND = 10       # samples that must lie beyond the reported tail percentile
ACCURACY_FLOOR = 1e-16

#: end-to-end metrics of the result: name -> (unit, better); bounds are in BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_ref": ("ref", "lower"),
    "op_tail_ref": ("ref", "lower"),
    "op_mean_ref": ("ref", "lower"),
    "accuracy_digits": ("digits", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
#: end-to-end metrics kept in the record only: raw seconds follow the speed
#: of the host, which on small shared VMs swings by more than any bound allows
UNGATED = {
    "setup_wall_s": ("s", "lower"),
    "ops_per_s": ("ops/s", "higher"),
    "op_p50_s": ("s", "lower"),
    "op_tail_s": ("s", "lower"),
}
#: per-layer metrics, by the last part of their name
LAYER = {
    "calls_per_op": ("calls/op", "lower"),
    "self_s_per_op": ("s/op", "lower"),
    "hit_ratio": ("ratio", "higher"),
    "overhead_ratio": ("ratio", "lower"),
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Runner:
    """Runs cases through the CLI, checks them and keeps the counts."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.props = Counter()
        self.by_case = {}  # case key -> latencies of its successful runs

    def _call(self, argv):
        try:
            return self.cli.main(argv)  # looked up per call so a traced wrapper is seen
        except SystemExit as exc:  # argparse rejects bad flags this way
            return exc.code

    def run(self, case, traced=False):
        """Run one op; return its latency in seconds, or None when it failed."""
        self.attempted += 1
        for key, value in case.props.items():
            self.props[(key, value)] += 1
        for path in case.outputs:
            path.unlink(missing_ok=True)
        out = io.StringIO()
        error = None
        if traced:
            self.tracer.active = True
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                for command in case.commands:
                    code = self._call(command.argv)
                    if code != command.expect:
                        error = f"{command.argv[0]} exited {code}, expected {command.expect}"
                        break
        except Exception as exc:  # any escape from the CLI is a failed op
            error = f"{command.argv[0]} raised {type(exc).__name__}: {exc}"
        latency = perf_counter() - start
        if traced:
            self.tracer.active = False
        if error is None:
            error = self._recheck(case)
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{case.key}: {error}")
            return None
        self.by_case.setdefault(case.key, []).append(latency)
        return latency

    def _recheck(self, case):
        import workloads

        try:
            if case.digest is not None:
                if workloads.digest(case.outputs) != case.digest:
                    return "outputs differ from the first, re-checked run of this case"
                return None
            values = case.values(case)
            over = {k: v for k, v in values.items() if not v < workloads.GATE}
            if over:
                return f"re-check: {over} not below {workloads.GATE}"
            case.gating = max(values.values()) if values else None
            case.digest = workloads.digest(case.outputs)
        except workloads.RECHECK_ERRORS as exc:
            return f"re-check: {type(exc).__name__}: {exc}"
        return None

    def mix(self):
        """Measured share of attempted ops with each property value."""
        return {f"{key}={value}": count / self.attempted
                for (key, value), count in sorted(self.props.items(), key=str)}


def median(values):
    return statistics.median(values) if values else 0.0  # 0 only when every op failed


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it.

    A run too short to have one reports its slowest op as p100.
    """
    if not latencies:
        return 0.0, 0.0
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def accuracy_digits(cases):
    gates = [c.gating for c in cases if c.gating is not None]
    worst = max(gates) if gates else 1.0
    return -math.log10(max(worst, ACCURACY_FLOOR)), worst


def reference_s(np, x):
    """Seconds of a fixed task of interpreter loops and small numpy calls on x.

    It does the kind of work the ops do, and nothing in it depends on the
    package, so the time it takes tracks only the speed of the host.
    """
    start = perf_counter()
    for i in range(300):
        float(np.sin(x * i).sum())
    return perf_counter() - start


def measure(runner, cases, seconds, np, x):
    """Cycle the pool until `seconds` have passed and every case ran once.

    Returns the latency of each successful op, the time of the reference
    task around it (the mean of one run just before and one just after the
    op, both outside the op's timing), and how many of those ops belong to
    whole passes over the pool.
    """
    latencies, references = [], []
    whole = 0
    deadline = perf_counter() + seconds
    i = 0
    while i < len(cases) or perf_counter() < deadline:
        before = reference_s(np, x)
        latency = runner.run(cases[i % len(cases)])
        after = reference_s(np, x)
        if latency is not None:
            latencies.append(latency)
            references.append(0.5 * (before + after))
        i += 1
        if i % len(cases) == 0:
            whole = len(latencies)
    return latencies, references, whole


def measure_traced(runner, cases, seconds):
    """Whole passes over the pool, each case run untraced and then traced.

    Running the two back to back lets drifts in machine speed fall on both
    sides of the overhead ratio alike.  A new pass starts only when it is
    expected to end within `seconds`.
    """
    plain, traced = [], []
    passes = 0
    began = perf_counter()
    while True:
        pass_start = perf_counter()
        for k, case in enumerate(cases):
            latency = runner.run(case)
            if latency is not None:
                plain.append(latency)
            runner.tracer.op_id = passes * len(cases) + k
            latency = runner.run(case, traced=True)
            if latency is not None:
                traced.append(latency)
        passes += 1
        now = perf_counter()
        if now + (now - pass_start) > began + seconds:
            return plain, traced, passes


def setup_probes(workload, seed, count):
    """Set-ups of `count` fresh processes, one after another, as (wall s, reference s)."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((probe["setup_wall_s"], probe["reference_s"]))
    return samples


def with_units(metrics, table):
    return {name: {"value": value, "unit": table[name][0], "better": table[name][1]}
            for name, value in metrics.items()}


def run_workload(args):
    import numpy as np
    import workloads
    import tracing
    from striplift import cli

    x = np.linspace(0.0, 1.0, 64)
    aside = 0.0  # seconds of reference tasks inside the set-up, which are not set-up work

    def reference_point():
        nonlocal aside
        start = perf_counter()
        value = statistics.median(reference_s(np, x) for _ in range(REFERENCE_REPEATS))
        aside += perf_counter() - start
        return value

    # The reference task is timed after each phase of the set-up (imports,
    # documents, warm-up op), so it samples the host's speed across it.
    points = [reference_point()]
    out_dir = boot.ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(cli, tracer)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=out_dir) as tmp:
        cases = workloads.build(args.workload, args.seed, Path(tmp))
        points.append(reference_point())
        runner.run(cases[0])  # untimed warm-up op
        setup_wall_s = perf_counter() - _PROCESS_START - aside
        points.append(reference_point())
        setup_reference_s = statistics.mean(points)
        if args.setup_probe:
            return {"setup_wall_s": setup_wall_s, "reference_s": setup_reference_s,
                    "failed": runner.failed}, None
        record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
                  "pool_size": len(cases), "environment": boot.environment(args.seed)}
        if args.trace:
            sites = tracer.install()
            try:
                plain, traced, passes = measure_traced(runner, cases, args.seconds)
            finally:
                tracer.restore()
            ops = passes * len(cases)
            metrics = tracer.summary(ops)
            p50_plain, p50_traced = median(plain), median(traced)
            metrics["trace.overhead_ratio"] = p50_traced / p50_plain - 1.0 if p50_plain else 0.0
            metrics = with_units(metrics, {name: LAYER[name.rsplit(".", 1)[1]] for name in metrics})
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.save(spans)
            record.update({"traced_ops": ops, "passes": passes, "spans": len(tracer.label),
                           "spans_file": str(spans.relative_to(boot.ROOT)),
                           "op_p50_s_untraced": p50_plain, "op_p50_s_traced": p50_traced,
                           "inclusive_s_per_op": tracer.inclusive(ops),
                           "patched_sites": sites})
        else:
            latencies, references, whole = measure(runner, cases, args.seconds, np, x)
            relative = [lat / ref for lat, ref in zip(latencies, references)]
            digits, worst = accuracy_digits(cases)
            samples = [(setup_wall_s, setup_reference_s)]
            samples += setup_probes(args.workload, args.seed, SETUP_SAMPLES - 1)
            tail_pct = tail(latencies)[1]
            metrics = with_units({
                "setup_s": median([REFERENCE_NOMINAL_S * wall / ref for wall, ref in samples]),
                "op_p50_ref": median(relative),
                "op_tail_ref": tail(relative)[0],
                "op_mean_ref": statistics.mean(relative[:whole]) if whole else 0.0,
                "accuracy_digits": digits,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }, END_TO_END)
            record["ungated"] = with_units({
                "setup_wall_s": median([wall for wall, _ in samples]),
                "ops_per_s": len(latencies) / sum(latencies) if latencies else 0.0,
                "op_p50_s": median(latencies),
                "op_tail_s": tail(latencies)[0],
            }, UNGATED)
            record.update({"timed_ops": len(latencies), "timed_wall_s": sum(latencies),
                           "tail_percentile": tail_pct, "tail_samples": len(latencies),
                           "mean_ops": whole, "reference_s_median": median(references),
                           "setup_samples": [{"wall_s": wall, "reference_s": ref}
                                             for wall, ref in samples],
                           "worst_gating_value": worst})
    record.update({"attempted": runner.attempted, "failed": runner.failed,
                   "failed_ratio": runner.failed / runner.attempted, "mix": runner.mix(),
                   "errors": runner.errors,
                   "case_p50_s": {k: median(v) for k, v in runner.by_case.items()},
                   "case_props": {c.key: c.props for c in cases},
                   "metrics": metrics})
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()}}
    return result, record


def run_all(args):
    """One process per workload, one after another; print every metric by name."""
    results, records = {}, {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        print(lines[-2])
        records[workload] = json.loads(lines[-2])["record"]
        results[workload] = json.loads(lines[-1])
    for workload, result in results.items():
        record = records[workload]
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"failed_ratio {record['failed_ratio']:.6g}, correct {result['correct']}")
        for name, metric in record["metrics"].items():
            print(f"  {name:<48} {metric['value']:>16.6g} {metric['unit']:<8} {metric['better']} is better")
        for name, metric in record.get("ungated", {}).items():
            print(f"  {name:<48} {metric['value']:>16.6g} {metric['unit']:<8} "
                  f"{metric['better']} is better (recorded, not gated)")
        if "tail_percentile" in record:
            print(f"  (op_tail is p{record['tail_percentile']:.4g} of {record['tail_samples']} ops)")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    args = _parse(argv)
    try:
        boot.prepare()
    except boot.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, record = run_workload(args)
    if record is None:  # set-up probe
        print(json.dumps(result))
        return 0 if result["failed"] == 0 else 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
