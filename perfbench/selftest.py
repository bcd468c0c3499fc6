"""Self-test of the benchmark harness, at small grid sizes.

    python3 -m pytest perfbench/selftest.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit
(and, in the record, with its direction),
that an op whose expected exit code is wrong counts as failed, that a traced
run leaves every wrapped function identical to the original, and that the
benchmark refuses to run without the package source.  The file is not named
test_*.py, so the repository's own test run does not collect it.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import boot  # noqa: E402

boot.use_source()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((boot.ROOT / "BENCHMARK.json").read_text())
SMALL_GRIDS = {"march": 192, "roundtrip": 128, "verify": 128}  # march needs 192 for 1e-6


@pytest.fixture
def small_pools(monkeypatch):
    """Every workload on a small grid, with one set-up sample (no probe processes)."""
    for name, grid in SMALL_GRIDS.items():
        monkeypatch.setitem(workloads.POOLS, name, functools.partial(workloads.POOLS[name], grid=grid))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


def _run(workload, trace, seconds=0.0):
    return run.run_workload(run._parse(["--workload", workload, "--seed", "3",
                                        "--seconds", str(seconds), "--trace", str(trace)]))


def _bindings():
    """Every function or method object the package holds, by (owner, attribute)."""
    out = {}
    for module in tracing._package_modules():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
            if isinstance(value, type):
                for name, member in vars(value).items():
                    out[(module.__name__, f"{attr}.{name}")] = member
    return out


@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted_with_its_unit(small_pools, trace):
    result, record = _run("verify", trace)
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["errors"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        emitted = result["metrics"][metric["name"]]
        assert emitted == {"value": emitted["value"], "unit": metric["unit"]}
        assert isinstance(emitted["value"], float)
        assert record["metrics"][metric["name"]] == {**emitted, "better": metric["better"]}
    json.dumps(result, allow_nan=False)


def test_end_to_end_metrics_are_positive(small_pools):
    for workload in run.WORKLOADS:
        result, record = _run(workload, 0)
        assert result["correct"], record["errors"]
        emitted = {**result["metrics"], **record["ungated"]}
        assert all(m["value"] > 0.0 for m in emitted.values()), emitted
        assert record["failed_ratio"] == 0.0


def test_wrong_expected_exit_code_raises_failed_ratio(small_pools, monkeypatch):
    build = workloads.POOLS["verify"]

    def with_wrong_expectation(*args, **kwargs):
        cases = build(*args, **kwargs)
        command = cases[-1].commands[0]
        command.expect = 1 - command.expect
        return cases

    monkeypatch.setitem(workloads.POOLS, "verify", with_wrong_expectation)
    result, record = _run("verify", 0)
    assert result["failed"] >= 1
    assert record["failed_ratio"] == result["failed"] / result["attempted"] > 0.0
    assert not result["correct"]
    assert any("expected" in e for e in record["errors"])


def test_traced_run_restores_every_wrapped_function(small_pools):
    before = _bindings()
    result, record = _run("march", 1)
    assert result["correct"], record["errors"]
    assert record["patched_sites"] > len(tracing.TARGETS)  # re-exports were wrapped too
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert result["metrics"]["statics.solve_stress.calls_per_op"]["value"] == 1.0
    assert result["metrics"]["cli.main.calls_per_op"]["value"] == 1.0


def test_self_time_excludes_children_and_misses_count_against_hits():
    tracer = tracing.Tracer()
    spans = [  # (label, parent, start, end): one cache miss, then one hit
        ("framework.grid_jets", -1, 0.0, 10.0),
        ("framework.AnalyticCurve.jet", 0, 2.0, 5.0),
        ("framework.grid_jets", -1, 11.0, 12.0),
    ]
    for label, parent, start, end in spans:
        tracer.label.append(tracing.LABELS.index(label))
        tracer.parent.append(parent)
        tracer.op.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
    summary = tracer.summary(ops=2)
    assert summary["framework.grid_jets.calls_per_op"] == 1.0
    assert summary["framework.grid_jets.self_s_per_op"] == (7.0 + 1.0) / 2
    assert summary["framework.AnalyticCurve.jet.self_s_per_op"] == 3.0 / 2
    assert summary["framework.grid_jets.hit_ratio"] == 0.5


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(boot.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
