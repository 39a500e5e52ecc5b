"""Toy-size self-test of the benchmark: same workload code, gate, tracing
and command line as the full runs.  ``python3 -m pytest -q bench``."""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dmkdv import harness  # noqa: E402
from dmkdv.harness import run_compare  # noqa: E402

REFERENCE = workloads.load_reference()
TOL = REFERENCE["tolerance"]


def expected(name):
    return REFERENCE["rows"][workloads.reference_key(name, toy=True)]


@pytest.mark.parametrize("name", sorted(workloads.TOY))
def test_toy_workload_passes_gate(name):
    call = run.timed_call(workloads.TOY[name], expected(name), TOL)
    assert call["rows"] == len(expected(name))
    assert call["failed"] == 0


def test_gate_counts_drift_missing_and_failed_rows():
    toy = workloads.TOY["asym-fan"]
    records = run_compare(toy.config(), compute_direct=False)
    ref = expected("asym-fan")
    assert workloads.failed_rows(records, ref, TOL) == 0
    drifted = [list(row) for row in ref]
    drifted[0][4] += 10 * TOL
    assert workloads.failed_rows(records, drifted, TOL) == 1
    assert workloads.failed_rows(records[:-1], ref, TOL) == 1
    broken = [replace(records[0], q_asym=math.nan, fail_reason="X: y")]
    assert workloads.failed_rows(broken + records[1:], ref, TOL) == 1


@pytest.mark.parametrize("name", ["accept-sweep", "asym-fan"])
def test_traced_counts_match_the_code(name):
    toy = workloads.TOY[name]
    original = harness.integrate
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        records = run_compare(toy.config(), compute_direct=toy.compute_direct)
    assert harness.integrate is original
    assert workloads.failed_rows(records, expected(name), TOL) == 0
    m = tracing.layer_metrics(tracer.spans)
    rows = len(toy.rays) * len(toy.times)
    assert m["harness.rows"] == rows
    assert m["scattering.evaluator_builds"] == rows
    assert m["phase.calls"] == m["weights.calls"] == rows
    assert m["model.r_evals"] == 4 * rows
    assert m["scattering.r_evals"] == (
        rows * m["weights.r_evals_per_row"] + m["model.r_evals"])
    if toy.compute_direct:
        steps = [round(t / toy.dt) for t in toy.times]
        sites = [2 * math.ceil(2.5 * t + 150.0) + 1 for t in toy.times]
        assert m["lattice.calls"] == rows
        assert m["lattice.steps"] == sum(steps)
        assert m["lattice.site_steps"] == sum(
            s * n for s, n in zip(steps, sites))
    else:
        assert m["lattice.calls"] == m["lattice.steps"] == 0
    for name_, start, end, parent, *_ in tracer.spans:
        assert start <= end
        if parent >= 0:
            assert tracer.spans[parent][1] <= start <= end <= tracer.spans[parent][2]


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_contract_result(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "asym-fan", "--toy",
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for entry in declared:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "asym-fan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
