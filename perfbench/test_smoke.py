"""Smoke test of the benchmark: every workload, shrunk, in both modes.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py

It checks the result line's schema and metric names against BENCHMARK.json,
that the tracer survives a deleted attribute, and that the benchmark refuses
to run without the package sources. It asserts no timings.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_TIMEOUT_S = 120


def run_bench(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_schema(workload, trace):
    proc = run_bench(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert set(reported) == {"value", "unit"}
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))


def test_tracer_skips_missing_attributes_and_restores(monkeypatch):
    import workloads  # puts the checkout's src first on sys.path
    from tracing import Tracer

    solver = sys.modules["orbitact.solver"]
    monkeypatch.delattr(solver, "_action_hessian")
    original = solver._action_value
    spec = workloads.equal_mass_spec(2)
    loop = solver.circular_seed(spec, 2, 8, 1, 0, 1)
    tracer = Tracer()
    with tracer:
        solver._action_value(spec, loop)
    spans = tracer.spans
    assert spans[("action", "action_hessian")].calls == 0
    assert spans[("action", "action_value")].calls == 1
    assert spans[("loopspace", "sample_trajectory")].calls == 1
    assert spans[("potential", "grid_potential")].calls == 1
    assert solver._action_value is original


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__")
        )
    proc = run_bench(tmp_path, "ladder2", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
