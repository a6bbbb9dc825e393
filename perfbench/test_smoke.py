"""Smoke test of the benchmark itself, at S scale (the default SynthConfig).

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Each case runs perfbench/run.py once with seed 7 and checks that the last
line of its output is a correct result naming every metric BENCHMARK.json
declares, each with its unit.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "S"],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(workload, trace, kind):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name], name
        assert isinstance(metric["value"], (int, float)) and not isinstance(metric["value"], bool)
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        calls_solvers = workload.startswith("full-")
        assert (values["mrf.solve_binary_s"] > 0) == calls_solvers
        assert (values["gmm.fit_gmm_s"] > 0) == calls_solvers
        assert values["trace.coverage"] >= 0.9


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_metrics_doc_maps_every_per_layer_metric():
    with open(os.path.join(ROOT, "perfbench", "METRICS.md"), encoding="utf-8") as fh:
        doc = fh.read()
    missing = [m["name"] for m in SPEC["per_layer"] if f"`{m['name']}`" not in doc]
    assert not missing
