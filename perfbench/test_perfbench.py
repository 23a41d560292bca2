"""Tests of the benchmark harness, run on every workload at the tiny size
(m=4 instances, a few scan points and Monte Carlo samples).

Each run is a subprocess, as the harness drives it: every pass re-imports
``mmda_lab``, which must not happen inside the test session.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import DEFAULT_SEED as SEED, HELD_OUT_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, seed=SEED, script=HERE / "run.py", cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def record(workload, trace, seed=SEED):
    path = HERE / ".runs" / f"{workload}-seed{seed}-trace{trace}-tiny.json"
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(results, workload, trace):
    res = results[workload, trace]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for value in (v["value"] for v in res["metrics"].values()):
        assert isinstance(value, (int, float)) and math.isfinite(value)
    if trace == 0:
        assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest(results, workload):
    path = HERE / ".runs" / f"{workload}-seed{SEED}-trace1-tiny.spans.jsonl"
    spans = {s["id"]: s for s in map(json.loads, path.read_text().splitlines())}
    assert spans
    roots = 0
    for s in spans.values():
        assert s["start"] <= s["end"]
        if s["parent"] is None:
            roots += 1
            continue
        parent = spans[s["parent"]]
        assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
        assert parent["job"] == s["job"]
    assert roots >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_reports_are_identical(results, workload):
    plain, traced = record(workload, 0), record(workload, 1)
    assert any(p["traced"] for p in traced["passes"])
    assert plain["report_sha256"] == traced["report_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_passes(workload):
    proc = run_bench(workload, 0, seed=HELD_OUT_SEED)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["failed"] == 0


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / HERE.name).mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / HERE.name)
    proc = run_bench(WORKLOADS[0], 0, script=tmp_path / HERE.name / "run.py",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
