"""Tests of the benchmark itself, at smoke sizes: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOADS
from spans import has_ancestor, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 9001


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    proc = run_bench(workload, 0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, m in result["metrics"].items():
        assert any(line.startswith(f"{name} = ") and f" {m['unit']} " in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_layers_and_nested_spans(workload):
    for old in (HERE / "out").glob(f"spans-{workload}-seed{SEED}-*.jsonl"):
        old.unlink()
    proc = run_bench(workload, 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH["per_layer"]}

    files = sorted((HERE / "out").glob(f"spans-{workload}-seed{SEED}-*.jsonl"))
    assert files
    spans = [json.loads(line) for line in files[0].read_text().splitlines()]
    roots = [s for s in spans if s["parent"] is None]
    assert [r["name"] for r in roots] == [f"workflow.{workload}"]
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    layers = {s["name"].split(".")[0] for s in spans} - {"workflow"}
    expected = {"solve_s5": {"cli", "model", "pde", "strategy"},
                "lattice_n4": {"model", "pde", "strategy"},
                "mc_scott": {"cli", "model", "sim"}}[workload]
    assert layers == expected


def test_registered_workloads_are_runnable():
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)


def test_self_time_subtracts_children():
    # id, name, tag, start, end, parent
    spans = [[0, "root", None, 0.0, 10.0, None], [1, "a", None, 1.0, 4.0, 0],
             [2, "b", None, 2.0, 3.0, 1], [3, "b", None, 5.0, 6.0, 0]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert has_ancestor(spans, 2, "a") and not has_ancestor(spans, 3, "a")


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = run_bench("solve_s5", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
