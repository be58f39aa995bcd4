"""The benchmark harness in ``perfbench/`` reads creditfolio by name; these tests pin what it reads.

``perfbench/spans.py`` wraps public functions of the package by attribute
name, and ``perfbench/worker.py`` reads the arrays and report of a
``SolveResult``.  A rename on the package side would otherwise surface only
in the minutes-long ``python3 -m pytest perfbench``.  The harness files are
imported read-only.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import creditfolio as cf
import creditfolio.cli  # noqa: F401  (the harness reaches cli as cf.cli)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCH = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import worker

    return spans, worker


def test_worker_reads_a_traced_solve(harness, tmp_path):
    spans, worker = harness
    size = worker.SIZES["solve_s5"]["smoke"]
    workload = worker.Workload("solve_s5", cf, size, tmp_path, seed=1)
    tracer = spans.Tracer("contract")
    try:
        spans.install(tracer, cf)   # every wrapped name must exist
        with tracer.span("workflow.solve_s5"):
            rc = workload.run()
    finally:
        tracer.uninstall()
    assert rc == 0 and workload.result is not None
    assert not hasattr(cf.cli.dump_solution, "__wrapped__")   # the wrappers are gone

    layers = worker.layer_metrics(tracer.spans, workload.layer_result)
    # run.py adds the tracer's own overhead to the worker's metrics
    assert set(layers) == {m["name"] for m in BENCH["per_layer"]} - {"trace.overhead_frac"}
    for name in ("cli.dump_solution.s", "cli.dump_solution.mb", "model.validate_spec.s",
                 "pde.step_slice.bootstrap.s", "pde.step_slice.calls",
                 "pde.solve_recursive_system.s", "pde.truncation_bounds.s",
                 "strategy.solve_hhat_slice.calls", "strategy.build_policy.incl_s"):
        assert layers[name] > 0, name

    arrays = worker.result_arrays(workload.result)
    n_t, n_y, n = size["n_t"], size["n_y"], 2
    assert list(arrays) == [f"{name}_{bits}" for bits in ("00", "01", "10", "11")
                            for name in ("f", "df", "hhat", "theta", "ahat", "pi", "c_mult")]
    for key, arr in arrays.items():
        per_name = key.split("_")[0] in ("hhat", "theta", "ahat", "pi")
        assert arr.shape == (n_t + 1, n_y) + ((n,) if per_name else ()), key
        assert np.all(np.isfinite(arr)), key
    assert len(worker.digest(arrays)) == 64
    assert workload.check(rc) == (4, [])


def test_worker_runs_a_traced_simulate_from_a_saved_solution(harness, tmp_path):
    spans, worker = harness
    # set-up solves scott_example22 through cli.main and dumps it; the workflow loads it back
    workload = worker.Workload("mc_scott", cf, worker.SIZES["mc_scott"]["smoke"], tmp_path, seed=1)
    tracer = spans.Tracer("contract")
    try:
        spans.install(tracer, cf)
        with tracer.span("workflow.mc_scott"):
            rc = workload.run()
    finally:
        tracer.uninstall()
    assert rc == 0
    # 3n + 3 compensator and G-martingale checks, two Feynman-Kac probes per state, the gap
    assert workload.check(rc) == (3 * 2 + 3 + 2 * 4 + 1, [])
    layers = worker.layer_metrics(tracer.spans, workload.layer_result)
    # cli reaches both path passes through the module attributes the harness wraps
    for name in ("cli.load_solution.s", "sim.mc_feynman_kac.s", "sim.simulate_market.s"):
        assert layers[name] > 0, name


def test_worker_n4_config_passes_the_key_check(harness):
    _, worker = harness
    cfg = worker.n4_config(cf.cli)
    cf.cli._check_config_keys(cfg)
    assert cf.cli.build_model(cfg).n == 4


def test_ci_runs_the_tier1_command_and_the_harness_tests():
    # the workflow runs ROADMAP's Tier-1 command verbatim, on the pinned toolchain
    import re

    import yaml

    root = PERFBENCH.parent
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (root / "ROADMAP.md").read_text())[1]
    flow = yaml.safe_load((root / ".github" / "workflows" / "tier1.yml").read_text())
    assert set(flow["on"]) == {"push", "pull_request"}
    steps = flow["jobs"]["tier1"]["steps"]
    assert {"python-version": "3.11"} in [step.get("with") for step in steps]
    runs = [step["run"] for step in steps if "run" in step]
    assert '"numpy==2.4.*"' in runs[0] and '"scipy==1.17.*"' in runs[0]
    assert runs[1:] == [tier1, "python3 -m pytest perfbench -q"]
