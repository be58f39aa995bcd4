"""creditfolio benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload {solve_s5,lattice_n4,mc_scott} --seed N
        --seconds S --trace {0,1} [--smoke] [--out FILE]

Each iteration is a fresh ``perfbench/worker.py`` process that sets up, runs
the workflow once and checks its outputs; iterations repeat until ``--seconds``
have passed, one at a time.  With ``--trace 0`` the end-to-end metrics are
means over iterations.  With ``--trace 1`` untraced and traced iterations
alternate, and the per-layer metrics are means over the traced ones.  Every
metric is printed by name with its unit; the last line of standard output is
the JSON result.  The exit code is 1 when any operation failed, and 2 when
the package source or BENCHMARK.json is missing.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("solve_s5", "lattice_n4", "mc_scott")
THREAD_ENV = {"CREDITFOLIO_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150


def git_commit():
    """HEAD of the tree's own .git, read as files; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "creditfolio").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_iteration(args, index: int, traced: bool) -> dict:
    """One worker process; returns its record, or a crash record covering its operations."""
    work = OUT / "work" / f"{args.workload}-{os.getpid()}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work)]
    if traced:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}-{index}.jsonl")]
    if index == 0:
        cmd += ["--arrays", str(OUT / f"arrays-{args.workload}.npz")]
    if args.smoke:
        cmd.append("--smoke")
    env = {**os.environ, **THREAD_ENV}
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        out, err, rc = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as exc:
        out, err, rc = "", f"timed out after {exc.timeout} s", None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if rc == 0 and lines else None
    except json.JSONDecodeError:
        record = None
    if record is None:
        tail = " | ".join(err.strip().splitlines()[-3:])
        return {"crashed": f"worker exited {rc}: {tail}"}
    return record


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long sizes, for the benchmark's own tests")
    parser.add_argument("--out", help="also write the full result record to this JSON file")
    args = parser.parse_args(argv)

    declared = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "creditfolio" / "__init__.py").is_file() or not declared.is_file():
        print(f"error: {ROOT} lacks src/creditfolio or BENCHMARK.json", file=sys.stderr)
        return 2
    bench = json.loads(declared.read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    OUT.mkdir(exist_ok=True)

    started = time.perf_counter()
    records = []
    while True:
        t0 = time.perf_counter()
        records.append(run_iteration(args, len(records), traced=args.trace == 1
                                     and len(records) % 2 == 1))
        last = time.perf_counter() - t0
        if "crashed" in records[-1]:
            break
        # start another iteration only if it should end within half an iteration of the deadline
        if time.perf_counter() - started + last / 2 > args.seconds and \
                len(records) >= 1 + args.trace:
            break

    crashed = [r["crashed"] for r in records if "crashed" in r]
    good = [r for r in records if "crashed" not in r]
    failures = [f for r in good for f in r["failures"]]
    per_iteration = max((r["attempted"] for r in good), default=1)
    attempted = sum(r["attempted"] for r in good) + per_iteration * len(crashed)
    failed = len(failures) + per_iteration * len(crashed)
    digests = sorted({r["digest"] for r in good if "digest" in r})
    if len(digests) > 1:
        failures.append(f"outputs differ between iterations: {digests}")
    if crashed:
        failures += crashed

    metrics, samples = {}, {}
    untraced = [r for r in good if "layers" not in r]
    traced = [r for r in good if "layers" in r]
    for decl in wanted:
        name = decl["name"]
        if name == "trace.overhead_frac":
            values = ([statistics.fmean(r["wall_s"] for r in traced)
                       / statistics.fmean(r["wall_s"] for r in untraced) - 1.0]
                      if traced and untraced else [])
        elif args.trace:
            values = [r["layers"][name] for r in traced]
        else:
            values = [r[name] for r in good]
        if values:
            samples[name] = values
            # The mean, not the median: the host's speed drifts smoothly rather than
            # in outliers, and the mean of a run's few iterations varies less.
            metrics[name] = {"value": statistics.fmean(values), "unit": decl["unit"]}
    missing = [d["name"] for d in wanted if d["name"] not in metrics]
    if missing and not crashed:
        failures.append(f"metrics not measured: {missing}")

    first = good[0] if good else {}
    facts = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "run_seconds": args.seconds, "smoke": args.smoke,
        "iterations": len(records), "traced_iterations": len(traced),
        "sizes": first.get("size"), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": first.get("python", platform.python_version()),
        "numpy": first.get("numpy"), "scipy": first.get("scipy"),
        "thread_env": THREAD_ENV, "git_commit": git_commit(), "src_sha256": source_sha256(),
        "loadavg": os.getloadavg(), "elapsed_s": time.perf_counter() - started,
    }
    print("facts " + json.dumps(facts))
    for name, m in metrics.items():
        vals = samples[name]
        q1, q3 = quartiles(vals)
        print(f"{name} = {m['value']:.6g} {m['unit']}  (mean of {len(vals)}; median "
              f"{statistics.median(vals):.6g}, q1 {q1:.6g}, q3 {q3:.6g})")
    print(f"digest sha256 {digests[0] if len(digests) == 1 else digests}")
    if first.get("mc_report_sha256"):
        print(f"mc_report.csv sha256 {first['mc_report_sha256']}")
    print(f"fail_frac = {failed}/{attempted}")
    for line in failures:
        print(f"FAILED {line}")

    correct = not failures and failed == 0 and attempted > 0
    result = {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    if args.out:
        Path(args.out).write_text(json.dumps({**result, "facts": facts, "samples": samples,
                                              "digest": digests, "failures": failures,
                                              "mc_report_sha256": first.get("mc_report_sha256")},
                                             indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
