"""Compare benchmark records of a parent commit against a change.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR
    python3 perfbench/compare.py --arrays BASE.npz CHANGE.npz

BASE_DIR and CHANGE_DIR hold the JSON records that ``run.py --out`` writes,
one per run; runs are paired by workload and seed.  For each end-to-end
metric the table gives both sides' median and quartiles over runs, the
relative change of the medians, the share of pairs the change wins, and a
verdict against the bound in BENCHMARK.json:

- ``gain``: the change wins at least 9/10 of the pairs and its median differs
  by more than the parent's own quartile spread;
- ``REGRESSION``: the change's median is worse by more than the bound;
- ``unresolved``: the parent's spread is wider than the bound, and not every
  change run beats every parent run;
- ``no regression`` otherwise.

Per-layer metrics (from ``--trace 1`` records) are listed side by side, and
the output digests are compared for bitwise equality.  ``--arrays`` compares
two saved result array files (``perfbench/out/arrays-<workload>.npz``) and
prints each array's largest relative difference.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    runs = defaultdict(dict)  # (workload, trace) -> seed -> record
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        facts = rec["facts"]
        runs[(facts["workload"], facts["trace"])][facts["seed"]] = rec
    return runs


def summary(values):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(base, change, bound, lower_better, wins, pairs):
    b_med, b_q1, b_q3 = summary(base)
    c_med = statistics.median(change)
    worse = (c_med - b_med) / b_med if lower_better else (b_med - c_med) / b_med
    if pairs and wins >= 0.9 * pairs and abs(c_med - b_med) > b_q3 - b_q1 and worse < 0:
        return "gain"
    if worse > bound:
        return "REGRESSION"
    beats_all = (max(change) < min(base)) if lower_better else (min(change) > max(base))
    if (b_q3 - b_q1) / b_med > bound and not beats_all:
        return "unresolved"
    return "no regression"


def compare_runs(base_dir, change_dir):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(base_dir), load(change_dir)
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        b_runs, c_runs = base[key], change[key]
        seeds = sorted(set(b_runs) & set(c_runs))
        print(f"\n== {workload} ({'per-layer' if trace else 'end-to-end'}; "
              f"{len(b_runs)} parent runs, {len(c_runs)} change runs, {len(seeds)} pairs)")
        for decl in bench["per_layer" if trace else "end_to_end"]:
            name, lower = decl["name"], decl["better"] == "lower"
            b = [r["metrics"][name]["value"] for r in b_runs.values() if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in c_runs.values() if name in r["metrics"]]
            if not b or not c:
                continue
            b_med, b_q1, b_q3 = summary(b)
            c_med, c_q1, c_q3 = summary(c)
            rel = (c_med - b_med) / b_med if b_med else (0.0 if c_med == 0 else float("inf"))
            line = (f"{name:42s} parent {b_med:.6g} [{b_q1:.4g}, {b_q3:.4g}]  "
                    f"change {c_med:.6g} [{c_q1:.4g}, {c_q3:.4g}]  {rel:+.1%} {decl['unit']}")
            if not trace:
                pairs = [(b_runs[s]["metrics"][name]["value"], c_runs[s]["metrics"][name]["value"])
                         for s in seeds]
                wins = sum((cv < bv) if lower else (cv > bv) for bv, cv in pairs)
                line += (f"  wins {wins}/{len(pairs)}  "
                         f"{verdict(b, c, decl['bound'], lower, wins, len(pairs))}")
            print(line)
        b_dig = {d for r in b_runs.values() for d in r["digest"]}
        c_dig = {d for r in c_runs.values() for d in r["digest"]}
        print(f"outputs {'bitwise equal' if b_dig == c_dig else 'DIFFER'}: "
              f"parent {sorted(b_dig)} change {sorted(c_dig)}")


def compare_arrays(base_path, change_path):
    import numpy as np

    with np.load(base_path) as base, np.load(change_path) as change:
        for key in sorted(set(base.files) | set(change.files)):
            if key not in base.files or key not in change.files:
                print(f"{key:16s} only in {'parent' if key in base.files else 'change'}")
                continue
            a, b = base[key], change[key]
            if a.shape != b.shape:
                print(f"{key:16s} shape {a.shape} vs {b.shape}")
            elif np.array_equal(a, b):
                print(f"{key:16s} bitwise equal")
            else:
                rel = np.abs(b - a) / np.maximum(np.abs(a), np.finfo(float).tiny)
                print(f"{key:16s} max rel diff {float(np.max(rel)):.3e}")


def main(argv):
    if len(argv) == 3 and argv[0] == "--arrays":
        compare_arrays(argv[1], argv[2])
    elif len(argv) == 2:
        compare_runs(argv[0], argv[1])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
