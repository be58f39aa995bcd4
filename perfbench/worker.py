"""One iteration of one benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --work DIR
        [--spans FILE] [--arrays FILE] [--smoke]

The process sets up (imports, model build and, for ``mc_scott``, the solve
and dump that produce the solution it loads), then runs the timed workflow
once through creditfolio's public entry points, then checks the outputs.
With ``--spans`` the timed workflow runs under the span recorder and the
per-layer metrics are returned.  The last line of standard output is one JSON
object; ``run.py`` starts this script and reads that line.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Workload sizes.  The solve grids keep n_t >= 128 so that the all-defaulted
# state meets the 1e-6 closed-form check (its error is second order in dt:
# 1.2e-6 at n_t = 100).  The smoke sizes shorten the horizon to keep dt small
# while running in a few seconds.
SIZES = {
    "solve_s5": {"full": {"n_y": 201, "n_t": 200},
                 "smoke": {"n_y": 21, "n_t": 40, "horizon": 0.25}},
    "lattice_n4": {"full": {"n_y": 101, "n_t": 128},
                   "smoke": {"n_y": 11, "n_t": 8, "horizon": 0.05}},
    "mc_scott": {"full": {"n_y": 101, "n_t": 100, "paths": 4000, "steps": 100},
                 "smoke": {"n_y": 41, "n_t": 40, "paths": 500, "steps": 25}},
}

RESID_TOL = 1e-10        # control residual above this fails a state
CLOSED_FORM_TOL = 1e-6   # relative error of the all-defaulted state (criterion 1)

DUMPED = ("f_state_*.csv", "policy_state_*.csv", "bounds.csv", "solve_report.csv")
LOADED = ("f_state_*.csv", "policy_state_*.csv")


def n4_config(cli) -> dict:
    """The 3-name spec of tests/test_cli.py extended by a fourth name (rho = 0, constant sigma)."""
    cfg = cli.preset_config("benchmark_s5")
    cfg["model"]["n"] = "4"
    cfg["credit"] = {"kind": "exp_affine",
                     "a_1_0000": "0.6", "b_1_0000": "0.4", "c_1_0000": "0.1",
                     "a_2_0000": "0.5", "b_2_0000": "0.3", "c_2_0000": "0.1",
                     "a_3_0000": "0.4", "b_3_0000": "0.2", "c_3_0000": "0.1",
                     "a_4_0000": "0.3", "b_4_0000": "0.1", "c_4_0000": "0.1"}
    cfg["market"]["mu"] = "0.2, 0.2, 0.2, 0.2"
    cfg["market"]["sigma"] = "0.8, 0.8, 0.8, 0.8"
    cfg["factor"]["sigma0"] = "0.6, 0.4, 0.2, 0.1"
    return cfg


class Workload:
    """Set-up, timed workflow and output checks of one named workload."""

    def __init__(self, name, cf, size, work: Path, seed: int):
        self.name, self.cf, self.work = name, cf, work
        self.result = None      # SolveResult the workload's solve produced
        self.layer_result = None  # SolveResult solved inside the timed workflow
        cli = cf.cli
        horizon = ["--set", f"preference.horizon={size['horizon']}"] if "horizon" in size else []
        grid = ["--ny", str(size["n_y"]), "--nt", str(size["n_t"])]
        if name == "solve_s5":
            self.argv = ["solve", "--preset", "benchmark_s5", *grid, *horizon,
                         "--out", str(work / "solve")]
            self.spec = cli.build_model(cli.apply_overrides(cli.preset_config("benchmark_s5"),
                                                            horizon[1:]))
        elif name == "lattice_n4":
            self.spec = cli.build_model(cli.apply_overrides(n4_config(cli), horizon[1:]))
            self.grid = cf.GridSpec(-1.0, 1.0, size["n_y"], size["n_t"])
        elif name == "mc_scott":
            solution = work / "solution"
            rc, self.result = self._cli_solve(["solve", "--preset", "scott_example22", *grid,
                                               *horizon, "--out", str(solution)])
            if rc != 0:
                raise RuntimeError(f"set-up solve of scott_example22 exited {rc}")
            self.spec = cli.build_model(cli.apply_overrides(cli.preset_config("scott_example22"),
                                                            horizon[1:]))
            self.argv = ["simulate", "--preset", "scott_example22", *horizon,
                         "--solution", str(solution), "--paths", str(size["paths"]),
                         "--steps", str(size["steps"]), "--seed", str(seed),
                         "--out", str(work / "mc")]
        else:
            raise ValueError(f"unknown workload {name!r}")

    def _cli_solve(self, argv):
        """cli.main(argv), keeping the SolveResult that cli's solve call returns."""
        cli = self.cf.cli
        kept = []
        solve = cli.solve_recursive_system

        def solve_and_keep(*args, **kwargs):
            kept.append(solve(*args, **kwargs))
            return kept[-1]

        cli.solve_recursive_system = solve_and_keep
        try:
            rc = cli.main(argv)
        finally:
            cli.solve_recursive_system = solve
        return rc, (kept[-1] if kept else None)

    def run(self) -> int:
        """The timed workflow; returns its exit code."""
        if self.name == "solve_s5":
            rc, self.result = self._cli_solve(self.argv)
            self.layer_result = self.result
            return rc
        if self.name == "lattice_n4":
            try:
                self.result = self.cf.solve_recursive_system(self.spec, self.grid)
            except self.cf.SolverError as exc:
                print(f"solver error: {exc}", file=sys.stderr)
                return 3
            self.layer_result = self.result
            return 0
        return self.cf.cli.main(self.argv)

    def check(self, rc: int):
        """(operations attempted, one line per failed operation)."""
        if self.name == "mc_scott":
            return self._check_mc(rc)
        return self._check_states(rc)

    def _check_states(self, rc):
        import numpy as np

        cf, spec = self.cf, self.spec
        states = [s.bitstring for s in cf.states_by_cardinality(spec.n)]
        if rc != 0 or self.result is None:
            return len(states), [f"state {bits}: workflow exited {rc}" for bits in states]
        oracle = cf.ScalarModel(lambda0=0.0, sigma=0.8, xi=0.0, r=0.2, q=spec.q,
                                K1=spec.pref.K1, K2=spec.pref.K2, T=spec.pref.T)
        failures = []
        for bits in states:
            row = self.result.report[bits]
            fld, pol = self.result.fields[bits], self.result.policies[bits]
            problems = []
            if row.get("bound_violation"):
                problems.append("solution left its a-priori bounds")
            resid = max(row["resid_max"], row.get("policy_resid_max", 0.0))
            if not resid <= RESID_TOL:
                problems.append(f"control residual {resid:.3e} > {RESID_TOL:g}")
            if not all(np.all(np.isfinite(a)) for _, a in arrays_of(fld, pol)):
                problems.append("non-finite values in the solution")
            if bits == "1" * spec.n:
                exact = cf.all_defaulted_closed_form(fld.t_nodes, oracle)
                rel = float(np.max(np.abs(fld.f - exact[:, None]) / exact[:, None]))
                if not rel <= CLOSED_FORM_TOL:
                    problems.append(f"closed-form rel error {rel:.3e} > {CLOSED_FORM_TOL:g}")
            if problems:
                failures.append(f"state {bits}: " + "; ".join(problems))
        return len(states), failures

    def _check_mc(self, rc):
        report = self.work / "mc" / "mc_report.csv"
        if rc not in (0, 4) or not report.is_file():
            n = self.spec.n
            checks = 3 * n + 3 + 2 * 2**n + 1  # compensator, G probes, Feynman-Kac, duality gap
            return checks, [f"simulate exited {rc}"] * checks
        with open(report, newline="") as fh:
            rows = list(csv.DictReader(fh))
        failures = [f"check {r['test']}: estimate {r['estimate']} vs target {r['target']} "
                    f"(tolerance {r['tolerance']})" for r in rows if r["pass"] != "1"]
        if rc == 4 and not failures:
            failures = [f"simulate exited {rc} with every check passing"]
        return len(rows), failures

    def report_sha256(self):
        report = self.work / "mc" / "mc_report.csv"
        return hashlib.sha256(report.read_bytes()).hexdigest() if report.is_file() else None


def arrays_of(fld, pol):
    return (("f", fld.f), ("df", fld.df), ("hhat", pol.hhat), ("theta", pol.theta),
            ("ahat", pol.ahat), ("pi", pol.pi), ("c_mult", pol.c_mult))


def result_arrays(result):
    """Every solved f, df and policy array, keyed name_bits, in a fixed order."""
    import numpy as np

    out = {}
    for bits in sorted(result.fields):
        for name, arr in arrays_of(result.fields[bits], result.policies[bits]):
            out[f"{name}_{bits}"] = np.ascontiguousarray(arr, dtype=np.float64)
    return out


def digest(arrays) -> str:
    h = hashlib.sha256()
    for key, arr in arrays.items():
        h.update(f"{key}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def csv_mb(directory, patterns) -> float:
    return sum(p.stat().st_size for pat in patterns for p in Path(directory).glob(pat)) / 1e6


def layer_metrics(spans, layer_result) -> dict:
    from spans import has_ancestor, self_times

    own = self_times(spans)
    secs = defaultdict(float)
    calls = Counter()
    for span, t in zip(spans, own):
        name = span[1]
        calls[name] += 1
        secs[f"{name}.{span[2]}" if name == "pde.step_slice" else name] += t
    march_calls = sum(1 for span in spans if span[1] == "strategy.solve_hhat_slice"
                      and not has_ancestor(spans, span[0], "strategy.build_policy"))
    report = layer_result.report if layer_result is not None else {}
    steps = calls["pde.step_slice"]
    return {
        "cli.dump_solution.s": secs["cli.dump_solution"],
        "cli.dump_solution.mb": sum(csv_mb(s[2], DUMPED) for s in spans
                                    if s[1] == "cli.dump_solution"),
        "cli.load_solution.s": secs["cli.load_solution"],
        "cli.load_solution.mb": sum(csv_mb(s[2], LOADED) for s in spans
                                    if s[1] == "cli.load_solution"),
        "model.validate_spec.s": secs["model.validate_spec"],
        "pde.step_slice.bootstrap.s": secs["pde.step_slice.bootstrap"],
        "pde.step_slice.clamped.s": secs["pde.step_slice.clamped"],
        "pde.step_slice.calls": steps,
        # states whose clamped pass hit the clamp / states that ran a clamped pass
        "pde.clamp_pass.useful_frac": (sum(r["clamp_hits"] > 0 for r in report.values())
                                       / len(report) if report else 0.0),
        "pde.solve_recursive_system.s": secs["pde.solve_recursive_system"],
        "pde.truncation_bounds.s": secs["pde.truncation_bounds"],
        "strategy.solve_hhat_slice.s": secs["strategy.solve_hhat_slice"],
        "strategy.solve_hhat_slice.calls": calls["strategy.solve_hhat_slice"],
        "strategy.solve_hhat_slice.calls_per_step": march_calls / steps if steps else 0.0,
        "strategy.build_policy.incl_s": sum(s[4] - s[3] for s in spans
                                            if s[1] == "strategy.build_policy"),
        "strategy.newton_iters_max": max((r["newton_iters_max"] for r in report.values()),
                                         default=0),
        "sim.simulate_market.s": secs["sim.simulate_market"],
        "sim.check_G_martingale.s": secs["sim.check_G_martingale"],
        "sim.mc_feynman_kac.s": secs["sim.mc_feynman_kac"],
        "sim.mc_feynman_kac.calls": calls["sim.mc_feynman_kac"],
        "sim.duality_gap.s": secs["sim.duality_gap"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="scratch directory for artifacts")
    parser.add_argument("--spans", help="trace the workflow and write its spans here")
    parser.add_argument("--arrays", help="also save the digested arrays to this .npz")
    parser.add_argument("--smoke", action="store_true", help="seconds-long sizes for tests")
    args = parser.parse_args(argv)

    if not (SRC / "creditfolio" / "__init__.py").is_file():
        print(f"error: no creditfolio package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import creditfolio as cf
    import creditfolio.cli  # noqa: F401  (cf.cli below)
    if Path(cf.__file__).resolve().parent != (SRC / "creditfolio").resolve():
        print(f"error: imported creditfolio from {cf.__file__}, not {SRC}", file=sys.stderr)
        return 2

    size = SIZES[args.workload]["smoke" if args.smoke else "full"]
    work = Path(args.work)
    workload = Workload(args.workload, cf, size, work, args.seed)
    setup_s = time.perf_counter() - T_START

    tracer = None
    if args.spans:
        from spans import Tracer, install

        tracer = Tracer(f"{args.workload}-seed{args.seed}-{work.name}")
        install(tracer, cf)
    started = time.perf_counter()
    with tracer.span(f"workflow.{args.workload}") if tracer else nullcontext():
        rc = workload.run()
    wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    record = {"workload": args.workload, "setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mb": peak_rss_mb, "rc": rc, "size": size,
              "python": sys.version.split()[0], "numpy": np.__version__,
              "scipy": scipy.__version__}
    if tracer:
        tracer.uninstall()
        tracer.write(args.spans)
        record["layers"] = layer_metrics(tracer.spans, workload.layer_result)
    record["attempted"], record["failures"] = workload.check(rc)
    if workload.result is not None:
        arrays = result_arrays(workload.result)
        record["digest"] = digest(arrays)
        if args.arrays:
            np.savez(args.arrays, **arrays)
    if args.workload == "mc_scott":
        record["mc_report_sha256"] = workload.report_sha256()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
