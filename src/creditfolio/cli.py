"""Command-line entry point: solve, simulate, sweep, oracle and validate.

Configuration is a sectioned key-value file (INI syntax) mirroring the model
blocks; any preset can serve as a base and individual keys can be overridden
from the command line with repeated ``--set section.key=value`` flags.

Sections and keys (units: rates per year, horizon in years):

    [model]       n (int)
    [factor]      kind=ou, u0, kappa (mu0(y) = u0 - kappa y), sigma0 (comma list,
                  one loading per driver), rho, domain (lo, hi)
    [credit]      kind=exp_affine|zero; for exp_affine: a_<i>_<bits>, b_<i>_<bits>,
                  c_<i>_<bits> per 1-based name i and state bitstring (states
                  omitted inherit the all-alive parameters of the name)
    [market]      mu (comma list), sigma (comma list of diagonal volatilities,
                  or n comma rows separated by ';' for a full constant matrix),
                  sigma_kind=const|scott|stein (scott/stein take sigma_eps and
                  sigma_gamma lists), sigma_scale, r
    [preference]  p, k1, k2, horizon
    [grid]        y_lo, y_hi, n_y, n_t
    [mc]          n_paths, n_steps, seed, y0, x0, state (bitstring)

A section or key outside this list exits 2 naming it, as does a ``[credit]``
coefficient key whose name or bitstring does not fit ``[model] n``.

Exit codes: 0 ok, 2 validation/configuration failure, 3 solver failure (a
step that blows up, or a state whose march leaves its truncation bounds),
4 statistical-test failure.

``solve`` writes the result's stacked arrays as ``.npy`` files (float64, no
pickles): ``f.npy`` and ``df.npy`` (S, n_t+1, n_y), ``policy.npy``
(S, n_t+1, n_y, 3n+2), ``hedge_gap.npy`` (S,), ``t_nodes.npy`` and
``y_nodes.npy``, where S = 2^n and row ``state.bits`` is that state's.  Beside
them go ``bounds.csv`` and ``solve_report.csv`` (a header row, floats at 17
significant digits) and ``run.json`` with the per-state solve times, the
grid, the Python/numpy/scipy versions, the model fingerprint ``spec_sha256``
and the states whose upper truncation bound overflows to +inf
(``unbounded_above``); only ``run.json`` carries timing, so identical reruns
write every other file byte for byte.  ``load_solution`` reads the arrays
back bitwise and rejects, naming the file, artifacts solved for another
model, a missing array, or one whose dtype or shape disagrees with the
model's states and the saved nodes.

``simulate`` runs one controlled Monte Carlo pass at ``seed``: its draws
serve the compensator checks, the G-martingale probes, the duality gap and
the ``--dump-paths`` trajectories; the Feynman–Kac probes run their own pass
at ``seed + 2``, so the seed lies in [0, 2^64 - 3].  It writes
``mc_report.csv``, whose last column ``extra`` holds each check's
diagnostics as ``key=value`` pairs joined by ``;``, and
``simulate.json`` beside it with the run's fingerprint, seed, sizes, solution
directory, versions, the pass's grid-exit and reflection fractions, the
Feynman–Kac pass's own ``n_steps`` and ``seed`` (``feynman_kac``), and each
check's estimate, target, tolerance, verdict and time, so ``mc_report.csv``
carries no timing.

Counts (``--ny``, ``--nt``, ``--paths``, ``--steps`` and their keys) must be
positive, ``[grid] y_lo < y_hi``, ``[mc] x0`` positive, ``[mc] y0`` strictly
inside ``[factor] domain`` and the solved grid, and ``[mc] state`` one digit
per name; otherwise a command exits 2 naming the flag or key before it solves
anything.  The solved grid is ``[grid] y_lo, y_hi``, or with ``--solution``
the loaded ``y_nodes.npy``, so there the ``[mc]`` keys are read once the
solution has loaded.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import oracle as oracle_mod
from . import sim
from .fields import GridSpec, SolveResult, TruncationBounds, lookup, policy_width
from .model import (DefaultState, ModelSpec, PRESET_NAMES, _config_number, all_states,
                    build_model, preset_config, states_by_cardinality, validate_spec)
from .pde import solve_recursive_system
from .strategy import SolverError

__all__ = ["main", "build_model", "preset_config", "load_solution"]

_FMT = "%.17g"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_STATISTICAL = 4


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------


def read_config(path: str) -> dict:
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    return {sec: dict(parser.items(sec)) for sec in parser.sections()}


def apply_overrides(config: dict, pairs: list[str]) -> dict:
    out = {sec: dict(kv) for sec, kv in config.items()}
    for pair in pairs:
        if "=" not in pair or "." not in pair.split("=", 1)[0]:
            raise ValueError(f"override must look like section.key=value, got {pair!r}")
        dotted, value = pair.split("=", 1)
        sec, key = dotted.split(".", 1)
        out.setdefault(sec, {})[key.strip()] = value.strip()
    return out


def _counts(section: str, values: dict, wanted) -> dict:
    """``{key: count}`` from a flag when given, else the config section, else the default.

    ``wanted`` holds ``(key, flag, flag value or None, default)`` rows.
    Raises ValueError naming the flag or ``[section] key`` of a count that is
    not a positive integer.
    """
    counts = {}
    for key, flag, given, default in wanted:
        value = given if given is not None else _config_number(section, values, key, default, int)
        if value <= 0:
            where = flag if given is not None else f"[{section}] {key}"
            raise ValueError(f"{where} must be a positive integer, got {value}")
        counts[key] = value
    return counts


def build_grid(config: dict, args) -> GridSpec:
    g = config.get("grid", {})
    counts = _counts("grid", g, (("n_y", "--ny", args.ny, "401"),
                                 ("n_t", "--nt", args.nt, "400")))
    y_lo, y_hi = (_config_number("grid", g, k, d) for k, d in (("y_lo", "-1.0"), ("y_hi", "1.0")))
    if not y_lo < y_hi:
        raise ValueError(f"empty spatial domain: [grid] y_lo = {y_lo!r} must be below "
                         f"[grid] y_hi = {y_hi!r}")
    return GridSpec(y_lo=y_lo, y_hi=y_hi, **counts)


# Philox keys are unsigned 64-bit, and the Feynman-Kac pass runs at seed + 2
_SEED_MAX = 2**64 - 3


def _mc_params(config: dict, args, spec: ModelSpec, grid: GridSpec, grid_name: str) -> dict:
    """Monte Carlo settings for ``spec`` on the solved ``grid``; ValueError naming a bad key.

    ``grid_name`` says where ``grid`` came from, for the message.
    """
    mc, n = config.get("mc", {}), spec.n
    state = mc.get("state", "0" * n)
    if len(state) != n or any(c not in "01" for c in state):
        raise ValueError(f"[mc] state must be {n} digits 0 or 1, one per name of the "
                         f"n = {n} model, got {state!r}")
    y0, x0 = _config_number("mc", mc, "y0", "0.0"), _config_number("mc", mc, "x0", "1.0")
    lo, hi = spec.factor.domain_lo, spec.factor.domain_hi
    if not lo < y0 < hi:
        raise ValueError(f"[mc] y0 = {y0!r} must lie strictly inside [factor] domain "
                         f"= {lo!r}, {hi!r}")
    if not grid.y_lo < y0 < grid.y_hi:
        raise ValueError(f"[mc] y0 = {y0!r} must lie strictly inside the solved grid, "
                         f"{grid_name} = {grid.y_lo!r}, {grid.y_hi!r}")
    if not x0 > 0:
        raise ValueError(f"[mc] x0 = {x0!r} must be positive (the initial wealth)")
    seed = args.seed if args.seed is not None else _config_number("mc", mc, "seed", "42", int)
    if not 0 <= seed <= _SEED_MAX:
        where = "--seed" if args.seed is not None else "[mc] seed"
        raise ValueError(f"{where} must lie in [0, {_SEED_MAX}] (the Feynman-Kac pass "
                         f"keys its draws by seed + 2), got {seed}")
    return {
        **_counts("mc", mc, (("n_paths", "--paths", args.paths, "100000"),
                             ("n_steps", "--steps", args.steps, "400"))),
        "seed": seed,
        "y0": y0, "x0": x0, "z0": DefaultState.from_bitstring(state),
    }


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_FMT % v if isinstance(v, float) else v for v in row])


def _extra_text(extra: dict) -> str:
    """``key=value`` pairs joined by ``;``, floats at 17 significant digits."""
    return ";".join(f"{key}={_FMT % value if isinstance(value, float) else value}"
                    for key, value in extra.items())


def _read_array(path: Path, shape=None) -> np.ndarray:
    """The float64 array saved in ``path``, of ``shape`` (any 1-D one when None).

    Raises ValueError naming the file when it is missing, unreadable, holds a
    pickled object array, or holds another dtype or shape.
    """
    try:
        values = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise ValueError(f"{path}: missing") from None
    except (OSError, ValueError, EOFError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(values, np.ndarray):
        raise ValueError(f"{path}: not a .npy array")
    if values.dtype != np.float64 or (values.shape != shape if shape else values.ndim != 1):
        raise ValueError(f"{path}: a {values.dtype} array of shape {values.shape}, expected "
                         f"float64 of shape {shape or '(n,)'}")
    return values


def _read_state_rows(path: Path, convert) -> dict:
    """``{state: convert(row)}`` over a per-state CSV; ValueError names the file."""
    with open(path, newline="") as fh:
        try:
            return {row["state"]: convert(row) for row in csv.DictReader(fh)}
        except KeyError as exc:
            raise ValueError(f"{path}: no column {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def _write_json(path: Path, manifest: dict) -> None:
    path.write_text(json.dumps(manifest, indent=1) + "\n")


# solve_report.csv columns after ``state``, with the type each reloads as
_REPORT_COLUMNS = {"resid_max": float, "newton_iters_max": int, "clamp_hits": int,
                   "bound_margin_lo": float, "bound_margin_hi": float, "hedge_gap": float,
                   "ahat_max": float, "bound_violation": bool}


def dump_solution(result: SolveResult, out_dir: Path, spec: ModelSpec) -> None:
    """Write the solve's arrays, its per-state tables and its ``run.json`` into ``out_dir``.

    ``f``, ``df``, the whole ``policy`` table, ``hedge_gap``, ``t_nodes`` and
    ``y_nodes`` go to ``<name>.npy`` (float64, no pickles), the bounds and the
    report rows to ``bounds.csv`` and ``solve_report.csv``.  None of these
    holds a timing, so a rerun writes them byte for byte again; the per-state
    solve times and the march's counts and stage seconds
    (``SolveResult.march``) go to ``run.json`` with the grid, the versions,
    the model's ``spec_sha256`` fingerprint and ``unbounded_above``, the
    states whose ``k_bar`` is +inf.
    """
    for name, values in (("f", result.f), ("df", result.df), ("policy", result.policy),
                         ("hedge_gap", result.hedge_gap), ("t_nodes", result.t_nodes),
                         ("y_nodes", result.grid.y_nodes())):
        np.save(out_dir / f"{name}.npy", np.asarray(values, dtype=np.float64), allow_pickle=False)
    _write_csv(out_dir / "bounds.csv",
               ["state", "k_under", "k_bar_T", "theta_rate", "m_lo", "m_hi",
                "m_lo_norms", "m_hi_norms"],
               [(bits, b.k_under, b.k_bar_final, b.theta_rate, b.m_lo, b.m_hi,
                 b.m_lo_norms, b.m_hi_norms) for bits, b in result.bounds.items()])
    _write_csv(out_dir / "solve_report.csv", ["state", *_REPORT_COLUMNS],
               [(bits, *(float(row[key]) if kind is float else int(row[key])
                         for key, kind in _REPORT_COLUMNS.items()))
                for bits, row in result.report.items()])
    manifest = {"spec_sha256": spec.fingerprint(), "grid": dataclasses.asdict(result.grid),
                "elapsed": {bits: row["elapsed"] for bits, row in result.report.items()
                            if "elapsed" in row},
                "march": result.march,
                "unbounded_above": [bits for bits, b in result.bounds.items()
                                    if np.isinf(b.k_bar_final)],
                **_versions()}
    _write_json(out_dir / "run.json", manifest)


def load_solution(out_dir: Path, spec: ModelSpec) -> SolveResult:
    """Rebuild a solve from the artifacts :func:`dump_solution` wrote into ``out_dir``.

    The ``.npy`` arrays load bitwise, ``theta`` and ``hedge_gap`` included.
    ``bounds`` and ``report`` come from ``bounds.csv`` and ``solve_report.csv``
    when present (the report without the ``elapsed`` times of ``run.json``).
    Raises ValueError naming the file when ``run.json`` was written for
    another model (its ``spec_sha256`` differs from ``spec``'s; a manifest
    without one is accepted), when an array is missing, unreadable, not
    float64, or not of the shape the model's 2^n states and the grid of
    ``t_nodes.npy`` and ``y_nodes.npy`` give, when those nodes are not that
    grid's, or when ``out_dir`` holds only the per-state CSVs of an older
    ``solve``.
    """
    out_dir = Path(out_dir)
    if not (out_dir / "f.npy").exists() and any(out_dir.glob("f_state_*.csv")):
        raise ValueError(f"{out_dir / 'f.npy'}: missing; {out_dir} holds only per-state CSVs, "
                         "which are not read back: re-run `creditfolio solve` to write the arrays")
    manifest_path = out_dir / "run.json"
    if manifest_path.is_file():
        try:
            solved_for = json.loads(manifest_path.read_text()).get("spec_sha256")
        except (ValueError, AttributeError) as exc:
            raise ValueError(f"{manifest_path}: {exc}") from None
        if solved_for is not None and solved_for != spec.fingerprint():
            raise ValueError(f"{manifest_path}: solved for another model (spec_sha256 "
                             f"{solved_for}, this model {spec.fingerprint()})")
    t_path, y_path = out_dir / "t_nodes.npy", out_dir / "y_nodes.npy"
    t_nodes, y_nodes = _read_array(t_path), _read_array(y_path)
    try:
        grid = GridSpec(float(y_nodes[0]), float(y_nodes[-1]), len(y_nodes), len(t_nodes) - 1)
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{y_path}, {t_path}: no grid ({exc})") from None
    for path, nodes, expected in ((t_path, t_nodes, grid.t_nodes(spec.pref.T)),
                                  (y_path, y_nodes, grid.y_nodes())):
        if not np.array_equal(nodes, expected):
            raise ValueError(f"{path}: not the uniform nodes of the grid {grid} at horizon "
                             f"{spec.pref.T!r}")
    S = 2 ** spec.n
    shape = (S, grid.n_t + 1, grid.n_y)
    result = SolveResult(
        grid=grid, t_nodes=t_nodes, f=_read_array(out_dir / "f.npy", shape),
        df=_read_array(out_dir / "df.npy", shape),
        policy=_read_array(out_dir / "policy.npy", shape + (policy_width(spec.n),)),
        hedge_gap=_read_array(out_dir / "hedge_gap.npy", (S,)))

    def bound(row):
        return TruncationBounds(
            state=DefaultState.from_bitstring(row["state"]), k_under=float(row["k_under"]),
            m_lo=float(row["m_lo"]), m_hi=float(row["m_hi"]), theta_rate=float(row["theta_rate"]),
            f0=spec.f0, beta=spec.beta, T=spec.pref.T, m_lo_norms=float(row["m_lo_norms"]),
            m_hi_norms=float(row["m_hi_norms"]))

    def report_row(row):
        # a report written before a column existed restores the columns it has
        return {key: float(row[key]) if kind is float else kind(int(row[key]))
                for key, kind in _REPORT_COLUMNS.items() if key in row}

    bounds_path, report_path = out_dir / "bounds.csv", out_dir / "solve_report.csv"
    if bounds_path.is_file():
        result.bounds = _read_state_rows(bounds_path, bound)
    if report_path.is_file():
        result.report = _read_state_rows(report_path, report_row)
    return result


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


# every key some command reads, by section; build_model checks the [credit] coefficient
# keys a_<i>_<bits>, b_<i>_<bits> and c_<i>_<bits> against n
_CONFIG_KEYS = {
    "model": ("n",),
    "factor": ("kind", "u0", "kappa", "sigma0", "rho", "domain"),
    "credit": ("kind", "a_<i>_<bits>", "b_<i>_<bits>", "c_<i>_<bits>"),
    "market": ("mu", "sigma", "sigma_kind", "sigma_eps", "sigma_gamma", "sigma_scale", "r"),
    "preference": ("p", "k1", "k2", "horizon"),
    "grid": ("y_lo", "y_hi", "n_y", "n_t"),
    "mc": ("n_paths", "n_steps", "seed", "y0", "x0", "state"),
}


def _check_config_keys(config: dict) -> None:
    """ValueError naming the first section or key of ``config`` that no command reads."""
    for section, values in config.items():
        known = _CONFIG_KEYS.get(section)
        if known is None:
            raise ValueError(f"unknown config section [{section}]; the sections are "
                             + ", ".join(f"[{name}]" for name in _CONFIG_KEYS))
        for key in values:
            if key not in known and not (section == "credit" and key[:2] in ("a_", "b_", "c_")):
                raise ValueError(f"unknown config key [{section}] {key}; [{section}] takes "
                                 + ", ".join(known))


def _resolve_config(args) -> dict:
    if args.config:
        config = read_config(args.config)
    elif args.preset:
        config = preset_config(args.preset)
    else:
        raise ValueError("supply --preset or --config")
    config = apply_overrides(config, args.set or [])
    _check_config_keys(config)
    return config


def cmd_validate(args) -> int:
    config = _resolve_config(args)
    spec = build_model(config)
    grid = build_grid(config, args)
    report = validate_spec(spec, grid.y_nodes())
    print(report)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "validation.csv", ["check", "passed", "detail", "where"],
                   [(c.name, int(c.passed), c.detail,
                     "" if c.where is None else _FMT % c.where) for c in report.checks])
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_solve(args) -> int:
    config = _resolve_config(args)
    spec = build_model(config)
    grid = build_grid(config, args)
    report = validate_spec(spec, grid.y_nodes())
    if not report.ok:
        print(report, file=sys.stderr)
        return EXIT_VALIDATION
    result = solve_recursive_system(spec, grid, validate=False)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump_solution(result, out, spec)
    for bits, row in sorted(result.report.items()):
        print(f"state {bits}: solved in {row['elapsed']:.2f}s, control residual "
              f"{row['resid_max']:.2e}, clamp hits {row['clamp_hits']}")
    return EXIT_OK


_FK_STEPS = 256   # the Feynman–Kac pass's own steps, whatever --steps says


def cmd_simulate(args) -> int:
    config = _resolve_config(args)
    spec = build_model(config)
    grid = build_grid(config, args)
    if args.dump_paths < 0:
        raise ValueError(f"--dump-paths must be zero or a positive integer, got {args.dump_paths}")
    report = validate_spec(spec, grid.y_nodes())
    if not report.ok:
        print(report, file=sys.stderr)
        return EXIT_VALIDATION
    if args.solution:
        result = load_solution(Path(args.solution), spec)
        mc = _mc_params(config, args, spec, result.grid, f"{Path(args.solution) / 'y_nodes.npy'}")
    else:
        mc = _mc_params(config, args, spec, grid, "[grid] y_lo, y_hi")
        result = solve_recursive_system(spec, grid, validate=False)

    # Feynman–Kac first: run after the controlled pass, its buffers stack on the heap that
    # pass grew (about 1 MB more peak RSS at 4000 paths; the time does not move)
    fk_probes = [(state, (t_probe, mc["y0"])) for state in states_by_cardinality(spec.n)
                 for t_probe in (0.5 * spec.pref.T, spec.pref.T)]
    fk_run = {"n_steps": _FK_STEPS, "seed": mc["seed"] + 2}
    fk_reports = sim.mc_feynman_kac(spec, result, fk_probes, mc["n_paths"], **fk_run)
    # one controlled pass serves the compensator, G-martingale, duality-gap and path outputs
    probes = (0.25 * spec.pref.T, 0.5 * spec.pref.T, spec.pref.T)
    bundle = sim.simulate_market(spec, mc["n_paths"], mc["n_steps"], mc["seed"], y0=mc["y0"],
                                 z0=mc["z0"], probe_times=probes, keep=args.dump_paths,
                                 result=result, x0=mc["x0"])
    reports = [*sim._compensator_reports(bundle), *sim._g_reports(bundle), *fk_reports,
               sim._duality_report(bundle, result)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.dump_paths:
        kept = bundle.kept
        rows = []
        for path_i in range(kept["Y"].shape[0]):
            for kk, t in enumerate(bundle.t_mesh):
                rows.append((path_i, float(t), float(kept["Y"][path_i, kk]),
                             format(int(kept["H_bits"][path_i, kk]), f"0{spec.n}b")[::-1],
                             float(kept["X"][path_i, kk]), float(kept["c"][path_i, kk]),
                             float(kept["Gamma"][path_i, kk])))
        _write_csv(out / "paths.csv", ["path", "t", "Y", "H_bits", "X", "c", "Gamma"], rows)
    _write_csv(out / "mc_report.csv",
               ["test", "estimate", "target", "se", "tolerance", "n_paths", "pass", "extra"],
               [(r.name, r.estimate, r.target, r.se, r.tolerance, r.n_paths,
                 int(r.passed), _extra_text(r.extra)) for r in reports])
    _write_json(out / "simulate.json", {
        "spec_sha256": spec.fingerprint(), "seed": mc["seed"], "n_paths": mc["n_paths"],
        "n_steps": mc["n_steps"],
        "solution": str(Path(args.solution).resolve()) if args.solution else None,
        **_versions(), "grid_exit_frac": bundle.grid_exit_frac,
        "exit_fraction": bundle.exit_fraction, "feynman_kac": fk_run,
        "stages": {"simulate_market": bundle.stages, "mc_feynman_kac": fk_reports[0].stages},
        "checks": [{"name": r.name, "estimate": r.estimate, "target": r.target,
                    "tolerance": r.tolerance, "passed": bool(r.passed), "elapsed": r.elapsed}
                   for r in reports]})
    n_fail = sum(not r.passed for r in reports)
    for r in reports:
        print(r)
    return EXIT_OK if n_fail == 0 else EXIT_STATISTICAL


_SWEEPS = {
    "fig1": {"axis": "t", "values": (0.0, 0.3, 0.6), "p": 0.8},
    "fig2": {"axis": "p", "values": (0.1, 0.5, 0.8), "t": 0.6},
    "fig3": {"axis": "sigma_scale", "values": (1.0, 1.25, 1.5), "t": 0.0, "p": 0.1},
}


def cmd_sweep(args) -> int:
    config = _resolve_config(args)
    plan = _SWEEPS[args.sweep]
    rows = []

    def emit(result, spec, grid, axis_value, t_clock):
        u = spec.pref.T - t_clock
        y_nodes = grid.y_nodes()
        for state in all_states(spec.n):
            pi_slice = lookup(result.channel("pi"), result.t_nodes, y_nodes, u, state.bits,
                              y_nodes)
            for i in state.alive:
                for j in range(grid.n_y):
                    rows.append((float(axis_value), float(y_nodes[j]), state.bitstring,
                                 i + 1, float(pi_slice[j, i])))

    solve_values = [None] if plan["axis"] == "t" else plan["values"]
    for value in solve_values:
        cfg = {sec: dict(kv) for sec, kv in config.items()}
        p = value if plan["axis"] == "p" else plan.get("p")
        if p is not None and "preference" in cfg:   # without it build_model names the section
            cfg["preference"]["p"] = repr(p)
        if plan["axis"] == "sigma_scale":
            cfg.setdefault("market", {})["sigma_scale"] = repr(value)
        spec = build_model(cfg)
        grid = build_grid(cfg, args)
        report = validate_spec(spec, grid.y_nodes())
        if not report.ok:
            print(report, file=sys.stderr)
            return EXIT_VALIDATION
        result = solve_recursive_system(spec, grid, validate=False)
        if plan["axis"] == "t":
            for t_clock in plan["values"]:
                emit(result, spec, grid, t_clock, t_clock)
        else:
            emit(result, spec, grid, value, plan["t"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / f"sweep_{args.sweep}.csv",
               ["axis_value", "y", "state", "name", "pi_hat"], rows)
    print(f"wrote sweep_{args.sweep}.csv with {len(rows)} rows")
    return EXIT_OK


def cmd_oracle(args) -> int:
    m = oracle_mod.ScalarModel(lambda0=args.lambda0, sigma=args.sigma_s, xi=args.xi,
                               r=args.r, q=args.q, K1=args.k1, K2=args.k2, T=args.horizon)
    rows = []
    for t in np.linspace(0.0, m.T, 9):
        rows.append(("all_defaulted_f", float(t), float(oracle_mod.all_defaulted_closed_form(t, m))))
    if m.q == 0.0 and m.lambda0 > 0:
        try:
            fp = oracle_mod.picard_fixed_point(m)
            resid = oracle_mod.fixed_point_residual(fp, m)
            for u in np.linspace(0.0, m.T, 9):
                rows.append(("loading_fixed_point_x", float(u), float(fp(u))))
            rows.append(("fixed_point_residual", m.T, float(resid)))
            rows.append(("contraction_sup", m.T, float(fp.contraction_sup)))
        except ValueError as exc:
            print(f"fixed point unavailable: {exc}", file=sys.stderr)
    rows.append(("merton_fraction", 0.0,
                 oracle_mod.merton_fraction(args.mu, args.r, args.sigma_s, args.p)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "oracle.csv", ["quantity", "t", "value"], rows)
    for name, t, v in rows:
        print(f"{name}(t={t:g}) = {v:.12g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="creditfolio",
        description="Optimal investment/consumption with defaultable stocks: "
                    "solve the default-state PDE system, extract policies, validate by simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_mc=False):
        p.add_argument("--preset", choices=PRESET_NAMES, help="named model preset")
        p.add_argument("--config", help="INI model configuration file")
        p.add_argument("--set", action="append", metavar="SEC.KEY=VAL",
                       help="override one configuration key (repeatable)")
        p.add_argument("--out", default="out", help="output directory for the artifacts")
        p.add_argument("--ny", type=int, help="spatial nodes (odd)")
        p.add_argument("--nt", type=int, help="time steps")
        if with_mc:
            p.add_argument("--seed", type=int, help="Monte Carlo seed")
            p.add_argument("--paths", type=int, help="Monte Carlo paths")
            p.add_argument("--steps", type=int, help="Monte Carlo time steps")

    p_solve = sub.add_parser(
        "solve", help="solve the PDE system; write f, df, policy, hedge_gap and the nodes as "
                      ".npy, bounds.csv, solve_report.csv and run.json")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo validation suite")
    common(p_sim, with_mc=True)
    p_sim.add_argument("--solution", help="directory a prior solve wrote its artifacts to")
    p_sim.add_argument("--dump-paths", type=int, default=0, metavar="N",
                       help="also write the first N simulated trajectories to paths.csv")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="policy sweeps behind the sensitivity figures")
    common(p_sweep)
    p_sweep.add_argument("--sweep", choices=sorted(_SWEEPS), required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="check model assumptions on the grid")
    common(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_or = sub.add_parser("oracle", help="closed-form single-name ground truths")
    p_or.add_argument("--out", default="out")
    p_or.add_argument("--lambda0", type=float, default=0.5)
    p_or.add_argument("--sigma", dest="sigma_s", type=float, default=0.8)
    p_or.add_argument("--xi", type=float, default=0.25)
    p_or.add_argument("--r", type=float, default=0.1)
    p_or.add_argument("--q", type=float, default=0.0)
    p_or.add_argument("--k1", type=float, default=1.0)
    p_or.add_argument("--k2", type=float, default=1.0)
    p_or.add_argument("--horizon", type=float, default=1.0)
    p_or.add_argument("--mu", type=float, default=0.25)
    p_or.add_argument("--p", type=float, default=0.5)
    p_or.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
