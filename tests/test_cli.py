import csv
import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import creditfolio as cf
from creditfolio.fields import POLICY_CHANNELS
from creditfolio.model import PRESET_NAMES, all_states
from creditfolio.cli import (EXIT_STATISTICAL, EXIT_VALIDATION, apply_overrides,
                             build_model, dump_solution, load_solution, main, preset_config)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "creditfolio.cli", *args],
                          capture_output=True, text=True)


SMALL = ["--ny", "41", "--nt", "40"]


def three_name_config() -> dict:
    cfg = preset_config("benchmark_s5")
    cfg["model"]["n"] = "3"
    cfg["credit"] = {
        "kind": "exp_affine",
        "a_1_000": "0.6", "b_1_000": "0.4", "c_1_000": "0.1",
        "a_2_000": "0.5", "b_2_000": "0.3", "c_2_000": "0.1",
        "a_3_000": "0.4", "b_3_000": "0.2", "c_3_000": "0.1",
    }
    cfg["market"]["mu"] = "0.2, 0.2, 0.2"
    cfg["market"]["sigma"] = "0.8, 0.8, 0.8"
    cfg["factor"]["sigma0"] = "0.6, 0.4, 0.2"
    return cfg


def write_rows_reference(path, header, rows):
    """The row-by-row csv.writer rendering, floats at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["%.17g" % v if isinstance(v, float) else v for v in row])


BOUNDS_HEADER = ["state", "k_under", "k_bar_T", "theta_rate", "m_lo", "m_hi", "m_lo_norms",
                 "m_hi_norms"]


def bounds_rows(result):
    return [(bits, b.k_under, b.k_bar_final, b.theta_rate, b.m_lo, b.m_hi, b.m_lo_norms,
             b.m_hi_norms) for bits, b in result.bounds.items()]


@pytest.fixture(scope="module")
def solve_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve")
    rc = main(["solve", "--preset", "benchmark_s5", *SMALL, "--out", str(out)])
    assert rc == 0
    return out


# what a default solve writes
ARTIFACTS = {"f.npy", "df.npy", "policy.npy", "hedge_gap.npy", "t_nodes.npy", "y_nodes.npy",
             "bounds.csv", "solve_report.csv", "run.json"}


class TestConfig:
    def test_preset_round_trip(self):
        spec = build_model(preset_config("benchmark_s5"))
        assert spec.n == 2 and spec.q == pytest.approx(-4.0)
        lam = spec.intensity(np.array(0.0), cf.DefaultState.from_bitstring("00"))
        assert lam == pytest.approx([1.0, 0.8])

    def test_overrides(self):
        cfg = apply_overrides(preset_config("benchmark_s5"), ["preference.p=0.1"])
        assert build_model(cfg).pref.p == 0.1

    def test_bad_override_format(self):
        with pytest.raises(ValueError):
            apply_overrides({}, ["nodots"])

    def test_scott_config_build(self):
        spec = build_model(preset_config("scott_example22"))
        assert spec.market.is_diagonal
        assert spec.market.sigma([0.0, 1.0]).shape == (2, 2)

    def test_sigma_scale(self):
        cfg = apply_overrides(preset_config("benchmark_s5"), ["market.sigma_scale=1.5"])
        spec = build_model(cfg)
        assert np.allclose(spec.market.sigma(0.0), 1.2)

    def test_config_file_round_trip(self, tmp_path):
        ini = tmp_path / "model.ini"
        lines = []
        for sec, kv in preset_config("benchmark_s5").items():
            lines.append(f"[{sec}]")
            lines.extend(f"{k} = {v}" for k, v in kv.items())
        ini.write_text("\n".join(lines))
        rc = run_cli("validate", "--config", str(ini))
        assert rc.returncode == 0


class TestSolveCommand:
    def test_artifacts_written(self, solve_dir):
        names = sorted(p.name for p in solve_dir.iterdir())
        assert "bounds.csv" in names and "solve_report.csv" in names
        assert ARTIFACTS <= set(names)

    def test_default_solve_writes_the_arrays_and_no_state_csv(self, solve_dir):
        assert {p.name for p in solve_dir.iterdir()} == ARTIFACTS
        shapes = {"f": (4, 41, 41), "df": (4, 41, 41), "policy": (4, 41, 41, 8),
                  "hedge_gap": (4,), "t_nodes": (41,), "y_nodes": (41,)}
        for name, shape in shapes.items():
            values = np.load(solve_dir / f"{name}.npy", allow_pickle=False)
            assert values.dtype == np.float64 and values.shape == shape, name

    def test_header_and_roundtrip(self, solve_dir):
        with open(solve_dir / "bounds.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == BOUNDS_HEADER
        # 17 significant digits round-trip exactly
        spec = build_model(preset_config("benchmark_s5"))
        result = cf.solve_recursive_system(spec, load_solution(solve_dir, spec).grid)
        assert [(r[0], *map(float, r[1:])) for r in rows[1:]] == bounds_rows(result)

    def test_three_name_spec_writes_eight_states(self, tmp_path):
        cfg = three_name_config()
        ini = tmp_path / "three.ini"
        lines = []
        for sec, kv in cfg.items():
            lines.append(f"[{sec}]")
            lines.extend(f"{k} = {v}" for k, v in kv.items())
        ini.write_text("\n".join(lines))
        out = tmp_path / "out"
        rc = run_cli("solve", "--config", str(ini), "--ny", "21", "--nt", "10",
                     "--out", str(out))
        assert rc.returncode == 0, rc.stderr
        assert np.load(out / "policy.npy").shape == (8, 11, 21, 11)

    def test_writer_bytes_match_csv_writer_reference(self, tmp_path):
        spec = build_model(three_name_config())
        result = cf.solve_recursive_system(spec, cf.GridSpec(-1.0, 1.0, 21, 10))
        dump_solution(result, tmp_path, spec)
        ref = tmp_path / "reference.csv"
        write_rows_reference(ref, BOUNDS_HEADER, bounds_rows(result))
        assert (tmp_path / "bounds.csv").read_bytes() == ref.read_bytes()
        assert np.array_equal(np.load(tmp_path / "policy.npy"), result.policy)
        assert len(result.policies) == 8

    def test_rerun_csvs_are_byte_identical(self, solve_dir, tmp_path):
        rc = run_cli("solve", "--preset", "benchmark_s5", *SMALL, "--out", str(tmp_path))
        assert rc.returncode == 0, rc.stderr
        assert rc.stdout.count("clamp hits 0") == 4
        names = sorted(p.name for p in solve_dir.glob("*.csv"))
        assert names == sorted(p.name for p in tmp_path.glob("*.csv")) and len(names) == 2
        for name in names:
            assert (solve_dir / name).read_bytes() == (tmp_path / name).read_bytes(), name
        with open(solve_dir / "solve_report.csv") as fh:
            assert next(csv.reader(fh)) == [
                "state", "resid_max", "newton_iters_max", "clamp_hits", "bound_margin_lo",
                "bound_margin_hi", "hedge_gap", "ahat_max", "bound_violation"]
        manifest = json.loads((tmp_path / "run.json").read_text())
        assert set(manifest) == {"spec_sha256", "grid", "elapsed", "march", "unbounded_above",
                                 "python", "numpy", "scipy"}
        assert manifest["unbounded_above"] == []
        assert set(manifest["elapsed"]) == {"00", "01", "10", "11"}
        march = manifest["march"]
        assert set(march) == {"iterations", "largest_batch", "control_solves", "sweeps",
                              "sweep_cap_hits", "march_s", "bounds_s", "policy_s", "control_s",
                              "cn_s"}
        # the wavefront: n_t + n iterations plus the final slice, all four states at once
        assert (march["iterations"], march["largest_batch"]) == (43, 4)
        assert march["control_solves"] > march["iterations"] and march["sweeps"] > 0
        assert all(march[key] > 0.0 for key in ("march_s", "bounds_s", "policy_s", "control_s",
                                                "cn_s"))
        # the control and Crank-Nicolson solves are stages of the march
        assert march["control_s"] + march["cn_s"] < march["march_s"]
        assert manifest["grid"]["n_y"] == 41 and manifest["grid"]["n_t"] == 40
        assert manifest["numpy"] == np.__version__

    def test_rerun_artifacts_are_byte_identical(self, solve_dir, tmp_path):
        assert main(["solve", "--preset", "benchmark_s5", *SMALL, "--out", str(tmp_path)]) == 0
        assert {p.name for p in tmp_path.iterdir()} == ARTIFACTS
        for name in sorted(ARTIFACTS - {"run.json"}):
            assert (solve_dir / name).read_bytes() == (tmp_path / name).read_bytes(), name

    def test_invalid_spec_exits_2(self, tmp_path):
        rc = run_cli("solve", "--preset", "benchmark_s5", "--set", "credit.b_1_00=-5.0",
                     *SMALL, "--out", str(tmp_path / "x"))
        assert rc.returncode == EXIT_VALIDATION
        assert "intensity" in rc.stderr

    def test_missing_model_source_exits_2(self, tmp_path):
        rc = run_cli("solve", "--out", str(tmp_path / "x"))
        assert rc.returncode == EXIT_VALIDATION

    def test_load_solution_round_trip(self, solve_dir, tmp_path):
        spec = build_model(preset_config("benchmark_s5"))
        result = load_solution(solve_dir, spec)
        assert set(result.fields) == {"00", "01", "10", "11"}
        fld = result.fields["00"]
        assert fld.f.shape == (41, 41)
        assert np.all(fld.f > 0)
        pol = result.policies["00"]
        assert pol.pi.shape == (41, 41, 2)

        # solve -> dump -> load reproduces every array bitwise and the hedge gap
        spec = build_model(preset_config("scott_example22"))
        solved = cf.solve_recursive_system(spec, cf.GridSpec(-1.0, 1.0, 41, 40))
        dump_solution(solved, tmp_path, spec)
        loaded = load_solution(tmp_path, spec)
        assert set(loaded.policies) == set(solved.policies)
        for bits, pol in solved.policies.items():
            fld, back, back_fld = solved.fields[bits], loaded.policies[bits], loaded.fields[bits]
            assert np.array_equal(back_fld.f, fld.f) and np.array_equal(back_fld.df, fld.df)
            for name in ("hhat", "theta", "ahat", "pi", "c_mult"):
                assert np.array_equal(getattr(back, name), getattr(pol, name)), (bits, name)
            assert back.hedge_gap == pol.hedge_gap, bits
        assert max(pol.hedge_gap for pol in solved.policies.values()) > 0.05
        # and restores the bounds and the report, less the run.json timings
        assert loaded.bounds == solved.bounds
        assert loaded.report == {bits: {k: v for k, v in row.items() if k != "elapsed"}
                                 for bits, row in solved.report.items()}

    def test_an_overflowing_bound_is_listed_and_reloads_as_inf(self, solve_dir, tmp_path):
        spec = build_model(preset_config("benchmark_s5"))
        result = load_solution(solve_dir, spec)
        result.bounds["01"] = dataclasses.replace(result.bounds["01"], theta_rate=800.0)
        dump_solution(result, tmp_path, spec)
        assert json.loads((tmp_path / "run.json").read_text())["unbounded_above"] == ["01"]
        assert load_solution(tmp_path, spec).bounds["01"].k_bar_final == np.inf

    def test_row_views_share_the_stacked_arrays(self, solve_dir):
        spec = build_model(preset_config("benchmark_s5"))
        solved = cf.solve_recursive_system(spec, cf.GridSpec(-1.0, 1.0, 21, 10))
        for result in (solved, load_solution(solve_dir, spec)):
            assert result.f.shape[0] == result.policy.shape[0] == 4
            for bits, fld in result.fields.items():
                b = fld.state.bits
                assert fld.state.bitstring == bits
                assert np.shares_memory(fld.f, result.f) and np.shares_memory(fld.df, result.df)
                assert np.array_equal(fld.f, result.f[b])
                pol = result.policies[bits]
                for name in POLICY_CHANNELS:
                    assert np.shares_memory(getattr(pol, name), result.policy), (bits, name)
                    assert np.array_equal(getattr(pol, name), result.channel(name)[b])
                assert pol.hedge_gap == result.hedge_gap[b]


class TestSweepCommand:
    def test_fig1(self, tmp_path):
        out = tmp_path / "sw"
        rc = run_cli("sweep", "--sweep", "fig1", "--preset", "benchmark_s5",
                     "--ny", "41", "--nt", "40", "--out", str(out))
        assert rc.returncode == 0, rc.stderr
        data = np.genfromtxt(out / "sweep_fig1.csv", delimiter=",", names=True,
                             dtype=None, encoding="utf-8")
        assert set(np.unique(data["axis_value"])) == {0.0, 0.3, 0.6}
        # weakly non-increasing in y per (axis, state, name) block
        for axis in (0.0, 0.3, 0.6):
            for state in ("00", "01", "10"):
                for name in (1, 2):
                    mask = ((data["axis_value"] == axis)
                            & (data["state"].astype(str) == state)
                            & (data["name"] == name))
                    pi = data["pi_hat"][mask]
                    if pi.size:
                        assert np.all(np.diff(pi) <= 1e-8)

    def test_fig3_sigma_scale_axis(self, tmp_path):
        out = tmp_path / "sw3"
        rc = run_cli("sweep", "--sweep", "fig3", "--preset", "benchmark_s5",
                     "--ny", "21", "--nt", "10", "--out", str(out))
        assert rc.returncode == 0, rc.stderr
        data = np.genfromtxt(out / "sweep_fig3.csv", delimiter=",", names=True,
                             dtype=None, encoding="utf-8")
        assert set(np.unique(data["axis_value"])) == {1.0, 1.25, 1.5}

    def test_missing_axis_is_usage_error(self):
        rc = run_cli("sweep", "--preset", "benchmark_s5")
        assert rc.returncode != 0


def test_config_without_preference_exits_2_for_every_command(tmp_path, monkeypatch, capsys):
    import creditfolio.cli as cli_mod

    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran for a configuration without [preference]")

    monkeypatch.setattr(cli_mod, "solve_recursive_system", no_solve)
    ini = tmp_path / "one_name.ini"
    ini.write_text("\n".join([
        "[model]", "n = 1",
        "[factor]", "kind = ou", "u0 = 0.5", "kappa = 1.0", "sigma0 = 0.5", "domain = -1.25, 1.25",
        "[credit]", "kind = exp_affine", "a_1_0 = 0.5", "b_1_0 = 0.2", "c_1_0 = 0.3",
        "[market]", "mu = 0.3", "sigma = 0.8", "r = 0.1"]))
    for command in (["solve"], ["validate"], ["sweep", "--sweep", "fig1"],
                    ["sweep", "--sweep", "fig2"]):
        rc = main([*command, "--config", str(ini), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION, command
        assert "bad model configuration: 'preference'" in err, (command, err)


def test_seed_is_a_simulate_option_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--preset", "benchmark_s5", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


class TestSimulateCommand:
    def test_small_run_passes_and_is_deterministic(self, tmp_path):
        args = ["simulate", "--preset", "benchmark_s5", *SMALL,
                "--paths", "4000", "--steps", "50", "--seed", "1"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        rc1 = run_cli(*args, "--out", str(out1))
        assert rc1.returncode == 0, rc1.stdout + rc1.stderr
        rc2 = run_cli(*args, "--out", str(out2))
        assert rc2.returncode == 0
        assert (out1 / "mc_report.csv").read_bytes() == (out2 / "mc_report.csv").read_bytes()
        with open(out1 / "mc_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        kinds = {r["test"].split(" ")[0] for r in rows}
        assert {"compensator", "G-martingale", "feynman-kac", "duality-gap"} <= kinds
        assert all(r["pass"] == "1" for r in rows)

    def test_coarse_grid_passes_the_feynman_kac_checks(self, tmp_path):
        # the path integrand interpolates the source term the PDE applies at the nodes,
        # so the checks hold on a grid as coarse as 21x10
        rc = run_cli("simulate", "--preset", "benchmark_s5", "--ny", "21", "--nt", "10",
                     "--paths", "500", "--steps", "20", "--out", str(tmp_path))
        assert rc.returncode == 0, rc.stdout + rc.stderr
        with open(tmp_path / "mc_report.csv") as fh:
            rows = [r for r in csv.DictReader(fh) if r["test"].startswith("feynman-kac")]
        assert len(rows) == 8
        assert all(r["pass"] == "1" for r in rows), rows

    def test_path_dump(self, tmp_path):
        out = tmp_path / "pd"
        rc = run_cli("simulate", "--preset", "benchmark_s5", *SMALL,
                     "--paths", "500", "--steps", "20", "--seed", "3",
                     "--dump-paths", "4", "--out", str(out))
        assert rc.returncode == 0, rc.stderr
        data = np.genfromtxt(out / "paths.csv", delimiter=",", names=True,
                             dtype=None, encoding="utf-8")
        assert list(data.dtype.names) == ["path", "t", "Y", "H_bits", "X", "c", "Gamma"]
        assert set(np.unique(data["path"])) == {0, 1, 2, 3}
        assert len(data) == 4 * 21
        assert np.all(data["X"] > 0)

    def test_corrupted_solution_fails_statistics(self, tmp_path, solve_dir):
        # a user-edited f: every state's f scaled by 1.1, df left as solved
        corrupt = tmp_path / "corrupt"
        shutil.copytree(solve_dir, corrupt)
        np.save(corrupt / "f.npy", 1.1 * np.load(solve_dir / "f.npy"), allow_pickle=False)
        rc = run_cli("simulate", "--preset", "benchmark_s5", *SMALL,
                     "--paths", "3000", "--steps", "40", "--seed", "2",
                     "--solution", str(corrupt), "--out", str(tmp_path / "rep"))
        assert rc.returncode == EXIT_STATISTICAL
        with open(tmp_path / "rep" / "mc_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        duality = [r for r in rows if r["test"] == "duality-gap"]
        assert duality and duality[0]["pass"] == "0"


def _extras(report_csv) -> dict:
    """``{test: {key: value text}}`` from the ``extra`` column of an mc_report.csv."""
    with open(report_csv, newline="") as fh:
        return {row["test"]: dict(pair.split("=", 1) for pair in row["extra"].split(";") if pair)
                for row in csv.DictReader(fh)}


def test_reloaded_solution_reports_the_in_process_hedge_gap(tmp_path):
    size = ["--ny", "41", "--nt", "40"]
    mc = ["--paths", "400", "--steps", "20", "--seed", "5"]
    assert main(["solve", "--preset", "scott_example22", *size, "--out", str(tmp_path / "s")]) == 0
    rc_loaded = main(["simulate", "--preset", "scott_example22", *size, *mc,
                      "--solution", str(tmp_path / "s"), "--out", str(tmp_path / "loaded")])
    rc_direct = main(["simulate", "--preset", "scott_example22", *size, *mc,
                      "--out", str(tmp_path / "direct")])
    assert rc_loaded == rc_direct
    loaded = _extras(tmp_path / "loaded" / "mc_report.csv")
    direct = _extras(tmp_path / "direct" / "mc_report.csv")
    assert set(loaded["duality-gap"]) == {"rep_log_corr", "rep_log_maxdev", "flagged",
                                          "hedge_gap", "grid_exit_frac", "exit_fraction"}
    assert loaded["duality-gap"]["hedge_gap"] == direct["duality-gap"]["hedge_gap"]
    assert float(loaded["duality-gap"]["hedge_gap"]) > 0.05
    assert set(loaded["G-martingale t=1"]) == {"grid_exit_frac", "exit_fraction"}
    assert loaded["compensator name=1 t=1"] == {}
    # the reloaded arrays are bitwise the solved ones, so the whole report is too
    assert ((tmp_path / "loaded" / "mc_report.csv").read_bytes()
            == (tmp_path / "direct" / "mc_report.csv").read_bytes())


def test_simulate_manifest_holds_the_run_and_its_timings(solve_dir, tmp_path):
    args = ["simulate", "--preset", "benchmark_s5", *SMALL, "--paths", "200", "--steps", "10",
            "--seed", "7"]
    rc_direct = main([*args, "--out", str(tmp_path / "direct")])
    rc_loaded = main([*args, "--solution", str(solve_dir), "--out", str(tmp_path / "loaded")])
    assert rc_direct == rc_loaded
    report = (tmp_path / "direct" / "mc_report.csv").read_bytes()
    assert report == (tmp_path / "loaded" / "mc_report.csv").read_bytes()
    with open(tmp_path / "direct" / "mc_report.csv", newline="") as fh:
        tests = [row["test"] for row in csv.DictReader(fh)]
    spec = build_model(preset_config("benchmark_s5"))
    for name, solution in (("direct", None), ("loaded", str(solve_dir.resolve()))):
        manifest = json.loads((tmp_path / name / "simulate.json").read_text())
        assert set(manifest) == {"spec_sha256", "seed", "n_paths", "n_steps", "solution",
                                 "python", "numpy", "scipy", "grid_exit_frac",
                                 "exit_fraction", "feynman_kac", "stages", "checks"}
        assert manifest["spec_sha256"] == spec.fingerprint()
        # each pass's stage seconds and lap counts, per step or per Feynman-Kac read
        stages = manifest["stages"]
        assert {name: stage["calls"] for name, stage in stages["simulate_market"].items()} == {
            "setup": 1, "rng": 10, "policy": 10, "wealth": 10, "factor": 10, "intensity": 10,
            "sweeps": 10, "observers": 10, "final": 1}
        assert {name: stage["calls"] for name, stage in stages["mc_feynman_kac"].items()} == {
            "setup": 1, "read": 257, "integrand": 257, "rng": 256, "factor": 256, "final": 1}
        assert all(stage["s"] >= 0.0 for run in stages.values() for stage in run.values())
        assert (manifest["seed"], manifest["n_paths"], manifest["n_steps"]) == (7, 200, 10)
        # the Feynman-Kac pass keeps its own step count and seed, whatever --steps says
        assert manifest["feynman_kac"] == {"n_steps": 256, "seed": 9}
        assert manifest["solution"] == solution and manifest["numpy"] == np.__version__
        assert [check["name"] for check in manifest["checks"]] == tests
        extras = _extras(tmp_path / name / "mc_report.csv")
        assert (str(manifest["grid_exit_frac"]), str(manifest["exit_fraction"])) == \
            tuple(str(float(extras["duality-gap"][key]))
                  for key in ("grid_exit_frac", "exit_fraction"))
        with open(tmp_path / name / "mc_report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for check, row in zip(manifest["checks"], rows):
            assert set(check) == {"name", "estimate", "target", "tolerance", "passed",
                                  "elapsed"}
            assert (check["estimate"], check["target"], check["tolerance"]) == \
                (float(row["estimate"]), float(row["target"]), float(row["tolerance"]))
            assert check["passed"] == (row["pass"] == "1")
        # every row of the one pass, compensator included, carries that pass's time
        assert all(check["elapsed"] > 0.0 for check in manifest["checks"])


FULL_SIGMA = ["--set", "market.sigma_kind=const", "--set", "market.sigma=0.8, 0.1; 0.05, 0.7"]


def test_full_sigma_matrix_solves_and_simulates(tmp_path):
    rc = main(["solve", "--preset", "scott_example22", *SMALL, *FULL_SIGMA,
               "--out", str(tmp_path / "sol")])
    assert rc == 0
    spec = build_model(apply_overrides(preset_config("scott_example22"), FULL_SIGMA[1::2]))
    assert not spec.market.is_diagonal
    assert np.array_equal(spec.market.sigma(0.0), [[0.8, 0.1], [0.05, 0.7]])
    rc = main(["simulate", "--preset", "scott_example22", *SMALL, *FULL_SIGMA, "--paths", "4000",
               "--steps", "100", "--solution", str(tmp_path / "sol"),
               "--out", str(tmp_path / "mc")])
    assert rc == 0
    with open(tmp_path / "mc" / "mc_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 18 and all(row["pass"] == "1" for row in rows)


@pytest.mark.parametrize("sigma", ["0.8, 0.1; 0.05", "0.8, 0.1; 0.05, 0.7; 0.1, 0.1",
                                   "0.8, 0.1, 0.3"], ids=["short-row", "extra-row", "long-vector"])
def test_misshapen_sigma_exits_2_naming_the_key(tmp_path, capsys, sigma):
    rc = main(["solve", "--preset", "scott_example22", "--set", "market.sigma_kind=const",
               "--set", f"market.sigma={sigma}", "--out", str(tmp_path / "sol")])
    assert rc == EXIT_VALIDATION
    assert "[market] sigma" in capsys.readouterr().err
    assert not (tmp_path / "sol").exists()


@pytest.mark.parametrize("key, value", [("market.mu", "0.25; 0.24"), ("factor.sigma0", "0.3; 0.2"),
                                        ("factor.domain", "-1.25; 1.25")],
                         ids=["market.mu", "factor.sigma0", "factor.domain"])
def test_row_separator_outside_sigma_exits_2_naming_the_key(tmp_path, capsys, key, value):
    # ';' starts a matrix row, which only [market] sigma has; elsewhere it is not a ','
    rc = main(["solve", "--preset", "scott_example22", *SMALL, "--set", f"{key}={value}",
               "--out", str(tmp_path / "sol")])
    assert rc == EXIT_VALIDATION
    section, name = key.split(".")
    assert f"[{section}] {name}" in capsys.readouterr().err
    assert not (tmp_path / "sol").exists()


def test_simulate_rows_equal_the_library_checks(solve_dir, tmp_path):
    from creditfolio import sim

    seed, n_paths, n_steps = 5, 600, 20
    rc = main(["simulate", "--preset", "benchmark_s5", *SMALL, "--paths", str(n_paths),
               "--steps", str(n_steps), "--seed", str(seed), "--solution", str(solve_dir),
               "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "mc_report.csv", newline="") as fh:
        rows = {row["test"]: row for row in csv.DictReader(fh)}
    spec = build_model(preset_config("benchmark_s5"))
    result = load_solution(solve_dir, spec)
    library = [*sim.check_G_martingale(spec, result, n_paths, n_steps, seed=seed),
               sim.duality_gap(spec, result, 1.0, n_paths, n_steps, seed=seed)]
    assert len(library) == 4
    # the Feynman-Kac rows come from the pass that simulate.json describes
    fk_run = json.loads((tmp_path / "simulate.json").read_text())["feynman_kac"]
    library += sim.mc_feynman_kac(spec, result, [(state, (t, 0.0)) for state in all_states(2)
                                                 for t in (0.5, 1.0)], n_paths, **fk_run)
    for rep in library:
        row = rows[rep.name]
        assert (float(row["estimate"]), float(row["se"]), float(row["target"])) == \
            (rep.estimate, rep.se, rep.target)


@pytest.mark.parametrize("dump", [[], ["--dump-paths", "3"]], ids=["plain", "dump-paths"])
def test_simulate_runs_one_path_pass(solve_dir, tmp_path, monkeypatch, dump):
    import creditfolio.sim as sim_mod

    calls = []
    path_pass = sim_mod.simulate_market

    def counted(*args, **kwargs):
        calls.append(kwargs.get("keep"))
        return path_pass(*args, **kwargs)

    monkeypatch.setattr(sim_mod, "simulate_market", counted)
    rc = main(["simulate", "--preset", "benchmark_s5", *SMALL, "--paths", "300", "--steps", "10",
               "--seed", "2", "--solution", str(solve_dir), *dump, "--out", str(tmp_path)])
    assert rc == 0
    assert calls == [3 if dump else 0]
    assert (tmp_path / "paths.csv").is_file() == bool(dump)


def test_foreign_solution_exits_2_naming_run_json(tmp_path):
    rc = run_cli("solve", "--preset", "benchmark_s5", "--ny", "21", "--nt", "10",
                 "--out", str(tmp_path / "s5"))
    assert rc.returncode == 0, rc.stderr
    rc = run_cli("simulate", "--preset", "scott_example22", "--paths", "100", "--steps", "10",
                 "--solution", str(tmp_path / "s5"), "--out", str(tmp_path / "rep"))
    assert rc.returncode == EXIT_VALIDATION, rc.stderr
    assert "run.json" in rc.stderr and "Traceback" not in rc.stderr
    # a manifest from before the fingerprint still loads
    manifest_path = tmp_path / "s5" / "run.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest.pop("spec_sha256") == build_model(preset_config("benchmark_s5")).fingerprint()
    manifest_path.write_text(json.dumps(manifest))
    loaded = load_solution(tmp_path / "s5", build_model(preset_config("benchmark_s5")))
    assert set(loaded.fields) == {"00", "01", "10", "11"}


def _edit_array(path, edit):
    np.save(path, edit(np.load(path)))


def _drop_last_bytes(path, count=50):
    path.write_bytes(path.read_bytes()[:-count])


def _only_state_csvs(d):
    """A directory written before the arrays existed: per-state CSVs only."""
    for path in d.glob("*.npy"):
        path.unlink()
    (d / "f_state_00.csv").write_text("t,y,f,g,df_dy\n")


@pytest.mark.parametrize("damage, where", [
    (lambda d: (d / "policy.npy").unlink(), ["policy.npy", "missing"]),
    # one state's row fewer
    (lambda d: _edit_array(d / "f.npy", lambda a: a[:-1]), ["f.npy", "(3, 41, 41)"]),
    (lambda d: _drop_last_bytes(d / "df.npy"), ["df.npy"]),
    # the (t, y) grid flattened into one axis
    (lambda d: _edit_array(d / "f.npy", lambda a: a.reshape(len(a), -1)), ["f.npy", "(4, 1681)"]),
    (lambda d: _edit_array(d / "policy.npy", lambda a: a[..., :-1]),
     ["policy.npy", "(4, 41, 41, 8)"]),
    # the older layout, 4n + 1 channels: one ahat column per name
    (lambda d: _edit_array(d / "policy.npy",
                           lambda a: np.concatenate([a[..., :-1], a[..., -2:]], axis=-1)),
     ["policy.npy", "(4, 41, 41, 8)"]),
    # nodes of a 39-step grid beside arrays of the 40-step one
    (lambda d: np.save(d / "t_nodes.npy", np.linspace(0.0, 1.0, 40)), ["f.npy", "(4, 40, 41)"]),
    (lambda d: _edit_array(d / "df.npy", lambda a: a.astype(np.float32)), ["df.npy", "float32"]),
    (lambda d: np.save(d / "hedge_gap.npy", np.array([0.0, None, 0.0, 0.0]), allow_pickle=True),
     ["hedge_gap.npy", "allow_pickle"]),
    (_only_state_csvs, ["f.npy", "re-run `creditfolio solve`"]),
], ids=["missing-partner", "missing-state", "truncated", "not-a-tensor-grid", "policy-columns",
        "policy-4n+1-columns", "other-grid", "wrong-dtype", "object-array", "csv-only"])
def test_damaged_solution_exits_2_naming_the_file(solve_dir, tmp_path, damage, where):
    damaged = tmp_path / "damaged"
    shutil.copytree(solve_dir, damaged)
    damage(damaged)
    rc = run_cli("simulate", "--preset", "benchmark_s5", *SMALL, "--paths", "100",
                 "--steps", "10", "--solution", str(damaged), "--out", str(tmp_path / "rep"))
    assert rc.returncode == EXIT_VALIDATION, rc.stderr
    assert all(part in rc.stderr for part in where), rc.stderr
    assert "Traceback" not in rc.stderr


@pytest.mark.parametrize("flags, where", [
    (["--paths", "0"], "--paths"),
    (["--paths", "-5"], "--paths"),
    (["--steps", "0"], "--steps"),
    (["--steps", "-1"], "--steps"),
    (["--set", "mc.n_paths=0"], "[mc] n_paths"),
    (["--set", "mc.n_steps=-3"], "[mc] n_steps"),
    (["--dump-paths", "-2"], "--dump-paths"),
], ids=["paths-zero", "paths-negative", "steps-zero", "steps-negative", "config-paths",
        "config-steps", "dump-paths-negative"])
def test_non_positive_mc_counts_exit_2_before_the_solve(tmp_path, monkeypatch, capsys,
                                                         flags, where):
    import creditfolio.cli as cli_mod

    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran before the Monte Carlo sizes were checked")

    monkeypatch.setattr(cli_mod, "solve_recursive_system", no_solve)
    monkeypatch.setattr(cli_mod, "load_solution", no_solve)
    rc = main(["simulate", "--preset", "benchmark_s5", *SMALL, *flags,
               "--out", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert where in err and "positive" in err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("flags,where", [
    (["--seed", "-1"], "--seed"),
    (["--set", "mc.seed=-5"], "[mc] seed"),
    (["--seed", str(2**64 - 2)], "--seed"),
    (["--set", f"mc.seed={2**64}"], "[mc] seed"),
], ids=["seed-negative", "config-seed-negative", "seed-too-large", "config-seed-too-large"])
def test_out_of_range_seed_exits_2_before_the_solve(tmp_path, monkeypatch, capsys, flags, where):
    # Philox keys are unsigned 64-bit and the Feynman-Kac pass draws at seed + 2
    import creditfolio.cli as cli_mod

    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran before the Monte Carlo seed was checked")

    monkeypatch.setattr(cli_mod, "solve_recursive_system", no_solve)
    monkeypatch.setattr(cli_mod, "load_solution", no_solve)
    rc = main(["simulate", "--preset", "benchmark_s5", *SMALL, *flags,
               "--out", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert where in err and f"[0, {2**64 - 3}]" in err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("flags,where", [
    (["--ny", "0"], "--ny"),
    (["--ny", "-3"], "--ny"),
    (["--nt", "0"], "--nt"),
    (["--nt", "-1"], "--nt"),
    (["--set", "grid.n_y=0"], "[grid] n_y"),
    (["--set", "grid.n_t=-2"], "[grid] n_t"),
], ids=["ny-zero", "ny-negative", "nt-zero", "nt-negative", "config-ny", "config-nt"])
@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_non_positive_grid_counts_exit_2_before_the_solve(tmp_path, monkeypatch, capsys,
                                                           command, flags, where):
    import creditfolio.cli as cli_mod

    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran before the grid sizes were checked")

    monkeypatch.setattr(cli_mod, "solve_recursive_system", no_solve)
    monkeypatch.setattr(cli_mod, "load_solution", no_solve)
    rc = main([command, "--preset", "benchmark_s5", *flags, "--out", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert where in err and "positive" in err
    assert not (tmp_path / "rep").exists()


class TestOracleAndValidate:
    def test_oracle_command(self, tmp_path):
        rc = run_cli("oracle", "--out", str(tmp_path / "o"))
        assert rc.returncode == 0
        with open(tmp_path / "o" / "oracle.csv") as fh:
            rows = list(csv.DictReader(fh))
        names = {r["quantity"] for r in rows}
        assert {"all_defaulted_f", "loading_fixed_point_x", "fixed_point_residual",
                "merton_fraction"} <= names
        resid = [float(r["value"]) for r in rows if r["quantity"] == "fixed_point_residual"]
        assert resid[0] < 1e-8

    def test_validate_pass_and_fail(self, tmp_path):
        assert run_cli("validate", "--preset", "benchmark_s5",
                       "--out", str(tmp_path / "v")).returncode == 0
        rc = run_cli("validate", "--preset", "benchmark_s5",
                     "--set", "credit.b_2_00=-9.0")
        assert rc.returncode == EXIT_VALIDATION


@pytest.mark.parametrize("flags,where", [
    (["--set", "grid.n_y=abc"], "[grid] n_y"),
    (["--set", "grid.n_t=1.5"], "[grid] n_t"),
    (["--set", "mc.n_paths=many"], "[mc] n_paths"),
    (["--set", "mc.n_steps="], "[mc] n_steps"),
    (["--set", "mc.seed=x7"], "[mc] seed"),
], ids=["config-ny", "config-nt", "config-paths", "config-steps", "config-seed"])
def test_non_integer_counts_exit_2_naming_the_key(tmp_path, monkeypatch, capsys, flags, where):
    import creditfolio.cli as cli_mod

    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran before the counts were read")

    monkeypatch.setattr(cli_mod, "solve_recursive_system", no_solve)
    rc = main(["simulate", "--preset", "benchmark_s5", *flags, "--out", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert where in err and "integer" in err and "invalid literal" not in err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("override,where", [
    ("grid.clamp=false", ["unknown config key", "[grid] clamp"]),
    ("grid.n_yy=5", ["unknown config key", "[grid] n_yy"]),
    ("mcc.seed=3", ["unknown config section", "[mcc]"]),
    ("credit.a_1=0.5", ["[credit] a_1", "a_<i>_<bits>"]),
    ("credit.x_1_00=0.5", ["unknown config key", "[credit] x_1_00"]),
    ("credit.a_0_00=0.5", ["[credit] a_0_00", "1..2"]),
    ("credit.a_1_000=0.5", ["[credit] a_1_000", "2 state digits"]),
    ("credit.kind=exp_afine", ["[credit] kind", "'exp_afine'"]),
], ids=["retired-clamp", "misspelt-grid-key", "unknown-section", "credit-key-no-state",
        "credit-key-bad-coefficient", "credit-key-name-zero", "credit-key-long-state",
        "credit-kind"])
def test_unread_config_keys_exit_2_naming_them(tmp_path, capsys, override, where):
    rc = main(["validate", "--preset", "benchmark_s5", "--ny", "11", "--nt", "10",
               "--set", override, "--out", str(tmp_path / "v")])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert all(part in err for part in where), err
    for cryptic in ("not enough values", "substring not found", "negative shift"):
        assert cryptic not in err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_every_preset_passes_the_key_check(tmp_path, preset):
    assert main(["validate", "--preset", preset, "--ny", "11", "--nt", "10",
                 "--out", str(tmp_path / "v")]) == 0


@pytest.mark.parametrize("flags,where", [
    (["--set", "grid.y_lo=abc"], ["[grid] y_lo"]),
    (["--set", "grid.y_hi=1e"], ["[grid] y_hi"]),
    (["--set", "mc.y0=abc"], ["[mc] y0"]),
    (["--set", "mc.x0=abc"], ["[mc] x0"]),
    (["--set", "grid.y_lo=2"], ["[grid] y_lo = 2.0", "[grid] y_hi = 1.0", "empty"]),
    (["--set", "mc.x0=-1"], ["[mc] x0 = -1.0", "positive"]),
    (["--set", "mc.x0=0"], ["[mc] x0 = 0.0", "positive"]),
    (["--set", "mc.y0=5"], ["[mc] y0 = 5.0", "[factor] domain"]),
    (["--set", "mc.y0=-1.25"], ["[mc] y0 = -1.25", "[factor] domain"]),
    (["--set", "mc.y0=1.2"], ["[mc] y0 = 1.2", "solved grid", "[grid] y_lo, y_hi = -1.0, 1.0"]),
], ids=["config-y-lo", "config-y-hi", "config-y0", "config-x0", "empty-domain", "x0-negative",
        "x0-zero", "y0-outside", "y0-on-the-edge", "y0-off-the-grid"])
def test_bad_floats_exit_2_naming_the_key(tmp_path, monkeypatch, capsys, flags, where):
    import creditfolio.cli as cli_mod

    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran before the numbers were read")

    monkeypatch.setattr(cli_mod, "solve_recursive_system", no_solve)
    monkeypatch.setattr(cli_mod, "load_solution", no_solve)
    rc = main(["simulate", "--preset", "benchmark_s5", *flags, "--out", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert all(part in err for part in where), err
    assert "could not convert" not in err
    assert not (tmp_path / "rep").exists()


def test_y0_off_a_loaded_grid_exits_2_naming_its_nodes(tmp_path, capsys):
    # with --solution the loaded nodes are the solved grid, not [grid]
    assert main(["solve", "--preset", "benchmark_s5", "--ny", "11", "--nt", "10", "--set",
                 "grid.y_lo=-0.5", "--set", "grid.y_hi=0.5", "--out", str(tmp_path / "s")]) == 0
    capsys.readouterr()
    rc = main(["simulate", "--preset", "benchmark_s5", "--set", "mc.y0=0.7", "--paths", "100",
               "--steps", "10", "--solution", str(tmp_path / "s"), "--out", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert all(part in err for part in ("[mc] y0 = 0.7", "solved grid",
                                        f"{tmp_path / 's' / 'y_nodes.npy'} = -0.5, 0.5")), err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("override,where", [
    ("factor.u0=abc", "[factor] u0 must be a number, got 'abc'"),
    ("market.r=x", "[market] r must be a number, got 'x'"),
    ("preference.p=y", "[preference] p must be a number, got 'y'"),
    ("model.n=two", "[model] n must be an integer, got 'two'"),
    ("credit.a_1_00=zz", "[credit] a_1_00 must be a number, got 'zz'"),
    ("factor.sigma0=0.3,q", "[factor] sigma0 takes numbers separated by ','"),
], ids=["factor-u0", "market-r", "preference-p", "model-n", "credit-coefficient",
        "factor-sigma0"])
def test_malformed_model_numbers_exit_2_naming_the_key(tmp_path, capsys, override, where):
    rc = main(["validate", "--preset", "scott_example22", "--ny", "11", "--nt", "10",
               "--set", override, "--out", str(tmp_path / "v")])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert where in err, err
    assert "could not convert" not in err and "invalid literal" not in err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("state", ["0", "111", "0a", ""], ids=["short", "long", "not-binary",
                                                              "empty"])
def test_bad_mc_state_exits_2_before_the_solve(tmp_path, monkeypatch, capsys, state):
    import creditfolio.cli as cli_mod

    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran before the start state was checked")

    monkeypatch.setattr(cli_mod, "solve_recursive_system", no_solve)
    monkeypatch.setattr(cli_mod, "load_solution", no_solve)
    rc = main(["simulate", "--preset", "benchmark_s5", "--set", f"mc.state={state}",
               "--out", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert "[mc] state" in err and "n = 2" in err and "Traceback" not in err
    assert not (tmp_path / "rep").exists()


def test_one_name_more_than_max_names_exits_2(tmp_path, monkeypatch, capsys):
    import creditfolio.cli as cli_mod

    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran for a model with too many names")

    monkeypatch.setattr(cli_mod, "solve_recursive_system", no_solve)
    n = cf.model.MAX_NAMES + 1
    rc = main(["solve", "--preset", "benchmark_s5", "--set", f"model.n={n}",
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert "[model] n" in err and str(cf.model.MAX_NAMES) in err
    assert not (tmp_path / "out").exists()
