import dataclasses
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrf

import creditfolio as cf
from creditfolio import oracle as om
from creditfolio import cli, pde, strategy
from creditfolio.dual import Coefficients
from creditfolio.fields import policy_channel, policy_width, spatial_gradient
from creditfolio.model import (PRESET_NAMES, DefaultState, build_model, load_preset,
                               states_by_cardinality)
from creditfolio.pde import step_slice, truncation_bounds
from creditfolio.strategy import SolverError

from conftest import make_single_name_spec

Z11 = DefaultState.from_bitstring("11")


def bench_scalar_model(spec):
    return om.ScalarModel(lambda0=0.0, sigma=0.8, xi=0.0, r=spec.market.r,
                          q=spec.q, K1=spec.pref.K1, K2=spec.pref.K2, T=spec.pref.T)


class TestSolveBenchmark:
    def test_initial_condition_exact(self, benchmark_spec, benchmark_result):
        result, _ = benchmark_result
        f0 = benchmark_spec.pref.K1 ** ((1 - benchmark_spec.q) / benchmark_spec.beta)
        for fld in result.fields.values():
            assert np.all(fld.f[0] == f0)

    def test_all_defaulted_matches_closed_form(self, benchmark_spec, benchmark_result):
        result, _ = benchmark_result
        m = bench_scalar_model(benchmark_spec)
        fld = result.fields["11"]
        exact = om.all_defaulted_closed_form(fld.t_nodes, m)
        rel = np.abs(fld.f - exact[:, None]) / exact[:, None]
        assert rel.max() < 1e-6

    def test_bounds_hold_and_clamp_inactive(self, benchmark_result):
        result, _ = benchmark_result
        for bits, row in result.report.items():
            assert row["bound_margin_lo"] >= -1e-12, bits
            assert row["bound_margin_hi"] >= -1e-12, bits
            assert row["clamp_hits"] == 0, bits

    def test_positivity(self, benchmark_result):
        result, _ = benchmark_result
        for fld in result.fields.values():
            assert np.all(fld.f > 0)

    def test_control_residuals(self, benchmark_result):
        result, _ = benchmark_result
        for bits, row in result.report.items():
            assert row["resid_max"] <= 1e-10

    def test_gradient_bounded(self, benchmark_result):
        result, _ = benchmark_result
        for fld in result.fields.values():
            assert np.all(np.isfinite(fld.df))

    def test_benchmark_states_collapse(self, benchmark_result):
        # mu = r makes every state solve the all-defaulted equation
        result, _ = benchmark_result
        base = result.fields["11"].f
        for bits in ("00", "01", "10"):
            assert np.max(np.abs(result.fields[bits].f - base)) < 1e-8

    def test_hedge_gap_zero(self, benchmark_result):
        result, _ = benchmark_result
        for pol in result.policies.values():
            assert pol.hedge_gap < 1e-9


class TestMertonDecoupling:
    def test_states_identical(self, merton_result):
        _, result, _ = merton_result
        base = result.fields["00"].f
        for bits in ("01", "10", "11"):
            assert np.max(np.abs(result.fields[bits].f - base)) <= 1e-12


class TestTruncationBounds:
    def test_all_defaulted_benchmark_constants(self, benchmark_result):
        result, _ = benchmark_result
        b = result.bounds["11"]
        assert b.k_under == pytest.approx(1.0)
        assert b.m_hi == pytest.approx(0.8, abs=1e-6)
        assert b.theta_rate == pytest.approx(0.2, rel=1e-6)
        # growth factor of the reaction envelope: exp(m_hi t / beta)
        assert np.exp(b.m_hi * 1.0 / b.beta) == pytest.approx(np.exp(0.16), rel=1e-6)
        assert b.k_bar(0.0) == pytest.approx(1.0)

    def test_k_under_min_with_zero(self, benchmark_result):
        # m_lo >= 0 in the all-defaulted state, so K1 = 1 gives k_under = 1
        result, _ = benchmark_result
        assert result.bounds["11"].k_under == 1.0

    def test_q_in_01_growth_factor_is_one(self):
        spec = make_single_name_spec(p=-1.0)  # q = 0.5 in (0, 1)
        grid = cf.GridSpec(-1.0, 1.0, 31, 30)
        result = cf.solve_recursive_system(spec, grid)
        for b in result.bounds.values():
            assert b.m_hi == 0.0
            assert np.all(np.exp(b.m_hi * np.linspace(0, 1, 5) / b.beta) == 1.0)

    def test_norm_envelope_contains_used(self, benchmark_result, scott_result):
        # up to the deliberate inflation pad on the realized envelope
        for pack in (benchmark_result[0], scott_result[1]):
            for b in pack.bounds.values():
                pad = 1e-8 * (1.0 + abs(b.m_lo) + abs(b.m_hi))
                assert b.m_lo_norms <= b.m_lo + pad
                assert b.m_hi <= b.m_hi_norms + pad

    def test_phi_field_within_norm_envelope(self, scott_result):
        spec, result, grid = scott_result
        for bits, pol in result.policies.items():
            b = result.bounds[bits]
            coef = Coefficients(spec, (DefaultState.from_bitstring(bits),), grid.y_nodes())
            for k in (0, grid.n_t // 2, grid.n_t):
                phi, _ = coef.phi_nu(pol.hhat[k], pol.theta[k])
                assert np.all(phi >= b.m_lo_norms - 1e-9)
                assert np.all(phi <= b.m_hi_norms + 1e-9)

    def test_overflowing_upper_bound_is_inf_and_clamps_nothing(self, benchmark_spec):
        b = cf.TruncationBounds(state=Z11, k_under=0.5, m_lo=0.0, m_hi=0.0, theta_rate=800.0,
                                f0=1.0, beta=benchmark_spec.beta, T=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert b.k_bar_final == np.inf
            assert np.isinf(b.k_bar(np.array([0.9, 1.0]))).all() and np.isfinite(b.k_bar(0.5))
            # where k_bar is +inf, every slice above k_under passes the bounds check
            t = np.array([0.9, 1.0])
            for v in (0.7, 3.0, 1e6):
                pde._check_bounds((t, np.full(2, v), np.full(2, v)), b)
            # early on the bound is finite (e^0.8 at t = 0.001) and a slice above it fails
            with pytest.raises(SolverError, match=r"state 11 .* k_bar\(t\) = 2\.2255"):
                pde._check_bounds((np.array([0.001]), np.array([0.7]), np.array([3.0])), b)

    def test_missing_children_raise(self, benchmark_spec, benchmark_result):
        result, grid = benchmark_result
        z00 = DefaultState.from_bitstring("00")
        _, ws, _ = march_one_state(z00, benchmark_spec, grid, result.f)
        with pytest.raises(SolverError):
            truncation_bounds(z00, {}, benchmark_spec, grid, pde._stats_row(ws.stats, 0))


def explicit_source(t, v, state, children, hhat, spec):
    """The march's explicit source at a constant slice v with phi = 0.

    That is v^{1-beta}/beta times the kernel's source sum.
    """
    ws = pde._StepWorkspace((state,), spec, cf.GridSpec(-1.0, 1.0, 3, 10))
    kids = {i: np.full((1, 3), c) for i, c in children.items()}
    s = ws.coef.source_sum(np.broadcast_to(np.asarray(hhat, dtype=float), (1, 3, spec.n)), kids)
    out = ws.explicit_source(np.array([0]), np.array([t]), np.full((1, 3), v), np.zeros((1, 3)), s)
    return float(out[0, 1])


class TestNonlinearSource:
    def test_all_defaulted_form(self, benchmark_spec):
        v = 1.3
        beta = benchmark_spec.beta
        got = explicit_source(0.5, v, Z11, {}, [0.0, 0.0], benchmark_spec)
        want = v ** (1 - beta) / beta * benchmark_spec.pref.K2 ** (1 - benchmark_spec.q)
        assert got == pytest.approx(want)

    def test_beta_one_independent_of_v(self):
        spec = make_single_name_spec()
        object.__setattr__(spec.pref, "_q_override", 0.0)  # beta = 1
        z0 = DefaultState.from_bitstring("0")
        vals = [explicit_source(0.2, v, z0, {0: 1.4}, [0.1], spec) for v in (0.5, 2.0)]
        assert vals[0] == pytest.approx(vals[1])

    def test_clamp_noop_when_inside(self, benchmark_result):
        # every slice of the solve lies inside its bounds, where truncating the
        # source would change nothing: the bounds check passes it
        result, _ = benchmark_result
        f = result.fields["11"].f
        pde._check_bounds((result.t_nodes, f.min(axis=-1), f.max(axis=-1)), result.bounds["11"])

    def test_nonpositive_v_raises_unclamped(self, benchmark_spec):
        with pytest.raises(SolverError, match="non-positive slice value"):
            step_slice(np.full((1, 11), -1.0), np.array([0.5]), 0.1, (Z11,), {}, {},
                       benchmark_spec, cf.GridSpec(-1.0, 1.0, 11, 10))


class TestStepSlice:
    def test_zero_dt_identity(self, benchmark_spec):
        grid = cf.GridSpec(-1.0, 1.0, 11, 10)
        f_now = np.linspace(1.0, 1.2, 11)[None]
        out = step_slice(f_now, np.array([0.0]), 0.0, (Z11,), {}, {}, benchmark_spec, grid)
        assert np.array_equal(out, f_now)

    def test_constant_preserved(self, merton_result):
        # Neumann boundaries and y-independent coefficients keep spatial constants
        spec, _, _ = merton_result
        grid = cf.GridSpec(-1.0, 1.0, 21, 10)
        st = DefaultState.from_bitstring("11")
        f_now = np.full((1, 21), 1.05)
        out = step_slice(f_now, np.array([0.0]), 0.1, (st,), {}, {}, spec, grid)
        assert np.max(np.abs(out - out[0, 0])) < 1e-13

    def test_single_step_matches_explicit_euler_ode(self):
        # sigma0 = 0, nu = 0, phi const, all defaulted: compare one step against
        # the explicit Euler update of the linearising transform
        spec = make_single_name_spec(lam_a=0.5, lam_b=0.0, mu=0.1, sigma=0.8, r=0.1)
        spec = cf.ModelSpec(
            n=1,
            factor=cf.FactorSpec(u0=0.0, kappa=0.0, sigma0=np.array([0.0]), rho=0.0,
                                 domain_lo=-1.25, domain_hi=1.25),
            credit=spec.credit, market=spec.market, pref=spec.pref)
        z1 = DefaultState.from_bitstring("1")
        grid = cf.GridSpec(-0.5, 0.5, 3, 10)
        q, beta = spec.q, spec.beta
        xi = Coefficients(spec, (z1,), 0.0).xi[0, 0]
        phi1 = 0.5 * q * (q - 1) * xi**2 - q * spec.market.r
        f0 = spec.pref.K1 ** ((1 - q) / beta)
        for dt in (0.02, 0.01, 0.005):
            f_now = np.full((1, 3), f0)
            out = step_slice(f_now, np.array([0.0]), dt, (z1,), {}, {}, spec, grid)
            ftil = f0**beta + dt * (phi1 * f0**beta + spec.pref.K2 ** (1 - q))
            euler = ftil ** (1 / beta)
            assert abs(out[0, 1] - euler) < 10.0 * dt**2

    def test_blowup_detected(self, benchmark_spec):
        grid = cf.GridSpec(-1.0, 1.0, 11, 10)
        f_now = np.full((1, 11), -1.0)
        with pytest.raises(SolverError):
            step_slice(f_now, np.array([0.0]), 0.1, (Z11,), {}, {}, benchmark_spec, grid)


class TestConvergence:
    def test_self_convergence_second_order(self):
        # halving (dt, dy) divides the change in f by 4 on a model whose solution
        # genuinely varies in y: each grid against the next finer one on its own
        # (t, y) nodes, over all states
        spec = load_preset("scott_example22")
        sols = [cf.solve_recursive_system(spec, cf.GridSpec(-1.0, 1.0, 50 * m + 1, 50 * m)).f
                for m in (1, 2, 4, 8)]
        diffs = [np.max(np.abs(coarse - fine[:, ::2, ::2])) for coarse, fine in zip(sols, sols[1:])]
        for ratio in (diffs[0] / diffs[1], diffs[1] / diffs[2]):
            assert 3.5 <= ratio <= 4.5, diffs

    def test_gradient_stable_under_refinement(self):
        spec = load_preset("scott_example22")
        grads = []
        for n_y, n_t in ((101, 100), (201, 200)):
            grid = cf.GridSpec(-1.0, 1.0, n_y, n_t)
            result = cf.solve_recursive_system(spec, grid)
            grads.append(max(np.max(np.abs(f.df)) for f in result.fields.values()))
        assert abs(grads[1] - grads[0]) / grads[0] < 0.02


class TestSweepPredictor:
    """The extrapolated end-of-step source starts each sweep next to its fixed point."""

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_sweeps_stop_on_the_tolerance(self, preset):
        spec = load_preset(preset)
        for n_y in (41, 101):
            march = cf.solve_recursive_system(spec, cf.GridSpec(-1.0, 1.0, n_y, n_y - 1)).march
            assert march["sweep_cap_hits"] == 0, n_y
        # at 101x100 about one sweep per wavefront iteration: the predictor is
        # already within the tolerance
        assert march["sweeps"] <= 1.25 * march["iterations"]

    def test_sweep_cap_hits_are_counted(self, monkeypatch):
        monkeypatch.setattr(pde, "_INNER_SWEEPS", 1)
        march = cf.solve_recursive_system(load_preset("benchmark_s5"),
                                          cf.GridSpec(-1.0, 1.0, 41, 40)).march
        # one count per (state, step) pair left unconverged
        assert 0 < march["sweep_cap_hits"] <= 4 * 40

    @pytest.mark.parametrize("preset", ["benchmark_s5", "scott_example22"])
    def test_sweeps_end_at_the_fixed_point(self, preset, monkeypatch):
        # the predictor moves where the sweep starts, not where it ends: against
        # sweeps run to round-off
        spec = load_preset(preset)
        for n_y in (41, 101):
            grid = cf.GridSpec(-1.0, 1.0, n_y, n_y - 1)
            f = cf.solve_recursive_system(spec, grid).f
            with monkeypatch.context() as patched:
                patched.setattr(pde, "_INNER_TOL", 1e-15)
                patched.setattr(pde, "_INNER_SWEEPS", 60)
                ref = cf.solve_recursive_system(spec, grid).f
            assert np.max(np.abs(f - ref) / ref) <= 3e-9, n_y


class TestValidationGate:
    def test_invalid_spec_raises(self):
        spec = load_preset("benchmark_s5")
        grid = cf.GridSpec(-2.0, 2.0, 21, 10)  # outside declared domain
        with pytest.raises(ValueError):
            cf.solve_recursive_system(spec, grid)


def march_one_state(state, spec, grid, f_stack):
    """Per-state reference march: one state alone, step by step, its children solved.

    ``f_stack`` holds the children's solutions at the rows of their bits.
    Returns (f, workspace, kept controls); the controls are those each step
    solved on its final slice f[k], plus the final slice's.
    """
    t_nodes = grid.t_nodes(spec.pref.T)
    dt = t_nodes[-1] / grid.n_t
    f = np.empty((grid.n_t + 1, grid.n_y))
    f[0] = spec.f0
    ws = pde._StepWorkspace((state,), spec, grid)
    kids = {i: f_stack[state.flip(i).bits] for i in state.alive}
    kept = {key: np.zeros((grid.n_t + 1, grid.n_y, spec.n)) for key in ("hhat", "theta", "pi")}

    def keep(k):
        hhat, theta, pi, _, _ = ws.controls
        kept["hhat"][k], kept["theta"][k], kept["pi"][k] = hhat[0], theta[0], pi[0]

    for k in range(grid.n_t):
        f[k + 1] = step_slice(f[k][None], t_nodes[k:k + 1], dt, (state,),
                              {i: c[k][None] for i, c in kids.items()},
                              {i: c[k + 1][None] for i, c in kids.items()}, spec, grid,
                              workspace=ws)[0]
        keep(k)
    ws.terms(np.array([0]), f[-1][None], {i: c[-1][None] for i, c in kids.items()}, keep=True)
    keep(grid.n_t)
    return f, ws, kept


def reference_solve(spec, grid):
    """The recursive solve one state at a time, in descending default count."""
    t_nodes = grid.t_nodes(spec.pref.T)
    S, n = 2**spec.n, spec.n
    f_stack = np.empty((S, grid.n_t + 1, grid.n_y))
    policy = np.empty(f_stack.shape + (policy_width(n),))
    bounds, report = {}, {}
    for state in states_by_cardinality(n):
        bits, b = state.bitstring, state.bits
        f, ws, controls = march_one_state(state, spec, grid, f_stack)
        bnd = bounds[bits] = pde.truncation_bounds(state, bounds, spec, grid,
                                                   pde._stats_row(ws.stats, 0))
        pde._check_bounds(ws.envelope(0), bnd)
        f_stack[b] = f
        for key, value in controls.items():
            policy[b][..., policy_channel(key, n)] = value
        margin_lo = float(np.min(f - bnd.k_under))
        margin_hi = float(np.min(bnd.k_bar(t_nodes)[:, None] - f))
        report[bits] = {
            "resid_max": float(ws.resid_max[0]), "newton_iters_max": int(ws.newton_iters[0]),
            "clamp_hits": 0,
            "bound_margin_lo": margin_lo, "bound_margin_hi": margin_hi,
            "bound_violation": min(margin_lo, margin_hi) < -pde._BOUND_SLACK}
    result = cf.SolveResult(grid=grid, t_nodes=t_nodes, f=f_stack,
                            df=spatial_gradient(f_stack, grid.dy), policy=policy,
                            hedge_gap=np.zeros(S), bounds=bounds, report=report)
    cf.build_policy(result, spec)
    for bits, pol in result.policies.items():
        report[bits].update(hedge_gap=pol.hedge_gap, ahat_max=float(np.max(np.abs(pol.ahat))))
    return result


def assert_same_solve(result, reference):
    for bits in reference.fields:
        got, want = result.fields[bits], reference.fields[bits]
        assert np.array_equal(got.f, want.f) and np.array_equal(got.df, want.df), bits
        assert result.bounds[bits] == reference.bounds[bits], bits
        row = {key: v for key, v in result.report[bits].items() if key != "elapsed"}
        assert row == reference.report[bits], bits
        for key in ("hhat", "theta", "pi", "ahat", "c_mult"):
            assert np.array_equal(getattr(result.policies[bits], key),
                                  getattr(reference.policies[bits], key)), (bits, key)


def three_name_spec():
    from test_cli import three_name_config

    return build_model(three_name_config())


class TestWavefront:
    @pytest.mark.parametrize("make_spec", [lambda: load_preset("benchmark_s5"),
                                           lambda: load_preset("scott_example22"),
                                           three_name_spec],
                             ids=["benchmark_s5", "scott_example22", "three_names"])
    def test_equals_the_per_state_march(self, make_spec):
        spec = make_spec()
        grid = cf.GridSpec(-1.0, 1.0, 41, 40)
        result = cf.solve_recursive_system(spec, grid)
        assert_same_solve(result, reference_solve(spec, grid))
        # every state is marched in one loop: n_t + n iterations and the final slice
        assert result.march["iterations"] == grid.n_t + spec.n + 1
        assert result.march["largest_batch"] == 2**spec.n

    def test_policy_slices_match_a_fresh_control_solve(self, benchmark_spec):
        grid = cf.GridSpec(-1.0, 1.0, 41, 40)
        result = cf.solve_recursive_system(benchmark_spec, grid)
        y = grid.y_nodes()
        for state in states_by_cardinality(benchmark_spec.n):
            fld, pol = result.fields[state.bitstring], result.policies[state.bitstring]
            kids = {i: result.f[state.flip(i).bits] for i in state.alive}
            for k in range(grid.n_t + 1):
                hhat, theta, pi, _, _ = strategy.solve_hhat_slice(
                    y, (state,), benchmark_spec, fld.f[k][None], fld.df[k][None],
                    {i: c[k][None] for i, c in kids.items()})
                for got, want in ((pol.hhat[k], hhat[0]), (pol.theta[k], theta[0]),
                                  (pol.pi[k], pi[0])):
                    assert np.max(np.abs(got - want)) <= 1e-12, (state, k)

    def test_build_policy_solves_nothing(self, benchmark_spec, monkeypatch):
        solves = {"march": 0, "policy": 0}
        inside = []
        solve, build = strategy.solve_hhat_slice, strategy.build_policy

        def counted_solve(*args, **kwargs):
            solves["policy" if inside else "march"] += 1
            return solve(*args, **kwargs)

        def marked_build(*args, **kwargs):
            inside.append(True)
            try:
                return build(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(strategy, "solve_hhat_slice", counted_solve)
        monkeypatch.setattr(strategy, "build_policy", marked_build)
        result = cf.solve_recursive_system(benchmark_spec, cf.GridSpec(-1.0, 1.0, 21, 20))
        assert solves["policy"] == 0
        assert solves["march"] == result.march["control_solves"] > 0


class TestBoundsCheck:
    @pytest.mark.parametrize("preset", ["benchmark_s5", "scott_example22"])
    def test_bounds_check_reads_the_upper_bound(self, preset, monkeypatch):
        # the check evaluates k_bar over each recorded envelope at once; every
        # value is bitwise the scalar k_bar(t)
        seen = []
        check = pde._check_bounds

        def recorded(envelope, bounds):
            seen.append((envelope, bounds))
            return check(envelope, bounds)

        monkeypatch.setattr(pde, "_check_bounds", recorded)
        spec = load_preset(preset)
        cf.solve_recursive_system(spec, cf.GridSpec(-1.0, 1.0, 41, 40))
        assert len(seen) == 2**spec.n
        for (t, lo, hi), b in seen:
            assert t.size > 40 and t.shape == lo.shape == hi.shape
            scalar = np.array([b.k_bar(tt) for tt in t.tolist()])
            assert b.k_bar(t).tobytes() == scalar.tobytes(), b.state

    def test_a_state_that_leaves_its_bounds_stops_the_solve(self, monkeypatch, tmp_path, capsys):
        spec = load_preset("benchmark_s5")
        grid = cf.GridSpec(-1.0, 1.0, 21, 10)
        f = cf.solve_recursive_system(spec, grid).fields["11"].f
        assert f.min() < f.max()
        fitted = pde.truncation_bounds

        def raised_floor(state, *args):
            b = fitted(state, *args)
            if state.bitstring != "11":
                return b
            return dataclasses.replace(b, k_under=0.5 * (f.min() + f.max()))

        monkeypatch.setattr(pde, "truncation_bounds", raised_floor)
        with pytest.raises(SolverError, match=r"state 11 .* worst margin -.* to k_under"):
            cf.solve_recursive_system(spec, grid)
        rc = cli.main(["solve", "--preset", "benchmark_s5", "--ny", "21", "--nt", "10",
                       "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_SOLVER == 3 and not (tmp_path / "out").exists()
        assert "state 11 leaves its truncation bounds" in capsys.readouterr().err


def _banded_reference(op, rhs, dt):
    sub, diag, sup = op
    ab = np.zeros((3, rhs.shape[0]))
    ab[0, 1:] = -0.5 * dt * sup[:-1]
    ab[1, :] = 1.0 - 0.5 * dt * diag
    ab[2, :-1] = -0.5 * dt * sub[1:]
    return solve_banded((1, 1), ab, rhs)


class TestCrankNicolsonFactors:
    def test_factors_reused_while_operator_and_dt_hold(self, benchmark_spec, monkeypatch):
        grid = cf.GridSpec(-1.0, 1.0, 41, 40)
        ws = pde._StepWorkspace((DefaultState.from_bitstring("00"),), benchmark_spec, grid)
        assert ws.static_operator
        rng = np.random.default_rng(3)
        op = ws.operator(rng.normal(size=grid.n_y))
        factored = []

        def counted(*args):
            factored.append(args)
            return dgttrf(*args)

        monkeypatch.setattr(pde, "dgttrf", counted)
        for dt in (0.025, 0.025, 0.025, 0.05, 0.05, 0.025):
            assert ws.operator(rng.normal(size=grid.n_y)) is op
            rhs = rng.normal(size=grid.n_y)
            x = ws.cn_solve(op, rhs[None], dt)[0]
            assert np.array_equal(x, _banded_reference(op, rhs, dt)), dt
        # one entry: no refactor while the operator and dt hold, one at each change of dt
        assert len(factored) == 3

    def test_a_solve_factors_once(self, benchmark_spec, monkeypatch):
        # rho = 0 and a uniform grid: one operator and one dt serve every state and step
        calls = []

        def counted(*args):
            calls.append(args)
            return dgttrf(*args)

        monkeypatch.setattr(pde, "dgttrf", counted)
        cf.solve_recursive_system(benchmark_spec, cf.GridSpec(-1.0, 1.0, 41, 40))
        assert len(calls) == 1

    def test_singular_matrix_raises(self, benchmark_spec):
        grid = cf.GridSpec(-1.0, 1.0, 11, 10)
        ws = pde._StepWorkspace((DefaultState.from_bitstring("00"),), benchmark_spec, grid)
        dt = 0.1
        diag = np.full(grid.n_y, -1.0)
        diag[0] = 2.0 / dt  # zero pivot: the first row and column of the CN matrix vanish
        op = (np.zeros(grid.n_y), diag, np.zeros(grid.n_y))
        with pytest.raises(SolverError, match="tridiagonal"):
            ws.cn_solve(op, np.ones((1, grid.n_y)), dt)
