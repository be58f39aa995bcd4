import dataclasses

import numpy as np
import pytest

import creditfolio as cf
from creditfolio import oracle as om
from creditfolio import sim
from creditfolio.dual import Coefficients
from creditfolio.fields import lookup, policy_channel
from creditfolio.model import (CreditSpec, DefaultState, FactorSpec, MarketSpec, ModelSpec,
                               PreferenceSpec, build_model, preset_config)

from conftest import (GENERAL_SIGMA, full_sigma_scott, general_sigma_of_y, make_contagion_spec,
                      with_policy)

Z00 = DefaultState.from_bitstring("00")


def constant_lambda_spec(lam=(1.0, 1.0)):
    return ModelSpec(
        n=2,
        factor=FactorSpec(u0=0.0, kappa=1.0, sigma0=np.array([0.3, 0.2]), rho=0.0,
                          domain_lo=-2.0, domain_hi=2.0),
        credit=CreditSpec.exp_affine(2, {(0, "00"): (lam[0], 0.0, 0.0),
                                         (1, "00"): (lam[1], 0.0, 0.0)}),
        market=MarketSpec(mu=[0.25, 0.25], sigma=[0.5, 0.5], r=0.2),
        pref=PreferenceSpec(p=0.5, K1=1.0, K2=1.0, T=1.0),
    )


class TestMarketPaths:
    def test_bit_reproducible(self, benchmark_spec):
        b1 = sim.simulate_market(benchmark_spec, 5000, 50, seed=42, keep=8)
        b2 = sim.simulate_market(benchmark_spec, 5000, 50, seed=42, keep=8)
        assert np.array_equal(b1.default_times, b2.default_times)
        assert np.array_equal(b1.y_terminal, b2.y_terminal)
        assert np.array_equal(b1.kept["Y"], b2.kept["Y"])
        b3 = sim.simulate_market(benchmark_spec, 5000, 50, seed=43)
        assert not np.array_equal(b3.y_terminal, b2.y_terminal)

    def test_zero_intensity_no_defaults(self, merton_result):
        spec, _, _ = merton_result
        bundle = sim.simulate_market(spec, 4000, 40, seed=1)
        assert bundle.survival_probability() == 1.0
        assert np.all(np.isinf(bundle.default_times))

    def test_constant_intensity_survival(self):
        spec = constant_lambda_spec((1.0, 1.0))
        n = 100_000
        bundle = sim.simulate_market(spec, n, 64, seed=11)
        p_hat = bundle.survival_probability()
        target = np.exp(-2.0)
        se = np.sqrt(target * (1 - target) / n)
        assert abs(p_hat - target) <= 3 * se

    def test_no_simultaneous_defaults(self, benchmark_spec):
        bundle = sim.simulate_market(benchmark_spec, 30000, 60, seed=3)
        both = np.isfinite(bundle.default_times).all(axis=1)
        gaps = np.abs(bundle.default_times[both, 0] - bundle.default_times[both, 1])
        assert both.sum() > 100
        assert np.all(gaps > 0)

    def test_default_count_bounded(self, benchmark_spec):
        bundle = sim.simulate_market(benchmark_spec, 2000, 40, seed=5)
        assert np.all(bundle.final_bits <= 3)

    def test_compensator_zero_mean(self, benchmark_spec):
        bundle = sim.simulate_market(benchmark_spec, 50000, 100, seed=7,
                                     probe_times=(0.25, 0.5, 1.0))
        for t, samples in bundle.compensator.items():
            for i in range(2):
                m = samples[:, i].mean()
                se = samples[:, i].std(ddof=1) / np.sqrt(len(samples))
                assert abs(m) <= 3 * se, (t, i, m, 3 * se)

    def test_reflection_counted(self, benchmark_spec):
        bundle = sim.simulate_market(benchmark_spec, 2000, 50, seed=9)
        assert 0.0 <= bundle.exit_fraction < 0.05

    @pytest.mark.parametrize("rho", [0.0, 0.3], ids=["rho=0", "rho=0.3"])
    def test_factor_has_the_ou_law(self, benchmark_spec, rho):
        # rho sigma0 dW + sqrt(1 - rho^2) |sigma0| dBbar has variance |sigma0|^2 dt for any
        # rho; on a domain this wide no step reflects, so Y_T is the OU law's Euler scheme,
        # whose variance lies 0.19 SE below the closed form's at these sizes
        fac = dataclasses.replace(benchmark_spec.factor, rho=rho, domain_lo=-20.0,
                                  domain_hi=20.0)
        spec = dataclasses.replace(benchmark_spec, factor=fac)
        n_paths, y0 = 20_000, 0.3
        bundle = sim.simulate_market(spec, n_paths, 400, seed=21, y0=y0, keep=0)
        assert bundle.exit_fraction == 0.0
        decay = np.exp(-fac.kappa * spec.pref.T)
        mean = fac.u0 / fac.kappa + (y0 - fac.u0 / fac.kappa) * decay
        var = fac.vol_sq * (1.0 - decay**2) / (2.0 * fac.kappa)
        Y_T = bundle.y_terminal
        assert abs(Y_T.mean() - mean) <= 3.0 * np.sqrt(var / n_paths)
        assert abs(Y_T.var(ddof=1) - var) <= 3.0 * var * np.sqrt(2.0 / (n_paths - 1))


def test_path_step_equals_a_pointwise_reference(merton_result):
    # a step draws (n_paths, n + 1) normals: dW, then the factor's own driver dBbar; the
    # factor and Gamma, rebuilt name by name from the same blocks, agree bitwise
    spec, result, grid = merton_result
    n, n_paths, n_steps, seed, y0 = spec.n, 64, 5, 13, 0.2
    bundle = sim.simulate_market(spec, n_paths, n_steps, seed, y0=y0, keep=n_paths,
                                 result=result)
    fac, T, z0 = spec.factor, spec.pref.T, DefaultState(spec.n, 0)
    s0 = np.asarray(fac.sigma0)
    bar_vol = np.sqrt(1.0 - fac.rho**2) * np.sqrt(np.sum(s0 * s0))
    sqdt = np.sqrt(T / n_steps)
    channel = {c: policy_channel(c, n) for c in ("hhat", "theta", "ahat")}

    def dot(a, b):
        out = a[:, 0] * b[:, 0]
        for i in range(1, n):
            out = out + a[:, i] * b[:, i]
        return out

    Y, Gamma = np.full(n_paths, y0), np.ones(n_paths)
    for k in range(n_steps):
        z = sim._block_rng(seed, sim._KIND_NORMALS, k).standard_normal((n_paths, n + 1))
        dW, dB = z[:, :n] * sqdt, z[:, n] * sqdt
        vals = lookup(result.policy, result.t_nodes, grid.y_nodes(), T - bundle.t_mesh[k], 0, Y)
        hh, th, ah = (vals[:, channel[c]] for c in ("hhat", "theta", "ahat"))
        lam = spec.alive_intensity(Y, z0)
        Gamma = Gamma * np.exp(-dot(th, dW) - ah * dB - (0.5 * dot(th, th) + 0.5 * ah * ah
                                                          + dot(hh, lam)) * (T / n_steps))
        Y = (Y + (fac.u0 - fac.kappa * Y) * (T / n_steps) + fac.rho * dot(s0[None], dW)
             + bar_vol * dB)
        Y = np.where(Y < fac.domain_lo, 2 * fac.domain_lo - Y, Y)
        Y = np.where(Y > fac.domain_hi, 2 * fac.domain_hi - Y, Y)
        assert np.array_equal(bundle.kept["Y"][:, k + 1], Y), k
        assert np.array_equal(bundle.kept["Gamma"][:, k + 1], Gamma), k


def clock_reference(spec, Y, n_steps, seed, probe_steps):
    """The crossing construction path by path, in plain Python over the factor paths ``Y``.

    The intensity integral is the trapezoid from the last crossing to the
    step's end, with the factor interpolated linearly inside the step; a
    crossing is placed linearly within that stretch, the earliest name wins,
    and every name then draws its clock from the next round.
    """
    n_paths, n = Y.shape[0], spec.n
    dt = spec.pref.T / n_steps
    clocks = [sim._block_rng(seed, sim._KIND_CLOCKS, rnd).exponential(size=(n_paths, n))
              for rnd in range(n)]

    def lam(y, bits):
        rates = spec.intensity(np.array([y]), DefaultState(n, bits))[0]
        return [float(rates[i]) if not (bits >> i) & 1 else 0.0 for i in range(n)]

    times = np.full((n_paths, n), np.inf)
    final_bits = np.zeros(n_paths, dtype=np.int64)
    comp = {k: np.zeros((n_paths, n)) for k in probe_steps}
    for p in range(n_paths):
        bits, rnd = 0, 0
        clock = list(clocks[0][p])
        acc, integral = [0.0] * n, [0.0] * n
        for k in range(n_steps):
            y0, y1, s = Y[p, k], Y[p, k + 1], 0.0     # s: fraction of the step already run
            while True:
                la, lb = lam(y0 + s * (y1 - y0), bits), lam(y1, bits)
                dA = [0.5 * (la[i] + lb[i]) * ((1.0 - s) * dt) for i in range(n)]
                frac = [min(max((clock[i] - acc[i]) / dA[i], 0.0), 1.0)
                        if dA[i] > 0 and acc[i] + dA[i] >= clock[i] else np.inf
                        for i in range(n)]
                if min(frac) == np.inf:
                    acc = [acc[i] + dA[i] for i in range(n)]
                    integral = [integral[i] + dA[i] for i in range(n)]
                    break
                win = int(np.argmin(frac))
                fr = frac[win]
                integral = [integral[i] + dA[i] * fr for i in range(n)]
                times[p, win] = k * dt + (s + fr * (1.0 - s)) * dt
                bits |= 1 << win
                rnd = min(rnd + 1, n - 1)
                acc, clock = [0.0] * n, list(clocks[rnd][p])
                s = s + fr * (1.0 - s)
            if k + 1 in comp:
                comp[k + 1][p] = [((bits >> i) & 1) - integral[i] for i in range(n)]
        final_bits[p] = bits
    return times, final_bits, comp


def three_name_contagion_spec():
    """Three names, each one's intensity jumping when another defaults."""
    from test_cli import three_name_config

    cfg = three_name_config()
    for i, state in ((1, "010"), (2, "001"), (3, "100")):
        cfg["credit"].update({f"a_{i}_{state}": "0.9", f"b_{i}_{state}": "0.5",
                              f"c_{i}_{state}": "0.2"})
    return build_model(cfg)


@pytest.mark.parametrize("spec", [
    constant_lambda_spec((6.0, 4.0)),
    dataclasses.replace(constant_lambda_spec(), credit=CreditSpec.exp_affine(
        2, {(0, "00"): (0.0, 6.0, 0.8), (1, "00"): (0.0, 4.0, -0.5)})),
    make_contagion_spec(),
    three_name_contagion_spec(),
], ids=["constant", "factor-driven", "contagion", "three_names"])
def test_clock_sweeps_equal_a_per_path_reference(spec):
    # the reference reads every intensity afresh from (y, bits), so the rows the pass
    # carries from step to step and re-gathers where a path defaults are checked too
    n_paths, n_steps, seed = 200, 8, 3
    dt = spec.pref.T / n_steps
    bundle = sim.simulate_market(spec, n_paths, n_steps, seed, keep=n_paths,
                                 probe_times=(0.5, 1.0))
    times, final_bits, comp = clock_reference(spec, bundle.kept["Y"], n_steps, seed, (4, 8))
    np.testing.assert_allclose(bundle.default_times, times, rtol=0, atol=1e-12)
    assert np.array_equal(bundle.final_bits, final_bits)
    for k in (4, 8):
        np.testing.assert_allclose(bundle.compensator[k * dt], comp[k], rtol=0, atol=1e-12)
    # the sweeps after the first: both names default inside one step on some paths
    both = np.isfinite(times).all(axis=1)
    assert np.any(np.floor(times[both, 0] / dt) == np.floor(times[both, 1] / dt))


class TestOnePass:
    def test_controlled_pass_keeps_the_market_draws(self, benchmark_spec, benchmark_result):
        result, _ = benchmark_result
        probes = (0.25, 0.5, 1.0)
        market = sim.simulate_market(benchmark_spec, 3000, 40, seed=17, keep=5,
                                     probe_times=probes)
        both = sim.simulate_market(benchmark_spec, 3000, 40, seed=17, keep=5,
                                   probe_times=probes, result=result, x0=2.0)
        assert sorted(both.compensator) == sorted(market.compensator)
        for t, samples in market.compensator.items():
            assert np.array_equal(both.compensator[t], samples)
        assert np.array_equal(both.default_times, market.default_times)
        assert np.array_equal(both.y_terminal, market.y_terminal)
        for key in ("Y", "H_bits"):
            assert np.array_equal(both.kept[key], market.kept[key])
        assert sorted(both.g_probes) == sorted(market.compensator)
        assert both.x0 == 2.0 and both.wealth["X_T"].shape == (3000,)


class TestWealthPaths:
    def test_grid_exit_fraction_counts_kept_paths(self, benchmark_spec, benchmark_result):
        result, grid = benchmark_result
        bundle = sim.simulate_market(benchmark_spec, 400, 50, seed=4, keep=400, result=result,
                                     x0=1.0)
        Y = bundle.kept["Y"][:, 1:]
        outside = np.count_nonzero((Y < grid.y_lo) | (Y > grid.y_hi))
        assert outside > 0
        assert bundle.grid_exit_frac == outside / Y.size
        # the checks run the same factor paths for the same (seed, n_paths, n_steps)
        rep = sim.duality_gap(benchmark_spec, result, 1.0, 400, 50, seed=4)
        assert rep.extra["grid_exit_frac"] == bundle.grid_exit_frac
        assert rep.extra["exit_fraction"] == bundle.exit_fraction
        for g_rep in sim.check_G_martingale(benchmark_spec, result, 400, 50, seed=4):
            assert g_rep.extra == {"grid_exit_frac": bundle.grid_exit_frac,
                                   "exit_fraction": bundle.exit_fraction}

    def test_bank_account_exact(self, benchmark_spec, benchmark_result):
        result, _ = benchmark_result
        bundle = sim.simulate_market(benchmark_spec, 500, 64, seed=2, keep=0,
                                     result=with_policy(result, pi=np.zeros(2), c_mult=0.0),
                                     x0=1.0)
        want = np.exp(benchmark_spec.market.r * 1.0)
        assert np.max(np.abs(bundle.wealth["X_T"] - want)) < 1e-12

    def test_gbm_log_mean(self, merton_result):
        # constant weight, no defaults, no consumption: log X_T has known mean
        spec, result, _ = merton_result
        n = 40000
        pi_c = 0.6
        bundle = sim.simulate_market(
            spec, n, 64, seed=21, keep=0,
            result=with_policy(result, pi=np.array([pi_c, 0.0]), c_mult=0.0), x0=1.0)
        lx = np.log(bundle.wealth["X_T"])
        sig = 0.2
        drift = (spec.market.r + pi_c * (0.25 - 0.2) - 0.5 * pi_c**2 * sig**2) * 1.0
        se = lx.std(ddof=1) / np.sqrt(n)
        assert abs(lx.mean() - drift) <= 3 * se

    def test_default_jump_rule(self):
        # near-deterministic wealth: a default multiplies X by exactly (1 - pi);
        # the compensated-jump drift pi * lambda accrues per step started alive
        lam_c = 2.0
        spec = ModelSpec(
            n=1,
            factor=FactorSpec(u0=0.0, kappa=0.0, sigma0=np.array([0.1]), rho=0.0,
                              domain_lo=-2, domain_hi=2),
            credit=CreditSpec.exp_affine(1, {(0, "0"): (lam_c, 0.0, 0.0)}),
            market=MarketSpec(mu=[0.0], sigma=[1e-7], r=0.0),
            pref=PreferenceSpec(p=0.5, K1=1.0, K2=1.0, T=1.0),
        )
        grid = cf.GridSpec(-1.0, 1.0, 11, 20)
        result = cf.solve_recursive_system(spec, grid)
        n_steps = 200
        bundle = sim.simulate_market(spec, 2000, n_steps, seed=3, keep=0,
                                     result=with_policy(result, pi=np.array([0.3]), c_mult=0.0),
                                     x0=1.0)
        tau = bundle.default_times[:, 0]
        defaulted = np.isfinite(tau)
        assert 0.5 < defaulted.mean() < 0.95
        dt = 1.0 / n_steps
        alive_steps = np.floor(tau[defaulted] / dt) + 1
        want = 0.7 * np.exp(0.3 * lam_c * alive_steps * dt)
        assert np.allclose(bundle.wealth["X_T"][defaulted], want, rtol=1e-5)
        # survivors never jump
        want_surv = np.exp(0.3 * lam_c * 1.0)
        assert np.allclose(bundle.wealth["X_T"][~defaulted], want_surv, rtol=1e-5)

    def test_flagged_when_weight_reaches_one(self):
        spec = constant_lambda_spec((2.0, 0.0))
        grid = cf.GridSpec(-1.0, 1.0, 21, 20)
        result = cf.solve_recursive_system(spec, grid)
        bundle = sim.simulate_market(spec, 2000, 20, seed=4, keep=0,
                                     result=with_policy(result, pi=np.array([1.5, 0.0])), x0=1.0)
        defaulted = np.isfinite(bundle.default_times[:, 0])
        assert np.all(bundle.wealth["flagged"][defaulted])


class TestDensity:
    def test_trivial_measure_change(self, benchmark_spec, benchmark_result):
        # benchmark optimal controls are ~0: Gamma stays at 1
        result, _ = benchmark_result
        bundle = sim.simulate_market(benchmark_spec, 2000, 50, seed=6, keep=0, result=result,
                                     x0=1.0)
        assert np.max(np.abs(bundle.density["Gamma_T"] - 1.0)) < 1e-6

    def test_unit_mean_deterministic_theta(self, merton_result):
        # merton: theta = xi constant, no defaults; exponential martingale mean 1
        spec, result, _ = merton_result
        n = 50000
        bundle = sim.simulate_market(spec, n, 64, seed=8, keep=0, result=result, x0=1.0)
        g = bundle.density["Gamma_T"]
        se = g.std(ddof=1) / np.sqrt(n)
        assert abs(g.mean() - 1.0) <= 3 * se

    def test_jump_factor(self):
        # theta = a = 0 and constant jump loading: Gamma_T = (1+h) e^{-h int lambda}
        spec = constant_lambda_spec((0.8, 0.0))
        spec = ModelSpec(n=2, factor=spec.factor, credit=spec.credit,
                         market=MarketSpec(mu=[0.2, 0.2], sigma=[0.5, 0.5], r=0.2),
                         pref=spec.pref)  # mu = r: optimal loadings vanish
        grid = cf.GridSpec(-1.0, 1.0, 21, 20)
        result = cf.solve_recursive_system(spec, grid)
        h_const = 0.2
        # name 1 (bit 0) carries the loading in the states where it is alive
        hhat = np.array([[h_const * (1 - (b & 1)), 0.0] for b in range(4)])[:, None, None, :]
        result = with_policy(result, hhat=hhat, theta=0.0, ahat=0.0)
        n_steps = 50
        bundle = sim.simulate_market(spec, 3000, n_steps, seed=10, keep=0, result=result,
                                     x0=1.0)
        # the density drift -h lambda accrues per step started alive; the jump
        # multiplies by exactly (1 + h)
        tau = bundle.default_times[:, 0]
        defaulted = np.isfinite(tau)
        dt = 1.0 / n_steps
        alive_time = np.where(defaulted, (np.floor(tau / dt) + 1) * dt, 1.0)
        jump = np.where(defaulted, 1.0 + h_const, 1.0)
        want = jump * np.exp(-h_const * 0.8 * alive_time)
        assert np.allclose(bundle.density["Gamma_T"], want, rtol=1e-10)


class TestGMartingale:
    def test_benchmark_passes(self, benchmark_spec, benchmark_result):
        result, _ = benchmark_result
        reports = sim.check_G_martingale(benchmark_spec, result, 20000, 100, seed=12)
        assert len(reports) == 3
        assert all(r.passed for r in reports)

    def test_time_zero_probe_exact(self, benchmark_spec, benchmark_result):
        result, _ = benchmark_result
        reports = sim.check_G_martingale(benchmark_spec, result, 200, 20, seed=13,
                                         probes=(0.0,))
        assert reports[0].estimate == pytest.approx(reports[0].target, abs=1e-12)

    def test_corrupted_field_fails_at_T(self, benchmark_spec, benchmark_result):
        result, _ = benchmark_result
        corrupted = dataclasses.replace(result, f=result.f * 1.1, df=result.df * 1.1)
        reports = sim.check_G_martingale(benchmark_spec, corrupted, 20000, 100, seed=12,
                                         probes=(1.0,))
        assert not reports[0].passed

    def test_nondegenerate_passes(self, single_name_result):
        spec, result, _ = single_name_result
        reports = sim.check_G_martingale(spec, result, 30000, 150, seed=14)
        assert all(r.passed for r in reports)
        assert reports[-1].se > 1e-5  # genuine variance on this spec


class TestDualityGap:
    def test_benchmark_passes(self, benchmark_spec, benchmark_result):
        result, _ = benchmark_result
        rep = sim.duality_gap(benchmark_spec, result, 1.0, 20000, 200, seed=15)
        assert rep.passed
        assert rep.extra["hedge_gap"] < 1e-9

    def test_merton_matches_classical_value(self, merton_result):
        # closed-form no-default value: the scalar oracle driven by the combined
        # squared market price of risk of the two independent stocks
        spec, result, _ = merton_result
        xi_sq = 2 * 0.25**2
        m = om.ScalarModel(lambda0=0.0, sigma=0.2, xi=np.sqrt(xi_sq), r=0.2, q=spec.q,
                           K1=1.0, K2=1.0, T=1.0)
        p = spec.pref.p
        V_closed = (1.0**p / p) * float(om.ftil_defaulted(1.0, m)) ** (1.0 - p)
        v_solver = cf.value_function(1.0, 0.0, Z00, result, spec)
        # fixture grid is 100 time steps; the solver's own error is ~1e-6 here
        assert v_solver == pytest.approx(V_closed, rel=1e-5)
        rep = sim.duality_gap(spec, result, 1.0, 30000, 200, seed=16)
        assert rep.passed
        assert abs(rep.estimate - V_closed) <= rep.tolerance

    def test_premium_spec_tight_with_variance(self, premium_result):
        spec, result, _ = premium_result
        rep = sim.duality_gap(spec, result, 1.0, 30000, 200, seed=17)
        assert rep.passed
        assert rep.se > 1e-4                       # genuinely stochastic estimate
        assert rep.extra["rep_log_corr"] > 0.99    # representation tracks wealth
        assert rep.extra["hedge_gap"] < 1e-9

    def test_zero_consumption_strictly_lower(self, benchmark_spec, benchmark_result):
        result, _ = benchmark_result
        rep = sim.duality_gap(benchmark_spec, with_policy(result, c_mult=0.0), 1.0, 20000, 200,
                              seed=15)
        assert not rep.passed
        assert rep.estimate < rep.target - rep.tolerance

    def test_constant_pi_strictly_lower(self, benchmark_spec, benchmark_result):
        result, _ = benchmark_result
        rep = sim.duality_gap(benchmark_spec, with_policy(result, pi=np.array([0.5, 0.5])), 1.0,
                              20000, 200, seed=15)
        assert rep.estimate < rep.target - rep.tolerance

    def test_weak_duality_under_hedge_gap(self, single_name_result):
        # dead-state market price of risk is unhedgeable: the dual value is a
        # strict upper bound; simulated utility must stay (weakly) below it
        spec, result, _ = single_name_result
        rep = sim.duality_gap(spec, result, 1.0, 30000, 200, seed=18)
        assert rep.extra["hedge_gap"] > 0.1
        assert rep.estimate <= rep.target + rep.tolerance

    def test_halving_dt_within_floored_se(self, benchmark_spec, benchmark_result):
        result, _ = benchmark_result
        r1 = sim.duality_gap(benchmark_spec, result, 1.0, 20000, 100, seed=19)
        r2 = sim.duality_gap(benchmark_spec, result, 1.0, 20000, 200, seed=19)
        assert abs(r1.estimate - r2.estimate) <= r1.se + r1.bias_floor

    def test_scaling_x0(self, benchmark_spec, benchmark_result):
        result, _ = benchmark_result
        r1 = sim.duality_gap(benchmark_spec, result, 1.0, 5000, 50, seed=20)
        r2 = sim.duality_gap(benchmark_spec, result, 4.0, 5000, 50, seed=20)
        p = benchmark_spec.pref.p
        assert r2.estimate == pytest.approx(4.0**p * r1.estimate, rel=1e-10)
        assert r2.target == pytest.approx(4.0**p * r1.target, rel=1e-12)


class TestFeynmanKac:
    def test_deterministic_quadrature_when_vol_zero(self):
        spec = ModelSpec(
            n=1,
            factor=FactorSpec(u0=0.0, kappa=0.0, sigma0=np.array([0.0]), rho=0.0,
                              domain_lo=-1.25, domain_hi=1.25),
            credit=CreditSpec.exp_affine(1, {(0, "0"): (0.5, 0.0, 0.0)}),
            market=MarketSpec(mu=[0.3], sigma=[0.8], r=0.1),
            pref=PreferenceSpec(p=0.5, K1=1.0, K2=1.0, T=1.0),
        )
        grid = cf.GridSpec(-0.5, 0.5, 3, 200)
        result = cf.solve_recursive_system(spec, grid)
        [rep] = sim.mc_feynman_kac(spec, result, [(DefaultState.from_bitstring("0"), (1.0, 0.0))],
                                   64, 256, seed=1)
        assert rep.se < 1e-12
        assert abs(rep.estimate - rep.target) < 1e-5

    def test_all_defaulted_matches_closed_form(self, benchmark_spec, benchmark_result):
        result, _ = benchmark_result
        z11 = DefaultState.from_bitstring("11")
        m = om.ScalarModel(lambda0=0.0, sigma=0.8, xi=0.0, r=0.2, q=benchmark_spec.q,
                           K1=1.0, K2=1.0, T=1.0)
        [rep] = sim.mc_feynman_kac(benchmark_spec, result, [(z11, (0.5, 0.0))], 20000, 128,
                                   seed=2)
        oracle_val = float(om.all_defaulted_closed_form(0.5, m))
        assert rep.passed
        assert abs(rep.estimate - oracle_val) <= rep.tolerance + 1e-6

    def test_benchmark_all_states(self, benchmark_spec, benchmark_result):
        result, _ = benchmark_result
        probes = [(DefaultState.from_bitstring(bits), (0.5, 0.0))
                  for bits in ("00", "01", "10", "11")]
        reports = sim.mc_feynman_kac(benchmark_spec, result, probes, 20000, 128, seed=3)
        assert len(reports) == 4
        for rep in reports:
            assert rep.passed, str(rep)

    def test_nondegenerate_state_has_variance(self, scott_result):
        spec, result, _ = scott_result
        [rep] = sim.mc_feynman_kac(spec, result, [(Z00, (0.8, -0.2))], 20000, 128, seed=4)
        assert rep.passed
        assert rep.se > 1e-8

    def test_catches_a_wrong_solution(self):
        # mc_scott sizes: scott_example22 at 101x100 and the state-00 probes of
        # `creditfolio simulate --paths 4000 --seed 1`, whose pass draws at seed 3
        spec = build_model(preset_config("scott_example22"))
        result = cf.solve_recursive_system(spec, cf.GridSpec(-1.0, 1.0, 101, 100))
        f = result.f.copy()
        f[0b00, 1:] *= 1.0 + 1e-4
        wrong = dataclasses.replace(result, f=f)
        probes = [(Z00, (0.5, 0.0)), (Z00, (1.0, 0.0))]
        assert all(rep.passed for rep in sim.mc_feynman_kac(spec, result, probes, 4000, 256, 3))
        for rep in sim.mc_feynman_kac(spec, wrong, probes, 4000, 256, 3):
            assert abs(rep.estimate - rep.target) > 2.0 * rep.tolerance, str(rep)

    def test_table_holds_the_path_integrand_at_the_nodes_bitwise(self, scott_result):
        # each node holds the bits of the pointwise terms: phi / beta, and Phi formed
        # from a contiguous copy of f by power, divide, multiply
        spec, result, _ = scott_result
        beta, y_nodes = spec.beta, result.grid.y_nodes()
        states = list(cf.all_states(2))
        table = sim._fk_table(spec, result, states, y_nodes, with_nu=True)
        hhat, theta = result.channel("hhat"), result.channel("theta")
        for row, state in enumerate(states):
            coef = Coefficients(spec, (state,), y_nodes)
            phi, nu = coef.phi_nu(hhat[state.bits], theta[state.bits])
            source = coef.source_sum(hhat[state.bits], {i: result.f[state.flip(i).bits]
                                                        for i in state.alive})
            integrand = np.array(result.f[state.bits])
            integrand **= 1.0 - beta
            integrand /= beta
            integrand *= source
            want = np.stack(np.broadcast_arrays(phi / beta, integrand, nu), axis=-1)
            assert table[row].tobytes() == want.tobytes()

    def test_bad_probe_raises(self, benchmark_spec, benchmark_result):
        result, _ = benchmark_result
        with pytest.raises(ValueError):
            sim.mc_feynman_kac(benchmark_spec, result, [(Z00, (0.0, 0.0))], 100, 16, seed=5)

    def test_bad_probe_in_a_batch_raises(self, benchmark_spec, benchmark_result):
        result, _ = benchmark_result
        probes = [(Z00, (0.5, 0.0)), (DefaultState.from_bitstring("11"), (-0.1, 0.0))]
        with pytest.raises(ValueError):
            sim.mc_feynman_kac(benchmark_spec, result, probes, 100, 16, seed=5)

    @pytest.mark.parametrize("which", ["benchmark_s5", "scott_example22"])
    def test_batch_reports_equal_lone_probe_reports(self, which, benchmark_spec,
                                                    benchmark_result, scott_result):
        # benchmark_s5 takes the exact OU transition, scott_example22 the Euler step
        if which == "benchmark_s5":
            spec, (result, _) = benchmark_spec, benchmark_result
        else:
            spec, result, _ = scott_result
        probes = [(DefaultState.from_bitstring(bits), probe) for bits, probe in
                  (("00", (0.5, 0.0)), ("11", (1.0, 0.3)), ("00", (0.25, -0.4)),
                   ("10", (0.8, 1.5)), ("01", (0.02, -0.9)))]
        batch = sim.mc_feynman_kac(spec, result, probes, 3000, 24, seed=9)
        assert len(batch) == len(probes)
        for probe, rep in zip(probes, batch):
            [lone] = sim.mc_feynman_kac(spec, result, [probe], 3000, 24, seed=9)
            assert rep.name == lone.name
            assert (rep.estimate, rep.se, rep.target) == (lone.estimate, lone.se, lone.target)
            assert rep.tolerance == lone.tolerance


def fk_reference(spec, result, state, t, y, n_paths, n_steps, seed):
    """One Feynman-Kac probe path by path in y-units, the pass's operations in their order.

    Each step reads phi/beta, Phi and nu afresh through ``fields.lookup`` at
    the path's y, from the same ``_block_rng`` draws as the pass, and reflects
    at the solved grid's edges; the read clamps a point off the grid.
    """
    grid, t_nodes, y_nodes = result.grid, result.t_nodes, result.grid.y_nodes()
    fac, dt = spec.factor, t / n_steps
    vol = np.sqrt(fac.vol_sq)
    exact = fac.rho == 0.0 and fac.kappa != 0.0
    table = sim._fk_table(spec, result, [state], y_nodes, with_nu=not exact)
    if exact:
        mean, decay = fac.u0 / fac.kappa, np.exp(-fac.kappa * dt)
        sd = vol * np.sqrt((1.0 - decay**2) / (2.0 * fac.kappa))
    else:
        sd = vol * np.sqrt(dt)
    Y = np.full(n_paths, float(y))
    vals = lookup(table, t_nodes, y_nodes, t, 0, Y)
    I_acc, E2, integrand_prev = np.zeros(n_paths), np.zeros(n_paths), vals[:, 1]
    for k in range(n_steps):
        z = sim._block_rng(seed, sim._KIND_FK, (1 << 20) + k).standard_normal(n_paths)
        if exact:
            Y = mean + (Y - mean) * decay + sd * z
        else:
            Y = Y + vals[:, 2] * dt + sd * z
        Y = np.where(Y < grid.y_lo, 2 * grid.y_lo - Y, Y)
        Y = np.where(Y > grid.y_hi, 2 * grid.y_hi - Y, Y)
        phi_prev = vals[:, 0]
        vals = lookup(table, t_nodes, y_nodes, max(t - (k + 1) * dt, 0.0), 0, Y)
        I_acc = I_acc + (phi_prev + vals[:, 0]) * (0.5 * dt)
        integrand = np.exp(I_acc) * vals[:, 1]
        E2 = E2 + (integrand_prev + integrand) * (0.5 * dt)
        integrand_prev = integrand
    return sim._mean_se(spec.f0 * np.exp(I_acc) + E2)


@pytest.mark.parametrize("which,bits,probe", [
    ("benchmark_s5", "00", (0.5, 0.0)), ("benchmark_s5", "01", (1.0, 0.3)),
    ("scott_example22", "00", (0.8, -0.2)), ("scott_example22", "10", (0.5, 0.6)),
    ("benchmark_s5", "00", (0.5, 1.5)), ("scott_example22", "01", (1.0, 1.5)),
], ids=["s5-exact", "s5-exact-01", "scott-euler", "scott-euler-10", "s5-off-grid",
        "scott-off-grid"])
def test_feynman_kac_pass_equals_a_pointwise_reference(which, bits, probe, benchmark_spec,
                                                       benchmark_result, scott_result):
    # the pass runs in grid cells on step-scaled channels: the same estimate up to
    # round-off; a probe at y = 1.5 starts off the solved grid [-1, 1]
    if which == "benchmark_s5":
        spec, (result, _) = benchmark_spec, benchmark_result
    else:
        spec, result, _ = scott_result
    state = DefaultState.from_bitstring(bits)
    [rep] = sim.mc_feynman_kac(spec, result, [(state, probe)], 300, 24, seed=11)
    est, se = fk_reference(spec, result, state, *probe, 300, 24, seed=11)
    assert se > 0.0
    np.testing.assert_allclose(rep.estimate, est, rtol=1e-12, atol=0)
    np.testing.assert_allclose(rep.se, se, rtol=1e-9, atol=0)


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 3])
def test_block_rng_is_the_keyed_philox_block(seed):
    # one generator reset per block draws what a Philox built for that block draws,
    # also after an earlier block of the same generator has been drawn from
    rng = None
    for kind, block in ((sim._KIND_NORMALS, 0), (sim._KIND_CLOCKS, 1), (sim._KIND_FK, 7),
                        (sim._KIND_FK, (1 << 20) + 255), (sim._KIND_NORMALS, 0)):
        want = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, kind, block]))
        rng = sim._block_rng(seed, kind, block, rng)
        assert np.array_equal(rng.standard_normal(1000), want.standard_normal(1000))
        assert np.array_equal(rng.exponential(size=1000), want.exponential(size=1000))
        fresh = sim._block_rng(seed, kind, block)
        assert np.array_equal(fresh.standard_normal(7),
                              np.random.Generator(np.random.Philox(
                                  key=seed, counter=[0, 0, kind, block])).standard_normal(7))


class TestReachability:
    def test_reachable_states(self, benchmark_spec, merton_result):
        assert {s.bitstring for s in sim.reachable_states(benchmark_spec, Z00)} == \
            {"00", "01", "10", "11"}
        spec_m, _, _ = merton_result
        assert {s.bitstring for s in sim.reachable_states(spec_m, Z00)} == {"00"}


@pytest.mark.parametrize("sigma", [GENERAL_SIGMA, general_sigma_of_y], ids=["const", "y"])
def test_full_sigma_passes_every_path_check(sigma):
    # the path engine runs every sigma the PDE solves: the 18 rows of
    # `creditfolio simulate` (compensator, G-martingale, Feynman-Kac, duality
    # gap) pass for a constant and a y-dependent full matrix at three seeds
    spec = full_sigma_scott(sigma)
    assert not spec.market.is_diagonal
    result = cf.solve_recursive_system(spec, cf.GridSpec(-1.0, 1.0, 41, 40))
    probes = (0.25, 0.5, 1.0)
    fk_probes = [(s, (t, 0.0)) for s in cf.states_by_cardinality(2) for t in (0.5, 1.0)]
    for seed in (1, 2, 3):
        bundle = sim.simulate_market(spec, 4000, 100, seed, probe_times=probes, keep=0,
                                     result=result, x0=1.0)
        reports = [*sim._compensator_reports(bundle), *sim._g_reports(bundle),
                   *sim.mc_feynman_kac(spec, result, fk_probes, 4000, n_steps=256, seed=seed + 2),
                   sim._duality_report(bundle, result)]
        assert len(reports) == 18
        assert [str(r) for r in reports if not r.passed] == [], seed
