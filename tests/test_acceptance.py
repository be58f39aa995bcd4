"""Acceptance suite: one test per criterion, at the stated sizes and tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Full-size solves and 1e5-path simulations make this module
take several minutes.
"""

import time

import numpy as np
import pytest

import creditfolio as cf
from creditfolio import oracle as om
from creditfolio import sim
from creditfolio.cli import apply_overrides, build_model, preset_config
from creditfolio.model import (CreditSpec, DefaultState, FactorSpec, MarketSpec,
                               ModelSpec, PreferenceSpec, load_preset)

from conftest import bisect_reference, with_policy

N_PATHS = 100_000
N_STEPS = 400
FULL_GRID = cf.GridSpec(-1.0, 1.0, 401, 400)
Z00 = DefaultState.from_bitstring("00")
Z11 = DefaultState.from_bitstring("11")


def report(num, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num}: {detail}")
    assert passed, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def bench():
    spec = load_preset("benchmark_s5")
    return spec, cf.solve_recursive_system(spec, FULL_GRID)


@pytest.fixture(scope="module")
def bench_p01():
    spec = load_preset("benchmark_s5", p=0.1)
    return spec, cf.solve_recursive_system(spec, FULL_GRID)


def test_criterion_1_all_defaulted_closed_form(bench):
    spec, result = bench
    m = om.ScalarModel(lambda0=0.0, sigma=0.8, xi=0.0, r=0.2, q=spec.q,
                       K1=1.0, K2=1.0, T=1.0)
    fld = result.fields["11"]
    exact = om.all_defaulted_closed_form(fld.t_nodes, m)
    rel = float(np.max(np.abs(fld.f - exact[:, None]) / exact[:, None]))
    elapsed = result.report["11"]["elapsed"]
    report(1, rel <= 1e-6 and elapsed < 10.0,
           f"state (1,1) max rel err {rel:.2e} (tol 1e-6), solve time {elapsed:.2f}s (< 10s)")


def test_criterion_2_merton_limit():
    spec = load_preset("merton_nodefault")
    result = cf.solve_recursive_system(spec, cf.GridSpec(-1.0, 1.0, 201, 200))
    target = om.merton_fraction(0.25, 0.2, 0.2, 0.5)
    worst_pi = 0.0
    for bits, pol in result.policies.items():
        state = DefaultState.from_bitstring(bits)
        for i in state.alive:
            worst_pi = max(worst_pi, float(np.max(np.abs(pol.pi[:, :, i] - target))))
    base = result.fields["00"].f
    worst_dev = max(float(np.max(np.abs(result.fields[b].f - base)))
                    for b in ("01", "10", "11"))
    report(2, worst_pi <= 1e-8 and worst_dev <= 1e-12,
           f"max |pi - {target}| = {worst_pi:.2e} (tol 1e-8), "
           f"state deviation {worst_dev:.2e} (tol 1e-12)")


def test_criterion_3_solution_bounds(bench):
    spec, result = bench
    worst_lo = min(row["bound_margin_lo"] for row in result.report.values())
    worst_hi = min(row["bound_margin_hi"] for row in result.report.values())
    clamp_hits = sum(row["clamp_hits"] for row in result.report.values())
    report(3, worst_lo >= -1e-12 and worst_hi >= -1e-12 and clamp_hits == 0,
           f"bound margins ({worst_lo:.2e}, {worst_hi:.2e}) >= -1e-12, "
           f"clamp activations {clamp_hits} (= 0)")


def test_criterion_4_gradient_stability(bench):
    spec, result = bench
    fine = cf.solve_recursive_system(spec, cf.GridSpec(-1.0, 1.0, 801, 800))
    g401 = max(float(np.max(np.abs(f.df))) for f in result.fields.values())
    g801 = max(float(np.max(np.abs(f.df))) for f in fine.fields.values())
    finite = np.isfinite(g401) and np.isfinite(g801)
    # the zero-premium benchmark has a y-flat solution: both gradients sit at
    # round-off scale, where a relative comparison is meaningless
    noise_floor = 1e-6
    if max(g401, g801) < noise_floor:
        ok = finite
        detail = (f"max |df/dy| {g401:.2e} vs {g801:.2e}: both below the "
                  f"{noise_floor:g} round-off floor of the y-flat benchmark solution")
    else:
        change = abs(g801 - g401) / g401
        ok = finite and change < 0.01
        detail = f"max |df/dy| {g401:.4e} -> {g801:.4e}, change {change:.2%} (< 1%)"
    report(4, ok, detail)


def test_criterion_5_stationarity_residual_and_bisection(bench):
    spec, result = bench
    worst = max(row["resid_max"] for row in result.report.values())
    rng = np.random.default_rng(2024)
    y_nodes = FULL_GRID.y_nodes()
    worst_bisect = 0.0
    for _ in range(100):
        k = int(rng.integers(0, FULL_GRID.n_t + 1))
        j = int(rng.integers(0, FULL_GRID.n_y))
        bits = ("00", "01", "10")[int(rng.integers(0, 3))]
        state = DefaultState.from_bitstring(bits)
        fld, pol = result.fields[bits], result.policies[bits]
        for i in state.alive:
            child = result.fields[state.flip(i).bitstring]
            ref = bisect_reference(spec, state, i, float(y_nodes[j]),
                                   float(fld.f[k, j]), float(fld.df[k, j]),
                                   float(child.f[k, j]))
            worst_bisect = max(worst_bisect, abs(pol.hhat[k, j, i] - ref))
    report(5, worst <= 1e-10 and worst_bisect <= 1e-8,
           f"stationarity residual {worst:.2e} (tol 1e-10); bisection-oracle "
           f"agreement {worst_bisect:.2e} at 100 random nodes (tol 1e-8)")


def test_criterion_6_fixed_point_and_degenerate_solver():
    lam0, sig, xi, r = 0.5, 0.8, 0.25, 0.1
    m = om.ScalarModel(lambda0=lam0, sigma=sig, xi=xi, r=r, q=0.0, K1=1.0, K2=1.0, T=1.0)
    fp = om.picard_fixed_point(m)
    resid = om.fixed_point_residual(fp, m, np.linspace(0.0, 1.0, 64))

    spec = ModelSpec(
        n=1,
        factor=FactorSpec(u0=0.0, kappa=0.0, sigma0=np.array([0.0]), rho=0.0,
                          domain_lo=-1.25, domain_hi=1.25),
        credit=CreditSpec.exp_affine(1, {(0, "0"): (lam0, 0.0, 0.0)}),
        market=MarketSpec(mu=[r + xi * sig], sigma=[sig], r=r),
        pref=PreferenceSpec.from_q(0.0, 1.0, 1.0, 1.0),
    )
    result = cf.solve_recursive_system(spec, cf.GridSpec(-0.5, 0.5, 3, 400))
    t_nodes = result.fields["0"].t_nodes
    f1 = om.all_defaulted_closed_form(t_nodes, m)
    f0 = np.array([om.bernoulli_alive_solution(float(t), fp, m) ** (1 / m.beta)
                   for t in t_nodes])
    err1 = float(np.max(np.abs(result.fields["1"].f[:, 1] - f1)))
    err0 = float(np.max(np.abs(result.fields["0"].f[:, 1] - f0)))
    x_u = fp(t_nodes)
    pi_oracle = 1.0 - (1.0 / x_u) * (f1 / f0) ** spec.beta
    err_pi = float(np.max(np.abs(result.policies["0"].pi[:, 1, 0] - pi_oracle)))
    report(6, resid < 1e-8 and max(err1, err0, err_pi) <= 1e-4,
           f"fixed-point residual {resid:.2e} (tol 1e-8); degenerate-solver errors "
           f"f1 {err1:.2e}, f0 {err0:.2e}, strategy {err_pi:.2e} (tol 1e-4)")


def test_criterion_7_feynman_kac_probes(bench):
    spec, result = bench
    probes = [(0.2, 0.0), (0.4, -0.5), (0.6, 0.5), (0.8, -0.25), (1.0, 0.25)]
    started = time.perf_counter()
    failures = []
    for bits in ("00", "01", "10", "11"):   # one call per state keeps its arrays at 5 x N_PATHS
        state = DefaultState.from_bitstring(bits)
        for rep in sim.mc_feynman_kac(spec, result, [(state, probe) for probe in probes],
                                      N_PATHS, n_steps=192, seed=77):
            if not rep.passed:
                failures.append(str(rep))
    elapsed = time.perf_counter() - started
    report(7, not failures and elapsed < 120.0,
           f"20 probes (5 per state) at {N_PATHS} paths all within tolerance, "
           f"{elapsed:.0f}s (< 120s)" + ("; failures: " + "; ".join(failures) if failures else ""))


def test_criterion_8_G_martingale(bench):
    spec, result = bench
    reports = sim.check_G_martingale(spec, result, N_PATHS, N_STEPS, seed=101,
                                     probes=(0.25, 0.5, 1.0))
    worst = max(abs(r.estimate - r.target) for r in reports)
    report(8, all(r.passed for r in reports),
           f"E[G_t] constant at probes (0.25, 0.5, 1): worst deviation {worst:.2e} "
           f"within tolerance {max(r.tolerance for r in reports):.2e}")


def test_criterion_9_duality_gap(bench, bench_p01):
    lines = []
    ok = True
    # one pass per seed: the policies of a pass run on the same market draws, and each
    # report is bitwise that of its own sim.duality_gap call
    spec, result = bench
    main = sim.simulate_market(spec, N_PATHS, N_STEPS, seed=2025, policies=[
        (spec, result, 1.0), (*bench_p01, 1.0), (spec, with_policy(result, pi_scale=1.5), 1.0)])
    rep_main, rep_p01, rep_scaled = (sim._duality_report(main, run) for run in main.runs)
    for rep, tag in ((rep_main, "p=0.8"), (rep_p01, "p=0.1")):
        ok &= rep.passed
        lines.append(f"{tag}: estimate {rep.estimate:.6f} vs V {rep.target:.6f} "
                     f"(tol {rep.tolerance:.2e}) {'ok' if rep.passed else 'FAIL'}")

    # the literal perturbation: pi scaled by 1.5.  The zero-premium benchmark has
    # pi identically zero, so the scaling provably changes nothing; assert that
    # inertness rather than a lower utility, and demonstrate the optimality
    # ordering with perturbations that genuinely move the policy.
    inert = abs(rep_scaled.estimate - rep_main.estimate) <= 1e-9 * abs(rep_main.estimate)
    ok &= inert
    lines.append(f"pi x1.5 inert on the zero-premium optimum "
                 f"(|delta| = {abs(rep_scaled.estimate - rep_main.estimate):.2e})")

    ctrl = sim.simulate_market(spec, 30000, 200, seed=2026, policies=[
        (spec, with_policy(result, c_mult=0.0), 1.0),
        (spec, with_policy(result, pi=np.array([0.5, 0.5])), 1.0)])
    rep_zero_c, rep_const_pi = (sim._duality_report(ctrl, run) for run in ctrl.runs)
    for rep_ctrl, name in ((rep_zero_c, "consumption off"), (rep_const_pi, "pi=0.5")):
        lower = rep_ctrl.estimate < rep_ctrl.target - rep_ctrl.tolerance
        ok &= lower
        lines.append(f"{name}: estimate {rep_ctrl.estimate:.4f} strictly below "
                     f"V {rep_ctrl.target:.4f} {'ok' if lower else 'FAIL'}")
    report(9, ok, "; ".join(lines))


def test_criterion_10_figure_behavior(bench, bench_p01):
    slack = 1e-8
    spec, result = bench
    ok = True
    notes = []

    # monotone (non-increasing) in y, each alive name, each intermediate state
    for bits in ("00", "01", "10"):
        state = DefaultState.from_bitstring(bits)
        pol = result.policies[bits]
        for k in (0, 160, 280, 400):
            for i in state.alive:
                ok &= bool(np.all(np.diff(pol.pi[k, :, i]) <= slack))
    notes.append("pi non-increasing in y")

    # stock 1 (higher intensity) never above stock 2 in the all-alive state
    pol00 = result.policies["00"]
    ok &= bool(np.all(pol00.pi[:, :, 0] <= pol00.pi[:, :, 1] + slack))
    notes.append("pi_1 <= pi_2 in state (0,0)")

    # non-increasing in risk aversion p across {0.1, 0.5, 0.8}
    mid = cf.solve_recursive_system(load_preset("benchmark_s5", p=0.5), FULL_GRID)
    stack = [bench_p01[1], mid, result]  # p = 0.1, 0.5, 0.8
    k, j = 160, 200
    vals_p = [float(r.policies["00"].pi[k, j, 0]) for r in stack]
    ok &= vals_p[0] >= vals_p[1] - slack >= vals_p[2] - 2 * slack
    notes.append(f"pi across p=(0.1,0.5,0.8): {vals_p}")

    # non-increasing under sigma scaling {1.0, 1.25, 1.5} at p = 0.1, t = 0
    vals_s = []
    for scale in (1.0, 1.25, 1.5):
        cfg = apply_overrides(preset_config("benchmark_s5"),
                              [f"market.sigma_scale={scale}", "preference.p=0.1"])
        res_s = cf.solve_recursive_system(build_model(cfg), FULL_GRID)
        vals_s.append(float(res_s.policies["00"].pi[-1, j, 0]))
    ok &= vals_s[0] >= vals_s[1] - slack >= vals_s[2] - 2 * slack
    notes.append(f"pi across sigma scale (1,1.25,1.5): {vals_s}")

    # the survivor holds no more than its all-alive weight, pointwise
    ok &= bool(np.all(result.policies["01"].pi[:, :, 0] <= pol00.pi[:, :, 0] + slack))
    ok &= bool(np.all(result.policies["10"].pi[:, :, 1] <= pol00.pi[:, :, 1] + slack))
    notes.append("survivor pi <= all-alive pi")
    report(10, ok, "; ".join(notes) + " (weak comparisons, slack 1e-8: the "
           "zero-premium benchmark's optimal weights are identically ~0)")


def test_criterion_11_simulator_exactness(bench):
    spec, result = bench
    ok = True
    notes = []

    merton = load_preset("merton_nodefault")
    bundle0 = sim.simulate_market(merton, 20000, 50, seed=7)
    ok &= bundle0.survival_probability() == 1.0
    notes.append("lambda=0: zero defaults")

    const_spec = ModelSpec(
        n=2,
        factor=FactorSpec(u0=0.0, kappa=1.0, sigma0=np.array([0.3, 0.2]), rho=0.0,
                          domain_lo=-2.0, domain_hi=2.0),
        credit=CreditSpec.exp_affine(2, {(0, "00"): (1.0, 0.0, 0.0), (1, "00"): (1.0, 0.0, 0.0)}),
        market=MarketSpec(mu=[0.25, 0.25], sigma=[0.5, 0.5], r=0.2),
        pref=PreferenceSpec(p=0.5, K1=1.0, K2=1.0, T=1.0),
    )
    bundle1 = sim.simulate_market(const_spec, N_PATHS, 100, seed=8)
    p_hat = bundle1.survival_probability()
    target = float(np.exp(-2.0))
    se = np.sqrt(target * (1 - target) / N_PATHS)
    ok &= abs(p_hat - target) <= 3 * se
    notes.append(f"constant-lambda survival {p_hat:.5f} vs e^-2 = {target:.5f} "
                 f"(3se = {3 * se:.5f})")

    bundle2 = sim.simulate_market(spec, 1000, N_STEPS, seed=9, policies=[
        (spec, with_policy(result, pi=np.zeros(2), c_mult=0.0), 1.0)])
    bank_err = float(np.max(np.abs(bundle2.runs[0].wealth["X_T"] - np.exp(0.2))))
    ok &= bank_err < 1e-12
    notes.append(f"bank-account wealth exact to {bank_err:.1e} (tol 1e-12)")
    report(11, ok, "; ".join(notes))
