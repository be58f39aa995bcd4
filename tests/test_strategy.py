import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import creditfolio as cf
from creditfolio import oracle as om
from creditfolio.dual import Coefficients
from creditfolio.fields import GridSpec, SolveResult, lookup, policy_width
from creditfolio.model import DefaultState, load_preset
from creditfolio.strategy import (SolverError, ahat_slice, build_policy, pi_hat, solve_hhat,
                                  solve_hhat_slice, value_function)

from conftest import (GENERAL_SIGMA, bisect_reference, full_sigma_scott, general_sigma_of_y,
                      make_contagion_spec, make_single_name_spec)

Z00 = DefaultState.from_bitstring("00")
Z11 = DefaultState.from_bitstring("11")


def constant_fields(spec, values: dict, grid=None):
    """Synthetic stacked solution with constant f per state (for point-query tests)."""
    grid = grid or GridSpec(-1.0, 1.0, 11, 10)
    f = np.empty((2**spec.n, grid.n_t + 1, grid.n_y))
    for bits, val in values.items():
        f[DefaultState.from_bitstring(bits).bits] = float(val)
    return SolveResult(grid=grid, t_nodes=grid.t_nodes(spec.pref.T), f=f, df=np.zeros_like(f),
                       policy=np.zeros(f.shape + (policy_width(spec.n),)),
                       hedge_gap=np.zeros(len(f)))


def consumption_at(t, y, state, x_wealth, result):
    """Consumption c = c_mult x, with the multiplier channel read as the path engine reads it."""
    u = max(float(result.t_nodes[-1]) - t, 0.0)
    return x_wealth * float(lookup(result.channel("c_mult"), result.t_nodes,
                                   result.grid.y_nodes(), u, state.bits, y))


class TestLambdaAndJ:
    # the jump exposure J and the diffusion row Lambda of the optimal wealth,
    # read through pi_hat (pi_i = J_i for a name with positive intensity)
    def test_zero_case(self, benchmark_spec, benchmark_result):
        result, _ = benchmark_result
        h = solve_hhat(0.5, 0.0, Z00, result, benchmark_spec)
        assert np.allclose(pi_hat(0.5, 0.0, Z00, result, benchmark_spec), 0.0, atol=1e-8)
        coef = Coefficients(benchmark_spec, (Z00,), 0.0)
        f, df = (lookup(a, result.t_nodes, result.grid.y_nodes(), 0.5, Z00.bits, 0.0)
                 for a in (result.f, result.df))
        Lam = coef.diffusion_row(coef.theta_from_h(h[None]), coef.grad_term(f, df))
        assert np.allclose(Lam, 0.0, atol=1e-8)

    def test_unit_ratio_gives_zero_J(self):
        spec = make_single_name_spec(mu=0.1, r=0.1)   # xi = 0: Lambda vanishes at h = 0
        fields = constant_fields(spec, {"0": 1.3, "1": 1.3})
        z0 = DefaultState.from_bitstring("0")
        assert solve_hhat(0.4, 0.0, z0, fields, spec)[0] == 0.0
        assert pi_hat(0.4, 0.0, z0, fields, spec)[0] == pytest.approx(0.0, abs=1e-14)

    def test_hand_value_q_zero(self):
        # q = 0, beta = 1, g-ratio 0.5: the solved root is h = 1, where J = 1 - 0.5 / 2
        # and sigma = 1, xi - lambda h = 1 - 0.25 make it the diffusion matching's weight
        spec = make_single_name_spec(lam_a=0.25, lam_b=0.0, lam_c=0.0, mu=1.1, sigma=1.0,
                                     r=0.1)
        object.__setattr__(spec.pref, "_q_override", 0.0)
        fields = constant_fields(spec, {"0": 1.0, "1": 0.5})
        z0 = DefaultState.from_bitstring("0")
        assert solve_hhat(0.4, 0.0, z0, fields, spec)[0] == pytest.approx(1.0, abs=1e-12)
        assert pi_hat(0.4, 0.0, z0, fields, spec)[0] == pytest.approx(0.75)

    def test_defaulted_component_zero(self, benchmark_spec, benchmark_result):
        result, _ = benchmark_result
        z10 = DefaultState.from_bitstring("10")
        assert pi_hat(0.5, 0.0, z10, result, benchmark_spec)[0] == 0.0


class TestSolveHhat:
    def test_all_defaulted_empty_system(self, benchmark_spec, benchmark_result):
        result, _ = benchmark_result
        assert np.array_equal(solve_hhat(0.3, 0.1, Z11, result, benchmark_spec),
                              np.zeros(2))

    def test_benchmark_root_is_zero(self, benchmark_spec, benchmark_result):
        result, _ = benchmark_result
        h = solve_hhat(0.6, 0.0, Z00, result, benchmark_spec)
        assert np.allclose(h, 0.0, atol=1e-9)

    def test_against_bisection_oracle(self, contagion_result):
        spec, result, grid = contagion_result
        rng = np.random.default_rng(7)
        y_nodes = grid.y_nodes()
        for _ in range(25):
            k = int(rng.integers(0, grid.n_t + 1))
            j = int(rng.integers(0, grid.n_y))
            bits = ("00", "01", "10")[int(rng.integers(0, 3))]
            state = DefaultState.from_bitstring(bits)
            fld = result.fields[bits]
            pol = result.policies[bits]
            for i in state.alive:
                child = result.fields[state.flip(i).bitstring]
                ref = bisect_reference(spec, state, i, float(y_nodes[j]),
                                       float(fld.f[k, j]), float(fld.df[k, j]),
                                       float(child.f[k, j]))
                assert pol.hhat[k, j, i] == pytest.approx(ref, abs=1e-8)

    def test_scott_against_bisection(self, scott_result):
        spec, result, grid = scott_result
        y_nodes = grid.y_nodes()
        pol = result.policies["00"]
        fld = result.fields["00"]
        for (k, j) in ((150, 75), (90, 20), (30, 130)):
            for i in (0, 1):
                child = result.fields[Z00.flip(i).bitstring]
                ref = bisect_reference(spec, Z00, i, float(y_nodes[j]),
                                       float(fld.f[k, j]), float(fld.df[k, j]),
                                       float(child.f[k, j]))
                assert pol.hhat[k, j, i] == pytest.approx(ref, abs=1e-8)

    def test_missing_child_raises(self, benchmark_spec, benchmark_result):
        result, grid = benchmark_result
        fld, node = result.fields["00"], [grid.n_y // 2]
        with pytest.raises(SolverError, match="missing child"):
            solve_hhat_slice(grid.y_nodes()[node], (Z00,), benchmark_spec, fld.f[100, node][None],
                             fld.df[100, node][None], {})

    def test_general_sigma_path_matches_diagonal(self, benchmark_spec, benchmark_result):
        # on the zero-premium benchmark a genuinely full sigma, solved by the
        # general Newton, must give the fast path's vanishing controls
        result, _ = benchmark_result
        spec2 = cf.ModelSpec(
            n=2, factor=benchmark_spec.factor, credit=benchmark_spec.credit,
            market=cf.MarketSpec(mu=[0.2, 0.2], sigma=GENERAL_SIGMA, r=0.2),
            pref=benchmark_spec.pref)
        assert not spec2.market.is_diagonal
        fld = result.fields["00"]
        children = {i: result.fields[Z00.flip(i).bitstring].f[100] for i in (0, 1)}
        y = np.linspace(-1, 1, 9)
        idx = np.linspace(0, 200, 9, dtype=int)
        h2, _, pi2, _, _ = solve_hhat_slice(y, (Z00,), spec2, fld.f[100, idx][None],
                                            fld.df[100, idx][None],
                                            {i: c[idx][None] for i, c in children.items()})
        assert np.allclose(h2, 0.0, atol=1e-6)
        assert np.allclose(pi2, 0.0, atol=1e-6)

    def test_general_sigma_solves_every_state(self):
        # the general Newton must also solve the all-defaulted state (no alive
        # names) and match the alive columns of pi^T sigma = Lambda everywhere,
        # with pi_i = J_i(hhat_i) and theta tied to hhat, for a constant and
        # for a y-dependent full sigma
        for sigma in (GENERAL_SIGMA, general_sigma_of_y):
            spec = full_sigma_scott(sigma)
            assert not spec.market.is_diagonal
            result = cf.solve_recursive_system(spec, cf.GridSpec(-1.0, 1.0, 11, 10))
            assert set(result.report) == {"00", "01", "10", "11"}
            for bits, row in result.report.items():
                assert row["resid_max"] <= 1e-10, bits
                fld, pol = result.fields[bits], result.policies[bits]
                alive = list(fld.state.alive)
                coef = Coefficients(spec, (fld.state,), fld.grid.y_nodes())
                gap = (spec.market.pi_sigma(pol.pi, coef.sig)
                       - coef.diffusion_row(pol.theta, coef.grad_term(fld.f, fld.df)))
                assert np.max(np.abs(gap[..., alive]), initial=0.0) <= 1e-10, bits
                assert np.allclose(pol.theta, coef.theta_from_h(pol.hhat), rtol=0, atol=1e-13)
                for i in alive:   # every alive name of this model has a positive intensity
                    ratio = (result.f[fld.state.flip(i).bits] / fld.f) ** spec.beta
                    J = 1.0 - (1.0 + pol.hhat[..., i]) ** (spec.q - 1.0) * ratio
                    assert np.allclose(pol.pi[..., i], J, rtol=0, atol=1e-13), (bits, i)

    @pytest.mark.parametrize("sigma", [GENERAL_SIGMA, general_sigma_of_y], ids=["const", "y"])
    def test_general_sigma_stack_equals_lone_states(self, sigma):
        # the four states of the full-sigma model as one stack, cold and warm
        # started, give what each state's lone solve gives, bit for bit
        spec = full_sigma_scott(sigma)
        grid = cf.GridSpec(-1.0, 1.0, 21, 20)
        result = cf.solve_recursive_system(spec, grid)
        y, states, k = grid.y_nodes(), cf.all_states(2), 12
        f, df = result.f[:, k], result.df[:, k]
        kids = {i: np.stack([f[s.flip(i).bits] if i in s.alive else np.ones(len(y))
                             for s in states]) for i in range(2)}
        warm = result.channel("hhat")[:, k - 1]
        for h_init in (None, warm):
            stack = solve_hhat_slice(y, states, spec, f, df, kids, h_init=h_init)
            for s in states:
                lone = solve_hhat_slice(y, (s,), spec, f[s.bits][None], df[s.bits][None],
                                        {i: kids[i][s.bits][None] for i in s.alive},
                                        h_init=None if h_init is None else h_init[s.bits][None])
                for got, want in zip(stack, lone):
                    assert np.array_equal(got[s.bits], want[0]), s
            assert np.max(stack[3]) > 0   # the Newton iterated


    def test_diagonal_stack_reports_each_state_as_alone(self):
        # the stack's per-state Newton counts and residuals are those of each
        # state solved alone, bit for bit: state 11 has no jump entries, name 1
        # is alive but defaultless in state 00 (the risk-free branch), and the
        # warm starts make the states' entries converge on different passes
        base = make_contagion_spec()
        spec = cf.ModelSpec(
            n=2, market=base.market, pref=base.pref,
            factor=dataclasses.replace(base.factor, rho=0.3),
            credit=cf.CreditSpec.exp_affine(2, {(0, "00"): (0.6, 0.4, 0.1),
                                                (1, "00"): (0.0, 0.0, 0.0),
                                                (0, "01"): (0.8, 0.6, 0.1),
                                                (1, "10"): (0.8, 0.6, 0.1)}))
        y, states = np.linspace(-1.0, 1.0, 21), cf.all_states(2)
        f = np.stack([1.0 + 0.1 * s.bits + 0.05 * np.sin(3.0 * y + s.bits) for s in states])
        df = np.stack([0.15 * np.cos(3.0 * y + s.bits) for s in states])
        kids = {i: np.stack([f[s.flip(i).bits] if i in s.alive else np.ones(len(y))
                             for s in states]) for i in range(2)}
        cold = solve_hhat_slice(y, states, spec, f, df, kids)
        h_init = np.stack([np.zeros((len(y), 2)), cold[0][1], 0.5 + cold[0][2],
                           np.zeros((len(y), 2))])
        stack = solve_hhat_slice(y, states, spec, f, df, kids, h_init=h_init)
        assert np.any(stack[2][0][:, 1] != 0.0)   # the defaultless name's diffusion weight
        iters = []
        for s in states:
            lone = solve_hhat_slice(y, (s,), spec, f[s.bits][None], df[s.bits][None],
                                    {i: kids[i][s.bits][None] for i in s.alive},
                                    h_init=h_init[s.bits][None])
            for got, want in zip(stack[:3], lone[:3]):
                assert np.array_equal(got[s.bits], want[0]), s
            assert stack[3][s.bits] == lone[3][0], s
            assert stack[4][s.bits].tobytes() == lone[4][0].tobytes(), s
            iters.append(int(lone[3][0]))
        assert iters[3] == 0 and stack[4][3] == 0.0   # no jump entries: nothing solved
        assert len(set(iters[:3])) == 3, iters       # three different last passes


class TestPiHat:
    def test_merton_fraction(self, merton_result):
        spec, result, _ = merton_result
        target = om.merton_fraction(0.25, 0.2, 0.2, 0.5)
        pi = pi_hat(0.3, 0.2, Z00, result, spec)
        assert np.allclose(pi, target, atol=1e-8)

    def test_defaulted_weight_zero(self, single_name_result):
        spec, result, _ = single_name_result
        z1 = DefaultState.from_bitstring("1")
        pi = pi_hat(0.5, 0.0, z1, result, spec)
        assert pi[0] == 0.0

    def test_zero_loading_unit_ratio(self, benchmark_spec, benchmark_result):
        # on the zero-premium benchmark the solved loading is 0 and the state
        # fields coincide, so the bracket vanishes and the weight is zero
        result, _ = benchmark_result
        pi = pi_hat(0.5, 0.0, Z00, result, benchmark_spec)
        assert np.allclose(pi, 0.0, atol=1e-8)

    def test_nonzero_for_positive_premium(self, single_name_result):
        spec, result, _ = single_name_result
        z0 = DefaultState.from_bitstring("0")
        pi = pi_hat(0.0, 0.0, z0, result, spec)
        assert 0.05 < pi[0] < 1.0

    @pytest.mark.parametrize("preset", ["scott_example22", "benchmark_s5"])
    def test_point_queries_read_the_policy_table(self, preset):
        # at grid nodes (t_k, y_j) the point queries' own solve gives the march's controls
        spec = load_preset(preset)
        grid = cf.GridSpec(-1.0, 1.0, 41, 40)
        result = cf.solve_recursive_system(spec, grid)
        pi, hhat = result.channel("pi"), result.channel("hhat")
        y_nodes = grid.y_nodes()
        for state in cf.all_states(spec.n):
            for k in range(0, grid.n_t + 1, 5):
                t = spec.pref.T - result.t_nodes[k]
                for j in range(0, grid.n_y, 4):
                    y = float(y_nodes[j])
                    assert np.max(np.abs(pi_hat(t, y, state, result, spec)
                                         - pi[state.bits, k, j])) <= 1e-10, (state, k, j)
                    assert np.max(np.abs(solve_hhat(t, y, state, result, spec)
                                         - hhat[state.bits, k, j])) <= 1e-10, (state, k, j)


class TestConsumptionAndValue:
    def test_unit_normalisation(self):
        spec = make_single_name_spec()
        fields = constant_fields(spec, {"0": 1.0, "1": 1.0})
        build_policy(fields, spec)
        assert consumption_at(0.3, 0.0, DefaultState.from_bitstring("0"),
                              2.7, fields) == pytest.approx(2.7)

    def test_direct_ratio(self):
        spec = make_single_name_spec()
        object.__setattr__(spec.pref, "_q_override", 0.0)  # q = 0: g = f
        fields = constant_fields(spec, {"0": 2.0, "1": 2.0})
        build_policy(fields, spec)
        assert consumption_at(0.1, 0.0, DefaultState.from_bitstring("0"),
                              1.0, fields) == pytest.approx(0.5)

    def test_terminal_time_ratio(self, benchmark_result):
        result, _ = benchmark_result
        c = consumption_at(1.0, 0.0, Z00, 3.0, result)
        assert c == pytest.approx(3.0, rel=1e-10)  # K2^{1-q} / K1^{1-q} = 1

    def test_consumption_homogeneous(self, benchmark_spec, benchmark_result):
        # c = K2^{1-q} x / g(T - t, y, z), read at a grid node
        result, _ = benchmark_result
        c1 = consumption_at(0.4, 0.1, Z00, 1.0, result)
        c2 = consumption_at(0.4, 0.1, Z00, 7.5, result)
        assert c2 == pytest.approx(7.5 * c1)
        f = float(lookup(result.f, result.t_nodes, result.grid.y_nodes(), 0.6, Z00.bits, 0.1))
        k2q = benchmark_spec.pref.K2 ** (1.0 - benchmark_spec.q)
        assert c1 == pytest.approx(k2q / f**benchmark_spec.beta, rel=1e-12)

    def test_nonpositive_wealth_raises(self, benchmark_spec, benchmark_result):
        result, _ = benchmark_result
        with pytest.raises(ValueError):
            value_function(0.0, 0.1, Z00, result, benchmark_spec)

    def test_value_unit_dual(self):
        spec = make_single_name_spec(p=0.8)
        fields = constant_fields(spec, {"0": 1.0, "1": 1.0})
        v = value_function(2.0, 0.0, DefaultState.from_bitstring("0"), fields, spec)
        assert v == pytest.approx(2.0**0.8 / 0.8)

    def test_value_hand_case(self):
        spec = make_single_name_spec(p=0.8)
        g_target = 32.0
        f_const = g_target ** (1.0 / spec.beta)
        fields = constant_fields(spec, {"0": f_const, "1": f_const})
        v = value_function(1.0, 0.0, DefaultState.from_bitstring("0"), fields, spec)
        assert v == pytest.approx(2.5)

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_value_scaling(self, lam):
        spec = make_single_name_spec(p=0.5)
        fields = constant_fields(spec, {"0": 1.4, "1": 1.2})
        z0 = DefaultState.from_bitstring("0")
        v1 = value_function(1.0, 0.0, z0, fields, spec)
        v2 = value_function(lam, 0.0, z0, fields, spec)
        assert v2 == pytest.approx(lam**0.5 * v1, rel=1e-12)

    def test_value_sign_branches(self):
        fields_spec = make_single_name_spec(p=0.5)
        fields = constant_fields(fields_spec, {"0": 1.4, "1": 1.2})
        z0 = DefaultState.from_bitstring("0")
        assert value_function(1.0, 0.0, z0, fields, fields_spec) > 0
        neg_spec = make_single_name_spec(p=-1.0)
        fields_n = constant_fields(neg_spec, {"0": 1.4, "1": 1.2})
        assert value_function(1.0, 0.0, z0, fields_n, neg_spec) < 0


class TestAhat:
    def test_formula(self, scott_result):
        spec, result, grid = scott_result
        fld = result.fields["00"]
        y = grid.y_nodes()
        got = ahat_slice(spec, fld.f[50], fld.df[50])
        rho, q, beta = spec.factor.rho, spec.q, spec.beta
        # one scalar per node: the loading on Bbar = sigma0 Wbar / |sigma0|
        want = (-np.sqrt(1 - rho**2) / (1 - q) * beta
                * (fld.df[50] / fld.f[50]) * np.linalg.norm(spec.factor.sigma0))
        assert got.shape == y.shape
        assert np.allclose(got, want)

    def test_bounded(self, scott_result, benchmark_result):
        for pack in (scott_result[1], benchmark_result[0]):
            for bits, row in pack.report.items():
                assert np.isfinite(row["ahat_max"])


class TestResidualsAndMonotonicity:
    def test_stationarity_residual_all_states(self, benchmark_result, scott_result,
                                              single_name_result):
        for pack in (benchmark_result[0], scott_result[1], single_name_result[1]):
            for bits, row in pack.report.items():
                assert row["resid_max"] <= 1e-10

    def test_benchmark_weak_monotonicities(self, benchmark_result):
        # the zero-premium benchmark has pi identically ~0: all the figure-style
        # comparisons hold weakly
        result, grid = benchmark_result
        slack = 1e-8
        pol00 = result.policies["00"]
        k = 80  # horizon 0.4 = clock time 0.6
        for i in (0, 1):
            ddy = np.diff(pol00.pi[k, :, i])
            assert np.all(ddy <= slack)
        assert np.all(pol00.pi[k, :, 0] <= pol00.pi[k, :, 1] + slack)
        # survivor in a one-default state vs all-alive
        assert np.all(result.policies["01"].pi[k, :, 0] <= pol00.pi[k, :, 0] + slack)
        assert np.all(result.policies["10"].pi[k, :, 1] <= pol00.pi[k, :, 1] + slack)

    def test_premium_strict_monotonicity_in_y(self, contagion_result):
        # with a genuine risk premium the qualitative figure behavior is strict:
        # intensities rise with y, so holdings fall with y
        spec, result, grid = contagion_result
        pol = result.policies["00"]
        for k in (0, 75, 150):
            for i in (0, 1):
                assert np.all(np.diff(pol.pi[k, :, i]) < 0)
        # stock 1 is riskier (higher intensity): smaller weight
        assert np.all(pol.pi[75, :, 0] < pol.pi[75, :, 1])
        # survivor allocates less after the other name defaults
        assert np.all(result.policies["01"].pi[75, :, 0] < pol.pi[75, :, 0])
        assert np.all(result.policies["10"].pi[75, :, 1] < pol.pi[75, :, 1])

    def test_premium_monotone_in_risk_aversion(self):
        # pi falls as risk aversion rises (p falls toward 0 raises 1-p)
        pis = []
        for p in (0.8, 0.5, 0.1):
            spec = make_contagion_spec(p=p)
            result = cf.solve_recursive_system(spec, cf.GridSpec(-1.0, 1.0, 41, 40))
            pis.append(float(result.policies["00"].pi[20, 20, 0]))
        assert pis[0] > pis[1] > pis[2] > 0

    def test_hedge_gap_diagnostic(self, single_name_result, premium_result):
        # positive-premium defaultable name: the dual loads on the dead stock's
        # driver and the gap is flagged; the premium spec's reachable states are clean
        _, result, _ = single_name_result
        assert result.policies["1"].hedge_gap > 0.1
        assert result.policies["0"].hedge_gap < 1e-9
        _, result_p, _ = premium_result
        assert result_p.policies["00"].hedge_gap < 1e-9
        assert result_p.policies["10"].hedge_gap < 1e-9
