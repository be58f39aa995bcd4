import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import creditfolio as cf
from creditfolio.dual import Coefficients
from creditfolio.model import (PRESET_NAMES, CreditSpec, DefaultState, MarketSpec,
                               PreferenceSpec, all_states, build_model, load_preset,
                               preset_config, states_by_cardinality, validate_spec)


class TestDefaultState:
    def test_flip_examples(self):
        assert DefaultState.from_bitstring("00").flip(0).bitstring == "10"
        assert DefaultState.from_bitstring("11").flip(1).bitstring == "10"

    def test_flip_involution_example(self):
        z = DefaultState.from_bitstring("010")
        assert z.flip(2).flip(2) == z

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_flip_involution_property(self, n, data):
        bits = data.draw(st.integers(0, (1 << n) - 1))
        i = data.draw(st.integers(0, n - 1))
        z = DefaultState(n, bits)
        assert z.flip(i).flip(i) == z
        assert z.flip(i).bitstring != z.bitstring

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            DefaultState(2, 0).flip(2)

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            DefaultState(0, 0)
        with pytest.raises(ValueError):
            DefaultState(2, 4)
        with pytest.raises(ValueError):
            DefaultState.from_bitstring("01x")

    def test_enumeration_topological(self):
        # every state once; any state with a cleared bit appears after the flipped state
        for n in (1, 2, 3, 4):
            order = states_by_cardinality(n)
            assert len(order) == 2**n
            assert len({s.bits for s in order}) == 2**n
            pos = {s.bits: k for k, s in enumerate(order)}
            for s in order:
                for i in s.alive:
                    child = s.flip(i)
                    assert child.cardinality == s.cardinality + 1
                    assert pos[child.bits] < pos[s.bits]

    def test_indicator_and_alive(self):
        z = DefaultState.from_bitstring("0110")
        assert z.alive == (0, 3)
        assert z.defaulted == (1, 2)
        assert list(z.indicator()) == [0.0, 1.0, 1.0, 0.0]


class TestPresets:
    def test_benchmark_intensities(self):
        spec = load_preset("benchmark_s5")
        z00 = DefaultState.from_bitstring("00")
        lam = spec.intensity(np.array(0.0), z00)
        assert lam[0] == pytest.approx(1.0)       # 0.6 + 0.4
        assert lam[1] == pytest.approx(0.8)       # 0.5 + 0.3
        # contagion: the surviving name's intensity jumps up after the other defaults
        z01 = DefaultState.from_bitstring("01")
        lam1 = spec.intensity(np.array(0.0), z01)
        assert lam1[0] == pytest.approx(1.4)      # 0.8 + 0.6

    def test_benchmark_parameters(self):
        spec = load_preset("benchmark_s5")
        assert spec.pref.p == 0.8 and spec.q == pytest.approx(-4.0)
        assert spec.beta == pytest.approx(5.0)
        assert spec.market.r == 0.2
        assert np.allclose(spec.market.sigma(0.3), [0.8, 0.8])
        assert spec.factor.drift(0.0) == pytest.approx(0.5)
        assert spec.factor.drift(1.0) == pytest.approx(0.5 - 1.2)

    def test_contagion_monotonicity(self):
        spec = load_preset("benchmark_s5")
        y = np.linspace(-1, 1, 41)
        for z in all_states(2):
            lam = spec.intensity(y, z)
            for j in range(2):
                if j in z.defaulted:
                    continue
                lam_up = spec.intensity(y, z.flip(j))
                for i in range(2):
                    if i != j:
                        assert np.all(lam_up[:, i] >= lam[:, i] - 1e-12)

    def test_own_bit_canonicalisation(self):
        # lambda_i never depends on the i-th bit of the state argument
        spec = load_preset("benchmark_s5")
        y = np.linspace(-1, 1, 11)
        z00, z10 = DefaultState.from_bitstring("00"), DefaultState.from_bitstring("10")
        assert np.allclose(spec.intensity(y, z00)[:, 0], spec.intensity(y, z10)[:, 0])

    @pytest.mark.parametrize("name", [*PRESET_NAMES, "three_names"])
    def test_path_intensities_are_the_state_intensities(self, name):
        # the path engine's carried per-path rows, name-major (n, paths), and the PDE's
        # per-state kernel give the same bits for every state at every factor value
        from test_cli import three_name_config

        spec = build_model(three_name_config()) if name == "three_names" else load_preset(name)
        y = np.linspace(spec.factor.domain_lo, spec.factor.domain_hi, 1001)
        for state in all_states(spec.n):
            per_path = spec.credit.rate(spec.credit.params(np.full(y.shape, state.bits)), y)
            assert per_path.shape == (spec.n, y.size)
            assert per_path.T.tobytes() == spec.intensity(y, state).tobytes(), state

    @pytest.mark.parametrize("name", [*PRESET_NAMES, "three_names"])
    def test_rate_is_the_formula_name_by_name_on_path_rows(self, name):
        # the market pass's layout: (3, n, paths) rows gathered by path, contiguous
        from test_cli import three_name_config

        spec = build_model(three_name_config()) if name == "three_names" else load_preset(name)
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 1 << spec.n, 500)
        y = rng.uniform(spec.factor.domain_lo, spec.factor.domain_hi, 500)
        abc = spec.credit.params(bits)
        assert abc.shape == (3, spec.n, 500) and abc.flags.c_contiguous
        lam = spec.credit.rate(abc, y)
        for i in range(spec.n):
            a, b, c = abc[:, i]
            assert lam[i].tobytes() == (a + b * np.exp(c * y)).tobytes()

    def test_merton_preset(self):
        spec = load_preset("merton_nodefault")
        y = np.linspace(-1, 1, 11)
        for z in all_states(2):
            assert np.all(spec.intensity(y, z) == 0.0)
        assert np.allclose(spec.market.sigma(0.0), [0.2, 0.2])

    def test_scott_market_price_of_risk(self):
        spec = load_preset("scott_example22")
        for y in (-0.5, 0.0, 0.7):
            xi = Coefficients(spec, (DefaultState(spec.n),), y).xi[0]
            theta_diag = spec.market.sigma(y) ** 2
            expected = (spec.market.mu - spec.market.r) / np.sqrt(theta_diag)
            assert np.allclose(xi, expected)

    def test_stein_vol_shape(self):
        spec = load_preset("stein_stein_example22")
        s0 = spec.market.sigma(0.0) ** 2
        s1 = spec.market.sigma(1.0) ** 2
        assert np.allclose(s1 - s0, [0.5, 0.4])  # eps + gamma y^2

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            load_preset("nope")

    def test_factor_specs_compare_and_hash_by_value(self):
        a, b = load_preset("benchmark_s5").factor, load_preset("benchmark_s5").factor
        assert a == b and hash(a) == hash(b)
        assert a.sigma0 == (0.6, 0.4)
        assert a != load_preset("scott_example22").factor
        assert cf.FactorSpec(u0=0.5, kappa=1.2, sigma0=np.array([0.6, 0.4]), rho=0.0,
                             domain_lo=-1.25, domain_hi=1.25) == a


class TestMarketSpec:
    FULL = np.array([[0.8, 0.1], [0.05, 0.7]])

    def test_stored_forms_evaluate_over_arrays(self):
        y = np.array([-0.5, 0.0, 0.5])
        for sigma in ([0.8, 0.6], np.diag([0.8, 0.6]),
                      lambda y: np.broadcast_to([0.8, 0.6], y.shape + (2,))):
            m = MarketSpec(mu=[0.2, 0.2], sigma=sigma, r=0.2)
            assert m.is_diagonal
            assert np.array_equal(m.sigma(y), np.tile([0.8, 0.6], (3, 1)))
            assert np.array_equal(m.sigma(0.3), [0.8, 0.6])   # a scalar y is the size-1 case
            assert np.array_equal(m.matrix(y), np.tile(np.diag([0.8, 0.6]), (3, 1, 1)))
        for sigma in (self.FULL, lambda y: (1.0 + y)[..., None, None] * self.FULL):
            m = MarketSpec(mu=[0.2, 0.2], sigma=sigma, r=0.2)
            assert not m.is_diagonal
            assert np.array_equal(m.sigma(y[1:2]), [self.FULL])
            assert np.array_equal(m.sigma(0.0), self.FULL) and m.sigma(y).shape == (3, 2, 2)
            assert np.array_equal(m.matrix(y), m.sigma(y))

    def test_diagonal_means_exactly_zero_off_the_diagonal(self):
        nearly = np.diag([0.8, 0.6]) + np.array([[0.0, 1e-300], [0.0, 0.0]])
        m = MarketSpec(mu=[0.2, 0.2], sigma=nearly, r=0.2)
        assert not m.is_diagonal
        assert np.array_equal(m.sigma(0.0), nearly)

    @pytest.mark.parametrize("name", ["scott_example22", "stein_stein_example22"])
    def test_sigma_kernels_are_the_elementwise_formula_bitwise(self, name):
        # evaluated name by name over contiguous y: each entry holds the bits of the
        # pointwise formula, and the path engine's (n, paths) view sigma(Y).T is contiguous
        spec, market = load_preset(name), preset_config(name)["market"]
        eps = [float(v) for v in market["sigma_eps"].split(",")]
        gam = [float(v) for v in market["sigma_gamma"].split(",")]
        for y in (np.linspace(-1.25, 1.25, 1001), np.linspace(-1.0, 1.0, 60).reshape(3, 20)):
            sig = spec.market.sigma(y)
            assert sig.shape == y.shape + (2,)
            for i in range(2):
                inner = np.exp(gam[i] * y) if name == "scott_example22" else gam[i] * y**2
                assert sig[..., i].tobytes() == np.sqrt(eps[i] + inner).tobytes()
        assert spec.market.sigma(np.linspace(-1.0, 1.0, 4000)).T.flags.c_contiguous

    @pytest.mark.parametrize("sigma, shape", [
        (lambda y: np.array([0.8, 0.6]), "(2,)"),            # not vectorised over y
        (lambda y: np.ones((len(y), 3)), "(10, 3)"),         # wrong width
        (lambda y: np.ones((len(y), 2, 3)), "(10, 2, 3)"),   # not square
        (np.ones((2, 3)), "(2, 3)"),
    ], ids=["constant", "width", "not-square", "matrix"])
    def test_other_shapes_raise_naming_the_shape(self, sigma, shape):
        with pytest.raises(ValueError, match=re.escape(shape)):
            MarketSpec(mu=[0.2, 0.2], sigma=sigma, r=0.2)

    def test_validation_names_the_first_bad_node(self):
        spec = load_preset("benchmark_s5")
        y = np.linspace(-1, 1, 21)
        for sigma, detail in (
                (lambda y: np.where(y[:, None] > 0.45, np.nan, np.array([0.8, 0.6])),
                 "non-finite sigma"),
                (lambda y: np.stack([0.8 + 0 * y, np.where(y > 0.45, 1e-12, 0.8)], -1),
                 "cond(sigma) = 8e+11")):
            bad = cf.ModelSpec(n=2, factor=spec.factor, credit=spec.credit, pref=spec.pref,
                               market=MarketSpec(mu=[0.2, 0.2], sigma=sigma, r=0.2))
            check = {c.name: c for c in validate_spec(bad, y).checks}["volatility-invertible"]
            assert not check.passed and check.detail == detail
            assert check.where == pytest.approx(0.5)

    def test_preset_fingerprints_are_pinned(self):
        # saved solves are matched to their model by this digest: a change makes
        # `simulate --solution` refuse every solve written before it
        assert {name: load_preset(name).fingerprint() for name in PRESET_NAMES} == {
            "benchmark_s5": "23faa3467ddfedf1e2f580a5ef823c126d92fc390a9db84513f9d30e7cb2fbdd",
            "merton_nodefault": "b1981d083e537423b1b972d5b2a87fe412e9f134b6ab8e2b368e5501ac9864e4",
            "scott_example22": "b99c87177e2c3cf88ba69c5fdc9d3b1be0c946684e53f8d4ba32a8d5d5f90054",
            "stein_stein_example22":
                "e1f9d3866418677e17a4996db3003e2c2212ca1e679cd93f3c55aa92b17c4098"}


class TestPreferences:
    def test_q_branches(self):
        assert PreferenceSpec(p=0.8, K1=1, K2=1, T=1).q == pytest.approx(-4.0)
        assert PreferenceSpec(p=-1.0, K1=1, K2=1, T=1).q == pytest.approx(0.5)

    @pytest.mark.parametrize("bad", [dict(p=0.0), dict(p=1.0), dict(p=1.5),
                                     dict(K1=0.0), dict(K2=-1.0), dict(T=0.0)])
    def test_invalid(self, bad):
        kwargs = dict(p=0.5, K1=1.0, K2=1.0, T=1.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            PreferenceSpec(**kwargs)

    def test_from_q_log_utility(self):
        pref = PreferenceSpec.from_q(0.0, 1.0, 1.0, 1.0)
        assert pref.q == 0.0


class TestValidation:
    def test_benchmark_all_pass(self):
        spec = load_preset("benchmark_s5")
        report = validate_spec(spec, np.linspace(-1, 1, 101))
        assert report.ok, str(report)

    def test_negative_intensity_fails(self):
        spec = load_preset("benchmark_s5")
        bad_credit = CreditSpec.exp_affine(2, {
            (0, "00"): (0.0, -0.5, 0.1), (1, "00"): (0.5, 0.3, 0.1),
        })
        bad = cf.ModelSpec(n=2, factor=spec.factor, credit=bad_credit,
                           market=spec.market, pref=spec.pref)
        report = validate_spec(bad, np.linspace(-1, 1, 101))
        assert not report.ok
        fail = [c for c in report.failures() if "intensity" in c.name]
        assert fail and fail[0].where is not None

    def test_singular_sigma_fails(self):
        spec = load_preset("benchmark_s5")
        singular = MarketSpec(mu=[0.2, 0.2], sigma=np.array([[0.8, 0.1], [0.8, 0.1]]), r=0.2)
        bad = cf.ModelSpec(n=2, factor=spec.factor, credit=spec.credit,
                           market=singular, pref=spec.pref)
        report = validate_spec(bad, np.linspace(-1, 1, 21))
        assert not report.ok
        assert any("invertible" in c.name for c in report.failures())

    def test_deterministic(self):
        spec = load_preset("benchmark_s5")
        grid = np.linspace(-1, 1, 51)
        r1, r2 = validate_spec(spec, grid), validate_spec(spec, grid)
        assert [(c.name, c.passed, c.detail, c.where) for c in r1.checks] == \
               [(c.name, c.passed, c.detail, c.where) for c in r2.checks]

    def test_grid_outside_domain_fails(self):
        spec = load_preset("benchmark_s5")
        report = validate_spec(spec, np.linspace(-2, 2, 21))
        assert not report.ok
