import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import creditfolio as cf
from creditfolio.dual import (Coefficients, beta_exponent, dual_value, h_from_theta,
                              kappa_hat, legendre, market_price_of_risk, phi_and_nu,
                              phi_bounds, psi, theta_from_h)
from creditfolio.model import DefaultState, load_preset

from conftest import make_single_name_spec

Z00 = DefaultState.from_bitstring("00")
Z11 = DefaultState.from_bitstring("11")


class TestMarketPriceOfRisk:
    def test_benchmark_is_zero(self):
        spec = load_preset("benchmark_s5")
        for y in (-0.8, 0.0, 0.9):
            assert np.allclose(market_price_of_risk(y, spec), 0.0)

    def test_scalar_division(self):
        spec = make_single_name_spec(mu=0.25, sigma=0.8, r=0.05)
        assert market_price_of_risk(0.0, spec)[0] == pytest.approx(0.25)

    def test_singular_sigma_raises(self):
        spec = load_preset("benchmark_s5")
        bad = cf.MarketSpec(mu=[0.3, 0.3], sigma=np.array([[1.0, 1.0], [1.0, 1.0]]), r=0.2)
        spec2 = cf.ModelSpec(n=2, factor=spec.factor, credit=spec.credit,
                             market=bad, pref=spec.pref)
        with pytest.raises(np.linalg.LinAlgError):
            market_price_of_risk(0.0, spec2)


class TestThetaFromH:
    def test_zero_loading_gives_xi(self):
        spec = load_preset("scott_example22")
        xi = market_price_of_risk(0.2, spec)
        assert np.allclose(theta_from_h([0.0, 0.0], 0.2, Z00, spec), xi)

    def test_all_defaulted_gives_xi(self):
        spec = load_preset("scott_example22")
        xi = market_price_of_risk(-0.3, spec)
        assert np.allclose(theta_from_h([5.0, -0.9], -0.3, Z11, spec), xi)

    def test_benchmark_hand_value(self):
        spec = load_preset("benchmark_s5")
        theta = theta_from_h([0.1, 0.1], 0.0, Z00, spec)
        assert theta == pytest.approx([-0.125, -0.1])

    def test_domain_error(self):
        spec = load_preset("benchmark_s5")
        with pytest.raises(ValueError):
            theta_from_h([-1.0, 0.0], 0.0, Z00, spec)

    @given(st.lists(st.floats(-0.9, 5.0), min_size=2, max_size=2),
           st.floats(-0.9, 0.9), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, h, y, bits):
        spec = load_preset("benchmark_s5")
        state = DefaultState(2, bits)
        h = np.array(h) * (1.0 - state.indicator())
        theta = theta_from_h(h, y, state, spec)
        back = h_from_theta(theta, y, state, spec)
        assert np.allclose(back, h, atol=1e-12)


class TestCoefficients:
    @pytest.mark.parametrize("sigma", [None, [[0.8, 0.1], [0.05, 0.7]]])
    def test_slice_against_dense_reference(self, sigma):
        # diagonal (scott) and full constant sigma: the kernel over a y array, with
        # an extra leading axis, against a per-node dense-matrix reference
        spec = load_preset("scott_example22")
        if sigma is not None:
            spec = cf.ModelSpec(n=2, factor=spec.factor, credit=spec.credit, pref=spec.pref,
                                market=cf.MarketSpec(mu=[0.25, 0.24], sigma=np.array(sigma), r=0.2))
        assert spec.market.is_diagonal == (sigma is None)
        y = np.linspace(-0.9, 0.9, 5)
        h = np.linspace(-0.5, 1.5, 10).reshape(5, 2)
        coef = Coefficients(spec, Z00, y)
        theta = coef.theta_from_h(np.stack([h, 0.5 * h]))
        pisig = coef.pi_sigma(h)
        for j, yv in enumerate(y):
            s = spec.market.sigma_at(yv)
            xi = np.linalg.solve(s, spec.market.mu - spec.market.r)
            lam = spec.alive_intensity(yv, Z00)
            for k, scale in enumerate((1.0, 0.5)):
                want = xi - np.linalg.inv(s) @ (lam * scale * h[j])
                assert np.allclose(theta[k, j], want, rtol=0, atol=1e-14)
            assert np.allclose(pisig[j], h[j] @ s, rtol=0, atol=1e-14)
        assert np.allclose(coef.h_from_theta(theta[0]), h, rtol=0, atol=1e-12)


class TestPsi:
    def test_zero_controls_cancellation(self):
        spec = load_preset("benchmark_s5")
        for y in (-0.5, 0.4):
            for bits in range(4):
                z = DefaultState(2, bits)
                val = psi([0, 0], [0, 0], [0, 0], y, z, spec)
                assert val == pytest.approx(-spec.q * spec.market.r, abs=1e-14)

    def test_q_minus4_value(self):
        spec = load_preset("benchmark_s5")
        assert psi([0, 0], [0, 0], [0, 0], 0.0, Z00, spec) == pytest.approx(0.8)

    def test_hand_value_q_half(self):
        # q=0.5 (p=-1), r=0, lambda=1: bracket = 2^0.5 - 1 - 0.5
        spec = make_single_name_spec(p=-1.0, lam_a=1.0, lam_b=0.0, mu=0.0, sigma=1.0, r=0.0)
        z0 = DefaultState.from_bitstring("0")
        val = psi([0.0], [1.0], [0.0], 0.0, z0, spec)
        assert val == pytest.approx(np.sqrt(2.0) - 1.5, abs=1e-12)


class TestPhiAndNu:
    def test_rho_zero_drift(self):
        spec = load_preset("benchmark_s5")
        phi, nu = phi_and_nu([0.0, 0.0], [0.0, 0.0], 0.25, Z00, spec)
        assert nu == pytest.approx(float(spec.factor.drift(0.25)))

    def test_bracket_minus_one(self):
        # hhat = 0, theta = xi: phi = q(q-1)/2 |xi|^2 - qr - sum lambda_i
        spec = load_preset("scott_example22")
        y = 0.1
        xi = market_price_of_risk(y, spec)
        q = spec.q
        lam = spec.alive_intensity(y, Z00)
        phi, _ = phi_and_nu([0.0, 0.0], xi, y, Z00, spec)
        expected = 0.5 * q * (q - 1) * float(xi @ xi) - q * spec.market.r - float(lam.sum())
        assert phi == pytest.approx(expected, abs=1e-12)

    def test_all_defaulted_benchmark(self):
        spec = load_preset("benchmark_s5")
        phi, _ = phi_and_nu([0.0, 0.0], [0.0, 0.0], 0.0, Z11, spec)
        assert phi == pytest.approx(0.8)


class TestPhiBounds:
    def test_no_alive_names_q_negative(self):
        q, r = -4.0, 0.2
        lo, hi = phi_bounds(0.0, [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], q, r)
        assert (lo, hi) == (0.0, pytest.approx(0.8))

    def test_theta_term(self):
        q, r = -4.0, 0.2
        lo, hi = phi_bounds(0.09, [0.0], [0.0], [0.0], q, r)
        assert hi == pytest.approx(0.5 * q * (q - 1) * 0.09 - q * r)
        assert lo == 0.0

    def test_q_in_01_upper_zero(self):
        lo, hi = phi_bounds(1.0, [2.0], [3.0], [4.0], 0.5, 0.1)
        assert hi == 0.0 and lo < 0

    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-4.0, 0.9),
           st.floats(-0.8, 0.8))
    @settings(max_examples=80, deadline=None)
    def test_phi_within_bounds(self, h1, h2, q, y):
        # For any admissible loading field, phi lies inside the sup-norm envelope.
        if q in (0.0, 1.0) or abs(q) < 1e-3:
            return
        spec = load_preset("benchmark_s5")
        h = np.array([h1, h2]) * 0.9
        theta = theta_from_h(h, y, Z00, spec)
        phi, _ = phi_and_nu(h, theta, y, Z00, spec)

        # rebuild phi with the requested q (preset q is fixed, recompute directly)
        lam = spec.alive_intensity(y, Z00)
        phi = 0.5 * q * (q - 1) * float(theta @ theta) - q * spec.market.r \
            + float(np.sum((q - 1 - q * (1 + h)) * lam))
        y_grid = np.linspace(-1, 1, 41)
        lam_grid = spec.intensity(y_grid, Z00)
        lo, hi = phi_bounds(float(theta @ theta),
                            np.max(lam_grid, axis=0), np.abs(h), np.abs(1 + h),
                            q, spec.market.r)
        assert lo - 1e-10 <= phi <= hi + 1e-10


class TestBeta:
    def test_rho_zero(self):
        assert beta_exponent(-4.0, 0.0) == pytest.approx(5.0)

    def test_q_zero(self):
        assert beta_exponent(0.0, 0.5) == pytest.approx(1.0)

    @given(st.floats(-10.0, 0.99), st.floats(-0.99, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_positive(self, q, rho):
        assert beta_exponent(q, rho) > 0.0


class TestLegendre:
    def test_unit_case(self):
        spec = load_preset("benchmark_s5")
        _, I = legendre(1, 1.0, spec)
        assert I == pytest.approx(1.0)

    def test_q_half_values(self):
        spec = make_single_name_spec(p=-1.0)  # q = 0.5
        U_t, I = legendre(1, 4.0, spec)
        assert I == pytest.approx(0.5)
        assert U_t == pytest.approx(-4.0)

    def test_defining_identity(self):
        # U(I(y)) - I(y) y = Utilde(y) at y = 2, p = -1
        spec = make_single_name_spec(p=-1.0)
        y = 2.0
        U_t, I = legendre(1, y, spec)
        K, p = spec.pref.K1, spec.pref.p
        assert (K / p) * I**p - I * y == pytest.approx(U_t, abs=1e-12)

    def test_domain_error(self):
        spec = load_preset("benchmark_s5")
        with pytest.raises(ValueError):
            legendre(1, 0.0, spec)
        with pytest.raises(ValueError):
            legendre(3, 1.0, spec)


class TestKappaAndValue:
    def test_fixed_point(self):
        assert kappa_hat(2.0, 2.0, -4.0) == pytest.approx(1.0)

    def test_hand_value(self):
        assert kappa_hat(1.0, 32.0, -4.0) == pytest.approx(2.0)

    def test_ratio_one(self):
        assert kappa_hat(2.0, 2.0, 0.5) == pytest.approx(1.0)

    def test_dual_value(self):
        assert dual_value(1.0, 32.0, 0.8) == pytest.approx(2.5)

    def test_errors(self):
        with pytest.raises(ValueError):
            kappa_hat(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            dual_value(1.0, -1.0, 0.5)
