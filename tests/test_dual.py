import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import creditfolio as cf
from creditfolio.dual import H_FLOOR, Coefficients, beta_exponent, phi_bounds, _sum_names
from creditfolio.fields import GridSpec, SolveResult, policy_width
from creditfolio.model import DefaultState, load_preset
from creditfolio.strategy import value_function

from conftest import make_single_name_spec

Z00 = DefaultState.from_bitstring("00")
Z11 = DefaultState.from_bitstring("11")


def xi_at(y, spec):
    """Market price of risk xi(y) = sigma(y)^{-1} (mu - r 1), the kernel's y-only array."""
    return Coefficients(spec, (DefaultState(spec.n),), y).xi[0]


def check_h(coef, h):
    """``h`` with defaulted entries zeroed; ValueError unless 1 + h > H_FLOOR on alive names.

    ``coef`` is the kernel of one state.
    """
    h = np.asarray(h, dtype=float)
    alive = coef.alive[0, 0]
    if np.any(1.0 + h[..., alive > 0] <= H_FLOOR):
        raise ValueError(f"jump loading out of domain: need 1 + h > {H_FLOOR} for alive names")
    return h * alive


def theta_at(h, y, state, spec):
    """theta tied to h at one node, through the domain check."""
    coef = Coefficients(spec, (state,), y)
    return coef.theta_from_h(check_h(coef, h)[None])[0, 0]


def h_from_theta(coef, theta):
    """Inverse of ``coef.theta_from_h`` on alive names (0 where defaulted)."""
    gap = coef.xi - np.asarray(theta, dtype=float)
    rhs = coef.sig * gap if coef.diagonal else (coef.sig @ gap[..., None])[..., 0]
    pos = coef.lam > 0
    assert not np.any((coef.alive > 0) & ~pos & (np.abs(rhs) > 1e-12)), "zero intensity"
    return np.where(pos, rhs / np.where(pos, coef.lam, 1.0), 0.0)


def constant_dual(spec, g):
    """Stacked solution whose dual value g(T, y, z) = f^beta equals ``g`` everywhere."""
    grid = GridSpec(-1.0, 1.0, 11, 10)
    f = np.full((2**spec.n, grid.n_t + 1, grid.n_y), g ** (1.0 / spec.beta))
    return SolveResult(grid=grid, t_nodes=grid.t_nodes(spec.pref.T), f=f, df=np.zeros_like(f),
                       policy=np.zeros(f.shape + (policy_width(spec.n),)),
                       hedge_gap=np.zeros(len(f)))


def phi_nu_at(hhat, theta, y, state, spec):
    coef = Coefficients(spec, (state,), y)
    phi, nu = coef.phi_nu(check_h(coef, hhat)[None], np.asarray(theta, dtype=float)[None])
    return float(phi[0, 0]), float(nu[0])


class TestMarketPriceOfRisk:
    def test_benchmark_is_zero(self):
        spec = load_preset("benchmark_s5")
        for y in (-0.8, 0.0, 0.9):
            assert np.allclose(xi_at(y, spec), 0.0)

    def test_scalar_division(self):
        spec = make_single_name_spec(mu=0.25, sigma=0.8, r=0.05)
        assert xi_at(0.0, spec)[0] == pytest.approx(0.25)

    def test_singular_sigma_raises(self):
        spec = load_preset("benchmark_s5")
        bad = cf.MarketSpec(mu=[0.3, 0.3], sigma=np.array([[1.0, 1.0], [1.0, 1.0]]), r=0.2)
        spec2 = cf.ModelSpec(n=2, factor=spec.factor, credit=spec.credit,
                             market=bad, pref=spec.pref)
        with pytest.raises(np.linalg.LinAlgError):
            xi_at(0.0, spec2)


class TestThetaFromH:
    def test_zero_loading_gives_xi(self):
        spec = load_preset("scott_example22")
        xi = xi_at(0.2, spec)
        assert np.allclose(theta_at([0.0, 0.0], 0.2, Z00, spec), xi)

    def test_all_defaulted_gives_xi(self):
        spec = load_preset("scott_example22")
        xi = xi_at(-0.3, spec)
        assert np.allclose(theta_at([5.0, -0.9], -0.3, Z11, spec), xi)

    def test_benchmark_hand_value(self):
        spec = load_preset("benchmark_s5")
        theta = theta_at([0.1, 0.1], 0.0, Z00, spec)
        assert theta == pytest.approx([-0.125, -0.1])

    def test_domain_error(self):
        spec = load_preset("benchmark_s5")
        with pytest.raises(ValueError):
            theta_at([-1.0, 0.0], 0.0, Z00, spec)

    @given(st.lists(st.floats(-0.9, 5.0), min_size=2, max_size=2),
           st.floats(-0.9, 0.9), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, h, y, bits):
        spec = load_preset("benchmark_s5")
        state = DefaultState(2, bits)
        h = np.array(h) * (1.0 - state.indicator())
        coef = Coefficients(spec, (state,), y)
        back = h_from_theta(coef, coef.theta_from_h(h[None]))[0, 0]
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
        coef = Coefficients(spec, (Z00,), y)
        theta = coef.theta_from_h(np.stack([h, 0.5 * h]))
        pisig = spec.market.pi_sigma(h, coef.sig)
        for j, yv in enumerate(y):
            s = spec.market.matrix(yv)
            xi = np.linalg.solve(s, spec.market.mu - spec.market.r)
            lam = spec.alive_intensity(yv, Z00)
            for k, scale in enumerate((1.0, 0.5)):
                want = xi - np.linalg.inv(s) @ (lam * scale * h[j])
                assert np.allclose(theta[k, j], want, rtol=0, atol=1e-14)
            assert np.allclose(pisig[j], h[j] @ s, rtol=0, atol=1e-14)
        assert np.allclose(h_from_theta(coef, theta[0])[0], h, rtol=0, atol=1e-12)


class TestPhiAndNu:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_name_sum_is_numpys_bitwise(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(4, 51, n)) * rng.uniform(1e-3, 1e3, size=(4, 51, n))
        for x in (a, a[0], a[:, :1]):
            assert _sum_names(x).tobytes() == np.sum(x, axis=-1).tobytes()

    def test_rho_zero_drift(self):
        spec = load_preset("benchmark_s5")
        phi, nu = phi_nu_at([0.0, 0.0], [0.0, 0.0], 0.25, Z00, spec)
        assert nu == pytest.approx(float(spec.factor.drift(0.25)))

    def test_bracket_minus_one(self):
        # hhat = 0, theta = xi: phi = q(q-1)/2 |xi|^2 - qr - sum lambda_i
        spec = load_preset("scott_example22")
        y = 0.1
        xi = xi_at(y, spec)
        q = spec.q
        lam = spec.alive_intensity(y, Z00)
        phi, _ = phi_nu_at([0.0, 0.0], xi, y, Z00, spec)
        expected = 0.5 * q * (q - 1) * float(xi @ xi) - q * spec.market.r - float(lam.sum())
        assert phi == pytest.approx(expected, abs=1e-12)

    def test_all_defaulted_benchmark(self):
        spec = load_preset("benchmark_s5")
        phi, _ = phi_nu_at([0.0, 0.0], [0.0, 0.0], 0.0, Z11, spec)
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
        theta = theta_at(h, y, Z00, spec)

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


class TestKappaAndValue:
    def test_dual_value(self):
        # primal value attained by the dual optimum: (x^p / p) F^{1-p}
        spec = make_single_name_spec(p=0.8)
        z0 = DefaultState.from_bitstring("0")
        result = constant_dual(spec, 32.0)
        assert value_function(1.0, 0.0, z0, result, spec) == pytest.approx(2.5)
        assert value_function(4.0, 0.3, z0, result, spec) == pytest.approx(4.0**0.8 * 2.5)

    def test_errors(self):
        spec = make_single_name_spec(p=0.5)
        z0 = DefaultState.from_bitstring("0")
        result = constant_dual(spec, 2.0)
        with pytest.raises(ValueError):
            value_function(0.0, 0.0, z0, result, spec)
        with pytest.raises(ValueError):
            value_function(-1.0, 0.0, z0, result, spec)
