import numpy as np
import pytest
from scipy.integrate import solve_ivp

from creditfolio import oracle as om


def integrate(rhs, y0, t1):
    """y(t1) of the scalar ODE y' = rhs(t, y), y(0) = y0, by DOP853 at tight tolerances."""
    sol = solve_ivp(lambda t, y: [rhs(t, y[0])], (0.0, t1), [y0], method="DOP853",
                    rtol=1e-12, atol=1e-14)
    return float(sol.y[0, -1])


def bench_scalar(**over):
    kwargs = dict(lambda0=0.0, sigma=0.8, xi=0.0, r=0.2, q=-4.0, K1=1.0, K2=1.0, T=1.0)
    kwargs.update(over)
    return om.ScalarModel(**kwargs)


class TestAllDefaulted:
    def test_initial_condition(self):
        m = bench_scalar(K1=1.7)
        assert om.all_defaulted_closed_form(0.0, m) == pytest.approx(1.7)

    def test_degenerate_exponential(self):
        # phi1 = 0 at q = 0; ftil(t) = 1 + t
        m = bench_scalar(q=0.0, r=0.3)
        assert m.phi1 == 0.0
        assert om.ftil_defaulted(0.7, m) == pytest.approx(1.7)

    def test_benchmark_values(self):
        m = bench_scalar()
        assert m.phi1 == pytest.approx(0.8)
        assert om.ftil_defaulted(1.0, m) == pytest.approx(3.7574670891080526, rel=1e-14)
        assert om.all_defaulted_closed_form(1.0, m) == pytest.approx(1.3031038775212331, rel=1e-14)

    def test_rk4_agreement_32_probes(self):
        m = bench_scalar(xi=0.3, r=0.15, K1=1.2, K2=0.7)
        worst = 0.0
        for t in np.linspace(1 / 32, m.T, 32):
            ode = integrate(lambda s, y: m.phi1 * y + m.K2**m.beta, m.K1**m.beta, float(t))
            worst = max(worst, abs(ode - float(om.ftil_defaulted(t, m))))
        assert worst < 1e-9


class TestBernoulliAlive:
    def test_initial_condition(self):
        m = bench_scalar(lambda0=0.5, K1=1.3)
        assert om.bernoulli_alive_solution(0.0, lambda u: np.ones_like(u), m) \
            == pytest.approx(1.3**m.beta)

    def test_no_contagion_reduces_to_linear(self):
        # lambda0 = 0: the feed-in ell vanishes and phi(x) collapses to phi1
        m = bench_scalar(lambda0=0.0, xi=0.2)
        a, b, c = om.phi_poly_coefficients(m)
        assert a == 0.0 and b == 0.0 and c == pytest.approx(m.phi1)
        got = om.bernoulli_alive_solution(1.0, lambda u: np.ones_like(u), m)
        assert got == pytest.approx(float(om.ftil_defaulted(1.0, m)), rel=1e-10)

    def test_rk4_cross_check_log_utility(self):
        m = bench_scalar(lambda0=0.5, xi=0.0, q=0.0, r=0.1)
        a, b, c = om.phi_poly_coefficients(m)

        def rhs(t, y):
            phi = a + b + c  # x == 1
            return phi * y + m.K2**m.beta + float(om.ell(t, m))

        ode = integrate(rhs, m.K1**m.beta, 1.0)
        cf_val = om.bernoulli_alive_solution(1.0, lambda u: np.ones_like(u), m)
        assert abs(cf_val - ode) < 1e-8

    def test_phi_poly_matches_direct(self):
        # a x^2 + b x + c at x = 1 + h equals the reaction rate built from theta(h)
        m = bench_scalar(lambda0=0.7, xi=0.25, q=-1.0, r=0.15)
        a, b, c = om.phi_poly_coefficients(m)
        for h in (-0.3, 0.0, 0.8):
            theta = m.xi - m.lambda0 * h / m.sigma
            direct = (0.5 * m.q * (m.q - 1) * theta**2 - m.q * m.r
                      + (m.q - 1 - m.q * (1 + h)) * m.lambda0)
            assert a * (1 + h) ** 2 + b * (1 + h) + c == pytest.approx(direct, abs=1e-13)


class TestPicard:
    def params(self):
        return om.ScalarModel(lambda0=0.5, sigma=0.8, xi=0.25, r=0.1, q=0.0,
                              K1=1.0, K2=1.0, T=1.0)

    def test_fixed_point_residual(self):
        m = self.params()
        fp = om.picard_fixed_point(m)
        resid = om.fixed_point_residual(fp, m, np.linspace(0.0, 1.0, 64))
        assert resid < 1e-8

    def test_contraction_observed(self):
        fp = om.picard_fixed_point(self.params())
        assert 0.0 < fp.contraction_sup < 1.0
        assert fp.iterations > 1

    def test_one_step_hand_value(self):
        m = self.params()
        fp = om.picard_fixed_point(m)
        a_t = m.beta * m.lambda0**2 / m.sigma**2
        one_step_at_zero = fp.eps + float(om.ell(0.0, m)) * fp.eps**(-m.beta) / (a_t * m.K1**m.beta)
        x0 = np.full_like(fp.u_mesh, fp.eps)
        # recompute one application of the map at u = 0 through the public pieces
        assert one_step_at_zero == pytest.approx(fp.eps + m.lambda0 * fp.eps**-1 / a_t)

    def test_zero_feed_in_collapses_to_floor(self):
        # with the contagion feed-in removed the map is constant at eps
        m = self.params()
        fp = om.picard_fixed_point(m)
        assert np.all(fp.x_values >= fp.eps)
        # residual identity implies x - eps == coef * x^{-beta}; zero coef => x == eps
        coef_implied = (fp.x_values - fp.eps) * fp.x_values**m.beta
        assert np.all(coef_implied >= -1e-12)

    def test_outside_regime_raises(self):
        bad = om.ScalarModel(lambda0=0.1, sigma=1.0, xi=0.0, r=0.1, q=0.0,
                             K1=1.0, K2=1.0, T=1.0)  # b_tilde < 0
        with pytest.raises(ValueError):
            om.picard_fixed_point(bad)

    def test_nonzero_q_raises(self):
        with pytest.raises(ValueError):
            om.picard_fixed_point(bench_scalar(lambda0=0.5, q=-1.0))


class TestMerton:
    def test_textbook(self):
        assert om.merton_fraction(0.25, 0.2, 0.2, 0.5) == pytest.approx(2.5)

    def test_zero_excess(self):
        assert om.merton_fraction(0.2, 0.2, 0.5, 0.5) == 0.0

    def test_risk_aversion_limit(self):
        vals = [om.merton_fraction(0.25, 0.2, 0.2, p) for p in (-1, -10, -100)]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            om.merton_fraction(0.25, 0.2, 0.0, 0.5)
        with pytest.raises(ValueError):
            om.merton_fraction(0.25, 0.2, 0.2, 0.0)
