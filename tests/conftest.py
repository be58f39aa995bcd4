import dataclasses

import numpy as np
import pytest

import creditfolio as cf
from creditfolio.fields import policy_channel
from creditfolio.model import CreditSpec, FactorSpec, MarketSpec, ModelSpec, PreferenceSpec


GENERAL_SIGMA = np.array([[0.8, 0.1], [0.05, 0.7]])  # not diagonal: takes the general Newton


def general_sigma_of_y(y):
    """A y-dependent full sigma: GENERAL_SIGMA scaled by 1 + 0.2 y, vectorised over y."""
    return (1.0 + 0.2 * y)[..., None, None] * GENERAL_SIGMA


def full_sigma_scott(sigma):
    """scott_example22 with its diagonal sigma replaced by ``sigma``."""
    base = cf.load_preset("scott_example22")
    return cf.ModelSpec(n=2, factor=base.factor, credit=base.credit, pref=base.pref,
                        market=MarketSpec(mu=base.market.mu, sigma=sigma, r=base.market.r))


def with_policy(result, pi_scale=1.0, **channels):
    """A copy of ``result`` that runs another policy: its policy table, edited.

    Each keyword names a channel of ``fields.POLICY_CHANNELS`` and the value
    it takes everywhere, broadcast against that channel's (S, n_t+1, n_y[, n])
    array: one weight per name, or an (S, 1, 1, n) array for per-state values.
    ``pi_scale`` then multiplies the portfolio weights.  The path engine
    masks a defaulted name's weight to zero whatever the table holds.
    """
    policy = result.policy.copy()
    for name, value in channels.items():
        policy[..., policy_channel(name, result.n)] = value
    policy[..., policy_channel("pi", result.n)] *= pi_scale
    return dataclasses.replace(result, policy=policy)


def bisect_reference(spec, state, i, y, f_val, df_val, f_child, lo=-1 + 1e-6, hi=8.0):
    """Independent dense bisection of the scalar stationarity equation for name i."""
    q, beta, rho = spec.q, spec.beta, spec.factor.rho
    sig = spec.market.matrix(y)[i, i]
    xi = (spec.market.mu[i] - spec.market.r) / sig
    lam = float(spec.alive_intensity(y, state)[i])
    grad = rho * beta * (df_val / f_val) * spec.factor.sigma0[i]
    ratio = (f_child / f_val) ** beta

    def resid(h):
        return (sig * (1.0 - (1.0 + h) ** (q - 1.0) * ratio)
                - (1.0 - q) * (xi - lam * h / sig) - grad)

    while resid(hi) <= 0 and hi < 512:
        hi *= 2
    assert resid(lo) < 0 < resid(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if resid(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def make_single_name_spec(p=0.5, lam_a=0.5, lam_b=0.2, lam_c=0.3, mu=0.3, sigma=0.8, r=0.1):
    """One defaultable stock with positive excess return; exercises nonzero controls."""
    return ModelSpec(
        n=1,
        factor=FactorSpec(u0=0.4, kappa=1.0, sigma0=np.array([0.5]), rho=0.0,
                          domain_lo=-1.25, domain_hi=1.25),
        credit=CreditSpec.exp_affine(1, {(0, "0"): (lam_a, lam_b, lam_c)}),
        market=MarketSpec(mu=[mu], sigma=[sigma], r=r),
        pref=PreferenceSpec(p=p, K1=1.0, K2=1.0, T=1.0),
    )


def make_premium_spec():
    """Defaultable zero-premium stock plus a default-free stock with premium.

    The replication hypothesis holds on every reachable state, so duality is
    exact while the wealth paths carry genuine randomness and real defaults.
    """
    return ModelSpec(
        n=2,
        factor=FactorSpec(u0=0.5, kappa=1.2, sigma0=np.array([0.6, 0.4]), rho=0.0,
                          domain_lo=-1.25, domain_hi=1.25),
        credit=CreditSpec.exp_affine(2, {(0, "00"): (0.6, 0.4, 0.1), (1, "00"): (0.0, 0.0, 0.0)}),
        market=MarketSpec(mu=[0.2, 0.26], sigma=[0.8, 0.3], r=0.2),
        pref=PreferenceSpec(p=0.5, K1=1.0, K2=1.0, T=1.0),
    )


def make_contagion_spec(p=0.8):
    """Benchmark-style two-name contagion model with a positive risk premium."""
    table = {
        (0, "00"): (0.6, 0.4, 0.1),
        (1, "00"): (0.5, 0.3, 0.1),
        (0, "01"): (0.8, 0.6, 0.1),
        (1, "10"): (0.8, 0.6, 0.1),
    }
    return ModelSpec(
        n=2,
        factor=FactorSpec(u0=0.5, kappa=1.2, sigma0=np.array([0.6, 0.4]), rho=0.0,
                          domain_lo=-1.25, domain_hi=1.25),
        credit=CreditSpec.exp_affine(2, table),
        market=MarketSpec(mu=[0.28, 0.28], sigma=[0.8, 0.8], r=0.2),
        pref=PreferenceSpec(p=p, K1=1.0, K2=1.0, T=1.0),
    )


@pytest.fixture(scope="session")
def benchmark_spec():
    return cf.load_preset("benchmark_s5")


@pytest.fixture(scope="session")
def benchmark_result(benchmark_spec):
    grid = cf.GridSpec(-1.0, 1.0, 201, 200)
    return cf.solve_recursive_system(benchmark_spec, grid), grid


@pytest.fixture(scope="session")
def merton_result():
    spec = cf.load_preset("merton_nodefault")
    grid = cf.GridSpec(-1.0, 1.0, 101, 100)
    return spec, cf.solve_recursive_system(spec, grid), grid


@pytest.fixture(scope="session")
def scott_result():
    spec = cf.load_preset("scott_example22")
    grid = cf.GridSpec(-1.0, 1.0, 151, 150)
    return spec, cf.solve_recursive_system(spec, grid), grid


@pytest.fixture(scope="session")
def single_name_result():
    spec = make_single_name_spec()
    grid = cf.GridSpec(-1.0, 1.0, 201, 200)
    return spec, cf.solve_recursive_system(spec, grid), grid


@pytest.fixture(scope="session")
def premium_result():
    spec = make_premium_spec()
    grid = cf.GridSpec(-1.0, 1.0, 151, 150)
    return spec, cf.solve_recursive_system(spec, grid), grid


@pytest.fixture(scope="session")
def contagion_result():
    spec = make_contagion_spec()
    grid = cf.GridSpec(-1.0, 1.0, 151, 150)
    return spec, cf.solve_recursive_system(spec, grid), grid
