"""Closed-form and brute-force ground truths for the single-name constant-factor case.

With one stock, a constant factor (no diffusion) and constant coefficients
the transformed solution ftil = f^beta, beta = 1 - q, obeys linear ODEs

    ftil'(t, 1) = phi1 ftil(t, 1) + K2^beta,
    ftil'(t, 0) = phi(x(T-t)) ftil(t, 0) + K2^beta + ell(t) x(T-t)^q,

with ell(t) = lambda0 ftil(t, 1), x(u) = 1 + h(T-u, 0), and phi quadratic in
x.  The defaulted line integrates in closed form; the alive line integrates
in closed form for any given loading path x; and for log utility (q = 0) the
feedback fixed point for x is an explicit contraction solved by Picard
iteration.

The quadrature is fixed (composite Simpson with >= 512 panels) so oracle
values are bit-stable across runs and more accurate than the solvers they
judge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ScalarModel",
    "all_defaulted_closed_form",
    "bernoulli_alive_solution",
    "phi_poly_coefficients",
    "picard_fixed_point",
    "PicardResult",
    "merton_fraction",
    "simpson_panels",
]

SIMPSON_PANELS = 512


@dataclass(frozen=True)
class ScalarModel:
    """Single-name constant-factor model; q supplied directly (q = 0 is log utility)."""

    lambda0: float
    sigma: float
    xi: float
    r: float
    q: float
    K1: float
    K2: float
    T: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not self.q < 1.0:
            raise ValueError("need q < 1")
        if self.lambda0 < 0:
            raise ValueError("lambda0 must be nonnegative")

    @property
    def beta(self) -> float:
        return 1.0 - self.q

    @property
    def phi1(self) -> float:
        """Reaction rate in the all-defaulted state: q(q-1)/2 xi^2 - q r."""
        return 0.5 * self.q * (self.q - 1.0) * self.xi**2 - self.q * self.r


def simpson_panels(values: np.ndarray, dt: float) -> float:
    """Composite Simpson rule over an odd-length uniform sample."""
    if len(values) % 2 == 0:
        raise ValueError("Simpson rule needs an even panel count (odd sample length)")
    return dt / 3.0 * float(values[0] + values[-1]
                            + 4.0 * np.sum(values[1:-1:2]) + 2.0 * np.sum(values[2:-2:2]))


def _cumulative_simpson(values: np.ndarray, dt: float) -> np.ndarray:
    """Running integral on a uniform mesh: Simpson per even node, parabolic half-panels between."""
    n = len(values)
    out = np.zeros(n)
    for k in range(1, n):
        if k % 2 == 0:
            out[k] = out[k - 2] + dt / 3.0 * (values[k - 2] + 4.0 * values[k - 1] + values[k])
        else:
            # integral over one panel of the parabola through (k-1, k, k+1), or trapezoid at the tail
            if k + 1 < n:
                out[k] = out[k - 1] + dt / 12.0 * (5.0 * values[k - 1] + 8.0 * values[k] - values[k + 1])
            else:
                out[k] = out[k - 1] + dt / 2.0 * (values[k - 1] + values[k])
    return out


def ftil_defaulted(t, m: ScalarModel):
    """Transformed all-defaulted solution ftil(t, 1); exact linear-ODE formula."""
    t = np.asarray(t, dtype=float)
    K1b = m.K1**m.beta
    K2b = m.K2**m.beta
    if m.phi1 == 0.0:
        return K1b + K2b * t
    e = np.exp(m.phi1 * t)
    return e * K1b + K2b * (e - 1.0) / m.phi1


def all_defaulted_closed_form(t, m: ScalarModel):
    """f(t, z=1) = ftil(t, 1)^{1/beta}."""
    return ftil_defaulted(t, m) ** (1.0 / m.beta)


def ell(t, m: ScalarModel):
    """Contagion feed-in ell(t) = lambda0 ftil(t, 1)."""
    return m.lambda0 * ftil_defaulted(t, m)


def phi_poly_coefficients(m: ScalarModel) -> tuple[float, float, float]:
    """(a, b, c) with phi(t, 0) = a x(T-t)^2 + b x(T-t) + c, x = 1 + h."""
    q, lam, sig, xi, r = m.q, m.lambda0, m.sigma, m.xi, m.r
    a = 0.5 * q * (q - 1.0) * lam**2 / sig**2
    b = q * (1.0 - q) * lam**2 / sig**2 + q * lam * ((1.0 - q) * xi / sig - 1.0)
    c = (q * lam * ((q - 1.0) * xi / sig + 1.0) - q * r - lam
         + 0.5 * q * (q - 1.0) * xi**2 + 0.5 * q * (q - 1.0) * lam**2 / sig**2)
    return a, b, c


def bernoulli_alive_solution(t: float, x_path: Callable[[np.ndarray], np.ndarray],
                             m: ScalarModel, n_panels: int = SIMPSON_PANELS):
    """ftil(t, 0) for a given loading path x(u) on [0, T], by exponential-integrator quadrature.

    Evaluates exp(int_0^t phi(x(T-s)) ds) [K1^beta + int_0^t exp(-int_0^s phi)
    (K2^beta + ell(s) x(T-s)^q) ds] with composite Simpson on n_panels
    (rounded up to even) panels.
    """
    if t == 0.0:
        return m.K1**m.beta
    n_panels = max(2, n_panels + (n_panels % 2))
    s = np.linspace(0.0, t, n_panels + 1)
    ds = s[1] - s[0]
    a, b, c = phi_poly_coefficients(m)
    xs = np.asarray(x_path(m.T - s), dtype=float)
    phi_s = a * xs**2 + b * xs + c
    Iphi = _cumulative_simpson(phi_s, ds)
    integrand = np.exp(-Iphi) * (m.K2**m.beta + ell(s, m) * xs**m.q)
    inner = simpson_panels(integrand, ds)
    return float(np.exp(Iphi[-1]) * (m.K1**m.beta + inner))


@dataclass
class PicardResult:
    """Fixed-point loading path for the log-utility case."""

    u_mesh: np.ndarray
    x_values: np.ndarray
    contraction_sup: float
    iterations: int
    eps: float  # fixed-point floor b_tilde / a_tilde

    def __call__(self, u):
        return np.interp(np.asarray(u, dtype=float), self.u_mesh, self.x_values)


def picard_fixed_point(m: ScalarModel, n_mesh: int = 1025, tol: float = 1e-10,
                       max_iter: int = 5000) -> PicardResult:
    """Unique loading fixed point x(u) = eps + C(u) x(u)^{-beta} for q = 0.

    Requires the log-utility regime q = 0 with b_tilde > 0.  Iterates the
    defining map from the constant path eps until the sup-norm change drops
    below tol.  The reported contraction factor is the numerically observed
    ratio of successive sup-norm changes near convergence (the analytic
    worst-case Lipschitz constant at the floor eps is far too pessimistic at
    ordinary parameters); a factor >= 1 means the iteration left the
    contractive regime and is an error.
    """
    if m.q != 0.0:
        raise ValueError("the feedback fixed point is explicit only for q = 0")
    beta = m.beta  # = 1
    a_t = beta * m.lambda0**2 / m.sigma**2
    b_t = m.lambda0 * (beta * (m.xi * m.sigma + m.lambda0) - m.sigma**2) / m.sigma**2
    if a_t <= 0:
        raise ValueError("degenerate fixed point: lambda0 must be positive")
    if b_t <= 0:
        raise ValueError(f"outside the contractive regime: b_tilde = {b_t:.6g} <= 0")
    eps = b_t / a_t
    _, _, c = phi_poly_coefficients(m)

    u = np.linspace(0.0, m.T, n_mesh)
    du = u[1] - u[0]
    ell_u = ell(u, m)
    denom_integrand = np.exp(-c * u) * (m.K2**beta + ell_u)
    denom = m.K1**beta + _cumulative_simpson(denom_integrand, du)
    coef = ell_u * np.exp(-c * u) / (a_t * denom)

    x = np.full(n_mesh, eps)
    change_prev = None
    contraction = 0.0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        x_new = eps + coef * x ** (-beta)
        change = float(np.max(np.abs(x_new - x)))
        x = x_new
        if change_prev is not None and change_prev > 0:
            contraction = change / change_prev
        change_prev = change
        if change < tol:
            break
    else:
        raise ValueError(
            f"fixed-point iteration did not converge within {max_iter} sweeps "
            f"(observed contraction factor {contraction:.4f})")
    if contraction >= 1.0:
        raise ValueError(f"observed contraction factor {contraction:.4f} >= 1")
    return PicardResult(u_mesh=u, x_values=x, contraction_sup=contraction,
                        iterations=iterations, eps=eps)


def fixed_point_residual(res: PicardResult, m: ScalarModel, u_probe=None) -> float:
    """Max residual of x(u) - b~/a~ - ell(u) / (a~ ftil^x(u,0) x(u)^beta) over probes."""
    a_t = m.beta * m.lambda0**2 / m.sigma**2
    b_t = m.lambda0 * (m.beta * (m.xi * m.sigma + m.lambda0) - m.sigma**2) / m.sigma**2
    if u_probe is None:
        u_probe = np.linspace(0.0, m.T, 65)
    worst = 0.0
    for u in np.asarray(u_probe, dtype=float):
        ft = bernoulli_alive_solution(float(u), res, m)
        xv = float(res(u))
        rhs = b_t / a_t + float(ell(u, m)) / (a_t * ft * xv**m.beta)
        worst = max(worst, abs(xv - rhs))
    return worst


def merton_fraction(mu: float, r: float, sigma: float, p: float) -> float:
    """Classical constant-coefficient optimal fraction (mu - r) / ((1 - p) sigma^2)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not (p < 1.0 and p != 0.0):
        raise ValueError("need p < 1, p != 0")
    return (mu - r) / ((1.0 - p) * sigma**2)
