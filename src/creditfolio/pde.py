"""Recursive solver for the default-state system of semi-linear PDEs.

For each default state z the transformed value function f(t, y, z) satisfies

    df/dt = A_z f + phi/beta f + Phi(t, y, f, z),      f(0, y, z) = K1^{(1-q)/beta},

on the factor domain, where A_z is the diffusion-drift generator, phi the
reaction rate and Phi the contagion source built from the already-solved
states with one more default.  States are solved in descending default count,
so every state's children are solved before it.

Time stepping is a theta = 1/2 IMEX scheme: the linear operator is treated by
Crank-Nicolson, the reaction and source explicitly at the clamped current
value, with a small fixed-point sweep per step that refreshes the jump
loadings (and, when rho != 0, the gradient coupling) at the new slice.  The
Crank-Nicolson matrix is LU-factored once per operator and time step and
reused by every solve with both unchanged (for rho = 0, one operator serves
the whole march).

The clamp reproduces the truncation device that makes the source Lipschitz.
Each state is marched once without it; that bootstrap pass fixes the
truncation bounds.  It is marched again, clamped, only when some slice value
the bootstrap fed to the source lay outside those bounds; otherwise the clamp
is the identity on every argument and the clamped march would repeat the
bootstrap bit for bit.  At convergence the clamp is never active.

Boundary conditions are homogeneous Neumann at both ends of the factor
domain.  This is an approximation (zero flux matches a mean-reverting factor
and preserves spatial constants); enlarge the domain to refine it.
"""

from __future__ import annotations

import time
from typing import Mapping

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from . import strategy
from .dual import Coefficients, phi_bounds as _phi_bounds
from .fields import GridSpec, PolicyField, SolutionField, SolveResult, TruncationBounds, spatial_gradient
from .model import DefaultState, ModelSpec, states_by_cardinality, validate_spec
from .strategy import SolverError

__all__ = [
    "GridSpec",
    "SolutionField",
    "TruncationBounds",
    "nonlinear_source",
    "step_slice",
    "truncation_bounds",
    "solve_recursive_system",
]

_BOUND_SLACK = 1e-12
# fixed-point sweeps per step that refresh the controls at the new slice, and the
# relative change below which the sweep stops early
_INNER_SWEEPS = 5
_INNER_TOL = 1e-8


def _clamp(v, t, bounds: TruncationBounds | None):
    if bounds is None:
        return v, 0
    hi = bounds.k_bar(t)
    clipped = np.clip(v, bounds.k_under, hi)
    return clipped, int(np.sum(clipped != v))


def nonlinear_source(t: float, y: float, v: float, state: DefaultState,
                     children_values: Mapping[int, float], hhat, spec: ModelSpec,
                     bounds: TruncationBounds | None = None) -> float:
    """Contagion source Phi = v^{1-beta}/beta (K2^{1-q} + sum_i f_i^beta (1+h_i)^q lambda_i).

    With bounds supplied, v is first clamped into [k_under, k_bar(t)]; without
    them a non-positive v is a domain error.
    """
    beta = spec.beta
    if bounds is not None:
        v = float(np.clip(v, bounds.k_under, bounds.k_bar(t)))
    elif v <= 0:
        raise ValueError("solution value must be positive when the clamp is disabled")
    children = {i: float(children_values[i]) for i in state.alive}
    if any(val <= 0 for val in children.values()):
        raise ValueError("child values must be positive")
    s = Coefficients(spec, state, y).source_sum(np.asarray(hhat, dtype=float)[None, :], children)
    return float(v ** (1.0 - beta) / beta * s[0])


# ---------------------------------------------------------------------------
# One IMEX step
# ---------------------------------------------------------------------------


def _banded_operator(y_nodes, diff_coef, nu, dy):
    """Banded (super/diag/sub) rows of the generator with Neumann mirror rows."""
    n_y = y_nodes.shape[0]
    sub = np.zeros(n_y)
    diag = np.zeros(n_y)
    sup = np.zeros(n_y)
    d = diff_coef / dy**2
    adv = nu / (2.0 * dy)
    diag[1:-1] = -2.0 * d[1:-1]
    sub[1:-1] = d[1:-1] - adv[1:-1]
    sup[1:-1] = d[1:-1] + adv[1:-1]
    diag[0] = -2.0 * d[0]
    sup[0] = 2.0 * d[0]
    diag[-1] = -2.0 * d[-1]
    sub[-1] = 2.0 * d[-1]
    return sub, diag, sup


def _apply_operator(sub, diag, sup, f):
    out = diag * f
    out[:-1] += sup[:-1] * f[1:]
    out[1:] += sub[1:] * f[:-1]
    return out


class _StepWorkspace:
    """Per-state marching state: grid geometry, the state's coefficient kernel,
    control warm starts and running stats."""

    def __init__(self, state: DefaultState, spec: ModelSpec, grid: GridSpec):
        self.y = grid.y_nodes()
        self.dy = grid.dy
        self.coef = Coefficients(spec, state, self.y)
        self.diff = 0.5 * spec.factor.vol_sq(self.y) * np.ones_like(self.y)
        self.h_warm: np.ndarray | None = None
        self.static_operator = spec.factor.rho == 0.0
        self._op_cache = None
        self._lu_op = None
        self._lu: dict = {}
        # (t, min, max) of every slice value the unclamped source was given
        self.envelope: list[tuple[float, float, float]] = []
        self.clamp_hits = 0
        self.newton_iters = 0
        self.resid_max = 0.0
        self.stats = _empty_stats(spec.n)

    def terms(self, f_slice, children):
        """Controls at one slice, folded into the running stats; returns (phi, nu, source sum)."""
        df_slice = spatial_gradient(f_slice, self.dy)
        hhat, theta, _, iters, resid = strategy.solve_hhat_slice(
            self.y, self.coef.state, self.coef.spec, f_slice, df_slice, children,
            h_init=self.h_warm, coef=self.coef)
        self.h_warm = hhat
        self.newton_iters = max(self.newton_iters, iters)
        self.resid_max = max(self.resid_max, resid)
        phi, nu = self.coef.phi_nu(hhat, theta)
        s = self.coef.source_sum(hhat, children)
        _fold_stats(self.stats, list(self.coef.state.alive), hhat, theta, phi, s)
        return phi, nu, s

    def operator(self, nu):
        if self.static_operator and self._op_cache is not None:
            return self._op_cache
        op = _banded_operator(self.y, self.diff, nu, self.dy)
        if self.static_operator:
            self._op_cache = op
        return op

    def cn_solve(self, op, rhs, dt):
        """Solve the Crank-Nicolson system (I - dt/2 A) x = rhs for the operator ``op``.

        The LAPACK ``dgttrf`` factors are kept per ``dt`` while ``op`` stays
        the same object, so every later solve is one ``dgttrs`` call.
        """
        if op is not self._lu_op:
            self._lu_op, self._lu = op, {}
        lu = self._lu.get(dt)
        if lu is None:
            sub, diag, sup = op
            *lu, info = dgttrf(-0.5 * dt * sub[1:], 1.0 - 0.5 * dt * diag, -0.5 * dt * sup[:-1])
            if info != 0:
                raise SolverError("tridiagonal solve failed")
            self._lu[dt] = lu
        x, info = dgttrs(*lu, rhs)
        if info != 0:  # pragma: no cover - dgttrs only rejects malformed arguments
            raise SolverError("tridiagonal solve failed")
        return x

    def explicit_source(self, t, f_slice, phi, s, bounds):
        """Reaction plus contagion source at the clamped slice value.

        Unclamped, it records the slice's range in ``envelope`` so the caller
        can tell whether a clamp would have changed anything.
        """
        if bounds is None:
            self.envelope.append((t, float(f_slice.min()), float(f_slice.max())))
        v, hits = _clamp(f_slice, t, bounds)
        self.clamp_hits += hits
        beta = self.coef.beta
        return (phi * v + v ** (1.0 - beta) * s) / beta


def step_slice(f_now: np.ndarray, t: float, dt: float, state: DefaultState,
               children_now: Mapping[int, np.ndarray], children_next: Mapping[int, np.ndarray],
               spec: ModelSpec, grid: GridSpec, bounds: TruncationBounds | None = None,
               workspace: _StepWorkspace | None = None) -> np.ndarray:
    """Advance one horizon slice by dt with the IMEX theta = 1/2 scheme.

    ``children_now``/``children_next`` hold the child-state slices at t and
    t + dt.  A zero dt returns the slice unchanged.
    """
    if dt == 0.0:
        return f_now.copy()
    ws = workspace or _StepWorkspace(state, spec, grid)
    if np.any(f_now <= 0) and bounds is None:
        raise SolverError("non-positive slice value with the clamp disabled")

    phi_now, nu_now, s_now = ws.terms(f_now, children_now)
    op_now = ws.operator(nu_now)
    src_now = ws.explicit_source(t, f_now, phi_now, s_now, bounds)

    expl = f_now + 0.5 * dt * _apply_operator(*op_now, f_now)
    f_next = ws.cn_solve(op_now, expl + dt * src_now, dt)

    for _ in range(_INNER_SWEEPS):
        phi_next, nu_next, s_next = ws.terms(f_next, children_next)
        src_next = ws.explicit_source(t + dt, f_next, phi_next, s_next, bounds)
        f_new = ws.cn_solve(ws.operator(nu_next), expl + 0.5 * dt * (src_now + src_next), dt)
        change = float(np.max(np.abs(f_new - f_next)) / np.max(np.abs(f_next)))
        f_next = f_new
        if change < _INNER_TOL:
            break
    if np.any(~np.isfinite(f_next)):
        raise SolverError(f"slice blow-up at t={t:.6g} in state {state}")
    return f_next


# ---------------------------------------------------------------------------
# A-priori bounds from realised control statistics
# ---------------------------------------------------------------------------


def _empty_stats(n: int) -> dict:
    return {"max_abs_theta": np.zeros(n), "max_abs_h": np.zeros(n), "min_one_ph": np.ones(n),
            "max_one_ph": np.ones(n), "phi_min": np.inf, "phi_max": -np.inf,
            "source_sum_max": 0.0}


def _fold_stats(stats: dict, alive: list, hhat, theta, phi, s) -> dict:
    """Fold the controls, reaction and source sum of one or more slices into ``stats``."""
    axes = tuple(range(hhat.ndim - 1))
    stats["max_abs_theta"] = np.maximum(stats["max_abs_theta"], np.max(np.abs(theta), axis=axes))
    if alive:
        h = hhat[..., alive]
        stats["max_abs_h"][alive] = np.maximum(stats["max_abs_h"][alive], np.max(np.abs(h), axis=axes))
        stats["min_one_ph"][alive] = np.minimum(stats["min_one_ph"][alive], np.min(1.0 + h, axis=axes))
        stats["max_one_ph"][alive] = np.maximum(stats["max_one_ph"][alive], np.max(1.0 + h, axis=axes))
    stats["phi_min"] = min(stats["phi_min"], float(phi.min()))
    stats["phi_max"] = max(stats["phi_max"], float(phi.max()))
    stats["source_sum_max"] = max(stats["source_sum_max"], float(s.max()))
    return stats


def control_stats_from_policy(policy: PolicyField, state: DefaultState, spec: ModelSpec,
                              fields: Mapping[str, SolutionField]) -> dict:
    """Realised control statistics of a finished policy, as consumed by truncation_bounds."""
    alive = list(state.alive)
    coef = Coefficients(spec, state, policy.grid.y_nodes())
    phi, _ = coef.phi_nu(policy.hhat, policy.theta)
    s = coef.source_sum(policy.hhat, {i: fields[state.flip(i).bitstring].f for i in alive})
    return _fold_stats(_empty_stats(spec.n), alive, policy.hhat, policy.theta, phi, s)


def truncation_bounds(state: DefaultState, children_bounds: Mapping[str, TruncationBounds],
                      spec: ModelSpec, grid: GridSpec, control_stats) -> TruncationBounds:
    """Solution bounds for one state, given bounds of every child state.

    ``k_under = f(0) exp(T (m_lo ^ 0) / beta)`` and ``k_bar(t) = f(0)
    exp((m_hi / beta + theta_rate) t)`` with theta_rate the clamped-source
    growth rate at k_under.  The usable reaction envelope [m_lo, m_hi] comes
    from the realised reaction field (for q in (0, 1) the upper bound is 0,
    since phi < 0 there); the coarser sup-norm envelope of the control
    family is carried alongside for reporting.  ``control_stats`` is the
    dict produced by :func:`control_stats_from_policy` or by the marching
    workspace (``_StepWorkspace.stats``).
    """
    for i in state.alive:
        key = state.flip(i).bitstring
        if key not in children_bounds:
            raise SolverError(f"missing child bounds {key} for state {state}")

    q = spec.q
    beta = spec.beta
    T = spec.pref.T
    zmask = 1.0 - state.indicator()
    sup_lam = np.max(spec.alive_intensity(grid.y_nodes(), state), axis=0)
    sup_theta_sq = float(np.sum(control_stats["max_abs_theta"] ** 2))
    sup_h = control_stats["max_abs_h"] * zmask
    sup_one_ph = control_stats["max_one_ph"] * zmask
    m_lo_norms, m_hi_norms = _phi_bounds(sup_theta_sq, sup_lam, sup_h, sup_one_ph, q,
                                         spec.market.r)

    # usable envelope: realised phi extremes (inside the sup-norm envelope) with a
    # hair of inflation so the march these bounds were fitted to stays strictly
    # inside them
    pad = 1e-9
    m_lo = min(control_stats["phi_min"], m_hi_norms) - pad * (1.0 + abs(control_stats["phi_min"]))
    m_hi = control_stats["phi_max"] + pad * (1.0 + abs(control_stats["phi_max"]))
    if 0.0 < q < 1.0:
        m_hi = 0.0  # phi < 0 on this branch; zero is the tight usable cap
    m_lo = max(m_lo, m_lo_norms)

    f0 = spec.f0
    k_under = f0 * np.exp(min(m_lo, 0.0) * T / beta)
    source_cap = control_stats["source_sum_max"] * (1.0 + pad)
    theta_rate = source_cap * k_under ** (-beta) / beta

    return TruncationBounds(state=state, k_under=float(k_under), m_lo=float(m_lo),
                            m_hi=float(m_hi), theta_rate=float(theta_rate), f0=float(f0),
                            beta=float(beta), T=float(T),
                            m_lo_norms=float(m_lo_norms), m_hi_norms=float(m_hi_norms))


# ---------------------------------------------------------------------------
# Full recursive solve
# ---------------------------------------------------------------------------


def _march_state(state, spec, grid, fields, bounds):
    """Time-march one state, children already in ``fields``; returns (f array, workspace)."""
    t_nodes = grid.t_nodes(spec.pref.T)
    f = np.empty((grid.n_t + 1, grid.n_y))
    f[0] = spec.f0
    ws = _StepWorkspace(state, spec, grid)
    child_fields = {i: fields[state.flip(i).bitstring] for i in state.alive}
    for k in range(grid.n_t):
        children_now = {i: cf.f[k] for i, cf in child_fields.items()}
        children_next = {i: cf.f[k + 1] for i, cf in child_fields.items()}
        dt = t_nodes[k + 1] - t_nodes[k]
        f[k + 1] = step_slice(f[k], t_nodes[k], dt, state, children_now, children_next,
                              spec, grid, bounds=bounds, workspace=ws)
    # realised control stats must cover the final slice too
    ws.terms(f[-1], {i: cf.f[-1] for i, cf in child_fields.items()})
    return f, ws


def _clamp_is_identity(envelope, bounds: TruncationBounds) -> bool:
    """True when ``_clamp`` would return every recorded slice unchanged.

    ``k_bar`` is evaluated per recorded ``t`` as a scalar, exactly as
    ``_clamp`` evaluates it; a NaN range fails the comparisons.
    """
    return all(lo >= bounds.k_under and hi <= bounds.k_bar(t) for t, lo, hi in envelope)


def solve_recursive_system(spec: ModelSpec, grid: GridSpec, *,
                           validate: bool = True) -> SolveResult:
    """Solve every default state in descending default count and extract policies.

    Each state is marched once without the clamp; that bootstrap pass yields
    the realised control statistics that fix the truncation bounds.  With
    clamping enabled the state is marched again with the clamped source only
    when a slice value the bootstrap fed to the source lay outside those
    bounds; otherwise the clamped march would repeat the bootstrap bit for
    bit, and the report marks the state ``clamp_pass_skipped``.  The report
    also records, per state, the control-solve residual, clamp activity and
    the worst signed distance of the solution to its bounds (nonnegative
    margin means the bounds hold).
    """
    if validate:
        report = validate_spec(spec, grid.y_nodes())
        if not report.ok:
            raise ValueError("model validation failed:\n" + str(report))

    t_nodes = grid.t_nodes(spec.pref.T)
    fields: dict[str, SolutionField] = {}
    policies: dict[str, PolicyField] = {}
    bounds: dict[str, TruncationBounds] = {}
    report_rows: dict[str, dict] = {}

    for state in states_by_cardinality(spec.n):
        started = time.perf_counter()
        f_a, ws_a = _march_state(state, spec, grid, fields, None)
        state_bounds = truncation_bounds(state, bounds, spec, grid, ws_a.stats)
        skipped = grid.clamp_enabled and _clamp_is_identity(ws_a.envelope, state_bounds)
        if grid.clamp_enabled and not skipped:
            f_fin, ws_fin = _march_state(state, spec, grid, fields, state_bounds)
        else:
            f_fin, ws_fin = f_a, ws_a
        df = np.stack([spatial_gradient(f_fin[k], grid.dy) for k in range(grid.n_t + 1)])
        margin_lo = float(np.min(f_fin - state_bounds.k_under))
        margin_hi = float(np.min(state_bounds.k_bar(t_nodes)[:, None] - f_fin))
        row = {
            "elapsed": time.perf_counter() - started,
            "resid_max": ws_fin.resid_max,
            "newton_iters_max": ws_fin.newton_iters,
            "clamp_hits": ws_fin.clamp_hits,
            "clamp_pass_skipped": skipped,
            "bound_margin_lo": margin_lo,
            "bound_margin_hi": margin_hi,
            "bound_violation": min(margin_lo, margin_hi) < -_BOUND_SLACK,
        }
        if row["bound_violation"] and not grid.clamp_enabled:
            raise SolverError(
                f"solution escaped its a-priori bounds in state {state}: "
                f"margins ({margin_lo:.3e}, {margin_hi:.3e})")
        fields[state.bitstring] = SolutionField(state=state, grid=grid, t_nodes=t_nodes,
                                                f=f_fin, df=df, beta=spec.beta)
        bounds[state.bitstring] = state_bounds
        report_rows[state.bitstring] = row

    for state in states_by_cardinality(spec.n):
        pol = strategy.build_policy(fields, state, spec)
        policies[state.bitstring] = pol
        report_rows[state.bitstring]["policy_resid_max"] = pol.residual_max
        report_rows[state.bitstring]["hedge_gap"] = pol.hedge_gap
        report_rows[state.bitstring]["ahat_max"] = float(np.max(np.abs(pol.ahat)))

    return SolveResult(fields=fields, policies=policies, bounds=bounds, report=report_rows)
