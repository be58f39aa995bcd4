"""Dual controls (hhat, ahat) and primal feedback controls (pi, consumption).

At each grid node the jump loading hhat of every alive name with positive
default intensity solves the stationarity system

    J(h)^T sigma(y) = Lambda(h)  restricted to alive columns,

where theta is tied to h by the admissibility constraint, J_i = 1 -
(1+h_i)^{q-1} g(.,zbar^i)/g(.,z) and Lambda = (1-q) theta^T + rho (D_y g)^T
sigma0 / g.  Alive names with zero intensity have no jump exposure; their
portfolio weight comes from the diffusion matching alone (this is how the
classical Merton fraction, which may exceed 1, is recovered in the
default-free limit).  Defaulted names carry h = 0 and zero weight.

Roots are followed by continuation in time, inside the PDE march: every
control solve of a state warm-starts from that state's previous one, seeded
with h = 0 at zero horizon, which picks the branch that is continuous in t
when the scalar equations admit several crossings.  The march writes the
controls it solves on each final slice into the policy table of its
:class:`SolveResult`, and :func:`build_policy` fills the rest of the table
for the whole stack without solving again.  The slice solver takes a stack
of states and solves each state as it would alone.  A point query is the
slice solve of the stack ``(state,)`` at one node, whose ``f``, ``df`` and
children it reads from the result with :func:`fields.lookup`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .dual import H_FLOOR, Coefficients
from .fields import SolveResult, lookup, policy_channel
from .model import DefaultState, ModelSpec, all_states

__all__ = [
    "SolverError",
    "solve_hhat",
    "solve_hhat_slice",
    "ahat_slice",
    "build_policy",
    "pi_hat",
    "value_function",
]

_LAMBDA_TOL = 1e-12
_RESID_TOL = 1e-10
_NEWTON_TOL = 1e-13
_MAX_ITER = 200
_H_MAX_START = 8.0
_H_MAX_CAP = 512.0


class SolverError(RuntimeError):
    """Raised when a pointwise control solve or a PDE step fails to converge."""


# ---------------------------------------------------------------------------
# Slice-level solve (vectorised over space nodes)
# ---------------------------------------------------------------------------


def solve_hhat_slice(y_nodes: np.ndarray, states: Sequence[DefaultState], spec: ModelSpec,
                     f_slice: np.ndarray, df_slice: np.ndarray,
                     children: Mapping[int, np.ndarray],
                     h_init: np.ndarray | None = None, coef: Coefficients | None = None,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve the feedback system at every node of one horizon slice of S states.

    ``f_slice`` and ``df_slice`` are (S, n_y).  ``children[i]`` is the
    (S, n_y) f-slice of the states where name i has additionally defaulted,
    required when name i is alive with positive intensity in some state (any
    positive value where name i has defaulted).  ``df_slice`` is not read
    when rho = 0 and may be None.  ``coef`` is the stack's coefficient kernel
    on ``y_nodes``, built here when not supplied.

    Returns ``(hhat, theta, pi, newton_iters, residual_max)``: arrays of
    shape (S, n_y, n), then each state's iteration count and residual as (S,)
    arrays.  Each state gets the values it would get alone.
    """
    if coef is None:
        coef = Coefficients(spec, states, y_nodes)
    lam = coef.lam
    grad_term = coef.grad_term(f_slice, df_slice)

    child = np.ones(lam.shape)   # child[..., i]: f of the state where name i also defaulted
    for i in coef.alive_names:
        if i in children:
            child[..., i] = children[i]
        elif np.any(lam[..., i] > _LAMBDA_TOL):
            s = int(np.argmax((lam[..., i] > _LAMBDA_TOL).any(axis=-1)))
            raise SolverError(f"missing child field for alive name {i} in state "
                              f"{coef.states[s]}")

    if coef.diagonal:
        return _solve_slice_diagonal(coef, child, f_slice, grad_term, h_init)
    return _solve_slice_general(coef, (child / f_slice[..., None]) ** coef.beta, grad_term,
                                h_init)


class _JumpEntries:
    """What the diagonal solve derives from a kernel alone, built once per kernel.

    The entries solved through the jump FOC (alive names with positive
    intensity) are addressed by their flat index ``idx`` into the
    (..., n_y, n) arrays, in increasing order, so each state's entries are
    one segment that starts at ``starts``; ``sd``, ``xiv``, ``lamv`` and
    ``lam_sd`` are the kernel's values there.  The residual at the first
    bracket end h = ``_H_MAX_START`` reuses its power and linear part.
    """

    lo = -1.0 + H_FLOOR              # the bracket every entry starts from
    hi = _H_MAX_START
    x_lo, x_hi = lo + 1e-12, hi - 1e-12   # the Newton start is clipped into it

    def __init__(self, coef):
        q = coef.q
        alive = coef.alive > 0
        jumpy = alive & (coef.lam > _LAMBDA_TOL)
        riskfree = alive & ~jumpy                    # defaultless names: diffusion matching only
        self.riskfree = riskfree if riskfree.any() else None
        self.idx = idx = np.flatnonzero(jumpy)
        self.block = coef.sig.size                   # entries of one state's (n_y, n) block
        self.fidx = idx // coef.lam.shape[-1]        # the entry's node in the (..., n_y) slices
        node = idx % coef.sig.size                   # the entry of the y-only arrays
        self.sd = coef.sig.reshape(-1)[node]
        self.xiv = coef.xi.reshape(-1)[node]
        self.lamv = coef.lam.reshape(-1)[idx]
        self.lam_sd = self.lamv / self.sd
        hi = np.full(idx.shape, _H_MAX_START)
        self.pow_hi = (1.0 + hi) ** (q - 1.0)
        self.lin_hi = (1.0 - q) * (self.xiv - self.lamv * hi / self.sd)
        n_states = len(coef.states)
        owner = idx // self.block
        self.starts = np.searchsorted(owner, np.arange(n_states))
        self.has = np.bincount(owner, minlength=n_states) > 0

    def per_state(self, values: np.ndarray) -> np.ndarray:
        """Each state's largest entry of ``values`` (0 for a state with no entries)."""
        out = np.zeros(len(self.has), dtype=values.dtype)
        out[self.has] = np.maximum.reduceat(values, self.starts[self.has])
        return out


def _solve_slice_diagonal(coef, child, f_slice, grad_term, h_init):
    """Decoupled per-name scalar roots: safeguarded Newton inside a sign-change bracket.

    Every node and name iterates on its own (a converged entry is frozen),
    so a stack of states solves each state exactly as it would alone.  The
    entries solved are addressed by their flat index into the (..., n_y, n)
    arrays, and :class:`_JumpEntries` holds what the kernel fixes about them.
    The residual is evaluated in place over every entry: a frozen entry's x
    does not move, so evaluating it again gives its residual and its bracket
    ends again.
    """
    q, one_q = coef.q, 1.0 - coef.q
    e = coef.memo.get("jump_entries")
    if e is None:
        e = coef.memo["jump_entries"] = _JumpEntries(coef)

    hhat = np.zeros(coef.lam.shape)
    pi = np.zeros(coef.lam.shape)
    if e.riskfree is not None:
        free = coef.diffusion_row(coef.xi, grad_term) / coef.sig
        pi[e.riskfree] = free[e.riskfree]
    if not e.idx.size:
        n_states = len(coef.states)
        return hhat, coef.theta_from_h(hhat), pi, np.zeros(n_states, int), np.zeros(n_states)

    idx, sd = e.idx, e.sd
    ratv = (child.take(idx) / f_slice.take(e.fidx)) ** coef.beta
    gv = grad_term.take(idx) if coef.rho != 0.0 else None   # zero when rho = 0

    def resid(h, r):
        """Write sd (1 - (1+h)^{q-1} ratv) - (1-q)(xi - lam h / sd) - g into ``r``.

        Returns 1 + h and the bracket 1 - (1+h)^{q-1} ratv, the weight pi at h.
        """
        one_h = 1.0 + h
        jump = one_h ** (q - 1.0)
        jump *= ratv
        np.subtract(1.0, jump, out=jump)
        np.multiply(sd, jump, out=r)
        part = e.lamv * h
        part /= sd
        np.subtract(e.xiv, part, out=part)
        part *= one_q
        r -= part
        if gv is not None:
            r -= gv
        return one_h, jump

    jump = e.pow_hi * ratv   # the residual at hi = _H_MAX_START
    np.subtract(1.0, jump, out=jump)
    r_hi = np.multiply(sd, jump)
    r_hi -= e.lin_hi
    if gv is not None:
        r_hi -= gv
    hi = e.hi   # one bracket end for all entries, unless a residual there is not positive
    if (r_hi <= 0).any():
        hi = np.full(idx.shape, e.hi)
        while np.any(r_hi <= 0) and hi.max() < _H_MAX_CAP:
            grow = r_hi <= 0
            hi = np.where(grow, np.minimum(hi * 2.0, _H_MAX_CAP), hi)
            resid(hi, r_hi)
        if np.any(r_hi <= 0):
            bad = int(np.argmax(r_hi <= 0))
            raise SolverError(
                f"jump-loading root not bracketed below h={_H_MAX_CAP} in state "
                f"{coef.states[idx[bad] // e.block]} (residual {r_hi[bad]:.3e})")

    x = h_init.take(idx) if h_init is not None else np.zeros(idx.shape)
    np.maximum(x, e.x_lo, out=x)             # np.clip, without its wrapper
    np.minimum(x, e.x_hi if np.isscalar(hi) else hi - 1e-12, out=x)
    r = np.empty(idx.shape)
    one_h, jump = resid(x, r)
    lo = np.where(r < 0, x, e.lo)
    hi = np.where(r > 0, x, hi)
    converged = np.abs(r) < _NEWTON_TOL
    taken = np.zeros(idx.shape, dtype=int)   # Newton updates each entry needed
    for _ in range(_MAX_ITER):
        if converged.all():
            break
        active = ~converged
        taken += active
        step = one_h ** (q - 2.0)            # the derivative (1-q)(sd (1+x)^{q-2} ratv + lam/sd)
        np.multiply(sd, step, out=step)
        step *= ratv
        step += e.lam_sd
        step *= one_q
        np.divide(r, step, out=step)
        x_new = np.subtract(x, step, out=step)
        outside = (x_new <= lo) | (x_new >= hi)
        if outside.any():
            np.putmask(x_new, outside, 0.5 * (lo + hi))
        np.putmask(x, active, x_new)
        one_h, jump = resid(x, r)
        np.putmask(lo, r < 0, x)
        np.putmask(hi, r > 0, x)
        converged |= (np.abs(r) < _NEWTON_TOL) | (hi - lo < 1e-15)
    np.abs(r, out=r)   # r is resid(x) at every entry's final x
    # a state alone stops on the pass that finds all of its entries converged
    steps = np.minimum(taken + 1, _MAX_ITER)
    worst, iters = e.per_state(r), e.per_state(steps)
    if np.greater(worst, _RESID_TOL).any():
        bad = int(np.argmax(worst > _RESID_TOL))
        raise SolverError(
            f"jump-loading solve stalled in state {coef.states[bad]}: residual "
            f"{worst[bad]:.3e} after {iters[bad]} iterations")
    np.put(hhat, idx, x)
    np.put(pi, idx, jump)
    return hhat, coef.theta_from_h(hhat), pi, iters, worst


def _solve_slice_general(coef, ratio, grad_term, h_init):
    """Damped Newton on the coupled system (full sigma), every (state, node) row at once.

    A row's unknown u_i is h_i for an alive name with positive intensity,
    pi_i for an alive defaultless name and 0 for a defaulted name, which an
    identity row of the Jacobian keeps there.  Its equations are the alive
    columns of pi^T sigma = Lambda with pi_i = J_i(h_i) substituted for jump
    names.  A row starts from ``h_init`` (0 when not given), runs its own line
    search of up to 60 halvings and stops on its own, so a stack of states
    solves each state as it would alone.  One stacked ``np.linalg.solve``
    takes the Newton steps of all rows still iterating.
    """
    q, one_q = coef.q, 1.0 - coef.q
    shape, n = coef.lam.shape, coef.lam.shape[-1]

    def rows(a, tail=(n,)):
        return np.broadcast_to(a, shape[:-1] + tail).reshape((-1,) + tail)

    lam, ratio, grad, xi, alive = (rows(a) for a in (coef.lam, ratio, grad_term, coef.xi,
                                                     coef.alive > 0))
    sigma, s_inv = rows(coef.sig, (n, n)), rows(np.linalg.inv(coef.sig), (n, n))
    jumpy = alive & (lam > _LAMBDA_TOL)
    free = alive & ~jumpy

    def assemble(u, at):
        h = np.where(jumpy[at], u, 0.0)
        pi = np.where(jumpy[at], 1.0 - (1.0 + h) ** (q - 1.0) * ratio[at],
                      np.where(free[at], u, 0.0))
        th = xi[at] - (s_inv[at] @ (lam[at] * h)[..., None])[..., 0]
        res = (pi[:, None, :] @ sigma[at])[:, 0] - (one_q * th + grad[at])
        return h, pi, th, np.where(alive[at], res, 0.0)

    def jacobian(u, at):
        # J[j, i]: pi_i(h_i) enters column j through sigma[i, j]; theta through s^{-1}
        dpi = one_q * (1.0 + np.where(jumpy[at], u, 0.0)) ** (q - 2.0) * ratio[at]
        sig_t = sigma[at].swapaxes(-1, -2)
        J = np.where(jumpy[at][:, None, :],
                     dpi[:, None, :] * sig_t + one_q * lam[at][:, None, :] * s_inv[at],
                     np.where(free[at][:, None, :], sig_t, 0.0))
        J = np.where(alive[at][:, :, None], J, 0.0)
        J[:, np.arange(n), np.arange(n)] += ~alive[at]
        return J

    def place(row):
        s, k = divmod(int(row), shape[-2])
        return f"node {k} (y={coef.y[k]:.4g}) in state {coef.states[s]}"

    u = np.zeros(lam.shape) if h_init is None else np.where(jumpy, rows(h_init), 0.0)
    res = assemble(u, slice(None))[3]
    norm = np.abs(res).max(axis=-1)
    iters = np.zeros(len(u), dtype=int)
    live = np.flatnonzero(norm > _NEWTON_TOL)
    while live.size:
        J = jacobian(u[live], live)
        try:
            step = np.linalg.solve(J, res[live][..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            bad = live[np.argmin(np.abs(np.linalg.det(J)))]
            raise SolverError(f"singular Jacobian at {place(bad)}") from exc
        u0, n0, todo, scale = u[live], norm[live], np.ones(live.size, dtype=bool), 1.0
        for _ in range(60):
            u_try = u0 - scale * step
            test = np.flatnonzero(todo & np.all((1.0 + u_try > H_FLOOR) | ~jumpy[live], axis=-1))
            if test.size:
                res_try = assemble(u_try[test], live[test])[3]
                n_try = np.abs(res_try).max(axis=-1)
                acc = (n_try < n0[test]) | (scale < 1e-8)
                take = test[acc]
                won = live[take]
                u[won], res[won], norm[won] = u_try[take], res_try[acc], n_try[acc]
                todo[take] = False
            if not todo.any():
                break
            scale *= 0.5
        live = live[~todo]
        iters[live] += 1
        live = live[(norm[live] > _NEWTON_TOL) & (iters[live] < _MAX_ITER)]

    h, pi, th, res = assemble(u, slice(None))
    node_res = np.abs(res).max(axis=-1)
    if np.any(node_res > _RESID_TOL):
        bad = int(np.argmax(node_res > _RESID_TOL))
        raise SolverError(f"coupled control solve failed at {place(bad)}: "
                          f"residual {node_res[bad]:.3e}")
    return (h.reshape(shape), th.reshape(shape), pi.reshape(shape),
            iters.reshape(shape[:-1]).max(axis=-1), node_res.reshape(shape[:-1]).max(axis=-1))


def ahat_slice(spec: ModelSpec, f_slice: np.ndarray, df_slice: np.ndarray) -> np.ndarray:
    """ahat = -sqrt(1-rho^2)/(1-q) beta |sigma0| D_y f / f per node: the loading on Bbar."""
    rho = spec.factor.rho
    scale = -np.sqrt(1.0 - rho * rho) / (1.0 - spec.q) * spec.beta
    return scale * (df_slice / f_slice) * spec.factor.vol


# ---------------------------------------------------------------------------
# Full-grid policy extraction
# ---------------------------------------------------------------------------


def build_policy(result: SolveResult, spec: ModelSpec) -> None:
    """Complete the policy table of every state from its solution, in place.

    The march wrote ``hhat``, ``theta`` and ``pi`` into ``result.policy``; the
    rest of the policy (``ahat``, the consumption multiplier and the hedge
    gap) follows from ``f`` and ``df``.  Nothing is solved here.  Each state
    is filled in turn, so the temporaries stay one state's size.
    """
    n, y_nodes = spec.n, result.grid.y_nodes()
    k2q = spec.pref.K2 ** (1.0 - spec.q)
    for state in all_states(n):
        b = state.bits
        f, df, table = result.f[b], result.df[b], result.policy[b]
        table[..., policy_channel("ahat", n)] = ahat_slice(spec, f, df)
        table[..., policy_channel("c_mult", n)] = k2q / f**spec.beta
        # unmatched diffusion loading on dead names' Brownian motions (replication
        # hypothesis diagnostic; the alive columns vanish by construction)
        result.hedge_gap[b] = Coefficients(spec, (state,), y_nodes).hedge_gap(
            table[..., policy_channel("pi", n)], table[..., policy_channel("theta", n)], f, df)


# ---------------------------------------------------------------------------
# Point queries (trading-clock time t; fields are read at horizon T - t)
# ---------------------------------------------------------------------------


def _point_controls(t: float, y: float, state: DefaultState, result: SolveResult,
                    spec: ModelSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(hhat, theta, pi)`` at one point: the slice solve of ``(state,)`` at the node y."""
    u = spec.pref.T - t
    if u < -1e-12:
        raise ValueError(f"clock time {t} exceeds the horizon {spec.pref.T}")
    u = max(u, 0.0)
    t_nodes, y_nodes = result.t_nodes, result.grid.y_nodes()
    rows = np.array([state.bits] + [state.flip(i).bits for i in state.alive])
    f_val, *child_vals = lookup(result.f, t_nodes, y_nodes, u, rows, y).reshape(-1, 1, 1)
    df_val = lookup(result.df, t_nodes, y_nodes, u, state.bits, y).reshape(1, 1)
    hhat, theta, pi, _, _ = solve_hhat_slice(np.array([y]), (state,), spec, f_val, df_val,
                                             dict(zip(state.alive, child_vals)))
    return hhat[0, 0], theta[0, 0], pi[0, 0]


def solve_hhat(t: float, y: float, state: DefaultState, result: SolveResult,
               spec: ModelSpec) -> np.ndarray:
    """Jump loadings hhat(t, y, z) at one point (zeros for defaulted names)."""
    return _point_controls(t, y, state, result, spec)[0]


def pi_hat(t: float, y: float, state: DefaultState, result: SolveResult,
           spec: ModelSpec) -> np.ndarray:
    """Optimal wealth fractions pi(t, y, z) at one point (zeros for defaulted names).

    A name with positive intensity holds its jump exposure J_i = 1 - (1 +
    hhat_i)^{q-1} (f_child_i / f)^beta at the solved hhat; the diffusion
    matching on the alive columns fixes the weights of alive defaultless names.
    """
    return _point_controls(t, y, state, result, spec)[2]


def value_function(x: float, y: float, state: DefaultState, result: SolveResult,
                   spec: ModelSpec) -> float:
    """Primal value V(x, y, z) = (x^p / p) g(T, y, z)^{1-p}."""
    if x <= 0:
        raise ValueError("wealth must be positive")
    g_val = float(lookup(result.f, result.t_nodes, result.grid.y_nodes(), spec.pref.T,
                         state.bits, y)) ** spec.beta
    p = spec.pref.p
    return (x**p / p) * g_val ** (1.0 - p)
