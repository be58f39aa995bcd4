"""Recursive solver for the default-state system of semi-linear PDEs.

For each default state z the transformed value function f(t, y, z) satisfies

    df/dt = A_z f + phi/beta f + Phi(t, y, f, z),      f(0, y, z) = K1^{(1-q)/beta},

on the factor domain, where A_z is the diffusion-drift generator, phi the
reaction rate and Phi the contagion source built from the children of z, the
states with one more default.

Time stepping is a theta = 1/2 IMEX scheme: the linear operator is treated by
Crank-Nicolson, and the reaction and source, evaluated at the slice values,
are averaged between the two ends of the step.  The end-of-step
source depends on the new slice, so each step runs a small fixed-point sweep
that refreshes the controls, hence the jump loadings (and, when rho != 0,
the gradient coupling), at the new slice until the slice changes by less
than ``_INNER_TOL`` relative, or for at most ``_INNER_SWEEPS`` sweeps.  The
sweep starts from the slice an extrapolated end-of-step source gives (the
extrapolated IMEX predictor of Ascher, Ruuth and Wetton, SIAM J. Numer. Anal.
32(3), 1995): ``3 s_k - 3 s_{k-1} + s_{k-2}`` from the state's own step-start
sources, ``2 s_k - s_{k-1}`` with one earlier step and ``s_k`` at the first,
which is O(dt^3) from the fixed point on a uniform time grid, so most sweeps
stop on their first pass.  A step whose sweep stops at the cap with the
change still above the tolerance counts in ``sweep_cap_hits``.  The grid
is uniform, so every step of a march takes the one ``dt = T / n_t``, and the
Crank-Nicolson matrix is LU-factored once per operator and reused by every
solve with it (for rho = 0, one operator serves every state and step, so a
solve factors once).  The LU routines are LAPACK's ``dgttrf`` and ``dgttrs``,
loaded from scipy's compiled wrapper module ``scipy.linalg._flapack`` without
running ``scipy.linalg``'s package import: that import's array-API layer
imports most of numpy's namespace (``numpy.f2py``, ``numpy.testing``,
``numpy.ma``, ...), which cost every command about 0.15 s and 19 MB.
They are the very objects ``scipy.linalg.lapack`` exports, so every solve is
bitwise the same; when ``scipy.linalg`` is loaded already, or this scipy keeps
the extension elsewhere, the public import supplies them.

All 2^n states march in one wavefront loop (the hyperplane method of Lamport,
"The parallel execution of DO loops", CACM 17(2), 1974).  A state's step k
reads only its children's slices k and k + 1, so a state with d defaults
takes step k at iteration m = k + (n - d): the loop runs n_t + n iterations,
and each one advances every state in range as one stack, with one control
solve, source assembly and Crank-Nicolson pass per step start or sweep (with
rho = 0 the stack shares one ``dgttrs`` call, which takes the stack's
right-hand sides as they are, and one set of ``dgttrf`` factors; with
rho != 0 the operators differ and the solve goes state by state).  Everything
a state owns stays per state: its sweep leaves the stack once it converges,
and its warm starts, source history, stats, envelope and Newton counts are
kept by row, so every state gets the values it would get marched alone.
The rows of every stack are the states' bits, so the march writes
straight into the arrays of the :class:`SolveResult`.  The march hands
``step_slice`` the states of each stack, and the workspace maps them back to
rows; what a set of rows fixes (their selector, a slice when the rows are
consecutive, and their coefficient kernel with the control solver's masks and
gathers) is made the first time the set steps and kept for the rest of the
solve.  A sweep over every state of the stack reads its arrays as views and
folds its stats in place; only a sweep that some states have left gathers
their rows.  The controls each step solves on its starting slice f[k] (its
step-start control solve) are the state's policy there and go into their
channels of the policy table; the last iteration solves the final slice n_t,
and :func:`strategy.build_policy` fills the rest of the table for the whole
stack without solving again.

The truncation bounds, the device of the existence proof that makes the
source Lipschitz, are a check here.  The wavefront marches every state once
and records the range of every slice it gives the source; then, children
first, each state's bounds are fitted from its own control statistics, and a
state with a recorded slice outside ``[k_under, k_bar(t)]`` stops the solve
with a SolverError.  Inside its bounds the truncated source equals the one
the march used, so a solve that returns has solved the truncated system.

Boundary conditions are homogeneous Neumann at both ends of the factor
domain.  This is an approximation (zero flux matches a mean-reverting factor
and preserves spatial constants); enlarge the domain to refine it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import time
from typing import Mapping, Sequence

import numpy as np
import scipy

from . import strategy
from .dual import Coefficients, phi_bounds as _phi_bounds
from .fields import (GridSpec, SolveResult, TruncationBounds, policy_channel, policy_width,
                     spatial_gradient)
from .model import DefaultState, ModelSpec, all_states, states_by_cardinality, validate_spec
from .strategy import SolverError

__all__ = [
    "GridSpec",
    "TruncationBounds",
    "step_slice",
    "truncation_bounds",
    "solve_recursive_system",
]

_BOUND_SLACK = 1e-12
# fixed-point sweeps per step that refresh the controls at the new slice, and the
# relative change below which the sweep stops early
_INNER_SWEEPS = 5
_INNER_TOL = 1e-8
# the predictor's end-of-step source s + a (s - s1) + b (s1 - s2) by history depth
# (0, 1, 2 earlier step-start sources s1, s2): s, 2 s - s1, 3 s - 3 s1 + s2
_EXTRAPOLATION = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, -1.0]])


def _lapack_tridiagonal():
    """LAPACK's ``dgttrf`` and ``dgttrs`` from scipy's compiled wrapper module.

    ``scipy.linalg`` itself is not imported: its array-API layer imports most
    of numpy's namespace.  The public routines are taken when ``scipy.linalg``
    is loaded already or the extension is not where this scipy keeps it.
    """
    spec = None
    if "scipy.linalg" not in sys.modules:
        linalg_dir = os.path.join(os.path.dirname(scipy.__file__), "linalg")
        spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", [linalg_dir])
    if spec is None:
        from scipy.linalg.lapack import dgttrf, dgttrs
        return dgttrf, dgttrs
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.dgttrf, flapack.dgttrs


dgttrf, dgttrs = _lapack_tridiagonal()


# ---------------------------------------------------------------------------
# One IMEX step over a stack of states
# ---------------------------------------------------------------------------


def _banded_operator(diff_coef: float, nu, dy):
    """Banded (sub/diag/super) rows of the generator with Neumann mirror rows.

    A drift ``nu`` with a leading state axis gives rows with that axis too.
    """
    d = diff_coef / dy**2
    adv = nu / (2.0 * dy)
    sub, diag, sup = d - adv, np.full(np.shape(nu), -2.0 * d), d + adv
    sub[..., 0], sup[..., 0] = 0.0, 2.0 * d     # the mirror rows
    sub[..., -1], sup[..., -1] = 2.0 * d, 0.0
    return sub, diag, sup


def _apply_operator(sub, diag, sup, f):
    out = diag * f
    out[..., :-1] += sup[..., :-1] * f[..., 1:]
    out[..., 1:] += sub[..., 1:] * f[..., :-1]
    return out


def _cn_factor(sub, diag, sup, dt):
    """LAPACK ``dgttrf`` factors of the Crank-Nicolson matrix I - dt/2 A."""
    *lu, info = dgttrf(-0.5 * dt * sub[1:], 1.0 - 0.5 * dt * diag, -0.5 * dt * sup[:-1])
    if info != 0:
        raise SolverError("tridiagonal solve failed")
    return lu


def _cn_apply(lu, rhs):
    x, info = dgttrs(*lu, rhs)
    if info != 0:  # pragma: no cover - dgttrs only rejects malformed arguments
        raise SolverError("tridiagonal solve failed")
    return x


class _StepWorkspace:
    """Marching bookkeeping of a stack of states.

    It holds the grid geometry, the stacked coefficient kernel and, per state
    (by row), the control warm starts, the running control stats, the range
    of every slice value the source was given (:meth:`envelope`), Newton
    counts, control residuals and the last two step-start sources
    (:meth:`end_source`).  ``controls`` keeps the last control solve
    asked to be kept, ``tally`` counts the march's work and ``seconds`` times
    its control and Crank-Nicolson solves.

    A sub-stack (the states at some rows) is met again and again, so its
    selector and kernel are kept by rows: a run of consecutive rows selects
    by a slice, whose arrays are views, and the kernel's ``memo`` keeps what
    the control solver derives from it.
    """

    def __init__(self, states: Sequence[DefaultState], spec: ModelSpec, grid: GridSpec):
        self.states = tuple(states)
        self.row = {s.bits: r for r, s in enumerate(self.states)}
        self.spec, self.grid = spec, grid
        self.y = grid.y_nodes()
        self.dy = grid.dy
        self.coef = Coefficients(spec, self.states, self.y)
        self.diff = 0.5 * spec.factor.vol_sq
        self.static_operator = spec.factor.rho == 0.0
        self._op_cache = None
        self._lu = None   # (op, dt, factors) of the last shared operator factored
        self._stacks: dict = {}
        self.controls = None
        self.tally = {"iterations": 0, "largest_batch": 0, "control_solves": 0, "sweeps": 0,
                      "sweep_cap_hits": 0}
        self.seconds = {"control_s": 0.0, "cn_s": 0.0}
        S, n = len(self.states), spec.n
        self.h_warm = np.zeros((S, grid.n_y, n))   # no warm start yet: Newton starts from h = 0
        self.stats = _empty_stats((S, grid.n_y), n)
        # columns (row, t, min, max), one per slice given to the source, in march order
        self._env = np.empty((4, S * (grid.n_t + 1)))
        self._env_size = 0
        self.newton_iters = np.zeros(S, dtype=int)
        self.resid_max = np.zeros(S)
        self._src_1 = np.zeros((S, grid.n_y))   # the step-start sources one and two steps back
        self._src_2 = np.zeros((S, grid.n_y))
        self._depth = np.zeros(S, dtype=int)    # how many of them a row has

    def rows_of(self, states) -> np.ndarray:
        return np.array([self.row[s.bits] for s in states])

    def _stack(self, rows):
        """(selector, kernel) of the states at ``rows``, made once per distinct rows."""
        key = rows.tobytes()
        hit = self._stacks.get(key)
        if hit is None:
            first, size = int(rows[0]), len(rows)
            if np.array_equal(rows, np.arange(first, first + size)):
                sel = slice(first, first + size)
            else:
                sel = rows.copy()
            whole = size == len(self.states) and isinstance(sel, slice)
            hit = self._stacks[key] = (sel, self.coef if whole else self.coef.take(rows))
        return hit

    def terms(self, rows, f_slice, children, keep=False):
        """Controls of the states at ``rows`` on their slices, folded into their stats.

        Returns the reaction rate, drift and source sum; with ``keep`` the
        solve's ``(hhat, theta, pi, iters, residuals)`` go to ``controls``.
        """
        sel, coef = self._stack(rows)
        df_slice = spatial_gradient(f_slice, self.dy) if coef.rho != 0.0 else None
        started = time.perf_counter()
        out = strategy.solve_hhat_slice(self.y, coef.states, self.spec, f_slice, df_slice,
                                        children, h_init=self.h_warm[sel], coef=coef)
        self.seconds["control_s"] += time.perf_counter() - started
        hhat, theta, _, iters, resid = out
        self.tally["control_solves"] += 1
        self.h_warm[sel] = hhat
        _fold(self.newton_iters, sel, np.maximum, iters)
        _fold(self.resid_max, sel, np.maximum, resid)
        phi, nu = coef.phi_nu(hhat, theta)
        s = coef.source_sum(hhat, children)
        _fold_stats(self.stats, sel, hhat, theta, phi, s)
        if keep:
            self.controls = out
        return phi, nu, s

    def operator(self, nu):
        if self.static_operator and self._op_cache is not None:
            return self._op_cache
        op = _banded_operator(self.diff, nu, self.dy)
        if self.static_operator:
            self._op_cache = op
        return op

    def cn_solve(self, op, rhs, dt):
        """Solve the Crank-Nicolson systems (I - dt/2 A) x = rhs for the operator ``op``.

        ``rhs`` holds (S, n_y) slices, all stepped by the float ``dt``.  An
        operator shared by the stack keeps its ``dgttrf`` factors while it
        stays the same object and ``dt`` the same value, and one ``dgttrs``
        call takes the whole stack; per-state operators (rows with a state
        axis) are factored and solved state by state.
        """
        started = time.perf_counter()
        sub, diag, sup = op
        if sub.ndim > 1:
            x = np.stack([_cn_apply(_cn_factor(sub[s], diag[s], sup[s], dt), rhs[s])
                          for s in range(len(rhs))])
        else:
            if self._lu is None or self._lu[0] is not op or self._lu[1] != dt:
                self._lu = (op, dt, _cn_factor(*op, dt))
            x = _cn_apply(self._lu[2], rhs.T).T
        self.seconds["cn_s"] += time.perf_counter() - started
        return x

    def explicit_source(self, rows, t, f_slice, phi, s):
        """Reaction plus contagion source of the states at ``rows`` on their slices.

        It records each slice's range, for its state's :meth:`envelope`, so
        the solve can check the slices against the state's truncation bounds.
        """
        start, end = self._env_size, self._env_size + len(rows)
        if end > self._env.shape[1]:
            self._env = np.concatenate([self._env, np.empty_like(self._env)], axis=1)
        env = self._env[:, start:end]
        env[0], env[1] = rows, t
        f_slice.min(axis=-1, out=env[2])
        f_slice.max(axis=-1, out=env[3])
        self._env_size = end
        beta = self.coef.beta
        return (phi * f_slice + f_slice ** (1.0 - beta) * s) / beta

    def end_source(self, rows, src):
        """Extrapolated end-of-step source of the states at ``rows`` from their step-start ``src``.

        The guess is ``src`` at a row's first step, ``2 src - s1`` at its
        second and ``3 src - 3 s1 + s2`` after, with ``s1`` and ``s2`` the
        row's step-start sources one and two steps back; ``src`` then joins
        the row's history.
        """
        sel, _ = self._stack(rows)
        s1, s2 = self._src_1[sel], self._src_2[sel]
        a, b = _EXTRAPOLATION[self._depth[sel]].T[:, :, None]
        guess = src + a * (src - s1) + b * (s1 - s2)
        self._src_2[sel] = s1
        self._src_1[sel] = src
        self._depth[sel] = np.minimum(self._depth[sel] + 1, 2)
        return guess

    def envelope(self, r):
        """``(t, min, max)`` arrays of every slice row ``r``'s source was given, in march order."""
        rows, t, lo, hi = self._env[:, :self._env_size]
        mine = rows == r
        return t[mine], lo[mine], hi[mine]


def _fold(array, rows, fold, value) -> None:
    """``array[rows] = fold(array[rows], value)``, in place when ``rows`` is a slice."""
    if isinstance(rows, slice):
        view = array[rows]
        fold(view, value, out=view)
    else:
        array[rows] = fold(array[rows], value)


def step_slice(f_now: np.ndarray, t, dt, states: Sequence[DefaultState],
               children_now: Mapping[int, np.ndarray], children_next: Mapping[int, np.ndarray],
               spec: ModelSpec, grid: GridSpec,
               workspace: _StepWorkspace | None = None) -> np.ndarray:
    """Advance one horizon slice of S states by the float ``dt`` with the IMEX theta = 1/2 scheme.

    ``f_now`` is (S, n_y), ``t`` is an (S,) array of the states' times and
    ``children_now``/``children_next`` hold the (S, n_y) child-state slices
    at t and t + dt of every name alive in some state (any positive value
    where name i has defaulted).  One control solve, source assembly and
    Crank-Nicolson solve serve the whole stack; a state whose inner sweep has
    converged leaves it.  The step-start control solve on ``f_now`` gives the
    step's source s_k and the policy at t.  The first Crank-Nicolson solve
    takes the workspace's extrapolated end-of-step source
    (:meth:`_StepWorkspace.end_source`), built from the state's step-start
    sources of its earlier steps in the workspace, which took the same
    ``dt``.  Each sweep then solves the controls on the new slice and
    refreshes it until the slice changes by less than ``_INNER_TOL``
    relative, for at most ``_INNER_SWEEPS`` sweeps.  Each
    state gets the slice it would get alone; a zero ``dt`` returns the slices
    unchanged.  ``workspace`` holds the march's bookkeeping of these states,
    made here when not given, so a lone call starts from ``s_k``.
    """
    ws = workspace if workspace is not None else _StepWorkspace(states, spec, grid)
    rows = ws.rows_of(states)
    if (f_now <= 0).any():
        raise SolverError("non-positive slice value")

    half = 0.5 * dt
    phi_now, nu_now, s_now = ws.terms(rows, f_now, children_now, keep=True)
    op_now = ws.operator(nu_now)
    src_now = ws.explicit_source(rows, t, f_now, phi_now, s_now)

    expl = f_now + half * _apply_operator(*op_now, f_now)
    f_next = ws.cn_solve(op_now, expl + half * (src_now + ws.end_source(rows, src_now)), dt)

    # the states still sweeping: all of them at first, as views of the stack
    live = slice(None)
    for _ in range(_INNER_SWEEPS):
        ws.tally["sweeps"] += 1
        f_it = f_next[live]
        phi_next, nu_next, s_next = ws.terms(rows[live], f_it,
                                             {i: c[live] for i, c in children_next.items()})
        src_next = ws.explicit_source(rows[live], t[live] + dt, f_it, phi_next, s_next)
        f_new = ws.cn_solve(ws.operator(nu_next),
                            expl[live] + half * (src_now[live] + src_next), dt)
        change = np.abs(f_new - f_it).max(axis=-1) / np.abs(f_it).max(axis=-1)
        sweeping = ~(change < _INNER_TOL)
        if isinstance(live, slice):
            f_next, live = f_new, np.flatnonzero(sweeping)
        else:
            f_next[live], live = f_new, live[sweeping]
        if not live.size:
            break
    else:
        ws.tally["sweep_cap_hits"] += live.size
    if not np.isfinite(f_next).all():
        j = int(np.argmax(~np.all(np.isfinite(f_next), axis=-1)))
        raise SolverError(f"slice blow-up at t={t[j]:.6g} in state {states[j]}")
    return f_next


# ---------------------------------------------------------------------------
# A-priori bounds from realised control statistics
# ---------------------------------------------------------------------------


def _empty_stats(shape: tuple, n: int) -> dict:
    """Running elementwise extremes over blocks of ``shape`` (states first, then nodes)."""
    return {"abs_theta": np.zeros(shape + (n,)), "h_max": np.zeros(shape + (n,)),
            "h_min": np.zeros(shape + (n,)), "phi_min": np.full(shape, np.inf),
            "phi_max": np.full(shape, -np.inf), "source_sum_max": np.zeros(shape)}


def _fold_stats(stats: dict, rows, hhat, theta, phi, s) -> None:
    """Fold the controls, reaction and source sum of the states at ``rows`` into ``stats``.

    ``rows`` is an index array or a slice, which folds in place.
    The extremes are kept per node and reduced once, by :func:`_stats_row`;
    the extremes of extremes are the same numbers.  A defaulted name's h is 0,
    which leaves its entries as they start.
    """
    for key, fold, value in (("abs_theta", np.maximum, np.abs(theta)),
                             ("h_max", np.maximum, hhat), ("h_min", np.minimum, hhat),
                             ("phi_min", np.fmin, phi), ("phi_max", np.fmax, phi),
                             ("source_sum_max", np.fmax, s)):
        _fold(stats[key], rows, fold, value)


def _stats_row(stats: dict, r: int) -> dict:
    """One state's control stats, as :func:`truncation_bounds` takes them.

    ``1 + h`` rounds monotonically in h, so its extremes are those of h plus one.
    """
    h_max = stats["h_max"][r].max(axis=0)
    h_min = stats["h_min"][r].min(axis=0)
    return {"max_abs_theta": stats["abs_theta"][r].max(axis=0),
            "max_abs_h": np.maximum(h_max, -h_min), "max_one_ph": 1.0 + h_max,
            "phi_min": float(stats["phi_min"][r].min()),
            "phi_max": float(stats["phi_max"][r].max()),
            "source_sum_max": float(stats["source_sum_max"][r].max())}


def truncation_bounds(state: DefaultState, children_bounds: Mapping[str, TruncationBounds],
                      spec: ModelSpec, grid: GridSpec, control_stats) -> TruncationBounds:
    """Solution bounds for one state, given bounds of every child state.

    ``k_under = f(0) exp(T (m_lo ^ 0) / beta)`` and ``k_bar(t) = f(0)
    exp((m_hi / beta + theta_rate) t)`` with theta_rate the growth rate of the
    source truncated at k_under.  The usable reaction envelope [m_lo, m_hi]
    comes from the realised reaction field (for q in (0, 1) the upper bound is 0,
    since phi < 0 there); the coarser sup-norm envelope of the control
    family is carried alongside for reporting.  ``control_stats`` is one row
    of the marching workspace's ``_StepWorkspace.stats``, through ``_stats_row``.
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


def _march(ws: _StepWorkspace, slices: np.ndarray, policy: np.ndarray, t_nodes, child):
    """Wavefront march of every state of ``ws``, all of them in one loop.

    ``slices`` holds the n_t + 1 slices of every state, row by row (the
    states' bits), then one slice of ones: ``child[i, r]`` is the row of state
    r's child for name i, or S where name i has defaulted, which reads the
    ones.  A state with d of n names defaulted takes its step k at iteration
    k + n - d, when its children hold slices k and k + 1, so iteration m
    steps every state whose k is in range, as one stack.  A state's last
    iteration solves the controls of its final slice n_t.  The controls each
    step solves on its final slice f[k] go into their channels of the
    (S, n_t + 1, n_y, 3n + 2) ``policy`` table.
    """
    n_t = len(t_nodes) - 1
    dt = t_nodes[-1] / n_t   # the grid is uniform: every step is T / n_t
    S = len(ws.states)
    rows = np.arange(S)
    lag = np.array([ws.spec.n - st.cardinality for st in ws.states])
    # (state, slice k) is row state * (n_t + 1) + k of ``slices`` and of the flattened
    # policy table: one gather or scatter per array.  A defaulted name's child stays
    # on the ones slice, S * (n_t + 1), whatever k.
    first, moves = child * (n_t + 1), child < S
    kept = policy.reshape((-1,) + policy.shape[2:])
    stacks = {}   # per set of rows stepping together: their states and child rows
    for m in range(n_t + lag.max() + 1):
        k = m - lag
        go = (k >= 0) & (k < n_t)
        stack = stacks.get(go.tobytes())
        if stack is None:
            r = rows[go]
            stack = stacks[go.tobytes()] = (r, tuple(ws.states[j] for j in r), first[:, r],
                                            moves[:, r])
        r, states, first_r, moves_r = stack
        if r.size:
            kr = k[go]
            at, kids = r * (n_t + 1) + kr, first_r + moves_r * kr
            slices[at + 1] = step_slice(
                slices.take(at, axis=0), t_nodes.take(kr), dt, states,
                dict(enumerate(slices.take(kids, axis=0))),
                dict(enumerate(slices.take(kids + moves_r, axis=0))),
                ws.spec, ws.grid, workspace=ws)
            _keep_controls(ws.controls, kept, at)
        done = rows[k == n_t]
        if done.size:
            kids = first[:, done] + moves[:, done] * n_t
            ws.terms(done, slices[done * (n_t + 1) + n_t], dict(enumerate(slices[kids])),
                     keep=True)
            _keep_controls(ws.controls, kept, done * (n_t + 1) + n_t)
        ws.tally["iterations"] += 1
        ws.tally["largest_batch"] = max(ws.tally["largest_batch"], r.size)


def _keep_controls(controls, kept, at):
    """Write a solve's controls at the flat (state, slice) indices ``at`` of the policy table."""
    hhat, theta, pi, _, _ = controls
    for name, value in (("hhat", hhat), ("theta", theta), ("pi", pi)):
        kept[at, :, policy_channel(name, hhat.shape[-1])] = value


def _check_bounds(envelope, bounds: TruncationBounds) -> None:
    """Raise SolverError when a recorded source slice leaves ``[k_under, k_bar(t)]``.

    ``envelope`` is the ``(t, min, max)`` arrays of :meth:`_StepWorkspace.envelope`.
    ``k_bar`` is evaluated over the recorded ``t`` at once; each value is
    bitwise the scalar ``k_bar(t)`` (a test checks this on the presets'
    envelopes).  A NaN range fails the comparisons.  The message names the
    state, the bound and the worst margin, negative below ``k_under`` or
    above ``k_bar(t)``.
    """
    t, lo, hi = envelope
    k_bar = bounds.k_bar(t)
    if (lo >= bounds.k_under).all() and (hi <= k_bar).all():
        return
    margins = np.stack([lo - bounds.k_under, k_bar - hi])
    side, j = np.unravel_index(np.argmin(margins), margins.shape)
    bound = f"k_under = {bounds.k_under:.6g}" if side == 0 else f"k_bar(t) = {k_bar[j]:.6g}"
    raise SolverError(f"state {bounds.state} leaves its truncation bounds: worst margin "
                      f"{margins[side, j]:.3e} to {bound} at t={t[j]:.6g}")


def solve_recursive_system(spec: ModelSpec, grid: GridSpec, *,
                           validate: bool = True) -> SolveResult:
    """Solve every default state and extract policies.

    All states are marched together, once, by :func:`_march`; the march
    yields the realised control statistics that fix the truncation bounds.
    Then, children first, each state's bounds are fitted and checked against
    every slice value the march gave its source: a state with a value outside
    ``[k_under, k_bar(t)]`` raises SolverError.  The report records, per
    state, the control-solve residual, ``clamp_hits`` (the source slices
    outside the bounds, so 0 in a returned solve) and the worst signed
    distance of the solution to its bounds (nonnegative margin means the
    bounds hold); ``elapsed`` is the wall time of the march, shared by every
    state, plus the state's own bounds and the policy assembly of the whole
    stack.  ``SolveResult.march`` holds the march's counts and stage seconds.
    """
    if validate:
        report = validate_spec(spec, grid.y_nodes())
        if not report.ok:
            raise ValueError("model validation failed:\n" + str(report))

    t_nodes = grid.t_nodes(spec.pref.T)
    states = all_states(spec.n)   # row r of every stack is the state with bits r
    S, n = len(states), spec.n
    ws = _StepWorkspace(states, spec, grid)
    child = np.array([[st.flip(i).bits if i in st.alive else S for st in states]
                      for i in range(n)], dtype=int)
    slices = np.empty((S * (grid.n_t + 1) + 1, grid.n_y))
    slices[-1] = 1.0
    f = slices[:-1].reshape(S, grid.n_t + 1, grid.n_y)
    f[:, 0] = spec.f0
    policy = np.empty(f.shape + (policy_width(n),))

    started = time.perf_counter()
    _march(ws, slices, policy, t_nodes, child)
    seconds = {"march_s": time.perf_counter() - started, "bounds_s": 0.0, "policy_s": 0.0}
    elapsed = np.full(S, seconds["march_s"])
    order = states_by_cardinality(n)   # children first: the row order of the bounds and the report
    bounds: dict[str, TruncationBounds] = {}
    for st in order:
        started = time.perf_counter()
        r = st.bits
        bounds[st.bitstring] = truncation_bounds(st, bounds, spec, grid, _stats_row(ws.stats, r))
        _check_bounds(ws.envelope(r), bounds[st.bitstring])
        spent = time.perf_counter() - started
        elapsed[r] += spent
        seconds["bounds_s"] += spent

    started = time.perf_counter()
    result = SolveResult(grid=grid, t_nodes=t_nodes, f=f, df=spatial_gradient(f, grid.dy),
                         policy=policy, hedge_gap=np.zeros(S), bounds=bounds)
    strategy.build_policy(result, spec)
    seconds["policy_s"] = time.perf_counter() - started
    ahat = result.channel("ahat")
    for st in order:
        r, b = st.bits, bounds[st.bitstring]
        margin_lo = float(np.min(f[r] - b.k_under))
        margin_hi = float(np.min(b.k_bar(t_nodes)[:, None] - f[r]))
        row = {
            "resid_max": float(ws.resid_max[r]),
            "newton_iters_max": int(ws.newton_iters[r]),
            "clamp_hits": 0,   # _check_bounds raised on any slice outside the bounds
            "bound_margin_lo": margin_lo,
            "bound_margin_hi": margin_hi,
            "bound_violation": min(margin_lo, margin_hi) < -_BOUND_SLACK,
            "hedge_gap": float(result.hedge_gap[r]),
            "ahat_max": float(np.max(np.abs(ahat[r]))),
            "elapsed": float(elapsed[r] + seconds["policy_s"]),
        }
        result.report[st.bitstring] = row
    result.march = {**ws.tally, **seconds, **ws.seconds}
    return result
