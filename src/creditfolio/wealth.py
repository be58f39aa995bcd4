"""A feedback policy run on the draws of a market pass: wealth, density and G."""

import numpy as np

from .dual import _sum_names
from .fields import SolveResult, blend_t, interp_y, lookup, policy_channel
from .model import ModelSpec

__all__ = ["PolicyRun"]


def _power_utility(c: np.ndarray, K: float, p: float) -> np.ndarray:
    """(K/p) c^p with the c = 0 limit handled (0 for p > 0, -inf for p < 0)."""
    pos = c > 0
    return np.where(pos, (K / p) * np.where(pos, c, 1.0) ** p, 0.0 if p > 0 else -np.inf)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the names of (n, paths) arrays, one add per name."""
    return _sum_names((a * b).T)


class PolicyRun:
    """One policy on the draws of a pass: the market loop's observer, then its record.

    :func:`creditfolio.sim.simulate_market` calls :meth:`step` after each
    step's draws (the ``policy`` and ``wealth`` laps of its ``StageClock``),
    :meth:`jump` where a sweep places a default, :meth:`observe` at each
    step's end and :meth:`finish` at the end, each on this policy's arrays
    alone, in the order of a pass that runs it alone.  The record: ``spec``,
    ``result``, ``x0``; ``wealth`` (``X_T``, consumption utility
    ``cons_util``, realised ``utility``, ``flagged`` paths, ``x0`` and the
    dual representation's ``X_rep_T`` = x0 (f(0,Y_T,H_T)/f(T,y0,z0))^beta
    (Gamma_T/B_T)^{q-1}); ``density`` (``Gamma_T``, which reads neither
    ``x0`` nor the ``pi`` and ``c_mult`` channels); ``g_probes`` (probe time
    -> samples of G_t) and ``g0`` = g(T, y0, z0); ``grid_exit_count``
    (path-steps off the solved grid, where lookups hold the edge) and its
    share ``grid_exit_frac``; ``kept`` (X, c and Gamma of the kept paths).
    """

    def __init__(self, spec: ModelSpec, result: SolveResult, x0: float, t_mesh: np.ndarray,
                 n_paths: int, keep: int, clock):
        if x0 <= 0:
            raise ValueError("initial wealth must be positive")
        self.spec, self.result, self.x0, self.t_mesh, self.clock = spec, result, x0, t_mesh, clock
        self.t_nodes, self.y_nodes = result.t_nodes, result.grid.y_nodes()
        self.dt, self.keep, self.work = spec.pref.T / (len(t_mesh) - 1), keep, {}
        self.pi, self.flagged = np.empty((spec.n, n_paths)), np.zeros(n_paths, dtype=bool)
        self.X, self.Gamma = np.full(n_paths, float(x0)), np.ones(n_paths)
        self.cons_util, self.u2_first = np.zeros(n_paths), None
        self.dens_int, self.gq_prev = np.zeros(n_paths), np.ones(n_paths)
        self.g_probes, self.grid_exit_count = {}, 0
        self.kept = {key: np.empty((keep, len(t_mesh))) for key in ("X", "c", "Gamma")}
        self.kept["X"][:, 0], self.kept["Gamma"][:, 0] = x0, 1.0

    def g(self, u, bits, Y):
        return lookup(self.result.f, self.t_nodes, self.y_nodes, u, bits, Y) ** self.spec.beta

    def controls(self, t_clock, Y, bits, alive):
        """The policy at (Y, bits): pi, masked by alive, into ``pi``; the other channels back."""
        n, T = self.spec.n, self.spec.pref.T
        vals = interp_y(blend_t(self.result.policy, self.t_nodes, max(T - t_clock, 0.0)),
                        self.y_nodes, bits, Y, self.work).T
        np.multiply(vals[policy_channel("pi", n)], alive, out=self.pi)
        return [vals[policy_channel(c, n)] for c in ("hhat", "theta", "ahat", "c_mult")]

    def step(self, k, Y, bits, alive, lam_now, dW, dBbar):
        """Step k: read the controls, accrue consumption, step X and Gamma on the draws."""
        spec, X, pi, dt = self.spec, self.X, self.pi, self.dt
        self.hh, th, ah, cm = self.controls(self.t_mesh[k], Y, bits, alive)
        self.clock.lap("policy")
        pisig = spec.market.pi_sigma(pi.T, spec.market.sigma(Y)).T
        u2_now = _power_utility(cm * X, spec.pref.K2, spec.pref.p)
        self.cons_util += u2_now * dt
        if self.u2_first is None:
            self.u2_first = u2_now.copy()
        self.kept["c"][:, k] = cm[:self.keep] * X[:self.keep]
        # -X pi' dM contributes the compensator drift +pi'(1-z)lambda between defaults
        r = spec.market.r
        drift = r + (spec.market.mu - r) @ pi + _dot(pi, lam_now) - cm
        X *= np.exp((drift - 0.5 * _dot(pisig, pisig)) * dt + _dot(pisig, dW))
        self.Gamma *= np.exp(-_dot(th, dW) - ah * dBbar
                             - (0.5 * _dot(th, th) + 0.5 * ah * ah + _dot(self.hh, lam_now)) * dt)
        self.clock.lap("wealth")

    def jump(self, winner, hit):
        """Name ``winner`` defaults on paths ``hit``: X jumps by 1 - pi, Gamma by 1 + hhat."""
        jump_factor = 1.0 - self.pi[winner, hit]
        bad = jump_factor <= 1e-12
        if bad.any():
            self.flagged[hit[bad]] = True
        self.X[hit] = self.X[hit] * np.where(bad, 1e-300, np.maximum(jump_factor, 1e-300))
        self.Gamma[hit] = self.Gamma[hit] * (1.0 + self.hh[winner, hit])

    def probe(self, t, Y, bits):
        """A sample of G_t = K2^{1-q} int_0^t (Gamma/B)^q ds + (Gamma_t/B_t)^q g(T-t, Y, H)."""
        q, T = self.spec.q, self.spec.pref.T
        gq = (self.Gamma * np.exp(-self.spec.market.r * t)) ** q
        self.g_probes[float(t)] = (self.spec.pref.K2 ** (1.0 - q) * self.dens_int
                                   + gq * self.g(T - t, bits, Y))

    def observe(self, k, Y, bits, probed):
        """At mesh time k, after step k - 1: grid exits, int_0^t (Gamma/B)^q ds, kept paths."""
        off_grid = (Y < self.y_nodes[0]) | (Y > self.y_nodes[-1])
        self.grid_exit_count += int(np.count_nonzero(off_grid))
        gq_now = (self.Gamma * np.exp(-self.spec.market.r * self.t_mesh[k])) ** self.spec.q
        self.dens_int += 0.5 * (self.gq_prev + gq_now) * self.dt
        self.gq_prev = gq_now
        self.kept["X"][:, k], self.kept["Gamma"][:, k] = self.X[:self.keep], self.Gamma[:self.keep]
        if probed:
            self.probe(self.t_mesh[k], Y, bits)

    def finish(self, Y, bits, alive, y0, z0) -> "PolicyRun":
        """Close the consumption trapezoid and form the record's wealth, density and G_0."""
        X, Gamma, x0, pref = self.X, self.Gamma, self.x0, self.spec.pref
        cm_T = self.controls(pref.T, Y, bits, alive)[-1]
        u2_T = _power_utility(cm_T * X, pref.K2, pref.p)
        self.kept["c"][:, -1] = cm_T[:self.keep] * X[:self.keep]
        # close the trapezoid: running sum used left endpoints only
        self.cons_util += 0.5 * (u2_T - self.u2_first) * self.dt
        self.g0 = float(self.g(pref.T, np.array([z0.bits]), np.array([y0], dtype=float))[0])
        B_T = np.exp(self.spec.market.r * pref.T)
        X_rep = x0 * (self.g(0.0, bits, Y) / self.g0) * (Gamma / B_T) ** (self.spec.q - 1.0)
        self.wealth = {"X_T": X, "cons_util": self.cons_util,
                       "utility": _power_utility(X, pref.K1, pref.p) + self.cons_util,
                       "X_rep_T": X_rep, "flagged": self.flagged, "x0": x0}
        self.density = {"Gamma_T": Gamma}
        self.grid_exit_frac = self.grid_exit_count / float(len(X) * max(len(self.t_mesh) - 1, 1))
        self.work.clear()                    # the policy reads' buffers
        return self
