"""Monte Carlo engine: market paths, wealth under feedback controls, and statistical checks.

Default times use the integrated-intensity crossing construction: every alive
name carries an Exp(1) clock, the running integral of its intensity is
accumulated by the trapezoid rule, a crossing inside a step is placed by
linear interpolation, and after each default the surviving names draw fresh
clocks from the next round.  Simultaneous defaults cannot occur (crossings
are ordered within the step).

Randomness comes from counter-based Philox blocks keyed by the global seed,
one block per time step (normals) and per default round (exponential clocks),
so a path set is a pure function of (spec, seed, n_paths, n_steps), bit-stable
across runs and independent of which optional observers are active.  A step
draws n + 1 normals per path: dW, then dBbar = sigma0 dWbar / |sigma0|, the
one scalar of dWbar that the factor step and the density's ``ahat`` read.

Controls and ``g`` are read in place from the solved result's policy table
and ``f``, which stack every default state indexed by the state's bits, so
one read per step serves all paths with no per-state mask.  Path arrays are
name-major, ``(n, n_paths)``: the read's channel planes are the controls,
each path carries its intensity rows ``(a, b, c)`` and alive mask, gathered
again in the clock sweeps only for paths that default, and short name sums
run along contiguous paths.  The policy is data: a perturbed policy is a
result whose table was edited, and a defaulted name's weight is masked to
zero whatever the table holds.  The Feynman–Kac probes of a call share one
normal stream and one pass over (probe, path) arrays, and a probe's draws do
not depend on its batch; the pass reads the PDE's own nodal terms
(:func:`_fk_table`), scaled by the step, at paths kept in grid-cell units.
A :class:`StageClock` splits each pass's time by stage.

One market loop serves every path check and any number of policies:
:func:`simulate_market` steps the factor and the default clocks, records the
compensator samples and the kept paths, and hands each step's draws to every
policy it is given (:class:`~creditfolio.wealth.PolicyRun`), so policies are
compared on common random numbers.  Each check's report is computed once
from a filled :class:`PathBundle` and run; :func:`check_G_martingale` and
:func:`duality_gap` run a one-policy pass.

Statistical reports compare an estimate to its target within ``TOL_SE``
standard errors plus an explicit ``bias_floor``.  The floor states the weak
order of the discretization (first order in dt for controlled wealth/density
stepping, second order for quadrature-only functionals): on degenerate
configurations where the estimator variance collapses, a raw standard-error
test would demand agreement beyond the scheme's accuracy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
import numpy.random  # noqa: F401  (imported with the module, not on the first block drawn)

from .dual import Coefficients, _sum_names
from .fields import SolveResult, blend_t, interp_cells, lookup
from .model import DefaultState, ModelSpec
from .wealth import PolicyRun

__all__ = [
    "McReport",
    "PathBundle",
    "simulate_market",
    "check_G_martingale",
    "duality_gap",
    "mc_feynman_kac",
]

_KIND_NORMALS = 0
_KIND_CLOCKS = 1
_KIND_FK = 2

TOL_SE = 3.0   # standard errors every statistical check allows beside its bias floor


def _block_rng(seed: int, kind: int, block: int,
               rng: np.random.Generator | None = None) -> np.random.Generator:
    """Philox keyed by ``seed`` at counter (0, 0, kind, block); an earlier result ``rng`` is reset.

    A pass resets one generator: setting a state reads no OS entropy, as building one does.
    """
    rng = np.random.Generator(np.random.Philox(0)) if rng is None else rng
    rng.bit_generator.state = {"bit_generator": "Philox", "state": {
        "counter": np.array([0, 0, kind, block], np.uint64), "key": np.array([seed, 0], np.uint64)},
        "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


class StageClock:
    """Seconds and call counts per stage of a pass, charged lap by lap.

    ``lap(name)`` charges the time since the previous lap (or since the clock
    was made) to stage ``name`` and counts one call, so a pass's stages add
    up to its time.  :meth:`as_dict` is the form ``simulate.json`` keeps.
    """

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._last = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.seconds[name] = self.seconds.get(name, 0.0) + (now - self._last)
        self.calls[name] = self.calls.get(name, 0) + 1
        self._last = now

    def as_dict(self) -> dict[str, dict]:
        return {name: {"s": s, "calls": self.calls[name]} for name, s in self.seconds.items()}


@dataclass
class McReport:
    """One statistical check: pass iff |estimate - target| <= TOL_SE * se + bias_floor."""

    name: str
    estimate: float
    target: float
    se: float
    n_paths: int
    bias_floor: float = 0.0
    extra: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)   # StageClock.as_dict() of the pass

    @property
    def elapsed(self) -> float:
        """Seconds of the pass the check read: the sum of its ``stages``."""
        return sum(stage["s"] for stage in self.stages.values())

    @property
    def tolerance(self) -> float:
        return TOL_SE * self.se + self.bias_floor

    @property
    def passed(self) -> bool:
        return abs(self.estimate - self.target) <= self.tolerance

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = "".join(f", {key} {value:.3g}" for key, value in self.extra.items())
        return (f"[{status}] {self.name}: estimate {self.estimate:.8g} vs target "
                f"{self.target:.8g} (se {self.se:.3g}, tol {self.tolerance:.3g}, "
                f"n={self.n_paths}{extra})")


def reachable_states(spec: ModelSpec, z0: DefaultState) -> list[DefaultState]:
    """Default states reachable from z0 (only names with positive intensity can default)."""
    y_probe = np.linspace(spec.factor.domain_lo, spec.factor.domain_hi, 17)
    seen = {z0.bits}
    frontier = [z0]
    while frontier:
        state = frontier.pop()
        lam = spec.intensity(y_probe, state)
        for i in state.alive:
            if np.max(lam[:, i]) > 1e-12:
                child = state.flip(i)
                if child.bits not in seen:
                    seen.add(child.bits)
                    frontier.append(child)
    return [DefaultState(spec.n, b) for b in sorted(seen)]


def _mean_se(samples: np.ndarray) -> tuple[float, float]:
    m = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / np.sqrt(len(samples))) if len(samples) > 1 else 0.0
    return m, se


@dataclass
class PathBundle:
    """Trajectories of (Y, H) from one pass, and the records of the policies it ran.

    The first six fields are the pass's inputs, the rest its outputs.  Full
    histories cover the first ``keep`` paths, terminal and probe summaries
    all; ``runs`` holds one :class:`PolicyRun` per policy, in input order.
    """

    spec: ModelSpec
    n_paths: int
    n_steps: int
    seed: int
    y0: float
    z0: DefaultState
    t_mesh: np.ndarray
    default_times: np.ndarray    # (n_paths, n) default times, +inf where never defaulted
    final_bits: np.ndarray
    y_terminal: np.ndarray
    reflect_count: int
    compensator: dict            # probe time -> (n_paths, n) samples of M_t^i
    kept: dict                   # Y and H_bits of the kept paths
    runs: list
    stages: dict                 # StageClock.as_dict() of the pass

    @property
    def exit_fraction(self) -> float:
        """Share of path-steps whose factor step left the domain and was reflected."""
        return self.reflect_count / float(self.n_paths * self.n_steps)

    def survival_probability(self) -> float:
        return float(np.mean(self.final_bits == self.z0.bits))


def _compensated(bits: np.ndarray, comp_int: np.ndarray) -> np.ndarray:
    """(n_paths, n) samples of M_t: each name's default indicator minus its integrated intensity."""
    return (np.stack([(bits >> i) & 1 for i in range(len(comp_int))]).astype(float) - comp_int).T


def _check_sizes(n_paths: int, n_steps: int) -> None:
    """ValueError naming ``n_paths`` or ``n_steps`` when it is below 1."""
    for name, value in (("n_paths", n_paths), ("n_steps", n_steps)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def simulate_market(spec: ModelSpec, n_paths: int, n_steps: int, seed: int, *,
                    y0: float = 0.0, z0: DefaultState | None = None,
                    probe_times: Sequence[float] = (), keep: int = 0,
                    policies: Sequence[tuple[ModelSpec, SolveResult, float]] = ()) -> PathBundle:
    """Factor and default-indicator paths under the physical measure, and policies run on them.

    One vectorised forward pass over all paths; memory stays O(n_paths), and
    ``n_paths`` and ``n_steps`` are at least 1.  Records the compensator
    samples at ``probe_times``, which lie in [0, T], and the Y and H
    histories of the first ``keep`` paths.  The market
    (factor, clocks, defaults) reads the seed, T, ``spec.factor`` and
    ``spec.credit`` only, in a fixed order, so its samples are bitwise those
    of a market-only pass.  Each ``(spec, result, x0)`` of ``policies`` runs
    its result's feedback policy from wealth ``x0`` on the same draws; its
    :class:`PolicyRun` lands in ``runs``, in input order, bitwise that of a
    pass given it alone.  Its spec may differ from ``spec`` in p, K1 and K2
    only.  Every per-path, per-name array is name-major, ``(n, n_paths)``;
    the bundle's ``(n_paths, n)`` arrays are transposes.
    """
    _check_sizes(n_paths, n_steps)
    T = spec.pref.T
    for t in probe_times:
        if not 0.0 <= t <= T:
            raise ValueError(f"probe time {t:g} lies outside [0, T] = [0, {T:g}]")
    for pspec, _, _ in policies:
        if pspec is not spec and (pspec.pref.T != T or replace(
                pspec, pref=spec.pref).fingerprint() != spec.fingerprint()):
            raise ValueError("a policy's spec may differ from the pass's in [preference] p, K1, K2")
    clock = StageClock()
    z0 = z0 or DefaultState(spec.n, 0)
    n, dt = spec.n, T / n_steps
    t_mesh = np.linspace(0.0, T, n_steps + 1)
    lo, hi = spec.factor.domain_lo, spec.factor.domain_hi
    keep = min(keep, n_paths)
    runs = [PolicyRun(pspec, result, x0, t_mesh, n_paths, keep, clock)
            for pspec, result, x0 in policies]

    rng = _block_rng(seed, _KIND_CLOCKS, 0)        # one generator, reset to each block
    clock_draws = np.stack([_block_rng(seed, _KIND_CLOCKS, rnd, rng).exponential(
        size=(n_paths, n)).T for rnd in range(n)])   # (round, name, path)

    Y = np.full(n_paths, float(y0))
    bits = np.full(n_paths, z0.bits, dtype=np.int64)
    rounds = np.zeros(n_paths, dtype=np.intp)
    acc = np.zeros((n, n_paths))             # integrated intensity since the last round
    E = clock_draws[0].copy()
    default_times = np.full((n, n_paths), np.inf)
    comp_int = np.zeros((n, n_paths))        # integral of alive intensity since time 0
    reflect_count = 0

    alive_of = np.array([[1.0 - ((b >> i) & 1) for b in range(1 << n)] for i in range(n)])
    # each path's intensity parameters and alive mask, gathered again only where bits change
    abc, alive = spec.credit.params(bits), alive_of.take(bits, axis=1)
    sigma0 = np.asarray(spec.factor.sigma0)[:, None]
    dWB = np.empty((n + 1, n_paths))         # the step's dW over dBbar
    dW, dBbar = dWB[:n], dWB[n]
    rho = spec.factor.rho
    bar_vol = np.sqrt(1.0 - rho**2) * spec.factor.vol   # the factor's loading on dBbar

    comp_out = {}
    probe_idx = {int(round(t / dt)) for t in probe_times}
    kept = {"Y": np.empty((keep, n_steps + 1)), "H_bits": np.empty((keep, n_steps + 1), np.int64)}
    kept["Y"][:, 0], kept["H_bits"][:, 0] = Y[:keep], bits[:keep]
    if 0 in probe_idx:
        comp_out[0.0] = _compensated(bits, comp_int)
        for run in runs:
            run.probe(0.0, Y, bits)
    lam_now = spec.credit.rate(abc, Y) * alive      # carried from step to step
    clock.lap("setup")

    for k in range(n_steps):
        t_now = t_mesh[k]
        draws = _block_rng(seed, _KIND_NORMALS, k, rng).standard_normal((n_paths, n + 1))
        np.multiply(draws.T, np.sqrt(dt), out=dWB)
        clock.lap("rng")
        for run in runs:
            run.step(k, Y, bits, alive, lam_now, dW, dBbar)

        # factor step (Euler-Maruyama), reflected at the domain edge
        Y_next = (Y + spec.factor.drift(Y) * dt + rho * _sum_names((sigma0 * dW).T)
                  + bar_vol * dBbar)
        out_lo = Y_next < lo
        out_hi = Y_next > hi
        reflect_count += int(np.sum(out_lo) + np.sum(out_hi))
        Y_next = np.where(out_lo, 2 * lo - Y_next, Y_next)
        Y_next = np.where(out_hi, 2 * hi - Y_next, Y_next)
        clock.lap("factor")

        lam_next = spec.credit.rate(abc, Y_next) * alive
        clock.lap("intensity")

        # default clocks over [t_now, t_now + dt]; at most n crossings per path.  Sweep 0
        # runs on the whole arrays, where (1 - 0) dt is exactly dt; the paths that cross a
        # clock in it go on alone, each sweep from its last crossing to the step's end
        dA = 0.5 * (lam_now + lam_next) * dt
        crossing = (acc + dA >= E) & (dA > 0)
        hit = defaulted = np.flatnonzero(crossing.any(axis=0))
        # quiet paths take the whole step (not a masked add: it runs row by row over names)
        held = comp_int[:, hit], acc[:, hit]
        comp_int += dA
        acc += dA
        comp_int[:, hit], acc[:, hit] = held
        dA, crossing = dA[:, hit], crossing[:, hit]
        frac_from = np.zeros(hit.size)
        while hit.size:
            frac = np.where(crossing, (E[:, hit] - acc[:, hit]) / np.maximum(dA, 1e-300), np.inf)
            frac = np.clip(frac, 0.0, 1.0)
            winner = np.argmin(frac, axis=0)
            fr = frac[winner, np.arange(hit.size)]
            tau = t_now + (frac_from + fr * (1.0 - frac_from)) * dt
            comp_int[:, hit] += dA * fr
            for run in runs:
                run.jump(winner, hit)
            default_times[winner, hit] = tau
            bits[hit] |= (np.int64(1) << winner.astype(np.int64))
            rows, alive_hit = spec.credit.params(bits[hit]), alive_of.take(bits[hit], axis=1)
            abc[:, :, hit], alive[:, hit] = rows, alive_hit      # carried on
            rounds[hit] = np.minimum(rounds[hit] + 1, n - 1)
            acc[:, hit] = 0.0
            E[:, hit] = clock_draws[rounds[hit], :, hit].T
            frac_from = frac_from + fr * (1.0 - frac_from)
            # the next sweep, over the rest of the step
            Y_a = Y[hit] + frac_from * (Y_next[hit] - Y[hit])
            lam_a = spec.credit.rate(rows, Y_a) * alive_hit
            lam_b = spec.credit.rate(rows, Y_next[hit]) * alive_hit
            dA = 0.5 * (lam_a + lam_b) * ((1.0 - frac_from) * dt)
            crossing = (acc[:, hit] + dA >= E[:, hit]) & (dA > 0)
            any_cross = crossing.any(axis=0)
            done = hit[~any_cross]
            comp_int[:, done] += dA[:, ~any_cross]
            acc[:, done] += dA[:, ~any_cross]
            hit, dA, crossing = hit[any_cross], dA[:, any_cross], crossing[:, any_cross]
            frac_from = frac_from[any_cross]

        Y = Y_next
        # the intensity at Y_next carries to the next step; only paths that defaulted change it
        if defaulted.size:
            lam_next[:, defaulted] = (spec.credit.rate(abc.take(defaulted, axis=-1), Y[defaulted])
                                      * alive.take(defaulted, axis=1))
        lam_now = lam_next
        clock.lap("sweeps")

        probed = k + 1 in probe_idx
        for run in runs:
            run.observe(k + 1, Y, bits, probed)
        kept["Y"][:, k + 1], kept["H_bits"][:, k + 1] = Y[:keep], bits[:keep]
        if probed:
            comp_out[float(t_mesh[k + 1])] = _compensated(bits, comp_int)
        clock.lap("observers")

    runs = [run.finish(Y, bits, alive, y0, z0) for run in runs]
    clock.lap("final")
    return PathBundle(spec, n_paths, n_steps, seed, y0, z0, t_mesh, default_times.T, bits, Y,
                      reflect_count, comp_out, kept, runs, clock.as_dict())


# ---------------------------------------------------------------------------
# Reports and checks
# ---------------------------------------------------------------------------


def _compensator_reports(bundle: PathBundle) -> list[McReport]:
    """Mean of the compensated default indicator M_t^i against 0, per probe time and name."""
    reports = []
    for t_probe, samples in sorted(bundle.compensator.items()):
        for i in range(bundle.spec.n):
            est, se = _mean_se(samples[:, i])
            reports.append(McReport(name=f"compensator name={i+1} t={t_probe:g}",
                                    estimate=est, target=0.0, se=se, n_paths=bundle.n_paths,
                                    stages=bundle.stages))
    return reports


def _g_reports(bundle: PathBundle, run: PolicyRun) -> list[McReport]:
    """E[G_t] at each of the run's G probes against G_0; see :func:`check_G_martingale`."""
    g0 = run.g0
    dt = run.spec.pref.T / bundle.n_steps
    exits = {"grid_exit_frac": run.grid_exit_frac, "exit_fraction": bundle.exit_fraction}
    reports = []
    for t_probe, samples in sorted(run.g_probes.items()):
        est, se = _mean_se(samples)
        reports.append(McReport(
            name=f"G-martingale t={t_probe:g}", estimate=est, target=g0, se=se,
            n_paths=bundle.n_paths, bias_floor=abs(g0) * dt, extra=dict(exits),
            stages=bundle.stages))
    return reports


def _duality_report(bundle: PathBundle, run: PolicyRun) -> McReport:
    """Realised utility of one policy run of the bundle against V(x0, y0, z0).

    See :func:`duality_gap` for the target, the bias floor and the extras.
    """
    from .strategy import value_function

    spec, result, z0 = run.spec, run.result, bundle.z0
    util = run.wealth["utility"]
    ok = ~run.wealth["flagged"] & np.isfinite(util)
    est, se = _mean_se(util[ok])
    target = value_function(run.x0, bundle.y0, z0, result, spec)
    dt = spec.pref.T / bundle.n_steps

    X_T = run.wealth["X_T"][ok]
    X_rep = run.wealth["X_rep_T"][ok]
    lx, lr = np.log(X_T), np.log(X_rep)
    rep_dev = float(np.max(np.abs(lx - lr)))
    if np.std(lx) > 1e-8 and np.std(lr) > 1e-8:
        rep_corr = float(np.corrcoef(lx, lr)[0, 1])
    else:
        rep_corr = float("nan")  # degenerate: terminal wealth is deterministic
    hedge_gap = max(float(result.hedge_gap[s.bits]) for s in reachable_states(spec, z0))
    return McReport(
        name="duality-gap", estimate=est, target=target, se=se, n_paths=int(ok.sum()),
        bias_floor=abs(target) * dt, stages=bundle.stages,
        extra={"rep_log_corr": rep_corr, "rep_log_maxdev": rep_dev,
               "flagged": int((~ok).sum()), "hedge_gap": hedge_gap,
               "grid_exit_frac": run.grid_exit_frac, "exit_fraction": bundle.exit_fraction})


def check_G_martingale(spec: ModelSpec, result: SolveResult, n_paths: int, n_steps: int,
                       seed: int, probes: Sequence[float] = (0.25, 0.5, 1.0), *,
                       y0: float = 0.0, z0: DefaultState | None = None) -> list[McReport]:
    """E[G_t] at each probe against G_0 = g(T, y0, z0).

    G_t = K2^{1-q} int_0^t (Gamma_s/B_s)^q ds + (Gamma_t/B_t)^q g(T-t, Y_t, H_t)
    is a martingale under the optimal dual controls.  One report per probe;
    the bias floor is |G_0| dt (first-order density stepping).
    """
    bundle = simulate_market(spec, n_paths, n_steps, seed, y0=y0, z0=z0,
                             probe_times=tuple(probes), policies=[(spec, result, 1.0)])
    return _g_reports(bundle, bundle.runs[0])


def duality_gap(spec: ModelSpec, result: SolveResult, x0: float, n_paths: int,
                n_steps: int, seed: int, *, y0: float = 0.0,
                z0: DefaultState | None = None) -> McReport:
    """Simulated primal utility under the feedback policy vs the dual value.

    The target is V(x0, y0, z0) = (x0^p / p) g(T, y0, z0)^{1-p}; the bias
    floor is |V| dt (first-order controlled stepping).  Given a result with
    a perturbed policy table the report compares against the same
    optimal-value target, so ``passed`` indicates attainment, not
    correctness of the perturbed run; the utility estimate itself feeds
    optimality-ordering checks.
    """
    bundle = simulate_market(spec, n_paths, n_steps, seed, y0=y0, z0=z0,
                             policies=[(spec, result, x0)])
    return _duality_report(bundle, bundle.runs[0])


def _fk_table(spec: ModelSpec, result: SolveResult, states: list[DefaultState],
              y_nodes: np.ndarray, with_nu: bool) -> np.ndarray:
    """The Feynman–Kac integrand's nodal terms of each state, channel-last.

    ``table[s, k, j]`` holds, at node (k, j) of state s, the reaction
    ``phi / beta`` and the source term ``Phi = f**(1 - beta) / beta * source``
    as the PDE's Crank–Nicolson march applies them at the nodes, then, given
    ``with_nu``, the transformed drift ``nu`` that Euler steps of the factor
    read.  ``Phi`` is formed on contiguous arrays in the order power, divide,
    multiply, so each node holds the bits of the pointwise product there.
    The inputs are rows of the result's stacked ``f`` and policy table.
    """
    beta = spec.beta
    hhat, theta = result.channel("hhat"), result.channel("theta")
    table = np.empty((len(states),) + result.f.shape[1:] + (2 + with_nu,))
    for row, state in enumerate(states):
        b = state.bits
        coef = Coefficients(spec, (state,), y_nodes)
        phi, nu = coef.phi_nu(hhat[b], theta[b])
        source = coef.source_sum(hhat[b], {i: result.f[state.flip(i).bits] for i in state.alive})
        table[row, ..., 0] = phi / beta
        table[row, ..., 1] = result.f[b] ** (1.0 - beta) / beta * source
        if with_nu:
            table[row, ..., 2] = nu
    return table


def mc_feynman_kac(spec: ModelSpec, result: SolveResult,
                   probes: Sequence[tuple[DefaultState, tuple[float, float]]], n_paths: int,
                   n_steps: int = 256, seed: int = 0) -> list[McReport]:
    """Monte Carlo evaluation of the solution representation at a batch of probes.

    For each probe ``(state, (t, y))`` simulates the auxiliary factor under
    the state's transformed drift, accumulates f(t, y) = E[f(0) e^{int
    phi/beta}] + E[int Phi e^{int phi/beta}] and compares against the grid
    value at the probe.  The path reads ``phi/beta`` and ``Phi`` from
    :func:`_fk_table`, interpolated between the nodes where the PDE applies
    them, so the integrand is ``Phi e^{I}``.  The probe time is the
    remaining-horizon coordinate of the solution field.  Exact OU
    transitions, with kappa and the mean u0/kappa read from the factor spec,
    are used when rho = 0 and kappa != 0, Euler steps with the table's
    ``nu`` otherwise; the quadrature bias floor is second order in the step.

    All probes run as one pass over (probe, path) arrays with one normal
    draw per step, the draw a single probe would use, so each report equals
    that of a call with its probe alone.  The steps update a fixed set of
    (probe, path) arrays in place, so the pass allocates nothing per step
    but the small blended slices.  The path runs in grid-cell units
    ``(Y - y0) / dy``, reflected at 0 and ``n_y - 1``, and each blended slice
    is scaled once per probe (``phi/beta`` and ``Phi`` by dt/2, ``nu`` by
    dt/dy), so the read and the trapezoid sums take the cells and the scaled
    channels as they are.  Reports come back in the order of ``probes``;
    each carries the stages of the whole pass.
    """
    _check_sizes(n_paths, n_steps)
    for _, (t, _) in probes:
        if not 0.0 < t <= spec.pref.T:
            raise ValueError(f"probe time {t:g} lies outside (0, T] = (0, {spec.pref.T:g}]")
    clock = StageClock()
    states = list({state.bits: state for state, _ in probes}.values())
    row_of = {state.bits: r for r, state in enumerate(states)}
    rows = np.array([row_of[state.bits] for state, _ in probes])
    t_list = [t for _, (t, _) in probes]
    dt_list = [t / n_steps for t in t_list]
    t_nodes, y_nodes = result.t_nodes, result.grid.y_nodes()

    # per-probe constants, each computed as for a lone probe, as columns over the paths
    col = (slice(None), None)
    y_cell0, dy, top = y_nodes[0], y_nodes[1] - y_nodes[0], len(y_nodes) - 1.0
    fac = spec.factor
    vol = fac.vol
    exact = fac.rho == 0.0 and fac.kappa != 0.0
    if exact:
        kap, mean = fac.kappa, (fac.u0 / fac.kappa - y_cell0) / dy
        decay = [np.exp(-kap * d) for d in dt_list]
        sd = np.array([vol * np.sqrt((1.0 - e**2) / (2.0 * kap)) for e in decay])[col] / dy
        decay = np.array(decay)[col]
    else:
        sd = np.array([vol * np.sqrt(d) for d in dt_list])[col] / dy   # sqrt(sigma0 sigma0^T dt)
    # per probe: phi/beta and Phi by the trapezoid weight, nu by the cells per unit drift
    scale = np.array([[0.5 * d, 0.5 * d, d / dy][:2 + (not exact)] for d in dt_list])[:, None]

    table = _fk_table(spec, result, states, y_nodes, with_nu=not exact)
    work, spare = {}, None                      # interp_cells' arrays, reused by every step
    probe_rows = np.arange(len(probes))[col]    # one blended slice per probe

    def read(u, cells):
        """Scaled phi/beta, Phi and nu at times u and ``cells``; the last read's output stays."""
        nonlocal spare
        slices = blend_t(table, t_nodes, u, rows)
        slices *= scale
        work["out"], spare = spare, work.get("out")
        return interp_cells(slices, probe_rows, cells, work)

    rng_offset = 1 << 20  # keep FK blocks clear of market-step blocks
    t_probe, dt = np.array(t_list), np.array(dt_list)
    F = np.repeat(((np.array([y for _, (_, y) in probes], dtype=float) - y_cell0) / dy)[col],
                  n_paths, axis=1)
    I_acc = np.zeros(F.shape)           # int_0^s phi/beta along the path, trapezoid
    E2 = np.zeros(F.shape)
    tmp, integrand_prev, integrand_next = (np.empty(F.shape) for _ in range(3))
    z_draw, rng = np.empty(n_paths), None
    clock.lap("setup")

    # a probe may start off the grid: the read then takes the cells clipped into tmp
    vals = read(t_probe, F if 0.0 <= F.min() and F.max() <= top else np.clip(F, 0, top, out=tmp))
    clock.lap("read")
    np.copyto(integrand_prev, vals[..., 1])     # e^{I_0} = 1
    clock.lap("integrand")

    # each line below is one operation of the expression in its comment, in its order
    for k in range(n_steps):
        rng = _block_rng(seed, _KIND_FK, rng_offset + k, rng)
        rng.standard_normal(out=z_draw)
        clock.lap("rng")
        if exact:
            # F = mean + (F - mean) decay + sd z
            F -= mean
            F *= decay
            F += mean
        else:
            # F = F + nu dt / dy + sd z, with nu from the previous step's read
            F += vals[..., 2]
        np.multiply(sd, z_draw, out=tmp)
        F += tmp
        cells = F
        if F.min() < 0.0 or F.max() > top:
            # reflect at the grid's edges; a path that overshot the whole grid is clipped
            np.negative(F, out=F, where=F < 0.0)
            np.subtract(2.0 * top, F, out=F, where=F > top)
            cells = np.clip(F, 0.0, top, out=tmp)
        clock.lap("factor")
        # field time runs backward along the path
        phi_prev = vals[..., 0]
        vals = read(np.maximum(t_probe - (k + 1) * dt, 0.0), cells)
        clock.lap("read")
        # I_acc += (phi_prev + phi_next) 0.5 dt, the channel scaled by 0.5 dt
        np.add(phi_prev, vals[..., 0], out=tmp)
        I_acc += tmp
        # integrand_next = Phi e^{I_acc} 0.5 dt, the channel scaled by 0.5 dt
        np.exp(I_acc, out=integrand_next)
        integrand_next *= vals[..., 1]
        # E2 += (integrand_prev + integrand_next) 0.5 dt
        np.add(integrand_prev, integrand_next, out=tmp)
        E2 += tmp
        integrand_prev, integrand_next = integrand_next, integrand_prev
        clock.lap("integrand")

    samples = spec.f0 * np.exp(I_acc) + E2
    clock.lap("final")
    stages = clock.as_dict()
    reports = []
    for (state, (t, y)), d, row in zip(probes, dt_list, samples):
        est, se = _mean_se(row)
        target = float(lookup(result.f, t_nodes, y_nodes, t, state.bits, y))
        reports.append(McReport(
            name=f"feynman-kac state={state} probe=({t:g},{y:g})",
            estimate=est, target=target, se=se, n_paths=n_paths,
            bias_floor=4.0 * abs(target) * d**2, stages=stages))
    return reports
