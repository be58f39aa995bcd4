"""Coefficient kernel of the dual control problem.

:class:`Coefficients` holds the model coefficients of one default state on an
array of factor values and owns every formula built from them: the
admissibility tie between ``theta`` and ``h``, the reaction rate ``phi`` and
transformed drift ``nu``, the contagion source sum, the diffusion row
``Lambda`` of the optimal wealth and the hedge gap.  The PDE march, the
policy extraction, the point queries and the Monte Carlo checks build it
once per stack of states; one state is the stack ``(state,)``.

The dual diffusion loading ``theta`` is never an independent input: it is
always derived from the jump loading ``h`` through the admissibility
constraint

    sigma(y) (xi(y) - theta) = diag((1 - z) lambda(y, z)) h,

which pins the pair (theta, h) and removes a redundant degree of freedom.
Jump loadings of defaulted names are stored as 0 and excluded from all sums.
"""

from __future__ import annotations

import copy
from typing import Mapping, Sequence

import numpy as np

from .model import DefaultState, ModelSpec, beta_exponent

__all__ = ["H_FLOOR", "Coefficients", "phi_bounds", "beta_exponent"]

# powers (1+h)^q use the real branch; require 1 + h > H_FLOOR
H_FLOOR = 1e-6


def _sum_names(a: np.ndarray) -> np.ndarray:
    """``np.sum(a, axis=-1)`` over the name axis, bitwise, by one add per name.

    numpy adds a trailing axis of fewer than 8 entries from left to right, as
    this loop does, and a reduction over such a short axis costs several
    times these adds; longer axes go to ``np.sum``.
    """
    n = a.shape[-1]
    if not 1 < n < 8:
        return a.sum(axis=-1)
    out = a[..., 0] + a[..., 1]
    for i in range(2, n):
        out += a[..., i]
    return out


class Coefficients:
    """Coefficients of a stack of S default states on a 1-D array ``y`` (a scalar is one node).

    The per-state arrays are shaped (S, n_y, n) (``alive``: (S, 1, n)); one
    state is the stack ``(state,)``.  The stack shares ``xi`` (n_y, n), ``mu0``
    (n_y,), ``sig`` and the factor's constant loading row ``s0`` (n,).  Control
    arguments of the methods broadcast against these arrays, e.g. one
    state's whole policy, (n_t + 1, n_y, n), against a one-state kernel.
    ``sig`` is :meth:`MarketSpec.sigma` on ``y``: diagonal entries (n_y, n)
    when ``diagonal``, else matrices (n_y, n, n).

    ``memo`` keeps what is derived from these arrays alone (the control
    solver's masks and gathers, the zero gradient of each shape), so a
    kernel that serves many solves derives it once; :meth:`take` starts an
    empty one.
    """

    def __init__(self, spec: ModelSpec, states: Sequence[DefaultState], y):
        self.spec = spec
        self.y = np.atleast_1d(np.asarray(y, dtype=float))
        self.q = spec.q
        self.beta = spec.beta
        self.rho = spec.factor.rho
        self.states = tuple(states)
        self.alive = 1.0 - np.stack([s.indicator() for s in self.states])[:, None, :]
        self.lam = np.stack([spec.alive_intensity(self.y, s) for s in self.states])
        self.alive_names = self._alive_names()
        self.memo: dict = {}
        excess = spec.market.mu - spec.market.r
        self.diagonal = spec.market.is_diagonal
        self.sig = spec.market.sigma(self.y)
        if self.diagonal:
            self.xi = excess / self.sig
        else:
            rhs = np.broadcast_to(excess[:, None], self.y.shape + excess.shape + (1,))
            self.xi = np.linalg.solve(self.sig, rhs)[..., 0]
        self.s0 = np.asarray(spec.factor.sigma0)
        self.mu0 = spec.factor.drift(self.y)

    def _alive_names(self) -> tuple[int, ...]:
        """Names alive in some state of the stack: the names the per-name sums run over.

        In a state where such a name has defaulted its intensity is 0, so its
        terms there vanish exactly.
        """
        return tuple(np.flatnonzero(self.alive.any(axis=(0, 1))).tolist())

    def take(self, rows) -> "Coefficients":
        """The states at ``rows`` of this stack, as a stack; the y-only arrays are shared."""
        out = copy.copy(self)
        out.states = tuple(self.states[r] for r in rows)
        out.alive, out.lam = self.alive[rows], self.lam[rows]
        out.alive_names = out._alive_names()
        out.memo = {}
        return out

    def theta_from_h(self, h) -> np.ndarray:
        """theta = xi - sigma^{-1} diag((1-z) lambda) h."""
        if self.diagonal:
            return self.xi - self.lam * h / self.sig
        return self.xi - np.linalg.solve(self.sig, (self.lam * h)[..., None])[..., 0]

    def phi_nu(self, hhat, theta) -> tuple[np.ndarray, np.ndarray]:
        """Reaction rate and transformed factor drift.

        phi = q(q-1)/2 |theta|^2 - q r + sum_i [q - 1 - q (1 + hhat_i)] (1-z_i) lambda_i;
        nu = mu0 - q rho sigma0 theta.
        """
        q = self.q
        phi = (0.5 * q * (q - 1.0) * _sum_names(theta**2)
               - q * self.spec.market.r
               + _sum_names((q - 1.0 - q * (1.0 + hhat)) * self.lam))
        nu = self.mu0
        if self.rho != 0.0:
            nu = nu - q * self.rho * _sum_names(self.s0 * theta)
        return phi, nu

    def source_sum(self, hhat, children: Mapping[int, np.ndarray]) -> np.ndarray:
        """K2^{1-q} + sum_i f_child_i^beta (1+hhat_i)^q (1-z_i) lambda_i.

        ``children[i]`` is the f-value of the state where alive name i has
        additionally defaulted, shaped like ``hhat[..., 0]``; for a stack it
        holds any positive value in the states where name i has defaulted.
        """
        q = self.q
        out = self.spec.pref.K2 ** (1.0 - q)
        for i in self.alive_names:
            out = out + children[i] ** self.beta * (1.0 + hhat[..., i]) ** q * self.lam[..., i]
        return out if self.alive_names else np.full(np.shape(hhat)[:-1], out)

    def grad_term(self, f, df) -> np.ndarray:
        """rho beta (D_y f / f) sigma0: the factor-hedging part of Lambda.

        When rho = 0 it is zero and ``df`` is not read (it may be None): a
        read-only zero of the right shape, made once per shape, that holds no
        array of that size.
        """
        if self.rho == 0.0:
            shape = np.shape(f) + self.s0.shape[-1:]
            zero = self.memo.get(shape)
            if zero is None:
                zero = self.memo[shape] = np.broadcast_to(0.0, shape)
            return zero
        return self.rho * self.beta * (df / f)[..., None] * self.s0

    def diffusion_row(self, theta, grad) -> np.ndarray:
        """Diffusion row Lambda = (1-q) theta + grad of the optimal wealth."""
        return (1.0 - self.q) * theta + grad

    def hedge_gap(self, pi, theta, f, df) -> float:
        """Largest unmatched |pi^T sigma - Lambda| on defaulted names' Brownian motions (0 if none)."""
        dead = self.alive == 0.0
        if not dead.any():
            return 0.0
        gap = (self.spec.market.pi_sigma(pi, self.sig)
               - self.diffusion_row(theta, self.grad_term(f, df)))
        return float(np.max(np.abs(gap)[np.broadcast_to(dead, gap.shape)]))


def phi_bounds(sup_theta_sq: float, sup_lam, sup_h, sup_one_ph, q: float, r: float) -> tuple[float, float]:
    """State-dependent lower/upper bounds of phi from sup norms of the control family.

    ``sup_theta_sq`` bounds sum_j ||theta_j||_inf^2; the per-name arrays bound
    (1-z_i)||lambda_i||, (1-z_i)||hhat_i|| and (1-z_i)||1+hhat_i||.  Branches:
    for q in (0,1) the upper bound is 0; for q < 0 the lower bound is
    -(1-q) sum_i ||lambda_i||.
    """
    if not q < 1.0:
        raise ValueError("need q < 1")
    sup_lam = np.asarray(sup_lam, dtype=float)
    sup_h = np.asarray(sup_h, dtype=float)
    sup_one_ph = np.asarray(sup_one_ph, dtype=float)
    if q == 0.0:
        return (-float(np.sum(sup_lam)), 0.0)
    if 0.0 < q < 1.0:
        lower = -(0.5 * q * (1.0 - q) * sup_theta_sq + q * r
                  + (1.0 - q) * float(np.sum(sup_lam))
                  + q * float(np.sum(sup_lam * sup_one_ph)))
        return (lower, 0.0)
    upper = 0.5 * q * (q - 1.0) * sup_theta_sq - q * r - q * float(np.sum(sup_lam * sup_h))
    lower = -(1.0 - q) * float(np.sum(sup_lam))
    return (lower, upper)
