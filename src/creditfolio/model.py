"""Market/credit/preference model inputs and desk-level validation.

The market consists of ``n`` defaultable stocks, a bank account at constant
rate ``r``, and a one-dimensional stochastic factor ``Y`` driving appreciation
rates, volatilities and default intensities.  The default state of the
portfolio is a bitmask over names; intensities may jump when other names
default (contagion).

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "DefaultState",
    "FactorSpec",
    "CreditSpec",
    "MarketSpec",
    "PreferenceSpec",
    "ModelSpec",
    "ValidationReport",
    "all_states",
    "states_by_cardinality",
    "validate_spec",
    "beta_exponent",
    "preset_config",
    "build_model",
    "load_preset",
    "PRESET_NAMES",
]

# the most names the solver handles: 2^9 states at 101 x 100 solve in about 40 s and
# 1.7 GB; at 2^10 the policy arrays alone need 2.5 GB
MAX_NAMES = 9


@dataclass(frozen=True, order=True)
class DefaultState:
    """Default state of an ``n``-name portfolio, bit ``i`` set iff stock ``i`` defaulted."""

    n: int
    bits: int = 0

    def __post_init__(self):
        if not 1 <= self.n <= MAX_NAMES:
            raise ValueError(f"number of names must be in [1, {MAX_NAMES}], got {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bits {self.bits} out of range for n={self.n}")

    def flip(self, i: int) -> "DefaultState":
        """Neighbouring state obtained by toggling the default flag of name ``i``."""
        self._check_index(i)
        return DefaultState(self.n, self.bits ^ (1 << i))

    @property
    def cardinality(self) -> int:
        return bin(self.bits).count("1")

    @property
    def alive(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if not (self.bits >> i) & 1)

    @property
    def defaulted(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if (self.bits >> i) & 1)

    def indicator(self) -> np.ndarray:
        """0/1 vector z with z[i] = 1 iff name i defaulted."""
        return np.array([(self.bits >> i) & 1 for i in range(self.n)], dtype=float)

    @property
    def bitstring(self) -> str:
        return "".join(str((self.bits >> i) & 1) for i in range(self.n))

    @classmethod
    def from_bitstring(cls, s: str) -> "DefaultState":
        if not s or any(c not in "01" for c in s):
            raise ValueError(f"bad default-state bitstring {s!r}")
        bits = sum((1 << i) for i, c in enumerate(s) if c == "1")
        return cls(len(s), bits)

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise IndexError(f"name index {i} out of range for n={self.n}")

    def __str__(self) -> str:
        return self.bitstring


def all_states(n: int) -> list[DefaultState]:
    return [DefaultState(n, bits) for bits in range(1 << n)]


def states_by_cardinality(n: int) -> list[DefaultState]:
    """All 2^n states by descending number of defaults (ties by bits ascending).

    This is the solve order of the recursive PDE system: every state is
    visited after all states reachable from it by one more default.
    """
    states = all_states(n)
    states.sort(key=lambda s: (-s.cardinality, s.bits))
    return states


def beta_exponent(q: float, rho: float) -> float:
    """Power-transform exponent beta = (1-q)/(1 - q rho^2); positive for q < 1, |rho| < 1."""
    return (1.0 - q) / (1.0 - q * rho * rho)


# ---------------------------------------------------------------------------
# Coefficient blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorSpec:
    """Mean-reverting factor dY = (u0 - kappa Y) dt + sigma0 [rho dW + sqrt(1-rho^2) dWbar].

    ``sigma0`` is the constant 1-by-n loading row, one entry per Brownian motion W_j,
    kept as a tuple of floats so that specs compare and hash by value.
    """

    u0: float
    kappa: float
    sigma0: tuple[float, ...]
    rho: float
    domain_lo: float
    domain_hi: float

    def __post_init__(self):
        object.__setattr__(self, "sigma0", tuple(float(v) for v in np.ravel(self.sigma0)))
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie strictly inside (-1, 1), got {self.rho}")
        if not self.domain_lo < self.domain_hi:
            raise ValueError("factor domain is empty")

    def drift(self, y):
        return self.u0 - self.kappa * np.asarray(y, dtype=float)

    @property
    def vol_sq(self) -> float:
        """|sigma0|^2 = sigma0 sigma0^T, the factor's diffusion coefficient."""
        row = np.asarray(self.sigma0)
        return float(np.sum(row * row))

    @property
    def vol(self) -> float:
        """|sigma0|: the factor's loading on its own scalar driver Bbar = sigma0 Wbar / |sigma0|."""
        return math.sqrt(self.vol_sq)


class CreditSpec:
    """Exponential-affine default intensities lambda_i(y, z) = a + b exp(c y).

    ``table`` maps (name index, state bits) to (a, b, c); the parameters are
    canonicalised so that the z-argument of name i always has its own bit
    cleared, and a missing entry is zero.  :meth:`rate` is the one evaluation
    of the formula, on rows that :meth:`params` gathers.
    """

    def __init__(self, n: int, table: Mapping[tuple[int, int], tuple[float, float, float]]):
        self.n = n
        a = np.zeros((n, 1 << n))
        b = np.zeros((n, 1 << n))
        c = np.zeros((n, 1 << n))
        for (i, bits), (ai, bi, ci) in table.items():
            if not 0 <= i < n or not 0 <= bits < (1 << n):
                raise ValueError(f"bad intensity table key ({i}, {bits})")
            a[i, bits], b[i, bits], c[i, bits] = ai, bi, ci
        # canonicalise: parameters of name i in state z live at bits with bit i cleared
        for i in range(n):
            for bits in range(1 << n):
                if (bits >> i) & 1:
                    a[i, bits] = a[i, bits & ~(1 << i)]
                    b[i, bits] = b[i, bits & ~(1 << i)]
                    c[i, bits] = c[i, bits & ~(1 << i)]
        self._abc = np.stack((a, b, c))

    @classmethod
    def exp_affine(cls, n: int, table: Mapping[tuple[int, str], tuple[float, float, float]]) -> "CreditSpec":
        """Build from a {(name index, state bitstring): (a, b, c)} table.

        States omitted from the table inherit the all-alive parameters of the
        same name.
        """
        full: dict[tuple[int, int], tuple[float, float, float]] = {}
        base: dict[int, tuple[float, float, float]] = {}
        for (i, s), abc in table.items():
            st = DefaultState.from_bitstring(s)
            if st.n != n:
                raise ValueError(f"bitstring {s!r} has wrong length for n={n}")
            full[(i, st.bits)] = abc
            if st.bits & ~(1 << i) == 0:
                base[i] = abc
        for i in range(n):
            if i not in base:
                raise ValueError(f"intensity table missing all-alive parameters for name {i}")
            for bits in range(1 << n):
                full.setdefault((i, bits), base[i])
        return cls(n, full)

    @classmethod
    def zero(cls, n: int) -> "CreditSpec":
        """Degenerate no-default-risk spec (lambda identically zero)."""
        return cls(n, {})

    def params(self, bits) -> np.ndarray:
        """(a, b, c) of every name in the states ``bits``, an int or an array: (3, n, ...).

        A ``take`` along the states' axis: the rows of a vector of ``bits`` are contiguous.
        """
        # the tables are canonicalised at construction, so a plain gather suffices
        return self._abc.take(bits, axis=-1)

    @staticmethod
    def rate(abc: np.ndarray, y) -> np.ndarray:
        """a + b exp(c y) for rows ``abc`` of :meth:`params`, ``y`` broadcasting against them."""
        a, b, c = abc
        return a + b * np.exp(c * y)

    def intensity(self, y, state: DefaultState) -> np.ndarray:
        """lambda(y, z) as an (..., n) array; includes entries of defaulted names."""
        return self.rate(self.params(state.bits), np.asarray(y, dtype=float)[..., None])


class MarketSpec:
    """Stock appreciation rates mu, volatility matrix sigma(y), risk-free rate r.

    ``sigma`` is a vector of n diagonal volatilities, a constant n-by-n
    matrix, or a vectorised callable that maps factor values of shape (m,) to
    (m, n) diagonal entries or to an (m, n, n) stack of matrices; any other
    output raises ValueError naming its shape.  The market is diagonal when
    the input is a vector or a diagonal-entries callable, or a matrix whose
    off-diagonal entries are exactly zero.  :meth:`sigma` is the one
    evaluation: (..., n) diagonal entries for a diagonal market, else
    (..., n, n) matrices; a scalar y is the size-1 case.
    """

    def __init__(self, mu: Sequence[float], sigma, r: float):
        self.mu = np.asarray(mu, dtype=float)
        self.r = float(r)
        self.n = n = self.mu.shape[0]
        if callable(sigma):
            k = MAX_NAMES + 1   # more factor values than names: (k, n) never reads as (n, n)
            shape = np.shape(sigma(np.zeros(k)))
            if shape not in ((k, n), (k, n, n)):
                raise ValueError(f"sigma callable must map y of shape (m,) to (m, {n}) or "
                                 f"(m, {n}, {n}); y of shape ({k},) gave shape {shape}")
            self._fn, self.is_diagonal = sigma, len(shape) == 2
            return
        m = np.asarray(sigma, dtype=float)
        if m.shape == (n, n) and not np.any(m[~np.eye(n, dtype=bool)]):
            m = np.diag(m)
        if m.shape not in ((n,), (n, n)):
            raise ValueError(f"sigma must be {n} diagonal entries or {n}x{n}, got shape {m.shape}")
        self._fn = lambda y: np.broadcast_to(m, y.shape + m.shape).copy()
        self.is_diagonal = m.ndim == 1

    def sigma(self, y) -> np.ndarray:
        """sigma at factor values ``y``: (..., n) diagonal entries or (..., n, n) matrices."""
        y = np.asarray(y, dtype=float)
        out = np.asarray(self._fn(y.reshape(-1)), dtype=float)
        return out.reshape(y.shape + out.shape[1:])

    def matrix(self, y) -> np.ndarray:
        """:meth:`sigma` as (..., n, n) matrices, the diagonal entries placed on zeros."""
        s = self.sigma(y)
        if not self.is_diagonal:
            return s
        out = np.zeros(s.shape + (self.n,))
        out[..., range(self.n), range(self.n)] = s
        return out

    def pi_sigma(self, pi, sig) -> np.ndarray:
        """Row vector pi^T sigma, the loading a portfolio puts on each Brownian motion.

        ``sig`` is :meth:`sigma` at the factor values of ``pi``'s rows.
        """
        if self.is_diagonal:
            return pi * sig
        return (pi[..., None, :] @ sig)[..., 0, :]


@dataclass(frozen=True)
class PreferenceSpec:
    """Power utility U_i(x) = (K_i / p) x^p from consumption (i=2) and terminal wealth (i=1)."""

    p: float
    K1: float
    K2: float
    T: float
    _q_override: float | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._q_override is None:
            if not (self.p < 1.0 and self.p != 0.0):
                raise ValueError(f"risk aversion exponent must satisfy p < 1, p != 0, got {self.p}")
        if self.K1 <= 0 or self.K2 <= 0:
            raise ValueError("tradeoff weights K1, K2 must be positive")
        if self.T <= 0:
            raise ValueError("horizon T must be positive")

    @property
    def q(self) -> float:
        """Dual exponent q = p / (p - 1); q in (0,1) iff p < 0, q < 0 iff p in (0,1)."""
        if self._q_override is not None:
            return self._q_override
        return self.p / (self.p - 1.0)

    @classmethod
    def from_q(cls, q: float, K1: float, K2: float, T: float) -> "PreferenceSpec":
        """Construct from the dual exponent directly (admits q = 0, the log-utility edge)."""
        if not q < 1.0:
            raise ValueError(f"dual exponent must satisfy q < 1, got {q}")
        p = q / (q - 1.0)
        return cls(p=p, K1=K1, K2=K2, T=T, _q_override=q)


@dataclass(frozen=True)
class ModelSpec:
    """Complete model: factor, credit, market and preference blocks for n names."""

    n: int
    factor: FactorSpec
    credit: CreditSpec
    market: MarketSpec
    pref: PreferenceSpec

    def __post_init__(self):
        if self.credit.n != self.n or self.market.n != self.n:
            raise ValueError("credit/market blocks disagree with n")
        width = len(self.factor.sigma0)
        if width != self.n:
            raise ValueError(f"factor loading row has {width} entries, need n={self.n}")

    @property
    def q(self) -> float:
        return self.pref.q

    @property
    def beta(self) -> float:
        """Power-transform exponent (1-q) / (1 - q rho^2) > 0."""
        return beta_exponent(self.q, self.factor.rho)

    @property
    def f0(self) -> float:
        """Initial condition f(0, y) = K1^{(1-q)/beta}, so g(0) = f0^beta = K1^{1-q}."""
        return self.pref.K1 ** ((1.0 - self.q) / self.beta)

    def intensity(self, y, state: DefaultState) -> np.ndarray:
        return self.credit.intensity(y, state)

    def fingerprint(self) -> str:
        """SHA-256 of the model: its scalars and every coefficient at fixed factor points.

        Coefficients enter through their values at nine points across
        the factor domain: the drift and loading row of the factor, sigma, and
        each state's intensities.  Values are hashed as 12-significant-digit
        text, so a last-bit difference between math libraries keeps the hash.
        The grid is not part of the model.
        """
        y = np.linspace(self.factor.domain_lo, self.factor.domain_hi, 9)
        parts = [[self.n, self.pref.p, self.q, self.pref.K1, self.pref.K2, self.pref.T,
                  self.market.r, self.factor.rho, self.factor.domain_lo, self.factor.domain_hi],
                 self.market.mu, self.factor.drift(y), [self.factor.sigma0] * len(y),
                 self.market.matrix(y)]
        parts += [self.intensity(y, state) for state in all_states(self.n)]
        h = hashlib.sha256()
        for part in parts:
            values = np.asarray(part, dtype=float)
            h.update(f"{values.shape}:".encode())
            h.update(",".join("%.12g" % v for v in values.ravel().tolist()).encode() + b";")
        return h.hexdigest()

    def alive_intensity(self, y, state: DefaultState) -> np.ndarray:
        """(1 - z_i) lambda_i(y, z): defaulted entries zeroed."""
        lam = self.credit.intensity(y, state)
        mask = 1.0 - state.indicator()
        return lam * mask


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass
class ValidationCheck:
    name: str
    passed: bool
    detail: str = ""
    where: float | None = None  # offending grid point, if any


@dataclass
class ValidationReport:
    checks: list[ValidationCheck]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[ValidationCheck]:
        return [c for c in self.checks if not c.passed]

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            loc = "" if c.where is None else f" at y={c.where:.6g}"
            det = f" ({c.detail})" if c.detail else ""
            lines.append(f"[{status}] {c.name}{loc}{det}")
        return "\n".join(lines)


_COND_CAP = 1e8


def _first_bad(y: np.ndarray, bad: np.ndarray) -> float | None:
    idx = np.nonzero(bad)[0]
    return float(y[idx[0]]) if idx.size else None


def validate_spec(spec: ModelSpec, y_nodes) -> ValidationReport:
    """Desk-level checks of the standing assumptions on a validation grid.

    Failures are reported, never raised.  Boundedness checks run on the grid
    only; non-exit of the factor from its domain is the caller's modelling
    responsibility (mean-reverting presets satisfy it by construction).
    ``y_nodes`` is the array of factor nodes the checks run on.
    """
    y = np.asarray(y_nodes, dtype=float)
    checks: list[ValidationCheck] = []

    if y.size < 2:
        return ValidationReport([ValidationCheck("grid", False, "need at least 2 interior points")])

    inside = (y > spec.factor.domain_lo) & (y < spec.factor.domain_hi)
    checks.append(ValidationCheck(
        "grid-inside-domain", bool(np.all(inside)),
        "grid nodes must lie strictly inside the factor domain",
        _first_bad(y, ~inside)))

    # (A1)-style boundedness of factor coefficients on the declared domain
    mu0 = spec.factor.drift(y)
    ok = bool(np.all(np.isfinite(mu0)) and np.all(np.isfinite(spec.factor.sigma0)))
    checks.append(ValidationCheck("factor-coefficients-bounded", ok,
                                  "" if ok else "mu0/sigma0 not finite on grid"))
    checks.append(ValidationCheck("correlation-range", -1.0 < spec.factor.rho < 1.0))

    # (A2): intensities nonnegative, finite, with bounded variation on the grid
    a2_ok, a2_where, a2_detail = True, None, ""
    for state in all_states(spec.n):
        lam = spec.intensity(y, state)
        neg = np.any(lam < 0, axis=-1)
        if np.any(neg):
            a2_ok, a2_where = False, _first_bad(y, neg)
            a2_detail = f"negative intensity in state {state}"
            break
        if not np.all(np.isfinite(lam)):
            a2_ok, a2_detail = False, f"non-finite intensity in state {state}"
            break
        slope = np.diff(lam, axis=0) / np.diff(y)[:, None]
        if not np.all(np.isfinite(slope)):
            a2_ok, a2_detail = False, f"unbounded intensity slope in state {state}"
            break
    checks.append(ValidationCheck("intensity-bounded-nonnegative", a2_ok, a2_detail, a2_where))

    # market volatility invertible with moderate conditioning
    s = spec.market.matrix(y)
    finite = np.all(np.isfinite(s), axis=(-2, -1))
    cond = np.full(y.shape, np.inf)
    cond[finite] = np.linalg.cond(s[finite])
    bad = ~(cond <= _COND_CAP)
    inv_ok, inv_where, inv_detail = not bad.any(), _first_bad(y, bad), ""
    if not inv_ok:
        k = int(np.argmax(bad))
        inv_detail = f"cond(sigma) = {cond[k]:.3g}" if finite[k] else "non-finite sigma"
    checks.append(ValidationCheck("volatility-invertible", inv_ok, inv_detail, inv_where))

    # (A3): the jump loading h solving sigma (xi - theta) = diag((1-z) lambda) h must
    # exist with h > -1 + eps for some admissible theta.  theta = xi makes the left side
    # vanish, so h = 0 solves it at every node and in every state as soon as sigma is
    # invertible and xi = sigma^{-1} (mu - r) is finite; no node search can fail otherwise.
    if not inv_ok:
        a3_ok, a3_detail = False, "skipped: sigma not invertible"
    else:
        a3_ok = bool(np.all(np.isfinite(spec.market.mu - spec.market.r)))
        a3_detail = "" if a3_ok else "non-finite excess return mu - r"
    checks.append(ValidationCheck("dual-constraint-solvable", a3_ok, a3_detail))

    # preference block
    q = spec.q
    checks.append(ValidationCheck("preference-exponents", q < 1.0 and (q != 0.0 or spec.pref._q_override is not None),
                                  f"q = {q:.6g}"))
    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

PRESET_NAMES = ("benchmark_s5", "merton_nodefault", "scott_example22", "stein_stein_example22")


def preset_config(name: str) -> dict:
    """Config-dict rendering of a named preset (the canonical model form)."""
    if name == "benchmark_s5":
        return {
            "model": {"n": "2"},
            "factor": {"kind": "ou", "u0": "0.5", "kappa": "1.2", "sigma0": "0.6, 0.4",
                       "rho": "0.0", "domain": "-1.25, 1.25"},
            "credit": {"kind": "exp_affine",
                       "a_1_00": "0.6", "b_1_00": "0.4", "c_1_00": "0.1",
                       "a_2_00": "0.5", "b_2_00": "0.3", "c_2_00": "0.1",
                       "a_1_01": "0.8", "b_1_01": "0.6", "c_1_01": "0.1",
                       "a_2_10": "0.8", "b_2_10": "0.6", "c_2_10": "0.1"},
            "market": {"mu": "0.2, 0.2", "sigma": "0.8, 0.8", "r": "0.2"},
            "preference": {"p": "0.8", "k1": "1.0", "k2": "1.0", "horizon": "1.0"},
        }
    if name == "merton_nodefault":
        return {
            "model": {"n": "2"},
            "factor": {"kind": "ou", "u0": "0.5", "kappa": "1.0", "sigma0": "0.25, 0.25",
                       "rho": "0.0", "domain": "-1.25, 1.25"},
            "credit": {"kind": "zero"},
            "market": {"mu": "0.25, 0.25", "sigma": "0.2, 0.2", "r": "0.2"},
            "preference": {"p": "0.5", "k1": "1.0", "k2": "1.0", "horizon": "1.0"},
        }
    if name in ("scott_example22", "stein_stein_example22"):
        kind = "scott" if name == "scott_example22" else "stein"
        return {
            "model": {"n": "2"},
            "factor": {"kind": "ou", "u0": "0.2", "kappa": "1.0", "sigma0": "0.3, 0.2",
                       "rho": "0.3", "domain": "-1.25, 1.25"},
            "credit": {"kind": "exp_affine",
                       "a_1_00": "0.5", "b_1_00": "0.3", "c_1_00": "0.2",
                       "a_2_00": "0.4", "b_2_00": "0.2", "c_2_00": "0.2",
                       "a_1_01": "0.7", "b_1_01": "0.4", "c_1_01": "0.2",
                       "a_2_10": "0.6", "b_2_10": "0.4", "c_2_10": "0.2"},
            "market": {"mu": "0.25, 0.24", "sigma_kind": kind,
                       "sigma_eps": "0.25, 0.16", "sigma_gamma": "0.5, 0.4", "r": "0.2"},
            "preference": {"p": "0.5", "k1": "1.0", "k2": "1.0", "horizon": "1.0"},
        }
    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


def _floats(text: str, key: str) -> list[float]:
    """The comma-separated numbers of the config value ``text`` of ``key``.

    A ';' starts a matrix row, which only ``[market] sigma`` has, so a ';'
    here raises ValueError naming ``key``.
    """
    if ";" in text:
        raise ValueError(f"{key} takes numbers separated by ',', got {text!r} "
                         f"(';' separates matrix rows, in [market] sigma only)")
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"{key} takes numbers separated by ',', got {text!r}") from None


def _config_number(section: str, values: dict, key: str, default: str | None = None,
                   kind: type = float):
    """``[section] key`` (else ``default``) as a ``kind``; a ValueError names a bad key."""
    text = values[key] if default is None else values.get(key, default)
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"[{section}] {key} must be {what}, got {text!r}") from None


# an exp-affine [credit] coefficient key: a, b or c, the 1-based name, the state bitstring
_CREDIT_KEY = re.compile(r"([abc])_([0-9]+)_([01]+)")


def build_model(config: dict) -> ModelSpec:
    """ModelSpec from a config dict; raises ValueError on malformed input."""
    try:
        n = _config_number("model", config["model"], "n", kind=int)
        if not 1 <= n <= MAX_NAMES:
            raise ValueError(f"[model] n must be in [1, {MAX_NAMES}], got {n}")
        fac = config["factor"]
        if fac.get("kind", "ou") != "ou":
            raise ValueError("only the mean-reverting (ou) factor kind is configurable")
        u0, kappa = _config_number("factor", fac, "u0"), _config_number("factor", fac, "kappa")
        sigma0 = _floats(fac["sigma0"], "[factor] sigma0")
        lo, hi = _floats(fac["domain"], "[factor] domain")
        factor = FactorSpec(u0=u0, kappa=kappa, sigma0=sigma0, domain_lo=lo, domain_hi=hi,
                            rho=_config_number("factor", fac, "rho", "0"))

        cred = config["credit"]
        table = {}
        for key, val in cred.items():
            if key == "kind":
                continue
            match = _CREDIT_KEY.fullmatch(key)
            if match is None or not 1 <= int(match[2]) <= n or len(match[3]) != n:
                raise ValueError(f"[credit] {key} is no intensity key: expected a_<i>_<bits>, "
                                 f"b_<i>_<bits> or c_<i>_<bits> with a name i in 1..{n} "
                                 f"and {n} state digits 0 or 1")
            entry = table.setdefault((int(match[2]) - 1, match[3]), [0.0, 0.0, 0.0])
            entry["abc".index(match[1])] = _config_number("credit", cred, key)
        kind = cred.get("kind", "exp_affine")
        if kind == "exp_affine":
            credit = CreditSpec.exp_affine(n, {k: tuple(v) for k, v in table.items()})
        elif kind == "zero":
            credit = CreditSpec.zero(n)
        else:
            raise ValueError(f"unknown [credit] kind {kind!r}; expected exp_affine or zero")

        mkt = config["market"]
        mu = _floats(mkt["mu"], "[market] mu")
        scale = _config_number("market", mkt, "sigma_scale", "1.0")
        kind = mkt.get("sigma_kind", "const")
        if kind == "const":
            rows = [_floats(row, "[market] sigma") for row in mkt["sigma"].split(";")]
            if [len(row) for row in rows] not in ([n], [n] * n):
                raise ValueError(f"[market] sigma must be {n} diagonal volatilities or {n} rows "
                                 f"of {n} separated by ';', got {mkt['sigma']!r}")
            sigma = scale * np.array(rows[0] if len(rows) == 1 else rows)
        elif kind in ("scott", "stein"):
            # name by name over contiguous y; the (m, n) result is a transposed view
            eps = np.array(_floats(mkt["sigma_eps"], "[market] sigma_eps"))[:, None]
            gam = np.array(_floats(mkt["sigma_gamma"], "[market] sigma_gamma"))[:, None]
            if kind == "scott":
                sigma = lambda y, e=eps, g=gam, s=scale: (s * np.sqrt(e + np.exp(g * y))).T
            else:
                sigma = lambda y, e=eps, g=gam, s=scale: (s * np.sqrt(e + g * y ** 2)).T
        else:
            raise ValueError(f"unknown sigma_kind {kind!r}")
        market = MarketSpec(mu=mu, sigma=sigma, r=_config_number("market", mkt, "r"))

        pref_c = config["preference"]
        pref = PreferenceSpec(*(_config_number("preference", pref_c, key)
                                for key in ("p", "k1", "k2", "horizon")))
        return ModelSpec(n=n, factor=factor, credit=credit, market=market, pref=pref)
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"bad model configuration: {exc}") from exc


def load_preset(name: str, p: float | None = None) -> ModelSpec:
    """Fully populated ModelSpec for a named preset.

    ``p`` overrides the preset's risk-aversion exponent (config key
    ``preference.p``); other overrides go through :func:`preset_config` and
    :func:`build_model` directly.
    """
    config = preset_config(name)
    if p is not None:
        config["preference"]["p"] = repr(float(p))
    return build_model(config)
