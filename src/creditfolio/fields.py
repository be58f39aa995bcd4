"""Grid containers shared by the PDE solver, the strategy extractor and the simulator.

A :class:`SolveResult` holds a solve as arrays stacked by the state's bits:
``f``, ``df`` and one policy table (channels: :data:`POLICY_CHANNELS`).  The
PDE march writes into them, ``solve`` saves them whole as ``.npy`` artifacts
that ``simulate --solution`` loads back, and the path engine and the point
queries :func:`lookup` their rows.

Time index convention: ``t`` is remaining investment horizon.  Slice ``k = 0``
holds the initial condition (zero horizon, value pinned by the terminal
utility weight) and slice ``k = n_t`` the full horizon ``T``.  A trading clock
time ``tau`` therefore reads the fields at horizon ``T - tau``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import DefaultState, all_states

__all__ = ["GridSpec", "blend_t", "interp_y", "interp_cells", "lookup", "POLICY_CHANNELS",
           "policy_channel", "policy_width", "SolutionField", "PolicyField", "TruncationBounds",
           "SolveResult"]


@dataclass(frozen=True)
class GridSpec:
    """Uniform time-space grid for the 1-D factor solver."""

    y_lo: float
    y_hi: float
    n_y: int = 401
    n_t: int = 400

    def __post_init__(self):
        if self.n_y < 3 or self.n_y % 2 == 0:
            raise ValueError("n_y must be odd and >= 3 so a center node exists")
        if self.n_t < 1:
            raise ValueError("n_t must be >= 1")
        if not self.y_lo < self.y_hi:
            raise ValueError("empty spatial domain")

    def y_nodes(self) -> np.ndarray:
        return np.linspace(self.y_lo, self.y_hi, self.n_y)

    def t_nodes(self, T: float) -> np.ndarray:
        return np.linspace(0.0, T, self.n_t + 1)

    @property
    def dy(self) -> float:
        return (self.y_hi - self.y_lo) / (self.n_y - 1)


def blend_t(table: np.ndarray, t_nodes: np.ndarray, t, rows=slice(None)) -> np.ndarray:
    """Rows of a state-stacked (S, n_t+1, n_y[, C]) table, blended linearly in time.

    With a scalar ``t`` the two time slices that bracket it are blended for
    all the ``rows`` at once; with an array ``t``, one time per selected row,
    each row is blended at its own time.  Times are clamped to the grid.
    Returns one ``(n_y[, C])`` slice per row.
    """
    ft = np.clip((np.asarray(t, dtype=float) - t_nodes[0]) / (t_nodes[1] - t_nodes[0]),
                 0.0, len(t_nodes) - 1.0)
    k0 = np.minimum(ft.astype(int), len(t_nodes) - 2)
    wt = (ft - k0).reshape(ft.shape + (1,) * (table.ndim - 2))
    return (1 - wt) * table[rows, k0] + wt * table[rows, k0 + 1]


def interp_y(slices: np.ndarray, y_nodes: np.ndarray, rows, y,
             work: dict | None = None) -> np.ndarray:
    """Interpolate (R, n_y[, C]) slices linearly in y: each point reads slice ``rows``.

    ``rows`` and ``y`` broadcast together; a point gathers from the flattened
    slices with the flat index ``row * n_y + j``, so no per-row mask is needed.
    ``y`` is clamped to the grid and extra trailing axes pass through; a 0-d
    ``rows`` and ``y`` give a point query.  The points go to
    :func:`interp_cells` as grid-cell coordinates ``(y - y0) / dy``.
    """
    fy = (np.asarray(y, dtype=float) - y_nodes[0]) / (y_nodes[1] - y_nodes[0])
    return interp_cells(slices, rows, np.clip(fy, 0.0, len(y_nodes) - 1.0), work)


def interp_cells(slices: np.ndarray, rows, fy, work: dict | None = None) -> np.ndarray:
    """:func:`interp_y` at grid-cell coordinates ``fy`` in [0, n_y - 1], read and kept as is.

    The kernel works channel-first: the slices are copied to ``(C, R n_y)``
    planes, each cell's ``b - a`` is formed once on them (the subtraction a
    point would do, so the same bits), and one ``take`` gathers every
    channel, so ``wy`` multiplies contiguous planes.  The result is a
    channel-last view of those planes; each channel ``[..., c]`` is contiguous.

    ``work`` is an optional dict of scratch arrays that a loop passes to every
    call: the kernel then allocates nothing once the arrays exist, and the
    result views ``work["out"]``, overwritten by the next call.  Its gathers write
    into those arrays with ``mode="clip"``; the indices are in range by
    construction, so clipping changes no value, and numpy's default
    ``mode="raise"`` would copy ``out`` on every call.  Without ``work`` the
    result views new arrays and an index out of range raises.
    """
    n_y = slices.shape[1]
    shape = np.broadcast_shapes(np.shape(rows), np.shape(fy))
    channels = slices.shape[2:]
    n_c = math.prod(channels)
    scratch = {} if work is None else work

    def buf(name, shp, dtype=float):
        b = scratch.get(name)
        if b is None or b.shape != shp or b.dtype != dtype:
            b = scratch[name] = np.empty(shp, dtype)
        return b

    # a and b - a of every cell as planes; a row's last node opens no cell, so the
    # difference that spans two rows is never read
    planes = buf("planes", (n_c,) + slices.shape[:2])
    np.copyto(planes, slices.reshape(slices.shape[:2] + (n_c,)).transpose(2, 0, 1))
    planes = planes.reshape(n_c, -1)
    diff = buf("diff", planes.shape)
    np.subtract(planes[:, 1:], planes[:, :-1], out=diff[:, :-1])
    # the cell, truncated as astype(int) does, found in floats: wy subtracts no int array
    j0 = np.trunc(fy, out=buf("j0", np.shape(fy)))
    np.minimum(j0, n_y - 2, out=j0)
    idx = buf("idx", shape, np.intp)
    np.copyto(idx, j0, casting="unsafe")
    idx += np.multiply(rows, n_y)
    wy = np.subtract(fy, j0, out=j0)

    def gather(table, name):
        """Columns ``idx`` of the planes: take gathers several times faster than indexing."""
        if work is None:
            return table.take(idx, axis=1)
        return table.take(idx, axis=1, out=buf(name, (n_c,) + shape), mode="clip")

    # a + wy (b - a), in place: fewer large temporaries, the same rounding
    out = gather(diff, "out")
    out *= wy
    out += gather(planes, "a")
    k = len(channels)
    return out.reshape(channels + shape).transpose(*range(k, k + len(shape)), *range(k))


def lookup(table: np.ndarray, t_nodes: np.ndarray, y_nodes: np.ndarray, t: float, rows,
           y) -> np.ndarray:
    """Interpolate a state-stacked (S, n_t+1, n_y[, C]) table at time ``t`` and points ``y``.

    The two time slices that bracket ``t`` are blended once for all S rows;
    each point then interpolates linearly in y within its row ``rows`` (the
    state's bits when the table is indexed by them).  Both coordinates are
    clamped to the grid, so a point outside it reads the edge value.  One
    state's ``(n_t+1, n_y[, C])`` array is the size-1 case: ``values[None]``
    with row 0.
    """
    return interp_y(blend_t(table, t_nodes, t), y_nodes, rows, y)


def spatial_gradient(f_slice: np.ndarray, dy: float) -> np.ndarray:
    """Second-order gradient along the last (space) axis: central inside, one-sided at the edges.

    Leading axes (states, time slices) pass through; the interior is formed
    in place, so a whole stack costs no temporaries of its size.
    """
    df = np.empty_like(f_slice)
    np.subtract(f_slice[..., 2:], f_slice[..., :-2], out=df[..., 1:-1])
    df[..., 1:-1] /= 2.0 * dy
    df[..., 0] = (-3.0 * f_slice[..., 0] + 4.0 * f_slice[..., 1] - f_slice[..., 2]) / (2.0 * dy)
    df[..., -1] = (3.0 * f_slice[..., -1] - 4.0 * f_slice[..., -2] + f_slice[..., -3]) / (2.0 * dy)
    return df


@dataclass
class TruncationBounds:
    """A-priori solution bounds: the truncation of the nonlinear source in the existence proof.

    ``k_under <= f(t, y) <= k_bar(t)`` with ``k_under = f(0) exp(T (m_lo ^ 0)
    / beta)`` and ``k_bar(t) = f(0) exp((m_hi / beta + theta_rate) t)``.
    The solver checks every slice it gives the source against them: inside
    them the truncated source is the one it used, and a state whose slices
    leave them stops the solve.  ``m_lo``/``m_hi`` envelope the reaction
    coefficient phi and ``theta_rate`` is the growth rate of the contagion
    source truncated at the lower bound.  ``m_lo_norms``/``m_hi_norms``
    carry the coarser sup-norm-family envelope of phi (reported, always
    containing [m_lo, m_hi]).
    """

    state: DefaultState
    k_under: float
    m_lo: float
    m_hi: float
    theta_rate: float
    f0: float
    beta: float
    T: float
    m_lo_norms: float = float("-inf")
    m_hi_norms: float = float("inf")

    def k_bar(self, t):
        """The upper bound at horizon t; +inf, with no overflow warning, past the float range.

        An infinite bound truncates nothing, so every slice passes it:
        ``run.json`` lists such states as ``unbounded_above``.
        """
        with np.errstate(over="ignore"):
            return self.f0 * np.exp((self.m_hi / self.beta + self.theta_rate)
                                    * np.asarray(t, dtype=float))

    @property
    def k_bar_final(self) -> float:
        return float(self.k_bar(self.T))


# last axis of the policy table: pi | hhat | theta, one column per name each, then ahat (the
# loading on the factor's own driver Bbar) and c_mult = K2^{1-q} / g (consumption per wealth)
POLICY_CHANNELS = ("pi", "hhat", "theta", "ahat", "c_mult")


def policy_channel(name: str, n: int):
    """Last-axis index of channel ``name`` in an n-name policy table (an int: ahat, c_mult)."""
    c = POLICY_CHANNELS.index(name)
    return slice(c * n, (c + 1) * n) if c < 3 else 3 * n + c - 3


def policy_width(n: int) -> int:
    """Columns of an n-name policy table."""
    return 3 * n + 2


@dataclass(eq=False)
class SolveResult:
    """One recursive solve, stacked by state: row ``state.bits`` of each array is that state's.

    ``f`` and ``df`` are (S, n_t+1, n_y), ``policy`` is (S, n_t+1, n_y, 3n+2)
    with the channels of :data:`POLICY_CHANNELS`, and ``hedge_gap`` holds one
    value per state.  ``bounds`` and ``report`` are keyed by bitstring.
    ``fields`` and ``policies`` hand out per-state row views that own no
    arrays; a perturbed policy is a copy with an edited table,
    ``dataclasses.replace(result, policy=edited)``.
    """

    grid: GridSpec
    t_nodes: np.ndarray
    f: np.ndarray
    df: np.ndarray
    policy: np.ndarray
    hedge_gap: np.ndarray
    bounds: dict[str, TruncationBounds] = field(default_factory=dict)
    report: dict[str, dict] = field(default_factory=dict)
    march: dict = field(default_factory=dict)   # the march's counts and stage seconds

    @property
    def n(self) -> int:
        return len(self.f).bit_length() - 1

    def channel(self, name: str) -> np.ndarray:
        """Channel ``name`` of every state's policy, (S, n_t+1, n_y[, n]): a view of ``policy``."""
        return self.policy[..., policy_channel(name, self.n)]

    @property
    def fields(self) -> dict[str, SolutionField]:
        return {s.bitstring: SolutionField(self, s) for s in all_states(self.n)}

    @property
    def policies(self) -> dict[str, PolicyField]:
        return {s.bitstring: PolicyField(self, s) for s in all_states(self.n)}


@dataclass(frozen=True, eq=False)
class SolutionField:
    """Row ``state.bits`` of a :class:`SolveResult`: views, not copies, of its arrays.

    ``f[k, j] = f(t_k, y_j)`` with t the remaining horizon; ``df`` holds the
    central-difference spatial gradient (second-order one-sided at the two
    boundary nodes).  The dual value function is ``g = f**beta``.
    """

    result: SolveResult = field(repr=False)
    state: DefaultState

    grid = property(lambda self: self.result.grid)
    t_nodes = property(lambda self: self.result.t_nodes)
    f = property(lambda self: self.result.f[self.state.bits])
    df = property(lambda self: self.result.df[self.state.bits])


class PolicyField(SolutionField):
    """The same row seen through its feedback controls, indexed ``[k, j(, i)]``.

    ``hedge_gap`` is the worst unmatched diffusion loading on defaulted
    names' drivers: the dual-optimal wealth may load on those Brownians while
    no admissible portfolio can (dead stocks are untradable).  A material gap
    means the feedback strategy attains strictly less than the dual value,
    which then only bounds the primal from above; it vanishes when defaultable
    names carry no excess return and the factor is uncorrelated with prices.
    """

    hhat = property(lambda self: self.result.channel("hhat")[self.state.bits])
    theta = property(lambda self: self.result.channel("theta")[self.state.bits])
    ahat = property(lambda self: self.result.channel("ahat")[self.state.bits])
    pi = property(lambda self: self.result.channel("pi")[self.state.bits])
    c_mult = property(lambda self: self.result.channel("c_mult")[self.state.bits])
    hedge_gap = property(lambda self: float(self.result.hedge_gap[self.state.bits]))
