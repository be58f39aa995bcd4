import numpy as np
import pytest

from creditfolio.fields import (POLICY_CHANNELS, GridSpec, blend_t, interp_y, lookup,
                               policy_channel, policy_width, spatial_gradient)


class TestGridSpec:
    def test_nodes(self):
        g = GridSpec(-1.0, 1.0, 5, 4)
        assert np.allclose(g.y_nodes(), [-1, -0.5, 0, 0.5, 1])
        assert np.allclose(g.t_nodes(2.0), [0, 0.5, 1.0, 1.5, 2.0])
        assert g.dy == pytest.approx(0.5)

    @pytest.mark.parametrize("kwargs", [
        dict(y_lo=-1, y_hi=1, n_y=4, n_t=4),     # even
        dict(y_lo=-1, y_hi=1, n_y=1, n_t=4),     # too few
        dict(y_lo=-1, y_hi=1, n_y=5, n_t=0),
        dict(y_lo=1, y_hi=-1, n_y=5, n_t=4),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)


@pytest.mark.parametrize("n", range(1, 10))
def test_policy_channels_cover_the_table_once(n):
    # pi, hhat, theta take n columns each, ahat and c_mult one each: 3n + 2 in all
    width = policy_width(n)
    assert width == 3 * n + 2
    hits = np.zeros(width, dtype=int)
    for name in POLICY_CHANNELS:
        np.add.at(hits, np.arange(width)[policy_channel(name, n)], 1)
    assert hits.tolist() == [1] * width
    assert isinstance(policy_channel("ahat", n), int)


def four_corner(values, t_nodes, y_nodes, t, y):
    """The per-point bilinear formula over the four corners of each point's cell (reference)."""
    t, y = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(y, dtype=float))
    ft = np.clip((t - t_nodes[0]) / (t_nodes[1] - t_nodes[0]), 0.0, len(t_nodes) - 1.0)
    fy = np.clip((y - y_nodes[0]) / (y_nodes[1] - y_nodes[0]), 0.0, len(y_nodes) - 1.0)
    k0 = np.minimum(ft.astype(int), len(t_nodes) - 2)
    j0 = np.minimum(fy.astype(int), len(y_nodes) - 2)
    wt, wy = ft - k0, fy - j0
    if values.ndim > 2:
        wt, wy = wt[..., None], wy[..., None]
    return ((1 - wt) * (1 - wy) * values[k0, j0] + (1 - wt) * wy * values[k0, j0 + 1]
            + wt * (1 - wy) * values[k0 + 1, j0] + wt * wy * values[k0 + 1, j0 + 1])


def one_state_lookup(values, t_nodes, y_nodes, t, y):
    """The single-state kernel: blend one state's two bracketing time rows, then interpolate in y."""
    ft = min(max((t - t_nodes[0]) / (t_nodes[1] - t_nodes[0]), 0.0), len(t_nodes) - 1.0)
    k0 = min(int(ft), len(t_nodes) - 2)
    wt = ft - k0
    row = (1 - wt) * values[k0] + wt * values[k0 + 1]
    fy = np.clip((np.asarray(y, dtype=float) - y_nodes[0]) / (y_nodes[1] - y_nodes[0]),
                 0.0, len(y_nodes) - 1.0)
    j0 = np.minimum(fy.astype(int), len(y_nodes) - 2)
    wy = fy - j0
    if values.ndim > 2:
        wy = wy[..., None]
    a = row.take(j0, axis=0)
    return a + wy * (row.take(j0 + 1, axis=0) - a)


class TestBilinear:
    def test_exact_on_bilinear_function(self):
        t_nodes = np.linspace(0, 1, 11)
        y_nodes = np.linspace(-1, 1, 21)
        vals = 2.0 + 3.0 * t_nodes[:, None] - 1.5 * y_nodes[None, :] \
            + 0.7 * t_nodes[:, None] * y_nodes[None, :]
        y = np.array([-0.77, 0.0, 0.31])
        for t in (0.13, 0.5, 0.99):
            got = lookup(vals[None], t_nodes, y_nodes, t, 0, y)
            want = 2.0 + 3.0 * t - 1.5 * y + 0.7 * t * y
            assert np.allclose(got, want, atol=1e-13)

    def test_clamps_outside(self):
        t_nodes = np.linspace(0, 1, 3)
        y_nodes = np.linspace(0, 1, 3)
        vals = np.arange(9.0).reshape(3, 3)
        assert lookup(vals[None], t_nodes, y_nodes, 2.0, 0, np.array([2.0]))[0] == 8.0
        assert lookup(vals[None], t_nodes, y_nodes, -1.0, 0, np.array([-1.0]))[0] == 0.0
        assert lookup(vals[None], t_nodes, y_nodes, 2.0, 0, -1.0) == 6.0   # 0-d point query

    def test_trailing_axes(self):
        t_nodes = np.linspace(0, 1, 4)
        y_nodes = np.linspace(0, 1, 4)
        vals = np.stack([np.ones((4, 4)), 2 * np.ones((4, 4))], axis=-1)
        out = lookup(vals[None], t_nodes, y_nodes, 0.3, 0, np.array([0.2, 0.9]))
        assert out.shape == (2, 2)
        assert np.allclose(out, [[1, 2], [1, 2]])
        assert lookup(vals[None], t_nodes, y_nodes, 0.3, 0, 0.2).shape == (2,)

    @pytest.mark.parametrize("channels", [None, 1, 4])
    def test_matches_four_corner_reference(self, channels):
        rng = np.random.default_rng(7)
        t_nodes = np.linspace(0.0, 1.5, 13)
        y_nodes = np.linspace(-1.0, 1.0, 21)
        shape = (len(t_nodes), len(y_nodes)) + (() if channels is None else (channels,))
        vals = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
        y = np.concatenate([y_nodes, rng.uniform(-1.0, 1.0, 200),
                            [-1.7, -1.0 - 1e-12, 1.0 + 1e-12, 2.3]])
        times = np.concatenate([t_nodes, rng.uniform(0.0, 1.5, 20),
                                [-0.4, -1e-15, 1.5 + 1e-15, 9.0]])
        atol = 1e-14 * np.max(np.abs(vals))
        for t in times:
            got = lookup(vals[None], t_nodes, y_nodes, float(t), 0, y)
            want = four_corner(vals, t_nodes, y_nodes, t, y)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)
            for yy in y[::37]:
                np.testing.assert_allclose(lookup(vals[None], t_nodes, y_nodes, float(t), 0, yy),
                                           four_corner(vals, t_nodes, y_nodes, t, yy),
                                           rtol=0, atol=atol)


class TestSpatialGradient:
    def test_second_order_exact_on_quadratic(self):
        y = np.linspace(-1, 1, 31)
        f = 0.3 * y**2 - 1.2 * y + 4.0
        df = spatial_gradient(f, y[1] - y[0])
        assert np.allclose(df, 0.6 * y - 1.2, atol=1e-12)

    def test_constant_gives_zero(self):
        df = spatial_gradient(np.full(11, 3.3), 0.1)
        assert np.allclose(df, 0.0)


class TestStackedLookup:
    """The state-stacked kernel against the single-state one, bit for bit."""

    T_NODES = np.linspace(0.0, 1.5, 13)
    Y_NODES = np.linspace(-1.0, 1.0, 21)

    def stack_and_points(self, channels, seed=11):
        rng = np.random.default_rng(seed)
        shape = (5, len(self.T_NODES), len(self.Y_NODES)) + (() if channels is None else (channels,))
        stack = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
        y = np.concatenate([self.Y_NODES, rng.uniform(-1.0, 1.0, 200),
                            [-1.7, -1.0 - 1e-12, 1.0 + 1e-12, 2.3]])
        rows = rng.integers(0, stack.shape[0], size=y.shape)
        times = np.concatenate([self.T_NODES, rng.uniform(0.0, 1.5, 10),
                                [-0.4, -1e-15, 1.5 + 1e-15, 9.0]])
        return stack, y, rows, times

    @pytest.mark.parametrize("channels", [None, 1, 4])
    def test_equals_per_state_lookup_bitwise(self, channels):
        stack, y, rows, times = self.stack_and_points(channels)
        for t in times:
            got = lookup(stack, self.T_NODES, self.Y_NODES, float(t), rows, y)
            for b in range(stack.shape[0]):
                mask = rows == b
                want = one_state_lookup(stack[b], self.T_NODES, self.Y_NODES, float(t), y[mask])
                assert np.array_equal(got[mask], want)
            for b, yy in zip(rows[::29], y[::29]):   # 0-d point queries
                got_pt = lookup(stack, self.T_NODES, self.Y_NODES, float(t), b, yy)
                want_pt = one_state_lookup(stack[b], self.T_NODES, self.Y_NODES, float(t), yy)
                assert np.shape(got_pt) == np.shape(want_pt)
                assert np.array_equal(got_pt, want_pt)

    @pytest.mark.parametrize("channels", [None, 4])
    def test_one_time_per_row_equals_per_state_lookup_bitwise(self, channels):
        stack, y, _, times = self.stack_and_points(channels, seed=12)
        # rows pick table rows (repeats allowed); each blends at its own time
        table_rows = np.array([3, 0, 3, 1])
        t_rows = times[[2, 13, 20, 25]]
        slices = blend_t(stack, self.T_NODES, t_rows, table_rows)
        for r, (b, t) in enumerate(zip(table_rows, t_rows)):
            got = interp_y(slices, self.Y_NODES, r, y)
            want = one_state_lookup(stack[b], self.T_NODES, self.Y_NODES, float(t), y)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("channels", [None, 4])
    def test_workspace_equals_the_allocating_kernel_bitwise(self, channels):
        stack, _, _, times = self.stack_and_points(channels, seed=13)
        lo, hi = self.Y_NODES[0], self.Y_NODES[-1]
        # the edges, just inside and beyond them, far outside, and every interior node
        edges = np.array([lo, hi, np.nextafter(lo, 0.0), np.nextafter(hi, 0.0),
                          np.nextafter(lo, -2.0), np.nextafter(hi, 2.0), lo - 0.3, hi + 0.3,
                          -1e300, 1e300])
        y = np.stack([np.resize(np.concatenate([edges, self.Y_NODES[1:-1]]), 40)] * 3)
        y[1] = y[1, ::-1]
        rows = np.arange(3)[:, None]          # (probe, 1) rows against (probe, point) y
        slices = blend_t(stack, self.T_NODES, times[[3, 7, 11]], np.array([4, 0, 2]))
        work = {}
        for shift in (0.0, 0.05, 0.0):        # the same workspace serves call after call
            got = interp_y(slices, self.Y_NODES, rows, y + shift, work)
            want = interp_y(slices, self.Y_NODES, rows, y + shift)
            assert got.shape == want.shape == y.shape + stack.shape[3:]
            assert np.array_equal(got, want)
            # the result views the work buffer, so the kernel allocated no output, and
            # each channel is a contiguous plane of it
            assert np.shares_memory(got, work["out"])
            for c in range(int(np.prod(stack.shape[3:]))):
                assert got.reshape(y.shape + (-1,))[..., c].flags.c_contiguous
        # the cells' flat indices stay inside the slices and no cell opens at a row's last
        # node, so clipping moved none and no point reads the unused last difference
        idx = work["idx"]
        assert 0 <= idx.min() and idx.max() <= slices.shape[0] * slices.shape[1] - 2
        assert np.all(idx % slices.shape[1] != slices.shape[1] - 1)


def two_gather(slices, y_nodes, rows, y):
    """Each point gathers both nodes of its cell and subtracts: a + wy (b - a) (reference)."""
    n_y = len(y_nodes)
    fy = np.clip((np.asarray(y, dtype=float) - y_nodes[0]) / (y_nodes[1] - y_nodes[0]),
                 0.0, n_y - 1.0)
    j0 = np.minimum(fy.astype(int), n_y - 2)
    wy = fy - j0
    if slices.ndim > 2:
        wy = wy[..., None]
    flat = slices.reshape((-1,) + slices.shape[2:])
    idx = np.asarray(rows) * n_y + j0
    a, b = flat[idx], flat[idx + 1]
    return a + wy * (b - a)


class TestInterpKernel:
    """interp_y, which gathers pre-formed cell differences, against the two-gather formula."""

    Y_NODES = np.linspace(-1.0, 1.0, 21)

    def test_equals_two_gather_formula_bitwise(self):
        rng = np.random.default_rng(5)
        lo, hi = self.Y_NODES[0], self.Y_NODES[-1]
        # every node (both edges among them), points between nodes, and points beyond the edges
        y = np.concatenate([self.Y_NODES, rng.uniform(lo, hi, 60),
                            [np.nextafter(lo, -2.0), np.nextafter(hi, 2.0), lo - 0.3, hi + 0.3,
                             -1e300, 1e300]])
        work = {}                              # one work dict serves calls of every shape
        for channels in ((), (3,), (1,)):
            slices = rng.normal(size=(4, len(self.Y_NODES)) + channels)
            cases = [(rng.integers(0, 4, y.size), y),                  # a row per point
                     (np.arange(4)[:, None], np.stack([y, y[::-1], y + 0.05, y - 0.05])),
                     (2, y),                                           # one row, many points
                     (rng.integers(0, 4, 7), 0.37),                    # many rows, one point
                     (3, hi), (0, lo - 1.0)]                           # point queries
            for rows, yy in cases:
                want = two_gather(slices, self.Y_NODES, rows, yy)
                for got in (interp_y(slices, self.Y_NODES, rows, yy),
                            interp_y(slices, self.Y_NODES, rows, yy, work)):
                    assert np.shape(got) == np.shape(want)
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
