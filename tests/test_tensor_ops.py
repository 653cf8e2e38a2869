"""Forward/backward kernel contracts, with finite differences as the oracle."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from somnoscore import model as M
from somnoscore import tensor_ops as T


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestConv1d:
    def test_hand_computed(self):
        y = T.conv1d_valid(np.array([1.0, 2, 3, 4]), np.array([[1.0, 0, -1]]), np.zeros(1))
        np.testing.assert_array_equal(y, [[-2.0, -2.0]])

    def test_identity_kernel(self):
        x = rand(50)
        y = T.conv1d_valid(x, np.array([[1.0]]), np.zeros(1))
        np.testing.assert_array_equal(y[0], x)

    def test_full_scale_extents(self):
        y = T.conv1d_valid(rand(15000), rand((20, 200), 1), np.zeros(20))
        assert y.shape == (20, 14801)

    def test_kernel_longer_than_signal(self):
        with pytest.raises(ValueError):
            T.conv1d_valid(rand(3), rand((1, 5)), np.zeros(1))

    def test_bias_gradient_is_row_sum(self):
        x, k = rand(12), rand((1, 3), 1)
        g = rand((1, 10), 2)
        _, gb = T.conv1d_backward(x, k, g)
        np.testing.assert_allclose(gb, g.sum(axis=1))

    def test_zero_upstream_gradient(self):
        x, k = rand(12), rand((2, 3), 1)
        gk, gb = T.conv1d_backward(x, k, np.zeros((2, 10)))
        assert not gk.any() and not gb.any()

    def test_backward_vs_finite_difference(self):
        x, k, b = rand(12), rand((2, 3), 1), rand(2, 2)
        g = rand((2, 10), 3)
        gk, gb = T.conv1d_backward(x, k, g)
        err_k = T.finite_diff_check(
            lambda v: float((g * T.conv1d_valid(x, v, b)).sum()), k, gk)
        err_b = T.finite_diff_check(
            lambda v: float((g * T.conv1d_valid(x, k, v)).sum()), b, gb)
        assert max(err_k, err_b) < 1e-6

    def test_backward_at_32bit_meets_relaxed_tolerance(self):
        x = rand(12).astype(np.float32)
        k = rand((2, 3), 1).astype(np.float32)
        g = rand((2, 10), 3).astype(np.float32)
        gk, _ = T.conv1d_backward(x, k, g)
        # 64-bit differences of the same 32-bit-parameterized objective
        err = T.finite_diff_check(
            lambda v: float((g.astype(np.float64)
                             * T.conv1d_valid(x.astype(np.float64), v, np.zeros(2))).sum()),
            k.astype(np.float64), gk.astype(np.float64))
        assert err < 1e-4

    @given(l=st.integers(1, 40), k=st.integers(1, 40), f=st.integers(1, 4),
           seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_output_extent_closed_form(self, l, k, f, seed):
        if k > l:
            return
        y = T.conv1d_valid(rand(l, seed), rand((f, k), seed + 1), np.zeros(f))
        assert y.shape == (f, l - k + 1)


class TestMaxPool:
    def test_hand_computed(self):
        y, off = T.maxpool1d(np.array([[1.0, 3, 2, 5]]), 2, 2)
        np.testing.assert_array_equal(y, [[3.0, 5.0]])
        np.testing.assert_array_equal(off, [[1, 1]])  # positions 1 and 3

    def test_full_scale_extents(self):
        y, _ = T.maxpool1d(rand((20, 14801)), 20, 10)
        assert y.shape == (20, 1479)
        y, _ = T.maxpool1d(rand((400, 1450)), 10, 2)
        assert y.shape == (400, 721)

    def test_tie_breaks_to_first_index(self):
        y, off = T.maxpool1d(np.array([[7.0, 7.0, 7.0]]), 3, 1)
        assert off[0, 0] == 0

    def test_identity_pool(self):
        x = rand((3, 9))
        y, _ = T.maxpool1d(x, 1, 1)
        np.testing.assert_array_equal(y, x)

    def test_pool_larger_than_input(self):
        with pytest.raises(ValueError):
            T.maxpool1d(rand((1, 4)), 5, 1)

    def test_backward_scatter_non_overlapping(self):
        x = np.array([[1.0, 3, 2, 5]])
        _, off = T.maxpool1d(x, 2, 2)
        gx = T.maxpool1d_backward(off, np.array([[10.0, 20.0]]), 4, 2)
        np.testing.assert_array_equal(gx, [[0, 10, 0, 20]])

    def test_backward_accumulates_shared_argmax(self):
        x = np.array([[0.0, 9, 0]])  # windows [0,9] and [9,0] share index 1
        _, off = T.maxpool1d(x, 2, 1)
        gx = T.maxpool1d_backward(off, np.array([[2.0, 5.0]]), 3, 1)
        np.testing.assert_array_equal(gx, [[0, 7, 0]])

    def test_backward_vs_finite_difference(self):
        x = rand((3, 17), 5)  # continuous values: ties have measure zero
        g = rand((3, 7), 6)
        _, off = T.maxpool1d(x, 5, 2)
        gx = T.maxpool1d_backward(off, g, 17, 2)
        err = T.finite_diff_check(
            lambda v: float((g * T.maxpool1d(v, 5, 2)[0]).sum()), x, gx)
        assert err < 1e-6

    def test_index_out_of_range_rejected(self):
        # past the row's end; the second window's position 2 + 3 past length
        # 4 (a flat index would land in the next row); before the row's start
        for offsets, stride in (([[99]], 1), ([[0, 3]], 2), ([[-1, 0]], 2)):
            offsets = np.array(offsets)
            with pytest.raises(ValueError):
                T.maxpool1d_backward(offsets, np.ones(offsets.shape), 4, stride)

    @pytest.mark.parametrize("chunk", [1, 2 * 721 * 10 + 1, T._POOL_CHUNK],
                             ids=["row-per-chunk", "two-rows-per-chunk", "default"])
    def test_chunked_argmax_equals_unchunked_across_chunk_edges(self, chunk, monkeypatch):
        # pool2's extents: 111 rows of 721 windows of 10, so the two-row and
        # the default 36-row chunks leave a partial last chunk. ReLU zeroes
        # about half of each row and all of row 5's samples 100-199, so many
        # windows tie at 0 and must keep their first index. Row 110, in the
        # last chunk, holds NaNs after a large value: their windows point at
        # their first NaN.
        monkeypatch.setattr(T, "_POOL_CHUNK", chunk)
        x = np.maximum(rand((3, 37, 1450), 7), 0).astype(np.float32)
        x[0, 5, 100:200] = 0
        x[2, 36, 500] = 1e30
        x[2, 36, [503, 507, 900]] = np.nan
        y, off = T.maxpool1d(x, 10, 2)
        rows = x.reshape(-1, 1450)
        want = T._windows(rows, 10, 2).argmax(axis=2)
        assert np.isnan(y[2, 36, 250]) and off[2, 36, 250] == 3  # window 250: samples 500-509
        np.testing.assert_array_equal(off.reshape(-1, 721), want)
        np.testing.assert_array_equal(
            y.reshape(-1, 721), np.take_along_axis(rows, want + np.arange(0, 721 * 2, 2), axis=1))

    @pytest.mark.parametrize("chunk", [1, 2 * 1479 * 20 + 1, T._POOL_CHUNK],
                             ids=["row-per-chunk", "two-rows-per-chunk", "default"])
    def test_chunked_pool1_equals_argmax_across_chunk_edges(self, chunk, monkeypatch):
        # pool1's extents: 21 rows of 1479 windows of 20 samples, one every
        # 10, so each window is two blocks of 10 and shares one with the
        # next. The two-row and the default 8-row chunks leave a partial last
        # chunk. Zeros make ties within and across blocks; row 20, in the
        # last chunk, holds NaNs after a large value, and an infinity that
        # a NaN in the same window outranks.
        monkeypatch.setattr(T, "_POOL_CHUNK", chunk)
        x = np.maximum(rand((3, 7, 14801), 11), 0).astype(np.float32)
        x[1, 2, 1000:1300] = 0
        x[2, 6, 5000] = 1e30
        x[2, 6, [5004, 5011, 9000]] = np.nan
        x[2, 6, 7003], x[2, 6, 7012] = np.inf, np.nan
        y, off = T.maxpool1d(x, 20, 10)
        rows = x.reshape(-1, 14801)
        want = T._windows(rows, 20, 10).argmax(axis=2)
        assert off[2, 6, 500] == 4 and off[2, 6, 499] == 14   # windows at 5000 and 4990
        assert off[2, 6, 700] == 12 and np.isnan(y[2, 6, 700])  # window at 7000
        np.testing.assert_array_equal(off.reshape(-1, 1479), want)
        np.testing.assert_array_equal(
            y.reshape(-1, 1479),
            np.take_along_axis(rows, want + np.arange(0, 1479 * 10, 10), axis=1))

    def test_window_copy_is_chunk_sized(self):
        # an argmax over every window at once would copy them all: 5x the
        # input at size 10, stride 2. A block's temporaries, its rise mask,
        # scaled offsets and NaN mask, are a byte each per output of at most
        # _POOL_CHUNK // size outputs
        x = np.maximum(np.random.default_rng(8).standard_normal((4, 400, 1450),
                                                                dtype=np.float32), 0)
        tracemalloc.start()
        try:
            y, off = T.maxpool1d(x, 10, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < y.nbytes + off.nbytes + 2 * T._POOL_CHUNK * x.itemsize

    @pytest.mark.parametrize("chunk", [3 * 721, T._POOL_CHUNK],
                             ids=["three-rows-per-block", "default"])
    def test_blocked_backward_equals_one_scatter(self, chunk, monkeypatch):
        # 74 rows of pool2's 721 overlapping windows, not a multiple of the
        # 3-row block; ReLU zeros make ties, so inputs take several outputs
        monkeypatch.setattr(T, "_POOL_CHUNK", chunk)
        x = np.maximum(rand((2, 37, 1450), 9), 0).astype(np.float32)
        x[1, 3, 200:400] = 0
        _, off = T.maxpool1d(x, 10, 2)
        g = rand(off.shape, 10).astype(np.float32)
        want = np.zeros((74, 1450), np.float32)
        index = off.reshape(74, 721) + np.arange(0, 721 * 2, 2)
        np.add.at(want, (np.repeat(np.arange(74), 721), index.ravel()), g.ravel())
        got = T.maxpool1d_backward(off, g, 1450, 2)
        assert got.shape == x.shape and got.tobytes() == want.tobytes()

    def test_backward_scatter_index_is_block_sized(self):
        # a row index for every output would add 8 bytes per output (2x the
        # float32 result); a block's index is at most _POOL_CHUNK of them
        x = np.maximum(np.random.default_rng(8).standard_normal((10, 400, 1450),
                                                                dtype=np.float32), 0)
        _, off = T.maxpool1d(x, 10, 2)
        g = np.ones(off.shape, np.float32)
        tracemalloc.start()
        try:
            gx = T.maxpool1d_backward(off, g, 1450, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * gx.nbytes

    @given(p=st.integers(1, 300), extra=st.integers(0, 100), s=st.integers(1, 10),
           seed=st.integers(0, 10_000), nans=st.booleans(),
           dtype=st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=50, deadline=None)
    def test_offsets_are_argmax_of_explicit_windows(self, p, extra, s, seed, nans, dtype):
        # few values make many ties, which go to the first index, among them
        # +inf and the equal -0.0 and 0.0, whose first one is the value;
        # NaNs in one row are the maximum of every window they fall in, as
        # under argmax
        rng = np.random.default_rng(seed)
        x = rng.choice(np.array([-np.inf, -0.0, 0.0, 1.0, np.inf], dtype), (3, p + extra))
        x[0, :p] = -np.inf                  # an all -inf window: offset 0
        x[2, :p] = 1.0
        x[2, p // 2:p] = np.inf             # +inf ties: the first +inf
        if nans:
            x[1, rng.integers(0, x.shape[1], 1 + x.shape[1] // 8)] = np.nan
            x[1, :p] = 1.0
            x[1, 0], x[1, p - 1] = np.inf, np.nan  # a NaN after a +inf
        y, off = T.maxpool1d(x, p, s)
        windows = np.stack([x[:, i:i + p] for i in range(0, extra + 1, s)], axis=1)
        want = windows.argmax(axis=2)
        assert off.dtype == (np.uint8 if p <= 256 else np.intp) and y.dtype == dtype
        assert off[0, 0] == 0 and off[2, 0] == p // 2 and (not nans or off[1, 0] == p - 1)
        np.testing.assert_array_equal(off, want)
        assert y.tobytes() == np.take_along_axis(windows, want[..., None], 2)[..., 0].tobytes()
        # the scatter goes to the same samples and leaves the offsets as they were
        g = rng.standard_normal(off.shape)
        want_gx = np.zeros(x.shape)
        np.add.at(want_gx, (np.arange(3)[:, None], want + np.arange(0, extra + 1, s)), g)
        np.testing.assert_array_equal(T.maxpool1d_backward(off, g, x.shape[1], s), want_gx)
        np.testing.assert_array_equal(off, want)

    @given(l=st.integers(1, 60), p=st.integers(1, 60), s=st.integers(1, 10),
           seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_extent_and_membership(self, l, p, s, seed):
        if p > l:
            return
        x = rand((2, l), seed)
        y, off = T.maxpool1d(x, p, s)
        assert y.shape == off.shape == (2, 1 + (l - p) // s)
        # every recorded offset lies inside its window
        assert np.all(off < p)
        starts = np.arange(y.shape[1]) * s
        np.testing.assert_array_equal(np.take_along_axis(x, off + starts, axis=1), y)

    @given(pool=st.sampled_from([(20, 10), (10, 2), (4, 2)]), rows=st.integers(1, 6),
           n=st.integers(1, 40), tail=st.integers(0, 9), per_chunk=st.integers(0, 6),
           seed=st.integers(0, 10_000), dtype=st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=100, deadline=None)
    def test_values_only_pool_gives_the_tracked_values_bit_for_bit(
            self, pool, rows, n, tail, per_chunk, seed, dtype):
        # the model's three pools over rows of n windows and a dropped tail,
        # `per_chunk` rows a pass (0: the default budget). Few values make
        # ties of -0.0 and 0.0 and of infinities; NaNs of both signs make
        # NaN maxima. Skipping the offsets must leave every bit of y.
        size, stride = pool
        rng = np.random.default_rng(seed)
        values = np.array([-np.inf, -0.0, 0.0, 1.0, np.inf, np.nan, -np.nan], dtype)
        x = rng.choice(values, (rows, size + (n - 1) * stride + tail % stride))
        x[0, :size] = np.resize(np.array([-0.0, 0.0], dtype), size)  # a window of signed zeros
        chunk = per_chunk * n * size if per_chunk else T._POOL_CHUNK
        with mock.patch.object(T, "_POOL_CHUNK", chunk):
            y, off = T.maxpool1d(x, size, stride)
            values_only, none = T.maxpool1d(x, size, stride, offsets=False)
        assert none is None and off is not None
        assert values_only.shape == y.shape and values_only.dtype == y.dtype
        assert values_only.tobytes() == y.tobytes()
        assert y[0, 0] == 0 and np.signbit(y[0, 0])  # a tie keeps the first zero, -0.0


class TestRelu:
    def test_values(self):
        np.testing.assert_array_equal(T.relu(np.array([-1.0, 0, 2])), [0, 0, 2])

    def test_gradient_gate(self):
        g = np.array([5.0, 5, 5])
        np.testing.assert_array_equal(
            T.relu_backward(np.array([-1.0, 0, 2]), g), [0, 0, 5])

    def test_vs_finite_difference_away_from_zero(self):
        x = rand(40, 9)
        x = x[np.abs(x) > 1e-3]
        g = rand(x.shape, 10)
        gx = T.relu_backward(x, g)
        err = T.finite_diff_check(lambda v: float((g * T.relu(v)).sum()), x, gx)
        assert err < 1e-6


class TestStack:
    def test_shape(self):
        assert T.stack(rand((20, 1479))).shape == (1, 20, 1479)

    def test_round_trip_identity(self):
        x = rand((4, 7))
        np.testing.assert_array_equal(T.unstack(T.stack(x)), x)

    def test_values_bit_identical(self):
        x = rand((4, 7))
        assert T.stack(x).reshape(4, 7).tobytes() == x.tobytes()


class TestConv2dFullHeight:
    def test_full_scale_extents(self):
        y = T.conv2d_fullheight(rand((1, 20, 1479)), rand((400, 20, 30), 1), np.zeros(400))
        assert y.shape == (400, 1, 1450)

    def test_height_one_reduces_to_conv1d(self):
        x, k, b = rand(30), rand((3, 5), 1), rand(3, 2)
        y2 = T.conv2d_fullheight(x.reshape(1, 1, 30), k.reshape(3, 1, 5), b)
        y1 = T.conv1d_valid(x, k, b)
        np.testing.assert_allclose(y2.reshape(3, -1), y1)

    def test_wrong_height_rejected(self):
        with pytest.raises(ValueError):
            T.conv2d_fullheight(rand((1, 4, 9)), rand((2, 3, 3)), np.zeros(2))

    def test_backward_vs_finite_difference(self):
        x, k, b = rand((1, 3, 11)), rand((2, 3, 4), 1), rand(2, 2)
        g = rand((2, 1, 8), 3)
        gx, gk, gb = T.conv2d_fullheight_backward(x, k, g)
        err_x = T.finite_diff_check(
            lambda v: float((g * T.conv2d_fullheight(v, k, b)).sum()), x, gx)
        err_k = T.finite_diff_check(
            lambda v: float((g * T.conv2d_fullheight(x, v, b)).sum()), k, gk)
        err_b = T.finite_diff_check(
            lambda v: float((g * T.conv2d_fullheight(x, k, v)).sum()), b, gb)
        assert max(err_x, err_k, err_b) < 1e-6

    @given(h=st.integers(1, 6), l=st.integers(1, 30), k=st.integers(1, 30),
           f=st.integers(1, 4), seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_output_extent_closed_form(self, h, l, k, f, seed):
        if k > l:
            return
        y = T.conv2d_fullheight(rand((1, h, l), seed), rand((f, h, k), seed + 1),
                                np.zeros(f))
        assert y.shape == (f, 1, l - k + 1)


class TestConvChunks:
    """Both conv forwards copy their tap-major im2col at most a budget of
    values at a time, several windows or a stretch of one window's output
    positions; the bits do not depend on the budget."""

    # (input shape, kernel shape, dtype): conv1 and conv2 of reduced_config,
    # of reduced_config at full length, and of the full network
    CASES = {
        "conv1-reduced-float64": ((7, 1, 300), (4, 1, 20), np.float64),
        "conv1-reduced-float32": ((7, 1, 300), (4, 1, 20), np.float32),
        "conv2-reduced-float64": ((7, 4, 139), (8, 4, 5), np.float64),
        "conv2-full-length-float32": ((3, 4, 1479), (8, 4, 30), np.float32),
        "conv1-full-float32": ((3, 1, 15000), (20, 1, 200), np.float32),
        "conv2-full-float32": ((2, 20, 1479), (400, 20, 30), np.float32),
    }

    @staticmethod
    def forward(x, k, b):
        if k.shape[1] == 1:
            return T.conv1d_valid(x[:, 0], k[:, 0], b)
        return T.conv2d_fullheight(x[:, None], k, b)[:, :, 0]

    @pytest.mark.parametrize("case", CASES)
    def test_bits_do_not_depend_on_the_copy_budget(self, case, monkeypatch):
        shape, kshape, dtype = self.CASES[case]
        rng = np.random.default_rng(sum(shape))
        x = np.maximum(rng.standard_normal(shape), 0).astype(dtype)
        k, b = rng.standard_normal(kshape).astype(dtype), rng.standard_normal(kshape[0]).astype(dtype)
        n, h, l = shape
        window = h * kshape[2] * (l - kshape[2] + 1)  # one window's im2col values
        monkeypatch.setattr(T, "_CONV_CHUNK", n * window)
        whole = self.forward(x, k, b)
        # the whole batch; two windows at a time (a partial last chunk); one
        # window in three stretches; and, at reduced size, stretches of the
        # minimum width
        budgets = [n * window, 2 * window, window // 3 + 1]
        if l < 1000:
            budgets.append(1)
        for budget in budgets:
            monkeypatch.setattr(T, "_CONV_CHUNK", budget)
            assert self.forward(x, k, b).tobytes() == whole.tobytes(), budget
        # and against an explicit im2col product, to a tolerance
        cols = np.stack([x[:, :, j:j + whole.shape[-1]] for j in range(kshape[2])], axis=2)
        want = np.einsum("fhk,nhkp->nfp", k.astype(np.float64), cols.astype(np.float64))
        np.testing.assert_allclose(whole, want + b[:, None], rtol=1e-4 if dtype == np.float32 else 1e-12,
                                   atol=1e-3 if dtype == np.float32 else 1e-12)

    def test_stretches_start_on_the_alignment_and_cover_the_window(self, monkeypatch):
        # a spy on the product records each stretch's extent
        x = rand((1, 15000), 3).astype(np.float32)
        k, b = rand((20, 200), 4).astype(np.float32), np.zeros(20, np.float32)
        spans, real = [], np.matmul

        def spy(a, c, out):
            spans.append(c.shape[-1])
            return real(a, c, out=out)
        monkeypatch.setattr(T.np, "matmul", spy)
        T.conv1d_valid(x, k, b)
        monkeypatch.undo()
        assert sum(spans) == 14801 and len(spans) == -(-200 * 14801 // T._CONV_CHUNK)
        assert all(span % T._CONV_ALIGN == 0 for span in spans[:-1])
        assert max(spans) * 200 <= T._CONV_CHUNK + T._CONV_ALIGN * 200

    def test_conv1_copy_is_chunk_sized(self):
        # a whole-window im2col copy of one full-size conv1 window is 2.96M
        # values, over 3x the budget; a call allocates its output and one
        # chunk's copy
        x = rand((2, 15000), 5).astype(np.float32)
        k, b = rand((20, 200), 6).astype(np.float32), np.zeros(20, np.float32)
        tracemalloc.start()
        try:
            y = T.conv1d_valid(x, k, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        copy = peak - y.nbytes
        assert copy <= (T._CONV_CHUNK + T._CONV_ALIGN * 200) * x.itemsize
        assert copy < 200 * 14801 * x.itemsize / 3


class TestDense:
    def test_identity(self):
        x = rand(6)
        np.testing.assert_array_equal(T.dense(x, np.eye(6), np.zeros(6)), x)

    def test_full_scale_extent(self):
        y = T.dense(rand(288400), np.zeros((500, 288400)), np.zeros(500))
        assert y.shape == (500,)

    def test_backward_vs_finite_difference(self):
        x, w, b = rand(7), rand((4, 7), 1), rand(4, 2)
        g = rand(4, 3)
        gx, gw, gb = T.dense_backward(x, w, g)
        err_x = T.finite_diff_check(lambda v: float((g * T.dense(v, w, b)).sum()), x, gx)
        err_w = T.finite_diff_check(lambda v: float((g * T.dense(x, v, b)).sum()), w, gw)
        err_b = T.finite_diff_check(lambda v: float((g * T.dense(x, w, v)).sum()), b, gb)
        assert max(err_x, err_w, err_b) < 1e-6


class TestOuterGrad:
    @pytest.mark.parametrize("n", [1, 10])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tiles_equal_whole_product_across_tile_edges(self, n, dtype):
        # Two full tile rows and 5 more, one full tile column and 7 more, as
        # model.sgd_step sweeps them. At N=1 every entry is one rounded
        # product, so tiles are bit-identical. At N=10 BLAS may order a tile's
        # 10-term sums differently from the whole product's (it does in
        # float64 here), so the two may differ by the rounding of a 10-term dot
        # product: at most 2 * N * eps * (|g|.T @ |x|) per entry.
        m, k = 2 * M._TILE_ROWS + 5, M._UPDATE_BLOCK // M._TILE_ROWS + 7
        g, x = rand((n, m), 1).astype(dtype), rand((n, k), 2).astype(dtype)
        grad = T.OuterGrad(g, x)
        whole = g.T @ x
        assert grad.shape == (m, k)
        np.testing.assert_array_equal(np.asarray(grad), whole)
        assert np.asarray(grad, dtype=np.float64).dtype == np.float64
        bound = 2 * n * np.finfo(dtype).eps * (np.abs(g).T @ np.abs(x))
        covered = np.zeros((m, k), dtype=int)
        for rows, cols in M._tiles(m, k):
            tile = grad.tile(rows, cols)
            covered[rows, cols] += 1
            if n == 1:
                np.testing.assert_array_equal(tile, whole[rows, cols])
            else:
                assert (np.abs(tile - whole[rows, cols]) <= bound[rows, cols]).all()
        assert (covered == 1).all()


class TestBatchAxis:
    """A batch through a kernel equals its windows one at a time; backward
    kernels sum parameter gradients over the batch."""

    def test_conv1d(self):
        x, k, b, g = rand((3, 12)), rand((2, 3), 1), rand(2, 2), rand((3, 2, 10), 3)
        y = T.conv1d_valid(x, k, b)
        np.testing.assert_allclose(y, [T.conv1d_valid(row, k, b) for row in x], rtol=1e-12)
        gk, gb = T.conv1d_backward(x, k, g)
        singles = [T.conv1d_backward(x[i], k, g[i]) for i in range(3)]
        np.testing.assert_allclose(gk, sum(s[0] for s in singles), rtol=1e-12)
        np.testing.assert_allclose(gb, sum(s[1] for s in singles), rtol=1e-12)

    def test_maxpool(self):
        x, g = rand((3, 2, 17), 5), rand((3, 2, 7), 6)
        y, off = T.maxpool1d(x, 5, 2)
        for i in range(3):
            yi, offi = T.maxpool1d(x[i], 5, 2)
            np.testing.assert_array_equal(y[i], yi)
            np.testing.assert_array_equal(off[i], offi)
            np.testing.assert_array_equal(T.maxpool1d_backward(off, g, 17, 2)[i],
                                          T.maxpool1d_backward(offi, g[i], 17, 2))

    def test_stack_and_conv2d(self):
        x, k, b, g = rand((3, 4, 7)), rand((2, 4, 3), 1), rand(2, 2), rand((3, 2, 1, 5), 3)
        s = T.stack(x)
        assert s.shape == (3, 1, 4, 7)
        np.testing.assert_array_equal(T.unstack(s), x)
        np.testing.assert_allclose(T.conv2d_fullheight(s, k, b),
                                   [T.conv2d_fullheight(T.stack(row), k, b) for row in x],
                                   rtol=1e-12)
        gx, gk, gb = T.conv2d_fullheight_backward(s, k, g)
        singles = [T.conv2d_fullheight_backward(T.stack(x[i]), k, g[i]) for i in range(3)]
        np.testing.assert_allclose(gx, [sx for sx, _, _ in singles], rtol=1e-12)
        np.testing.assert_allclose(gk, sum(s[1] for s in singles), rtol=1e-12)
        np.testing.assert_allclose(gb, sum(s[2] for s in singles), rtol=1e-12)

    def test_dense(self):
        x, w, b, g = rand((3, 7)), rand((4, 7), 1), rand(4, 2), rand((3, 4), 3)
        np.testing.assert_allclose(T.dense(x, w, b), [T.dense(row, w, b) for row in x],
                                   rtol=1e-12)
        gx, gw, gb = T.dense_backward(x, w, g)
        singles = [T.dense_backward(x[i], w, g[i]) for i in range(3)]
        np.testing.assert_allclose(gx, [sx for sx, _, _ in singles], rtol=1e-12)
        np.testing.assert_allclose(np.asarray(gw), sum(np.asarray(s[1]) for s in singles),
                                   rtol=1e-12)
        np.testing.assert_allclose(gb, sum(s[2] for s in singles), rtol=1e-12)

    def test_cross_entropy_is_the_batch_mean(self):
        probs = T.softmax(rand((3, 5), 4))
        labels = [0, 3, 3]
        loss, grad = T.cross_entropy(probs, labels)
        singles = [T.cross_entropy(probs[i], labels[i]) for i in range(3)]
        assert loss == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-12)
        np.testing.assert_allclose(grad, [s[1] / 3 for s in singles], rtol=1e-12)


def softmax_xent(logits, label):
    probs = T.softmax(logits)
    loss, grad_logits = T.cross_entropy(probs, label)
    return probs, loss, grad_logits


class TestSoftmaxXent:
    def test_uniform_logits(self):
        probs, loss, _ = softmax_xent(np.zeros(5), 3)
        np.testing.assert_allclose(probs, 0.2)
        assert abs(loss - np.log(5)) < 1e-12

    def test_large_logit_stability(self):
        probs, loss, _ = softmax_xent(np.array([1000.0, 0, 0, 0, 0]), 0)
        assert np.isfinite(probs).all() and loss < 1e-9

    def test_probabilities_sum_to_one(self):
        probs, _, _ = softmax_xent(rand(5, 4) * 30, 1)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_gradient_vs_finite_difference(self):
        z = rand(5, 8)
        _, _, g = softmax_xent(z, 2)
        err = T.finite_diff_check(lambda v: softmax_xent(v, 2)[1], z, g)
        assert err < 1e-6

    def test_saturated_softmax_gives_finite_loss(self):
        probs, loss, _ = softmax_xent(np.array([0.0, 800.0, 0, 0, 0]), 0)
        assert probs[0] == 0.0 and loss == pytest.approx(-np.log(1e-300))


def decay_moves(lam, lr=0.1):
    """Each decayed weight before one `model.sgd_step` with zero data gradient
    and momentum 0, how far the step moved it, and the L2 term it returned."""
    cfg = M.reduced_config(input_len=100, c2_filters=2, f1=4, f2=4,  # <= 128 per tensor
                           l2_lambda=lam, learning_rate=lr, momentum=0.0)
    params = M.init_params(cfg, np.random.default_rng(3))
    before = {n: params.tensors[n].copy() for n in M.WEIGHT_NAMES}
    term = M.sgd_step(params, {k: np.zeros_like(v) for k, v in params.tensors.items()}, cfg)
    return params, before, {n: params.tensors[n] - w for n, w in before.items()}, term


def l2_term(name, w, lam):
    """`model.sgd_step`'s L2 term for a copy of `w` as the weight `name`,
    the only tensor, under a zero gradient."""
    cfg = M.reduced_config(l2_lambda=lam)
    params = M.ModelParameters(cfg, {name: w.copy()})
    return M.sgd_step(params, {name: np.zeros_like(w)}, cfg)


class TestL2Penalty:
    def test_zero_lambda(self):
        assert l2_term("f1_w", rand(4), 0.0) == 0.0
        _, _, moves, term = decay_moves(0.0)
        assert term == 0.0
        assert not any(m.any() for m in moves.values())

    def test_single_weight(self):
        assert l2_term("out_w", np.array([2.0]), 0.5) == 1.0
        params = decay_moves(0.5, lr=1.0)[0]
        params.tensors["out_w"][:] = 2.0
        M.sgd_step(params, {"out_w": np.zeros_like(params.tensors["out_w"])},
                   params.config)
        np.testing.assert_array_equal(params.tensors["out_w"], 1.0)

    def test_gradient_vs_finite_difference(self):
        # the step moves each decayed weight by -lr * d(term)/dw
        _, before, moves, term = decay_moves(0.3)
        assert len(moves) == 5
        assert term == pytest.approx(0.15 * sum(np.vdot(w, w) for w in before.values()),
                                     rel=1e-12)
        for name, w in before.items():
            err = T.finite_diff_check(lambda v: l2_term(name, v, 0.3), w, -moves[name] / 0.1)
            assert err < 1e-6, name

    def test_float32_term_of_a_large_weight_matches_float64(self):
        # 4M float32 squares summed at once in float32 (np.vdot) are off by
        # about 8e-6; summed per row of an update tile, then in float64, they
        # hold to 1e-7
        w = np.random.default_rng(0).standard_normal((1024, 4096), dtype=np.float32)
        want = 0.5 * 1e-4 * float(np.sum(w.astype(np.float64) ** 2))
        assert l2_term("f1_w", w, 1e-4) == pytest.approx(want, rel=1e-7)


class TestFiniteDiffCheck:
    def test_identity_function_exact(self):
        x = rand(5)
        err = T.finite_diff_check(lambda v: float(v.sum()), x, np.ones(5))
        assert err < 1e-10

    def test_deterministic(self):
        x = rand(6, 7)
        f = lambda v: float((v ** 2).sum())
        assert T.finite_diff_check(f, x, 2 * x) == T.finite_diff_check(f, x, 2 * x)

    def test_mask_skips_coordinates(self):
        x = np.array([1.0, 2.0])
        bad = np.array([0.0, 4.0])  # wrong on coordinate 0
        mask = np.array([False, True])
        err = T.finite_diff_check(lambda v: float((v ** 2).sum()), x, bad, mask=mask)
        assert err < 1e-6


class TestFiniteGuard:
    def test_accepts_finite(self):
        T.assert_finite("ok", rand(3))

    def test_rejects_nan(self):
        with pytest.raises(FloatingPointError):
            T.assert_finite("bad", np.array([1.0, np.nan]))
