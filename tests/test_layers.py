import math
import tracemalloc
import warnings

import numpy as np
import pytest

from evofuse.errors import DimensionError, RangeError, SpecError
from evofuse.net import layers
from evofuse.net.arch import BatchNorm, BNParams, ConvParams, fire, inception, separable

from oracles import (
    _same,
    block_backward,
    block_forward,
    conv2d_backward,
    conv2d_backward_two_loops,
    conv2d_forward,
    conv2d_oracle,
    finite_diff_grad,
    relative_err,
)

GRAD_TOL = 1e-3
FD_H = 1e-3


# the conv tests run every (k, pad) with k in {1, 3, 5} and pad in {0, k // 2}
# at each (groups, stride) with groups in {1, 2, cin = 4} and stride in {1, 2}
KERNEL_PADS = [(1, 0), (3, 0), (3, 1), (5, 0), (5, 2)]
GROUPS_STRIDES = [(g, s) for g in (1, 2, 4) for s in (1, 2)]


def both_stackings(monkeypatch):
    """KERNEL_PADS twice: with one matmul per tap, then with all k * k taps of
    a column block stacked into one matmul, whatever the channel count."""
    for stack_below in (0, 1 << 30):
        monkeypatch.setattr(layers, "_STACK_BELOW", stack_below)
        yield from KERNEL_PADS


def spaced_values(rng, shape, step=0.01):
    """Random tensors whose entries differ by >= step and sit away from zero,
    so +-h perturbations cannot flip max-pool or ReLU decisions during
    finite differencing."""
    n = int(np.prod(shape))
    vals = (rng.permutation(n) + 0.5 - n / 2) * step + rng.uniform(-0.002, 0.002, n)
    return vals.reshape(shape)


class TestConvForward:
    def test_1x1_identity(self, rng):
        x = rng.random((1, 3, 4, 4))
        w = np.ones((3, 1, 1, 1))
        out = conv2d_forward(x, w, None, groups=3)
        np.testing.assert_allclose(out, x)

    def test_all_ones_kernel_interior(self):
        x = np.ones((1, 1, 4, 4))
        w = np.ones((1, 1, 3, 3))
        b = np.array([0.25])
        out = conv2d_forward(x, w, b, pad=0)
        np.testing.assert_allclose(out, 9.0 + 0.25)

    @pytest.mark.parametrize("groups,stride", GROUPS_STRIDES)
    def test_matches_naive_oracle(self, rng, monkeypatch, groups, stride):
        for k, pad in both_stackings(monkeypatch):
            x = rng.standard_normal((2, 4, 7, 6))
            w = rng.standard_normal((8, 4 // groups, k, k))
            b = rng.standard_normal(8)
            fast = conv2d_forward(x, w, b, stride=stride, pad=pad, groups=groups)
            slow = conv2d_oracle(x, w, b, stride=stride, pad=pad, groups=groups)
            assert fast.shape == slow.shape, (k, pad)
            assert np.max(np.abs(fast - slow)) < 1e-6, (k, pad)

    @pytest.mark.parametrize("groups,stride", GROUPS_STRIDES)
    def test_matches_naive_oracle_across_column_blocks(
        self, rng, monkeypatch, partial_blocks, groups, stride
    ):
        """The oracle grid again with every flat span split into >= 3 column
        blocks, the last one partial."""
        n, cout = 2, 8
        for k, pad in both_stackings(monkeypatch):
            x = rng.standard_normal((n, 4, 7, 6))
            w = rng.standard_normal((cout, 4 // groups, k, k))
            b = rng.standard_normal(cout)
            fast = conv2d_forward(x, w, b, stride=stride, pad=pad, groups=groups)
            slow = conv2d_oracle(x, w, b, stride=stride, pad=pad, groups=groups)
            assert fast.shape == slow.shape, (k, pad)
            assert np.max(np.abs(fast - slow)) < 1e-6, (k, pad)
        assert len(partial_blocks) == 2 * len(KERNEL_PADS)
        assert all(split for _, split in partial_blocks)

    def test_groups_must_divide(self, rng):
        with pytest.raises(SpecError):
            conv2d_forward(rng.random((1, 3, 4, 4)), rng.random((4, 1, 3, 3)), None, groups=2)

    def test_groups_one_equals_ungrouped(self, rng):
        x = rng.standard_normal((1, 4, 5, 5))
        w = rng.standard_normal((4, 4, 3, 3))
        a = conv2d_forward(x, w, None, pad=1, groups=1)
        b = conv2d_forward(x, w, None, pad=1)
        np.testing.assert_array_equal(a, b)


class TestConvBackward:
    def test_zero_grad_out(self, rng):
        x = rng.random((1, 2, 5, 5))
        w = rng.random((4, 2, 3, 3))
        gx, gw, gb = conv2d_backward(x, w, np.zeros((1, 4, 5, 5)), pad=1)
        assert not gx.any() and not gw.any() and not gb.any()

    def test_single_pixel_1x1(self, rng):
        x = rng.random((1, 1, 1, 1))
        w = rng.random((1, 1, 1, 1))
        g = rng.random((1, 1, 1, 1))
        gx, gw, gb = conv2d_backward(x, w, g)
        assert abs(gw[0, 0, 0, 0] - x[0, 0, 0, 0] * g[0, 0, 0, 0]) < 1e-12
        assert abs(gx[0, 0, 0, 0] - w[0, 0, 0, 0] * g[0, 0, 0, 0]) < 1e-12

    @pytest.mark.parametrize("groups,stride", GROUPS_STRIDES)
    def test_matches_finite_differences(self, rng, monkeypatch, groups, stride):
        for k, pad in both_stackings(monkeypatch):
            x = rng.standard_normal((2, 4, 7, 6))
            w = 0.3 * rng.standard_normal((4, 4 // groups, k, k))
            b = 0.1 * rng.standard_normal(4)
            target = rng.standard_normal(
                conv2d_forward(x, w, b, stride=stride, pad=pad, groups=groups).shape
            )

            def loss():
                out = conv2d_forward(x, w, b, stride=stride, pad=pad, groups=groups)
                return float((out * target).sum())

            gx, gw, gb = conv2d_backward(x, w, target, stride=stride, pad=pad, groups=groups)
            assert relative_err(finite_diff_grad(loss, x, FD_H), gx) < GRAD_TOL, (k, pad)
            assert relative_err(finite_diff_grad(loss, w, FD_H), gw) < GRAD_TOL, (k, pad)
            assert relative_err(finite_diff_grad(loss, b, FD_H), gb) < GRAD_TOL, (k, pad)

    @pytest.mark.parametrize("groups,stride", GROUPS_STRIDES)
    def test_adjoint_identity(self, rng, monkeypatch, groups, stride):
        """conv is bilinear in (x, w): <conv(x, w), g> = <x, g_x> = <w, g_w>."""
        for k, pad in both_stackings(monkeypatch):
            x = rng.standard_normal((2, 4, 7, 6))
            w = rng.standard_normal((8, 4 // groups, k, k))
            out = conv2d_forward(x, w, None, stride=stride, pad=pad, groups=groups)
            g = rng.standard_normal(out.shape)
            gx, gw, _ = conv2d_backward(x, w, g, stride=stride, pad=pad, groups=groups)
            lhs = (out * g).sum()
            assert (x * gx).sum() == pytest.approx(lhs, rel=1e-12), (k, pad)
            assert (w * gw).sum() == pytest.approx(lhs, rel=1e-12), (k, pad)

    @pytest.mark.parametrize("groups,stride", GROUPS_STRIDES)
    def test_adjoint_identity_across_column_blocks(
        self, rng, monkeypatch, partial_blocks, groups, stride
    ):
        """The adjoint identity against the naive oracle's forward, with the
        one backward loop (grad_x and grad_w together) split into >= 3 column
        blocks, the last one partial."""
        for k, pad in both_stackings(monkeypatch):
            x = rng.standard_normal((2, 4, 7, 6))
            w = rng.standard_normal((8, 4 // groups, k, k))
            out = conv2d_oracle(x, w, None, stride=stride, pad=pad, groups=groups)
            g = rng.standard_normal(out.shape)
            gx, gw, _ = conv2d_backward(x, w, g, stride=stride, pad=pad, groups=groups)
            lhs = (out * g).sum()
            assert (x * gx).sum() == pytest.approx(lhs, rel=1e-12), (k, pad)
            assert (w * gw).sum() == pytest.approx(lhs, rel=1e-12), (k, pad)
        assert len(partial_blocks) == 2 * len(KERNEL_PADS)
        assert all(split for _, split in partial_blocks)


    @pytest.mark.parametrize("groups,stride", GROUPS_STRIDES)
    def test_weight_gradient_alone_matches_two_loops(self, rng, monkeypatch, partial_blocks,
                                                     groups, stride):
        """Without grad_x, the one loop shifts the side with fewer channels
        per group (the input at 4 -> 8 channels, the gradient at 8 -> 4);
        grad_w and grad_b still equal the two-loop reference."""
        for k, pad in both_stackings(monkeypatch):
            for cin, cout in ((4, 8), (8, 4)):
                x = rng.standard_normal((2, cin, 7, 6))
                w = rng.standard_normal((cout, cin // groups, k, k))
                out = conv2d_forward(x, w, None, stride=stride, pad=pad, groups=groups)
                g = rng.standard_normal(out.shape)
                _, want_w, want_b = conv2d_backward_two_loops(x, w, g, stride, pad, groups)
                xf, grid, _, crop = _same(x, w, stride, pad, groups)
                gf = grid.zeros(2, cout)
                grid.inner(gf)[crop] = g
                gx, gw, gb = layers._conv_backward(xf, gf, w, grid, 1, groups, False, False)
                assert gx is None
                np.testing.assert_allclose(gw, want_w, rtol=1e-12, atol=1e-12, err_msg=str((k, pad)))
                np.testing.assert_allclose(gb, want_b, rtol=1e-12, atol=1e-12)
        assert all(split for _, split in partial_blocks)


class TestChannelShuffle:
    def test_groups_one_identity(self, rng):
        x = rng.random((1, 6, 2, 2))
        np.testing.assert_array_equal(layers.channel_shuffle(x, 1), x)

    def test_four_channels_two_groups(self):
        x = np.arange(4, dtype=float).reshape(1, 4, 1, 1)
        out = layers.channel_shuffle(x, 2)
        assert out.ravel().tolist() == [0.0, 2.0, 1.0, 3.0]

    def test_inverse_composition(self, rng):
        x = rng.random((2, 12, 3, 3))
        for g in (2, 3, 4, 6):
            back = layers.channel_shuffle(layers.channel_shuffle(x, g), 12 // g)
            np.testing.assert_array_equal(back, x)

    def test_indivisible_rejected(self, rng):
        with pytest.raises(SpecError):
            layers.channel_shuffle(rng.random((1, 5, 2, 2)), 2)

    def test_backward_is_inverse_permutation(self, rng):
        x = rng.random((1, 8, 2, 2))
        g = rng.random((1, 8, 2, 2))
        # <shuffle(x), g> == <x, shuffle_backward(g)>
        lhs = float((layers.channel_shuffle(x, 4) * g).sum())
        rhs = float((x * layers.channel_shuffle_backward(g, 4)).sum())
        assert abs(lhs - rhs) < 1e-12


class TestBatchNorm:
    def test_eval_identity_params(self, rng):
        x = rng.random((2, 3, 4, 4))
        out, _ = layers.batchnorm_forward(
            x, np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), mode="eval"
        )
        assert np.max(np.abs(out - x)) < 1e-4  # eps-only deviation

    def test_train_normalizes(self, rng):
        x = 3.0 + 2.0 * rng.standard_normal((4, 3, 8, 8))
        scale = np.array([1.0, 2.0, 0.5])
        shift = np.array([0.0, 1.0, -1.0])
        out, _ = layers.batchnorm_forward(
            x, scale, shift, np.zeros(3), np.ones(3), mode="train"
        )
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), shift, atol=1e-3)
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), scale**2, rtol=1e-3)

    def test_running_stats_updated(self, rng):
        x = rng.standard_normal((2, 2, 4, 4)) + 5.0
        rm, rv = np.zeros(2), np.ones(2)
        layers.batchnorm_forward(x, np.ones(2), np.zeros(2), rm, rv, mode="train")
        np.testing.assert_allclose(rm, 0.1 * x.mean(axis=(0, 2, 3)), atol=1e-12)

    def test_matches_statistics_oracle(self, rng):
        x = rng.standard_normal((3, 2, 5, 5))
        scale = rng.random(2) + 0.5
        shift = rng.standard_normal(2)
        out, _ = layers.batchnorm_forward(x, scale, shift, np.zeros(2), np.ones(2), "train")
        mu = x.mean(axis=(0, 2, 3), keepdims=True)
        var = x.var(axis=(0, 2, 3), keepdims=True)
        expected = scale[None, :, None, None] * (x - mu) / np.sqrt(var + 1e-5) + shift[
            None, :, None, None
        ]
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_unknown_mode_raises(self, rng):
        with pytest.raises(RangeError, match="mode"):
            layers.batchnorm_forward(rng.random((1, 2, 3, 3)), np.ones(2), np.zeros(2), np.zeros(2), np.ones(2), "test")

    def test_train_backward_finite_differences(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        scale = rng.random(3) + 0.5
        shift = rng.standard_normal(3)
        target = rng.standard_normal(x.shape)

        def loss():
            out, _ = layers.batchnorm_forward(
                x, scale, shift, np.zeros(3), np.ones(3), "train"
            )
            return float((out * target).sum())

        _, cache = layers.batchnorm_forward(x, scale, shift, np.zeros(3), np.ones(3), "train")
        gx, gscale, gshift = layers.batchnorm_backward(target, scale, cache)
        assert relative_err(finite_diff_grad(loss, x, FD_H), gx) < GRAD_TOL
        assert relative_err(finite_diff_grad(loss, scale, FD_H), gscale) < GRAD_TOL
        assert relative_err(finite_diff_grad(loss, shift, FD_H), gshift) < GRAD_TOL


class TestBatchNormOnBuffers:
    """arch.BatchNorm on padded-flat buffers, in place as the path driver
    runs it: the output's and the input gradient's borders stay exactly
    zero, and train statistics stay exact when |mean| >> std."""

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_borders_and_statistics(self, rng, p, mode):
        n, c, h, w = 2, 3, 5, 7
        g = layers.Grid(h, w, p)
        mu, sigma = 1e4 * (1.0 + rng.random(c)), 1e-2 * (1.0 + rng.random(c))
        interior = mu[:, None, None] + sigma[:, None, None] * rng.standard_normal((n, c, h, w))
        x, gy, mask = g.zeros(n, c), g.zeros(n, c), g.zeros(1, 1)
        g.inner(x)[...] = interior
        g.inner(gy)[...] = rng.standard_normal((n, c, h, w))
        g.inner(mask)[...] = 1.0
        border = mask[0, 0] == 0.0
        running = (np.zeros(c), np.zeros(c)) if mode == "train" else (mu, sigma**2)
        params = BNParams(rng.random(c) + 0.5, rng.standard_normal(c), *running)
        bn = BatchNorm(c)
        cache = bn.forward(params, x, g, x, mode, True)
        gx, _ = bn.backward(params, cache, gy, True)
        assert np.all(x[..., border] == 0.0) and np.all(gx[..., border] == 0.0)
        if mode == "eval":
            return
        # the running statistics started at 0, so they hold 0.1 x the batch's
        for ch in range(c):
            vals = interior[:, ch].ravel().tolist()
            mean = math.fsum(vals) / len(vals)
            var = math.fsum((v - mean) ** 2 for v in vals) / len(vals)
            keep = 1.0 - layers.BN_MOMENTUM
            np.testing.assert_allclose(params.running_mean[ch], keep * mean, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(params.running_var[ch], keep * var, rtol=1e-12, atol=0.0)


class TestNoAliasing:
    """Conv and BN do part of their arithmetic in place; it must land only in
    buffers they allocate, and in BN's running statistics."""

    def test_conv_leaves_inputs_unchanged(self, rng, monkeypatch):
        for k, pad in both_stackings(monkeypatch):
            x, w = rng.standard_normal((2, 4, 7, 6)), rng.standard_normal((8, 2, k, k))
            b = rng.standard_normal(8)
            g = rng.standard_normal(conv2d_forward(x, w, b, pad=pad, groups=2).shape)
            before = [a.copy() for a in (x, w, b, g)]
            out = conv2d_forward(x, w, b, pad=pad, groups=2)
            grads = conv2d_backward(x, w, g, pad=pad, groups=2)
            for a, a0 in zip((x, w, b, g), before):
                np.testing.assert_array_equal(a, a0)
            for r in (out, *grads):
                assert not any(np.shares_memory(r, a) for a in (x, w, b, g)), (k, pad)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_batchnorm_moves_only_running_stats(self, rng, mode):
        x, g = rng.standard_normal((2, 3, 4, 4)) + 2.0, rng.standard_normal((2, 3, 4, 4))
        scale, shift = rng.random(3) + 0.5, rng.standard_normal(3)
        running_mean, running_var = rng.standard_normal(3), rng.random(3) + 0.5
        fixed = [x, g, scale, shift]
        before = [a.copy() for a in fixed + [running_mean, running_var]]
        _, cache = layers.batchnorm_forward(x, scale, shift, running_mean, running_var, mode)
        assert not np.shares_memory(cache[0], x)
        layers.batchnorm_backward(g, scale, cache)
        for a, a0 in zip(fixed, before):
            np.testing.assert_array_equal(a, a0)
        for a, a0 in zip((running_mean, running_var), before[4:]):
            assert np.array_equal(a, a0) == (mode == "eval")


class TestPoolAndUpsample:
    def test_constant_pool_tie_top_left(self):
        x = np.full((1, 1, 4, 4), 0.7)
        out = layers.maxpool2_forward(x)
        np.testing.assert_allclose(out, 0.7)
        routed = layers.maxpool2_backward(np.ones_like(out), x)
        # ties resolve to the top-left corner
        assert (routed[:, :, 0::2, 0::2] == 1).all() and routed.sum() == out.size

    def test_upsample_of_pool_on_blockconstant(self, rng):
        small = rng.random((1, 2, 3, 3))
        x = layers.upsample_nearest(small)
        out = layers.maxpool2_forward(x)
        np.testing.assert_array_equal(layers.upsample_nearest(out), x)

    def test_pool_matches_window_max(self, rng):
        x = rng.random((2, 3, 4, 4))
        out = layers.maxpool2_forward(x)
        for n in range(2):
            for c in range(3):
                for i in range(2):
                    for j in range(2):
                        window = x[n, c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                        assert out[n, c, i, j] == window.max()

    def test_odd_dims_rejected(self, rng):
        with pytest.raises(DimensionError):
            layers.maxpool2_forward(rng.random((1, 1, 5, 4)))

    @pytest.mark.parametrize("padded", [False, True])
    def test_pool_into_out_allocates_no_temporary(self, rng, padded):
        """maxpool2_forward(x, out) takes its maxima in out: its tracemalloc
        peak stays below out's size, for a plain out and for the interior of
        a padded-flat buffer."""
        x = rng.random((2, 4, 64, 96))
        grid = layers.Grid(32, 48, 1)
        out = grid.inner(grid.zeros(2, 4)) if padded else np.zeros((2, 4, 32, 48))
        tracemalloc.start()
        try:
            layers.maxpool2_forward(x, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.size * out.itemsize
        np.testing.assert_array_equal(out, x.reshape(2, 4, 32, 2, 48, 2).max(axis=(3, 5)))

    def test_pool_backward_finite_differences(self, rng):
        x = spaced_values(rng, (2, 2, 4, 4))
        target = rng.standard_normal((2, 2, 2, 2))

        def loss():
            out = layers.maxpool2_forward(x)
            return float((out * target).sum())

        gx = layers.maxpool2_backward(target, x)
        assert relative_err(finite_diff_grad(loss, x, FD_H), gx) < GRAD_TOL

    def test_upsample_backward_adjoint(self, rng):
        x = rng.random((1, 2, 3, 3))
        g = rng.random((1, 2, 6, 6))
        lhs = float((layers.upsample_nearest(x) * g).sum())
        rhs = float((x * layers.upsample_nearest_backward(g)).sum())
        assert abs(lhs - rhs) < 1e-12


def fire_params(sq, e1, e3):
    """Params of a ``fire`` block from (weight, bias) tuples: one path of
    squeeze conv, ReLU, Branch(1x1 expand, 3x3 expand), ReLU."""
    return [[ConvParams(*sq), None, [[ConvParams(*e1)], [ConvParams(*e3)]], None]]


class TestFire:
    def params(self, rng, cin=4, squeeze=2, e1=3, e3=3):
        mk = lambda cout, cin_, k: (
            0.4 * rng.standard_normal((cout, cin_, k, k)),
            0.2 * rng.standard_normal(cout),
        )
        return mk(squeeze, cin, 1), mk(e1, squeeze, 1), mk(e3, squeeze, 3)

    def test_zero_weights_zero_output(self, rng):
        x = rng.random((1, 4, 5, 5))
        zeros = lambda cout, cin_, k: (np.zeros((cout, cin_, k, k)), np.zeros(cout))
        p = fire_params(zeros(2, 4, 1), zeros(3, 2, 1), zeros(3, 2, 3))
        out, _ = block_forward(fire(4, 2, 3, 3), p, x)
        assert not out.any()

    def test_output_channels_concat(self, rng):
        p = fire_params(*self.params(rng))
        out, _ = block_forward(fire(4, 2, 3, 3), p, rng.random((1, 4, 5, 5)))
        assert out.shape == (1, 6, 5, 5)

    def test_equals_primitive_composition(self, rng):
        sq, e1, e3 = self.params(rng)
        x = rng.standard_normal((2, 4, 6, 6))
        out, _ = block_forward(fire(4, 2, 3, 3), fire_params(sq, e1, e3), x)
        s = layers.relu(conv2d_forward(x, sq[0], sq[1], pad=0))
        o1 = conv2d_forward(s, e1[0], e1[1], pad=0)
        o3 = conv2d_forward(s, e3[0], e3[1], pad=1)
        expected = layers.relu(np.concatenate([o1, o3], axis=1))
        assert np.max(np.abs(out - expected)) < 1e-6

    def test_squeeze_wider_than_expand_rejected(self):
        with pytest.raises(SpecError):
            fire(4, 7, 3, 3)

    def test_backward_finite_differences(self):
        # seed chosen so every internal pre-activation clears the ReLU kink
        # by more than the finite-difference step
        rng = np.random.default_rng(20)
        sq, e1, e3 = self.params(rng)
        x = spaced_values(rng, (1, 4, 5, 5), step=0.05)
        s_pre = conv2d_forward(x, sq[0], sq[1], pad=0)
        assert np.abs(s_pre).min() > 10 * FD_H
        target = rng.standard_normal((1, 6, 5, 5))
        block, p = fire(4, 2, 3, 3), fire_params(sq, e1, e3)

        def loss():
            out, _ = block_forward(block, p, x)
            return float((out * target).sum())

        out, cache = block_forward(block, p, x)
        gx, grads = block_backward(block, p, cache, target)
        assert relative_err(finite_diff_grad(loss, x, FD_H), gx) < GRAD_TOL
        for w, gw in zip(block.arrays(p, with_running=False), grads, strict=True):
            assert relative_err(finite_diff_grad(loss, w, FD_H), gw) < GRAD_TOL


@pytest.mark.parametrize("block", [separable(4, 6, 3), inception(4, 2, 4, 2, groups=2)])
def test_composite_backward_finite_differences(rng, block):
    """Separable and Inception blocks: gradients of every array and of the input."""
    p = block.init(rng)
    for w in block.arrays(p, with_running=False):
        w[...] = 0.4 * rng.standard_normal(w.shape)
    x = rng.standard_normal((2, 4, 5, 5))
    target = rng.standard_normal(block_forward(block, p, x)[0].shape)

    def loss():
        return float((block_forward(block, p, x)[0] * target).sum())

    _, cache = block_forward(block, p, x)
    gx, grads = block_backward(block, p, cache, target)
    assert relative_err(finite_diff_grad(loss, x, FD_H), gx) < GRAD_TOL
    for w, gw in zip(block.arrays(p, with_running=False), grads, strict=True):
        assert relative_err(finite_diff_grad(loss, w, FD_H), gw) < GRAD_TOL


def test_finite_check_flag(rng):
    x = rng.random((1, 1, 4, 4))
    x[0, 0, 0, 0] = np.inf
    w = np.ones((1, 1, 1, 1))
    conv2d_forward(x, w, None)  # silent by default
    layers.CHECK_FINITE = True
    try:
        with pytest.raises(FloatingPointError):
            conv2d_forward(x, w, None)
    finally:
        layers.CHECK_FINITE = False


class TestActivations:
    def test_sigmoid_backward_finite_differences(self, rng):
        x = rng.standard_normal((2, 1, 4, 4))
        target = rng.standard_normal(x.shape)

        def loss():
            return float((layers.sigmoid(x) * target).sum())

        y = layers.sigmoid(x)
        gx = layers.sigmoid_backward(target, y)
        assert relative_err(finite_diff_grad(loss, x, FD_H), gx) < GRAD_TOL

    def test_sigmoid_saturates_without_overflow(self):
        x = np.array([-800.0, -40.0, 0.0, 40.0, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = layers.sigmoid(x)
        assert y[0] == 0.0 and y[2] == 0.5 and y[4] == 1.0
        np.testing.assert_allclose(y[1] + y[3], 1.0, rtol=0.0, atol=1e-15)

    def test_relu_backward(self, rng):
        x = spaced_values(rng, (2, 2, 3, 3))
        g = rng.standard_normal(x.shape)
        gx = layers.relu_backward(g, x)
        assert relative_err(finite_diff_grad(
            lambda: float((layers.relu(x) * g).sum()), x, FD_H), gx) < GRAD_TOL
