"""Layer forward/backward primitives on (n, c, h, w) float tensors.

Backward passes are hand-written per layer and verified against central
finite differences in the test suite. Convolutions are grouped
cross-correlations accumulated tap by tap on the zero-padded image
flattened over rows, where each k x k tap is a contiguous offset, so no
window buffer is gathered and no gradient is folded back from one; the
forward runs all taps over one cache-sized column block at a time. Max
pooling keeps no argmax: its backward finds each window's max again in the
forward input. Eval-mode batch norm is folded into the conv that feeds it
on inference passes (``arch._fold_bn``).
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from ..errors import DimensionError, SpecError

# flip on to assert finite activations after every op (slow; debug only)
CHECK_FINITE = False


def _finite(t: np.ndarray) -> np.ndarray:
    if CHECK_FINITE and not np.all(np.isfinite(t)):
        raise FloatingPointError("non-finite activation")
    return t


def _conv_shapes(x, weight, stride, pad, groups):
    if x.ndim != 4:
        raise SpecError(f"expected 4-D input, got ndim={x.ndim}")
    n, cin, h, w = x.shape
    cout, cin_g, kh, kw = weight.shape
    if kh != kw:
        raise SpecError(f"only square kernels supported, got {kh}x{kw}")
    if cin % groups != 0 or cout % groups != 0:
        raise SpecError(f"groups={groups} must divide cin={cin} and cout={cout}")
    if cin_g != cin // groups:
        raise SpecError(f"weight expects cin/groups={cin_g}, input has {cin // groups}")
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    if out_h < 1 or out_w < 1:
        raise SpecError(f"kernel {kh} does not fit input {h}x{w} with pad {pad}")
    return n, cin, h, w, cout, kh, out_h, out_w


def _flat(x, k, pad):
    """Zero-padded x flattened over rows, (n, c, hp * wp + k - 1).

    At stride 1, tap (u, v) reads the contiguous slice at offset u * wp + v;
    the k - 1 spare zeros keep the last tap's slice in bounds.
    """
    n, c, h, w = x.shape
    if k == 1 and pad == 0:
        return x.reshape(n, c, h * w)
    hp, wp = h + 2 * pad, w + 2 * pad
    flat = np.zeros((n, c, hp * wp + k - 1))
    flat[:, :, : hp * wp].reshape(n, c, hp, wp)[:, :, pad : pad + h, pad : pad + w] = x
    return flat


# accumulator elements per column block of conv2d_forward (4 MiB). A
# block-sized temporary replaces a full-image one that was written and
# re-read once per tap; on a 2-core Xeon (4 MiB L2) 2^18-2^20 ran the 3x3
# convs at 400x400 fastest, 2^16 and a single block both slower
_BLOCK_ELEMS = 1 << 19


def _taps(weight, groups):
    """(k * k, groups, cout / groups, cin / groups): one matrix per tap."""
    cout, cin_g, k, _ = weight.shape
    per_group = weight.reshape(groups, cout // groups, cin_g, k * k)
    return np.ascontiguousarray(per_group.transpose(3, 0, 1, 2))


def conv2d_forward(x, weight, bias=None, stride=1, pad=0, groups=1):
    """Grouped cross-correlation; output (n, cout, (h+2p-k)/s+1, (w+2p-k)/s+1).

    Every tap is one matmul over the group axis, accumulated on the stride-1
    grid at padded width; the padded-width columns are cropped and a stride
    above 1 subsamples the result.
    """
    n, cin, h, w, cout, k, out_h, out_w = _conv_shapes(x, weight, stride, pad, groups)
    wp = w + 2 * pad
    span = (h + 2 * pad - k + 1) * wp
    xf = _flat(x, k, pad).reshape(n, groups, cin // groups, -1)
    taps = _taps(weight, groups)
    acc = np.empty((n, groups, cout // groups, span))
    # all k * k taps run over one column block before the next
    cols = max(wp, _BLOCK_ELEMS // (n * cout))
    tmp = np.empty((n, groups, cout // groups, min(cols, span)))
    for start in range(0, span, cols):
        stop = min(start + cols, span)
        blk, part = acc[..., start:stop], tmp[..., : stop - start]
        np.matmul(taps[0], xf[..., start:stop], out=blk)
        for t in range(1, k * k):
            off = (t // k) * wp + t % k + start
            blk += np.matmul(taps[t], xf[..., off : off + stop - start], out=part)
    out = acc.reshape(n, cout, -1, wp)[:, :, ::stride, : wp - k + 1 : stride]
    if bias is not None:
        out = out + bias[None, :, None, None]
    return _finite(out)


def conv2d_backward(x, weight, grad_out, stride=1, pad=0, groups=1):
    """Exact gradients of conv2d_forward: (grad_input, grad_weight, grad_bias)."""
    n, cin, h, w, cout, k, out_h, out_w = _conv_shapes(x, weight, stride, pad, groups)
    if grad_out.shape != (n, cout, out_h, out_w):
        raise SpecError(f"grad_out shape {grad_out.shape} != {(n, cout, out_h, out_w)}")
    hp, wp = h + 2 * pad, w + 2 * pad
    # grad_out on the forward's stride-1 grid; skipped positions and the
    # padded-width columns stay zero
    g1 = np.zeros((n, cout, hp - k + 1, wp))
    g1[:, :, ::stride, : wp - k + 1 : stride] = grad_out
    g1 = g1.reshape(n, groups, cout // groups, -1)
    span = g1.shape[-1]
    xf = _flat(x, k, pad).reshape(n, groups, cin // groups, -1)
    taps = _taps(weight, groups)
    grad_taps = np.empty_like(taps)
    grad_xf = np.zeros_like(xf)
    tmp = np.empty_like(grad_xf[..., :span])
    for t in range(k * k):
        off = (t // k) * wp + t % k
        grad_taps[t] = np.matmul(g1, xf[..., off : off + span].swapaxes(-1, -2)).sum(axis=0)
        grad_xf[..., off : off + span] += np.matmul(taps[t].swapaxes(-1, -2), g1, out=tmp)
    grad_w = grad_taps.transpose(1, 2, 3, 0).reshape(weight.shape)
    grad_x = grad_xf[..., : hp * wp].reshape(n, cin, hp, wp)[:, :, pad : pad + h, pad : pad + w]
    return grad_x, grad_w, grad_out.sum(axis=(0, 2, 3))


def channel_shuffle(x, groups):
    """Permute channels by reshaping (g, c/g) and transposing."""
    n, c, h, w = x.shape
    if c % groups != 0:
        raise SpecError(f"groups={groups} must divide channels={c}")
    return (
        x.reshape(n, groups, c // groups, h, w)
        .transpose(0, 2, 1, 3, 4)
        .reshape(n, c, h, w)
    )


def channel_shuffle_backward(grad_out, groups):
    # the inverse of shuffle(g) is shuffle(c/g)
    c = grad_out.shape[1]
    return channel_shuffle(grad_out, c // groups)


BN_EPS = 1e-5
BN_MOMENTUM = 0.9


def batchnorm_forward(x, scale, shift, running_mean, running_var, mode="eval"):
    """Per-channel normalization.

    Train mode normalizes with batch statistics and updates the running
    mean/var in place (momentum 0.9); eval mode uses the running stats.
    Returns (out, cache); the cache feeds batchnorm_backward in train mode.
    """
    if mode == "train":
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        running_mean *= BN_MOMENTUM
        running_mean += (1.0 - BN_MOMENTUM) * mu
        running_var *= BN_MOMENTUM
        running_var += (1.0 - BN_MOMENTUM) * var
    elif mode == "eval":
        mu = running_mean
        var = running_var
    else:
        raise ValueError(f"unknown mode {mode!r}")
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mu[None, :, None, None]) * inv_std[None, :, None, None]
    out = scale[None, :, None, None] * xhat + shift[None, :, None, None]
    return _finite(out), (xhat, inv_std, mode)


def batchnorm_backward(grad_out, scale, cache):
    """(grad_input, grad_scale, grad_shift) for the cached forward pass."""
    xhat, inv_std, mode = cache
    grad_scale = (grad_out * xhat).sum(axis=(0, 2, 3))
    grad_shift = grad_out.sum(axis=(0, 2, 3))
    gxhat = grad_out * scale[None, :, None, None]
    if mode == "eval":
        return gxhat * inv_std[None, :, None, None], grad_scale, grad_shift
    n, _, h, w = grad_out.shape
    m = n * h * w
    sum_g = gxhat.sum(axis=(0, 2, 3), keepdims=True)
    sum_gx = (gxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
    grad_x = (inv_std[None, :, None, None] / m) * (m * gxhat - sum_g - xhat * sum_gx)
    return grad_x, grad_scale, grad_shift


def relu(x):
    return np.maximum(x, 0.0)


def relu_backward(grad_out, x):
    return grad_out * (x > 0.0)


def sigmoid(x):
    return expit(x)


def sigmoid_backward(grad_out, y):
    return grad_out * y * (1.0 - y)


def maxpool2_forward(x):
    """2x2 stride-2 max: the elementwise max of the four strided views."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise DimensionError(f"pooling needs even spatial dims, got {h}x{w}")
    top = np.maximum(x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2])
    return np.maximum(top, np.maximum(x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2]), out=top)


def maxpool2_backward(grad_out, x):
    """Routes each window's gradient to its max in the forward input x;
    ties go to the first max in row-major order (top-left first)."""
    out = maxpool2_forward(x)
    grad_x = np.zeros_like(x)
    free = np.ones(out.shape, dtype=bool)
    for dy in (0, 1):
        for dx in (0, 1):
            hit = free & (x[:, :, dy::2, dx::2] == out)
            grad_x[:, :, dy::2, dx::2] = grad_out * hit
            free &= ~hit
    return grad_x


def upsample_nearest(x):
    """Double both spatial dims by pixel replication."""
    return x.repeat(2, axis=2).repeat(2, axis=3)


def upsample_nearest_backward(grad_out):
    n, c, h, w = grad_out.shape
    return grad_out.reshape(n, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))
