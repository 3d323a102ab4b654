"""Layer forward/backward primitives on (n, c, h, w) float tensors.

Backward passes are hand-written per layer and verified against central
finite differences in the test suite. Convolutions are grouped
cross-correlations implemented with strided window views; the column
buffer is chunked over output rows to bound memory at large inputs.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

from ..errors import DimensionError, SpecError

# flip on to assert finite activations after every op (slow; debug only)
CHECK_FINITE = False

_COL_CHUNK_ELEMS = 4 << 20  # max im2col buffer elements per chunk


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


def _windows(xp, k, stride):
    # (n, c, out_h, out_w, k, k) view over the padded input
    win = sliding_window_view(xp, (k, k), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def _row_chunks(out_h, per_row_elems):
    rows = max(1, int(_COL_CHUNK_ELEMS // max(per_row_elems, 1)))
    for r0 in range(0, out_h, rows):
        yield r0, min(r0 + rows, out_h)


def conv2d_forward(x, weight, bias=None, stride=1, pad=0, groups=1):
    """Grouped cross-correlation; output (n, cout, (h+2p-k)/s+1, (w+2p-k)/s+1)."""
    n, cin, h, w, cout, k, out_h, out_w = _conv_shapes(x, weight, stride, pad, groups)
    cpg_in = cin // groups
    cpg_out = cout // groups
    if k == 1 and stride == 1 and pad == 0:
        # pointwise fast path: plain channel matmul, no window gathering
        out = np.empty((n, cout, h, w), dtype=np.float64)
        xf = x.reshape(n, cin, h * w)
        for g in range(groups):
            wg = weight[g * cpg_out : (g + 1) * cpg_out, :, 0, 0]
            src = xf[:, g * cpg_in : (g + 1) * cpg_in]
            out[:, g * cpg_out : (g + 1) * cpg_out] = (wg @ src).reshape(n, cpg_out, h, w)
        if bias is not None:
            out += bias[None, :, None, None]
        return _finite(out)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    win = _windows(xp, k, stride)
    out = np.empty((n, cout, out_h, out_w), dtype=np.float64)
    ck = cpg_in * k * k
    per_row = n * out_w * cin * k * k
    for r0, r1 in _row_chunks(out_h, per_row):
        # one gather for every channel; groups slice it contiguously
        cols = win[:, :, r0:r1].transpose(0, 2, 3, 1, 4, 5).reshape(n, -1, cin * k * k)
        for g in range(groups):
            wg = weight[g * cpg_out : (g + 1) * cpg_out].reshape(cpg_out, ck)
            res = cols[:, :, g * ck : (g + 1) * ck] @ wg.T  # (n, rows*out_w, cpg_out)
            out[:, g * cpg_out : (g + 1) * cpg_out, r0:r1] = res.transpose(0, 2, 1).reshape(
                n, cpg_out, r1 - r0, out_w
            )
    if bias is not None:
        out += bias[None, :, None, None]
    return _finite(out)


def conv2d_backward(x, weight, grad_out, stride=1, pad=0, groups=1):
    """Exact gradients of conv2d_forward: (grad_input, grad_weight, grad_bias)."""
    n, cin, h, w, cout, k, out_h, out_w = _conv_shapes(x, weight, stride, pad, groups)
    if grad_out.shape != (n, cout, out_h, out_w):
        raise SpecError(f"grad_out shape {grad_out.shape} != {(n, cout, out_h, out_w)}")
    cpg_in = cin // groups
    cpg_out = cout // groups
    grad_b = grad_out.sum(axis=(0, 2, 3))
    if k == 1 and stride == 1 and pad == 0:
        grad_w = np.zeros_like(weight)
        grad_x = np.empty_like(x)
        xf = x.reshape(n, cin, h * w)
        gf = grad_out.reshape(n, cout, h * w)
        for g in range(groups):
            in_sl = slice(g * cpg_in, (g + 1) * cpg_in)
            out_sl = slice(g * cpg_out, (g + 1) * cpg_out)
            wg = weight[out_sl, :, 0, 0]
            grad_w[out_sl, :, 0, 0] = np.einsum("nop,ncp->oc", gf[:, out_sl], xf[:, in_sl])
            grad_x[:, in_sl] = np.einsum("oc,nop->ncp", wg, gf[:, out_sl]).reshape(
                n, cpg_in, h, w
            )
        return grad_x, grad_w, grad_b
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    win = _windows(xp, k, stride)
    grad_w = np.zeros_like(weight)
    grad_xp = np.zeros_like(xp)
    ck = cpg_in * k * k
    per_row = n * out_w * cin * k * k
    for r0, r1 in _row_chunks(out_h, per_row):
        cols = win[:, :, r0:r1].transpose(0, 2, 3, 1, 4, 5).reshape(n, -1, cin * k * k)
        gcols = np.empty_like(cols)
        for g in range(groups):
            out_sl = slice(g * cpg_out, (g + 1) * cpg_out)
            wg = weight[out_sl].reshape(cpg_out, ck)
            go = grad_out[:, out_sl, r0:r1].reshape(n, cpg_out, -1)
            grad_w[out_sl] += np.einsum(
                "ncp,npk->ck", go, cols[:, :, g * ck : (g + 1) * ck]
            ).reshape(cpg_out, cpg_in, k, k)
            gcols[:, :, g * ck : (g + 1) * ck] = go.transpose(0, 2, 1) @ wg
        gc = gcols.reshape(n, r1 - r0, out_w, cin, k, k).transpose(0, 3, 1, 2, 4, 5)
        for u in range(k):
            for v in range(k):
                grad_xp[
                    :,
                    :,
                    u + r0 * stride : u + r1 * stride : stride,
                    v : v + out_w * stride : stride,
                ] += gc[..., u, v]
    grad_x = grad_xp[:, :, pad : pad + h, pad : pad + w] if pad else grad_xp
    return grad_x, grad_w, grad_b


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
    """2x2 stride-2 max with saved argmax indices; ties go top-left."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise DimensionError(f"pooling needs even spatial dims, got {h}x{w}")
    windows = (
        x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // 2, w // 2, 4)
    )
    idx = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    return out, idx


def maxpool2_backward(grad_out, idx, in_shape):
    n, c, h, w = in_shape
    windows = np.zeros((n, c, h // 2, w // 2, 4), dtype=np.float64)
    np.put_along_axis(windows, idx[..., None], grad_out[..., None], axis=-1)
    return (
        windows.reshape(n, c, h // 2, w // 2, 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h, w)
    )


def upsample_nearest(x):
    """Double both spatial dims by pixel replication."""
    return x.repeat(2, axis=2).repeat(2, axis=3)


def upsample_nearest_backward(grad_out):
    n, c, h, w = grad_out.shape
    return grad_out.reshape(n, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))
