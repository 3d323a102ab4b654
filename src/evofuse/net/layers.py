"""Layer forward/backward primitives on (n, c, h, w) float tensors.

Backward passes are hand-written per layer and checked against finite
differences. Convolutions are grouped cross-correlations summed over the
taps on the zero-padded image flattened over rows (the padded-flat
layout), where each k x k tap is a contiguous offset, one cache-sized
column block at a time. Thin inputs (few channels per group) stack all
k * k tap slices of a block and run one matmul; wider ones run one per
tap. The backward shifts the gradient in one such loop: the input
gradient is the forward of the flipped, transposed taps, and the weight
gradient multiplies the same slices by the input. A 3 x 3 stride-1 conv
can write into the next one's padded-flat input, adding its bias and
running a following shuffle and ReLU per column block (``_conv_padded``);
batch norm runs on such buffers too. Train-mode batch norm takes two
passes (mean, then centred variance). Max pooling keeps no argmax: its
backward finds each window's max again.
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
    flat, inner = _padded(n, c, h, w, pad, k)
    inner[...] = x
    return flat


def _padded(n, c, h, w, pad=1, k=3):
    """A zero buffer in the layout of _flat and its (n, c, h, w) interior."""
    flat = np.zeros((n, c, (h + 2 * pad) * (w + 2 * pad) + k - 1))
    return flat, _interior(flat, h, w, pad)


def _interior(flat, h, w, pad=1):
    inner = flat[..., : (h + 2 * pad) * (w + 2 * pad)].reshape(*flat.shape[:2], h + 2 * pad, -1)
    return inner[:, :, pad : pad + h, pad : pad + w]


# elements of the largest operand per column block of the tap loop (4 MiB);
# on a 2-core Xeon (4 MiB L2) 2^18-2^20 ran the 3x3 convs at 400x400
# fastest, 2^16 and a single whole-image block both slower
_BLOCK_ELEMS = 1 << 19

# inputs with fewer channels per group than this stack all k * k shifted
# slices of a column block and run one matmul per block; wider inputs run
# one matmul per tap (stacking won at 2-16 channels, lost at 64)
_STACK_BELOW = 32


def _taps(weight, groups):
    """Tap matrices (k * k / s, groups, cout / groups, s * cin / groups) with
    s taps per matmul: s = 1, or s = k * k for thin inputs."""
    cout, cin_g, k, _ = weight.shape
    per_group = weight.reshape(groups, cout // groups, cin_g, k * k)
    if cin_g < _STACK_BELOW:
        return per_group.reshape(1, groups, cout // groups, cin_g * k * k)
    return np.ascontiguousarray(per_group.transpose(3, 0, 1, 2))


def _tap_blocks(src, k, wp, span, rows, stacked):
    """Column blocks [start, stop) of the flat span with the slices of src
    (n, groups, c, length) that the k * k taps read, at offset u * wp + v
    for tap (u, v). Stacked, the slices are copied into one buffer laid out
    as _taps lays out the weights. A block's largest operand, the stack or
    the rows of the other operands together, holds about _BLOCK_ELEMS
    elements."""
    n, groups, c, _ = src.shape
    offs = [(t // k) * wp + t % k for t in range(k * k)]
    stack_rows = n * groups * c * k * k if stacked else 0
    cols = max(wp, _BLOCK_ELEMS // max(rows, stack_rows))
    stack = np.empty((n, groups, c, k * k, min(cols, span))) if stacked else None
    for start in range(0, span, cols):
        stop = min(start + cols, span)
        views = [src[..., off + start : off + stop] for off in offs]
        if stacked:
            part = np.stack(views, axis=3, out=stack[..., : stop - start])
            views = [part.reshape(n, groups, c * k * k, stop - start)]
        yield start, stop, views


def _tap_sum(src, taps, k, wp, span, acc=None, bias=None, relu=False, other=None, grad=None):
    """acc[..., j] = the sum over taps of tap @ src[..., j + offset], j < span,
    in acc or a new array (none without taps); per column block, + bias and
    ReLU when given. With other, grad[t] += the sum over samples of tap t's
    slice of src @ other[..., j].T, from the same slices."""
    n, groups, c, _ = src.shape
    if taps is not None and acc is None:
        acc = np.empty((n, groups, taps.shape[2], span))
    rows = sum(a[..., 0].size for a in (acc, other) if a is not None)
    for start, stop, views in _tap_blocks(src, k, wp, span, rows, k > 1 and c < _STACK_BELOW):
        if taps is not None:
            blk = acc[..., start:stop]
            np.matmul(taps[0], views[0], out=blk)
            for tap, view in zip(taps[1:], views[1:]):
                blk += tap @ view
            if bias is not None:
                blk += bias
            if relu:
                np.maximum(blk, 0.0, out=blk)
        if other is not None:
            part = other[..., start:stop].swapaxes(-1, -2)
            for out, view in zip(grad, views):
                out += np.matmul(view, part).sum(axis=0)
    return acc


def conv2d_forward(x, weight, bias=None, stride=1, pad=0, groups=1):
    """Grouped cross-correlation; output (n, cout, (h+2p-k)/s+1, (w+2p-k)/s+1).

    The taps are summed on the stride-1 grid at padded width; the
    padded-width columns are cropped and a stride above 1 subsamples the
    result.
    """
    n, cin, h, w, cout, k, out_h, out_w = _conv_shapes(x, weight, stride, pad, groups)
    wp = w + 2 * pad
    xf = _flat(x, k, pad).reshape(n, groups, cin // groups, -1)
    acc = _tap_sum(xf, _taps(weight, groups), k, wp, (h + 2 * pad - k + 1) * wp)
    out = acc.reshape(n, cout, -1, wp)[:, :, ::stride, : wp - k + 1 : stride]
    if bias is not None:
        out = out + bias[None, :, None, None]
    return _finite(out)


def _conv_padded(x, xf, weight, bias, groups, shuffle, relu):
    """3 x 3, pad 1, stride 1 conv2d_forward of x, read from its buffer xf
    (as _flat(x, 3, 1)), then optional channel_shuffle(groups) and ReLU:
    (out's buffer laid out as xf, out). Sums land at offset wp + 1, through
    the shuffled view with shuffle; each row's two wrap columns land on the
    padding and are zeroed."""
    n, cin, h, w, cout, k, _, _ = _conv_shapes(x, weight, 1, 1, groups)
    wp, span = w + 2, h * (w + 2)
    flat, out = _padded(n, cout, h, w)
    acc = flat[..., wp + 1 : wp + 1 + span]
    dest = (acc.reshape(n, -1, groups, span).swapaxes(1, 2) if shuffle
            else acc.reshape(n, groups, -1, span))
    xf = xf.reshape(n, groups, cin // groups, -1)
    _tap_sum(xf, _taps(weight, groups), k, wp, span, dest, bias.reshape(groups, -1, 1), relu)
    acc.reshape(n, cout, h, wp)[..., w:] = 0.0
    return _finite(flat), out


def _zero_border(flat, h, w):
    """Zero the padding of a buffer laid out as _flat(x, 3, 1), in place."""
    wp = w + 2
    flat[..., : wp + 1] = flat[..., (h + 1) * wp + 1 :] = 0.0
    flat[..., wp + 1 : (h + 1) * wp + 1].reshape(*flat.shape[:2], h, wp)[..., w:] = 0.0


def _flip(weight, groups):
    """Per group, the weight transposed over channels and reversed over taps:
    the conv that carries gradients back to the input; its own inverse."""
    cout, cin_g, k, _ = weight.shape
    per_group = weight.reshape(groups, cout // groups, cin_g, k * k).swapaxes(1, 2)
    return per_group[..., ::-1].reshape(groups * cin_g, cout // groups, k, k)


def conv2d_backward(x, weight, grad_out, stride=1, pad=0, groups=1):
    """Exact gradients of conv2d_forward: (grad_input, grad_weight, grad_bias)."""
    n, cin, h, w, cout, k, out_h, out_w = _conv_shapes(x, weight, stride, pad, groups)
    if grad_out.shape != (n, cout, out_h, out_w):
        raise SpecError(f"grad_out shape {grad_out.shape} != {(n, cout, out_h, out_w)}")
    gx, gw, gb = _conv_backward(_flat(x, k, pad), weight, grad_out, h, w, stride, pad, groups)
    return _interior(gx, h, w, pad), gw, gb


def _conv_backward(xf, weight, grad_out, h, w, stride=1, pad=1, groups=1, shuffle=False,
                   want_x=True):
    """conv2d_backward from x's buffer xf (as _flat(x, k, pad)): grad_input's
    buffer in that layout, padding not zeroed (None without want_x),
    grad_weight, grad_bias; with shuffle, grad_out is the gradient of
    channel_shuffle(out, groups). grad_out goes on the forward's stride-1
    grid at padded width after (k - 1) * (wp + 1) zeros, and one tap loop
    over its shifted slices forms grad_input (the forward of _flip's taps)
    and grad_weight (the same slices times the unshifted input). Without
    grad_input, the loop shifts the side with fewer channels per group."""
    n, cin = xf.shape[:2]
    cout, cin_g, k, _ = weight.shape
    cout_g, hp, wp = cout // groups, h + 2 * pad, w + 2 * pad
    span, lead = (hp - k + 1) * wp, (k - 1) * (wp + 1)
    gf = np.zeros((n, groups, cout_g, (hp + k - 1) * wp + k - 1))
    g1 = gf[..., lead : lead + span]
    out_hw = grad_out.shape[2:]
    gv = (grad_out.reshape(n, cout_g, groups, *out_hw).swapaxes(1, 2) if shuffle
          else grad_out.reshape(n, groups, cout_g, *out_hw))
    g1.reshape(n, groups, cout_g, -1, wp)[..., ::stride, : wp - k + 1 : stride] = gv
    shift_g = want_x or cout_g <= cin_g
    oriented = _flip(weight, groups) if shift_g else weight
    taps, gx = _taps(oriented, groups), None
    grad = np.zeros(taps.swapaxes(-1, -2).shape)
    if want_x:
        gx = np.empty((n, groups, cin_g, hp * wp + k - 1))
        gx[..., hp * wp :] = 0.0
    xf = xf.reshape(n, groups, cin_g, -1)
    src, other = (gf, xf) if shift_g else (xf, g1)
    _tap_sum(src, taps if want_x else None, k, wp, hp * wp if shift_g else span,
             None if gx is None else gx[..., : hp * wp], other=other, grad=grad)
    grad_w = grad.transpose(1, 3, 2, 0).reshape(oriented.shape)
    grad_w = _flip(grad_w, groups) if shift_g else grad_w
    return None if gx is None else gx.reshape(n, cin, -1), grad_w, gv.sum(axis=(0, 3, 4)).ravel()


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


def batchnorm_forward(x, scale, shift, running_mean, running_var, mode="eval", hw=None,
                      relu=False):
    """Per-channel normalization.

    Train mode normalizes with batch statistics (two passes: the mean, then
    the variance of the centred copy) and updates the running mean/var in
    place (momentum 0.9); eval mode uses the running stats. Returns
    (out, cache); the cache, which holds the centred copy, feeds
    batchnorm_backward. With hw = (h, w), x is a buffer laid out as
    _flat(., 3, 1) with zero padding: the statistics cover its interior and
    out's padding is zeroed. With relu, ReLU runs on out in place and the
    cache keeps out as its mask.
    """
    col, ax = (slice(None),) + (None,) * (x.ndim - 2), "nchw"[: x.ndim]
    m = x.size // x.shape[1] if hw is None else len(x) * hw[0] * hw[1]
    if mode == "train":
        mu = np.einsum(f"{ax}->c", x) / m
        xc = x - mu[col]
        if hw is not None:
            _zero_border(xc, *hw)
        var = np.einsum(f"{ax},{ax}->c", xc, xc) / m
        running_mean *= BN_MOMENTUM
        running_mean += (1.0 - BN_MOMENTUM) * mu
        running_var *= BN_MOMENTUM
        running_var += (1.0 - BN_MOMENTUM) * var
    elif mode == "eval":
        xc = x - running_mean[col]
        var = running_var
    else:
        raise ValueError(f"unknown mode {mode!r}")
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    out = xc * (scale * inv_std)[col]
    out += shift[col]
    if hw is not None:
        _zero_border(out, *hw)
    if relu:
        np.maximum(out, 0.0, out=out)
    return _finite(out), (xc, inv_std, mode, m, hw, out if relu else None)


def batchnorm_backward(grad_out, scale, cache):
    """(grad_input, grad_scale, grad_shift) for the cached forward pass, in
    the forward's layout. In the padded one, grad_out's padding counts as 0
    (it is zeroed in place unless a ReLU mask covers it) and grad_input's is
    not zeroed."""
    xc, inv_std, mode, m, hw, relu_out = cache
    col, ax = (slice(None),) + (None,) * (xc.ndim - 2), "nchw"[: xc.ndim]
    if relu_out is not None:
        grad_out = grad_out * (relu_out > 0.0)
    elif hw is not None:
        _zero_border(grad_out, *hw)
    grad_scale = np.einsum(f"{ax},{ax}->c", grad_out, xc) * inv_std
    grad_shift = np.einsum(f"{ax}->c", grad_out)
    if mode == "eval":
        return grad_out * (scale * inv_std)[col], grad_scale, grad_shift
    # with c = scale * inv_std / m and xhat = xc * inv_std per channel:
    # grad_x = c * (m * grad_out - grad_shift - xhat * grad_scale)
    c = scale * inv_std / m
    grad_x = np.multiply(grad_out, (m * c)[col], out=None if relu_out is None else grad_out)
    grad_x -= (c * grad_shift)[col]
    grad_x -= xc * (c * grad_scale * inv_std)[col]
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
    n, c, h, w = x.shape
    return _upsample_into(x, np.empty((n, c, 2 * h, 2 * w), dtype=x.dtype))


def _upsample_into(x, out):
    """upsample_nearest(x) written into out, one strided write per column parity."""
    for col in out.reshape(*x.shape[:3], 2, x.shape[3], 2).transpose(5, 0, 1, 2, 3, 4):
        col[...] = x[:, :, :, None]
    return out


def upsample_nearest_backward(grad_out):
    n, c, h, w = grad_out.shape
    return grad_out.reshape(n, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))
