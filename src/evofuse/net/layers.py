"""Layer primitives and the padded-flat layout (``Grid``) that every network
activation and gradient lives in.

The public primitives take (n, c, h, w) arrays, strided views included, and
write into ``out`` when given; backward passes are hand-written and checked
against finite differences. A conv sums its taps on the padded image flattened
over rows, one cache-sized column block at a time: thin inputs stack all k * k
tap slices of a block into one matmul, wider ones run one per tap and add the
later taps' products in place. Its backward is one such loop that also forms
the weight gradient. Batch norm runs every pass over one channel's whole rows
of a buffer, border included: a zero border adds nothing to the sums, and
``Grid.clear`` zeroes the borders it writes again, as it does for the convs.

Inside ``blas_pinned`` (every network call) OpenBLAS runs one thread, and
long tap loops and batch norms split their columns or channels over the
package's worker count on its shared pool (``evofuse.threads``); the pieces
give the one-piece bits, so where the pin works a network's bits do not
depend on the OpenBLAS thread count.
"""

from __future__ import annotations

import functools
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..errors import DimensionError, RangeError, SpecError
from ..threads import _openblas, _run, _workers

# flip on to assert finite activations after every op (slow; debug only)
CHECK_FINITE = False


def _finite(t: np.ndarray) -> np.ndarray:
    if CHECK_FINITE and not np.all(np.isfinite(t)):
        raise FloatingPointError("non-finite activation")
    return t


@dataclass(frozen=True)
class Grid:
    """An (h, w) image zero-padded by p, flattened over rows, with 2p spare
    zeros (as _flat(x, 2p + 1, p)): pixel (r, c) sits at rows.start + r * wp
    + c, and tap (u, v) of a k x k conv (k // 2 <= p) at skew(k) + u * wp + v."""

    h: int
    w: int
    p: int

    @property
    def wp(self) -> int:
        return self.w + 2 * self.p

    @property
    def rows(self) -> slice:  # the pixel rows, each with its 2p wrap columns
        return slice(self.p * (self.wp + 1), (self.p + self.h) * self.wp + self.p)

    def skew(self, k: int) -> int:
        return (self.p - k // 2) * (self.wp + 1)

    @property
    def size(self) -> int:  # a buffer's length
        return (self.h + 2 * self.p) * self.wp + 2 * self.p

    def zeros(self, n: int, c: int) -> np.ndarray:
        return np.zeros((n, c, self.size))

    def window(self, flat: np.ndarray, top: int) -> np.ndarray:  # in a taller one's from its row top, a view
        return flat[..., top * self.wp : top * self.wp + self.size]

    def strided(self, s: int) -> Grid:
        return Grid((self.h - 1) // s + 1, (self.w - 1) // s + 1, self.p)

    def inner(self, flat: np.ndarray) -> np.ndarray:  # the (n, c, h, w) image, a view
        rows = flat[..., : (self.h + 2 * self.p) * self.wp].reshape(*flat.shape[:2], -1, self.wp)
        return rows[:, :, self.p : self.p + self.h, self.p : self.p + self.w]

    def clear(self, flat: np.ndarray) -> np.ndarray:  # zero the padding rows, wrap and spare columns
        flat[..., : self.rows.start] = flat[..., self.rows.stop :] = 0.0
        flat[..., self.rows].reshape(*flat.shape[:-1], self.h, self.wp)[..., self.w :] = 0.0
        return flat


def _flat(x, k, pad):
    """Zero-padded x flattened over rows with k - 1 spare zeros, so that
    every tap of a k x k conv reads a slice in bounds."""
    n, c, h, w = x.shape
    flat = np.zeros((n, c, (h + 2 * pad) * (w + 2 * pad) + k - 1))
    Grid(h, w, pad).inner(flat)[...] = x
    return flat


def _interior(flat, h, w, pad):
    """The (n, c, h, w) image of a network output's buffer, as a view."""
    return Grid(h, w, pad).inner(flat)


# elements of the largest operand per column block of the tap loop (4 MiB);
# on a 2-core Xeon (4 MiB L2) 2^18-2^20 ran the 3x3 convs at 400x400
# fastest, 2^16 and a single whole-image block both slower. The blocks also
# set the order in which grad_w is summed: another size gives other trained bits
_BLOCK_ELEMS = 1 << 19

_GEMM_K = 128  # the widest K added in place: the built-ins' widest (m's 128 -> 64 convs)

# inputs with fewer channels per group than this stack all k * k shifted
# slices of a column block and run one matmul per block; wider inputs run
# one matmul per tap (stacking won at 2-16 channels, lost at 64)
_STACK_BELOW = 32


# tap loops over fewer columns, and batch norms over shorter buffers, run in
# one piece (a 64 x 64 image spans 4,224 columns at padding 1)
_SPLIT_MIN = 4096
_local = threading.local()  # .workers: the split width of this thread's blas_pinned region
_PIN_LOCK = threading.RLock()


@contextmanager
def blas_pinned():
    """OpenBLAS at 1 thread inside, with the worker count it had outside as
    the split width; both are restored on exit. Callers in other threads
    wait for the region to end."""
    get, put = _openblas()[0] or (lambda: 1, lambda threads: None)
    with _PIN_LOCK:
        workers, threads, before = _workers(), get(), getattr(_local, "workers", 1)
        put(1)
        _local.workers = workers
        try:
            yield
        finally:
            _local.workers = before
            put(threads)


def _split(fn, total, step, size):
    """[fn(lo, hi) for each piece of [0, total)], in order: one piece per
    split worker (one in all below _SPLIT_MIN of size), cut on multiples of
    step as evenly as they allow. This thread runs the first piece and the
    shared pool the others; every call has ended when this returns or raises."""
    w = getattr(_local, "workers", 1) if size >= _SPLIT_MIN else 1
    cuts = [min(total, -(-total // step) * i // w * step) for i in range(w + 1)]
    pieces = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi] or [(0, total)]
    return _run([functools.partial(fn, *piece) for piece in pieces])


def _taps(weight, groups):
    """Tap matrices (k * k / s, groups, cout / groups, s * cin / groups) with
    s taps per matmul: s = 1, or s = k * k for thin inputs."""
    cout, cin_g, k, _ = weight.shape
    per_group = weight.reshape(groups, cout // groups, cin_g, k * k)
    if cin_g < _STACK_BELOW:
        return per_group.reshape(1, groups, cout // groups, cin_g * k * k)
    return np.ascontiguousarray(per_group.transpose(3, 0, 1, 2))


def _block_cols(src, k, wp, rows, stacked):
    n, groups, c, _ = src.shape
    return max(wp, _BLOCK_ELEMS // max(rows, n * groups * c * k * k if stacked else 0))


def _tap_blocks(src, k, wp, span, rows, stacked):
    """Column blocks [start, stop) of the flat span with the slices of src
    (n, groups, c, length) that the k * k taps read, at offset u * wp + v
    for tap (u, v). Stacked, the slices are copied into one buffer laid out
    as _taps lays out the weights. A block's largest operand, the stack or
    the rows of the other operands together, holds about _BLOCK_ELEMS
    elements."""
    n, groups, c, _ = src.shape
    offs = [(t // k) * wp + t % k for t in range(k * k)]
    cols = _block_cols(src, k, wp, rows, stacked)
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
    slice of src @ other[..., j].T, from the same slices. Split pieces start
    on multiples of 8 columns, which leaves every column's sum as it was
    (_tap_products), or with other on the unsplit loop's block bounds, and
    the later pieces' weight partials are added after the first's, in block
    order."""
    n, groups, c, _ = src.shape
    if taps is not None and acc is None:
        acc = np.empty((n, groups, taps.shape[2], span))
    rows = sum(a[..., 0].size for a in (acc, other) if a is not None)
    stacked = k > 1 and c < _STACK_BELOW

    def piece(lo, hi):  # the weight partials of each column block, but the first piece's added
        parts = []
        for start, stop, views in _tap_blocks(src[..., lo:], k, wp, hi - lo, rows, stacked):
            start, stop = lo + start, lo + stop
            if taps is not None:
                blk = acc[..., start:stop]
                _tap_products(taps, views, blk)
                if bias is not None:
                    blk += bias
                if relu:
                    np.maximum(blk, 0.0, out=blk)
            if other is not None:
                part = other[..., start:stop].swapaxes(-1, -2)
                parts.append([np.matmul(view, part).sum(axis=0) for view in views])
                if lo == 0:
                    add(parts.pop())
        return parts

    def add(block):
        for out, part in zip(grad, block):
            out += part

    step = 8 if other is None else _block_cols(src, k, wp, rows, stacked)
    for parts in _split(piece, span, step, span):
        for block in parts:
            add(block)
    return acc


def _tap_products(taps, views, out):
    """out = the sum over taps of tap @ view. OpenBLAS rounds a last partial
    tile of columns its own way, so the last width % 8 go through a zero-padded
    copy: a column's sum then depends on neither the block nor the layout.
    The later taps add their products into out in place (dgemm, beta = 1),
    giving out += tap @ view's bits while no dimension is 1 (NumPy runs a
    one-row product as a gemv, which rounds its own way) and K fits in one
    OpenBLAS K panel, whose sums it adds to C panel by panel (SkylakeX's held
    K = 384; other kernels' depth is unmeasured, so K <= _GEMM_K)."""
    body = out.shape[-1] // 8 * 8
    if body < out.shape[-1]:
        wide, tail = np.zeros(views[0].shape[:-1] + (8,)), out.shape[-1] - body
        for t, (tap, view) in enumerate(zip(taps, views)):
            wide[..., :tail] = view[..., body:]
            np.add(out[..., body:] if t else 0.0, (tap @ wide)[..., :tail], out=out[..., body:])
        views, out = [view[..., :body] for view in views], out[..., :body]
    np.matmul(taps[0], views[0], out=out)
    if len(taps) > 1 and not _gemm_into(taps[1:], views[1:], out):
        for tap, view in zip(taps[1:], views[1:]):
            out += tap @ view


def _gemm_into(taps, views, out):
    """out += tap @ view for each tap (views of one layout), one dgemm per matrix
    of out's leading axes; False, out untouched, where that may not give NumPy's bits."""
    gemm, (m, k), n = _openblas()[1], taps.shape[-2:], out.shape[-1]
    mats = [np.broadcast_to(a, out.shape[:-2] + a.shape[-2:]) for a in (taps[0], views[0], out)]
    if (gemm is None or min(m, k, n) < 2 or k > _GEMM_K or [a.shape[-2:] for a in mats] != [(m, k), (k, n), (m, n)]
            or any(a.dtype != np.float64 or a.strides[-1] != 8 or a.strides[-2] < 8 * a.shape[-1] for a in mats)):
        return False
    (lda, ldb, ldc), c = (a.strides[-2] // 8 for a in mats), out.ctypes.data
    offs = [[sum(i * s for i, s in zip(at, a.strides)) for at in np.ndindex(out.shape[:-2])] for a in mats]
    for tap, view in zip(taps, views):
        for da, db, dc in zip(*offs):  # row major (101), neither operand transposed (111)
            gemm(101, 111, 111, m, n, k, 1.0, tap.ctypes.data + da, lda, view.ctypes.data + db, ldb, 1.0, c + dc, ldc)
    return True


def _conv(x, weight, bias, g, stride, groups, shuffle, relu, out):
    """Conv (pad k // 2) of buffer x of grid g into buffer out, with bias, an
    optional channel_shuffle(groups) and ReLU per column block. The sums land
    at the stride-1 output's pixel (0, 0), each row's wrap columns on the
    padding (zeroed); a stride above 1 subsamples that into out."""
    n, cin = x.shape[:2]
    cout, _, k, _ = weight.shape
    full = out if stride == 1 else g.zeros(n, cout)
    acc = full[..., g.rows]
    src = _grouped(x[..., g.skew(k) :], groups)
    _tap_sum(src, _taps(weight, groups), k, g.wp, g.h * g.wp, _grouped(acc, groups, shuffle),
             bias.reshape(groups, -1, 1), relu)
    g.clear(full)
    if stride > 1:
        g.strided(stride).inner(out)[...] = g.inner(full)[..., ::stride, ::stride]
    return _finite(out)


def _flip(weight, groups):
    """Per group, the weight transposed over channels and reversed over taps:
    the conv that carries gradients back to the input; its own inverse."""
    cout, cin_g, k, _ = weight.shape
    per_group = weight.reshape(groups, cout // groups, cin_g, k * k).swapaxes(1, 2)
    return per_group[..., ::-1].reshape(groups * cin_g, cout // groups, k, k)


def _conv_backward(x, gy, weight, g, stride, groups, shuffle, want_x):
    """(grad_input's buffer or None without want_x, grad_weight, grad_bias) of
    _conv. One tap loop forms grad_input (the conv of the output gradient gy
    with _flip's taps) and grad_weight (the same slices times x); without
    grad_input it shifts the side with fewer channels per group."""
    n, cin = x.shape[:2]
    cout, cin_g, k, _ = weight.shape
    cout_g, at = cout // groups, g.rows
    if stride > 1:
        full = g.zeros(n, cout)
        g.inner(full)[..., ::stride, ::stride] = g.strided(stride).inner(gy)
        gy = full
    gv = _grouped(gy, groups, shuffle)
    shift_g = want_x or cout_g <= cin_g
    oriented = _flip(weight, groups) if shift_g else weight
    taps, gx = _taps(oriented, groups), g.zeros(n, cin) if want_x else None
    grad = np.zeros(taps.swapaxes(-1, -2).shape)
    src, other = (gv, _grouped(x, groups)) if shift_g else (_grouped(x, groups), gv)
    _tap_sum(src[..., g.skew(k) :], taps if want_x else None, k, g.wp, g.h * g.wp,
             _grouped(gx[..., at], groups) if want_x else None, other=other[..., at], grad=grad)
    if want_x:
        g.clear(gx)
    grad_w = grad.transpose(1, 3, 2, 0).reshape(oriented.shape)
    grad_w = _flip(grad_w, groups) if shift_g else grad_w
    return gx, grad_w, gv.sum(axis=(0, 3)).ravel()


def channel_shuffle(x, groups, out=None):
    """Permute channels by reshaping (g, c/g) and transposing."""
    n, c = x.shape[:2]
    if c % groups != 0:
        raise SpecError(f"groups={groups} must divide channels={c}")
    out = np.empty_like(x) if out is None else out
    _grouped(out, c // groups)[...] = _grouped(x, groups).swapaxes(1, 2)
    return out


def _grouped(buf, groups, shuffled=False):
    """buf (n, c, ...) as (n, groups, c / groups, length), a view; shuffled,
    the groups of channel_shuffle(buf, groups)'s input."""
    n, c = buf.shape[:2]
    if shuffled:
        return buf.reshape(n, c // groups, groups, -1).swapaxes(1, 2)
    return buf.reshape(n, groups, c // groups, -1)


def channel_shuffle_backward(grad_out, groups):
    # the inverse of shuffle(g) is shuffle(c/g)
    c = grad_out.shape[1]
    return channel_shuffle(grad_out, c // groups)


BN_EPS = 1e-5
BN_MOMENTUM = 0.9


def batchnorm_forward(x, scale, shift, running_mean, running_var, mode="eval", out=None, g=None):
    """Per-channel normalization of x into out (or a new array): (out, the
    cache for batchnorm_backward, which holds the centred copy). x and out
    are buffers of grid g with a zero border, or (n, c, h, w) arrays, the
    border-0 case; each channel runs all its passes while its rows are in
    cache. Train mode uses batch statistics over the n * h * w pixels (the
    mean, then the variance of the centred copy, whose border is zeroed
    first) and updates the running mean/var in place (momentum 0.9); eval
    mode uses the running stats."""
    if mode not in ("train", "eval"):
        raise RangeError(f"unknown mode {mode!r}")
    g = g or Grid(*x.shape[2:], 0)
    c, m, train = x.shape[1], len(x) * g.h * g.w, mode == "train"
    mean, var = (np.empty(c), np.empty(c)) if train else (running_mean, running_var)
    inv_std, xc = np.empty(c), np.empty(x.shape)
    out = np.empty(x.shape) if out is None else out

    def channels(lo, hi):
        for ch, (xs, cs, ys) in enumerate(zip(*(_channels(a)[lo:hi] for a in (x, xc, out))), lo):
            if train:
                mean[ch] = np.einsum("nl->", xs) / m
            g.clear(np.subtract(xs, mean[ch], out=cs))
            if train:
                var[ch] = np.einsum("nl,nl->", cs, cs) / m
            inv_std[ch] = 1.0 / np.sqrt(var[ch] + BN_EPS)
            np.multiply(cs, scale[ch] * inv_std[ch], out=ys)
            ys += shift[ch]
            g.clear(ys)

    _split(channels, c, 1, g.size)
    for running, batch in ((running_mean, mean), (running_var, var)) if train else ():
        running *= BN_MOMENTUM
        running += (1.0 - BN_MOMENTUM) * batch
    return _finite(out), (xc, inv_std, mode, m, g)


def batchnorm_backward(grad_out, scale, cache, out=None):
    """(grad_input, grad_scale, grad_shift) for the cached forward pass, one
    channel at a time on its layout; grad_input is written into out when
    given. Train mode uses up the cache: its centred copy is scratch."""
    xc, inv_std, mode, m, g = cache
    grad_scale, grad_shift = np.empty(len(scale)), np.empty(len(scale))
    grad_x = np.empty(xc.shape) if out is None else out
    # with c = scale * inv_std / m and xhat = xc * inv_std per channel:
    # grad_x = c * (m * grad_out - grad_shift - xhat * grad_scale)
    c = scale * inv_std / m

    def channels(lo, hi):
        for ch, (gy, cs, gx) in enumerate(zip(*(_channels(a)[lo:hi] for a in (grad_out, xc, grad_x))), lo):
            grad_scale[ch] = np.einsum("nl,nl->", gy, cs) * inv_std[ch]
            grad_shift[ch] = np.einsum("nl->", gy)
            if mode == "eval":
                np.multiply(gy, scale[ch] * inv_std[ch], out=gx)
            else:
                np.multiply(gy, m * c[ch], out=gx)
                gx -= c[ch] * grad_shift[ch]
                gx -= np.multiply(cs, c[ch] * grad_scale[ch] * inv_std[ch], out=cs)
                g.clear(gx)

    _split(channels, len(scale), 1, g.size)
    return grad_x, grad_scale, grad_shift


def _channels(a):  # (n, c, ...) as c views (n, length) of a buffer or a contiguous array
    return a.reshape(*a.shape[:2], -1).swapaxes(0, 1)


def relu(x, out=None):
    return np.maximum(x, 0.0, out=out)


def relu_backward(grad_out, x, out=None):
    return np.multiply(grad_out, x > 0.0, out=out)


def _exp(v):
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def sigmoid(x):
    """1 / (1 + exp(-x)) with the C library's exp, bit for bit SciPy's expit:
    NumPy's float64 exp rounds some values its own way, its complex exp is the
    C library's cexp, equal to exp below 709, and the scalar exp serves x < -708."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(np.negative(x, dtype=np.complex128)).real
    far = x < -708.0
    e[far] = [_exp(-v) for v in x[far]]
    return 1.0 / (1.0 + e)


def sigmoid_backward(grad_out, y):
    return grad_out * y * (1.0 - y)


def maxpool2_forward(x, out=None):
    """2x2 stride-2 max: the elementwise max of the four strided views, taken
    in place in the output one channel at a time, since NumPy copies an input
    that is also a strided output (max is exact: the order does not matter)."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise DimensionError(f"pooling needs even spatial dims, got {h}x{w}")
    out = np.empty((n, c, h // 2, w // 2)) if out is None else out
    for i, j in np.ndindex(n, c):
        top = np.maximum(x[i, j, 0::2, 0::2], x[i, j, 0::2, 1::2], out=out[i, j])
        np.maximum(np.maximum(top, x[i, j, 1::2, 0::2], out=top), x[i, j, 1::2, 1::2], out=top)
    return out


def maxpool2_backward(grad_out, x, out=None):
    """Routes each window's gradient to its max in the forward input x,
    written into out (zeros) when given; ties go to the first max in
    row-major order (top-left first)."""
    top = maxpool2_forward(x)
    grad_x = np.zeros_like(x) if out is None else out
    free = np.ones(top.shape, dtype=bool)
    for dy in (0, 1):
        for dx in (0, 1):
            hit = free & (x[:, :, dy::2, dx::2] == top)
            grad_x[:, :, dy::2, dx::2] = grad_out * hit
            free &= ~hit
    return grad_x


def upsample_nearest(x, out=None):
    """Double both spatial dims by pixel replication: one strided write per
    column parity."""
    n, c, h, w = x.shape
    out = np.empty((n, c, 2 * h, 2 * w)) if out is None else out
    for col in out.reshape(n, c, h, 2, w, 2).transpose(5, 0, 1, 2, 3, 4):
        col[...] = x[:, :, :, None]
    return out


def upsample_nearest_backward(grad_out, out=None):
    n, c, h, w = grad_out.shape
    return np.sum(grad_out.reshape(n, c, h // 2, 2, w // 2, 2), axis=(3, 5), out=out)
