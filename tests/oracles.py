"""Independent naive-loop reference implementations.

These deliberately avoid the library's vectorized code paths: plain Python
loops, dict histograms and explicit window gathering, so they can serve as
oracles for the fast implementations.
"""

import math

import numpy as np
from scipy.special import gamma as gamma_fn

from evofuse import metrics
from evofuse.errors import SpecError
from evofuse.image import gaussian_taps, quantize8, separable_filter, tile_grid
from evofuse.net import layers
from evofuse.net.arch import (
    BatchNorm,
    Branch,
    ChannelShuffle,
    ConvBlock,
    MaxPool2,
    ReLU,
    SkipConcat,
    UpsampleNearest2,
    _fold_bn,
    _path_shapes,
)
from evofuse.niqe import _ALPHA_GRID, _R_GAM, _halve, _mscn, niqe_score


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Normalized 2-D Gaussian window: the outer product of ``gaussian_taps``."""
    g = gaussian_taps(size, sigma)
    return np.outer(g, g)


def entropy_oracle(img) -> float:
    counts = {}
    for v in img.data.ravel():
        level = int(math.floor(v * 255.0 + 0.5))
        counts[level] = counts.get(level, 0) + 1
    n = img.data.size
    return -sum((c / n) * math.log2(c / n) for c in counts.values())


def avg_gradient_oracle(img) -> float:
    a = img.data
    h, w = a.shape
    total = 0.0
    for i in range(h - 1):
        for j in range(w - 1):
            dx = ((a[i, j + 1] - a[i, j]) + (a[i + 1, j + 1] - a[i + 1, j])) / 2.0
            dy = ((a[i + 1, j] - a[i, j]) + (a[i + 1, j + 1] - a[i, j + 1])) / 2.0
            total += math.sqrt((dx * dx + dy * dy) / 2.0)
    return total / (h * w)


def brenner_oracle(img) -> float:
    a = img.data
    h, w = a.shape
    total = 0.0
    for i in range(h):
        for j in range(w - 2):
            d = a[i, j + 2] - a[i, j]
            total += d * d
    return total / (h * w)


def mutual_information_oracle(x, y) -> float:
    def levels(img):
        return [int(math.floor(v * 255.0 + 0.5)) for v in img.data.ravel()]

    lx, ly = levels(x), levels(y)
    n = len(lx)
    cx, cy, cxy = {}, {}, {}
    for a, b in zip(lx, ly):
        cx[a] = cx.get(a, 0) + 1
        cy[b] = cy.get(b, 0) + 1
        cxy[(a, b)] = cxy.get((a, b), 0) + 1

    def ent(counts):
        return -sum((c / n) * math.log2(c / n) for c in counts.values())

    return ent(cx) + ent(cy) - ent(cxy)


def psnr_oracle(x, y) -> float:
    diff = (x.data - y.data) * 255.0
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return 100.0
    return min(10.0 * math.log10(255.0**2 / mse), 100.0)


def ssim_oracle(x, y) -> float:
    """Per-window sliding implementation over a symmetric-padded image."""
    win = gaussian_kernel(11, 1.5)
    c1, c2 = 0.01**2, 0.03**2
    r = 5
    a = np.pad(x.data, r, mode="symmetric")
    b = np.pad(y.data, r, mode="symmetric")
    h, w = x.data.shape
    total = 0.0
    for i in range(h):
        for j in range(w):
            wa = a[i : i + 11, j : j + 11]
            wb = b[i : i + 11, j : j + 11]
            mu1 = float((win * wa).sum())
            mu2 = float((win * wb).sum())
            s1 = float((win * wa * wa).sum()) - mu1 * mu1
            s2 = float((win * wb * wb).sum()) - mu2 * mu2
            s12 = float((win * wa * wb).sum()) - mu1 * mu2
            total += ((2 * mu1 * mu2 + c1) * (2 * s12 + c2)) / (
                (mu1 * mu1 + mu2 * mu2 + c1) * (s1 + s2 + c2)
            )
    return total / (h * w)


# The library's conv route (layers._conv and _conv_backward) on plain
# (n, c, h, w) arrays at any pad and stride; the replays and the layer tests
# drive it through these.


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


def conv2d_forward(x, weight, bias=None, stride=1, pad=0, groups=1):
    """Grouped cross-correlation; output (n, cout, (h+2p-k)/s+1, (w+2p-k)/s+1)."""
    xf, g, _, crop = _same(x, weight, stride, pad, groups)
    bias = np.zeros(len(weight)) if bias is None else bias
    return g.inner(layers._conv(xf, weight, bias, g, 1, groups, False, False, g.zeros(len(x), len(weight))))[crop]


def conv2d_backward(x, weight, grad_out, stride=1, pad=0, groups=1):
    """Exact gradients of conv2d_forward: (grad_input, grad_weight, grad_bias)."""
    xf, g, d, crop = _same(x, weight, stride, pad, groups)
    gf = g.zeros(len(x), len(weight))
    if grad_out.shape != g.inner(gf)[crop].shape:
        raise SpecError(f"grad_out shape {grad_out.shape} != {g.inner(gf)[crop].shape}")
    g.inner(gf)[crop] = grad_out
    gx, gw, gb = layers._conv_backward(xf, gf, weight, g, 1, groups, False, True)
    return g.inner(gx)[..., d : d + x.shape[2], d : d + x.shape[3]], gw, gb


def _same(x, weight, stride, pad, groups):
    """A pad-p conv of x as the same-size conv of x padded by d = p - k // 2
    more: (x's buffer, its grid, d, the crop to the pad-p conv's output)."""
    _, _, h, w, _, k, _, _ = _conv_shapes(x, weight, stride, pad, groups)
    d, e = max(pad - k // 2, 0), max(k // 2 - pad, 0)
    g = layers.Grid(h + 2 * d, w + 2 * d, k // 2)
    return layers._flat(x, k, k // 2 + d), g, d, (..., slice(e, g.h - e, stride), slice(e, g.w - e, stride))


def conv2d_oracle(x, weight, bias, stride=1, pad=0, groups=1) -> np.ndarray:
    """Direct seven-loop grouped cross-correlation."""
    n, cin, h, w = x.shape
    cout, cin_g, k, _ = weight.shape
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, cout, out_h, out_w))
    cpg_out = cout // groups
    for ni in range(n):
        for co in range(cout):
            g = co // cpg_out
            for oy in range(out_h):
                for ox in range(out_w):
                    acc = 0.0
                    for ci in range(cin_g):
                        for ky in range(k):
                            for kx in range(k):
                                acc += (
                                    xp[ni, g * cin_g + ci, oy * stride + ky, ox * stride + kx]
                                    * weight[co, ci, ky, kx]
                                )
                    out[ni, co, oy, ox] = acc + (bias[co] if bias is not None else 0.0)
    return out


def conv2d_backward_two_loops(x, weight, grad_out, stride=1, pad=0, groups=1):
    """conv2d_backward as two tap loops over the library's column blocks:
    grad_input is the forward of the flipped, transposed taps over grad_out
    placed on the stride-1 grid at padded width after (k - 1) * (wp + 1)
    zeros; grad_weight multiplies each column block of that grid by the
    (stacked) input slices the forward read there."""
    n, cin, h, w, cout, k, out_h, out_w = _conv_shapes(x, weight, stride, pad, groups)
    hp, wp = h + 2 * pad, w + 2 * pad
    cin_g, cout_g = cin // groups, cout // groups
    span, lead = (hp - k + 1) * wp, (k - 1) * (wp + 1)
    gf = np.zeros((n, cout, (hp + k - 1) * wp + k - 1))
    g1 = gf[..., lead : lead + span]
    g1.reshape(n, cout, -1, wp)[:, :, ::stride, : wp - k + 1 : stride] = grad_out
    gf, g1 = gf.reshape(n, groups, cout_g, -1), g1.reshape(n, groups, cout_g, span)
    flipped = weight.reshape(groups, cout_g, cin_g, k * k).swapaxes(1, 2)[..., ::-1]
    gx = layers._tap_sum(gf, layers._taps(flipped.reshape(cin, cout_g, k, k), groups), k, wp, hp * wp)
    grad_x = gx.reshape(n, cin, hp, wp)[:, :, pad : pad + h, pad : pad + w]
    grad_taps = np.zeros_like(layers._taps(weight, groups))
    xf = layers._flat(x, k, pad).reshape(n, groups, cin_g, -1)
    stacked = len(grad_taps) < k * k
    for start, stop, views in layers._tap_blocks(xf, k, wp, span, g1[..., 0].size, stacked):
        for grad_tap, view in zip(grad_taps, views):
            grad_tap += np.matmul(g1[..., start:stop], view.swapaxes(-1, -2)).sum(axis=0)
    grad_w = grad_taps.transpose(1, 2, 3, 0).reshape(weight.shape)
    return grad_x, grad_w, grad_out.sum(axis=(0, 2, 3))


def eval_replay(params, x) -> np.ndarray:
    """net_forward(params, x) in eval mode, replayed one block at a time with
    conv2d_forward and the public layer primitives on the parameters
    ``_fold_bn`` folds: a
    folded BatchNorm is skipped, Branch paths are replayed the same way and
    concatenated, and each primitive returns a new array."""

    def path(blocks, plist, x):
        sources = {blk.source for blk in blocks if isinstance(blk, SkipConcat)}
        plist, folded = _fold_bn(blocks, plist, x.shape[1])
        outs = {}
        for i, (blk, p) in enumerate(zip(blocks, plist)):
            if i in folded:
                pass
            elif isinstance(blk, ConvBlock):
                x = conv2d_forward(x, p.weight, p.bias, blk.stride, blk.k // 2, blk.groups)
            elif isinstance(blk, ChannelShuffle):
                x = layers.channel_shuffle(x, blk.groups)
            elif isinstance(blk, BatchNorm):
                mean, var = p.running_mean.copy(), p.running_var.copy()
                x, _ = layers.batchnorm_forward(x, p.scale, p.shift, mean, var, "eval")
            elif isinstance(blk, ReLU):
                x = layers.relu(x)
            elif isinstance(blk, MaxPool2):
                x = layers.maxpool2_forward(x)
            elif isinstance(blk, UpsampleNearest2):
                x = layers.upsample_nearest(x)
            elif isinstance(blk, SkipConcat):
                x = np.concatenate([x, outs[blk.source]], axis=1)
            elif isinstance(blk, Branch):
                x = np.concatenate([path(pb, pp, x) for pb, pp in zip(blk.paths, p)], axis=1)
            else:
                raise TypeError(f"no replay for {blk!r}")
            if i in sources:
                outs[i] = x
        return x

    spec = params.spec
    h1 = path(spec.alpha, params.alpha, x)
    m = path(spec.beta, params.beta, h1)
    return layers.sigmoid(path(spec.gamma, params.gamma, h1 + m if spec.residual else m))


def block_forward(block, p, x, mode="eval"):
    """One block's route, keeping its cache, on a plain (n, c, h, w) array x
    padded by the block's border: (output, cache for block_backward)."""
    shape = _path_shapes((block,), *x.shape[1:])[-1]
    g = layers.Grid(*x.shape[2:], shape.border)
    g2 = layers.Grid(shape.h, shape.w, g.p)
    out = g2.zeros(len(x), shape.c)
    cache = block.forward(p, layers._flat(x, 2 * g.p + 1, g.p), g, out, mode, True)
    return g2.inner(out).copy(), (cache, g, g2)


def block_backward(block, p, cache, grad_out):
    """(input gradient, grads in arrays() order) of a block_forward pass."""
    cache, g, g2 = cache
    gy = g2.zeros(*grad_out.shape[:2])
    g2.inner(gy)[...] = grad_out
    gx, grads = block.backward(p, cache, gy, True)
    return g.inner(gx), grads


def train_replay(params, x, grad_out, relu_inputs=None):
    """net_forward_cached(params, x, "train") then net_backward(params,
    cache, grad_out), replayed one block at a time with conv2d_forward and
    the public layer primitives on plain arrays and with
    conv2d_backward_two_loops: (out,
    grads in trainable_arrays order, grad wrt x). BN running statistics move
    as in the forward; each ReLU's input is appended to relu_inputs."""

    def forward(blocks, plist, x):
        tape = []
        for blk, p in zip(blocks, plist):
            cache = None
            if isinstance(blk, ConvBlock):
                y = conv2d_forward(x, p.weight, p.bias, blk.stride, blk.k // 2, blk.groups)
            elif isinstance(blk, ChannelShuffle):
                y = layers.channel_shuffle(x, blk.groups)
            elif isinstance(blk, BatchNorm):
                y, cache = layers.batchnorm_forward(
                    x, p.scale, p.shift, p.running_mean, p.running_var, "train"
                )
            elif isinstance(blk, ReLU):
                y = layers.relu(x)
                if relu_inputs is not None:
                    relu_inputs.append(x)
            elif isinstance(blk, MaxPool2):
                y = layers.maxpool2_forward(x)
            elif isinstance(blk, UpsampleNearest2):
                y = layers.upsample_nearest(x)
            elif isinstance(blk, SkipConcat):
                y = np.concatenate([x, tape[blk.source][1]], axis=1)
            elif isinstance(blk, Branch):
                cache = [forward(path, pp, x) for path, pp in zip(blk.paths, p)]
                y = np.concatenate([out for out, _ in cache], axis=1)
            else:
                raise TypeError(f"no replay for {blk!r}")
            tape.append((x, y, cache))
            x = y
        return x, tape

    def backward(blocks, plist, tape, g):
        routed, grads = {}, []
        for i in range(len(blocks) - 1, -1, -1):
            if i in routed:
                g = g + routed.pop(i)
            blk, p, (x, _, cache) = blocks[i], plist[i], tape[i]
            if isinstance(blk, ConvBlock):
                g, gw, gb = conv2d_backward_two_loops(x, p.weight, g, blk.stride, blk.k // 2, blk.groups)
                grads[:0] = [gw, gb]
            elif isinstance(blk, ChannelShuffle):
                g = layers.channel_shuffle_backward(g, blk.groups)
            elif isinstance(blk, BatchNorm):
                g, gscale, gshift = layers.batchnorm_backward(g, p.scale, cache)
                grads[:0] = [gscale, gshift]
            elif isinstance(blk, ReLU):
                g = layers.relu_backward(g, x)
            elif isinstance(blk, MaxPool2):
                g = layers.maxpool2_backward(g, x)
            elif isinstance(blk, UpsampleNearest2):
                g = layers.upsample_nearest_backward(g)
            elif isinstance(blk, SkipConcat):
                c = x.shape[1]
                src = g[:, c:]
                routed[blk.source] = routed[blk.source] + src if blk.source in routed else src
                g = g[:, :c]
            else:  # Branch
                gx, branch_grads, start = 0.0, [], 0
                for path, pp, (out, path_tape) in zip(blk.paths, p, cache):
                    width = out.shape[1]
                    gp, path_grads = backward(path, pp, path_tape, g[:, start : start + width])
                    gx, start = gx + gp, start + width
                    branch_grads += path_grads
                g = gx
                grads[:0] = branch_grads
        return g, grads

    spec = params.spec
    h1, alpha_tape = forward(spec.alpha, params.alpha, x)
    m, beta_tape = forward(spec.beta, params.beta, h1)
    y, gamma_tape = forward(spec.gamma, params.gamma, h1 + m if spec.residual else m)
    out = layers.sigmoid(y)
    gz, gamma_grads = backward(spec.gamma, params.gamma, gamma_tape, layers.sigmoid_backward(grad_out, out))
    gh1, beta_grads = backward(spec.beta, params.beta, beta_tape, gz)
    gx, alpha_grads = backward(spec.alpha, params.alpha, alpha_tape, gh1 + gz if spec.residual else gh1)
    return out, alpha_grads + beta_grads + gamma_grads, gx


def finite_diff_grad(fn, arr, h=1e-3):
    """Central finite differences of scalar fn() wrt every entry of arr."""
    flat = arr.ravel()
    out = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn()
        flat[i] = orig - h
        fm = fn()
        flat[i] = orig
        out[i] = (fp - fm) / (2.0 * h)
    return out.reshape(arr.shape)


def relative_err(a, b, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.max(np.abs(a - b) / denom)


# ---------------------------------------------------------------------------
# Candidate scoring one metric call at a time: every local statistic of
# SSIM and VIFF and every histogram of MI is computed anew for each
# (source, candidate) pair, with the same float operations in the same
# order as the pooled kernels in evofuse.metrics, so their results must be
# equal, not merely close.
# ---------------------------------------------------------------------------


def _moments_unshared(a, b, taps):
    mu1 = separable_filter(a, taps)
    mu2 = separable_filter(b, taps)
    s1 = separable_filter(a * a, taps) - mu1 * mu1
    s2 = separable_filter(b * b, taps) - mu2 * mu2
    s12 = separable_filter(a * b, taps) - mu1 * mu2
    return mu1, mu2, s1, s2, s12


def ssim_unshared(x, y) -> float:
    mu1, mu2, s1, s2, s12 = _moments_unshared(x.data, y.data, metrics._SSIM_TAPS)
    a1 = 2.0 * mu1 * mu2 + metrics._SSIM_C1
    a2 = 2.0 * s12 + metrics._SSIM_C2
    b1 = mu1 * mu1 + mu2 * mu2 + metrics._SSIM_C1
    b2 = s1 + s2 + metrics._SSIM_C2
    return float(((a1 * a2) / (b1 * b2)).mean(axis=(-2, -1)))


def mutual_information_unshared(x, y) -> float:
    qx = quantize8(x.data).astype(np.int64)
    qy = quantize8(y.data).astype(np.int64)
    ent = metrics._hist_entropy
    return max(ent(qx, 256) + ent(qy, 256) - ent(qx * 256 + qy, 65536), 0.0)


def viff_unshared(ref, fused) -> float:
    eps, noise = metrics._VIF_EPS, metrics._VIF_NOISE_VAR
    r = ref.data * 255.0
    d = fused.data * 255.0
    num = 0.0
    den = 0.0
    for _ in range(metrics._VIF_SCALES):
        mu1, mu2, s1, s2, s12 = _moments_unshared(r, d, metrics._VIF_TAPS)
        s1 = np.clip(s1, 0.0, None)
        s2 = np.clip(s2, 0.0, None)
        g = s12 / (s1 + eps)
        sv = s2 - g * s12
        g[s1 < eps] = 0.0
        sv[s1 < eps] = s2[s1 < eps]
        s1 = np.where(s1 < eps, 0.0, s1)
        g[s2 < eps] = 0.0
        sv[s2 < eps] = 0.0
        sv[g < 0.0] = s2[g < 0.0]
        g[g < 0.0] = 0.0
        sv = np.maximum(sv, eps)
        num += float(np.log10(1.0 + g * g * s1 / (sv + noise)).sum())
        den += float(np.log10(1.0 + s1 / noise).sum())
        r, d = mu1[::2, ::2], mu2[::2, ::2]
    return 1.0 if den == 0.0 else num / den


def score_candidate_oracle(pair, fused, niqe_model):
    """Raw scores of one fused image, every metric called on its own."""
    return metrics.QualityScores(
        en=metrics.entropy(fused),
        ag=metrics.avg_gradient(fused),
        brenner=metrics.brenner(fused),
        ssim_a=ssim_unshared(pair.a, fused),
        ssim_b=ssim_unshared(pair.b, fused),
        psnr_a=metrics.psnr(pair.a, fused),
        psnr_b=metrics.psnr(pair.b, fused),
        mi_a=mutual_information_unshared(pair.a, fused),
        mi_b=mutual_information_unshared(pair.b, fused),
        viff=(viff_unshared(pair.a, fused) + viff_unshared(pair.b, fused)) / 2.0,
        niqe=niqe_score(fused, niqe_model) if niqe_model is not None else None,
    )


def aggd_fit_oracle(vec) -> tuple[float, float, float]:
    """Asymmetric generalized Gaussian (alpha, beta_left, beta_right) of one
    field by moments: boolean sign splits and a full-grid argmin for alpha."""
    vec = vec.ravel()
    sq = vec * vec
    left = sq[vec < 0]
    right = sq[vec > 0]
    lstd = float(np.sqrt(left.mean())) if left.size else 0.0
    rstd = float(np.sqrt(right.mean())) if right.size else 0.0
    if lstd == 0.0 and rstd == 0.0:
        return float(_ALPHA_GRID[0]), 0.0, 0.0
    gam_hat = lstd / max(rstd, 1e-12)
    mean_sq = float(sq.mean())
    r_hat = float(np.abs(vec).mean()) ** 2 / mean_sq
    r_hat_norm = r_hat * ((gam_hat**3 + 1.0) * (gam_hat + 1.0)) / ((gam_hat**2 + 1.0) ** 2)
    alpha = float(_ALPHA_GRID[np.argmin((_R_GAM - r_hat_norm) ** 2)])
    ratio = np.sqrt(gamma_fn(1.0 / alpha) / gamma_fn(3.0 / alpha))
    return alpha, lstd * ratio, rstd * ratio


def _field_features_oracle(field) -> list[float]:
    alpha, bl, br = aggd_fit_oracle(field)
    feats = [alpha, (bl + br) / 2.0]
    products = (
        field[:, :-1] * field[:, 1:],      # horizontal
        field[:-1, :] * field[1:, :],      # vertical
        field[:-1, :-1] * field[1:, 1:],   # main diagonal
        field[:-1, 1:] * field[1:, :-1],   # anti diagonal
    )
    for prod in products:
        alpha, bl, br = aggd_fit_oracle(prod)
        eta = (br - bl) * (gamma_fn(2.0 / alpha) / gamma_fn(1.0 / alpha))
        feats.extend([alpha, eta, bl, br])
    return feats


def niqe_features_oracle(a, patch: int):
    """Per-patch 36-feature rows and sharpness, one patch and one field at a
    time: the aligned tiling at full scale, the half-scale tile at
    (y // 2, x // 2) of side patch // 2."""
    m1, sigma = _mscn(a)
    m2, _ = _mscn(_halve(a))
    half = patch // 2
    rows = []
    sharp = []
    for y, x in tile_grid(*a.shape, patch):
        f1 = _field_features_oracle(m1[y : y + patch, x : x + patch])
        f2 = _field_features_oracle(m2[y // 2 : y // 2 + half, x // 2 : x // 2 + half])
        rows.append(f1 + f2)
        sharp.append(float(sigma[y : y + patch, x : x + patch].mean()))
    return np.asarray(rows), np.asarray(sharp)
