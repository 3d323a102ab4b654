"""Independent naive-loop reference implementations.

These deliberately avoid the library's vectorized code paths: plain Python
loops, dict histograms and explicit window gathering, so they can serve as
oracles for the fast implementations.
"""

import math

import numpy as np

from evofuse import metrics
from evofuse.image import gaussian_taps, quantize8, separable_filter
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
)
from evofuse.niqe import niqe_score


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


def eval_replay(params, x) -> np.ndarray:
    """net_forward(params, x) in eval mode, replayed one block at a time with
    the public layer primitives on the parameters ``_fold_bn`` folds: a
    folded BatchNorm is skipped, Branch and SkipConcat run as in
    ``_path_forward``, and each primitive returns a new contiguous array."""

    def path(blocks, plist, x):
        sources = {blk.source for blk in blocks if isinstance(blk, SkipConcat)}
        plist, folded = _fold_bn(blocks, plist, sources)
        outs = {}
        for i, (blk, p) in enumerate(zip(blocks, plist)):
            if i in folded:
                pass
            elif isinstance(blk, ConvBlock):
                x = layers.conv2d_forward(x, p.weight, p.bias, blk.stride, blk.k // 2, blk.groups)
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
                x, _ = blk.forward(p, x, "eval")
            else:
                raise TypeError(f"no replay for {blk!r}")
            if i in sources:
                outs[i] = x
        return x

    spec = params.spec
    h1 = path(spec.alpha, params.alpha, x)
    m = path(spec.beta, params.beta, h1)
    return layers.sigmoid(path(spec.gamma, params.gamma, h1 + m if spec.residual else m))


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
