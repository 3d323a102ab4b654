"""Quality metrics used to rank fused-image candidates.

Every metric here is deterministic. Histogram-based metrics (entropy,
mutual information) quantize intensities to 8-bit levels first; PSNR is
computed on the 255-scaled range, and SSIM/VIFF work directly on [0, 1]
rasters through the shared separable Gaussian filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyInputError, NotEvaluatedError, RangeError
from .image import ImageGray, gaussian_taps, quantize8, separable_filter, separable_filter_adjoint

PSNR_CAP_DB = 100.0

_SSIM_TAPS = gaussian_taps(11, 1.5)
_SSIM_C1 = 0.01**2
_SSIM_C2 = 0.03**2

# Scalar-GSM local statistics of the fidelity metric use 3x3 neighborhoods;
# sigma follows the window-size/5 convention. Noise variance is on the
# 255-scaled range.
_VIF_TAPS = gaussian_taps(3, 3.0 / 5.0)
_VIF_SCALES = 4
_VIF_NOISE_VAR = 2.0
_VIF_EPS = 1e-10


@dataclass
class QualityScores:
    """Per-candidate metric vector; ``combined`` is filled pool-relative."""

    en: float
    ag: float
    brenner: float
    ssim_a: float
    ssim_b: float
    psnr_a: float
    psnr_b: float
    mi_a: float
    mi_b: float
    viff: float
    niqe: float | None = None
    combined: float | None = None


def _require_same_dims(x: ImageGray, y: ImageGray):
    if x.shape != y.shape:
        raise DimensionError(f"image shapes differ: {x.shape} vs {y.shape}")


def _hist_entropy(levels: np.ndarray, nbins: int) -> float:
    counts = np.bincount(levels.ravel(), minlength=nbins)
    p = counts[counts > 0] / levels.size
    return float(-(p * np.log2(p)).sum())


def _levels(img: ImageGray) -> np.ndarray:
    return quantize8(img.data).astype(np.int64)


def entropy(img: ImageGray) -> float:
    """Shannon entropy in bits over the 256-bin gray-level histogram."""
    return _hist_entropy(_levels(img), 256)


def avg_gradient(img: ImageGray) -> float:
    """Mean sqrt((dIx^2 + dIy^2)/2) of forward differences on the interior grid.

    Each (h-1) x (w-1) cell averages its two parallel forward-difference
    edges per axis, which keeps the metric exactly flip-invariant.
    """
    h, w = img.shape
    if h < 2 or w < 2:
        raise DimensionError(f"average gradient needs dims >= 2, got {h}x{w}")
    a = img.data
    dx = ((a[:-1, 1:] - a[:-1, :-1]) + (a[1:, 1:] - a[1:, :-1])) / 2.0
    dy = ((a[1:, :-1] - a[:-1, :-1]) + (a[1:, 1:] - a[:-1, 1:])) / 2.0
    return float(np.sqrt((dx * dx + dy * dy) / 2.0).sum() / (h * w))


def brenner(img: ImageGray) -> float:
    """Sum of squared horizontal 2-step differences, normalized by pixel count."""
    h, w = img.shape
    if w < 3:
        raise DimensionError(f"brenner needs width >= 3, got {w}")
    d = img.data[:, 2:] - img.data[:, :-2]
    return float((d * d).sum() / (h * w))


def _pool_shape(sources: list[ImageGray], fused: list[ImageGray]) -> tuple[int, int]:
    for img in [*sources, *fused]:
        _require_same_dims(sources[0], img)
    return sources[0].shape


def _local_moments(a: np.ndarray, taps: np.ndarray):
    """Local mean and variance (mu, E[a*a] - mu*mu) of a."""
    mu = separable_filter(a, taps)
    return mu, separable_filter(a * a, taps) - mu * mu


def _ssim(x: np.ndarray, y: np.ndarray, grad: bool = False, mx=None, my=None):
    """Mean SSIM over the last two axes of (..., h, w) arrays; leading axes
    are independent images. With ``grad`` also returns d(mean SSIM)/dx.

    ``mx`` and ``my`` are the ``_local_moments`` of x and y when the caller
    already has them; only the cross moment is always filtered here.
    """
    h, w = x.shape[-2:]
    if min(h, w) < _SSIM_TAPS.size:
        raise DimensionError(f"ssim needs dims >= {_SSIM_TAPS.size}, got {h}x{w}")
    mu1, s1 = _local_moments(x, _SSIM_TAPS) if mx is None else mx
    mu2, s2 = _local_moments(y, _SSIM_TAPS) if my is None else my
    s12 = separable_filter(x * y, _SSIM_TAPS) - mu1 * mu2
    a1 = 2.0 * mu1 * mu2 + _SSIM_C1
    a2 = 2.0 * s12 + _SSIM_C2
    del s12
    b1 = mu1 * mu1 + mu2 * mu2 + _SSIM_C1
    b2 = s1 + s2 + _SSIM_C2
    if not grad:  # the same products and quotient, in place: two arrays fewer
        a1 *= a2
        b1 *= b2
        a1 /= b1
        return a1.mean(axis=(-2, -1))
    smap = (a1 * a2) / (b1 * b2)
    value = smap.mean(axis=(-2, -1))
    # chain rule through the local statistics; x enters mu1, s1 and s12
    g = 1.0 / (h * w)
    da1 = g * a2 / (b1 * b2)
    da2 = g * a1 / (b1 * b2)
    db1 = -g * smap / b1
    db2 = -g * smap / b2
    dmu1 = 2.0 * mu2 * da1 + 2.0 * mu1 * db1 - 2.0 * mu2 * da2 - 2.0 * mu1 * db2
    adj = separable_filter_adjoint
    dx = adj(dmu1, _SSIM_TAPS) + 2.0 * x * adj(db2, _SSIM_TAPS) + y * adj(2.0 * da2, _SSIM_TAPS)
    return value, dx


def ssim_pool(sources: list[ImageGray], fused: list[ImageGray]) -> np.ndarray:
    """SSIM of every fused image against every source, shaped
    (len(fused), len(sources)); entry [i, j] equals ``ssim(sources[j], fused[i])``.

    Each image's local moments are filtered once for the whole pool.
    """
    _pool_shape(sources, fused)
    out = np.empty((len(fused), len(sources)))
    src = [(s.data, _local_moments(s.data, _SSIM_TAPS)) for s in sources]
    for i, img in enumerate(fused):
        mf = _local_moments(img.data, _SSIM_TAPS)
        for j, (x, mx) in enumerate(src):
            out[i, j] = _ssim(x, img.data, mx=mx, my=mf)
        del mf  # before the next image's moments are filtered
    return out


def ssim(x: ImageGray, y: ImageGray) -> float:
    """Mean structural similarity, 11x11 Gaussian window sigma=1.5 on [0, 1]."""
    return float(ssim_pool([x], [y])[0, 0])


def psnr(x: ImageGray, y: ImageGray) -> float:
    """Peak signal-to-noise ratio in dB on 255-scaled intensities, capped at 100."""
    _require_same_dims(x, y)
    diff = (x.data - y.data) * 255.0
    mse = float((diff * diff).mean())
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(255.0**2 / mse), PSNR_CAP_DB)


def mutual_information_pool(sources: list[ImageGray], fused: list[ImageGray]):
    """MI of every fused image with every source, shaped (len(fused),
    len(sources)), and the entropy of every fused image.

    Entry [i, j] equals ``mutual_information(sources[j], fused[i])``; each
    image's levels and marginal entropy are computed once for the pool.
    """
    _pool_shape(sources, fused)
    mi = np.empty((len(fused), len(sources)))
    en = np.empty(len(fused))
    src = []
    for s in sources:
        q = _levels(s)
        src.append((q * 256, _hist_entropy(q, 256)))
    for i, img in enumerate(fused):
        q = _levels(img)
        en[i] = hf = _hist_entropy(q, 256)
        for j, (q256, hs) in enumerate(src):
            mi[i, j] = max(hs + hf - _hist_entropy(q256 + q, 65536), 0.0)
    return mi, en


def mutual_information(x: ImageGray, y: ImageGray) -> float:
    """MI in bits: H(x) + H(y) - H(x, y) over the 256x256 joint histogram."""
    return float(mutual_information_pool([x], [y])[0][0, 0])


def _vif_information(s12: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> float:
    """Information in the fused channel at one scale, summed over pixels.

    ``s1`` and ``s2`` are the clipped local variances of the reference and
    the fused image, ``s1`` zeroed where the reference is flat, and ``s12``
    their local covariance. The scalar-GSM model gives the per-pixel gain g
    and residual variance sv. The arithmetic runs in place and overwrites
    ``s12``, since a pool holds several images' statistics at once.
    """
    g = s1 + _VIF_EPS
    np.divide(s12, g, out=g)
    sv = s12
    sv *= g
    np.subtract(s2, sv, out=sv)
    flat = s1 < _VIF_EPS
    g[flat] = 0.0
    sv[flat] = s2[flat]
    g[s2 < _VIF_EPS] = 0.0
    sv[s2 < _VIF_EPS] = 0.0
    sv[g < 0.0] = s2[g < 0.0]
    g[g < 0.0] = 0.0
    np.maximum(sv, _VIF_EPS, out=sv)
    # log10(1 + g*g*s1 / (sv + noise))
    g *= g
    g *= s1
    sv += _VIF_NOISE_VAR
    g /= sv
    g += 1.0
    return float(np.log10(g, out=g).sum())


def _vif_reference(r: np.ndarray):
    """Local mean, variance (zeroed where flat) and information of a reference."""
    mu, s = _local_moments(r, _VIF_TAPS)
    s = np.clip(s, 0.0, None)
    s[s < _VIF_EPS] = 0.0
    return mu, s, float(np.log10(1.0 + s / _VIF_NOISE_VAR).sum())


def _vif_fused(d: np.ndarray, stats, unit: float):
    """One fused image at one scale against every reference's (image, mean,
    variance) in ``stats``: the information terms and the next scale's image."""
    d = d * unit
    mu2, s2 = _local_moments(d, _VIF_TAPS)
    s2 = np.clip(s2, 0.0, None)
    terms = [
        _vif_information(separable_filter(r * unit * d, _VIF_TAPS) - mu1 * mu2, s1, s2)
        for r, mu1, s1 in stats
    ]
    # the next scale is this scale's local mean, decimated by 2
    return terms, mu2[::2, ::2].copy()


def viff_pool(refs: list[ImageGray], fused: list[ImageGray]) -> np.ndarray:
    """VIFF of every fused image given every reference, shaped (len(fused),
    len(refs)); entry [i, j] equals ``viff(refs[j], fused[i])``.

    Scale by scale, each reference's statistics and information are computed
    once for the pool, and each fused image's once for all references.
    """
    shape = _pool_shape(refs, fused)
    if min(shape) < 32:
        raise DimensionError(f"viff needs dims >= 32 for 4 scales, got {shape}")
    num = np.zeros((len(fused), len(refs)))
    den = np.zeros(len(refs))
    rs = [ref.data for ref in refs]
    ds = [img.data for img in fused]
    for level in range(_VIF_SCALES):
        # scale 0 works on 255-scaled intensities; a scaled reference is made
        # again where it is read, not held for the whole pool
        unit = 255.0 if level == 0 else 1.0
        stats = []
        for j, r in enumerate(rs):
            mu1, s1, info = _vif_reference(r * unit)
            den[j] += info
            stats.append((r, mu1, s1))
        for i, d in enumerate(ds):
            terms, ds[i] = _vif_fused(d, stats, unit)
            num[i] += terms
        rs = [mu1[::2, ::2] for _, mu1, _ in stats]
    # a constant reference carries no information; fidelity is trivially full
    return np.divide(num, den, out=np.ones_like(num), where=den != 0.0)


def viff(ref: ImageGray, fused: ImageGray) -> float:
    """Pixel-domain visual information fidelity of ``fused`` given ``ref``.

    Four scales, each Gaussian-smoothed and decimated by 2. At every scale
    the local scalar-GSM statistics give the per-pixel gain g and residual
    variance; the score is the ratio of information in the fused channel to
    information in the reference channel summed over all scales.
    """
    return float(viff_pool([ref], [fused])[0, 0])


# ---------------------------------------------------------------------------
# Combined score: min-max normalization across a candidate pool
# ---------------------------------------------------------------------------

METRIC_KEYS = ("en", "ag", "ssim", "viff", "niqe_inv", "psnr", "mi", "brenner")


def _metric_columns(candidates: list[QualityScores]) -> dict[str, np.ndarray]:
    with_niqe = [s.niqe is not None for s in candidates]
    if any(with_niqe) and not all(with_niqe):
        raise NotEvaluatedError("mixed candidate pool: some scores lack NIQE")
    cols = {
        "en": [s.en for s in candidates],
        "ag": [s.ag for s in candidates],
        "ssim": [(s.ssim_a + s.ssim_b) / 2.0 for s in candidates],
        "viff": [s.viff for s in candidates],
        "psnr": [(s.psnr_a + s.psnr_b) / 2.0 for s in candidates],
        "mi": [s.mi_a + s.mi_b for s in candidates],
        "brenner": [s.brenner for s in candidates],
    }
    if all(with_niqe):
        # lower NIQE is better: the reciprocal enters the normalization
        cols["niqe_inv"] = [1.0 / max(s.niqe, 1e-12) for s in candidates]
    out = {}
    for key, values in cols.items():
        col = np.asarray(values, dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(col))
        if bad.size:
            raise RangeError(
                f"non-finite value {col[bad[0]]} in metric column {key!r} of candidate {bad[0]}"
            )
        out[key] = col
    return out


def combined_score(candidates: list[QualityScores], weights: dict[str, float] | None = None) -> list[float]:
    """Weighted mean of min-max-normalized metrics across the candidate pool.

    A metric that is constant across the pool contributes 0.5 to every
    candidate. Default weights are equal over all available metrics;
    ``weights`` entries override per metric key (see METRIC_KEYS).
    """
    if not candidates:
        raise EmptyInputError("no candidates to score")
    for s in candidates:
        if s is None:
            raise NotEvaluatedError("candidate scores missing")
    cols = _metric_columns(candidates)
    total_w = 0.0
    acc = np.zeros(len(candidates), dtype=np.float64)
    for key, col in cols.items():
        w = 1.0 if weights is None else float(weights.get(key, 1.0))
        if w == 0.0:
            continue
        lo, hi = col.min(), col.max()
        norm = np.full_like(col, 0.5) if hi == lo else (col - lo) / (hi - lo)
        acc += w * norm
        total_w += w
    return list(acc / total_w)
