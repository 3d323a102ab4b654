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

from .errors import DimensionError, EmptyInputError, NotEvaluatedError
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


def entropy(img: ImageGray) -> float:
    """Shannon entropy in bits over the 256-bin gray-level histogram."""
    return _hist_entropy(quantize8(img.data).astype(np.int64), 256)


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


def _moments(a: np.ndarray, b: np.ndarray, taps: np.ndarray):
    """Local means, variances and covariance (mu1, mu2, s1, s2, s12) of a and b."""
    mu1 = separable_filter(a, taps)
    mu2 = separable_filter(b, taps)
    s1 = separable_filter(a * a, taps) - mu1 * mu1
    s2 = separable_filter(b * b, taps) - mu2 * mu2
    s12 = separable_filter(a * b, taps) - mu1 * mu2
    return mu1, mu2, s1, s2, s12


def _ssim(x: np.ndarray, y: np.ndarray, grad: bool = False):
    """Mean SSIM over the last two axes of (..., h, w) arrays; leading axes
    are independent images. With ``grad`` also returns d(mean SSIM)/dx."""
    h, w = x.shape[-2:]
    if min(h, w) < _SSIM_TAPS.size:
        raise DimensionError(f"ssim needs dims >= {_SSIM_TAPS.size}, got {h}x{w}")
    mu1, mu2, s1, s2, s12 = _moments(x, y, _SSIM_TAPS)
    a1 = 2.0 * mu1 * mu2 + _SSIM_C1
    a2 = 2.0 * s12 + _SSIM_C2
    b1 = mu1 * mu1 + mu2 * mu2 + _SSIM_C1
    b2 = s1 + s2 + _SSIM_C2
    smap = (a1 * a2) / (b1 * b2)
    value = smap.mean(axis=(-2, -1))
    if not grad:
        return value
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


def ssim(x: ImageGray, y: ImageGray) -> float:
    """Mean structural similarity, 11x11 Gaussian window sigma=1.5 on [0, 1]."""
    _require_same_dims(x, y)
    return float(_ssim(x.data, y.data))


def psnr(x: ImageGray, y: ImageGray) -> float:
    """Peak signal-to-noise ratio in dB on 255-scaled intensities, capped at 100."""
    _require_same_dims(x, y)
    diff = (x.data - y.data) * 255.0
    mse = float((diff * diff).mean())
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(255.0**2 / mse), PSNR_CAP_DB)


def mutual_information(x: ImageGray, y: ImageGray) -> float:
    """MI in bits: H(x) + H(y) - H(x, y) over the 256x256 joint histogram."""
    _require_same_dims(x, y)
    qx = quantize8(x.data).astype(np.int64)
    qy = quantize8(y.data).astype(np.int64)
    hx = _hist_entropy(qx, 256)
    hy = _hist_entropy(qy, 256)
    hxy = _hist_entropy(qx * 256 + qy, 65536)
    return max(hx + hy - hxy, 0.0)


def viff(ref: ImageGray, fused: ImageGray) -> float:
    """Pixel-domain visual information fidelity of ``fused`` given ``ref``.

    Four scales, each Gaussian-smoothed and decimated by 2. At every scale
    the local scalar-GSM statistics give the per-pixel gain g and residual
    variance; the score is the ratio of information in the fused channel to
    information in the reference channel summed over all scales.
    """
    _require_same_dims(ref, fused)
    if min(ref.shape) < 32:
        raise DimensionError(f"viff needs dims >= 32 for 4 scales, got {ref.shape}")
    r = ref.data * 255.0
    d = fused.data * 255.0
    num = 0.0
    den = 0.0
    for _ in range(_VIF_SCALES):
        mu1, mu2, s1, s2, s12 = _moments(r, d, _VIF_TAPS)
        s1 = np.clip(s1, 0.0, None)
        s2 = np.clip(s2, 0.0, None)

        g = s12 / (s1 + _VIF_EPS)
        sv = s2 - g * s12
        g[s1 < _VIF_EPS] = 0.0
        sv[s1 < _VIF_EPS] = s2[s1 < _VIF_EPS]
        s1 = np.where(s1 < _VIF_EPS, 0.0, s1)
        g[s2 < _VIF_EPS] = 0.0
        sv[s2 < _VIF_EPS] = 0.0
        sv[g < 0.0] = s2[g < 0.0]
        g[g < 0.0] = 0.0
        sv = np.maximum(sv, _VIF_EPS)

        num += float(np.log10(1.0 + g * g * s1 / (sv + _VIF_NOISE_VAR)).sum())
        den += float(np.log10(1.0 + s1 / _VIF_NOISE_VAR).sum())
        # the next scale is this scale's local mean, decimated by 2
        r, d = mu1[::2, ::2], mu2[::2, ::2]
    if den == 0.0:
        # constant reference carries no information; fidelity is trivially full
        return 1.0
    return num / den


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
        if not np.all(np.isfinite(col)):
            raise ValueError(f"non-finite values in metric column {key!r}")
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
