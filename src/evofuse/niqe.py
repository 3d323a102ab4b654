"""No-reference quality scoring from natural-scene statistics.

A pristine corpus is summarized by the mean and covariance of 36 AGGD
features extracted from MSCN coefficients and their four orientation
products at two scales. Test images are scored by the Mahalanobis-style
distance between their feature statistics and the pristine model.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DimensionError,
    FormatError,
    InsufficientDataError,
    IoError,
    TruncationError,
)
from .image import ImageGray, gaussian_taps, separable_filter

FEATURE_DIM = 36
DEFAULT_PATCH = 96

_MSCN_TAPS = gaussian_taps(7, 7.0 / 6.0)
_MSCN_STABILIZER = 1.0 / 255.0
# [0, 1] pixels: flat windows leave |a - mu| of 1 ulp of 1.0, 8-bit steps >= 6e-7
_FLAT_EPS = 1e-12

# shape-parameter grid for the moment-matching AGGD fit; a fit returns grid
# indices, so gamma(k / alpha) is a lookup in these tables
_ALPHA_GRID = np.arange(0.2, 10.0 + 1e-9, 0.001)
_GAMMA_1, _GAMMA_2, _GAMMA_3 = (
    np.array([math.gamma(v) for v in k / _ALPHA_GRID]) for k in (1.0, 2.0, 3.0)
)
_R_GAM = _GAMMA_2**2 / (_GAMMA_1 * _GAMMA_3)


@dataclass
class NiqeModel:
    """Pristine-corpus feature statistics: mean vector and covariance."""

    mu_ref: np.ndarray
    cov_ref: np.ndarray

    def __post_init__(self):
        self.mu_ref = np.asarray(self.mu_ref, dtype=np.float64)
        self.cov_ref = np.asarray(self.cov_ref, dtype=np.float64)
        d = FEATURE_DIM
        if self.mu_ref.shape != (d,):
            raise FormatError(f"mean vector shape {self.mu_ref.shape} != ({d},)")
        if self.cov_ref.shape != (d, d):
            raise FormatError(f"covariance shape {self.cov_ref.shape} != ({d}, {d})")
        if not np.allclose(self.cov_ref, self.cov_ref.T, atol=1e-9):
            raise FormatError("covariance is not symmetric")


def _alpha_index(r: np.ndarray) -> np.ndarray:
    """Index of the grid alpha whose _R_GAM value lies nearest r, the lower
    one on a tie: _R_GAM increases strictly, so argmin((_R_GAM - r) ** 2)."""
    hi = np.clip(np.searchsorted(_R_GAM, r), 1, _R_GAM.size - 1)
    return np.where((_R_GAM[hi - 1] - r) ** 2 <= (_R_GAM[hi] - r) ** 2, hi - 1, hi)


def _aggd_fit(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Asymmetric generalized Gaussian (alpha's grid index, beta_left,
    beta_right) of each row of ``v`` by moments; an all-zero row gives
    (0, 0, 0), the index of alpha 0.2."""
    part = np.maximum(v, 0.0)
    n_r, s_r = np.count_nonzero(part, axis=1), part.sum(axis=1)
    q_r = np.einsum("ij,ij->i", part, part)
    np.minimum(v, 0.0, out=part)
    n_l, s_l = np.count_nonzero(part, axis=1), part.sum(axis=1)
    q_l = np.einsum("ij,ij->i", part, part)
    lstd, rstd = np.sqrt(q_l / np.maximum(n_l, 1)), np.sqrt(q_r / np.maximum(n_r, 1))
    gam_hat = lstd / np.maximum(rstd, 1e-12)
    n = max(v.shape[1], 1)
    mean_sq = (q_l + q_r) / n
    r_hat = ((s_r - s_l) / n) ** 2 / np.where(mean_sq > 0.0, mean_sq, 1.0)
    i = _alpha_index(r_hat * ((gam_hat**3 + 1.0) * (gam_hat + 1.0)) / ((gam_hat**2 + 1.0) ** 2))
    ratio = np.sqrt(_GAMMA_1[i] / _GAMMA_3[i])
    return i, lstd * ratio, rstd * ratio


def _field_features(m: np.ndarray, s: int, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """(P, 18) AGGD features of the s x s tiles of m at corners ys x xs: MSCN
    fit plus H/V/D1/D2 paired-product fits, each fit over all P tiles."""
    t = sliding_window_view(m, (s, s))[np.ix_(ys, xs)].reshape(-1, s, s)
    i, bl, br = _aggd_fit(t.reshape(len(t), -1))
    feats = [_ALPHA_GRID[i], (bl + br) / 2.0]
    pairs = (
        (t[:, :, :-1], t[:, :, 1:]),      # horizontal
        (t[:, :-1, :], t[:, 1:, :]),      # vertical
        (t[:, :-1, :-1], t[:, 1:, 1:]),   # main diagonal
        (t[:, :-1, 1:], t[:, 1:, :-1]),   # anti diagonal
    )
    for u, w in pairs:
        i, bl, br = _aggd_fit((u * w).reshape(len(t), -1))
        eta = (br - bl) * (_GAMMA_2[i] / _GAMMA_1[i])
        feats.extend([_ALPHA_GRID[i], eta, bl, br])
    return np.stack(feats, axis=1)


def _mscn(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean-subtracted contrast-normalized field and the local deviation map;
    |a - mu| <= _FLAT_EPS is rounding, set to 0, so flat gives 0 at any level."""
    mu = separable_filter(a, _MSCN_TAPS)
    sigma = np.sqrt(np.clip(separable_filter(a * a, _MSCN_TAPS) - mu * mu, 0.0, None))
    d = a - mu
    d[np.abs(d) <= _FLAT_EPS] = 0.0
    return d / (sigma + _MSCN_STABILIZER), sigma


def _halve(a: np.ndarray) -> np.ndarray:
    """2x2 block mean; trailing odd row/column dropped."""
    h, w = a.shape
    a = a[: h - h % 2, : w - w % 2]
    return 0.25 * (a[0::2, 0::2] + a[0::2, 1::2] + a[1::2, 0::2] + a[1::2, 1::2])


def _image_features(a: np.ndarray, patch: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-patch 36-feature rows at two scales plus per-patch sharpness over
    the aligned tiling; a half-scale tile (side patch // 2) starts at the corner halved."""
    h, w = a.shape
    if h < patch or w < patch:
        raise DimensionError(f"image {h}x{w} smaller than {patch}x{patch} patch")
    ys, xs = np.arange(0, h - patch + 1, patch), np.arange(0, w - patch + 1, patch)
    m1, sigma = _mscn(a)
    sharp = np.array([sigma[y : y + patch, x : x + patch].mean() for y in ys for x in xs])
    f1 = _field_features(m1, patch, ys, xs)
    f2 = _field_features(_mscn(_halve(a))[0], patch // 2, ys // 2, xs // 2)
    return np.concatenate([f1, f2], axis=1), sharp


def fit_niqe_model(pristine: list[ImageGray]) -> NiqeModel:
    """Fit the pristine MVG model from >= 20 images, each >= patch size.

    Patches are sharpness-filtered corpus-wide: only the top 75% by mean
    local deviation enter the fit.
    """
    if len(pristine) < 20:
        raise InsufficientDataError(f"need >= 20 pristine images, got {len(pristine)}")
    feats = []
    sharp = []
    for img in pristine:
        f, s = _image_features(img.data, DEFAULT_PATCH)
        feats.append(f)
        sharp.append(s)
    feats = np.concatenate(feats)
    sharp = np.concatenate(sharp)
    keep = sharp >= np.quantile(sharp, 0.25)
    feats = feats[keep]
    if feats.shape[0] < 2:
        raise InsufficientDataError(f"only {feats.shape[0]} usable patches")
    return NiqeModel(mu_ref=feats.mean(axis=0), cov_ref=np.cov(feats, rowvar=False))


def niqe_score(img: ImageGray, model: NiqeModel) -> float:
    """Distance between the image's feature statistics and the pristine model.

    Uses the pseudo-inverse of the pooled covariance, so a singular pool
    still yields a finite score.
    """
    feats, _ = _image_features(img.data, DEFAULT_PATCH)
    mu = feats.mean(axis=0)
    if feats.shape[0] >= 2:
        cov = np.cov(feats, rowvar=False)
    else:
        cov = np.zeros_like(model.cov_ref)
    pooled = (model.cov_ref + cov) / 2.0
    delta = model.mu_ref - mu
    val = float(delta @ np.linalg.pinv(pooled) @ delta)
    return float(np.sqrt(max(val, 0.0)))


# ---------------------------------------------------------------------------
# Model file format: magic "NIQE", u32 feature_dim, mu then row-major cov
# as float64 little-endian.
# ---------------------------------------------------------------------------

_MAGIC = b"NIQE"


def save_niqe_model(model: NiqeModel, path) -> None:
    payload = (
        _MAGIC
        + struct.pack("<I", FEATURE_DIM)
        + model.mu_ref.astype("<f8").tobytes()
        + np.ascontiguousarray(model.cov_ref, dtype="<f8").tobytes()
    )
    try:
        Path(path).write_bytes(payload)
    except OSError as exc:
        raise IoError(str(exc)) from exc


def load_niqe_model(path) -> NiqeModel:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(str(exc)) from exc
    if blob[:4] != _MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {_MAGIC!r}")
    if len(blob) < 8:
        raise TruncationError("model file ends inside the header")
    (d,) = struct.unpack("<I", blob[4:8])
    if d != FEATURE_DIM:
        raise FormatError(f"feature_dim {d} != {FEATURE_DIM}")
    need = 8 + 8 * (d + d * d)
    if len(blob) < need:
        raise TruncationError(f"expected {need} bytes, found {len(blob)}")
    if len(blob) > need:
        raise FormatError(f"{len(blob) - need} trailing bytes after the covariance")
    values = np.frombuffer(blob[8:need], dtype="<f8")
    if not np.isfinite(values).all():
        raise FormatError("model holds non-finite values")
    return NiqeModel(mu_ref=values[:d].copy(), cov_ref=values[d:].reshape(d, d).copy())


@lru_cache(maxsize=1)
def default_niqe_model() -> NiqeModel:
    """Fallback model: ``fit_niqe_model(synth.pristine_corpus())`` on synthetic
    1/f-noise imagery, shipped as ``default_model.niqe`` instead of refitted."""
    return load_niqe_model(Path(__file__).with_name("default_model.niqe"))
