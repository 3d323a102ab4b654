"""Burt-Adelson pyramid machinery for the multi-scale fuser.

Downsampling smooths with the separable 5-tap kernel [1,4,6,4,1]/16 and
decimates by 2; upsampling zero-inserts and filters with the same kernel
scaled x2 per axis. Odd levels are padded to even with reflected samples
and cropped back on reconstruction, so decompose/reconstruct is exact.
"""

from __future__ import annotations

import numpy as np

from .image import correlate1d

_KERNEL_1D = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


def _smooth(a: np.ndarray, gain: float = 1.0) -> np.ndarray:
    k = _KERNEL_1D * gain
    return correlate1d(correlate1d(a, k, 0), k, 1)


def _pad_to_even(a: np.ndarray) -> np.ndarray:
    ph = a.shape[0] % 2
    pw = a.shape[1] % 2
    if ph or pw:
        a = np.pad(a, ((0, ph), (0, pw)), mode="symmetric")
    return a


def downsample(a: np.ndarray) -> np.ndarray:
    return _smooth(_pad_to_even(a))[::2, ::2]


def upsample(a: np.ndarray, out_shape: tuple[int, int]) -> np.ndarray:
    # pad the low-res grid before inserting zeros so the border sees a
    # consistent sample comb (keeps constants exactly constant)
    ap = np.pad(a, 1, mode="symmetric")
    z = np.zeros((ap.shape[0] * 2, ap.shape[1] * 2), dtype=np.float64)
    z[::2, ::2] = ap
    # zero insertion halves the energy per axis; the x2 gain restores it
    sm = _smooth(z, gain=2.0)
    return sm[2 : 2 + out_shape[0], 2 : 2 + out_shape[1]]


def laplacian_decompose(a: np.ndarray, levels: int) -> tuple[list[np.ndarray], np.ndarray]:
    """``levels`` detail bands plus the residual base band."""
    details = []
    cur = np.asarray(a, dtype=np.float64)
    for _ in range(levels):
        nxt = downsample(cur)
        details.append(cur - upsample(nxt, cur.shape))
        cur = nxt
    return details, cur


def laplacian_reconstruct(details: list[np.ndarray], base: np.ndarray) -> np.ndarray:
    cur = base
    for detail in reversed(details):
        cur = detail + upsample(cur, detail.shape)
    return cur
