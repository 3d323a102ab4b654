"""Deterministic synthetic imagery for benchmarks, demos and tests."""

from __future__ import annotations

import numpy as np

from .image import ImageGray, ImagePair, Task, gaussian_filter


def _normalize(a: np.ndarray) -> np.ndarray:
    lo, hi = a.min(), a.max()
    if hi == lo:
        return np.full_like(a, 0.5)
    return (a - lo) / (hi - lo)


def uniform_noise(rng, h: int, w: int) -> ImageGray:
    return ImageGray(rng.random((h, w)))


def smooth_noise(rng, h: int, w: int, sigma: float = 3.0) -> ImageGray:
    return ImageGray(_normalize(gaussian_filter(rng.standard_normal((h, w)), sigma)))


def pink_noise(rng, h: int, w: int) -> ImageGray:
    """1/f-spectrum noise; its local statistics resemble natural scenes."""
    white = rng.standard_normal((h, w))
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.fftfreq(w)[None, :]
    radius = np.sqrt(fy * fy + fx * fx)
    radius[0, 0] = 1.0
    spectrum = np.fft.fft2(white) / radius
    return ImageGray(_normalize(np.fft.ifft2(spectrum).real))


def pristine_corpus(n: int = 20, size: int = 192, seed: int = 7) -> list[ImageGray]:
    rng = np.random.default_rng(seed)
    return [pink_noise(rng, size, size) for _ in range(n)]


def toy_pairs(
    n: int = 10, size: int = 96, seed: int = 5, task: Task = Task.IR_VISIBLE
) -> list[ImagePair]:
    """Pairs of differently-smoothed views of a shared scene (multi-modal-ish)."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n):
        scene = smooth_noise(rng, size, size, sigma=2.5).data
        a = _normalize(scene + 0.3 * smooth_noise(rng, size, size, sigma=5.0).data)
        b = _normalize(gaussian_filter(scene, 1.5) + 0.3 * rng.random((size, size)))
        pairs.append(ImagePair(ImageGray(a), ImageGray(b), f"{task.value}-{i:03d}", task))
    return pairs


def bench_pair(rng, size: int) -> ImagePair:
    return ImagePair(
        uniform_noise(rng, size, size), uniform_noise(rng, size, size), "bench", Task.IR_VISIBLE
    )
