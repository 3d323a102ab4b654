"""Classical fusion rules forming the candidate pool.

Five deterministic fusers spanning the usual families: per-pixel mean,
contrast-max, focus (gradient) selection, Laplacian-pyramid blending and
exposure weighting. Each is registered under a stable string id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, UnknownAlgorithmError
from .image import ImageGray, ImagePair, filter2_same
from .metrics import QualityScores
from .pyramid import laplacian_decompose, laplacian_reconstruct

_LAPLACIAN_KERNEL = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])
GRADSEL_WINDOW = 7  # odd side of gradsel's energy box and majority filter
LP_LEVELS = 4  # detail bands of the lp pyramid


@dataclass
class FusionCandidate:
    """A fused image tagged with the producing algorithm and its scores;
    ``mark`` is a combined watermark read from a saved bank (nan: none)."""

    algo_id: str
    fused: ImageGray
    scores: QualityScores | None = None
    mark: float = float("nan")


def fuse_average(pair: ImagePair) -> FusionCandidate:
    """Per-pixel mean of the two sources."""
    return FusionCandidate("avg", ImageGray((pair.a.data + pair.b.data) / 2.0))


def fuse_absmax(pair: ImagePair) -> FusionCandidate:
    """Per-pixel value with the larger deviation from mid-gray; ties take a."""
    a, b = pair.a.data, pair.b.data
    pick_a = np.abs(a - 0.5) >= np.abs(b - 0.5)
    return FusionCandidate("absmax", ImageGray(np.where(pick_a, a, b)))


def _gradient_energy(a: np.ndarray) -> np.ndarray:
    e = np.zeros_like(a)
    dx = a[:, 1:] - a[:, :-1]
    dy = a[1:, :] - a[:-1, :]
    e[:, :-1] += dx * dx
    e[:-1, :] += dy * dy
    return e


def fuse_gradient_select(pair: ImagePair) -> FusionCandidate:
    """Per-pixel pick of the source with larger local gradient energy.

    The binary decision map is smoothed by a majority filter over the same
    window before selection.
    """
    box = np.ones((GRADSEL_WINDOW, GRADSEL_WINDOW))
    energy_a = filter2_same(_gradient_energy(pair.a.data), box)
    energy_b = filter2_same(_gradient_energy(pair.b.data), box)
    pick_a = (energy_a >= energy_b).astype(np.float64)
    majority = filter2_same(pick_a, box) >= box.size / 2.0
    fused = np.where(majority, pair.a.data, pair.b.data)
    return FusionCandidate("gradsel", ImageGray(fused))


def fuse_laplacian_pyramid(pair: ImagePair) -> FusionCandidate:
    """Multi-scale blend: max-abs detail coefficients, mean base band."""
    if min(pair.height, pair.width) < 2**LP_LEVELS:
        raise DimensionError(
            f"image {pair.height}x{pair.width} too small for {LP_LEVELS} pyramid levels"
        )
    det_a, base_a = laplacian_decompose(pair.a.data, LP_LEVELS)
    det_b, base_b = laplacian_decompose(pair.b.data, LP_LEVELS)
    details = [np.where(np.abs(da) >= np.abs(db), da, db) for da, db in zip(det_a, det_b)]
    fused = laplacian_reconstruct(details, (base_a + base_b) / 2.0)
    return FusionCandidate("lp", ImageGray(np.clip(fused, 0.0, 1.0)))


def fuse_exposure_weighted(pair: ImagePair) -> FusionCandidate:
    """Weighted sum with well-exposedness times local-contrast weights."""

    def weight(a: np.ndarray) -> np.ndarray:
        well = np.exp(-((a - 0.5) ** 2) / (2.0 * 0.2**2))
        contrast = np.abs(filter2_same(a, _LAPLACIAN_KERNEL))
        return well * contrast + 1e-12

    wa = weight(pair.a.data)
    wb = weight(pair.b.data)
    fused = (wa * pair.a.data + wb * pair.b.data) / (wa + wb)
    return FusionCandidate("expw", ImageGray(np.clip(fused, 0.0, 1.0)))


# ids are stable public API
REGISTRY = {
    "avg": fuse_average,
    "absmax": fuse_absmax,
    "gradsel": fuse_gradient_select,
    "lp": fuse_laplacian_pyramid,
    "expw": fuse_exposure_weighted,
}

DEFAULT_ALGOS = ("avg", "absmax", "gradsel", "lp", "expw")


def run_bank(pair: ImagePair, algos=None) -> list[FusionCandidate]:
    """One candidate per algorithm id, order preserved."""
    if algos is None:
        algos = DEFAULT_ALGOS
    out = []
    for algo_id in algos:
        fn = REGISTRY.get(algo_id)
        if fn is None:
            raise UnknownAlgorithmError(f"unknown fusion algorithm {algo_id!r}")
        candidate = fn(pair)
        if candidate.fused.shape != pair.a.shape:
            raise DimensionError(
                f"{algo_id}: fused shape {candidate.fused.shape} != pair {pair.a.shape}"
            )
        out.append(candidate)
    return out
