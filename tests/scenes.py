"""Hand-built source pairs whose fused optimum is known by construction."""

import numpy as np

from evofuse.image import ImageGray, ImagePair, Task, gaussian_filter
from evofuse.synth import _normalize, smooth_noise


def split_focus_pair(size: int = 128, seed: int = 11, pair_id: str = "splitfocus") -> ImagePair:
    """Left-sharp / right-sharp pair from one textured scene."""
    rng = np.random.default_rng(seed)
    scene = 0.6 * smooth_noise(rng, size, size, sigma=2.0).data + 0.4 * rng.random((size, size))
    scene = _normalize(scene)
    blurred = gaussian_filter(scene, 3.0)
    ramp = np.clip((np.arange(size) - size / 2) / 8.0 + 0.5, 0.0, 1.0)[None, :]
    a = scene * (1.0 - ramp) + blurred * ramp  # sharp on the left
    b = scene * ramp + blurred * (1.0 - ramp)  # sharp on the right
    return ImagePair(ImageGray(a), ImageGray(b), pair_id, Task.MULTI_FOCUS)


def exposure_pair(size: int = 128, seed: int = 13, pair_id: str = "exposure") -> ImagePair:
    """Over-exposed / mid-exposed renderings of one textured scene."""
    rng = np.random.default_rng(seed)
    scene = smooth_noise(rng, size, size, sigma=2.0).data
    mid = 0.35 + 0.3 * scene
    over = 0.9 + 0.1 * scene
    return ImagePair(ImageGray(over), ImageGray(mid), pair_id, Task.MULTI_EXPOSURE)
