import numpy as np
import pytest
from scipy import ndimage

from evofuse.errors import DimensionError, UnknownAlgorithmError
from evofuse.fusion import (
    DEFAULT_ALGOS,
    REGISTRY,
    fuse_absmax,
    fuse_average,
    fuse_exposure_weighted,
    fuse_gradient_select,
    fuse_laplacian_pyramid,
    run_bank,
)
from evofuse.image import ImageGray, ImagePair, Task

from conftest import random_pair
from scenes import exposure_pair, split_focus_pair


def identical_pair(rng, h=64, w=64):
    img = ImageGray(rng.random((h, w)))
    return ImagePair(img, img, "same")


class TestAverage:
    def test_idempotent_on_identical(self, rng):
        pair = identical_pair(rng)
        assert np.max(np.abs(fuse_average(pair).fused.data - pair.a.data)) <= 1e-12

    def test_extremes_give_mid(self):
        pair = ImagePair(ImageGray(np.zeros((4, 4))), ImageGray(np.ones((4, 4))), "x")
        np.testing.assert_allclose(fuse_average(pair).fused.data, 0.5)

    def test_elementwise_mean(self, rng):
        pair = random_pair(rng, 8, 8)
        np.testing.assert_allclose(
            fuse_average(pair).fused.data, (pair.a.data + pair.b.data) / 2.0
        )

    def test_symmetry(self, rng):
        pair = random_pair(rng, 8, 8)
        flipped = ImagePair(pair.b, pair.a, "f")
        np.testing.assert_array_equal(
            fuse_average(pair).fused.data, fuse_average(flipped).fused.data
        )


class TestAbsmax:
    def test_larger_deviation_wins(self):
        pair = ImagePair(
            ImageGray(np.full((2, 2), 0.9)), ImageGray(np.full((2, 2), 0.2)), "x"
        )
        np.testing.assert_allclose(fuse_absmax(pair).fused.data, 0.9)

    def test_ties_take_a(self, rng):
        a = rng.random((4, 4))
        pair = ImagePair(ImageGray(a), ImageGray(1.0 - a), "t")  # equal deviation
        np.testing.assert_array_equal(fuse_absmax(pair).fused.data, a)

    def test_identical(self, rng):
        pair = identical_pair(rng, 8, 8)
        np.testing.assert_array_equal(fuse_absmax(pair).fused.data, pair.a.data)


class TestGradientSelect:
    def test_sharp_source_dominates(self, rng):
        sharp = rng.random((64, 64))
        blurred = ndimage.gaussian_filter(sharp, 2.0).clip(0.0, 1.0)
        pair = ImagePair(ImageGray(sharp), ImageGray(blurred), "focus")
        fused = fuse_gradient_select(pair).fused.data
        interior = (slice(8, -8), slice(8, -8))
        frac = np.mean(fused[interior] == sharp[interior])
        assert frac >= 0.95

    def test_identical(self, rng):
        pair = identical_pair(rng, 32, 32)
        np.testing.assert_array_equal(fuse_gradient_select(pair).fused.data, pair.a.data)

    def test_split_focus_decision_splits(self):
        pair = split_focus_pair(size=96)
        fused = fuse_gradient_select(pair).fused.data
        left = (slice(None), slice(0, 32))
        right = (slice(None), slice(64, 96))
        assert np.mean(fused[left] == pair.a.data[left]) > 0.9  # a sharp left
        assert np.mean(fused[right] == pair.b.data[right]) > 0.9  # b sharp right


class TestLaplacianFuser:
    def test_identical_roundtrip(self, rng):
        pair = identical_pair(rng)
        assert np.max(np.abs(fuse_laplacian_pyramid(pair).fused.data - pair.a.data)) <= 1e-6

    def test_constants_average(self):
        pair = ImagePair(
            ImageGray(np.full((32, 32), 0.2)), ImageGray(np.full((32, 32), 0.6)), "c"
        )
        np.testing.assert_allclose(fuse_laplacian_pyramid(pair).fused.data, 0.4, atol=1e-9)

    def test_too_small_rejected(self, rng):
        with pytest.raises(DimensionError):
            fuse_laplacian_pyramid(random_pair(rng, 8, 8))


class TestExposureWeighted:
    def test_mid_gray_fixture(self):
        pair = ImagePair(
            ImageGray(np.full((16, 16), 0.5)), ImageGray(np.full((16, 16), 0.5)), "m"
        )
        np.testing.assert_allclose(fuse_exposure_weighted(pair).fused.data, 0.5, atol=1e-12)

    def test_identical(self, rng):
        pair = identical_pair(rng, 16, 16)
        np.testing.assert_allclose(
            fuse_exposure_weighted(pair).fused.data, pair.a.data, atol=1e-12
        )

    def test_mid_exposure_dominates_overexposed(self):
        pair = exposure_pair(size=96)  # a over-exposed, b mid-exposed
        fused = fuse_exposure_weighted(pair).fused.data
        frac = np.mean(np.abs(fused - pair.b.data) <= 0.1)
        assert frac >= 0.90


class TestBank:
    def test_all_algos_run(self, rng):
        pair = random_pair(rng, 64, 64)
        cands = run_bank(pair)
        assert [c.algo_id for c in cands] == list(DEFAULT_ALGOS)
        assert len({c.algo_id for c in cands}) == len(DEFAULT_ALGOS)

    def test_empty_list(self, rng):
        assert run_bank(random_pair(rng, 64, 64), []) == []

    def test_unknown_algo(self, rng):
        with pytest.raises(UnknownAlgorithmError):
            run_bank(random_pair(rng, 64, 64), ["nope"])

    def test_identical_pair_all_idempotent(self, rng):
        pair = identical_pair(rng)
        for cand in run_bank(pair):
            assert np.max(np.abs(cand.fused.data - pair.a.data)) <= 1e-6, cand.algo_id

    def test_range_safety(self, rng):
        for _ in range(3):
            pair = random_pair(rng, 64, 64)
            for cand in run_bank(pair):
                assert cand.fused.data.min() >= 0.0
                assert cand.fused.data.max() <= 1.0

    def test_registry_ids_stable(self):
        assert set(REGISTRY) == {"avg", "absmax", "gradsel", "lp", "expw"}
