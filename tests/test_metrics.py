import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evofuse.errors import DimensionError, EmptyInputError, EvoFuseError, RangeError
from evofuse.image import ImageGray
from evofuse.metrics import (
    QualityScores,
    avg_gradient,
    brenner,
    combined_score,
    entropy,
    mutual_information,
    psnr,
    ssim,
    viff,
)

from conftest import random_image
from oracles import (
    avg_gradient_oracle,
    brenner_oracle,
    entropy_oracle,
    mutual_information_oracle,
    mutual_information_unshared,
    psnr_oracle,
    ssim_oracle,
    ssim_unshared,
    viff_unshared,
)

# frozen once from this suite's own evaluation (seed 123, sigma 0.01 noise)
VIFF_NOISE_REGRESSION = 0.8870396413015315


class TestEntropy:
    def test_constant_image(self):
        assert entropy(ImageGray(np.full((4, 4), 0.25))) == 0.0

    def test_two_equiprobable_levels(self):
        assert entropy(ImageGray(np.array([[0.0, 1.0]]))) == 1.0

    def test_matches_oracle(self, rng):
        for _ in range(5):
            img = random_image(rng, 8, 8)
            assert abs(entropy(img) - entropy_oracle(img)) < 1e-9

    def test_bounded_by_8_bits(self, rng):
        img = random_image(rng, 32, 32)
        assert 0.0 <= entropy(img) <= 8.0


class TestAvgGradient:
    def test_constant_image(self):
        assert avg_gradient(ImageGray(np.full((4, 4), 0.7))) == 0.0

    def test_hand_2x2(self):
        img = ImageGray(np.array([[0.0, 1.0], [0.0, 1.0]]))
        assert abs(avg_gradient(img) - np.sqrt(0.5) / 4.0) < 1e-12

    def test_matches_oracle(self, rng):
        for _ in range(5):
            img = random_image(rng, 8, 8)
            assert abs(avg_gradient(img) - avg_gradient_oracle(img)) < 1e-9

    def test_one_pixel_dim_rejected(self):
        with pytest.raises(DimensionError):
            avg_gradient(ImageGray(np.zeros((1, 5))))


class TestBrenner:
    def test_constant_image(self):
        assert brenner(ImageGray(np.full((3, 3), 0.2))) == 0.0

    def test_hand_3x1(self):
        assert abs(brenner(ImageGray(np.array([[0.0, 0.0, 1.0]]))) - 1.0 / 3.0) < 1e-12

    def test_matches_oracle(self, rng):
        for _ in range(5):
            img = random_image(rng, 8, 8)
            assert abs(brenner(img) - brenner_oracle(img)) < 1e-9

    def test_narrow_rejected(self):
        with pytest.raises(DimensionError):
            brenner(ImageGray(np.zeros((5, 2))))


class TestSsim:
    def test_self_similarity(self, rng):
        img = random_image(rng)
        assert abs(ssim(img, img) - 1.0) <= 1e-6

    def test_anticorrelated_is_negative(self, rng):
        binary = ImageGray((rng.random((16, 16)) > 0.5).astype(float))
        inverted = ImageGray(1.0 - binary.data)
        assert ssim(binary, inverted) < 0.0

    def test_matches_sliding_window_oracle(self, rng):
        x, y = random_image(rng), random_image(rng)
        assert abs(ssim(x, y) - ssim_oracle(x, y)) < 1e-6

    def test_symmetry(self, rng):
        x, y = random_image(rng), random_image(rng)
        assert abs(ssim(x, y) - ssim(y, x)) < 1e-9

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimensionError):
            ssim(random_image(rng, 16, 16), random_image(rng, 16, 17))

    def test_too_small(self, rng):
        with pytest.raises(DimensionError):
            ssim(random_image(rng, 8, 8), random_image(rng, 8, 8))


class TestPsnr:
    def test_identical_is_capped(self, rng):
        img = random_image(rng)
        assert psnr(img, img) == 100.0

    def test_maximal_error_is_zero_db(self):
        zeros = ImageGray(np.zeros((2, 2)))
        ones = ImageGray(np.ones((2, 2)))
        assert abs(psnr(zeros, ones)) < 1e-12

    def test_matches_oracle(self, rng):
        x, y = random_image(rng), random_image(rng)
        assert abs(psnr(x, y) - psnr_oracle(x, y)) < 1e-9


class TestMutualInformation:
    def test_self_is_entropy(self, rng):
        img = random_image(rng)
        assert abs(mutual_information(img, img) - entropy(img)) <= 1e-9

    def test_constant_source_gives_zero(self, rng):
        const = ImageGray(np.full((8, 8), 0.5))
        assert mutual_information(const, random_image(rng, 8, 8)) == 0.0

    def test_matches_oracle(self, rng):
        x, y = random_image(rng, 8, 8), random_image(rng, 8, 8)
        assert abs(mutual_information(x, y) - mutual_information_oracle(x, y)) < 1e-9

    def test_symmetry_and_bound(self, rng):
        x, y = random_image(rng), random_image(rng)
        assert abs(mutual_information(x, y) - mutual_information(y, x)) < 1e-9
        assert mutual_information(x, y) <= min(entropy(x), entropy(y)) + 1e-9


class TestViff:
    def test_self_fidelity_is_one(self, rng):
        img = random_image(rng, 64, 64)
        assert abs(viff(img, img) - 1.0) <= 1e-6

    def test_constant_fused_carries_nothing(self, rng):
        img = random_image(rng, 64, 64)
        const = ImageGray(np.full((64, 64), 0.5))
        assert viff(img, const) <= 0.05

    def test_noise_regression(self):
        rng = np.random.default_rng(123)
        x = rng.random((64, 64))
        noisy = np.clip(x + rng.normal(0, 0.01, x.shape), 0, 1)
        value = viff(ImageGray(x), ImageGray(noisy))
        assert 0.0 < value < 1.0
        assert abs(value - VIFF_NOISE_REGRESSION) < 1e-9

    def test_too_small(self, rng):
        with pytest.raises(DimensionError):
            viff(random_image(rng, 16, 16), random_image(rng, 16, 16))


def make_scores(**overrides) -> QualityScores:
    base = dict(
        en=5.0,
        ag=0.1,
        brenner=0.2,
        ssim_a=0.8,
        ssim_b=0.7,
        psnr_a=20.0,
        psnr_b=22.0,
        mi_a=1.5,
        mi_b=1.2,
        viff=0.5,
        niqe=4.0,
    )
    base.update(overrides)
    return QualityScores(**base)


class TestCombinedScore:
    def test_single_candidate_is_half(self):
        assert combined_score([make_scores()]) == [0.5]

    def test_dominant_candidate_gets_one(self):
        weak = make_scores()
        strong = make_scores(
            en=6.0, ag=0.2, brenner=0.3, ssim_a=0.9, ssim_b=0.9, psnr_a=30.0,
            psnr_b=30.0, mi_a=2.0, mi_b=2.0, viff=0.8, niqe=3.0,
        )
        scores = combined_score([strong, weak])
        assert scores == [1.0, 0.0]

    def test_three_candidate_hand_computation(self):
        a = make_scores(en=4.0, ag=0.1, niqe=2.0)
        b = make_scores(en=6.0, ag=0.3, niqe=4.0)
        c = make_scores(en=5.0, ag=0.2, niqe=8.0)
        got = combined_score([a, b, c])
        # spreadsheet-style: per-column min-max, NIQE as reciprocal, equal weights
        def norm(col):
            lo, hi = min(col), max(col)
            return [0.5 if hi == lo else (v - lo) / (hi - lo) for v in col]

        cols = [
            norm([4.0, 6.0, 5.0]),                    # en
            norm([0.1, 0.3, 0.2]),                    # ag
            norm([0.75, 0.75, 0.75]),                 # mean ssim (constant)
            norm([0.5, 0.5, 0.5]),                    # viff (constant)
            norm([1 / 2.0, 1 / 4.0, 1 / 8.0]),        # reciprocal NIQE
            norm([21.0, 21.0, 21.0]),                 # mean psnr (constant)
            norm([2.7, 2.7, 2.7]),                    # mi sum (constant)
            norm([0.2, 0.2, 0.2]),                    # brenner (constant)
        ]
        expected = [sum(col[i] for col in cols) / 8.0 for i in range(3)]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_empty_pool_rejected(self):
        with pytest.raises(EmptyInputError):
            combined_score([])

    @pytest.mark.parametrize(
        "field,column", [("ssim_b", "ssim"), ("viff", "viff"), ("niqe", "niqe_inv"), ("en", "en")]
    )
    def test_non_finite_score_is_range_error(self, field, column):
        pool = [make_scores(), make_scores(en=6.0), make_scores(**{field: float("nan")})]
        with pytest.raises(RangeError, match=f"column '{column}' of candidate 2") as info:
            combined_score(pool)
        assert isinstance(info.value, EvoFuseError)

    def test_weights_override(self):
        a = make_scores(en=4.0)
        b = make_scores(en=6.0)
        only_en = combined_score([a, b], weights={k: 0.0 for k in
                                 ("ag", "ssim", "viff", "niqe_inv", "psnr", "mi", "brenner")})
        assert only_en == [0.0, 1.0]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 50.0), st.floats(-5.0, 5.0))
    def test_ranking_invariant_under_affine_rescaling(self, seed, scale, shift):
        rng = np.random.default_rng(seed)
        pool = [
            make_scores(
                en=rng.uniform(0, 8),
                ag=rng.uniform(0, 1),
                brenner=rng.uniform(0, 2),
                viff=rng.uniform(0, 1),
                niqe=rng.uniform(1, 10),
            )
            for _ in range(4)
        ]
        base = combined_score(pool)
        rescaled = [
            dataclasses.replace(s, en=scale * s.en + shift) for s in pool
        ]
        after = combined_score(rescaled)
        assert int(np.argmax(base)) == int(np.argmax(after))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone_in_single_metric(self, seed):
        rng = np.random.default_rng(seed)
        pool = [
            make_scores(en=rng.uniform(0, 8), ag=rng.uniform(0, 1), niqe=rng.uniform(1, 10))
            for _ in range(4)
        ]
        target = int(rng.integers(0, 4))
        before = combined_score(pool)[target]
        improved = list(pool)
        improved[target] = dataclasses.replace(pool[target], en=pool[target].en + 1.0)
        after = combined_score(improved)[target]
        assert after >= before - 1e-12

    def test_determinism(self, rng):
        pool = [make_scores(en=rng.uniform(0, 8)) for _ in range(3)]
        assert combined_score(pool) == combined_score(pool)


@pytest.mark.parametrize("shape", [(64, 64), (45, 77)])
def test_scalar_metrics_equal_unshared_oracles(rng, shape):
    # the public scalars are pools of one; each must reproduce the metric's
    # stand-alone arithmetic exactly
    x, y = random_image(rng, *shape), random_image(rng, *shape)
    y = ImageGray(np.clip(x.data + 0.2 * (y.data - 0.5), 0.0, 1.0))
    assert ssim(x, y) == ssim_unshared(x, y)
    assert viff(x, y) == viff_unshared(x, y)
    assert mutual_information(x, y) == mutual_information_unshared(x, y)


def test_all_metrics_bit_deterministic(rng):
    x, y = random_image(rng, 64, 64), random_image(rng, 64, 64)
    for fn in (entropy, avg_gradient, brenner):
        assert fn(x) == fn(x)
    for fn in (ssim, psnr, mutual_information, viff):
        assert fn(x, y) == fn(x, y)
