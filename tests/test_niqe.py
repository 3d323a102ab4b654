import struct

import numpy as np
import pytest
from scipy import ndimage

from evofuse.errors import DimensionError, FormatError, InsufficientDataError, TruncationError
from evofuse.image import ImageGray
from evofuse.niqe import (
    NiqeModel,
    fit_niqe_model,
    load_niqe_model,
    niqe_score,
    save_niqe_model,
)
from evofuse.synth import pink_noise, pristine_corpus


def test_feature_dim_is_36(niqe_model):
    assert niqe_model.feature_dim == 36
    assert niqe_model.mu_ref.shape == (36,)
    assert niqe_model.cov_ref.shape == (36, 36)


def test_too_few_images_rejected():
    rng = np.random.default_rng(0)
    imgs = [ImageGray(rng.random((96, 96))) for _ in range(5)]
    with pytest.raises(InsufficientDataError):
        fit_niqe_model(imgs)


def test_undersized_image_rejected(niqe_model):
    with pytest.raises(DimensionError):
        niqe_score(ImageGray(np.random.default_rng(0).random((64, 64))), niqe_model)


def test_identical_white_noise_corpus():
    rng = np.random.default_rng(42)
    base = ImageGray(rng.random((96, 96)))
    model = fit_niqe_model([base] * 20)
    assert model.feature_dim == 36
    assert np.all(np.isfinite(model.mu_ref))
    # one identical patch per image: every feature row repeats, so the
    # covariance (off-diagonals of the product features included) vanishes
    assert np.max(np.abs(model.cov_ref)) < 1e-12


def test_statistics_identical_to_model_gives_zero(niqe_model):
    model2 = NiqeModel(niqe_model.mu_ref, niqe_model.cov_ref)
    # distance formula at nu2=nu1, sigma2=sigma1 is exactly zero
    delta = model2.mu_ref - niqe_model.mu_ref
    pooled = (model2.cov_ref + niqe_model.cov_ref) / 2.0
    val = float(delta @ np.linalg.pinv(pooled) @ delta)
    assert val == 0.0


def test_pristine_scores_below_blurred(niqe_model):
    rng = np.random.default_rng(99)
    img = pink_noise(rng, 192, 192)
    blurred = ImageGray(ndimage.gaussian_filter(img.data, 4.0).clip(0.0, 1.0))
    assert niqe_score(img, niqe_model) < niqe_score(blurred, niqe_model)


def test_singular_pooled_covariance_is_finite():
    mu = np.zeros(36)
    cov = np.zeros((36, 36))  # fully singular
    model = NiqeModel(mu, cov)
    rng = np.random.default_rng(3)
    score = niqe_score(ImageGray(rng.random((96, 96))), model)
    assert np.isfinite(score)


def test_model_roundtrip(tmp_path, niqe_model):
    path = tmp_path / "model.niqe"
    save_niqe_model(niqe_model, path)
    blob = path.read_bytes()
    assert blob[:4] == b"NIQE"
    assert len(blob) == 4 + 4 + 8 * (36 + 36 * 36)
    back = load_niqe_model(path)
    np.testing.assert_array_equal(back.mu_ref, niqe_model.mu_ref)
    np.testing.assert_array_equal(back.cov_ref, niqe_model.cov_ref)


def test_model_bad_magic(tmp_path):
    path = tmp_path / "bad.niqe"
    path.write_bytes(b"XXXX" + bytes(100))
    with pytest.raises(FormatError):
        load_niqe_model(path)


def test_model_truncated(tmp_path, niqe_model):
    path = tmp_path / "trunc.niqe"
    save_niqe_model(niqe_model, path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(TruncationError):
        load_niqe_model(path)


@pytest.mark.parametrize(
    "corrupt,match",
    [
        (lambda blob: blob + b"garbage", "7 trailing bytes"),
        (lambda blob: blob[:8] + struct.pack("<d", float("nan")) + blob[16:], "non-finite"),
        (lambda blob: blob[:8] + struct.pack("<d", float("inf")) + blob[16:], "non-finite"),
        (lambda blob: blob[:8] + struct.pack("<d", float("-inf")) + blob[16:], "non-finite"),
        (lambda blob: blob[:4] + struct.pack("<I", 0), "feature_dim 0"),
        (lambda blob: blob[:4] + struct.pack("<I", 35) + blob[8:], "feature_dim 35"),
    ],
    ids=["trailing-bytes", "nan-mean", "inf-mean", "neg-inf-mean", "dim-0", "dim-35"],
)
def test_model_corrupt_is_format_error(tmp_path, niqe_model, corrupt, match):
    path = tmp_path / "bad.niqe"
    save_niqe_model(niqe_model, path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(FormatError, match=match):
        load_niqe_model(path)


def test_deterministic_scoring(niqe_model):
    rng = np.random.default_rng(5)
    img = ImageGray(rng.random((96, 96)))
    assert niqe_score(img, niqe_model) == niqe_score(img, niqe_model)
