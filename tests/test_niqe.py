import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from evofuse import niqe, synth
from evofuse.errors import DimensionError, FormatError, InsufficientDataError, TruncationError
from evofuse.fusion import run_bank
from evofuse.image import ImageGray
from evofuse.niqe import (
    _ALPHA_GRID,
    _R_GAM,
    NiqeModel,
    _alpha_index,
    _image_features,
    fit_niqe_model,
    load_niqe_model,
    niqe_score,
    save_niqe_model,
)
from evofuse.synth import pink_noise, toy_pairs
from oracles import niqe_features_oracle

# feature columns holding a grid alpha: the MSCN fit and the four product
# fits at each of the two scales
ALPHA_COLS = [0, 2, 6, 10, 14, 18, 20, 24, 28, 32]


def test_feature_dim_is_36(niqe_model):
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
    assert model.mu_ref.shape == (36,)
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


def _oracle_inputs():
    rng = np.random.default_rng(11)
    step = np.full((192, 192), 0.3)
    step[:, 96:] = 0.7
    cases = [
        pytest.param(c.fused.data, 96, id=f"pinned96-{pair.pair_id}-{c.algo_id}")
        for pair in toy_pairs(n=3, size=96, seed=0)
        for c in run_bank(pair)
    ]
    select400 = run_bank(toy_pairs(n=1, size=400, seed=0)[0])
    cases += [pytest.param(c.fused.data, 96, id=f"select400-{c.algo_id}") for c in select400]
    return cases + [
        pytest.param(rng.random((200, 291)), 96, id="200x291"),
        pytest.param(rng.random((200, 291)), 95, id="odd-patch-95"),
        pytest.param(rng.random((21, 26)), 2, id="patch-2"),
        pytest.param(np.full((192, 192), 1.0 / 3.0), 96, id="flat"),
        pytest.param(step, 96, id="step"),
    ]


@pytest.mark.parametrize("a,patch", _oracle_inputs())
def test_features_match_per_patch_oracle(a, patch):
    feats, sharp = _image_features(a, patch)
    want, want_sharp = niqe_features_oracle(a, patch)
    assert feats.shape == want.shape
    np.testing.assert_array_equal(feats[:, ALPHA_COLS], want[:, ALPHA_COLS])
    np.testing.assert_array_equal(sharp, want_sharp)
    others = [i for i in range(feats.shape[1]) if i not in ALPHA_COLS]
    np.testing.assert_allclose(feats[:, others], want[:, others], rtol=1e-11, atol=1e-13)


def test_alpha_lookup_matches_grid_argmin():
    # every grid value, each midpoint and its two neighbouring floats, and
    # values below and above the grid; the fit's ratio lies in [0, 1.125]
    # (r_hat <= 1 times an asymmetry factor <= 1.125)
    mid = (_R_GAM[:-1] + _R_GAM[1:]) / 2.0
    r = np.concatenate([
        _R_GAM,
        mid,
        np.nextafter(mid, -np.inf),
        np.nextafter(mid, np.inf),
        [0.0, _R_GAM[0] / 2.0, np.nextafter(_R_GAM[0], -np.inf)],
        [np.nextafter(_R_GAM[-1], np.inf), 1.0, 1.2],
    ])
    got = _ALPHA_GRID[_alpha_index(r)]
    for lo in range(0, r.size, 256):
        chunk = r[lo : lo + 256]
        want = _ALPHA_GRID[np.argmin((_R_GAM[None, :] - chunk[:, None]) ** 2, axis=1)]
        np.testing.assert_array_equal(got[lo : lo + 256], want)


@pytest.mark.parametrize("size", [96, 400])
def test_niqe_score_fits_ten_times(monkeypatch, niqe_model, size):
    # one fit per field (MSCN and four products) per scale, whatever the
    # number of patches
    calls = []

    def counting(v):
        calls.append(v.shape)
        return fit(v)

    fit = niqe._aggd_fit
    monkeypatch.setattr(niqe, "_aggd_fit", counting)
    niqe_score(pink_noise(np.random.default_rng(2), size, size), niqe_model)
    assert len(calls) == 10
    assert {shape[0] for shape in calls} == {(size // 96) ** 2}


def test_flat_images_score_alike_at_any_level(niqe_model):
    # a flat window's mean-subtracted value is rounding of the local mean:
    # it is set to 0, so no level leaves sign noise for the AGGD fits
    levels = [0.3, 0.5, 0.7, 1.0 / 3.0]
    feats = [_image_features(np.full((192, 192), c), 96) for c in levels]
    scores = [niqe_score(ImageGray(np.full((192, 192), c)), niqe_model) for c in levels]
    for f, _ in feats[1:]:
        np.testing.assert_array_equal(f, feats[0][0])
    assert len(set(scores)) == 1


SHIPPED_MODEL = Path(niqe.__file__).with_name("default_model.niqe")
REFIT = (
    "from evofuse.niqe import fit_niqe_model, save_niqe_model; "
    "from evofuse.synth import pristine_corpus; "
    "save_niqe_model(fit_niqe_model(pristine_corpus()), {path!r})"
)


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_shipped_default_model_is_the_fit(tmp_path, blas_threads):
    # the fit is the source of truth: a fresh interpreter at each BLAS thread
    # count must write the shipped file byte for byte
    src = str(SHIPPED_MODEL.parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", REFIT.format(path=str(tmp_path / "fit.niqe"))],
                   env=env, check=True, timeout=120)
    rewrite = f'PYTHONPATH=src python3 -c "{REFIT.format(path="src/evofuse/default_model.niqe")}"'
    assert (tmp_path / "fit.niqe").read_bytes() == SHIPPED_MODEL.read_bytes(), (
        f"{SHIPPED_MODEL.name} differs from the fit; if the fit changed on purpose, "
        f"rewrite it from the repository root with:\n{rewrite}"
    )


@pytest.fixture
def uncached_default_model():
    niqe.default_niqe_model.cache_clear()
    yield niqe.default_niqe_model
    niqe.default_niqe_model.cache_clear()


def test_default_model_is_loaded_not_fitted(monkeypatch, uncached_default_model):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the default model was fitted")

    monkeypatch.setattr(niqe, "fit_niqe_model", refuse)
    monkeypatch.setattr(synth, "pristine_corpus", refuse)
    model, shipped = uncached_default_model(), load_niqe_model(SHIPPED_MODEL)
    np.testing.assert_array_equal(model.mu_ref, shipped.mu_ref)
    np.testing.assert_array_equal(model.cov_ref, shipped.cov_ref)


def test_package_data_lists_every_shipped_file():
    # setuptools leaves non-.py files out of a wheel unless package-data names them
    tomllib = pytest.importorskip("tomllib")
    package = SHIPPED_MODEL.parent
    pyproject = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())
    listed = pyproject["tool"]["setuptools"]["package-data"]["evofuse"]
    data = [p.relative_to(package).as_posix() for p in package.rglob("*")
            if p.is_file() and p.suffix not in (".py", ".pyc")]
    assert "default_model.niqe" in data
    assert sorted(data) == sorted(listed)
