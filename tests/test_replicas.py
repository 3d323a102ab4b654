"""The NumPy replicas of SciPy's filters, gamma and expit give SciPy's bits,
and the runtime never imports SciPy: it is the tests' oracle only. Nor does
the runtime import any other package beyond NumPy."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage, special

from evofuse import niqe, synth
from evofuse.image import correlate1d, filter2_same, gaussian_filter, gaussian_taps, separable_filter_adjoint
from evofuse.metrics import _SSIM_TAPS
from evofuse.net.layers import sigmoid

ROOT = Path(__file__).resolve().parents[1]
SHAPES = [(1, 1), (3, 5), (12, 17), (2, 1, 9, 4), (7, 64, 64), (400, 400)]


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("size", [3, 5, 7, 11])
@pytest.mark.parametrize("shape", SHAPES)
def test_correlate1d_matches_scipy(rng, size, shape):
    # sides below the tap radius mirror more than once
    taps = gaussian_taps(size, size / 6.0)
    a = rng.standard_normal(shape)
    for axis in (-1, -2):
        want = ndimage.correlate1d(a, taps, axis=axis, mode="reflect")
        assert same_bits(correlate1d(a, taps, axis), want), axis


def scipy_fold(g, taps, axis):
    """``image._reflect_fold`` with SciPy's zero ("constant") borders on the
    zero-padded axis."""
    r = taps.size // 2
    g = np.moveaxis(g, axis, -1)
    n = g.shape[-1]
    padded = np.pad(g, [(0, 0)] * (g.ndim - 1) + [(r, r)])
    full = ndimage.correlate1d(padded, taps[::-1], axis=-1, mode="constant")
    out = full[..., r : r + n].copy()
    out[..., :r] += full[..., :r][..., ::-1]
    out[..., n - r :] += full[..., n + r :][..., ::-1]
    return np.moveaxis(out, -1, axis)


ADJOINT_SHAPES = {
    "r": lambda r: (r, r),
    "r+1": lambda r: (r + 1, r + 1),
    "r-by-r+1": lambda r: (r, r + 1),
    "12x17": lambda r: (12, 17),
    "train-batch": lambda r: (2, 1, 128, 128),
}


@pytest.mark.parametrize(
    "taps", [*(gaussian_taps(size, size / 6.0) for size in (3, 5, 7)), _SSIM_TAPS], ids=["3", "5", "7", "ssim"]
)
@pytest.mark.parametrize("shape", ADJOINT_SHAPES.values(), ids=ADJOINT_SHAPES.keys())
def test_filter_adjoint_matches_scipy_fold(rng, taps, shape):
    # the fold's reflect pass on a zero-padded axis reads only the padding's
    # zeros outside it, so it gives SciPy's constant-mode bits
    g = rng.standard_normal(shape(taps.size // 2))
    want = scipy_fold(scipy_fold(g, taps, -2), taps, -1)
    assert same_bits(separable_filter_adjoint(g, taps), want)


@pytest.mark.parametrize(
    "kernel",
    [
        np.ones((3, 3)) / 9.0,
        np.ones((7, 7)),
        np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]]),
        np.random.default_rng(5).standard_normal((5, 5)),
    ],
    ids=["box3", "box7", "laplacian", "random5"],
)
@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (12, 17), (400, 400)])
def test_filter2_same_matches_scipy(rng, kernel, shape):
    a = rng.standard_normal(shape)
    a[0, 0] = -0.0
    assert same_bits(filter2_same(a, kernel), ndimage.correlate(a, kernel, mode="reflect"))


@pytest.mark.parametrize("sigma", [0.8, 1.5, 2.5, 3.0, 5.0])
@pytest.mark.parametrize("shape", [(3, 5), (12, 17), (96, 96), (400, 400)])
def test_gaussian_filter_matches_scipy(rng, sigma, shape):
    a = rng.standard_normal(shape)
    assert same_bits(gaussian_filter(a, sigma), ndimage.gaussian_filter(a, sigma))


@pytest.mark.parametrize(
    "x",
    [
        np.linspace(-720.0, 720.0, 3_000_001),
        np.array([np.inf, -np.inf, 0.0, -0.0]),
        np.linspace(-709.8, -708.0, 20_001),
    ],
    ids=["range", "limits", "far-left"],
)
def test_sigmoid_matches_expit(x):
    assert same_bits(sigmoid(x), special.expit(x))


def synth_arrays():
    pairs = synth.toy_pairs(n=2, size=96, seed=5) + synth.toy_pairs(n=1, size=400, seed=0)
    focus = synth.split_focus_pair(size=128)
    corpus = synth.pristine_corpus(n=2, size=96)
    return [img.data for p in [*pairs, focus] for img in (p.a, p.b)] + [c.data for c in corpus]


def test_synth_arrays_match_scipy(monkeypatch):
    got = synth_arrays()
    monkeypatch.setattr(synth, "gaussian_filter", ndimage.gaussian_filter)
    want = synth_arrays()
    assert all(same_bits(g, w) for g, w in zip(got, want, strict=True))


def test_gamma_tables_match_scipy():
    tables = (niqe._GAMMA_1, niqe._GAMMA_2, niqe._GAMMA_3)
    for k, table in zip((1.0, 2.0, 3.0), tables):
        np.testing.assert_allclose(table, special.gamma(k / niqe._ALPHA_GRID), rtol=1e-15, atol=0.0)
    assert np.all(np.diff(niqe._R_GAM) > 0.0)


CHILD = """
import sys
from pathlib import Path

# numpy.random loads lazily; its Cython extensions add the top-level
# modules cython_runtime and _cython_<version>, which belong to NumPy
import numpy, numpy.random

def top_level_packages():
    return {m.partition(".")[0] for m in sys.modules} - set(sys.stdlib_module_names)

with_numpy = top_level_packages()
import evofuse, evofuse.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

after_import = scipy_modules()
from evofuse.evolution import init_bank
from evofuse.image import save_pgm
from evofuse.niqe import default_niqe_model
from evofuse.synth import toy_pairs
from evofuse.training import TrainConfig, train

data = Path(sys.argv[1])
pair = toy_pairs(n=1, size=96, seed=3)[0]
save_pgm(pair.a, data / "a.pgm")
save_pgm(pair.b, data / "b.pgm")
assert evofuse.cli.main(["select", "--a", str(data / "a.pgm"), "--b", str(data / "b.pgm")]) == 0
bank = init_bank([pair], default_niqe_model())
train("gcb", [pair], bank, TrainConfig(phases=((0.001, 1),), batch_size=4, patch=32))
print(sorted(top_level_packages() - with_numpy - {"evofuse"}))
print(after_import, scipy_modules())
"""


def test_runtime_never_imports_scipy(tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    *_, added, scipy = done.stdout.splitlines()
    assert added == "[]", f"the runtime imports packages beyond NumPy: {added}"
    assert scipy == "[] []"
