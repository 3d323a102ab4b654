import numpy as np
import pytest

from evofuse.image import ImageGray, ImagePair, Task
from evofuse.net import layers
from evofuse.niqe import default_niqe_model
from evofuse.synth import toy_pairs


@pytest.fixture(scope="session")
def niqe_model():
    return default_niqe_model()


@pytest.fixture(scope="session")
def toy_dataset():
    return toy_pairs(n=4, size=96, seed=5)


@pytest.fixture
def partial_blocks(monkeypatch):
    """Every tap loop whose flat span allows it splits the span into >= 3
    column blocks, the last one partial, so blocks end mid-row; each loop
    is recorded as (span, split), split False when the span ran as one
    block. The loop is handed more rows than any stacked buffer in the
    tests, so the block budget alone sets its column count."""
    rows, tap_blocks = 1 << 20, layers._tap_blocks
    spans = []

    def split(src, k, wp, span, _rows, stacked):
        cols = next((c for c in range(wp, span) if span % c and -(-span // c) >= 3), span)
        monkeypatch.setattr(layers, "_BLOCK_ELEMS", rows * cols)
        spans.append((span, cols < span))
        return tap_blocks(src, k, wp, span, rows, stacked)

    monkeypatch.setattr(layers, "_tap_blocks", split)
    return spans


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def random_image(rng, h=16, w=16) -> ImageGray:
    return ImageGray(rng.random((h, w)))


def random_pair(rng, h=16, w=16, pair_id="p", task=Task.IR_VISIBLE) -> ImagePair:
    return ImagePair(random_image(rng, h, w), random_image(rng, h, w), pair_id, task)
