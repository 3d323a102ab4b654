import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evofuse.errors import DimensionError, IoError, ParseError, RangeError, TruncationError
from evofuse.image import (
    ImageGray,
    ImagePair,
    filter2_same,
    gaussian_taps,
    load_pairs,
    load_pgm,
    quantize8,
    save_pgm,
    separable_filter,
    separable_filter_adjoint,
    tile_grid,
)

from conftest import random_image
from oracles import gaussian_kernel


class TestImageGray:
    def test_rejects_out_of_range(self):
        with pytest.raises(RangeError):
            ImageGray(np.array([[0.0, 1.5]]))
        with pytest.raises(RangeError):
            ImageGray(np.array([[-0.1]]))
        with pytest.raises(RangeError, match="non-finite"):
            ImageGray(np.array([[0.5, np.nan]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(DimensionError):
            ImageGray(np.zeros(4))
        with pytest.raises(DimensionError):
            ImageGray(np.zeros((0, 3)))

    def test_pair_requires_same_dims(self, rng):
        with pytest.raises(DimensionError):
            ImagePair(random_image(rng, 4, 4), random_image(rng, 4, 5), "x")

    def test_data_is_immutable(self, rng):
        img = random_image(rng)
        with pytest.raises(ValueError):
            img.data[0, 0] = 0.5


class TestPgm:
    def test_load_2x2_values(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = load_pgm(path)
        assert img.shape == (2, 2)
        np.testing.assert_allclose(
            img.data.ravel(), [0.0, 1.0, 128 / 255, 64 / 255], atol=1e-12
        )

    def test_load_single_pixel(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\xff")
        assert load_pgm(path).data[0, 0] == 1.0

    def test_load_16bit(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n" + (32768).to_bytes(2, "big"))
        assert abs(load_pgm(path).data[0, 0] - 32768 / 65535) < 1e-12

    def test_load_with_comment(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n# a comment\n1 1\n255\n\x00")
        assert load_pgm(path).data[0, 0] == 0.0

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(15))
        with pytest.raises(TruncationError):
            load_pgm(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(ParseError):
            load_pgm(path)

    def test_bad_maxval(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n1 1\n100\n\x00")
        with pytest.raises(ParseError):
            load_pgm(path)

    def test_save_quantization(self, tmp_path):
        path = tmp_path / "t.pgm"
        save_pgm(ImageGray(np.array([[1.0]])), path)
        assert path.read_bytes().endswith(b"\xff")
        save_pgm(ImageGray(np.array([[0.5]])), path)
        assert path.read_bytes().endswith(bytes([128]))  # round-half-up

    def test_roundtrip_all_quantization_levels(self, tmp_path):
        # every 8-bit level plus midpoints; error bounded by half a level
        values = np.concatenate([np.arange(256) / 255.0, (np.arange(255) + 0.5) / 255.0])
        img = ImageGray(values.reshape(1, -1))
        path = tmp_path / "t.pgm"
        save_pgm(img, path)
        back = load_pgm(path)
        assert np.max(np.abs(back.data - img.data)) <= 1.0 / 510.0 + 1e-15

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_roundtrip_random(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        img = random_image(rng, 8, 8)
        path = tmp_path_factory.mktemp("pgm") / "r.pgm"
        save_pgm(img, path)
        assert np.max(np.abs(load_pgm(path).data - img.data)) <= 1.0 / 510.0 + 1e-15


class TestLoadPairs:
    def test_file_is_not_a_directory(self, tmp_path):
        path = tmp_path / "t.pgm"
        save_pgm(ImageGray(np.zeros((2, 2))), path)
        with pytest.raises(IoError, match="not a directory"):
            load_pairs(path)

    def test_lone_a_names_missing_b(self, tmp_path):
        save_pgm(ImageGray(np.zeros((2, 2))), tmp_path / "p_a.pgm")
        with pytest.raises(IoError, match="p_b.pgm"):
            load_pairs(tmp_path)


class TestTiling:
    def test_exact_tiling(self):
        assert tile_grid(256, 256, 128) == [(0, 0), (0, 128), (128, 0), (128, 128)]

    def test_single_patch_equals_input(self):
        assert tile_grid(128, 128, 128) == [(0, 0)]

    def test_tail_dropped(self):
        assert tile_grid(300, 300, 128) == [(0, 0), (0, 128), (128, 0), (128, 128)]

    def test_oversize_patch_rejected(self):
        with pytest.raises(DimensionError):
            tile_grid(64, 64, 128)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 64), st.integers(1, 64))
    def test_count_matches_closed_form(self, h, w, size):
        if size > h or size > w:
            with pytest.raises(DimensionError):
                tile_grid(h, w, size)
            return
        assert len(tile_grid(h, w, size)) == (h // size) * (w // size)


class TestFilter2:
    def test_identity_kernel(self, rng):
        img = random_image(rng)
        np.testing.assert_array_equal(filter2_same(img, [[1.0]]), img.data)

    def test_constant_preserved_at_borders(self):
        img = ImageGray(np.full((6, 6), 0.4))
        out = filter2_same(img, np.ones((3, 3)) / 9.0)
        np.testing.assert_allclose(out, 0.4, atol=1e-12)

    def test_box_center_is_window_mean(self, rng):
        img = random_image(rng, 3, 3)
        out = filter2_same(img, np.ones((3, 3)))
        assert abs(out[1, 1] - img.data.sum()) < 1e-12

    def test_even_kernel_rejected(self, rng):
        with pytest.raises(DimensionError):
            filter2_same(random_image(rng), np.ones((2, 3)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.random((16, 16))
        y = rng.random((16, 16))
        k = rng.standard_normal((3, 5))
        a, b = 1.7, -0.6
        lhs = filter2_same(a * x + b * y, k)
        rhs = a * filter2_same(x, k) + b * filter2_same(y, k)
        assert np.max(np.abs(lhs - rhs)) < 1e-6

    @pytest.mark.parametrize("size,sigma", [(11, 1.5), (3, 0.6), (7, 7.0 / 6.0)])
    def test_separable_equals_2d_gaussian(self, rng, size, sigma):
        a = rng.random((40, 33))
        out = separable_filter(a, gaussian_taps(size, sigma))
        np.testing.assert_allclose(out, filter2_same(a, gaussian_kernel(size, sigma)), rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("shape", [(11, 11), (11, 17), (64, 48)])
    def test_separable_adjoint_identity(self, rng, shape):
        taps = gaussian_taps(11, 1.5)
        u = rng.standard_normal(shape)
        v = rng.standard_normal(shape)
        lhs = float((separable_filter(u, taps) * v).sum())
        rhs = float((u * separable_filter_adjoint(v, taps)).sum())
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_quantize8_round_half_up():
    assert quantize8(np.array([127.5 / 255.0]))[0] == 128
    assert quantize8(np.array([0.0]))[0] == 0
    assert quantize8(np.array([1.0]))[0] == 255

