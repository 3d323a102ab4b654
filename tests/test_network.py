import hashlib
import struct

import numpy as np
import pytest

from evofuse.errors import FormatError, TruncationError
from evofuse.net import layers
from evofuse.net.arch import (
    BUILTIN_NAMES,
    POOLED_NAMES,
    _path_forward,
    builtin_spec,
    count_params,
    inception,
)
from evofuse.net.network import (
    build_network,
    load_weights,
    net_forward,
    net_forward_cached,
    net_output_image,
    pair_tensor,
    save_weights,
    state_arrays,
    trainable_arrays,
    weight_file_bytes,
)

from conftest import random_pair


class TestBuild:
    def test_same_seed_bit_identical(self):
        a = build_network("gcb", seed=7)
        b = build_network("gcb", seed=7)
        for x, y in zip(state_arrays(a), state_arrays(b)):
            np.testing.assert_array_equal(x, y)

    def test_different_seed_differs(self):
        a = build_network("gcb", seed=7)
        b = build_network("gcb", seed=8)
        assert any(
            not np.array_equal(x, y) for x, y in zip(state_arrays(a), state_arrays(b))
        )

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_trainable_count_matches_analytic(self, name):
        params = build_network(name, seed=0)
        flat = sum(a.size for a in trainable_arrays(params))
        assert flat == count_params(params.spec)


class TestForward:
    def test_zero_tail_gives_half(self, rng):
        params = build_network("gcb", seed=1)
        params.gamma[0].weight[...] = 0.0
        params.gamma[0].bias[...] = 0.0
        out = net_forward(params, random_pair(rng, 16, 16))
        np.testing.assert_allclose(out, 0.5)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_output_shape_and_range(self, rng, name):
        params = build_network(name, seed=2)
        out = net_forward(params, random_pair(rng, 16, 16))
        assert out.shape == (1, 1, 16, 16)
        assert 0.0 < out.min() and out.max() < 1.0

    def test_gcb_equals_primitive_replay(self, rng):
        """Layer-by-layer composition of the verified primitives."""
        params = build_network("gcb", seed=3)
        pair = random_pair(rng, 16, 16)
        x = pair_tensor(pair)

        def conv_bn_relu(x, conv, bn, groups=1):
            y = layers.conv2d_forward(x, conv.weight, conv.bias, pad=1, groups=groups)
            y, _ = layers.batchnorm_forward(
                y, bn.scale, bn.shift, bn.running_mean.copy(), bn.running_var.copy(), "eval"
            )
            return layers.relu(y)

        h1 = conv_bn_relu(x, params.alpha[0], params.alpha[1])
        m = layers.conv2d_forward(h1, params.beta[0].weight, params.beta[0].bias, pad=1, groups=8)
        m = layers.channel_shuffle(m, 8)
        m, _ = layers.batchnorm_forward(
            m,
            params.beta[2].scale,
            params.beta[2].shift,
            params.beta[2].running_mean.copy(),
            params.beta[2].running_var.copy(),
            "eval",
        )
        m = layers.relu(m)
        z = h1 + m
        y = layers.conv2d_forward(z, params.gamma[0].weight, params.gamma[0].bias, pad=1)
        expected = layers.sigmoid(y)
        got = net_forward(params, pair)
        assert np.max(np.abs(got - expected)) < 1e-6

    def test_inception_block_equals_primitive_composition(self, rng):
        params = build_network("inception", seed=8)
        x = pair_tensor(random_pair(rng, 16, 16))
        h1, _ = _path_forward(params.spec.alpha, params.alpha, x, "eval")
        blk = params.spec.beta[0]
        assert blk == inception(64, 16, 32, 16)
        (b1,), (b3,), (b5,) = params.beta[0]
        y1 = layers.conv2d_forward(h1, b1.weight, b1.bias, pad=0)
        y3 = layers.conv2d_forward(h1, b3.weight, b3.bias, pad=1)
        y5 = layers.conv2d_forward(h1, b5.weight, b5.bias, pad=2)
        expected = np.concatenate([y1, y3, y5], axis=1)
        got, _ = blk.forward(params.beta[0], h1, "eval")
        assert np.max(np.abs(got - expected)) < 1e-6

    def test_eval_batch_independent(self, rng):
        params = build_network("gcb", seed=4)
        x1 = rng.random((1, 2, 16, 16))
        x2 = rng.random((1, 2, 16, 16))
        single = np.concatenate([net_forward(params, x1), net_forward(params, x2)])
        batched = net_forward(params, np.concatenate([x1, x2]))
        np.testing.assert_array_equal(single, batched)

    def test_eval_deterministic(self, rng):
        params = build_network("m", seed=5)
        pair = random_pair(rng, 32, 32)
        np.testing.assert_array_equal(net_forward(params, pair), net_forward(params, pair))

    def test_pooled_variant_roundtrips_spatial(self, rng):
        params = build_network("m", seed=6)
        out = net_forward(params, random_pair(rng, 32, 32))
        assert out.shape == (1, 1, 32, 32)

    def test_output_image_valid(self, rng):
        params = build_network("gcb", seed=7)
        img = net_output_image(params, random_pair(rng, 16, 16))
        assert img.shape == (16, 16)


GOLDEN_AENW_SHA256 = {
    "regular": "11e4f6a8ca44f74ca057dc96c6f83cef2c7b3f4e006303b9575b64067708d6ea",
    "gcb": "08ab5bd9baf647946734c64ec565a92aabc8580dfefd8ed3a8c277f74579ecb5",
    "separable": "33a8642b6a7c19f1b196c6cbe79f472e86ea04ce46a67abd9ee6380247541748",
    "squeeze": "2da9b72c8ad8a9559c74ff8c90dad4df990b356f78b41ff3c489cc7810eb752e",
    "inception": "1a42b0c565a5077531dbc51c3199f0ea3112275ad76ef4f958ef77962d343dd5",
    "gcb_inception": "12035229b936369b22238bc7eda841ec73b377a1911efa5feddae8bcb74bcfb8",
    "squeeze_gcb": "892afc7dd82ff40800e8258b45cf6817add1f5a588ae059ad4a36a1b86b5ffce",
    "squeeze2_gcb": "7f4c85d85407363a73b79bc69c5060a84f37301c0e74bc947c1c380e122fe319",
    "m": "2e26054c975a2fdcbf084eef1283c1e07332c98c31a456ac5f746a638fef2692",
}


class TestWeightFiles:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_golden_seed0_file(self, tmp_path, name):
        """Seed-0 weight files are pinned byte for byte: init draw order,
        array order and the header must not drift."""
        path = tmp_path / f"{name}.aenw"
        save_weights(build_network(name, seed=0), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_AENW_SHA256[name]

    def test_roundtrip_bit_identical(self, tmp_path):
        params = build_network("gcb", seed=11)
        path = tmp_path / "w.aenw"
        save_weights(params, path)
        back = load_weights(path)
        for a, b in zip(state_arrays(params), state_arrays(back)):
            np.testing.assert_array_equal(a, b)

    def test_file_size_formula(self, tmp_path):
        for name in ("gcb", "squeeze", "m"):
            params = build_network(name, seed=0)
            path = tmp_path / f"{name}.aenw"
            save_weights(params, path)
            assert path.stat().st_size == weight_file_bytes(params)
            floats = sum(a.size for a in state_arrays(params))
            overhead = weight_file_bytes(params) - 4 * floats
            assert 0 < overhead < 4096

    def test_gcb_file_is_tens_of_kilobytes(self, tmp_path):
        params = build_network("gcb", seed=0)
        path = tmp_path / "gcb.aenw"
        save_weights(params, path)
        assert 10_000 < path.stat().st_size < 100_000

    def test_gcb_smallest_file_among_nonpooled(self, tmp_path):
        sizes = {}
        for name in BUILTIN_NAMES:
            if name in POOLED_NAMES:
                continue
            path = tmp_path / f"{name}.aenw"
            save_weights(build_network(name, seed=0), path)
            sizes[name] = path.stat().st_size
        assert min(sizes, key=sizes.get) == "gcb"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.aenw"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(FormatError):
            load_weights(path)

    def test_truncated(self, tmp_path):
        params = build_network("gcb", seed=11)
        path = tmp_path / "w.aenw"
        save_weights(params, path)
        path.write_bytes(path.read_bytes()[:-17])
        with pytest.raises(TruncationError):
            load_weights(path)

    # byte offsets in a seed-0 gcb file: name at 10, in_channels at 13,
    # groups at 15, first array's ndim at 21, shape at 22, payload at 38;
    # an offset past the end appends the patch
    @pytest.mark.parametrize(
        "offset,patch,match",
        [
            (10, b"\xff\xfe\xfd", "not UTF-8"),
            (13, struct.pack("<H", 0), "no valid built-in"),
            (15, struct.pack("<H", 0), "no valid built-in"),
            (22, struct.pack("<I", 2**31), "array 0: shape"),
            (38, struct.pack("<f", float("nan")), "array 0 holds non-finite"),
            (2**31, b"garbage", "7 trailing bytes"),
        ],
        ids=["utf8-name", "in-channels-0", "groups-0", "shape-beyond-payload", "nan-payload", "trailing-bytes"],
    )
    def test_corrupt_header_or_payload(self, tmp_path, offset, patch, match):
        path = tmp_path / "w.aenw"
        save_weights(build_network("gcb", seed=0), path)
        blob = bytearray(path.read_bytes())
        blob[offset : offset + len(patch)] = patch
        path.write_bytes(bytes(blob))
        with pytest.raises((FormatError, TruncationError), match=match):
            load_weights(path)

    def test_in_channels_preserved(self, tmp_path):
        params = build_network(builtin_spec("gcb", in_channels=6), seed=1)
        path = tmp_path / "w6.aenw"
        save_weights(params, path)
        back = load_weights(path)
        assert back.spec.in_channels == 6
