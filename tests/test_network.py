import copy
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from evofuse.errors import FormatError, TruncationError
from evofuse.net import layers
from evofuse.net.arch import (
    BUILTIN_NAMES,
    BatchNorm,
    POOLED_NAMES,
    _path_forward,
    builtin_spec,
    count_params,
    inception,
    parse_arch_file,
)
from evofuse.net.network import (
    build_network,
    load_weights,
    net_backward,
    net_forward,
    net_forward_cached,
    net_output_image,
    pair_tensor,
    save_weights,
    state_arrays,
    trainable_arrays,
    trunk_forward,
    weight_file_bytes,
)
from evofuse.training import TrainConfig, make_task_weights, task_forward, train

from conftest import random_pair
from oracles import eval_replay, relative_err, train_replay
from test_layers import FD_H, GRAD_TOL


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
        h1, _, _ = _path_forward(params.spec.alpha, params.alpha, x, "eval")
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


def randomize_bn(params, seed):
    """Every BN scale, shift, running mean and running var drawn at random."""
    rng = np.random.default_rng(seed)
    for blk, p in zip(params.spec.sequence.paths[0], params.alpha + params.beta + params.gamma):
        if isinstance(blk, BatchNorm):
            p.scale[...] = rng.uniform(0.5, 1.5, p.scale.shape)
            p.shift[...] = rng.normal(0.0, 0.3, p.shift.shape)
            p.running_mean[...] = rng.normal(0.0, 0.3, p.shift.shape)
            p.running_var[...] = rng.uniform(0.2, 2.0, p.shift.shape)


# beta: the first BN must not fold (its conv's output is a cat source), the
# second follows a relu, the third folds back through a shuffle
FOLD_ARCH = """
name foldcheck
residual 0
stage alpha
conv 2 8 3
bn 8
relu
stage beta
conv 8 8 3
shuffle 2
bn 8
relu
bn 8
cat 0
conv 16 8 3 2
shuffle 2
bn 8
relu
stage gamma
conv 8 1 3
"""


def fold_specs(tmp_path):
    """Every built-in spec and FOLD_ARCH."""
    path = tmp_path / "fold.arch"
    path.write_text(FOLD_ARCH)
    return [builtin_spec(name) for name in BUILTIN_NAMES] + [parse_arch_file(path)]


class TestBatchNormFolding:
    """Eval inference folds each BN fed by a conv (through shuffles) into it."""

    def test_folded_equals_unfolded(self, tmp_path):
        x = np.random.default_rng(4).random((2, 2, 32, 32))
        for spec in fold_specs(tmp_path):
            params = build_network(spec, seed=1)
            randomize_bn(params, seed=2)
            path = tmp_path / "before.aenw"
            save_weights(params, path)
            folded = net_forward(params, x)
            unfolded = net_forward_cached(params, x, mode="eval")[0]
            np.testing.assert_allclose(folded, unfolded, rtol=0.0, atol=1e-10, err_msg=spec.name)
            save_weights(params, tmp_path / "after.aenw")
            assert path.read_bytes() == (tmp_path / "after.aenw").read_bytes(), spec.name

    def test_only_unfoldable_bns_run(self, tmp_path, monkeypatch):
        # a BN after a Branch (separable, fire, inception) is not fed by a conv
        unfolded = {"regular": 0, "gcb": 0, "separable": 1, "squeeze": 1, "inception": 1,
                    "gcb_inception": 1, "squeeze_gcb": 1, "squeeze2_gcb": 2, "m": 1,
                    "foldcheck": 2}
        calls = []
        real = layers.batchnorm_forward

        def counted(x, *args):
            calls.append(x.shape)
            return real(x, *args)

        monkeypatch.setattr(layers, "batchnorm_forward", counted)
        for spec in fold_specs(tmp_path):
            calls.clear()
            net_forward(build_network(spec, seed=0), np.zeros((1, 2, 16, 16)))
            assert len(calls) == unfolded[spec.name], spec.name


# beta: an upsample whose own output is its cat's source (no room is left
# for it), after conv -> relu -> shuffle and an unfoldable BN
SELF_CAT_ARCH = """
name selfcat
stage alpha
conv 2 8 3
relu
stage beta
pool
conv 8 8 3 2
relu
shuffle 2
bn 8
up
cat 5
conv 16 8 3
stage gamma
conv 8 1 3
"""

# shuffles of other group counts than their conv's, a 5x5 and 1x1 convs,
# repeated relus, a pool, an upsample with room for its cat, a second cat
MIXED_ARCH = """
name mixed
stage alpha
conv 2 8 3 1
shuffle 4
relu
stage beta
conv 8 8 3 4
shuffle 2
relu
conv 8 8 5
relu
conv 8 8 3 2
relu
relu
shuffle 2
pool
conv 8 8 3
up
cat 2
conv 16 8 1
cat 0
conv 16 8 3
relu
stage gamma
conv 8 4 3
relu
conv 4 1 1
"""


class TestInferenceLayout:
    """Inference passes keep activations in the padded-flat layout between
    convs and run bias, shuffle and ReLU inside the conv's tap loop."""

    def check_replay(self, tmp_path, shape):
        x = np.random.default_rng(5).random(shape)
        for spec in layout_specs(tmp_path):
            params = build_network(spec, seed=1)
            randomize_bn(params, seed=2)
            got, want = net_forward(params, x), eval_replay(params, x)
            np.testing.assert_array_equal(got, want, err_msg=f"{spec.name} {shape}")

    @pytest.mark.parametrize("shape", [(2, 2, 24, 40), (1, 2, 4, 8)])
    def test_equals_eval_replay_exactly(self, tmp_path, shape):
        self.check_replay(tmp_path, shape)

    def test_equals_eval_replay_with_blocks_ending_mid_row(self, tmp_path, partial_blocks):
        self.check_replay(tmp_path, (2, 2, 24, 40))
        assert any(split for _, split in partial_blocks)

    @pytest.mark.parametrize("name", ["gcb", "regular", "m"])
    def test_results_are_fresh_contiguous_arrays(self, rng, name):
        params = build_network(name, seed=1)
        tw = make_task_weights(params, "t", beta_mix=0.5)
        x = rng.random((1, 2, 16, 24))
        for run in (
            lambda: net_forward(params, x),
            lambda: trunk_forward(params, x),
            lambda: task_forward(tw, x),
        ):
            first, second = run(), run()
            assert first.flags.c_contiguous and second.flags.c_contiguous
            assert not np.shares_memory(first, second)
            want = second.copy()
            first[...] = np.nan
            second[...] = np.nan
            np.testing.assert_array_equal(run(), want)

    @pytest.mark.parametrize("name", ["gcb", "regular", "m"])
    def test_finite_check_sees_fused_conv_outputs(self, rng, monkeypatch, name):
        params = build_network(name, seed=1)
        params.beta[0].weight[0, 0, 1, 1] = np.nan
        monkeypatch.setattr(layers, "CHECK_FINITE", True)
        with pytest.raises(FloatingPointError):
            net_forward(params, rng.random((1, 2, 16, 16)))


# BNs with no ReLU after them, whose gradients reach them on the padded grid
# from a conv (alpha's BN) and from gamma's conv (beta's last BN)
BN_ARCH = """
name bnonly
stage alpha
conv 2 8 3
bn 8
stage beta
conv 8 8 3
bn 8
relu
conv 8 8 3 2
bn 8
stage gamma
conv 8 1 3
"""


def layout_specs(tmp_path):
    """Every built-in spec, FOLD_ARCH, SELF_CAT_ARCH, MIXED_ARCH and BN_ARCH."""
    specs = fold_specs(tmp_path)
    for name, text in (("selfcat", SELF_CAT_ARCH), ("mixed", MIXED_ARCH), ("bnonly", BN_ARCH)):
        (tmp_path / f"{name}.arch").write_text(text)
        specs.append(parse_arch_file(tmp_path / f"{name}.arch"))
    return specs


TRAIN_REL = 1e-12


class TestTrainLayout:
    """Train passes keep activations and gradients in the padded-flat layout
    between 3x3 convs, fuse shuffles into convs and ReLUs into BNs, and run
    one tap loop per conv backward; they must equal the block-by-block
    replay on plain arrays."""

    def check_replay(self, tmp_path, shape):
        rng = np.random.default_rng(6)
        x = rng.random(shape)
        for spec in layout_specs(tmp_path):
            params = build_network(spec, seed=1)
            randomize_bn(params, seed=2)
            twin, trio = copy.deepcopy(params), copy.deepcopy(params)
            out, cache = net_forward_cached(params, x, mode="train")
            grad_out = rng.standard_normal(out.shape)
            grads, gx = net_backward(params, cache, grad_out)
            want_out, want_grads, want_gx = train_replay(twin, x, grad_out)
            # as training runs it: the first conv forms its weight gradient alone
            lean, no_gx = net_backward(trio, net_forward_cached(trio, x, "train")[1], grad_out, False)
            assert no_gx is None, spec.name
            np.testing.assert_allclose(out, want_out, rtol=TRAIN_REL, atol=0.0, err_msg=spec.name)
            # conv biases ahead of a train-mode BN have zero gradient up to
            # rounding: the floor is TRAIN_REL times the largest gradient entry
            floor = TRAIN_REL * max(np.abs(g).max() for g in want_grads + [want_gx])
            for i, (got, want) in enumerate(zip(grads + [gx], want_grads + [want_gx], strict=True)):
                np.testing.assert_allclose(got, want, rtol=TRAIN_REL, atol=floor, err_msg=f"{spec.name} {i}")
            for got, want in zip(lean, want_grads, strict=True):
                np.testing.assert_allclose(got, want, rtol=TRAIN_REL, atol=floor, err_msg=spec.name)
            # a running mean near 0 gets the same floor, per array
            for got, want in zip(state_arrays(params), state_arrays(twin), strict=True):
                atol = TRAIN_REL * np.abs(want).max()
                np.testing.assert_allclose(got, want, rtol=TRAIN_REL, atol=atol, err_msg=spec.name)

    @pytest.mark.parametrize("shape", [(2, 2, 24, 40), (1, 2, 4, 8)])
    def test_equals_train_replay(self, tmp_path, shape):
        self.check_replay(tmp_path, shape)

    def test_equals_train_replay_with_blocks_ending_mid_row(self, tmp_path, partial_blocks):
        self.check_replay(tmp_path, (2, 2, 24, 40))
        assert any(split for _, split in partial_blocks)


def test_train_step_traffic(monkeypatch):
    """One gcb train step, as train runs it: the network input is the only
    array padded with _flat, no shuffle runs apart from its conv, each conv
    backward runs one tap loop, and the first conv skips grad_x."""
    calls = {"flat": 0, "loops": 0}
    backwards = []
    real_flat, real_blocks, real_backward = layers._flat, layers._tap_blocks, layers._conv_backward

    def flat(*args):
        calls["flat"] += 1
        return real_flat(*args)

    def tap_blocks(*args):
        calls["loops"] += 1
        return real_blocks(*args)

    def conv_backward(*args):
        before = calls["loops"]
        result = real_backward(*args)
        backwards.append((calls["loops"] - before, result[0] is None))
        return result

    monkeypatch.setattr(layers, "_flat", flat)
    monkeypatch.setattr(layers, "_tap_blocks", tap_blocks)
    monkeypatch.setattr(layers, "_conv_backward", conv_backward)
    monkeypatch.setattr(layers, "channel_shuffle", lambda *a: pytest.fail("shuffle ran"))
    pair = random_pair(np.random.default_rng(3), 16, 16)
    train("gcb", [pair], None, TrainConfig(phases=((1e-3, 1),), batch_size=1, patch=16,
                                          loss_kind="supervised"))
    assert calls["flat"] == 1
    assert backwards == [(1, False), (1, False), (1, True)]
    assert calls["loops"] == 6


def test_train_gradients_match_finite_differences():
    """net_backward after a train-mode forward against central differences
    of <out, t>, on up to 3 sampled entries of every gcb gradient and of the
    input. The draw is kink-safe: no sampled +-FD_H step flips a ReLU
    decision (BN shifts of +-2 keep the ReLU inputs away from 0)."""

    def loss():
        return float((net_forward_cached(params, x, mode="train")[0] * t).sum())

    def relu_signs():
        inputs = []
        train_replay(copy.deepcopy(params), x, t, inputs)
        return [np.sign(v) for v in inputs]

    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = build_network("gcb", seed=seed)
        for blk, p in zip(params.spec.sequence.paths[0], params.alpha + params.beta + params.gamma):
            if isinstance(blk, BatchNorm):
                p.scale[...] = rng.uniform(0.5, 1.5, p.scale.shape)
                p.shift[...] = rng.choice([-2.0, 2.0], p.shift.shape)
        x, t = rng.random((1, 2, 8, 8)), rng.standard_normal((1, 1, 8, 8))
        out, cache = net_forward_cached(params, x, mode="train")
        grads, gx = net_backward(params, cache, t)
        signs, kink, fd, exact = relu_signs(), False, [], []
        for arr, grad in zip(trainable_arrays(params) + [x], grads + [gx], strict=True):
            flat = arr.reshape(-1)
            for j in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                orig, vals = flat[j], []
                for step in (FD_H, -FD_H):
                    flat[j] = orig + step
                    vals.append(loss())
                    kink = kink or any(np.any(a != b) for a, b in zip(relu_signs(), signs))
                flat[j] = orig
                fd.append((vals[0] - vals[1]) / (2.0 * FD_H))
                exact.append(grad.reshape(-1)[j])
        if not kink:
            assert relative_err(np.array(fd), np.array(exact)) < GRAD_TOL
            return
    raise AssertionError("no kink-safe draw found")


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

    def test_forged_network_size_fails_before_allocating(self, tmp_path):
        # in_channels 65535 describes a 64x65535x3x3 alpha weight (about 720 MiB
        # in float64) that a seed-0 gcb file cannot hold
        path = tmp_path / "w.aenw"
        save_weights(build_network("gcb", seed=0), path)
        blob = bytearray(path.read_bytes())
        blob[13:15] = struct.pack("<H", 65535)
        path.write_bytes(bytes(blob))
        tracemalloc.start()
        try:
            with pytest.raises(TruncationError, match="payload bytes"):
                load_weights(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_in_channels_preserved(self, tmp_path):
        params = build_network(builtin_spec("gcb", in_channels=6), seed=1)
        path = tmp_path / "w6.aenw"
        save_weights(params, path)
        back = load_weights(path)
        assert back.spec.in_channels == 6


# Built-in forward and backward passes pinned to recorded values. Input
# (2, 2, 32, 32) uniform from seed 7, seed-0 weights; per built-in: the
# digest of the eval output, of the train-mode output, then one digest per
# trainable gradient (trainable_arrays order) and of the input gradient,
# backpropagating a standard normal grad_out from seed 9. A digest is
# (sum |a|, ||a||_2, <a, w>) with w standard normal from seed 8.
PINNED = {
    'regular': (
        (844.2154576004662, 19.22182259305021, -14.124101079728387),
        (846.4499394158186, 20.996588002741763, -10.023850467396812),
        [
            (1292.092981286905, 48.374406067244294, -49.2800272520698),
            (1.5240586570541836e-13, 2.357441999498992e-14, 5.271754242388891e-15),
            (97.03704991938473, 15.507026784288838, 3.4469086504420527),
            (79.57150410691841, 12.216332479839313, 5.646846633375332),
            (25035.148296787254, 167.29072544695228, 413.3918618722561),
            (4.200806369425436e-14, 6.1622534936895195e-15, -8.151770195094016e-15),
            (49.7334308369516, 8.122249975204905, 12.917713000824245),
            (57.00457387071314, 9.445783302217952, 8.261429102091771),
            (4869.544747044501, 249.038872356248, 403.99221661369035),
            (8.645974674761627, 8.645974674761627, -15.029007259393143),
            (2324.839761031167, 46.50004926545601, 84.93981657119895),
        ],
    ),
    'gcb': (
        (948.3098469133305, 21.466031381403038, -24.760578043616064),
        (1637.9713881185398, 36.974521438312316, -42.496739067629406),
        [
            (894.5353294091956, 33.86523532214679, -1.7072854558130643),
            (8.362754932988992e-14, 1.302481955104709e-14, 2.785022718784254e-15),
            (50.36312300047267, 7.975389685204608, 19.35538346802144),
            (42.41320213819143, 7.319310393519564, 12.90761267955739),
            (2067.720806608712, 39.29928859490541, 39.040341367438245),
            (2.1871393585115584e-14, 3.647034052751239e-15, -2.6268973735924976e-15),
            (29.538707890141243, 4.678923773503124, 6.832245311393021),
            (28.86465565543769, 4.871835678951046, 5.276996397023165),
            (2600.9774620548815, 137.43231277718348, -126.80565087512406),
            (0.41455965848247667, 0.41455965848247667, 0.7206151245124321),
            (1682.2932288107054, 34.3075312667152, -3.6316462105362683),
        ],
    ),
    'separable': (
        (1605.6829345709655, 35.71883961461711, -39.44007089322639),
        (1605.825122706008, 36.22209371927302, -40.55726433254816),
        [
            (915.5732734280899, 34.43660682375408, 1.0822127961468766),
            (9.697798120100742e-14, 1.5225293111737266e-14, 2.712734151177028e-15),
            (75.27359610409644, 11.794929204678942, 7.348970172575943),
            (67.38303032167718, 10.474182426572892, 8.660988193352113),
            (287.28045337298556, 15.220515501352102, 1.3525797796305685),
            (2.933764342571976e-14, 4.427210074531013e-15, -9.766430097998824e-16),
            (1922.4720978185676, 40.59775128909158, -49.987697509827875),
            (2.1913026948539027e-14, 3.375199537441856e-15, -4.556654606112107e-15),
            (52.755091400274914, 8.688526505711911, -5.002004117963036),
            (55.64656609058345, 9.002678226554568, -8.589978684055858),
            (5029.909733213282, 250.4712420340608, 92.87276677584417),
            (10.719996181081552, 10.719996181081552, -18.63420915358896),
            (1794.5083445840291, 35.9402572346006, 51.018216328513056),
        ],
    ),
    'squeeze': (
        (254.32937263079324, 6.531681941839145, -4.699455413165039),
        (416.96734931562423, 12.39887813165138, -18.581283720951344),
        [
            (1549.3461095819293, 59.98418829592372, 13.641540862828462),
            (1.27675647831893e-13, 2.182202593292661e-14, 1.7437307875927494e-15),
            (91.29110419101929, 14.961155404775281, 6.123380878499091),
            (86.78561698606532, 14.67308524514245, 12.074293061718313),
            (1878.893275428387, 77.71054779211114, -199.3449148022638),
            (33.6383178196044, 10.447850974074068, -2.044325944440698),
            (387.79654504014934, 28.092414021286807, 58.10844978363481),
            (29.097109505715263, 8.649451866505323, -7.9473530094060285),
            (2986.4883516004193, 65.57193563211085, -7.031558077251603),
            (10.757226444239933, 3.1701118745989803, -3.310802433390679),
            (46.76316623077446, 7.497756724990214, -10.711838008848169),
            (28.861511740878292, 4.650640380972683, -0.0696210930943173),
            (3668.480489861303, 193.4710887158643, 60.90717221265341),
            (5.062771118854817, 5.062771118854817, -8.800444919185793),
            (2762.470510921711, 56.2481862865678, 0.4434268147907572),
        ],
    ),
    'inception': (
        (612.5079876835434, 14.233462328735982, -10.366079244701009),
        (896.7099530171595, 22.12723651352077, -16.20859687308579),
        [
            (1132.119005395487, 42.86720492409595, -10.548768221648574),
            (1.0147438445073931e-13, 1.6053187658486e-14, 5.66311311108835e-15),
            (71.58328844237232, 11.054070715555248, 2.520466538531104),
            (66.9005961919596, 10.208794112826475, 10.526221297160305),
            (588.2022693631836, 24.196329384949802, -3.1450862944358544),
            (7.799316747991725e-15, 2.529110225217337e-15, -4.312406599429267e-15),
            (10958.549290383515, 104.81516834076231, -120.71433388720858),
            (1.6459056340067946e-14, 4.25620688605551e-15, 9.79698510152264e-15),
            (15906.869618769146, 130.06508056310466, 263.36269290839846),
            (9.686695889854491e-15, 3.085865845597998e-15, -6.380919959065857e-16),
            (49.28518819963001, 8.52189648122597, 4.89511455871267),
            (47.80971372367944, 7.981466510261433, -2.1771633328728033),
            (3728.48056068892, 196.3634699797296, -71.41353603643114),
            (2.8532070546238844, 2.8532070546238844, -4.959633951006956),
            (2309.838293134273, 45.95676835327746, 27.656206279282497),
        ],
    ),
    'gcb_inception': (
        (1075.981265569522, 24.67521232676599, -24.042731324814433),
        (1349.0850415417692, 31.628854559726005, -36.03668940075843),
        [
            (1183.5200305531262, 44.924758387657945, -35.051504208828575),
            (1.3367085216486885e-13, 1.893735892579687e-14, 2.928054745462948e-14),
            (88.37742485378664, 13.555521479732985, 9.591006383523643),
            (79.95732028687165, 12.71376354791023, -10.416706826694618),
            (80.47280929323125, 9.46531473118914, 5.791455778708062),
            (1.1629586182948515e-14, 4.019147274678237e-15, -6.174040453760056e-15),
            (1388.4431009006337, 37.76740025491503, -42.392595052829385),
            (2.033095913844818e-14, 4.544991397628182e-15, -8.748173417457725e-15),
            (1876.4271571688073, 43.51385351793358, 34.66623486952463),
            (9.631184738623233e-15, 3.191891195797325e-15, 1.966560787032478e-16),
            (50.98019832876827, 8.202631805796118, -4.54050669780749),
            (50.41847447192534, 7.805063643603012, -14.620041307608334),
            (4418.618829334866, 227.31832310044163, 148.05180710710465),
            (8.118843117392988, 8.118843117392988, -14.112712185631906),
            (2346.0436442048485, 47.20355214829676, -19.10399053408706),
        ],
    ),
    'squeeze_gcb': (
        (1753.999765592667, 38.91272480176649, -44.029781251572274),
        (1608.5051648348806, 36.290363116851886, -56.2304790145612),
        [
            (1305.4305416373231, 50.26037569017586, -83.99153609553562),
            (1.2606582444618653e-13, 1.953795385727979e-14, 1.58529536392729e-14),
            (80.67975791846578, 12.480209037061394, 4.08593413883065),
            (84.02757676778543, 12.48853920377119, -4.595653692106714),
            (1611.0702718167959, 67.00357700638295, 55.61527960448102),
            (28.863688136084043, 8.964993579660065, 1.9739909955850141),
            (360.06206270968437, 25.86178410368199, -42.95087182789728),
            (25.24355536551282, 6.586491566693001, 5.6340061144315055),
            (2831.956669745759, 61.25142017645362, 38.18177206916943),
            (13.499398401722821, 3.643041941837502, 3.715935567078027),
            (36.57182098829377, 5.693182270630848, -1.9698868206000852),
            (21.834937294112287, 3.407054786723969, 1.8304616880589535),
            (2001.6387953912072, 38.699690719327506, 76.38259403300512),
            (1.7819079545233762e-14, 2.8397799491572325e-15, 1.8787379661517817e-15),
            (50.14802840733907, 8.072816315659114, 4.1270719249238095),
            (54.13156540758898, 8.20999434741703, 4.729950974910395),
            (5001.415070683468, 248.76494576657134, 11.384617901809108),
            (9.906182033743367, 9.906182033743367, -17.2195833666496),
            (2483.2805959568905, 50.41344791688432, -21.252297203391407),
        ],
    ),
    'squeeze2_gcb': (
        (1390.0248156175996, 30.93596984225197, -38.22241572387427),
        (1593.9246182811862, 35.977575940425524, -49.66755442958929),
        [
            (2206.0364477648523, 86.43883011584842, 4.012310870530605),
            (1.7896795156957523e-13, 2.9283381906441885e-14, -9.929512293273433e-15),
            (120.91577685872188, 20.1575668618822, -28.517476783864282),
            (142.2095237298223, 23.572106299660916, -9.958058681865134),
            (2768.1316694576512, 111.3963964596075, 199.24043108840758),
            (59.585112733086184, 16.96234852424392, -7.408769463871565),
            (616.5574765551006, 43.90179711660241, 43.61629354661855),
            (34.378013224801904, 9.110374542788856, -1.6055651540527884),
            (4762.924666958219, 105.32762438594155, -136.7614102479818),
            (21.335367915690853, 6.169033818739289, 5.772406666817711),
            (70.25077065059699, 11.093818028638504, 12.897102283368014),
            (42.602199666514906, 7.269042061716342, 0.5419670393428966),
            (1777.5701822404983, 73.82054033212104, -36.08673914228338),
            (36.228466639552664, 10.48505182314945, 9.440333587182772),
            (341.38682661645686, 24.80651176942245, 11.232688100831695),
            (13.440552371039214, 4.02892900933986, -1.1199074109839815),
            (3265.4444984370393, 77.944338937572, 110.40062934789785),
            (16.773764804332743, 6.633846621413342, -5.685577646720613),
            (31.466523278928165, 5.085587132471446, -2.032960415674118),
            (26.717224856393756, 4.208924783538975, -3.3497234296205587),
            (2146.653991358974, 42.12933345909471, -37.62313718841631),
            (2.137873211793817e-14, 3.663847685238518e-15, 7.389478102472893e-15),
            (45.53160746353057, 7.230929990268105, 4.490907936119932),
            (40.71541759630465, 6.465071877953432, -2.5764502608064435),
            (3141.061059684749, 169.39855707880983, -62.00084263893432),
            (4.254396556999382, 4.254396556999382, -7.39527458091285),
            (4090.3547958769864, 85.85661126898626, 91.77375851771816),
        ],
    ),
    'm': (
        (547.2458037311931, 12.924574190445215, -9.922233724506857),
        (397.1140385813105, 11.322468406546003, -17.30448415091193),
        [
            (1764.324458439486, 66.9275483459765, -91.19775113600858),
            (1.9240165016753963e-13, 2.816445664405155e-14, 1.0271165505744875e-13),
            (94.59507036603623, 15.749770425415008, 23.97368321874264),
            (97.6870844448252, 15.34616711633695, 0.7975914045283634),
            (40811.92936970067, 269.61577589367903, -404.76330064670594),
            (4.3298697960381105e-14, 6.735861340753108e-15, -1.02889778915885e-14),
            (60.397898008581855, 9.362570132058625, 8.950906808797782),
            (39.12823966577466, 6.2545570395748875, 5.439210614033353),
            (26949.030869970415, 182.04747338822156, -194.62855025712406),
            (2.0469737016526324e-14, 3.518860808763094e-15, -1.7695825466301158e-16),
            (75.2171785554867, 12.142973463398699, -34.13481713438334),
            (57.724737224204596, 8.832828241369738, -27.245149788785355),
            (1430.1829536969437, 64.39860606552577, 58.46364532029816),
            (16.908055676889518, 6.5851953341121146, -11.953394683554448),
            (186.06956917176214, 17.479401562098598, -34.862426636330305),
            (6.079528584229449, 1.738704745542844, 0.3660120997163457),
            (1917.4856368282033, 51.06178761308406, -29.869826020516825),
            (12.677413981449114, 3.248286870652317, -4.519854042395263),
            (25.693166771332223, 3.987612313291126, 2.777325396226067),
            (13.855354504913741, 2.2411711628555624, -0.5865749264167249),
            (27621.59577533596, 133.9723141152879, -213.34397149417714),
            (1.3836154444391013e-14, 2.0538657106031453e-15, 5.594910739786929e-16),
            (29.429226008827328, 4.738181193522453, 8.769880976601701),
            (25.267728195578464, 3.8703504369511945, 4.4762799599262895),
            (34084.49971945008, 163.50758223748053, -27.628016390023973),
            (2.5326962749261384e-14, 4.10076301551518e-15, -7.077615213432651e-16),
            (32.89896473726353, 5.379809059395873, 6.759055914840193),
            (31.91913804470216, 5.223690112443543, 1.489482049652091),
            (2636.2347642134637, 138.64823756647326, 190.55459493714164),
            (2.2213906368794687, 2.2213906368794687, -3.861368702023169),
            (3421.2122215376876, 70.58258260882758, 44.96170380507914),
        ],
    ),
}


REL = 1e-10


def _digest(a):
    w = np.random.default_rng(8).standard_normal(a.shape)
    return (np.abs(a).sum(), np.sqrt((a * a).sum()), (a * w).sum())


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_forward_and_gradients_pinned(name):
    eval_want, train_want, grads_want = PINNED[name]
    params = build_network(name, seed=0)
    x = np.random.default_rng(7).random((2, 2, 32, 32))
    np.testing.assert_allclose(_digest(net_forward(params, x)), eval_want, rtol=REL, atol=0.0)
    out, cache = net_forward_cached(params, x, mode="train")
    np.testing.assert_allclose(_digest(out), train_want, rtol=REL, atol=0.0)
    grads, gx = net_backward(params, cache, np.random.default_rng(9).standard_normal(out.shape))
    # conv biases ahead of a train-mode BN have zero gradient up to rounding,
    # so the floor is REL times the network's largest gradient digest
    floor = REL * np.max(grads_want)
    got = [_digest(g) for g in grads + [gx]]
    np.testing.assert_allclose(got, grads_want, rtol=REL, atol=floor)
