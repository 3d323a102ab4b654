import numpy as np
import pytest

from evofuse.errors import BankMissError, DimensionError, RangeError, TaskMixError
from evofuse.evolution import init_bank
from evofuse.image import ImageGray, ImagePair, Task
from evofuse.metrics import _SSIM_TAPS, ssim
from evofuse.net.network import build_network, net_forward, state_arrays, trainable_arrays
from evofuse.synth import toy_pairs
from evofuse.training import (
    AdamState,
    CurvePoint,
    TrainConfig,
    adam_step,
    adapt_task,
    evolve,
    init_adam,
    loss_to_optimal,
    make_task_weights,
    supervised_loss,
    task_forward,
    train,
    train_common,
    write_curve_csv,
)

from conftest import random_image, random_pair
from oracles import finite_diff_grad, relative_err

SSIM_WINDOW = _SSIM_TAPS.size


def small_cfg(**kw):
    defaults = dict(phases=((0.001, 2),), batch_size=4, patch=32, seed=3)
    defaults.update(kw)
    return TrainConfig(**defaults)


def small_dataset(rng, n=2, size=64, task=Task.IR_VISIBLE):
    return [random_pair(rng, size, size, pair_id=f"{task.value}-{i}", task=task) for i in range(n)]


class TestLossToOptimal:
    def test_zero_at_optimum(self, rng):
        img = random_image(rng)
        pred = img.data[None, None].copy()
        loss, grad = loss_to_optimal(pred, img)
        assert loss <= 1e-6
        assert np.max(np.abs(grad)) < 1e-9

    def test_checkerboard_hand_formula(self):
        checker = ImageGray(np.indices((16, 16)).sum(axis=0) % 2.0)
        pred = np.full((1, 1, 16, 16), 0.5)
        loss, _ = loss_to_optimal(pred, checker)
        ssim_term = ssim(ImageGray(pred[0, 0]), checker)
        assert abs(loss - (0.8 * 0.25 + 0.2 * (1.0 - ssim_term))) < 1e-9

    def test_gradient_matches_finite_differences(self, rng):
        pred = rng.random((1, 1, 12, 12))
        target = random_image(rng, 12, 12)
        _, grad = loss_to_optimal(pred, target)
        fd = finite_diff_grad(lambda: loss_to_optimal(pred, target)[0], pred, h=1e-3)
        assert relative_err(fd, grad, floor=1e-7) < 1e-3


class TestSupervisedLoss:
    def test_zero_when_pred_equals_both(self, rng):
        img = random_image(rng)
        pair = ImagePair(img, img, "same")
        loss, _ = supervised_loss(img.data[None, None].copy(), pair)
        assert loss <= 1e-6

    def test_half_when_pred_equals_one_source(self, rng):
        pair = random_pair(rng)
        pred = pair.a.data[None, None].copy()
        loss, _ = supervised_loss(pred, pair)
        only_b, _ = loss_to_optimal(pred, pair.b)
        assert abs(loss - only_b / 2.0) < 1e-12

    def test_compositional(self, rng):
        pair = random_pair(rng)
        pred = rng.random((1, 1, 16, 16))
        loss, grad = supervised_loss(pred, pair)
        la, ga = loss_to_optimal(pred, pair.a)
        lb, gb = loss_to_optimal(pred, pair.b)
        assert abs(loss - (la + lb) / 2.0) < 1e-12
        np.testing.assert_allclose(grad, (ga + gb) / 2.0, atol=1e-15)

    def test_gradient_matches_finite_differences(self, rng):
        pair = random_pair(rng, 12, 12)
        pred = rng.random((1, 1, 12, 12))
        _, grad = supervised_loss(pred, pair)
        fd = finite_diff_grad(lambda: supervised_loss(pred, pair)[0], pred, h=1e-3)
        assert relative_err(fd, grad, floor=1e-7) < 1e-3


class TestAdam:
    def test_zero_grads_no_change(self, rng):
        arrays = [rng.random((3, 3))]
        before = arrays[0].copy()
        adam_step(arrays, [np.zeros((3, 3))], init_adam(arrays), lr=0.1)
        np.testing.assert_array_equal(arrays[0], before)

    def test_first_step_hand_formula(self):
        arrays = [np.array([1.0])]
        g = np.array([0.25])
        adam_step(arrays, [g], init_adam(arrays), lr=0.01)
        # bias-corrected first step: m_hat = g, v_hat = g^2
        expected = 1.0 - 0.01 * 0.25 / (0.25 + 1e-8)
        assert abs(arrays[0][0] - expected) < 1e-12

    def test_deterministic_trajectories(self, rng):
        def run():
            gen = np.random.default_rng(9)
            arrays = [gen.random((4, 4))]
            state = init_adam(arrays)
            for _ in range(5):
                adam_step(arrays, [gen.standard_normal((4, 4))], state, lr=0.05)
            return arrays[0]

        np.testing.assert_array_equal(run(), run())


class TestTrain:
    def test_loss_descends(self, rng):
        pairs = small_dataset(rng, n=2)
        bank = init_bank(pairs, None)
        params, curve = train("gcb", pairs, bank, small_cfg(phases=((0.001, 4),)))
        assert curve[-1].mean_loss < curve[0].mean_loss

    def test_threshold_stops_after_first_epoch(self, rng):
        pairs = small_dataset(rng, n=2)
        bank = init_bank(pairs, None)
        _, curve = train("gcb", pairs, bank, small_cfg(loss_threshold=10.0))
        assert len(curve) == 1

    def test_curve_length_is_total_epochs(self, rng):
        pairs = small_dataset(rng, n=2)
        bank = init_bank(pairs, None)
        _, curve = train("gcb", pairs, bank, small_cfg(phases=((0.001, 2), (0.0001, 3))))
        assert len(curve) == 5
        assert [pt.epoch for pt in curve] == [1, 2, 3, 4, 5]

    def test_phase_boundary_lr(self, rng):
        pairs = small_dataset(rng, n=2)
        bank = init_bank(pairs, None)
        _, curve = train("gcb", pairs, bank, small_cfg(phases=((0.001, 2), (0.0001, 2))))
        assert curve[1].phase == 1 and curve[1].lr == 0.001
        assert curve[2].phase == 2 and curve[2].lr == 0.0001

    def test_deterministic_given_seed(self, rng):
        pairs = small_dataset(rng, n=2)
        bank = init_bank(pairs, None)
        p1, c1 = train("gcb", pairs, bank, small_cfg())
        p2, c2 = train("gcb", pairs, bank, small_cfg())
        assert [pt.mean_loss for pt in c1] == [pt.mean_loss for pt in c2]
        for a, b in zip(state_arrays(p1), state_arrays(p2)):
            np.testing.assert_array_equal(a, b)

    def test_missing_bank_entry_rejected(self, rng):
        pairs = small_dataset(rng, n=2)
        bank = init_bank(pairs[:1], None)
        with pytest.raises(BankMissError):
            train("gcb", pairs, bank, small_cfg())

    def test_supervised_mode_needs_no_bank(self, rng):
        pairs = small_dataset(rng, n=1)
        params, curve = train("gcb", pairs, None, small_cfg(loss_kind="supervised"))
        assert len(curve) == 2

    def test_checkpoints_written(self, rng, tmp_path):
        pairs = small_dataset(rng, n=1)
        bank = init_bank(pairs, None)
        cfg = small_cfg(checkpoint_every=1, checkpoint_dir=str(tmp_path / "ck"))
        train("gcb", pairs, bank, cfg)
        assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == [
            "epoch_0001.aenw",
            "epoch_0002.aenw",
        ]

    def test_curve_csv(self, tmp_path):
        curve = [CurvePoint(1, 1, 0.001, 0.5), CurvePoint(2, 2, 0.0001, 0.25)]
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,phase,mean_loss"
        assert lines[1].startswith("1,1,0.5")


class TestSettings:
    """Bad settings fail with RangeError, naming the field, before any work."""

    @pytest.mark.parametrize(
        "kw,match",
        [
            ({"seed": -1}, "seed must be >= 0"),
            ({"checkpoint_every": -2}, "checkpoint_every must be >= 0"),
            ({"checkpoint_every": 1}, "needs a checkpoint_dir"),
        ],
    )
    def test_config_rejects(self, kw, match):
        with pytest.raises(RangeError, match=match):
            small_cfg(**kw)

    def test_build_network_rejects_negative_seed(self):
        with pytest.raises(RangeError, match="seed must be >= 0"):
            build_network("gcb", seed=-1)


class TestEvolve:
    def test_rounds_zero_equals_classical(self, rng, niqe_model):
        pairs = toy_pairs(n=2, size=96, seed=8)
        cfg = small_cfg()
        _, bank = evolve("gcb", pairs, cfg, rounds=0, niqe_model=niqe_model)
        classical = init_bank(pairs, niqe_model)
        assert bank.generation == 0
        for pid in classical.entries:
            assert bank.entries[pid].algo_id == classical.entries[pid].algo_id
            np.testing.assert_array_equal(
                bank.entries[pid].fused.data, classical.entries[pid].fused.data
            )

    def test_generation_increments_per_round(self, rng, niqe_model):
        pairs = toy_pairs(n=1, size=96, seed=8)
        cfg = small_cfg(phases=((0.001, 1),))
        _, bank = evolve("gcb", pairs, cfg, rounds=2, niqe_model=niqe_model)
        assert bank.generation == 2

    def test_negative_rounds_rejected(self, rng, niqe_model):
        with pytest.raises(RangeError):
            evolve("gcb", [], small_cfg(), rounds=-1, niqe_model=niqe_model)


class TestPoolingShapes:
    """m pools to 1/4: pair sides and the patch must be multiples of 4, and
    every entry point says so before it collects a patch or builds a bank."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            pytest.fail("work started before the shape check")

        monkeypatch.setattr("evofuse.training._collect_samples", fail)
        monkeypatch.setattr("evofuse.training.init_bank", fail)

    @pytest.mark.parametrize("size,patch,match", [
        (98, 32, "pair .* multiples of 4, got 98x98"),
        (96, 30, "patch sides must be multiples of 4, got 30x30"),
    ])
    def test_entry_points_fail_fast(self, rng, size, patch, match):
        pairs = small_dataset(rng, n=1, size=size, task=Task.MEDICAL)
        pairs += small_dataset(rng, n=1, size=size, task=Task.CVS)
        cfg = small_cfg(patch=patch)
        calls = [
            lambda: evolve("m", pairs, cfg, rounds=1, niqe_model=None),
            lambda: train("m", pairs, None, cfg),
            lambda: train_common("m", pairs, None, cfg),
            lambda: adapt_task(build_network("m"), pairs, None, cfg, beta_mix=1.0),
        ]
        for call in calls:
            with pytest.raises(DimensionError, match=match):
                call()

    @pytest.mark.parametrize("size,patch,match", [
        (32, SSIM_WINDOW - 1, f"patch {SSIM_WINDOW - 1} is smaller than the {SSIM_WINDOW}-pixel"),
        (32, 36, "patch 36 exceeds pair .* of 32x32"),
    ])
    def test_bad_patch_fails_fast(self, rng, size, patch, match):
        pairs = small_dataset(rng, n=1, size=size, task=Task.MEDICAL)
        pairs += small_dataset(rng, n=1, size=size, task=Task.CVS)
        cfg = small_cfg(patch=patch)
        calls = [
            lambda: evolve("gcb", pairs, cfg, rounds=1, niqe_model=None),
            lambda: train("gcb", pairs, None, cfg),
            lambda: train_common("gcb", pairs, None, cfg),
            lambda: adapt_task(build_network("gcb"), pairs, None, cfg, beta_mix=1.0),
        ]
        for call in calls:
            with pytest.raises(DimensionError, match=match):
                call()

    def test_unpooled_spec_takes_any_size(self, rng):
        pairs = small_dataset(rng, n=1, size=33)
        with pytest.raises(pytest.fail.Exception, match="work started"):
            train("gcb", pairs, None, small_cfg(patch=31))


class TestTrainCommon:
    def test_single_task_rejected(self, rng):
        pairs = small_dataset(rng, n=2, task=Task.MEDICAL)
        bank = init_bank(pairs, None)
        with pytest.raises(TaskMixError):
            train_common("gcb", pairs, bank, small_cfg())

    def test_mixed_tasks_equals_plain_train(self, rng):
        a = small_dataset(rng, n=1, task=Task.MEDICAL)
        b = small_dataset(rng, n=1, task=Task.CVS)
        mixed = a + b
        bank = init_bank(mixed, None)
        common = train_common("gcb", mixed, bank, small_cfg())
        direct, _ = train("gcb", mixed, bank, small_cfg())
        for x, y in zip(state_arrays(common), state_arrays(direct)):
            np.testing.assert_array_equal(x, y)


class TestAdaptTask:
    def test_beta_one_common_head_is_identity(self, rng):
        common = build_network("gcb", seed=5)
        tw = make_task_weights(common, "task", 1.0, unique_init="common")
        pair = random_pair(rng, 32, 32)
        np.testing.assert_array_equal(
            task_forward(tw, pair, "task"), net_forward(common, pair, mode="eval")
        )

    def test_beta_zero_ignores_input(self, rng):
        common = build_network("gcb", seed=5)
        tw = make_task_weights(common, "task", 0.0, unique_init="common")
        out1 = task_forward(tw, random_pair(rng, 16, 16), "task")
        out2 = task_forward(tw, random_pair(rng, 16, 16), "task")
        np.testing.assert_array_equal(out1, out2)

    def test_beta_out_of_range(self):
        common = build_network("gcb", seed=5)
        with pytest.raises(RangeError):
            make_task_weights(common, "task", 1.5)

    def test_adaptation_does_not_hurt_task_loss(self, rng):
        mixed = small_dataset(rng, 1, task=Task.MEDICAL) + small_dataset(rng, 1, task=Task.CVS)
        bank_mixed = init_bank(mixed, None)
        common = train_common("gcb", mixed, bank_mixed, small_cfg())

        task_set = small_dataset(rng, n=2, size=64, task=Task.MULTI_FOCUS)
        bank_task = init_bank(task_set, None)
        tw = adapt_task(common, task_set, bank_task, small_cfg(phases=((0.001, 3),)), beta_mix=1.0)

        def mean_loss(forward):
            total = 0.0
            for pair in task_set:
                pred = forward(pair)
                total += loss_to_optimal(pred, bank_task.entries[pair.pair_id].fused)[0]
            return total / len(task_set)

        adapted = mean_loss(lambda p: task_forward(tw, p, Task.MULTI_FOCUS.value))
        alone = mean_loss(lambda p: net_forward(common, p, mode="eval"))
        assert adapted <= alone + 1e-9
