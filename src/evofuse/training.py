"""Loss functions and the optimization loop.

The training target for a pair is its bank-stored optimal solution; the
loss blends pixel error with structural similarity (0.8 MSE + 0.2 (1-SSIM))
so descent improves perceived quality, not just pixel agreement. The SSIM
term and its exact gradient come from the same core as the SSIM metric.
"""

from __future__ import annotations

import copy
import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BankMissError, DimensionError, IoError, RangeError, TaskMixError
from .evolution import init_bank, update_bank
from .fusion import FusionCandidate
from .image import ImageGray, ImagePair, tile_grid
from .metrics import _SSIM_TAPS, _ssim
from .net.arch import ArchSpec
from .net.network import (
    NetParams,
    build_network,
    head_params,
    net_backward,
    net_forward,
    net_forward_cached,
    net_output_image,
    save_weights,
    trainable_arrays,
    trunk_forward,
)
from .niqe import NiqeModel

MSE_WEIGHT = 0.8
SSIM_WEIGHT = 0.2


@dataclass
class TrainConfig:
    """Two-phase schedule by default: 10 epochs at 1e-3 then 100 at 1e-4."""

    phases: tuple = ((0.001, 10), (0.0001, 100))
    batch_size: int = 16
    patch: int = 128
    loss_threshold: float = 0.0  # early-stop when epoch mean loss <= t; 0 disables
    seed: int = 0
    loss_kind: str = "to_optimal"  # or "supervised"
    checkpoint_every: int = 0
    checkpoint_dir: str | None = None

    def __post_init__(self):
        for lr, epochs in self.phases:
            if lr <= 0:
                raise RangeError(f"learning rate must be > 0, got {lr}")
            if epochs < 1:
                raise RangeError(f"epochs must be >= 1, got {epochs}")
        if self.batch_size < 1:
            raise RangeError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.loss_kind not in ("to_optimal", "supervised"):
            raise RangeError(f"unknown loss_kind {self.loss_kind!r}")
        if self.seed < 0:
            raise RangeError(f"seed must be >= 0, got {self.seed}")
        if self.checkpoint_every < 0:
            raise RangeError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if self.checkpoint_every and not self.checkpoint_dir:
            raise RangeError(f"checkpoint_every={self.checkpoint_every} needs a checkpoint_dir")


@dataclass
class TaskWeights:
    """Shared trunk plus per-task output-stage parameters."""

    common: NetParams
    unique: dict[str, list]
    beta_mix: float


@dataclass
class CurvePoint:
    epoch: int
    phase: int
    lr: float
    mean_loss: float


def write_curve_csv(curve: list[CurvePoint], path) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "phase", "mean_loss"])
            for pt in curve:
                writer.writerow([pt.epoch, pt.phase, f"{pt.mean_loss:.8f}"])
    except OSError as exc:
        raise IoError(str(exc)) from exc


def _quality_loss(pred: np.ndarray, target: np.ndarray):
    """Per-batch mean of 0.8*MSE + 0.2*(1 - SSIM); returns (loss, grad)."""
    if pred.shape != target.shape:
        raise DimensionError(f"prediction {pred.shape} != target {target.shape}")
    ssim_val, ssim_grad = _ssim(pred, target, grad=True)
    diff = pred - target
    mse = (diff * diff).mean(axis=(-2, -1))
    loss = float((MSE_WEIGHT * mse + SSIM_WEIGHT * (1.0 - ssim_val)).mean())
    npix = pred.shape[-2] * pred.shape[-1]
    return loss, (MSE_WEIGHT * 2.0 * diff / npix - SSIM_WEIGHT * ssim_grad) / ssim_val.size


def loss_to_optimal(pred: np.ndarray, optimal) -> tuple[float, np.ndarray]:
    """Loss of a (n, 1, h, w) prediction against the stored optimal image."""
    target = optimal.data if isinstance(optimal, ImageGray) else np.asarray(optimal)
    if target.ndim == 2:
        target = np.broadcast_to(target, pred.shape[:-2] + target.shape)
    return _quality_loss(pred, target)


def supervised_loss(pred: np.ndarray, pair: ImagePair) -> tuple[float, np.ndarray]:
    """Mean of the quality loss against each source image."""
    sources = np.stack([pair.a.data, pair.b.data])
    return _batch_loss(pred, np.broadcast_to(sources, (pred.shape[0], *sources.shape)))


def _batch_loss(out: np.ndarray, refs: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean of the quality loss of ``out`` (n, 1, h, w) against each channel
    of ``refs`` (n, k, h, w): summed from the first channel, divided once."""
    loss, grad = _quality_loss(out, refs[:, 0:1])
    for c in range(1, refs.shape[1]):
        loss_c, grad_c = _quality_loss(out, refs[:, c : c + 1])
        loss, grad = loss + loss_c, grad + grad_c
    return loss / refs.shape[1], grad / refs.shape[1]


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0


def init_adam(arrays: list[np.ndarray]) -> AdamState:
    return AdamState(
        m=[np.zeros_like(a) for a in arrays],
        v=[np.zeros_like(a) for a in arrays],
    )


def adam_step(arrays: list[np.ndarray], grads: list[np.ndarray], state: AdamState, lr: float):
    """One bias-corrected Adam update, in place. Returns (arrays, state)."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for p, g, m, v in zip(arrays, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return arrays, state


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------


def _collect_samples(dataset, bank, cfg):
    """Co-located training patches: inputs (N, 2, s, s) and the loss's
    references, the bank optimum's patches (N, 1, s, s) or, in supervised
    mode, the inputs themselves."""
    xs = []
    ts = []
    for pair in dataset:
        optimal = None
        if cfg.loss_kind == "to_optimal":
            entry = None if bank is None else bank.entries.get(pair.pair_id)
            if entry is None:
                raise BankMissError(f"no bank entry for pair {pair.pair_id!r}")
            optimal = entry.fused.data
        for y, x in tile_grid(pair.height, pair.width, cfg.patch):
            sl = (slice(y, y + cfg.patch), slice(x, x + cfg.patch))
            xs.append(np.stack([pair.a.data[sl], pair.b.data[sl]]))
            if optimal is not None:
                ts.append(optimal[sl][None])
    inputs = np.asarray(xs)
    return inputs, np.asarray(ts) if ts else inputs


def _check_sizes(spec: ArchSpec, dataset, cfg: TrainConfig) -> None:
    """Fail before any work on a patch smaller than the SSIM loss window or
    larger than a pair, or when a pooling layer would meet an odd side in a
    training patch or in a full pair at inference."""
    if cfg.patch < _SSIM_TAPS.size:
        raise DimensionError(
            f"patch {cfg.patch} is smaller than the {_SSIM_TAPS.size}-pixel SSIM window"
        )
    spec.check_size(cfg.patch, cfg.patch, "patch")
    for pair in dataset:
        if cfg.patch > min(pair.height, pair.width):
            raise DimensionError(
                f"patch {cfg.patch} exceeds pair {pair.pair_id!r} of {pair.height}x{pair.width}"
            )
        spec.check_size(pair.height, pair.width, f"pair {pair.pair_id!r}")


def _train_params(params: NetParams, inputs, refs, cfg: TrainConfig) -> list[CurvePoint]:
    """Run the phase schedule on existing parameters over samples: the
    network reads ``inputs`` and the loss ``refs``. Returns the loss curve."""
    n = inputs.shape[0]
    rng = np.random.default_rng(cfg.seed)
    arrays = trainable_arrays(params)
    state = init_adam(arrays)
    curve: list[CurvePoint] = []
    epoch = 0
    for phase_no, (lr, epochs) in enumerate(cfg.phases, start=1):
        for _ in range(epochs):
            epoch += 1
            order = rng.permutation(n)
            total = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                out, cache = net_forward_cached(params, inputs[idx], mode="train")
                loss, grad_out = _batch_loss(out, refs[idx])
                grads, _ = net_backward(params, cache, grad_out, _input_grad=False)
                del cache  # every block's cache: the next forward must not run beside it
                adam_step(arrays, grads, state, lr)
                total += loss * len(idx)
            mean_loss = total / n
            curve.append(CurvePoint(epoch, phase_no, lr, mean_loss))
            if cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0:
                ckpt_dir = Path(cfg.checkpoint_dir)
                try:
                    ckpt_dir.mkdir(parents=True, exist_ok=True)
                except OSError as exc:
                    raise IoError(str(exc)) from exc
                save_weights(params, ckpt_dir / f"epoch_{epoch:04d}.aenw")
            if cfg.loss_threshold > 0 and mean_loss <= cfg.loss_threshold:
                return curve
    return curve


def train(spec: ArchSpec | str, dataset, bank, cfg: TrainConfig):
    """Fresh seeded network trained through the phase schedule.

    Returns (params, loss curve); to_optimal mode requires a bank entry for
    every pair in the dataset.
    """
    params = build_network(spec, cfg.seed)
    _check_sizes(params.spec, dataset, cfg)
    curve = _train_params(params, *_collect_samples(dataset, bank, cfg), cfg)
    return params, curve


def evolve(
    spec: ArchSpec | str,
    dataset,
    cfg: TrainConfig,
    rounds: int,
    niqe_model: NiqeModel | None,
    curve_out: list | None = None,
):
    """Full self-evolution loop.

    The bank starts from classical selection. Each round trains toward the
    current bank and then offers every network prediction back; the bank
    only ever improves, so stored combined scores are non-decreasing.
    Returns (params, bank); rounds=0 leaves the bank purely classical.
    ``curve_out``, when given, collects every round's loss curve.
    """
    if rounds < 0:
        raise RangeError(f"rounds must be >= 0, got {rounds}")
    params = build_network(spec, cfg.seed)
    _check_sizes(params.spec, dataset, cfg)
    bank = init_bank(dataset, niqe_model)
    for round_no in range(1, rounds + 1):
        curve = _train_params(params, *_collect_samples(dataset, bank, cfg), cfg)
        if curve_out is not None:
            curve_out.extend(curve)
        for pair in dataset:
            candidate = FusionCandidate(f"net{round_no}", net_output_image(params, pair))
            update_bank(bank, pair.pair_id, candidate, pair, niqe_model)
        bank.generation += 1
    return params, bank


def train_common(spec: ArchSpec | str, mixed_dataset, bank, cfg: TrainConfig) -> NetParams:
    """One weight set over a task-mixed stream (the seeded shuffle interleaves)."""
    tasks = {pair.task for pair in mixed_dataset}
    if len(tasks) < 2:
        raise TaskMixError(f"need >= 2 task families, got {sorted(t.value for t in tasks)}")
    params, _ = train(spec, mixed_dataset, bank, cfg)
    return params


def make_task_weights(common: NetParams, task: str, beta_mix: float) -> TaskWeights:
    """Task head, keyed by ``task``, before any adaptation step: a copy of
    the common output stage, so with beta_mix=1 the composite is exactly the
    common network.
    """
    if not 0.0 <= beta_mix <= 1.0:
        raise RangeError(f"beta_mix must be in [0, 1], got {beta_mix}")
    return TaskWeights(common=common, unique={task: copy.deepcopy(common.gamma)}, beta_mix=beta_mix)


def task_forward(tw: TaskWeights, inputs, task: str | None = None) -> np.ndarray:
    """Common trunk scaled by beta_mix feeding the task-specific output stage."""
    z = tw.beta_mix * trunk_forward(tw.common, inputs, mode="eval")
    if task is None:
        if len(tw.unique) != 1:
            raise RangeError("task must be named when several heads are stored")
        task = next(iter(tw.unique))
    return net_forward(head_params(tw.common, tw.unique[task]), z)


def adapt_task(
    common: NetParams,
    task_dataset,
    bank,
    cfg: TrainConfig,
    beta_mix: float,
) -> TaskWeights:
    """Freeze the common trunk; train a task output stage that starts as a
    copy of the common one.

    Trunk features are computed once per sample in eval mode and scaled by
    beta_mix before the head, so only head parameters receive updates.
    Checkpoints are refused: a head's weight file would carry the common
    spec's name, which load_weights cannot rebuild the head from.
    """
    if cfg.checkpoint_every:
        raise RangeError(f"adapt_task cannot write checkpoints, got checkpoint_every={cfg.checkpoint_every}")
    _check_sizes(common.spec, task_dataset, cfg)
    task = task_dataset[0].task.value
    tw = make_task_weights(common, task, beta_mix)
    gamma = tw.unique[task]

    inputs, refs = _collect_samples(task_dataset, bank, cfg)
    feats = []
    for start in range(0, inputs.shape[0], cfg.batch_size):
        xb = inputs[start : start + cfg.batch_size]
        feats.append(beta_mix * trunk_forward(common, xb, mode="eval"))
    feats = np.concatenate(feats)
    _train_params(head_params(common, gamma), feats, refs, cfg)
    return tw
