"""Efficiency measurement: latency protocol, cost profiling, report files.

The timing protocol runs a method on deterministic pseudo-random pairs
(default 400x400, 300 trials) with a monotonic clock, skipping the first
run so network warm-up never pollutes the statistics. Timed sections
cover only the fuse/forward call; input generation and I/O are outside.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyInputError, IoError, RangeError, UnknownAlgorithmError
from .evolution import evaluate_candidates
from .fusion import REGISTRY, FusionCandidate
from .image import ImagePair
from .net.arch import BUILTIN_NAMES, ArchSpec, count_flops, count_groups, count_state
from .net.network import build_network, net_forward, weight_file_bytes
from .niqe import NiqeModel
from .synth import bench_pair, toy_pairs

FLOP_CONVENTION = "1 MAC = 2 FLOPs"
WARMUP_SKIP = 1  # leading trials left out of the statistics


@dataclass
class BenchProtocol:
    """Paper-style protocol: fixed-size 8-bit pairs, first trial skipped."""

    image_size: int = 400
    trials: int = 300
    seed: int = 2024

    def __post_init__(self):
        if self.image_size < 1:
            raise RangeError(f"image size must be >= 1, got {self.image_size}")
        if self.trials < 2:
            raise RangeError(f"trials must be >= 2, got {self.trials}")


@dataclass
class CostReport:
    method: str
    params: int = 0
    flops: int = 0
    bytes: int = 0
    latency_ms_mean: float = float("nan")
    latency_ms_std: float = float("nan")
    end_to_end_ms_mean: float = float("nan")
    input_hw: tuple[int, int] | None = None
    timed_runs: int = 0
    assumptions: dict = field(default_factory=dict)


def _resolve_runner(method: str, seed: int):
    """Three-step runner (prepare, core, finish); only ``core`` is the timed
    section, so for networks the tensor assembly and image conversion land
    in the end-to-end figure but not in the net-only latency."""
    if method in REGISTRY:
        fuser = REGISTRY[method]
        return (lambda pair: pair), fuser, (lambda cand: cand.fused)
    if method in BUILTIN_NAMES:
        from .image import ImageGray
        from .net.network import pair_tensor

        params = build_network(method, seed=seed)
        return (
            pair_tensor,
            (lambda x: net_forward(params, x, mode="eval")),
            (lambda out: ImageGray(np.clip(out[0, 0], 0.0, 1.0))),
        )
    raise UnknownAlgorithmError(f"{method!r} is neither a fusion algo nor a built-in spec")


def run_method(method: str, pair: ImagePair, seed: int = 2024):
    """Fused ImageGray from either a classical fuser or a seeded network."""
    prepare, core, finish = _resolve_runner(method, seed)
    return finish(core(prepare(pair)))


def time_method(
    method: str, protocol: BenchProtocol | None = None, clock=time.perf_counter
) -> CostReport:
    """Latency of one method over the protocol's trials.

    The first ``WARMUP_SKIP`` runs never enter the statistics; the mean and
    stddev cover exactly trials - WARMUP_SKIP runs. ``clock`` is injectable
    for protocol tests.
    """
    protocol = protocol or BenchProtocol()
    prepare, core, finish = _resolve_runner(method, protocol.seed)
    rng = np.random.default_rng(protocol.seed)
    durations = []
    end_to_end = []
    for _ in range(protocol.trials):
        pair = bench_pair(rng, protocol.image_size)
        t0 = clock()
        ready = prepare(pair)
        t1 = clock()
        result = core(ready)
        t2 = clock()
        finish(result)
        t3 = clock()
        durations.append((t2 - t1) * 1e3)
        end_to_end.append((t3 - t0) * 1e3)
    timed = durations[WARMUP_SKIP:]
    report = _profile_or_blank(method, protocol.image_size)
    report.latency_ms_mean = float(np.mean(timed))
    report.latency_ms_std = float(np.std(timed, ddof=1)) if len(timed) > 1 else 0.0
    report.end_to_end_ms_mean = float(np.mean(end_to_end[WARMUP_SKIP:]))
    report.input_hw = (protocol.image_size, protocol.image_size)
    report.timed_runs = len(timed)
    return report


def _profile_or_blank(method: str, size: int) -> CostReport:
    if method in BUILTIN_NAMES:
        return profile_arch(method, size, size)
    return CostReport(method=method, assumptions={"kind": "classical"})


def profile_arch(spec: ArchSpec | str, h: int, w: int) -> CostReport:
    """Analytic parameters/FLOPs plus actual serialized byte size."""
    if h < 1 or w < 1:
        raise RangeError(f"input size must be >= 1, got {h}x{w}")
    params = build_network(spec)
    spec = params.spec
    trainable, running = count_state(spec)
    return CostReport(
        method=spec.name,
        params=trainable,
        flops=count_flops(spec, h, w),
        bytes=weight_file_bytes(params),
        input_hw=(h, w),
        assumptions={
            "in_channels": spec.in_channels,
            "groups": count_groups(spec),
            "flop_convention": FLOP_CONVENTION,
            "bn_trainable_included": True,
            "non_trainable_params": running,
        },
    )


CSV_HEADER = ("method", "combined", "latency_ms", "params", "bytes", "flops")


def run_benchmark(
    methods: list[str],
    protocol: BenchProtocol | None = None,
    out: str | Path = "bench-out",
    pairs: list[ImagePair] | None = None,
    niqe_model: NiqeModel | None = None,
) -> tuple[Path, Path]:
    """Quality/latency/size sweep; writes report.csv and report.json.

    Quality is the mean combined score over the evaluation pairs, with all
    requested methods normalized together per pair. Rows are sorted by
    method name; every non-latency column is deterministic.
    """
    if not methods:
        raise EmptyInputError("no methods requested")
    protocol = protocol or BenchProtocol()
    if pairs is None:
        pairs = toy_pairs(n=3, size=96, seed=protocol.seed)
    if not pairs:
        raise EmptyInputError("no evaluation pairs")
    if niqe_model is None:
        from .niqe import default_niqe_model

        niqe_model = default_niqe_model()

    unique_methods = sorted(set(methods))
    quality_sum = {m: 0.0 for m in unique_methods}
    for pair in pairs:
        candidates = [
            FusionCandidate(m, run_method(m, pair, protocol.seed)) for m in unique_methods
        ]
        evaluate_candidates(pair, candidates, niqe_model)
        for cand in candidates:
            quality_sum[cand.algo_id] += cand.scores.combined
    rows = []
    for m in unique_methods:
        report = time_method(m, protocol)
        rows.append(
            {
                "method": m,
                "combined": quality_sum[m] / len(pairs),
                "latency_ms": report.latency_ms_mean,
                "params": report.params,
                "bytes": report.bytes,
                "flops": report.flops,
            }
        )

    out_dir = Path(out)
    csv_path = out_dir / "report.csv"
    json_path = out_dir / "report.json"
    report = {
        "protocol": {
            "image_size": protocol.image_size,
            "trials": protocol.trials,
            "warmup_skip": WARMUP_SKIP,
            "bit_depth": 8,
        },
        "flop_convention": FLOP_CONVENTION,
        "rows": rows,
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(csv_path, "w") as fh:
            fh.write(",".join(CSV_HEADER) + "\n")
            for row in rows:
                fh.write(
                    f"{row['method']},{row['combined']:.6f},{row['latency_ms']:.3f},"
                    f"{row['params']},{row['bytes']},{row['flops']}\n"
                )
        with open(json_path, "w") as fh:
            json.dump(report, fh, indent=2)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    return csv_path, json_path
