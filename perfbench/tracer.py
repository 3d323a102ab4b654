"""In-memory span recorder wrapped around the public functions of evofuse.

``Tracer.install`` replaces, in every loaded ``evofuse`` module, each public
function defined in the package by a wrapper that records one span: name,
start, end, parent span and op id. Re-exported bindings (``from .metrics
import ssim``) and module-level dict entries that refer to a wrapped
function (``fusion.REGISTRY``) are replaced too, so every call path through
the package is seen. The program's source is not touched, and
``uninstall`` puts the originals back.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over the spans of that layer
(the first component of the module path: ``net``, ``metrics``, ...).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

# Private helpers wrapped because a named per-layer metric needs them:
# the training loss is only reachable through ``_batch_loss``.
EXTRA = ("evofuse.training._batch_loss",)

GLUE = "glue"  # the benchmark's own code inside an op (the root span's self time)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _probe_net_forward(args, kwargs):
    params = _arg(args, kwargs, 0, "params")
    inputs = _arg(args, kwargs, 1, "inputs")
    mode = _arg(args, kwargs, 2, "mode", "eval")
    if hasattr(inputs, "height"):
        n, h, w = 1, inputs.height, inputs.width
    else:
        n, h, w = inputs.shape[0], inputs.shape[-2], inputs.shape[-1]
    tag = {"arch": params.spec.name, "mode": mode, "n": int(n), "h": int(h), "w": int(w)}
    return lambda result: tag


def _probe_forward_cached(args, kwargs):
    tag = {"mode": _arg(args, kwargs, 2, "mode", "eval")}
    return lambda result: tag


def _probe_load_pgm(args, kwargs):
    size = os.path.getsize(_arg(args, kwargs, 0, "path"))
    return lambda result: {"bytes": size}


def _probe_save_pgm(args, kwargs):
    path = _arg(args, kwargs, 1, "path")
    return lambda result: {"bytes": os.path.getsize(path)}


def _probe_update_bank(args, kwargs):
    bank = _arg(args, kwargs, 0, "bank")
    pair_id = _arg(args, kwargs, 1, "pair_id")
    challenger = _arg(args, kwargs, 2, "new_candidate")
    contest = pair_id in bank.entries
    return lambda result: {
        "contest": contest,
        "won": contest and result.entries[pair_id] is challenger,
    }


# span name -> probe(args, kwargs) -> finish(result) -> tag stored on the span
PROBES = {
    "net.network.net_forward": _probe_net_forward,
    "net.network.net_forward_cached": _probe_forward_cached,
    "image.load_pgm": _probe_load_pgm,
    "image.save_pgm": _probe_save_pgm,
    "evolution.update_bank": _probe_update_bank,
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans are lists ``[name, start, end, parent, op, tag]``; ``parent``
    is the index of the enclosing span or -1, ``op`` is the op id current
    when the span opened."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._clock = time.perf_counter

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            finish = probe(args, kwargs) if probe is not None else None
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                self._stack.pop()
            if finish is not None:
                rec[5] = finish(result)
            return result

        return traced

    def run_op(self, op, fn):
        """Call ``fn()`` as op ``op`` under a root span named ``glue``."""
        self.op = op
        rec = self._open(GLUE)
        rec[1] = self._clock()
        try:
            return fn()
        finally:
            rec[2] = self._clock()
            self._stack.pop()
            self.op = None

    def install(self, callers=()) -> None:
        """Wrap every loaded evofuse module; ``callers`` are further modules
        (the benchmark's own) whose imported bindings are redirected too."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "evofuse"]
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                qual = f"{mod.__name__}.{attr}"
                if attr.startswith("_") and qual not in EXTRA:
                    continue
                if inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(qual.split(".", 1)[1], obj))
        for mod in [*modules, *callers]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        hit = wrappers.get(id(val))
                        if hit is not None and hit[0] is val:
                            obj[key] = hit[1]
                            self._patched.append((obj, key, val))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patched):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Per-span self time in seconds."""
        own = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def write_jsonl(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, tag) in enumerate(self.spans):
                row = {
                    "span": i,
                    "name": name,
                    "start_s": start - t0,
                    "end_s": end - t0,
                    "parent": parent,
                    "op": op,
                }
                if tag is not None:
                    row["tag"] = tag
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics derived from the spans of one run
# ---------------------------------------------------------------------------

ARCHS = ("gcb", "regular", "m")

# metric -> span whose time per op it reports (inclusive of children)
PER_OP_MS = {
    "net.conv2d_forward_ms": "net.layers.conv2d_forward",
    "net.batchnorm_forward_ms": "net.layers.batchnorm_forward",
    "net.conv2d_backward_ms": "net.layers.conv2d_backward",
    "training.loss_ms": "training._batch_loss",
    "training.adam_ms": "training.adam_step",
    "metrics.ssim_ms": "metrics.ssim",
    "metrics.viff_ms": "metrics.viff",
    "metrics.mi_ms": "metrics.mutual_information",
    "metrics.entropy_ms": "metrics.entropy",
    "metrics.ag_ms": "metrics.avg_gradient",
    "metrics.brenner_ms": "metrics.brenner",
    "metrics.psnr_ms": "metrics.psnr",
    "metrics.combined_ms": "metrics.combined_score",
    "niqe.score_ms": "niqe.niqe_score",
    "fusion.avg_ms": "fusion.fuse_average",
    "fusion.absmax_ms": "fusion.fuse_absmax",
    "fusion.gradsel_ms": "fusion.fuse_gradient_select",
    "fusion.lp_ms": "fusion.fuse_laplacian_pyramid",
    "fusion.expw_ms": "fusion.fuse_exposure_weighted",
    "pyramid.decompose_ms": "pyramid.laplacian_decompose",
    "pyramid.reconstruct_ms": "pyramid.laplacian_reconstruct",
    "image.load_pgm_ms": "image.load_pgm",
    "image.save_pgm_ms": "image.save_pgm",
    "evolution.evaluate_candidates_ms": "evolution.evaluate_candidates",
    "evolution.init_bank_ms": "evolution.init_bank",
    "evolution.update_bank_ms": "evolution.update_bank",
    "evolution.save_bank_ms": "evolution.save_bank",
}

LAYERS = ("net", "training", "metrics", "niqe", "fusion", "pyramid", "image", "evolution", GLUE)

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"net.forward_eval_ms.{a}", "ms", "lower") for a in ARCHS]
    + [(f"net.gflops_eval.{a}", "GFLOP/s", "higher") for a in ARCHS]
    + [("net.forward_train_ms", "ms", "lower"), ("net.backward_ms", "ms", "lower")]
    + [(name, "ms", "lower") for name in PER_OP_MS]
    + [
        ("metrics.calls", "count", "lower"),
        ("niqe.fit_ms", "ms", "lower"),
        ("image.bytes_read", "B", "lower"),
        ("image.bytes_written", "B", "lower"),
        ("evolution.score_candidate_self_ms", "ms", "lower"),
        ("evolution.contests", "count", "lower"),
        ("evolution.challenger_win_ratio", "ratio", "higher"),
    ]
    + [(f"{layer}.self_ms", "ms", "lower") for layer in LAYERS]
    + [
        ("trace.adj_latency_ms", "ms", "lower"),
        ("trace.unattributed_share", "ratio", "lower"),
        ("trace.spans_per_op", "count", "lower"),
    ]
)


def derive(tracer: Tracer, ops, flops_of) -> tuple[dict, dict]:
    """Per-layer values over the measured ``ops`` (op ids) and notes on them.

    ``_ms`` metrics are milliseconds per op, except ``net.forward_eval_ms.*``,
    ``net.forward_train_ms`` and ``net.backward_ms``, which are per call
    (one pass). Counts are per op. ``flops_of(arch, h, w)`` gives analytic
    FLOPs of one forward pass.
    """
    ops = set(ops)
    n_ops = max(len(ops), 1)
    total: dict[str, float] = {}
    own_by_name: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    fwd = {a: [0.0, 0, 0] for a in ARCHS}  # seconds, calls, FLOPs
    train_fwd = [0.0, 0]
    backward = [0.0, 0]
    moved = {"image.bytes_read": 0, "image.bytes_written": 0}
    contests = wins = metric_calls = spans = 0
    fit_s = 0.0
    op_time: dict = {}  # op -> traced duration (its root span)
    covered: dict = {}  # op -> self time of the listed program layers
    for rec, own in zip(tracer.spans, tracer.self_times()):
        name, start, end, _, op, tag = rec
        dur = end - start
        if op == "setup" and name == "niqe.fit_niqe_model":
            fit_s += dur
        if op not in ops:
            continue
        spans += 1
        total[name] = total.get(name, 0.0) + dur
        own_by_name[name] = own_by_name.get(name, 0.0) + own
        layer = layer_of(name)
        if layer in layer_self:
            layer_self[layer] += own
        if layer == "metrics":
            metric_calls += 1
        if name == GLUE:
            op_time[op] = dur
        elif layer in layer_self:
            covered[op] = covered.get(op, 0.0) + own
        if name == "net.network.net_forward" and tag["mode"] == "eval" and tag["arch"] in fwd:
            acc = fwd[tag["arch"]]
            acc[0] += dur
            acc[1] += 1
            acc[2] += tag["n"] * flops_of(tag["arch"], tag["h"], tag["w"])
        elif name == "net.network.net_forward_cached" and tag["mode"] == "train":
            train_fwd[0] += dur
            train_fwd[1] += 1
        elif name == "net.network.net_backward":
            backward[0] += dur
            backward[1] += 1
        elif name == "image.load_pgm":
            moved["image.bytes_read"] += tag["bytes"]
        elif name == "image.save_pgm":
            moved["image.bytes_written"] += tag["bytes"]
        elif name == "evolution.update_bank" and tag["contest"]:
            contests += 1
            wins += tag["won"]

    def per_call(acc):
        return 1e3 * acc[0] / acc[1] if acc[1] else 0.0

    values = {}
    for a in ARCHS:
        values[f"net.forward_eval_ms.{a}"] = per_call(fwd[a])
        values[f"net.gflops_eval.{a}"] = fwd[a][2] / fwd[a][0] / 1e9 if fwd[a][0] else 0.0
    values["net.forward_train_ms"] = per_call(train_fwd)
    values["net.backward_ms"] = per_call(backward)
    for metric, span in PER_OP_MS.items():
        values[metric] = 1e3 * total.get(span, 0.0) / n_ops
    values["metrics.calls"] = metric_calls / n_ops
    values["niqe.fit_ms"] = 1e3 * fit_s
    for metric, nbytes in moved.items():
        values[metric] = nbytes / n_ops
    values["evolution.score_candidate_self_ms"] = (
        1e3 * own_by_name.get("evolution.score_candidate", 0.0) / n_ops
    )
    values["evolution.contests"] = contests / n_ops
    values["evolution.challenger_win_ratio"] = wins / contests if contests else 0.0
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = 1e3 * layer_self[layer] / n_ops
    values["trace.unattributed_share"] = max(
        (1.0 - covered.get(op, 0.0) / dur for op, dur in op_time.items() if dur > 0), default=0.0
    )
    values["trace.spans_per_op"] = spans / n_ops
    return values, {"challenger_win_ratio_base": f"{wins} wins / {contests} contests"}
