"""The three closed-loop workloads: inputs, one op, and its output checks.

Every workload is built from ``--seed`` through ``evofuse.synth`` and runs
its ops one after another in this process (one caller, each op waits for
the previous result). ``run_op(k)`` is the timed op; ``digest`` and
``problems`` run after the clock stops.

Output checks. For the seeds in ``references.json`` (recorded with
``record_refs.py`` from the float64 path of the evofuse source this
benchmark was written against) each op's digest must match its reference
within ``TOLERANCE``; on every seed the seed-independent invariants below
must hold.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from evofuse.bench import profile_arch
from evofuse.evolution import evaluate_candidates, init_bank, save_bank, select_optimal, update_bank
from evofuse.fusion import DEFAULT_ALGOS, FusionCandidate, run_bank
from evofuse.image import ImagePair, Task, load_pgm, save_pgm
from evofuse.net.network import build_network, net_forward, net_output_image, pair_tensor
from evofuse.niqe import default_niqe_model
from evofuse.synth import bench_pair, toy_pairs
from evofuse.training import TrainConfig, train

clock = time.perf_counter

# Digest tolerances against the recorded float64 references. The inference
# tolerance leaves room for a float32 inference path (max abs error about
# 2e-5 on sigmoid outputs); selection and training stay float64.
TOLERANCE = {
    "infer400": {"atol": 1e-4},
    "select400": {"combined_atol": 1e-6, "scores_rtol": 1e-6},
    "evolve256": {"loss_rtol": 1e-6, "combined_atol": 1e-6, "output_atol": 1e-6},
}

# full: the sizes the benchmark measures; smoke: tiny sizes that exercise
# the same code paths in seconds (NIQE scoring needs at least 96x96).
SCALES = {
    "full": {
        "infer400": {"size": 400, "pool": 2},
        "select400": {"size": 400, "pool": 4},
        "evolve256": {"pool": 4, "size": 256, "patch": 128, "batch": 2},
    },
    "smoke": {
        "infer400": {"size": 64, "pool": 2},
        "select400": {"size": 96, "pool": 2},
        "evolve256": {"pool": 2, "size": 96, "patch": 48, "batch": 2},
    },
}


@dataclass
class Op:
    kind: str  # what the op's latency is grouped by
    key: str  # which reference digest it is checked against
    seconds: float
    out: object
    extra: dict = field(default_factory=dict)


def _close(a, b, atol: float) -> bool:
    return bool(np.all(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) <= atol))


def sample_grid(size: int):
    """16 fixed pixel positions on a 4x4 grid spanning the image."""
    grid = np.linspace(0, size - 1, 4).astype(int)
    return np.repeat(grid, 4), np.tile(grid, 4)


def image_digest(img: np.ndarray, sample_at) -> dict:
    return {
        "mean": float(img.mean()),
        "std": float(img.std()),
        "min": float(img.min()),
        "max": float(img.max()),
        "samples": [float(v) for v in img[sample_at]],
    }


class Infer:
    """Paper latency protocol: pair_tensor -> net_forward(eval) -> clip."""

    name = "infer400"
    why = (
        "The paper's latency protocol on 400x400 pairs through gcb, regular and m: "
        "almost all conv and eval-mode BN forward, and m alone adds pool, upsample, fire and skip."
    )
    archs = ("gcb", "regular", "m")
    cycle = len(archs)
    warmup = cycle  # one untimed op per architecture: its first full-size forward pays one-off costs

    def __init__(self, seed: int, scale: str, workdir: Path):
        cfg = SCALES[scale][self.name]
        self.size = cfg["size"]
        self.nets = {arch: build_network(arch, seed=seed) for arch in self.archs}
        self.profiles = {arch: profile_arch(arch, self.size, self.size) for arch in self.archs}
        rng = np.random.default_rng(seed)
        self.pairs = [bench_pair(rng, self.size) for _ in range(cfg["pool"])]
        self.sample_at = sample_grid(self.size)

    def run_op(self, k: int) -> Op:
        arch = self.archs[k % self.cycle]
        j = (k // self.cycle) % len(self.pairs)
        t0 = clock()
        out = net_forward(self.nets[arch], pair_tensor(self.pairs[j]), mode="eval")
        img = np.clip(out[0, 0], 0.0, 1.0)
        return Op(arch, f"{arch}/{j}", clock() - t0, img)

    def named_metrics(self, lat, extra) -> dict:
        return {f"infer_{a}_ms": (lat.get(a, []), "ms", 1e3) for a in self.archs}

    def digest(self, op: Op) -> dict:
        return image_digest(op.out, self.sample_at)

    def problems(self, op: Op, ref: dict | None) -> list[str]:
        img = op.out
        if img.shape != (self.size, self.size):
            return [f"{op.key}: output shape {img.shape}"]
        if not np.all(np.isfinite(img)):
            return [f"{op.key}: non-finite output"]
        if img.min() < 0.0 or img.max() > 1.0:
            return [f"{op.key}: output outside [0, 1]"]
        if ref is None:
            return []
        got = self.digest(op)
        atol = TOLERANCE[self.name]["atol"]
        return [
            f"{op.key}: {field_} differs from reference by more than {atol}"
            for field_ in ref
            if not _close(got[field_], ref[field_], atol)
        ]


class Select:
    """The CLI ``select`` path on a structured pair read from PGM files."""

    name = "select400"
    why = (
        "The CLI select path on structured 400x400 pairs: 5 fusers then full scoring, "
        "so metrics, NIQE, fusion, pyramid and PGM I/O do the work and the net is idle."
    )
    cycle = 1
    warmup = 1

    def __init__(self, seed: int, scale: str, workdir: Path):
        cfg = SCALES[scale][self.name]
        self.niqe = default_niqe_model()
        self.files = []
        for pair in toy_pairs(n=cfg["pool"], size=cfg["size"], seed=seed):
            a, b = workdir / f"{pair.pair_id}_a.pgm", workdir / f"{pair.pair_id}_b.pgm"
            save_pgm(pair.a, a)
            save_pgm(pair.b, b)
            self.files.append((a, b))
        self.out_path = workdir / "selected.pgm"

    def run_op(self, k: int) -> Op:
        j = k % len(self.files)
        a_path, b_path = self.files[j]
        t0 = clock()
        pair = ImagePair(load_pgm(a_path), load_pgm(b_path), "cli-pair", Task.IR_VISIBLE)
        scored = evaluate_candidates(pair, run_bank(pair, list(DEFAULT_ALGOS)), self.niqe)
        best = select_optimal(scored)
        save_pgm(best.fused, self.out_path)
        return Op("select", f"pair{j}", clock() - t0, (scored, best))

    def named_metrics(self, lat, extra) -> dict:
        return {"select_ms": (lat.get("select", []), "ms", 1e3)}

    def digest(self, op: Op) -> dict:
        scored, best = op.out
        return {
            "selected": best.algo_id,
            "combined": [c.scores.combined for c in scored],
            "scores": [[v for k, v in sorted(vars(c.scores).items()) if k != "combined"] for c in scored],
        }

    def problems(self, op: Op, ref: dict | None) -> list[str]:
        scored, best = op.out
        combined = [c.scores.combined for c in scored]
        if not np.all(np.isfinite(combined)):
            return [f"{op.key}: non-finite combined score"]
        if best.scores.combined != max(combined):
            return [f"{op.key}: selected {best.algo_id} lacks the maximum combined score"]
        raw = self.out_path.read_bytes()
        h, w = best.fused.shape
        pixels = np.frombuffer(raw[len(raw) - h * w :], dtype=np.uint8).reshape(h, w)
        if np.max(np.abs(pixels / 255.0 - best.fused.data)) > 0.5 / 255.0 + 1e-12:
            return [f"{op.key}: written PGM does not hold the selected image"]
        if ref is None:
            return []
        got = self.digest(op)
        out = []
        if got["selected"] != ref["selected"]:
            out.append(f"{op.key}: selected {got['selected']}, reference {ref['selected']}")
        atol = TOLERANCE[self.name]["combined_atol"]
        if not _close(got["combined"], ref["combined"], atol):
            out.append(f"{op.key}: combined scores differ from reference by more than {atol}")
        rtol = TOLERANCE[self.name]["scores_rtol"]
        if not np.allclose(got["scores"], ref["scores"], rtol=rtol, atol=1e-12):
            out.append(f"{op.key}: raw metric scores differ from reference by more than {rtol} relative")
        return out


class Evolve:
    """One self-evolution round built from public calls, on one pair of the
    pool per op: a 4-pair round took 25 s, so a run held one op and its
    median could not be steadied."""

    name = "evolve256"
    why = (
        "One self-evolution round per 256x256 pair, cycling 4 pairs: classical bank, one epoch "
        "of gcb training (forward, backward, Adam) and a two-way bank contest."
    )
    cycle = 1
    warmup = 0  # the median over the run's rounds absorbs the first one

    def __init__(self, seed: int, scale: str, workdir: Path):
        cfg = SCALES[scale][self.name]
        self.niqe = default_niqe_model()
        self.pool = toy_pairs(n=cfg["pool"], size=cfg["size"], seed=seed)
        self.cfg = TrainConfig(
            phases=((0.001, 1),), batch_size=cfg["batch"], patch=cfg["patch"], seed=seed
        )
        self.samples = (cfg["size"] // cfg["patch"]) ** 2  # training patches per round
        self.sample_at = sample_grid(cfg["size"])
        self.bank_dir = workdir / "bank"

    def run_op(self, k: int) -> Op:
        j = k % len(self.pool)
        pairs = [self.pool[j]]
        t0 = clock()
        bank = init_bank(pairs, self.niqe)
        marks = {pid: entry.scores.combined for pid, entry in bank.entries.items()}
        t1 = clock()
        params, curve = train("gcb", pairs, bank, self.cfg)
        t2 = clock()
        outputs = []
        for pair in pairs:
            fused = net_output_image(params, pair)
            outputs.append(fused.data)
            update_bank(bank, pair.pair_id, FusionCandidate("net1", fused), pair, self.niqe)
        save_bank(bank, self.bank_dir)
        seconds = clock() - t0
        return Op(
            "round",
            f"pair{j}",
            seconds,
            (bank, marks, curve, outputs),
            {"train_samples_per_s": self.samples / (t2 - t1)},
        )

    def named_metrics(self, lat, extra) -> dict:
        return {
            "evolve_round_s": (lat.get("round", []), "s", 1.0),
            "train_samples_per_s": (extra.get("train_samples_per_s", []), "1/s", 1.0),
        }

    def digest(self, op: Op) -> dict:
        bank, _, curve, outputs = op.out
        return {
            "output": image_digest(outputs[0], self.sample_at),
            "loss": [pt.mean_loss for pt in curve],
            "bank": {pid: bank.entries[pid].algo_id for pid in sorted(bank.entries)},
            "combined": {pid: bank.entries[pid].scores.combined for pid in sorted(bank.entries)},
        }

    def problems(self, op: Op, ref: dict | None) -> list[str]:
        bank, marks, curve, outputs = op.out
        out = []
        if not all(np.isfinite(pt.mean_loss) for pt in curve):
            out.append("non-finite training loss")
        for img in outputs:
            if not np.all(np.isfinite(img)) or img.min() < 0.0 or img.max() > 1.0:
                out.append("network output non-finite or outside [0, 1]")
        for pid, mark in marks.items():
            if bank.entries[pid].scores.combined < mark:
                out.append(f"{pid}: bank watermark fell from {mark} to {bank.entries[pid].scores.combined}")
        lines = (self.bank_dir / "manifest.txt").read_text().splitlines()
        if len(lines) != len(marks):
            out.append(f"manifest has {len(lines)} lines for {len(marks)} pairs")
        if out or ref is None:
            return out
        got = self.digest(op)
        tol = TOLERANCE[self.name]
        if got["bank"] != ref["bank"]:
            out.append(f"bank algo ids {got['bank']} differ from reference {ref['bank']}")
        loss, ref_loss = np.asarray(got["loss"]), np.asarray(ref["loss"])
        if loss.shape != ref_loss.shape or np.any(np.abs(loss - ref_loss) > tol["loss_rtol"] * np.abs(ref_loss)):
            out.append(f"loss curve {got['loss']} differs from reference {ref['loss']}")
        pids = sorted(ref["combined"])
        if sorted(got["combined"]) != pids or not _close(
            [got["combined"][p] for p in pids], [ref["combined"][p] for p in pids], tol["combined_atol"]
        ):
            out.append("bank combined scores differ from reference")
        out += [
            f"trained network output: {field_} differs from reference by more than {tol['output_atol']}"
            for field_ in ref["output"]
            if not _close(got["output"][field_], ref["output"][field_], tol["output_atol"])
        ]
        return out


WORKLOADS = {w.name: w for w in (Infer, Select, Evolve)}


def make_workdir(root: Path, tag: str) -> Path:
    path = root / f"work-{tag}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
