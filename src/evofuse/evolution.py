"""Candidate scoring, optimal-result selection and the evolving solution bank.

The bank stores, per pair, the best fused candidate seen so far. Updates
re-normalize the combined score over just {incumbent, newcomer} and keep
the winner, so the stored entry only ever improves.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DimensionError,
    EmptyInputError,
    IoError,
    NotEvaluatedError,
    ParseError,
)
from .fusion import FusionCandidate, run_bank
from .image import ImageGray, ImagePair, load_pgm, save_pgm
from .metrics import (
    QualityScores,
    avg_gradient,
    brenner,
    combined_score,
    mutual_information_pool,
    psnr,
    ssim_pool,
    viff_pool,
)
from .niqe import NiqeModel, niqe_score
from .threads import _run, _workers

# candidates closer than one 8-bit quantization step count as identical
SAME_IMAGE_TOL = 1.0 / 510.0


@dataclass
class SolutionBank:
    """Per-pair store of the current relative optimal solution."""

    entries: dict[str, FusionCandidate] = field(default_factory=dict)
    generation: int = 0


def score_pool(pair: ImagePair, fused: list[ImageGray], niqe_model: NiqeModel | None) -> list[QualityScores]:
    """All raw metrics of each fused image of one pair against both sources.

    Full-reference metrics are computed against a and b separately; VIFF is
    reported as the mean over the two references. NIQE is skipped when no
    model is supplied. SSIM, VIFF and MI each run over the whole pool, so
    each source's statistics are computed once per call.

    The metric families run as two fixed task lists. This thread runs SSIM,
    then VIFF: the two largest working sets, kept apart from each other.
    With more than one worker (``evofuse.threads``) the shared pool runs MI
    and entropy, AG, Brenner, PSNR and NIQE beside them; with one, this
    thread runs them after VIFF. Both lists have ended when this returns or
    raises, and an exception of this thread's list wins, as it does in the
    serial order. Each family computes what it computes alone, so no score
    depends on the worker count.
    """
    for img in fused:
        if img.shape != pair.a.shape:
            raise DimensionError(f"fused shape {img.shape} != pair {pair.a.shape}")
    sources = [pair.a, pair.b]

    def ssim_then_viff():
        return ssim_pool(sources, fused), viff_pool(sources, fused)

    def the_rest():
        return mutual_information_pool(sources, fused), [
            (avg_gradient(img), brenner(img), psnr(pair.a, img), psnr(pair.b, img),
             niqe_score(img, niqe_model) if niqe_model is not None else None)
            for img in fused
        ]

    tasks = [ssim_then_viff, the_rest]
    (ssims, vifs), ((mis, ens), rest) = _run(tasks) if _workers() > 1 else [task() for task in tasks]
    return [
        QualityScores(
            en=float(ens[i]),
            ag=ag,
            brenner=sharpness,
            ssim_a=float(ssims[i, 0]),
            ssim_b=float(ssims[i, 1]),
            psnr_a=psnr_a,
            psnr_b=psnr_b,
            mi_a=float(mis[i, 0]),
            mi_b=float(mis[i, 1]),
            viff=float((vifs[i, 0] + vifs[i, 1]) / 2.0),
            niqe=niqe,
        )
        for i, (ag, sharpness, psnr_a, psnr_b, niqe) in enumerate(rest)
    ]


def score_candidate(pair: ImagePair, fused: ImageGray, niqe_model: NiqeModel | None) -> QualityScores:
    """All raw metrics of one fused image against both sources (a pool of one)."""
    return score_pool(pair, [fused], niqe_model)[0]


def _score_unscored(pair: ImagePair, candidates: list[FusionCandidate], niqe_model: NiqeModel | None):
    todo = [c for c in candidates if c.scores is None]
    if not todo:
        return
    for cand, scores in zip(todo, score_pool(pair, [c.fused for c in todo], niqe_model)):
        cand.scores = scores


def evaluate_candidates(
    pair: ImagePair, candidates: list[FusionCandidate], niqe_model: NiqeModel | None
) -> list[FusionCandidate]:
    """Populate every candidate's scores and pool-relative combined value.

    The candidates without scores are scored together as one pool.
    """
    if not candidates:
        raise EmptyInputError("no candidates to evaluate")
    _score_unscored(pair, candidates, niqe_model)
    combined = combined_score([c.scores for c in candidates])
    for cand, value in zip(candidates, combined):
        cand.scores.combined = value
    return candidates


def select_optimal(scored: list[FusionCandidate]) -> FusionCandidate:
    """Argmax of combined score; ties go to the lexicographically smallest id."""
    if not scored:
        raise EmptyInputError("no candidates to select from")
    for cand in scored:
        if cand.scores is None or cand.scores.combined is None:
            raise NotEvaluatedError(f"candidate {cand.algo_id!r} has no combined score")
    return min(scored, key=lambda c: (-c.scores.combined, c.algo_id))


def update_bank(
    bank: SolutionBank,
    pair_id: str,
    new_candidate: FusionCandidate,
    pair: ImagePair,
    niqe_model: NiqeModel | None,
) -> SolutionBank:
    """Offer a candidate; keep the pairwise-contest winner.

    The stored combined value is a monotone watermark: the maximum combined
    observed for the entry across all contests, so it never decreases.
    An incumbent win leaves the entry untouched; a newcomer identical to the
    incumbent (every pixel within 1/510) short-circuits to a no-op.
    """
    if new_candidate.fused.shape != pair.a.shape:
        raise DimensionError(
            f"candidate shape {new_candidate.fused.shape} != pair {pair.a.shape}"
        )
    incumbent = bank.entries.get(pair_id)
    if incumbent is None:
        evaluate_candidates(pair, [new_candidate], niqe_model)
        bank.entries[pair_id] = new_candidate
        return bank
    if float(np.max(np.abs(incumbent.fused.data - new_candidate.fused.data))) <= SAME_IMAGE_TOL:
        return bank
    _score_unscored(pair, [incumbent, new_candidate], niqe_model)
    inc_combined, new_combined = combined_score([incumbent.scores, new_candidate.scores])
    if new_combined > inc_combined:
        new_candidate.scores.combined = float(np.fmax(new_combined, _mark(incumbent)))
        bank.entries[pair_id] = new_candidate
    return bank


def _mark(entry: FusionCandidate) -> float:
    """The entry's combined watermark: its scores', else the one loaded (nan: none)."""
    if entry.scores is not None and entry.scores.combined is not None:
        return entry.scores.combined
    return entry.mark


def init_bank(dataset: list[ImagePair], niqe_model: NiqeModel | None) -> SolutionBank:
    """Classical selection: run the algorithm bank and store each pair's best."""
    bank = SolutionBank()
    for pair in dataset:
        scored = evaluate_candidates(pair, run_bank(pair), niqe_model)
        bank.entries[pair.pair_id] = select_optimal(scored)
    return bank


# ---------------------------------------------------------------------------
# Persistence: one PGM per pair plus a line-oriented manifest
# (pair_id, algo_id, combined to 6 decimals, relative PGM path), sorted by
# pair_id and written atomically.
# ---------------------------------------------------------------------------

MANIFEST_NAME = "manifest.txt"


def save_bank(bank: SolutionBank, directory) -> Path:
    root = Path(directory)
    try:
        root.mkdir(parents=True, exist_ok=True)
        lines = []
        for pair_id in sorted(bank.entries):
            entry = bank.entries[pair_id]
            rel = f"{pair_id}.pgm"
            save_pgm(entry.fused, root / rel)
            lines.append(f"{pair_id}\t{entry.algo_id}\t{_mark(entry):.6f}\t{rel}\n")
        fd, tmp = tempfile.mkstemp(dir=root, prefix=".manifest-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        os.replace(tmp, root / MANIFEST_NAME)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    return root / MANIFEST_NAME


def load_bank(directory) -> SolutionBank:
    """Rebuild a bank from disk; raw metric scores are left unpopulated and
    are recomputed lazily on the next update, and each stored combined value
    is the entry's mark."""
    root = Path(directory)
    manifest = root / MANIFEST_NAME
    if not manifest.exists():
        raise IoError(f"no manifest at {manifest}")
    try:
        text = manifest.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{manifest}: not UTF-8: {exc}") from exc
    bank = SolutionBank()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(f"{manifest}:{lineno}: expected 4 fields, got {len(parts)}")
        pair_id, algo_id, mark, rel = parts
        try:
            mark = float(mark)
        except ValueError as exc:
            raise ParseError(f"{manifest}:{lineno}: bad combined value {mark!r}") from exc
        bank.entries[pair_id] = FusionCandidate(algo_id, load_pgm(root / rel), mark=mark)
    return bank
