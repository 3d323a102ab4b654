import dataclasses

import numpy as np
import pytest

from evofuse import metrics, niqe
from evofuse.errors import DimensionError, EmptyInputError, IoError, NotEvaluatedError, ParseError
from evofuse.evolution import (
    SolutionBank,
    evaluate_candidates,
    init_bank,
    load_bank,
    save_bank,
    score_candidate,
    select_optimal,
    update_bank,
)
from evofuse.fusion import FusionCandidate, run_bank
from evofuse.image import ImageGray, ImagePair, filter2_same, save_pgm
from evofuse.metrics import combined_score
from evofuse.synth import toy_pairs

from conftest import random_pair
from oracles import score_candidate_oracle


def scored_pool(pair, niqe_model, algos=None):
    return evaluate_candidates(pair, run_bank(pair, algos), niqe_model)


class TestEvaluate:
    def test_single_candidate_combined_half(self, rng, niqe_model):
        pair = random_pair(rng, 96, 96)
        cands = evaluate_candidates(pair, run_bank(pair, ["avg"]), niqe_model)
        assert cands[0].scores.combined == 0.5

    def test_candidate_equal_to_source(self, rng, niqe_model):
        pair = random_pair(rng, 96, 96)
        cand = FusionCandidate("copy-a", pair.a)
        evaluate_candidates(pair, [cand], niqe_model)
        assert abs(cand.scores.ssim_a - 1.0) <= 1e-6
        assert cand.scores.psnr_a == 100.0

    def test_combined_matches_metrics_oracle(self, rng, niqe_model):
        pair = random_pair(rng, 96, 96)
        cands = scored_pool(pair, niqe_model)
        expected = combined_score([c.scores for c in cands])
        assert [c.scores.combined for c in cands] == expected

    def test_empty_rejected(self, rng, niqe_model):
        with pytest.raises(EmptyInputError):
            evaluate_candidates(random_pair(rng, 96, 96), [], niqe_model)

    def test_without_niqe_model(self, rng):
        pair = random_pair(rng, 96, 96)
        cands = evaluate_candidates(pair, run_bank(pair, ["avg", "lp"]), None)
        assert all(c.scores.niqe is None for c in cands)
        assert all(np.isfinite(c.scores.combined) for c in cands)


def raw_scores(scores):
    return {k: v for k, v in dataclasses.asdict(scores).items() if k != "combined"}


def assert_scores_equal_oracle(pair, candidates, niqe_model):
    for cand in candidates:
        want = raw_scores(score_candidate_oracle(pair, cand.fused, niqe_model))
        assert raw_scores(cand.scores) == want, cand.algo_id


class TestPoolScoring:
    """Pool scoring shares each source's statistics across the candidates;
    its raw scores must equal per-candidate scoring exactly."""

    def test_toy_pools_equal_oracle(self, niqe_model):
        for pair in toy_pairs(n=2, size=96, seed=3):
            assert_scores_equal_oracle(pair, scored_pool(pair, niqe_model), niqe_model)

    def test_odd_sized_pair_equals_oracle(self, rng, niqe_model):
        # odd sides exercise the VIFF decimation at every scale
        pair = random_pair(rng, 97, 131)
        assert_scores_equal_oracle(pair, scored_pool(pair, niqe_model, ["avg", "lp", "expw"]), niqe_model)

    def test_flat_sources_equal_oracle(self, rng, niqe_model):
        # a constant source carries no VIFF information, so its half of the
        # VIFF score is 1; a half-flat one mixes flat and textured windows
        noise = rng.random((96, 100))
        half = noise.copy()
        half[:, :50] = 0.4
        for a in (np.full(noise.shape, 0.4), half):
            pair = ImagePair(ImageGray(a), ImageGray(noise[::-1]), "flat")
            cands = run_bank(pair, ["avg", "absmax", "gradsel"]) + [FusionCandidate("copy-a", pair.a)]
            evaluate_candidates(pair, cands, niqe_model)
            assert_scores_equal_oracle(pair, cands, niqe_model)
            if a is not half:
                assert all(metrics.viff(pair.a, c.fused) == 1.0 for c in cands)

    def test_candidate_equal_to_source_equals_oracle(self, rng, niqe_model):
        pair = random_pair(rng, 96, 96)
        cands = [FusionCandidate("copy-a", pair.a), FusionCandidate("copy-b", pair.b)]
        cands += run_bank(pair, ["avg"])
        evaluate_candidates(pair, cands, niqe_model)
        assert_scores_equal_oracle(pair, cands, niqe_model)
        assert cands[0].scores.mi_a == cands[0].scores.en

    def test_only_unscored_candidates_are_scored(self, rng, niqe_model):
        pair = random_pair(rng, 96, 96)
        cands = run_bank(pair, ["avg", "lp"])
        evaluate_candidates(pair, cands[:1], niqe_model)
        first = cands[0].scores
        evaluate_candidates(pair, cands, niqe_model)
        assert cands[0].scores is first
        assert_scores_equal_oracle(pair, cands, niqe_model)

    def test_contest_with_unscored_incumbent_equals_oracle(self, tmp_path, rng, niqe_model):
        pair = random_pair(rng, 96, 96)
        save_bank(init_bank([pair], niqe_model), tmp_path / "bank")
        bank = load_bank(tmp_path / "bank")
        incumbent = bank.entries[pair.pair_id]
        assert incumbent.scores is None
        challenger = FusionCandidate("sharp", unsharp(incumbent.fused))
        update_bank(bank, pair.pair_id, challenger, pair, niqe_model)
        assert_scores_equal_oracle(pair, [incumbent, challenger], niqe_model)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_filter_passes_per_pool(self, monkeypatch, niqe_model, n):
        # scored one at a time, each candidate costs 54 image passes; shared
        # source statistics leave 20 per pool plus 24 per candidate
        passes = []

        def counting(a, taps):
            passes.append(int(np.prod(a.shape[:-2])))
            return filter_(a, taps)

        filter_ = metrics.separable_filter
        monkeypatch.setattr(metrics, "separable_filter", counting)
        monkeypatch.setattr(niqe, "separable_filter", counting)
        pair = toy_pairs(n=1, size=96, seed=4)[0]
        scored_pool(pair, niqe_model, ["avg", "absmax", "gradsel", "lp", "expw"][:n])
        assert sum(passes) <= 20 + 24 * n


class TestSelect:
    def test_dominant_wins(self, rng, niqe_model):
        pair = random_pair(rng, 96, 96)
        cands = scored_pool(pair, niqe_model)
        best = select_optimal(cands)
        assert best.scores.combined == max(c.scores.combined for c in cands)

    def test_tie_breaks_lexicographically(self, rng, niqe_model):
        pair = random_pair(rng, 96, 96)
        img = run_bank(pair, ["avg"])[0].fused
        twins = [FusionCandidate("lp", img), FusionCandidate("avg", img)]
        evaluate_candidates(pair, twins, niqe_model)
        assert select_optimal(twins).algo_id == "avg"

    def test_matches_brute_force(self, rng, niqe_model):
        pair = random_pair(rng, 96, 96)
        cands = scored_pool(pair, niqe_model, ["avg", "lp", "gradsel"])
        best = select_optimal(cands)
        brute = sorted(cands, key=lambda c: (-c.scores.combined, c.algo_id))[0]
        assert best is brute

    def test_missing_scores_rejected(self, rng):
        with pytest.raises(NotEvaluatedError):
            select_optimal([FusionCandidate("avg", random_pair(rng, 16, 16).a)])

    def test_input_order_irrelevant(self, rng, niqe_model):
        pair = random_pair(rng, 96, 96)
        cands = scored_pool(pair, niqe_model)
        assert (
            select_optimal(cands).algo_id
            == select_optimal(list(reversed(cands))).algo_id
        )


def unsharp(img: ImageGray) -> ImageGray:
    blurred = filter2_same(img, np.ones((5, 5)) / 25.0)
    return ImageGray(np.clip(img.data + 1.5 * (img.data - blurred), 0.0, 1.0))


class TestUpdateBank:
    def test_insert_into_empty(self, rng, niqe_model):
        pair = random_pair(rng, 96, 96)
        bank = SolutionBank()
        cand = run_bank(pair, ["avg"])[0]
        update_bank(bank, pair.pair_id, cand, pair, niqe_model)
        assert bank.entries[pair.pair_id] is cand
        assert cand.scores.combined == 0.5  # single-candidate rule

    def test_identical_newcomer_is_noop(self, rng, niqe_model):
        pair = random_pair(rng, 96, 96)
        bank = init_bank([pair], niqe_model)
        incumbent = bank.entries[pair.pair_id]
        clone = FusionCandidate("clone", ImageGray(incumbent.fused.data.copy()))
        update_bank(bank, pair.pair_id, clone, pair, niqe_model)
        assert bank.entries[pair.pair_id] is incumbent

    def test_dominated_newcomer_rejected(self, rng, niqe_model):
        pair = random_pair(rng, 96, 96)
        bank = init_bank([pair], niqe_model)
        incumbent = bank.entries[pair.pair_id]
        # heavy blur degrades sharpness metrics across the board
        blurred = ImageGray(filter2_same(incumbent.fused, np.ones((7, 7)) / 49.0).clip(0, 1))
        before = incumbent.scores.combined
        update_bank(bank, pair.pair_id, FusionCandidate("blur", blurred), pair, niqe_model)
        assert bank.entries[pair.pair_id] is incumbent
        assert incumbent.scores.combined == before

    def test_sharper_newcomer_replaces(self, rng, niqe_model):
        pair = random_pair(rng, 96, 96)
        bank = init_bank([pair], niqe_model)
        incumbent = bank.entries[pair.pair_id]
        sharp = unsharp(incumbent.fused)
        inc_scores = score_candidate(pair, incumbent.fused, niqe_model)
        new_scores = score_candidate(pair, sharp, niqe_model)
        pairwise = combined_score([inc_scores, new_scores])
        update_bank(bank, pair.pair_id, FusionCandidate("sharp", sharp), pair, niqe_model)
        if pairwise[1] > pairwise[0]:
            assert bank.entries[pair.pair_id].algo_id == "sharp"
        else:
            assert bank.entries[pair.pair_id] is incumbent

    def test_stored_combined_never_decreases(self, rng, niqe_model):
        pair = random_pair(rng, 96, 96)
        bank = init_bank([pair], niqe_model)
        marks = [bank.entries[pair.pair_id].scores.combined]
        current = bank.entries[pair.pair_id].fused
        for i in range(3):
            current = unsharp(current)
            update_bank(bank, pair.pair_id, FusionCandidate(f"n{i}", current), pair, niqe_model)
            marks.append(bank.entries[pair.pair_id].scores.combined)
        assert all(b >= a - 1e-12 for a, b in zip(marks, marks[1:]))

    def test_incumbent_beats_all_offered_candidates(self, rng, niqe_model):
        pair = random_pair(rng, 96, 96)
        bank = init_bank([pair], niqe_model)
        offered = []
        current = bank.entries[pair.pair_id].fused
        for i in range(4):
            current = unsharp(current)
            offered.append(
                FusionCandidate(f"n{i}", current, score_candidate(pair, current, niqe_model))
            )
            update_bank(bank, pair.pair_id, FusionCandidate(f"n{i}", current), pair, niqe_model)
            current = bank.entries[pair.pair_id].fused
        incumbent = bank.entries[pair.pair_id]
        inc_scores = score_candidate(pair, incumbent.fused, niqe_model)
        for off in offered:
            if np.max(np.abs(off.fused.data - incumbent.fused.data)) <= 1.0 / 510.0:
                continue  # effectively the incumbent itself
            inc_c, off_c = combined_score([inc_scores, off.scores])
            assert inc_c >= off_c

    def test_dim_mismatch_rejected(self, rng, niqe_model):
        pair = random_pair(rng, 96, 96)
        bank = SolutionBank()
        wrong = FusionCandidate("x", random_pair(rng, 128, 128).a)
        with pytest.raises(DimensionError):
            update_bank(bank, pair.pair_id, wrong, pair, niqe_model)


class TestNewcomerWins:
    """A flat incumbent offered the ``lp`` fusion of a toy pair loses the
    pairwise contest by far (0.125 to 0.875 combined), so the newcomer is
    stored with the larger of the old mark and its pairwise value."""

    def contest(self, niqe_model, incumbent, pair):
        """(the stored entry, the newcomer, the pairwise combined pair)."""
        newcomer = run_bank(pair, ["lp"])[0]
        pairwise = combined_score(
            [score_candidate(pair, img, niqe_model) for img in (incumbent.fused, newcomer.fused)]
        )
        bank = SolutionBank({pair.pair_id: incumbent})
        update_bank(bank, pair.pair_id, newcomer, pair, niqe_model)
        return bank.entries[pair.pair_id], newcomer, pairwise

    @pytest.mark.parametrize("mark", [0.5, 0.95])
    def test_stored_mark_is_the_maximum(self, niqe_model, mark):
        pair = toy_pairs(n=1, size=96, seed=5)[0]
        flat = ImageGray(np.full(pair.a.shape, 0.5))
        incumbent = FusionCandidate("flat", flat, score_candidate(pair, flat, niqe_model))
        incumbent.scores.combined = mark
        stored, newcomer, (inc_c, new_c) = self.contest(niqe_model, incumbent, pair)
        assert new_c > inc_c
        assert stored is newcomer
        assert stored.scores.combined == max(mark, new_c)

    def test_unscored_incumbent_from_disk_stores_pairwise(self, tmp_path, niqe_model):
        pair = toy_pairs(n=1, size=96, seed=5)[0]
        flat = FusionCandidate("flat", ImageGray(np.full(pair.a.shape, 0.5)))
        save_bank(SolutionBank({pair.pair_id: flat}), tmp_path / "bank")
        incumbent = load_bank(tmp_path / "bank").entries[pair.pair_id]
        assert incumbent.scores is None
        stored, newcomer, (inc_c, new_c) = self.contest(niqe_model, incumbent, pair)
        assert new_c > inc_c
        assert stored is newcomer
        assert stored.scores.combined == new_c

    def test_mark_survives_save_and_load(self, tmp_path, niqe_model):
        pair = toy_pairs(n=1, size=96, seed=5)[0]
        flat = ImageGray(np.full(pair.a.shape, 0.5))
        saved = FusionCandidate("flat", flat, score_candidate(pair, flat, niqe_model))
        saved.scores.combined = 0.95
        save_bank(SolutionBank({pair.pair_id: saved}), tmp_path / "bank")
        save_bank(load_bank(tmp_path / "bank"), tmp_path / "again")
        assert (tmp_path / "again" / "manifest.txt").read_text().split("\t")[2] == "0.950000"
        incumbent = load_bank(tmp_path / "bank").entries[pair.pair_id]
        assert incumbent.scores is None
        stored, newcomer, (_, new_c) = self.contest(niqe_model, incumbent, pair)
        assert new_c < 0.95
        assert stored is newcomer
        assert stored.scores.combined == 0.95


class TestSelectorProperties:
    def test_argmax_invariant_under_column_scaling(self, rng, niqe_model):
        pair = random_pair(rng, 96, 96)
        cands = scored_pool(pair, niqe_model)
        base_choice = select_optimal(cands).algo_id
        for factor in (0.001, 3.0, 1e4):
            rescaled = []
            for c in cands:
                s = dataclasses.replace(c.scores, en=c.scores.en * factor, combined=None)
                rescaled.append(FusionCandidate(c.algo_id, c.fused, s))
            for cand, val in zip(rescaled, combined_score([c.scores for c in rescaled])):
                cand.scores.combined = val
            assert select_optimal(rescaled).algo_id == base_choice


class TestBankPersistence:
    def test_manifest_roundtrip(self, tmp_path, rng, niqe_model):
        pairs = [random_pair(rng, 96, 96, pair_id=f"pair-{i}") for i in range(3)]
        bank = init_bank(pairs, niqe_model)
        manifest = save_bank(bank, tmp_path / "bank")
        lines = manifest.read_text().splitlines()
        assert len(lines) == 3
        ids = [line.split("\t")[0] for line in lines]
        assert ids == sorted(ids)
        for line in lines:
            pair_id, algo_id, combined, rel = line.split("\t")
            assert algo_id == bank.entries[pair_id].algo_id
            assert combined == f"{bank.entries[pair_id].scores.combined:.6f}"
            assert (tmp_path / "bank" / rel).exists()
        back = load_bank(tmp_path / "bank")
        assert set(back.entries) == set(bank.entries)
        for pid in bank.entries:
            assert np.max(
                np.abs(back.entries[pid].fused.data - bank.entries[pid].fused.data)
            ) <= 1.0 / 510.0 + 1e-15

    def test_loaded_incumbent_that_wins_saves_its_mark(self, tmp_path, niqe_model):
        # the winner's scores hold no combined value, so the loaded mark is saved
        pair = toy_pairs(n=1, size=96, seed=5)[0]
        lp = run_bank(pair, ["lp"])[0]
        lp.scores = score_candidate(pair, lp.fused, niqe_model)
        lp.scores.combined = 0.95
        save_bank(SolutionBank({pair.pair_id: lp}), tmp_path / "bank")
        bank = load_bank(tmp_path / "bank")
        flat = FusionCandidate("flat", ImageGray(np.full(pair.a.shape, 0.5)))
        update_bank(bank, pair.pair_id, flat, pair, niqe_model)
        assert bank.entries[pair.pair_id].algo_id == "lp"
        save_bank(bank, tmp_path / "again")
        assert (tmp_path / "again" / "manifest.txt").read_text().split("\t")[2] == "0.950000"

    def test_non_numeric_mark_is_parse_error(self, tmp_path):
        root = tmp_path / "bank"
        root.mkdir()
        save_pgm(ImageGray(np.full((4, 4), 0.5)), root / "pair.pgm")
        (root / "manifest.txt").write_text("pair\tavg\t0.5x\tpair.pgm\n")
        with pytest.raises(ParseError, match="manifest.txt:1: bad combined value '0.5x'"):
            load_bank(root)

    def test_missing_manifest_is_io_error(self, tmp_path):
        with pytest.raises(IoError, match="no manifest at"):
            load_bank(tmp_path)

    def test_non_utf8_manifest_is_parse_error(self, tmp_path):
        root = tmp_path / "bank"
        root.mkdir()
        (root / "manifest.txt").write_bytes(b"pair\xff\tavg\t0.5\tpair.pgm\n")
        with pytest.raises(ParseError, match="manifest.txt: not UTF-8"):
            load_bank(root)

    def test_atomic_write_leaves_no_temp(self, tmp_path, rng, niqe_model):
        pair = random_pair(rng, 96, 96)
        bank = init_bank([pair], niqe_model)
        save_bank(bank, tmp_path / "bank")
        leftovers = [p for p in (tmp_path / "bank").iterdir() if p.name.startswith(".manifest")]
        assert leftovers == []
