"""Raw metric scores and the training loss pinned to recorded values.

The figures were recorded with the 2-D correlation filters of SSIM, VIFF
and NIQE and the sliding-window SSIM loss. Any later change to the windowed
statistics that moves a score or a gradient beyond float64 rounding shows
here: the relative tolerance 1e-10 sits far above rounding drift and far
below the effect of any change of window, constant or border rule.
"""

import numpy as np
import pytest

from evofuse.evolution import evaluate_candidates, score_candidate, select_optimal
from evofuse.fusion import run_bank
from evofuse.synth import toy_pairs
from evofuse.training import loss_to_optimal

REL = 1e-10

# (pair_id, algo_id): (ssim_a, ssim_b, viff, niqe) on toy_pairs(n=3, size=96, seed=0)
SCORES = {
    ('ir_visible-000', 'avg'): (0.752124654650756, 0.8575893398614363, 0.371072654160054, 346.36023054169016),
    ('ir_visible-000', 'absmax'): (0.6963416129642043, 0.7561692030102409, 0.36794752910882156, 781.5064445029681),
    ('ir_visible-000', 'gradsel'): (0.40913301299231986, 1.0, 0.5583950450669255, 2153.335292556578),
    ('ir_visible-000', 'lp'): (0.5310139016160413, 0.9570295370598253, 0.44040712057904147, 2718.930505715248),
    ('ir_visible-000', 'expw'): (0.44787146478070494, 0.9873311025222975, 0.4730731297746377, 2089.4079904135087),
    ('ir_visible-001', 'avg'): (0.7887992690321912, 0.8734119693668169, 0.3798959411761278, 187.83753230048873),
    ('ir_visible-001', 'absmax'): (0.7130099175619233, 0.8175865532420425, 0.36598266764679954, 496.95495546152034),
    ('ir_visible-001', 'gradsel'): (0.4725414157598574, 1.0, 0.5671347637785742, 1938.9101841320658),
    ('ir_visible-001', 'lp'): (0.5777463023522825, 0.9620741194745869, 0.44674246149787245, 2678.8733414560693),
    ('ir_visible-001', 'expw'): (0.5168896459900024, 0.9887323934991135, 0.4842585116288885, 1924.137792514893),
    ('ir_visible-002', 'avg'): (0.8023672558485079, 0.8741847308177376, 0.3807172592300791, 117.16745777516196),
    ('ir_visible-002', 'absmax'): (0.7409329871568076, 0.8069837463557528, 0.36395429479776314, 553.3387679641312),
    ('ir_visible-002', 'gradsel'): (0.48606825370290263, 1.0, 0.5666476996713179, 1652.0285223932892),
    ('ir_visible-002', 'lp'): (0.6064953547744155, 0.9528087187605563, 0.4409083251686724, 2472.5524698829977),
    ('ir_visible-002', 'expw'): (0.5346648152970785, 0.9884572074224474, 0.4835883421436718, 1623.2998004901035),
}

PICKS = ["gradsel", "gradsel", "gradsel"]

# loss_to_optimal on one seeded 2x1x32x40 prediction; the gradient digest is
# (sum |g|, ||g||_2, <g, w>) with w standard normal from seed 8
LOSS = 0.33215699200120835
DIGEST = (1.025284321950429, 0.02408881676130723, 0.018454181656773955)


@pytest.fixture(scope="module")
def pairs():
    return toy_pairs(n=3, size=96, seed=0)


def test_candidate_scores_pinned(pairs, niqe_model):
    seen = set()
    for pair in pairs:
        for cand in run_bank(pair):
            s = score_candidate(pair, cand.fused, niqe_model)
            want = SCORES[(pair.pair_id, cand.algo_id)]
            got = (s.ssim_a, s.ssim_b, s.viff, s.niqe)
            np.testing.assert_allclose(got, want, rtol=REL, atol=0.0)
            seen.add((pair.pair_id, cand.algo_id))
    assert seen == set(SCORES)


def test_selection_pinned(pairs, niqe_model):
    picks = [select_optimal(evaluate_candidates(p, run_bank(p), niqe_model)).algo_id for p in pairs]
    assert picks == PICKS


def test_loss_and_gradient_pinned():
    rng = np.random.default_rng(7)
    pred = rng.random((2, 1, 32, 40))
    target = rng.random((2, 1, 32, 40))
    loss, grad = loss_to_optimal(pred, target)
    w = np.random.default_rng(8).standard_normal(grad.shape)
    digest = (np.abs(grad).sum(), np.sqrt((grad * grad).sum()), (grad * w).sum())
    assert loss == pytest.approx(LOSS, rel=REL, abs=0.0)
    np.testing.assert_allclose(digest, DIGEST, rtol=REL, atol=0.0)
