"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria with stated
runtime budgets assert them.
"""

import dataclasses
import time

import numpy as np
import pytest

from evofuse.bench import WARMUP_SKIP, BenchProtocol, run_benchmark, time_method
from evofuse.errors import EvoFuseError
from evofuse.evolution import evaluate_candidates, init_bank, select_optimal, update_bank
from evofuse.fusion import FusionCandidate, run_bank
from evofuse.image import ImageGray, ImagePair, Task
from evofuse.metrics import (
    QualityScores,
    avg_gradient,
    brenner,
    combined_score,
    entropy,
    mutual_information,
    psnr,
    ssim,
    viff,
)
from evofuse.net import layers
from evofuse.net.arch import BUILTIN_NAMES, ConvParams, builtin_spec, count_state, fire
from evofuse.net.network import (
    build_network,
    net_forward,
    net_output_image,
    save_weights,
)
from evofuse.pyramid import laplacian_decompose, laplacian_reconstruct
from evofuse.synth import toy_pairs
from evofuse.training import (
    TrainConfig,
    _batch_loss,
    _collect_samples,
    _train_params,
    make_task_weights,
    task_forward,
    train,
)

from oracles import (
    avg_gradient_oracle,
    block_backward,
    block_forward,
    brenner_oracle,
    conv2d_backward,
    conv2d_forward,
    entropy_oracle,
    finite_diff_grad,
    mutual_information_oracle,
    ssim_oracle,
)
from scenes import split_focus_pair

GRAD_TOL = 1e-3
FD_H = 1e-3


def report(number: int, description: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def rel_err(a, b, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def test_c01_metric_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    img = ImageGray(rng.random((64, 64)))
    const = ImageGray(np.full((64, 64), 0.3))
    ok = (
        abs(ssim(img, img) - 1.0) <= 1e-6
        and psnr(img, img) == 100.0
        and abs(mutual_information(img, img) - entropy(img)) <= 1e-9
        and avg_gradient(const) == 0.0
        and entropy(const) == 0.0
        and brenner(const) == 0.0
        and abs(viff(img, img) - 1.0) <= 1e-6
    )
    elapsed = time.perf_counter() - t0
    report(1, f"metric identity suite ({elapsed:.2f}s < 5s)", ok and elapsed < 5.0)


def test_c02_metric_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        x = ImageGray(rng.random((16, 16)))
        y = ImageGray(rng.random((16, 16)))
        worst = max(
            worst,
            abs(entropy(x) - entropy_oracle(x)),
            abs(mutual_information(x, y) - mutual_information_oracle(x, y)),
            abs(avg_gradient(x) - avg_gradient_oracle(x)),
            abs(brenner(x) - brenner_oracle(x)),
            abs(ssim(x, y) - ssim_oracle(x, y)),
        )
    elapsed = time.perf_counter() - t0
    report(
        2,
        f"EN/MI/AG/Brenner/SSIM vs naive oracles, 50 images, max err {worst:.2e} "
        f"({elapsed:.1f}s < 30s)",
        worst <= 1e-6 and elapsed < 30.0,
    )


def _check_conv(rng, groups):
    n, cpg, spatial = int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(3, 6))
    cin = cout = cpg * groups
    x = rng.standard_normal((n, cin, spatial, spatial))
    w = 0.4 * rng.standard_normal((cout, cpg, 3, 3))
    b = 0.2 * rng.standard_normal(cout)
    t = rng.standard_normal((n, cout, spatial, spatial))

    def loss():
        return float((conv2d_forward(x, w, b, pad=1, groups=groups) * t).sum())

    gx, gw, gb = conv2d_backward(x, w, t, pad=1, groups=groups)
    return max(
        rel_err(finite_diff_grad(loss, x, FD_H), gx),
        rel_err(finite_diff_grad(loss, w, FD_H), gw),
        rel_err(finite_diff_grad(loss, b, FD_H), gb),
    )


def _check_bn(rng):
    n, c, spatial = int(rng.integers(2, 4)), int(rng.integers(1, 4)), int(rng.integers(3, 6))
    x = rng.standard_normal((n, c, spatial, spatial))
    scale = rng.random(c) + 0.5
    shift = rng.standard_normal(c)
    t = rng.standard_normal(x.shape)

    def loss():
        out, _ = layers.batchnorm_forward(x, scale, shift, np.zeros(c), np.ones(c), "train")
        return float((out * t).sum())

    _, cache = layers.batchnorm_forward(x, scale, shift, np.zeros(c), np.ones(c), "train")
    gx, gscale, gshift = layers.batchnorm_backward(t, scale, cache)
    return max(
        rel_err(finite_diff_grad(loss, x, FD_H), gx),
        rel_err(finite_diff_grad(loss, scale, FD_H), gscale),
        rel_err(finite_diff_grad(loss, shift, FD_H), gshift),
    )


def _draw_fire(rng):
    """Draw fire parameters whose ReLU pre-activations clear the FD step."""
    for _ in range(50):
        cin, squeeze, expand = 3, 2, 3
        mk = lambda cout, cin_, k: ConvParams(
            0.5 * rng.standard_normal((cout, cin_, k, k)),
            0.3 * rng.standard_normal(cout),
        )
        sq, e1, e3 = mk(squeeze, cin, 1), mk(expand, squeeze, 1), mk(expand, squeeze, 3)
        spatial = int(rng.integers(3, 6))
        x = rng.standard_normal((1, cin, spatial, spatial))
        s_pre = conv2d_forward(x, sq.weight, sq.bias)
        s = layers.relu(s_pre)
        pre = np.concatenate(
            [
                conv2d_forward(s, e1.weight, e1.bias),
                conv2d_forward(s, e3.weight, e3.bias, pad=1),
            ],
            axis=1,
        )
        if min(np.abs(s_pre).min(), np.abs(pre).min()) > 8 * FD_H:
            block = fire(cin, squeeze, expand, expand)
            return x, block, [[sq, None, [[e1], [e3]], None]]
    raise AssertionError("no kink-safe fire draw found")


def _check_fire(rng):
    x, block, p = _draw_fire(rng)
    out, cache = block_forward(block, p, x)
    t = rng.standard_normal(out.shape)

    def loss():
        o, _ = block_forward(block, p, x)
        return float((o * t).sum())

    gx, grads = block_backward(block, p, cache, t)
    worst = rel_err(finite_diff_grad(loss, x, FD_H), gx)
    for w, gw in zip(block.arrays(p, with_running=False), grads, strict=True):
        worst = max(worst, rel_err(finite_diff_grad(loss, w, FD_H), gw))
    return worst


def _check_pool(rng):
    n, c, spatial = 1, int(rng.integers(1, 3)), int(rng.integers(2, 4)) * 2
    size = n * c * spatial * spatial
    vals = (rng.permutation(size) + 0.5 - size / 2) * 0.01
    x = vals.reshape(n, c, spatial, spatial)
    t = rng.standard_normal((n, c, spatial // 2, spatial // 2))

    def loss():
        out = layers.maxpool2_forward(x)
        return float((out * t).sum())

    gx = layers.maxpool2_backward(t, x)
    return rel_err(finite_diff_grad(loss, x, FD_H), gx)


def _check_shuffle(rng):
    groups = int(rng.choice([2, 3]))
    c = groups * int(rng.integers(1, 3))
    x = rng.standard_normal((1, c, 3, 3))
    t = rng.standard_normal(x.shape)

    def loss():
        return float((layers.channel_shuffle(x, groups) * t).sum())

    gx = layers.channel_shuffle_backward(t, groups)
    return rel_err(finite_diff_grad(loss, x, FD_H), gx)


def _check_sigmoid(rng):
    x = rng.standard_normal((1, 1, int(rng.integers(3, 7)), int(rng.integers(3, 7))))
    t = rng.standard_normal(x.shape)

    def loss():
        return float((layers.sigmoid(x) * t).sum())

    gx = layers.sigmoid_backward(t, layers.sigmoid(x))
    return rel_err(finite_diff_grad(loss, x, FD_H), gx)


def _check_loss_to_optimal(rng):
    s = int(rng.integers(11, 15))
    pred = rng.random((1, 1, s, s))
    target = rng.random((1, 1, s, s))
    _, grad = _batch_loss(pred, target)
    fd = finite_diff_grad(lambda: _batch_loss(pred, target)[0], pred, FD_H)
    return rel_err(fd, grad, floor=1e-7)


def _check_supervised(rng):
    s = int(rng.integers(11, 15))
    pred = rng.random((1, 1, s, s))
    sources = rng.random((1, 2, s, s))
    _, grad = _batch_loss(pred, sources)
    fd = finite_diff_grad(lambda: _batch_loss(pred, sources)[0], pred, FD_H)
    return rel_err(fd, grad, floor=1e-7)


def test_c03_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    checks = {
        "conv ungrouped": lambda: _check_conv(rng, 1),
        "conv grouped": lambda: _check_conv(rng, 2),
        "batchnorm train": lambda: _check_bn(rng),
        "fire": lambda: _check_fire(rng),
        "maxpool": lambda: _check_pool(rng),
        "shuffle": lambda: _check_shuffle(rng),
        "sigmoid": lambda: _check_sigmoid(rng),
        "loss to optimal": lambda: _check_loss_to_optimal(rng),
        "supervised loss": lambda: _check_supervised(rng),
    }
    worst = {}
    for name, fn in checks.items():
        worst[name] = max(fn() for _ in range(20))
    elapsed = time.perf_counter() - t0
    bad = {k: v for k, v in worst.items() if v > GRAD_TOL}
    overall = max(worst.values())
    report(
        3,
        f"gradient suite, 20 shapes/layer, worst rel err {overall:.2e} "
        f"({elapsed:.0f}s < 120s){' BAD: ' + str(bad) if bad else ''}",
        not bad and elapsed < 120.0,
    )


def _random_scores(rng):
    return QualityScores(
        en=float(rng.uniform(0, 8)),
        ag=float(rng.uniform(0, 1)),
        brenner=float(rng.uniform(0, 3)),
        ssim_a=float(rng.uniform(-1, 1)),
        ssim_b=float(rng.uniform(-1, 1)),
        psnr_a=float(rng.uniform(5, 50)),
        psnr_b=float(rng.uniform(5, 50)),
        mi_a=float(rng.uniform(0, 4)),
        mi_b=float(rng.uniform(0, 4)),
        viff=float(rng.uniform(0, 1)),
        niqe=float(rng.uniform(1, 20)),
    )


def _selected(pool):
    cands = [FusionCandidate(f"algo{i:02d}", None, s) for i, s in enumerate(pool)]
    for cand, val in zip(cands, combined_score([c.scores for c in cands])):
        cand.scores = dataclasses.replace(cand.scores, combined=val)
    return min(cands, key=lambda c: (-c.scores.combined, c.algo_id)).algo_id


def dominated_clone(pool, victim, eps=0.01):
    """Copy of ``victim`` degraded on every metric but clamped inside the
    pool's per-column envelope, so it is pointwise-dominated without
    distorting the min-max normalization of the incumbents."""

    def down(field):
        col_min = min(getattr(s, field) for s in pool)
        return getattr(victim, field) - min(eps, getattr(victim, field) - col_min)

    ssim_min = min((s.ssim_a + s.ssim_b) / 2 for s in pool)
    d_ssim = min(eps, (victim.ssim_a + victim.ssim_b) / 2 - ssim_min)
    psnr_min = min((s.psnr_a + s.psnr_b) / 2 for s in pool)
    d_psnr = min(eps, (victim.psnr_a + victim.psnr_b) / 2 - psnr_min)
    mi_min = min(s.mi_a + s.mi_b for s in pool)
    d_mi = min(eps, victim.mi_a + victim.mi_b - mi_min)
    inv_min = min(1.0 / s.niqe for s in pool)
    d_inv = min(eps * inv_min, 1.0 / victim.niqe - inv_min)
    worse_niqe = victim.niqe if d_inv <= 0 else 1.0 / (1.0 / victim.niqe - d_inv)
    return dataclasses.replace(
        victim,
        en=down("en"),
        ag=down("ag"),
        brenner=down("brenner"),
        viff=down("viff"),
        ssim_a=victim.ssim_a - d_ssim,
        ssim_b=victim.ssim_b - d_ssim,
        psnr_a=victim.psnr_a - d_psnr,
        psnr_b=victim.psnr_b - d_psnr,
        mi_a=victim.mi_a - d_mi / 2,
        mi_b=victim.mi_b - d_mi / 2,
        niqe=max(worse_niqe, victim.niqe),
    )


def test_c04_selector_properties():
    rng = np.random.default_rng(4)
    violations = 0
    scalable = ("en", "ag", "brenner", "viff")
    for _ in range(200):
        pool = [_random_scores(rng) for _ in range(int(rng.integers(3, 7)))]
        base = _selected(pool)

        # positive scaling of one raw metric column
        field = scalable[int(rng.integers(0, len(scalable)))]
        factor = float(rng.uniform(0.01, 100.0))
        scaled = [dataclasses.replace(s, **{field: getattr(s, field) * factor}) for s in pool]
        if _selected(scaled) != base:
            violations += 1

        # pointwise-dominated clone must not disturb the selection
        victim = pool[int(rng.integers(0, len(pool)))]
        clone = dominated_clone(pool, victim)
        assert clone.en <= victim.en and clone.niqe >= victim.niqe
        if _selected(pool + [clone]) != base:
            violations += 1

        # deterministic tie-breaking on identical scores
        twin_pool = [pool[0], dataclasses.replace(pool[0])]
        if _selected(twin_pool) != "algo00":
            violations += 1
    report(4, f"selector properties, 200 trials, {violations} violations", violations == 0)


def test_c05_evolution_monotonicity(niqe_model):
    pairs = toy_pairs(n=10, size=96, seed=50)
    cfg = TrainConfig(phases=((0.001, 2),), batch_size=4, patch=32, seed=7)
    spec = builtin_spec("gcb")

    classical = init_bank(pairs, niqe_model)
    history = {p.pair_id: [classical.entries[p.pair_id].scores.combined] for p in pairs}
    params = build_network(spec, cfg.seed)
    bank = init_bank(pairs, niqe_model)
    for round_no in range(1, 4):
        _train_params(params, *_collect_samples(pairs, bank, cfg), cfg)
        for pair in pairs:
            cand = FusionCandidate(f"net{round_no}", net_output_image(params, pair))
            update_bank(bank, pair.pair_id, cand, pair, niqe_model)
        bank.generation += 1
        for pair in pairs:
            history[pair.pair_id].append(bank.entries[pair.pair_id].scores.combined)

    monotone = all(
        all(b >= a - 1e-12 for a, b in zip(seq, seq[1:])) for seq in history.values()
    )
    # rounds=0 must be exactly the classical selection
    from evofuse.training import evolve

    _, bank0 = evolve(spec, pairs, cfg, rounds=0, niqe_model=niqe_model)
    classical_equal = all(
        bank0.entries[pid].algo_id == classical.entries[pid].algo_id
        and np.array_equal(bank0.entries[pid].fused.data, classical.entries[pid].fused.data)
        for pid in classical.entries
    )
    report(
        5,
        f"evolution monotone over 3 rounds on 10 pairs (gen={bank.generation}), "
        f"rounds=0 equals classical: {classical_equal}",
        monotone and classical_equal and bank.generation == 3,
    )


def test_c06_training_descent(niqe_model):
    t0 = time.perf_counter()
    pairs = toy_pairs(n=10, size=96, seed=5)
    bank = init_bank(pairs, niqe_model)
    cfg = TrainConfig(phases=((0.001, 10),), batch_size=4, patch=32, seed=42)
    _, curve = train("gcb", pairs, bank, cfg)
    elapsed = time.perf_counter() - t0
    first, last = curve[0].mean_loss, curve[-1].mean_loss
    report(
        6,
        f"phase-1 descent: epoch1 {first:.4f} -> epoch10 {last:.4f} "
        f"(ratio {last / first:.3f} < 0.5, {elapsed:.0f}s < 300s)",
        len(curve) == 10 and last < 0.5 * first and elapsed < 300.0,
    )


def test_c07_cost_model(tmp_path):
    def conv_p(cin, cout, k, g=1):
        return cout * (cin // g) * k * k + cout

    fire = conv_p(64, 16, 1) + conv_p(16, 32, 1) + conv_p(16, 32, 3)
    gc = conv_p(64, 64, 3, 8)
    middles = {
        "regular": conv_p(64, 64, 3) + 128,
        "gcb": gc + 128,
        "separable": (64 * 9 + 64) + (64 * 64 + 64) + 128,
        "squeeze": fire + 128,
        "inception": conv_p(64, 16, 1) + conv_p(64, 32, 3) + conv_p(64, 16, 5) + 128,
        "gcb_inception": conv_p(64, 16, 1, 8) + conv_p(64, 32, 3, 8) + conv_p(64, 16, 5, 8) + 128,
        "squeeze_gcb": fire + 128 + gc + 128,
        "squeeze2_gcb": 2 * (fire + 128) + gc + 128,
        "m": (
            conv_p(64, 64, 3) + 128 + conv_p(64, 64, 3) + 128 + fire + 128
            + conv_p(128, 64, 3) + 128 + conv_p(128, 64, 3) + 128
        ),
    }
    exact = all(
        count_state(builtin_spec(name))[0]
        == conv_p(2, 64, 3) + 128 + middles[name] + conv_p(64, 1, 3)
        for name in BUILTIN_NAMES
    )
    c1 = conv_p(6, 64, 3) == 3520 and builtin_spec("gcb", in_channels=6).alpha[0].cin == 6

    sizes = {}
    for name in BUILTIN_NAMES:
        if builtin_spec(name).spatial_multiple > 1:
            continue
        path = tmp_path / f"{name}.aenw"
        save_weights(build_network(name, seed=0), path)
        sizes[name] = path.stat().st_size
    smallest = min(sizes, key=sizes.get) == "gcb"

    gcb_count = count_state(builtin_spec("gcb"))[0]
    within_2x = 5378 / 2 <= gcb_count <= 2 * 5378
    report(
        7,
        f"cost model: analytic counts exact={exact}, C1(6ch)=3520={c1}, "
        f"gcb file smallest={smallest} ({sizes['gcb']} B), "
        f"gcb params {gcb_count} within 2x of 5378={within_2x}",
        exact and c1 and smallest and within_2x,
    )


def test_c08_pyramid_roundtrip():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(20):
        a = rng.random((64, 64))
        details, base = laplacian_decompose(a, 4)
        worst = max(worst, float(np.max(np.abs(laplacian_reconstruct(details, base) - a))))
    report(8, f"pyramid decompose/reconstruct, 20 images, max err {worst:.2e}", worst < 1e-6)


def test_c09_commonness_identities():
    rng = np.random.default_rng(9)
    common = build_network("gcb", seed=90)
    pair = ImagePair(
        ImageGray(rng.random((32, 32))), ImageGray(rng.random((32, 32))), "c9", Task.CVS
    )

    tw = make_task_weights(common, "t", beta_mix=1.0)
    identical = np.array_equal(task_forward(tw, pair, "t"), net_forward(common, pair, "eval"))

    tw0 = make_task_weights(common, "t", beta_mix=0.0)
    other = ImagePair(
        ImageGray(rng.random((32, 32))), ImageGray(rng.random((32, 32))), "c9b", Task.CVS
    )
    input_blind = np.array_equal(task_forward(tw0, pair, "t"), task_forward(tw0, other, "t"))
    report(
        9,
        f"task-head identities: beta=1 bit-identical={identical}, "
        f"beta=0 input-blind={input_blind}",
        identical and input_blind,
    )


def test_c10_bench_protocol(tmp_path):
    ticks = {"n": 0.0}

    def fake_clock():
        ticks["n"] += 1.0
        return ticks["n"]

    protocol = BenchProtocol(image_size=16, trials=5)
    rep = time_method("avg", protocol, clock=fake_clock)
    protocol_ok = rep.timed_runs == protocol.trials - WARMUP_SKIP
    mean_ok = rep.latency_ms_mean == 1000.0 and rep.latency_ms_std == 0.0

    small = BenchProtocol(image_size=32, trials=2, seed=11)
    csv1, _ = run_benchmark(["avg", "lp"], small, tmp_path / "r1")
    csv2, _ = run_benchmark(["avg", "lp"], small, tmp_path / "r2")

    def stable(path):
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        return [(r[0], r[1], r[3], r[4], r[5]) for r in rows]

    deterministic = stable(csv1) == stable(csv2)
    report(
        10,
        f"bench protocol: first trial excluded, exactly {rep.timed_runs} runs averaged, "
        f"non-latency columns bit-identical={deterministic}",
        protocol_ok and mean_ok and deterministic,
    )


def test_c11_end_to_end_smoke(niqe_model):
    pair = split_focus_pair(size=128, seed=111)
    scored = evaluate_candidates(pair, run_bank(pair), niqe_model)
    best = select_optimal(scored)
    avg_combined = next(c.scores.combined for c in scored if c.algo_id == "avg")
    ag_fused = avg_gradient(best.fused)
    ag_a, ag_b = avg_gradient(pair.a), avg_gradient(pair.b)
    report(
        11,
        f"smoke: selected {best.algo_id} combined {best.scores.combined:.3f} > "
        f"avg {avg_combined:.3f}; AG fused {ag_fused:.4f} > sources "
        f"({ag_a:.4f}, {ag_b:.4f})",
        best.scores.combined > avg_combined and ag_fused > ag_a and ag_fused > ag_b,
    )
