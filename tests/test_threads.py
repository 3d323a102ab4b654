"""The split tap and batch-norm loops, the OpenBLAS pin around every
network call, candidate scoring's two task lists on the shared pool, and
the tap loop's in-place products (``layers._gemm_into``: one dgemm with
beta = 1 per matrix).

Split against unsplit must give the same bits; the pin must leave the
OpenBLAS thread count as it found it, whatever the call does, and with the
pin in place the seeded bits must not depend on OPENBLAS_NUM_THREADS; nor
may candidate scores or an evolve round's bank, and scoring must end both
lists before it raises. Every product the in-place route takes must give
the bits of ``out += tap @ view``, and every product it declines must leave
the output as it was. The bit checks run in child interpreters with
OPENBLAS_NUM_THREADS set before NumPy loads.
"""

import functools
import json
import os
import subprocess
import sys
import threading
import time
import types
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from evofuse import evolution, threads
from evofuse.errors import DimensionError
from evofuse.evolution import evaluate_candidates, score_pool
from evofuse.fusion import run_bank
from evofuse.net import layers
from evofuse.net.arch import BUILTIN_NAMES
from evofuse.net.network import build_network, net_forward
from evofuse.synth import toy_pairs
from evofuse.training import TrainConfig, train

from conftest import random_pair

ROOT = Path(__file__).resolve().parents[1]

needs_pin = pytest.mark.skipif(layers._openblas()[0] is None,
                               reason="NumPy's OpenBLAS has no thread-count symbol to pin")
needs_gemm = pytest.mark.skipif(layers._openblas()[1] is None, reason="NumPy's OpenBLAS has no dgemm symbol")
needs_two_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                                    reason="a split needs two CPUs this process may use")


def blas_threads():
    return layers._openblas()[0][0]()


@pytest.fixture
def blas_at_two():
    """OpenBLAS at 2 threads for the test, then as it was."""
    get, put = layers._openblas()[0]
    before = get()
    put(2)
    yield
    put(before)


@contextmanager
def workers(w):
    """A pinned region with w split workers."""
    with layers.blas_pinned():
        layers._local.workers = w
        yield


@pytest.fixture
def split_counts(monkeypatch):
    """The piece count of each split call."""
    counts, real = [], layers._split

    def spy(fn, *args):
        pieces = []

        def counted(*piece):
            pieces.append(piece)
            return fn(*piece)

        results = real(counted, *args)
        counts.append(len(pieces))
        return results

    monkeypatch.setattr(layers, "_split", spy)
    return counts


@pytest.fixture
def tiny_splits(monkeypatch, split_counts):
    """Every loop splits, and tap loops run column blocks of 13: 55 columns
    (5 rows of 11) split on multiples of 8 or on block bounds, mid-row, and
    end mid-tile."""
    monkeypatch.setattr(layers, "_SPLIT_MIN", 1)
    monkeypatch.setattr(layers, "_block_cols", lambda *args: 13)
    return split_counts


@pytest.fixture
def backwards(monkeypatch):
    """Splits run their pieces last first, in this thread."""
    real = layers._split

    def split(fn, *args):
        pieces = []
        real(lambda *piece: pieces.append(piece), *args)
        results = {piece: fn(*piece) for piece in sorted(pieces, reverse=True)}
        return [results[piece] for piece in sorted(pieces)]

    def use():
        monkeypatch.setattr(layers, "_split", split)

    return use


def conv_case(rng, groups, k, cin=4, cout=6, n=2):
    g = layers.Grid(5, 9, 1)
    x, gy = g.zeros(n, cin), g.zeros(n, cout)
    g.inner(x)[...] = rng.standard_normal((n, cin, g.h, g.w))
    g.inner(gy)[...] = rng.standard_normal((n, cout, g.h, g.w))
    return g, x, gy, rng.standard_normal((cout, cin // groups, k, k)), rng.standard_normal(cout)


@pytest.mark.parametrize("stack_below", [0, 1 << 30])
@pytest.mark.parametrize("groups, k", [(1, 3), (2, 3), (2, 1)])
def test_split_conv_equals_unsplit(rng, monkeypatch, tiny_splits, backwards, stack_below, groups, k):
    monkeypatch.setattr(layers, "_STACK_BELOW", stack_below)
    g, x, gy, weight, bias = conv_case(rng, groups, k)
    assert g.h * g.wp == 55
    results = []
    for w in (1, 2, 2):  # the last run runs the later piece first
        if len(results) == 2:
            backwards()
        with workers(w):
            out = layers._conv(x, weight, bias, g, 1, groups, True, True, g.zeros(2, 6))
            both = layers._conv_backward(x, gy, weight, g, 1, groups, True, True)
            alone = layers._conv_backward(x, gy, weight, g, 1, groups, True, False)
        results.append([out, *both, *alone[1:]])
    assert tiny_splits[:3] == [1, 1, 1] and min(tiny_splits[3:]) > 1
    for one, *splits in zip(*results):
        for split in splits:
            np.testing.assert_array_equal(split, one)


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_split_batchnorm_equals_unsplit(rng, tiny_splits, mode):
    n, c = 2, 3
    g = layers.Grid(5, 9, 1)
    x, gy = g.zeros(n, c), g.zeros(n, c)
    g.inner(x)[...] = rng.standard_normal((n, c, g.h, g.w))
    g.inner(gy)[...] = rng.standard_normal((n, c, g.h, g.w))
    scale, shift, start = rng.random(c) + 0.5, rng.standard_normal(c), rng.random((2, c))
    results = []
    for w in (1, 2):
        running = start.copy()
        with workers(w):
            out, cache = layers.batchnorm_forward(x, scale, shift, *running, mode, None, g)
            grads = layers.batchnorm_backward(gy, scale, cache)
        results.append([out, *running, *grads])
    assert tiny_splits[:2] == [1, 1] and min(tiny_splits[2:]) > 1
    for one, split in zip(*results):
        np.testing.assert_array_equal(split, one)


@needs_pin
def test_network_calls_run_blas_at_one_thread_and_restore_it(monkeypatch, blas_at_two):
    seen, real = [], layers._tap_products

    def spy(*args):
        seen.append(blas_threads())
        return real(*args)

    monkeypatch.setattr(layers, "_tap_products", spy)
    params = build_network("gcb", seed=0)
    net_forward(params, np.random.default_rng(1).random((1, 2, 64, 64)))
    assert blas_threads() == 2
    train("gcb", [random_pair(np.random.default_rng(2), 32, 32)], None,
          TrainConfig(phases=((1e-3, 1),), batch_size=1, patch=32, loss_kind="supervised"))
    assert blas_threads() == 2
    assert seen and set(seen) == {1}


@needs_pin
@needs_two_cpus
@pytest.mark.parametrize("where", ["worker", "caller"])
def test_a_piece_that_raises_leaves_blas_and_workers_as_they_were(monkeypatch, blas_at_two, where):
    real, ended = layers._tap_products, []

    def fail_in_one(*args):
        if (threading.current_thread() is threading.main_thread()) == (where == "caller"):
            raise FloatingPointError(f"injected in the {where}")
        time.sleep(0.01)  # the other piece ends after the raise
        real(*args)
        ended.append(blas_threads())

    monkeypatch.setattr(layers, "_tap_products", fail_in_one)
    params = build_network("gcb", seed=0)
    with pytest.raises(FloatingPointError, match=f"injected in the {where}"):
        net_forward(params, np.random.default_rng(1).random((1, 2, 64, 64)))
    # the call returned only after the other piece had ended, still pinned
    assert ended and set(ended) == {1}
    assert blas_threads() == 2
    assert getattr(layers._local, "workers", 1) == 1


@pytest.fixture
def no_pin_symbol(monkeypatch):
    """Every library loads as one without the OpenBLAS thread-count symbols."""
    monkeypatch.setattr(threads.ctypes, "CDLL", lambda path: object())
    monkeypatch.setattr(threads, "_POOL", None)
    threads._openblas.cache_clear()
    yield
    threads._openblas.cache_clear()


def test_missing_pin_symbol_runs_unsplit_without_a_pool(no_pin_symbol, split_counts):
    assert threads._openblas() == (None, None)
    params = build_network("gcb", seed=0)
    net_forward(params, np.random.default_rng(1).random((1, 2, 64, 64)))  # spans of 4,224 columns
    assert split_counts and set(split_counts) == {1}
    assert threads._POOL is None


@pytest.fixture
def blas_at_one():
    """OpenBLAS at 1 thread for the test, then as it was."""
    get, put = threads._openblas()[0]
    before = get()
    put(1)
    yield
    put(before)


def score_toy_pool(niqe_model):
    pair = toy_pairs(n=1, size=96, seed=21)[0]
    return evaluate_candidates(pair, run_bank(pair), niqe_model)


@pytest.mark.parametrize("one_worker", [pytest.param("blas_at_one", marks=needs_pin), "no_pin_symbol"])
def test_one_worker_scores_in_this_thread_without_a_pool(request, monkeypatch, niqe_model, one_worker):
    request.getfixturevalue(one_worker)
    monkeypatch.setattr(threads, "_POOL", None)
    seen, real = [], evolution.niqe_score
    monkeypatch.setattr(evolution, "niqe_score", lambda *args: seen.append(threading.current_thread()) or real(*args))
    assert len(score_toy_pool(niqe_model)) == 5
    assert seen and set(seen) == {threading.main_thread()}
    assert threads._POOL is None


@needs_pin
def test_caller_threads_score_on_the_shared_pool(blas_at_two, niqe_model):
    # more callers than cores, each putting its list on the one pool beside
    # the others' and beside a network's split pieces
    want = [c.scores for c in score_toy_pool(niqe_model)]
    params, x = build_network("gcb", seed=0), np.random.default_rng(1).random((1, 2, 64, 64))
    net_want = net_forward(params, x)
    got, errors = [], []

    def call(k):
        try:
            for _ in range(3):
                got.append(net_forward(params, x) if k == 0 else [c.scores for c in score_toy_pool(niqe_model)])
        except Exception as exc:  # reported by the main thread's assertion
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(k,)) for k in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers) and not errors
    assert len(got) == 12
    for out in got:
        if isinstance(out, np.ndarray):
            np.testing.assert_array_equal(out, net_want)
        else:
            assert out == want


@needs_pin
@needs_two_cpus
def test_a_pool_family_that_raises_waits_for_the_callers_families(monkeypatch, blas_at_two, niqe_model):
    ended, raised_in, real = [], [], evolution.viff_pool

    def slow_viff(*args):
        time.sleep(0.05)  # the pool's family raises first
        out = real(*args)
        ended.append("viff")
        return out

    def failing_niqe(*args):
        raised_in.append(threading.current_thread())
        raise FloatingPointError("injected in NIQE")

    monkeypatch.setattr(evolution, "viff_pool", slow_viff)
    monkeypatch.setattr(evolution, "niqe_score", failing_niqe)
    with pytest.raises(FloatingPointError, match="injected in NIQE"):
        score_toy_pool(niqe_model)
    assert len(raised_in) == 1 and raised_in[0] is not threading.main_thread()
    assert ended == ["viff"]


@needs_pin
@needs_two_cpus
def test_the_callers_error_wins_over_the_pools(monkeypatch, blas_at_two, niqe_model):
    failed, real = [], evolution.niqe_score

    def spy(*args):
        time.sleep(0.05)  # the caller's family raises first
        try:
            return real(*args)
        except DimensionError as exc:
            failed.append((threading.current_thread(), str(exc)))
            raise

    monkeypatch.setattr(evolution, "niqe_score", spy)
    pair = random_pair(np.random.default_rng(3), 24, 24)
    with pytest.raises(DimensionError) as caught:
        score_pool(pair, [pair.a, pair.b], niqe_model)
    # VIFF's error, which the serial order meets first, though NIQE failed too
    assert str(caught.value) == "viff needs dims >= 32 for 4 scales, got (24, 24)"
    assert [(t is threading.main_thread(), msg) for t, msg in failed] == [(False, "image 24x24 smaller than 96x96 patch")]


@pytest.fixture
def only_symbols(monkeypatch):
    """load(*features) makes every library load as NumPy's OpenBLAS with only
    the symbols of those features ("threads", "gemm"); returns the (m, n, k)
    of each dgemm call."""
    (get, put), gemm = layers._openblas()
    calls = []
    symbols = {"threads": {"scipy_openblas_get_num_threads64_": get, "scipy_openblas_set_num_threads64_": put},
               "gemm": {"scipy_cblas_dgemm64_": lambda *args: calls.append(args[3:6]) or gemm(*args)}}

    def load(*features):
        lib = types.SimpleNamespace(**{k: v for f in features for k, v in symbols[f].items()})
        monkeypatch.setattr(threads.ctypes, "CDLL", lambda path: lib)
        threads._openblas.cache_clear()
        return calls

    yield load
    threads._openblas.cache_clear()


def forwards(x):
    return [net_forward(build_network(name, seed=0), x) for name in ("regular", "m", "gcb")]


@needs_pin
@needs_gemm
def test_thread_symbols_without_dgemm_still_pin_and_keep_the_bits(only_symbols, blas_at_two):
    x = np.random.default_rng(1).random((1, 2, 64, 64))
    want = forwards(x)
    assert only_symbols("threads") == [] and layers._openblas()[1] is None
    with layers.blas_pinned():
        assert blas_threads() == 1
    assert blas_threads() == 2
    for got, one in zip(forwards(x), want):
        np.testing.assert_array_equal(got, one)


@needs_pin
@needs_gemm
def test_dgemm_without_thread_symbols_adds_in_place_and_keeps_the_bits(only_symbols, split_counts):
    x = np.random.default_rng(1).random((1, 2, 64, 64))
    want = forwards(x)
    calls = only_symbols("gemm")
    split_counts.clear()  # want's calls split
    assert layers._openblas()[0] is None
    for got, one in zip(forwards(x), want):
        np.testing.assert_array_equal(got, one)
    assert (64, 4224, 64) in calls  # regular's 64 -> 64 convs, each span in one block
    assert split_counts and set(split_counts) == {1}  # no pin, so no split


@needs_pin
def test_caller_threads_restore_the_count(monkeypatch, blas_at_two):
    # more callers than cores; a caller that pinned or restored the count
    # inside another's call would show in seen or in the final count
    seen, real = [], layers._tap_products

    def spy(*args):
        seen.append(blas_threads())
        return real(*args)

    params = build_network("gcb", seed=0)
    x = np.random.default_rng(1).random((1, 2, 64, 64))
    want = net_forward(params, x)
    monkeypatch.setattr(layers, "_tap_products", spy)
    got, errors = [], []

    def call():
        try:
            for _ in range(5):
                got.append(net_forward(params, x))
        except Exception as exc:  # reported by the main thread's assertion
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers) and not errors
    assert blas_threads() == 2
    assert set(seen) == {1}
    assert len(got) == 20
    for out in got:
        np.testing.assert_array_equal(out, want)


def run_child(script, threads, *args):
    """The JSON of the last line a child interpreter prints running script with
    args, OpenBLAS at threads threads."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


DIGESTS = """
import hashlib, json, sys
import numpy as np
from evofuse.net import layers
from evofuse.net.arch import BUILTIN_NAMES
from evofuse.net.network import build_network, net_backward, net_forward, net_forward_cached

if sys.argv[1] == "numpy":  # every tap loop adds its later products as out += tap @ view
    layers._gemm_into = lambda *args: False
x = np.random.default_rng(7).random((2, 2, 64, 64))
digests = {}
for name in BUILTIN_NAMES:
    params = build_network(name, seed=0)
    out, cache = net_forward_cached(params, x, "train")
    grads, gx = net_backward(params, cache, np.random.default_rng(9).standard_normal(out.shape))
    h = hashlib.sha256()
    for a in [net_forward(params, x), out, gx, *grads]:
        h.update(np.ascontiguousarray(a).tobytes())
    digests[name] = h.hexdigest()
print(json.dumps(digests))
"""


@functools.cache
def digests(threads, route="gemm"):
    """SHA-256 of every built-in's eval and train forward and backward."""
    return run_child(DIGESTS, threads, route)


@needs_pin
def test_bits_do_not_depend_on_blas_threads():
    # at 2x2x64x64 the tap loops span 4,224 columns, so at 2 threads they split
    runs = {threads: digests(threads) for threads in ("1", "2")}
    assert sorted(runs["1"]) == sorted(BUILTIN_NAMES) and len(BUILTIN_NAMES) == 9
    assert [n for n in BUILTIN_NAMES if runs["1"][n] != runs["2"][n]] == []


SCORES = """
import dataclasses, hashlib, json
from evofuse.evolution import evaluate_candidates
from evofuse.fusion import run_bank
from evofuse.niqe import default_niqe_model
from evofuse.synth import toy_pairs
from evofuse.threads import _workers
from evofuse.training import TrainConfig, evolve

model = default_niqe_model()
pair = toy_pairs(n=1, size=128, seed=11)[0]
scores = [dataclasses.asdict(c.scores) for c in evaluate_candidates(pair, run_bank(pair), model)]
cfg = TrainConfig(phases=((1e-3, 1),), batch_size=2, patch=48, seed=3)
_, bank = evolve("gcb", toy_pairs(n=2, size=96, seed=12), cfg, 1, model)
entries = {pair_id: [e.algo_id, e.scores.combined, hashlib.sha256(e.fused.data.tobytes()).hexdigest()]
           for pair_id, e in bank.entries.items()}
print(json.dumps({"workers": _workers(), "scores": scores, "bank": entries}))
"""


@needs_pin
def test_scores_and_an_evolve_round_do_not_depend_on_blas_threads():
    # a 5-candidate pool with NIQE, then init_bank, one epoch of gcb and update_bank
    one, two = (run_child(SCORES, n) for n in ("1", "2"))
    assert one["workers"] == 1 and two["workers"] == min(2, len(os.sched_getaffinity(0)))
    assert len(one["scores"]) == 5 and None not in [s["niqe"] for s in one["scores"]]
    assert two["scores"] == one["scores"]
    assert len(one["bank"]) == 2 and two["bank"] == one["bank"]


@needs_gemm
@pytest.mark.parametrize("threads", ["1", "2"])
def test_builtins_give_the_numpy_lines_bits(threads):
    gemm, numpy = digests(threads), digests(threads, "numpy")
    assert sorted(gemm) == sorted(BUILTIN_NAMES)
    assert [name for name in BUILTIN_NAMES if gemm[name] != numpy[name]] == []


PRODUCTS = """
import json
import numpy as np
from evofuse.net import layers

rng = np.random.default_rng(3)
cap, results = layers._GEMM_K, []


def case(name, m, k, cols, n=1, groups=1, shuffled=False, taps=3):
    # tap t reads the source at offset 5 * t; the destination is columns
    # [7, 7 + cols) of a buffer of n samples, groups * m channels
    weights = rng.standard_normal((taps, groups, m, k))
    src = layers._grouped(rng.standard_normal((n, groups * k, cols + 5 * taps)), groups)
    views = [src[..., 5 * t : 5 * t + cols] for t in range(taps)]
    buf = rng.standard_normal((n, groups * m, cols + 11))
    out = layers._grouped(buf, groups, shuffled)[..., 7 : 7 + cols]
    want = buf.copy()
    block = layers._grouped(want, groups, shuffled)[..., 7 : 7 + cols]
    for tap, view in zip(weights, views):
        block += tap @ view
    before = buf.copy()
    took = layers._gemm_into(weights, views, out)
    equal = bool(np.array_equal(buf, want if took else before))
    results.append([name, took, equal])


for m in (2, 8, 64):
    for k in sorted({32, 64, 128, cap}):
        for cols in (8, 13, 4101):  # 13 and 4,101 end mid-tile
            case(f"m{m} k{k} cols{cols}", m, k, cols)
case("k above the cap", 8, cap + 1, 64)
case("one row", 1, 64, 64)
case("shuffled grouped batch of 2", 16, 64, 1003, n=2, groups=2, shuffled=True)
case("grouped batch of 2", 16, 64, 1003, n=2, groups=2)
print(json.dumps(results))
"""


@needs_gemm
@pytest.mark.parametrize("threads", ["1", "2"])
def test_in_place_products_give_numpys_bits(threads):
    results = run_child(PRODUCTS, threads)
    assert len(results) == 3 * len({32, 64, 128, layers._GEMM_K}) * 3 + 4
    declined = [name for name, took, _ in results if not took]
    assert declined == ["k above the cap", "one row"]
    assert [name for name, _, equal in results if not equal] == []


@needs_gemm
@pytest.mark.parametrize("bad", ["inner dimension", "output rows", "strided columns", "transposed output"])
def test_operands_blas_cannot_take_are_declined(bad):
    taps, src, out = np.ones((2, 1, 4, 8)), np.ones((1, 1, 9, 40)), np.zeros((1, 1, 4, 16))
    views = [src[..., :8, t : t + 16] for t in range(2)]
    if bad == "inner dimension":
        views = [src[..., t : t + 16] for t in range(2)]
    elif bad == "output rows":
        out = np.zeros((1, 1, 5, 16))
    elif bad == "strided columns":
        views = [src[..., :8, t : t + 32 : 2] for t in range(2)]
    else:
        out = np.zeros((1, 1, 16, 4)).swapaxes(-1, -2)
    before = out.copy()
    assert not layers._gemm_into(taps, views, out)
    np.testing.assert_array_equal(out, before)
