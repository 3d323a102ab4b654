"""Random arch files against the block-by-block replays.

Each example writes arch-file text in the grammar of ``parse_arch_file``:
``conv`` (k 1, 3 or 5, groups, stride 2), ``shuffle``, ``bn``, ``relu``,
``pool``, ``up``, ``cat``, ``sep``, ``fire`` and ``incep``, with 1 to 12
channels per block argument, batch 1 or 2 and sides 3 to 12 (odd ones
included; a pool is only drawn on even sides), residual specs among them.
On a handful of values per channel, the bias gradient ahead of a train BN
(zero up to rounding) is rounding noise scaled by the BN's 1 / sigma and
can exceed the train bound; sides of 3 or more keep such noise below it.
A valid spec must give:

- an eval ``net_forward`` equal to ``eval_replay``, with random BN
  statistics, and within 1e-10 of the unfolded eval pass;
- train outputs, gradients (with and without the input gradient) and running
  statistics within 1e-12 of the largest reference magnitude of the network
  (``train_replay``); entry-wise relative checks flag cancellation in
  entries near zero, so the bound is per network;
- the same bytes from save_weights -> load_weights -> save_weights;
- ``count_state`` equal to the sizes of the trainable and the other state
  arrays, and ``count_flops`` equal to 2 x the MACs of the convs that
  ``eval_replay`` runs (weight size x output pixels per image).

About one draw in six is made invalid (a wrong input channel count, groups
that do not divide the channels, or a cat onto an output of another size)
and must raise SpecError or DimensionError, nothing else.
"""

import copy

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evofuse.errors import DimensionError, SpecError
from evofuse.net.arch import count_flops, count_state, parse_arch_file
from evofuse.net.network import (
    build_network,
    load_weights,
    net_backward,
    net_forward,
    net_forward_cached,
    save_weights,
    state_arrays,
    trainable_arrays,
)

import oracles
from oracles import eval_replay, train_replay
from test_network import randomize_bn

BOUND = 1e-12
MAX_C = 12


def divisors(c):
    return [g for g in range(1, c + 1) if c % g == 0]


@st.composite
def arch_cases(draw):
    """(arch text, input shape, seed, bad): bad names the defect drawn, or None."""
    cin = draw(st.integers(1, 3))
    h, w = (2 * draw(st.integers(2, 6)) - draw(st.integers(0, 1)) for _ in range(2))
    shape = (draw(st.integers(1, 2)), cin, h, w)
    residual = draw(st.booleans())
    lines = [f"in_channels {cin}", f"residual {int(residual)}"]
    # per stage: (line index, output channels, output size) of each block
    stage_outs = {}
    c, hw = cin, shape[2:]

    def block(c, hw, outs, keep_size):
        """One or more (line, channels, size) entries."""
        h, w = hw
        kinds = ["conv", "conv", "shuffle", "bn", "relu", "sep", "fire", "incep", "skip"]
        if not keep_size:
            kinds += ["stride"]
            kinds += ["pool"] if h % 2 == 0 and w % 2 == 0 else []
            kinds += ["up"] if h * w <= 36 else []
        same = [i for i, (_, oc, ohw) in enumerate(outs) if ohw == hw and c + oc <= 2 * MAX_C]
        kinds += ["cat"] * 4 if same else []
        kind = draw(st.sampled_from(kinds))
        if kind in ("conv", "stride"):
            g = draw(st.sampled_from([d for d in divisors(c) if d <= MAX_C]))
            cout = g * draw(st.integers(1, MAX_C // g))
            k = draw(st.sampled_from([1, 3, 5]))
            stride = 2 if kind == "stride" else 1
            hw = ((h - 1) // stride + 1, (w - 1) // stride + 1)
            return [(f"conv {c} {cout} {k} {g} {stride}", cout, hw)]
        if kind == "shuffle":
            return [(f"shuffle {draw(st.sampled_from(divisors(c)))}", c, hw)]
        if kind == "bn":
            return [(f"bn {c}", c, hw)]
        if kind in ("relu", "pool", "up"):
            scale = {"relu": (1, 1), "pool": (1, 2), "up": (2, 1)}[kind]
            return [(kind, c, (h * scale[0] // scale[1], w * scale[0] // scale[1]))]
        if kind == "sep":
            cout = draw(st.integers(1, MAX_C))
            return [(f"sep {c} {cout} {draw(st.sampled_from([1, 3, 5]))}", cout, hw)]
        if kind == "fire":
            e1, e3 = draw(st.integers(1, MAX_C // 2)), draw(st.integers(1, MAX_C // 2))
            return [(f"fire {c} {draw(st.integers(1, e1 + e3 - 1))} {e1} {e3}", e1 + e3, hw)]
        if kind == "incep":
            g = draw(st.sampled_from([d for d in divisors(c) if d <= MAX_C // 3]))
            widths = [g * draw(st.integers(1, MAX_C // (3 * g))) for _ in range(3)]
            return [(f"incep {c} {widths[0]} {widths[1]} {widths[2]} {g}", sum(widths), hw)]
        if kind == "skip":
            # a conv whose output a cat reads past the block after it: the
            # fused epilogue and BN folding must stop at the cat's source
            g = draw(st.sampled_from([d for d in divisors(c) if d <= MAX_C // 2]))
            cout = g * draw(st.integers(1, MAX_C // (2 * g)))
            k = draw(st.sampled_from([1, 3, 3, 5]))
            after = draw(st.sampled_from(["relu", f"shuffle {g}", f"bn {cout}"]))
            return [(f"conv {c} {cout} {k} {g}", cout, hw), (after, cout, hw),
                    (f"cat {len(outs)}", 2 * cout, hw)]
        src = draw(st.sampled_from(same))
        return [(f"cat {src}", c + outs[src][1], hw)]

    def stage(name, c, hw, count, keep_size):
        lines.append(f"stage {name}")
        outs = stage_outs[name] = []
        for _ in range(count):
            for line, c, hw in block(c, hw, outs, keep_size):
                outs.append((len(lines), c, hw))
                lines.append(line)
        return c, hw

    c, hw = stage("alpha", c, hw, draw(st.integers(1, 4)), False)
    alpha_c = c
    c, hw = stage("beta", c, hw, draw(st.integers(0, 5)), residual)
    if residual and c != alpha_c:
        stage_outs["beta"].append((len(lines), alpha_c, hw))
        lines.append(f"conv {c} {alpha_c} 1")
        c = alpha_c
    c, hw = stage("gamma", c, hw, draw(st.integers(0, 3)), False)
    out_c = draw(st.integers(1, 2))
    lines.append(f"conv {c} {out_c} {draw(st.sampled_from([1, 3, 5]))}")
    lines.append(f"out_channels {out_c}")

    bad = draw(st.sampled_from([None] * 5 + ["cin", "groups", "cat"]))
    outs = [o for name in ("alpha", "beta", "gamma") for o in stage_outs[name]]
    if bad == "cin":
        at = draw(st.sampled_from([i for i, _, _ in outs if lines[i].split()[0] in
                                   ("conv", "bn", "sep", "fire", "incep")] + [len(lines) - 2]))
        op, first, *rest = lines[at].split()
        lines[at] = " ".join([op, str(int(first) + 1), *rest])
    elif bad == "groups":
        at = len(lines) - 2  # gamma's last conv: groups above its cin divide nothing
        op, cin_, cout, k = lines[at].split()
        lines[at] = f"{op} {cin_} {cout} {k} {int(cin_) + 1}"
    elif bad == "cat":
        # append to a stage a cat onto one of its outputs of another size,
        # then a 1x1 conv back to the channel count the next line expects
        picks = [(name, j, i) for name in ("alpha", "gamma") for j, (i, oc, ohw) in
                 enumerate(stage_outs[name]) if ohw != stage_outs[name][-1][2]]
        if not picks:
            bad = None
        else:
            name, j, _ = draw(st.sampled_from(picks))
            at, last_c, _ = stage_outs[name][-1]
            cat_c = last_c + stage_outs[name][j][1]
            lines[at + 1 : at + 1] = [f"cat {j}", f"conv {cat_c} {last_c} 1"]
    return "\n".join(lines) + "\n", shape, draw(st.integers(0, 2**16)), bad


def worst(got, want):
    """max |a - b| and max |b| over pairs of arrays."""
    return (max(float(np.abs(a - b).max(initial=0.0)) for a, b in zip(got, want, strict=True)),
            max(float(np.abs(b).max(initial=0.0)) for b in want))


def test_random_specs_match_replays(tmp_path_factory, monkeypatch):
    root = tmp_path_factory.mktemp("specs")
    conv, conv_macs = oracles.conv2d_forward, []

    def counting_conv(x, weight, *args):
        y = conv(x, weight, *args)
        conv_macs.append(weight.size * y.shape[2] * y.shape[3])
        return y

    monkeypatch.setattr(oracles, "conv2d_forward", counting_conv)

    @settings(max_examples=600, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(arch_cases())
    def check(case):
        text, shape, seed, bad = case
        (root / "f.arch").write_text(text)
        rng = np.random.default_rng(seed)
        x = rng.random(shape)
        if bad is not None:
            try:
                net_forward(build_network(parse_arch_file(root / "f.arch")), x)
            except (SpecError, DimensionError):
                return
            raise AssertionError(f"{bad} draw ran:\n{text}")
        spec = parse_arch_file(root / "f.arch")
        params = build_network(spec, seed=seed)
        randomize_bn(params, seed)
        got = net_forward(params, x)
        conv_macs.clear()
        assert np.array_equal(got, eval_replay(params, x)), text
        assert count_flops(spec, *shape[2:]) == 2 * sum(conv_macs), text
        trainable = sum(a.size for a in trainable_arrays(params))
        assert count_state(spec) == (trainable, sum(a.size for a in state_arrays(params)) - trainable), text
        # the replay folds BNs as inference does; the unfolded eval pass does not
        unfolded = net_forward_cached(params, x, mode="eval")[0]
        assert np.abs(got - unfolded).max() <= 1e-10, text

        twin, lean = copy.deepcopy(params), copy.deepcopy(params)
        out, cache = net_forward_cached(params, x, mode="train")
        grad_out = rng.standard_normal(out.shape)
        grads, gx = net_backward(params, cache, grad_out)
        want_out, want_grads, want_gx = train_replay(twin, x, grad_out)
        lean_grads, _ = net_backward(lean, net_forward_cached(lean, x, "train")[1], grad_out, False)
        err, scale = worst([out, gx, *grads, *lean_grads],
                           [want_out, want_gx, *want_grads, *want_grads])
        assert err <= BOUND * scale, (err, scale, text)
        err, scale = worst(state_arrays(params), state_arrays(twin))
        assert err <= BOUND * scale, (err, scale, text)

        save_weights(params, root / "a.aenw")
        save_weights(load_weights(root / "a.aenw", spec), root / "b.aenw")
        assert (root / "a.aenw").read_bytes() == (root / "b.aenw").read_bytes()

    check()
