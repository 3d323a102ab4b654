"""Block types, the path driver that runs them, architecture specs,
built-in variants, analytic cost counting and arch files.

Each block type is a frozen dataclass owning its channel rule, seeded init,
forward/backward, parameter arrays, costs and group count. ``Branch`` runs
several paths (tuples of blocks) on one input and concatenates their
outputs, so separable, Fire and Inception modules are macros returning one
``Branch`` of convolutions.

A spec has three stages: ``alpha`` (first conv block), ``beta`` (the
replaceable middle module) and ``gamma`` (last conv). When ``residual``
is set, the beta output is added to its input before gamma, and a sigmoid
caps the final output to (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import DimensionError, IoError, SpecError
from . import layers


@dataclass
class ConvParams:
    weight: np.ndarray  # (cout, cin/groups, k, k)
    bias: np.ndarray


@dataclass
class BNParams:
    scale: np.ndarray
    shift: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray


class Block:
    """Defaults for a shape-preserving block without parameters or MACs.
    Subclasses define ``forward(p, x, mode) -> (y, cache)`` and
    ``backward(p, cache, gy) -> (grad_x, grads in arrays() order)``."""

    def out_channels(self, cin: int, outs: list[int]) -> int:
        """Output channels given the input channels and the earlier outputs
        of the same path; raises SpecError when the block does not fit."""
        return cin

    def init(self, rng):
        return None

    def arrays(self, p, with_running: bool) -> list[np.ndarray]:
        return []

    def param_counts(self) -> tuple[int, int]:
        """(trainable, non-trainable running stats)."""
        return 0, 0

    def costs(self, h: int, w: int) -> tuple[int, int, int]:
        """(MACs, output h, output w) at input h x w."""
        return 0, h, w

    def group_count(self) -> int:
        return 1

    _into = None  # inference: _into(x, out) writes forward's output into out


@dataclass(frozen=True)
class ConvBlock(Block):
    """k x k grouped cross-correlation, zero-padded by k // 2."""

    cin: int
    cout: int
    k: int
    groups: int = 1
    stride: int = 1

    def __post_init__(self):
        if min(self.cin, self.cout, self.k, self.groups, self.stride) < 1:
            raise SpecError(f"conv sizes must be >= 1, got {self}")
        if self.k % 2 == 0:
            raise SpecError(f"even kernel {self.k}")
        if self.cin % self.groups or self.cout % self.groups:
            raise SpecError(
                f"groups={self.groups} must divide cin={self.cin} and cout={self.cout}"
            )

    def out_channels(self, cin, outs):
        if self.cin != cin:
            raise SpecError(f"conv expects cin={self.cin}, chain gives {cin}")
        return self.cout

    def init(self, rng):
        # He-normal (fan-in); kept on the float32 grid so weight files
        # round-trip bit-exactly
        cin_g = self.cin // self.groups
        std = np.sqrt(2.0 / (cin_g * self.k * self.k))
        weight = rng.normal(0.0, std, size=(self.cout, cin_g, self.k, self.k))
        return ConvParams(weight.astype(np.float32).astype(np.float64), np.zeros(self.cout))

    def forward(self, p, x, mode):
        y = layers.conv2d_forward(
            x, p.weight, p.bias, stride=self.stride, pad=self.k // 2, groups=self.groups
        )
        return y, x

    def backward(self, p, x, gy):
        gx, gw, gb = layers.conv2d_backward(
            x, p.weight, gy, stride=self.stride, pad=self.k // 2, groups=self.groups
        )
        return gx, [gw, gb]

    def arrays(self, p, with_running):
        return [p.weight, p.bias]

    def param_counts(self):
        return self.cout * (self.cin // self.groups) * self.k * self.k + self.cout, 0

    def costs(self, h, w):
        h = (h - 1) // self.stride + 1
        w = (w - 1) // self.stride + 1
        return self.cout * (self.cin // self.groups) * self.k * self.k * h * w, h, w

    def group_count(self):
        # a depthwise conv (one input channel per group) counts as ungrouped
        return self.groups if self.cin > self.groups else 1


@dataclass(frozen=True)
class ChannelShuffle(Block):
    groups: int

    def __post_init__(self):
        if self.groups < 1:
            raise SpecError(f"shuffle groups must be >= 1, got {self.groups}")

    def out_channels(self, cin, outs):
        if cin % self.groups:
            raise SpecError(f"shuffle groups={self.groups} must divide {cin}")
        return cin

    def forward(self, p, x, mode):
        return layers.channel_shuffle(x, self.groups), None

    def backward(self, p, cache, gy):
        return layers.channel_shuffle_backward(gy, self.groups), []


@dataclass(frozen=True)
class BatchNorm(Block):
    channels: int

    def out_channels(self, cin, outs):
        if self.channels != cin:
            raise SpecError(f"BN sized {self.channels}, chain gives {cin}")
        return cin

    def init(self, rng):
        c = self.channels
        return BNParams(np.ones(c), np.zeros(c), np.zeros(c), np.ones(c))

    def forward(self, p, x, mode):
        return layers.batchnorm_forward(
            x, p.scale, p.shift, p.running_mean, p.running_var, mode
        )

    def backward(self, p, cache, gy):
        gx, gscale, gshift = layers.batchnorm_backward(gy, p.scale, cache)
        return gx, [gscale, gshift]

    def arrays(self, p, with_running):
        if with_running:
            return [p.scale, p.shift, p.running_mean, p.running_var]
        return [p.scale, p.shift]

    def param_counts(self):
        return 2 * self.channels, 2 * self.channels


@dataclass(frozen=True)
class ReLU(Block):
    def forward(self, p, x, mode):
        return layers.relu(x), x

    def backward(self, p, x, gy):
        return layers.relu_backward(gy, x), []


@dataclass(frozen=True)
class MaxPool2(Block):
    def forward(self, p, x, mode):
        return layers.maxpool2_forward(x), x

    def backward(self, p, x, gy):
        return layers.maxpool2_backward(gy, x), []

    def costs(self, h, w):
        return 0, h // 2, w // 2


@dataclass(frozen=True)
class UpsampleNearest2(Block):
    def forward(self, p, x, mode):
        return layers.upsample_nearest(x), None

    def backward(self, p, cache, gy):
        return layers.upsample_nearest_backward(gy), []

    def _into(self, x, out):
        return layers._upsample_into(x, out)

    def costs(self, h, w):
        return 0, 2 * h, 2 * w


@dataclass(frozen=True)
class SkipConcat(Block):
    """Concat the output of an earlier block of the same path (the driver does it)."""

    source: int

    def out_channels(self, cin, outs):
        if not 0 <= self.source < len(outs):
            raise SpecError(f"skip source {self.source} out of range")
        return cin + outs[self.source]


@dataclass(frozen=True)
class Branch(Block):
    """Run each path (a tuple of blocks) on the same input and concatenate
    the outputs on channels; a single path is a plain sequence."""

    paths: tuple

    def out_channels(self, cin, outs):
        return sum(_path_channels(path, cin) for path in self.paths)

    def init(self, rng):
        return [[blk.init(rng) for blk in path] for path in self.paths]

    def forward(self, p, x, mode):
        runs = [_path_forward(path, pp, x, mode) for path, pp in zip(self.paths, p)]
        ys = [y for y, _ in runs]
        y = ys[0] if len(ys) == 1 else np.concatenate(ys, axis=1)
        return y, ([part.shape[1] for part in ys], [caches for _, caches in runs])

    def backward(self, p, cache, gy):
        widths, path_caches = cache
        gx, grads, start = None, [], 0
        for path, pp, caches, width in zip(self.paths, p, path_caches, widths):
            g, path_grads = _path_backward(path, pp, caches, gy[:, start : start + width])
            gx = g if gx is None else gx + g
            grads += path_grads
            start += width
        return gx, grads

    def arrays(self, p, with_running):
        return [a for path, pp in zip(self.paths, p) for a in _path_arrays(path, pp, with_running)]

    def param_counts(self):
        counts = [blk.param_counts() for path in self.paths for blk in path]
        return sum(t for t, _ in counts), sum(r for _, r in counts)

    def costs(self, h, w):
        macs = 0
        for path in self.paths:  # every path ends at the same spatial size
            out_h, out_w = h, w
            for blk in path:
                blk_macs, out_h, out_w = blk.costs(out_h, out_w)
                macs += blk_macs
        return macs, out_h, out_w

    def group_count(self):
        return max([1] + [blk.group_count() for path in self.paths for blk in path])


FEATURE_CHANNELS = 64
DEFAULT_GROUPS = 8


@dataclass(frozen=True)
class ArchSpec:
    name: str
    in_channels: int
    out_channels: int
    alpha: tuple
    beta: tuple
    gamma: tuple
    residual: bool = True

    def __post_init__(self):
        """Channel arithmetic must chain across all three stages, and a
        residual beta must keep the spatial size."""
        if min(self.in_channels, self.out_channels) < 1:
            raise SpecError(
                f"in/out channels must be >= 1, got {self.in_channels}/{self.out_channels}"
            )
        c = _path_channels(self.alpha, self.in_channels)
        beta_out = _path_channels(self.beta, c)
        if self.residual and beta_out != c:
            raise SpecError(
                f"residual spec needs beta out ({beta_out}) == alpha out ({c})"
            )
        _, h, w = Branch((self.beta,)).costs(64, 64)
        if self.residual and (h, w) != (64, 64):
            raise SpecError(
                f"residual spec needs beta to keep the spatial size, it maps 64x64 to {h}x{w}"
            )
        final = _path_channels(self.gamma, beta_out if not self.residual else c)
        if final != self.out_channels:
            raise SpecError(f"gamma produces {final} channels, spec says {self.out_channels}")

    @property
    def spatial_multiple(self) -> int:
        """Side multiple that every pooling layer can halve: 2 ** (deepest
        pooling level), read off the stage walk of a power-of-two side
        (no block type puts a pool inside a Branch)."""
        probe = side = smallest = 1 << 12
        for blk in self.alpha + self.beta + self.gamma:
            _, side, _ = blk.costs(side, side)
            smallest = min(smallest, side)
        return probe // smallest

    def check_size(self, h: int, w: int, what: str) -> None:
        """DimensionError unless h and w are multiples of spatial_multiple."""
        m = self.spatial_multiple
        if h % m or w % m:
            raise DimensionError(
                f"{self.name!r} pools to 1/{m}, so {what} sides must be multiples "
                f"of {m}, got {h}x{w}"
            )

    @property
    def stages(self) -> tuple[tuple, tuple, tuple]:
        return (self.alpha, self.beta, self.gamma)

    @property
    def sequence(self) -> Branch:
        """Every block in execution order, as one single-path Branch."""
        return Branch((self.alpha + self.beta + self.gamma,))


# ---------------------------------------------------------------------------
# The path driver: stages and Branch paths share it
# ---------------------------------------------------------------------------


def _path_channels(blocks, cin: int) -> int:
    """Output channels of a path; raises SpecError naming the block."""
    outs: list[int] = []
    for i, blk in enumerate(blocks):
        try:
            cin = blk.out_channels(cin, outs)
        except SpecError as exc:
            raise SpecError(f"block {i}: {exc}") from None
        outs.append(cin)
    return cin


def _path_arrays(blocks, plist, with_running: bool) -> list[np.ndarray]:
    """Parameter tensors in fixed traversal order."""
    return [a for blk, p in zip(blocks, plist) for a in blk.arrays(p, with_running)]


def _fold_bn(blocks, plist, sources):
    """(params, folded BN indices) with every BatchNorm fed by a ConvBlock,
    directly or through ChannelShuffles, folded into that conv's weight and
    bias. A BN is left alone when a SkipConcat reads the conv's or a
    shuffle's output, which folding would change. plist is not mutated."""
    plist = list(plist)
    folded = set()
    for j, bn in enumerate(blocks):
        if not isinstance(bn, BatchNorm):
            continue
        i = j - 1
        while i >= 0 and isinstance(blocks[i], ChannelShuffle):
            i -= 1
        if i < 0 or not isinstance(blocks[i], ConvBlock) or sources & set(range(i, j)):
            continue
        q = plist[j]
        scale = q.scale / np.sqrt(q.running_var + layers.BN_EPS)
        shift = q.shift - q.running_mean * scale
        for shuffle in blocks[j - 1 : i : -1]:
            # per-channel vectors go back through the shuffle like gradients
            scale, shift = (
                layers.channel_shuffle_backward(v[None, :, None, None], shuffle.groups).ravel()
                for v in (scale, shift)
            )
        conv = plist[i]
        plist[i] = ConvParams(conv.weight * scale[:, None, None, None], conv.bias * scale + shift)
        folded.add(j)
    return plist, folded


def _epilogue(blocks, i, done, sources):
    """(shuffle, relu) after the conv at i, past folded BNs, that its tap loop
    runs (added to done); a block whose input a SkipConcat reads stops it."""
    fused = {ChannelShuffle(blocks[i].groups): False, ReLU(): False}
    for j in range(i + 1, len(blocks)):
        if j - 1 in sources or not (j in done or fused.get(blocks[j]) is False):
            break
        if j not in done:
            fused[blocks[j]] = True
            done.update(range(i + 1, j + 1))
    return tuple(fused.values())


def _path_forward(blocks, plist, x, mode, keep=True, flat=None):
    """Returns (out, caches); caches hold whatever backward needs. A block's
    output is held only while the path runs and only when a later
    SkipConcat reads it.

    An inference pass (eval without ``keep``) returns (out, flat) instead,
    ``flat`` being out's padded-flat buffer (as ``layers._flat(out, 3, 1)``)
    or None, as for x. It runs foldable BNs in their convs (``_fold_bn``, on
    every call so that parameter updates count). A 3x3 stride-1 conv reads
    x's buffer and writes a new one, running the shuffle and ReLU after it
    in its tap loop (``_epilogue``). An upsample writes a new buffer, leaving
    room for the SkipConcat after it; other blocks read views."""
    skips = {i: blk.source for i, blk in enumerate(blocks) if isinstance(blk, SkipConcat)}
    sources = set(skips.values())
    infer, done = mode == "eval" and not keep, set()
    if infer:
        plist, done = _fold_bn(blocks, plist, sources)
    outs = {}
    caches = [] if keep else None
    for i, (blk, p) in enumerate(zip(blocks, plist)):
        if i in done:
            pass  # the conv before it already ran this block
        elif infer and isinstance(blk, ConvBlock) and blk.k == 3 and blk.stride == 1:
            shuffle, relu = _epilogue(blocks, i, done, sources)
            flat, x = layers._conv_padded(x, flat, p.weight, p.bias, blk.groups, shuffle, relu)
        elif i in skips:
            src = outs[blk.source]
            if src.shape[2:] != x.shape[2:]:
                raise DimensionError(f"skip source spatial {src.shape[2:]} != current {x.shape[2:]}")
            cache = c = x.shape[1]
            if infer and flat is not None and flat.shape[1] > c:  # _into left room for src
                x = layers._interior(flat, *x.shape[2:])
                x[:, c:] = src
            else:
                x, flat = np.concatenate([x, src], axis=1), None
        elif infer and blk._into:
            _, h, w = blk.costs(*x.shape[2:])
            room = outs[skips[i + 1]].shape[1] if skips.get(i + 1) in outs else 0
            flat, inner = layers._padded(len(x), x.shape[1] + room, h, w)
            x = blk._into(x, inner[:, : x.shape[1]])
        else:
            (x, cache), flat = blk.forward(p, x, mode), None
        if keep:
            caches.append(cache)
        if i in sources:
            outs[i] = x
    return x, caches if keep else flat


def _path_backward(blocks, plist, caches, grad_y):
    """Walk blocks in reverse, routing skip-concat gradients to their sources.

    Returns (grad wrt path input, per-block grads flattened in forward order).
    """
    g = grad_y
    routed = {}  # block index -> grad that later skips sent to its output
    grads = []
    for i in range(len(blocks) - 1, -1, -1):
        if i in routed:
            g = g + routed.pop(i)
        blk = blocks[i]
        if isinstance(blk, SkipConcat):
            split = caches[i]
            src_grad = g[:, split:]
            if blk.source in routed:
                src_grad = routed[blk.source] + src_grad
            routed[blk.source] = src_grad
            g = g[:, :split]
        else:
            g, block_grads = blk.backward(plist[i], caches[i], g)
            grads[:0] = block_grads
    return g, grads


# ---------------------------------------------------------------------------
# Composite modules: one Branch each
# ---------------------------------------------------------------------------


def separable(cin: int, cout: int, k: int) -> Branch:
    """Depthwise k x k conv followed by a pointwise 1x1 conv."""
    return Branch(((ConvBlock(cin, cin, k, groups=cin), ConvBlock(cin, cout, 1)),))


def fire(cin: int, squeeze: int, expand1: int, expand3: int) -> Branch:
    """SqueezeNet Fire module: 1x1 squeeze + ReLU, parallel 1x1/3x3
    expands concatenated on channels, ReLU."""
    if squeeze >= expand1 + expand3:
        raise SpecError(f"fire squeeze {squeeze} must be < expand total {expand1 + expand3}")
    expand = Branch(((ConvBlock(squeeze, expand1, 1),), (ConvBlock(squeeze, expand3, 3),)))
    return Branch(((ConvBlock(cin, squeeze, 1), ReLU(), expand, ReLU()),))


def inception(cin: int, b1: int, b3: int, b5: int, groups: int = 1) -> Branch:
    """Parallel 1x1/3x3/5x5 convs over one input, concatenated; the
    branches may be grouped."""
    return Branch(
        tuple((ConvBlock(cin, width, k, groups),) for width, k in ((b1, 1), (b3, 3), (b5, 5)))
    )


# ---------------------------------------------------------------------------
# Built-in variants
# ---------------------------------------------------------------------------

BUILTIN_NAMES = (
    "regular",
    "gcb",
    "separable",
    "squeeze",
    "inception",
    "gcb_inception",
    "squeeze_gcb",
    "squeeze2_gcb",
    "m",
)

POOLED_NAMES = ("m",)


def builtin_spec(name: str, in_channels: int = 2, groups: int = DEFAULT_GROUPS) -> ArchSpec:
    """Named architecture variants; all share the conv-BN-relu head and a
    single-conv tail, differing only in the replaceable middle module."""
    c = FEATURE_CHANNELS
    bn_relu = (BatchNorm(c), ReLU())
    alpha = (ConvBlock(in_channels, c, 3), *bn_relu)
    gamma = (ConvBlock(c, 1, 3),)
    regular = (ConvBlock(c, c, 3), *bn_relu)
    gc = (ConvBlock(c, c, 3, groups=groups), ChannelShuffle(groups), *bn_relu)
    squeeze = (fire(c, 16, 32, 32), *bn_relu)
    encoder = regular + (MaxPool2(),)

    def decoder(source):
        return (UpsampleNearest2(), SkipConcat(source), ConvBlock(2 * c, c, 3), *bn_relu)

    middles = {
        "regular": regular,
        "gcb": gc,
        "separable": (separable(c, c, 3), *bn_relu),
        "squeeze": squeeze,
        "inception": (inception(c, 16, 32, 16), *bn_relu),
        "gcb_inception": (inception(c, 16, 32, 16, groups=groups), *gc[1:]),
        "squeeze_gcb": squeeze + gc,
        "squeeze2_gcb": squeeze + squeeze + gc,
        # pooled U-shape: two encoders down to 1/4 (their ReLU outputs are
        # blocks 2 and 6), a fire bottleneck, then two decoders back up, each
        # concatenating the matching encoder output
        "m": encoder + encoder + squeeze + decoder(6) + decoder(2),
    }
    if name not in middles:
        raise SpecError(f"unknown built-in spec {name!r}; options: {BUILTIN_NAMES}")
    return ArchSpec(name, in_channels, 1, alpha, middles[name], gamma)


# ---------------------------------------------------------------------------
# Analytic parameter, FLOP and group counting
# ---------------------------------------------------------------------------


def count_state(spec: ArchSpec) -> tuple[int, int]:
    """(trainable, non-trainable) parameter counts; trainable covers conv
    weights/biases and BN scale/shift, non-trainable the BN running stats."""
    return spec.sequence.param_counts()


def count_params(spec: ArchSpec) -> int:
    """Trainable parameter count (conv weights/biases + BN scale/shift)."""
    return count_state(spec)[0]


def count_flops(spec: ArchSpec, h: int, w: int) -> int:
    """FLOPs at input h x w with the 1 MAC = 2 FLOPs convention.

    Pooling, shuffling, ReLU, BN, concats and the residual add count as
    zero MACs.
    """
    return 2 * spec.sequence.costs(h, w)[0]


def count_groups(spec: ArchSpec) -> int:
    """Largest conv group count; a depthwise conv counts as ungrouped."""
    return spec.sequence.group_count()


# ---------------------------------------------------------------------------
# Line-oriented spec files: one block per line, three `stage` sections.
# ---------------------------------------------------------------------------


# block directive -> (constructor, min args, max args); every argument is an int
_BLOCK_DIRECTIVES = {
    "conv": (ConvBlock, 3, 5),
    "sep": (separable, 3, 3),
    "fire": (fire, 4, 4),
    "incep": (inception, 4, 5),
    "shuffle": (ChannelShuffle, 1, 1),
    "bn": (BatchNorm, 1, 1),
    "relu": (ReLU, 0, 0),
    "pool": (MaxPool2, 0, 0),
    "up": (UpsampleNearest2, 0, 0),
    "cat": (SkipConcat, 1, 1),
}
# header directive -> converter of its one argument
_HEADER_DIRECTIVES = {"name": str, "in_channels": int, "out_channels": int, "residual": int}


def parse_arch_file(path) -> ArchSpec:
    """Parse a text spec. Grammar (one entry per line, '#' comments)::

        name <str>            in_channels <int>      out_channels <int>
        residual <0|1>        stage alpha|beta|gamma
        conv <cin> <cout> <k> [groups] [stride]      sep  <cin> <cout> <k>
        fire <cin> <squeeze> <e1> <e3>               incep <cin> <b1> <b3> <b5> [groups]
        shuffle <g>           bn <c>      relu       pool        up
        cat <source-index>

    ``sep``, ``fire`` and ``incep`` each expand to one Branch block, so
    every block line is one index for ``cat``.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IoError(str(exc)) from exc
    header = {"name": Path(path).stem, "in_channels": 2, "out_channels": 1, "residual": 1}
    stages: dict[str, list] = {"alpha": [], "beta": [], "gamma": []}
    current: list | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        op, *args = line.split()
        make, lo, hi = _BLOCK_DIRECTIVES.get(op, (None, 1, 1))
        if make is None and op not in _HEADER_DIRECTIVES and op != "stage":
            raise SpecError(f"line {lineno}: unknown directive {op!r}")
        if make is not None and current is None:
            raise SpecError(f"line {lineno}: block before any stage directive")
        if not lo <= len(args) <= hi:
            raise SpecError(
                f"line {lineno}: {op!r} takes {lo} to {hi} arguments, got {len(args)}"
            )
        try:
            if make is not None:
                current.append(make(*(int(a) for a in args)))
            elif op == "stage":
                current = stages[args[0]]
            else:
                header[op] = _HEADER_DIRECTIVES[op](args[0])
        except (ValueError, KeyError, SpecError) as exc:
            raise SpecError(f"line {lineno}: bad arguments for {op!r}: {exc}") from exc
    return ArchSpec(
        header["name"],
        header["in_channels"],
        header["out_channels"],
        tuple(stages["alpha"]),
        tuple(stages["beta"]),
        tuple(stages["gamma"]),
        bool(header["residual"]),
    )
