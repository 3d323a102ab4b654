"""Block types, the path driver that runs them, architecture specs,
built-in variants, analytic cost counting and arch files.

Each block type is a frozen dataclass owning one ``shape`` method, seeded
init, parameter arrays, and one forward and one backward route on
padded-flat buffers (``layers.Grid``). ``shape`` maps an input size to the
block's ``Shape``: its output size and its own costs. One path walk,
``_path_shapes``, chains those, and everything that needs a size or a cost
reads it: the path driver's step plan, spec checks, the border the network
input is padded by, and the parameter, FLOP and group counters.
``Branch`` runs several paths (tuples of blocks) on one input and
concatenates their outputs, so separable, Fire and Inception modules are
macros returning one ``Branch``.

A spec has three stages: ``alpha`` (first conv block), ``beta`` (the
replaceable middle module) and ``gamma`` (last conv). When ``residual``
is set, the beta output is added to its input before gamma, and a sigmoid
caps the final output to (0, 1). A path runs as a flat list of steps
(``_plan``: a block, the blocks it takes over and the buffer it writes);
on inference those after its last upsample (``m``'s full-size decoder)
run once per band of rows, so that their activations never exist whole.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..errors import DimensionError, IoError, SpecError
from . import layers
from .layers import Grid


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


class Shape(NamedTuple):
    """A block's output size c x h x w and its own costs: MACs per image,
    trainable and running-statistic parameter counts, the largest conv
    group count (a depthwise conv counts as 1) and the widest conv padding
    (k // 2). A path's input is a Shape without costs."""

    c: int
    h: int
    w: int
    macs: int = 0
    params: int = 0
    running: int = 0
    groups: int = 1
    border: int = 0


class Block:
    """Defaults for a shape-preserving block without parameters or MACs.
    ``shape(c, h, w, outs)`` gives the Shape at input c x h x w, where outs
    holds the Shapes of the earlier blocks of the same path, and raises
    SpecError when the block does not fit. ``forward(p, x, g, out, mode,
    keep)`` writes the output for buffer x of grid g into buffer out and
    returns the cache; ``backward(p, cache, gy, want_x)``, which may
    overwrite gy, returns (the input gradient's buffer, grads in arrays()
    order). ``absorb(p, c, scale, shift)`` takes a per-channel affine on the
    output (a folded BN) at c input channels: (new params, None), (params,
    the vectors for the block before it) or None, a refusal."""

    inplace = False  # out may be the input buffer itself
    holds_output = False  # the cache holds the output buffer
    epilogue = False  # forward runs the shuffle (and ReLU) after it (_epilogue)

    def shape(self, c: int, h: int, w: int, outs: list[Shape]) -> Shape:
        return Shape(c, h, w)

    def init(self, rng):
        return None

    def arrays(self, p, with_running: bool) -> list[np.ndarray]:
        return []

    def absorb(self, p, c, scale, shift):
        return None


@dataclass(frozen=True)
class ConvBlock(Block):
    """k x k grouped cross-correlation, zero-padded by k // 2."""

    epilogue = True
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

    def shape(self, c, h, w, outs):
        if self.cin != c:
            raise SpecError(f"conv expects cin={self.cin}, chain gives {c}")
        h, w = (h - 1) // self.stride + 1, (w - 1) // self.stride + 1
        weights = self.cout * (self.cin // self.groups) * self.k * self.k
        # a depthwise conv (one input channel per group) counts as ungrouped
        groups = self.groups if self.cin > self.groups else 1
        return Shape(self.cout, h, w, weights * h * w, weights + self.cout, 0, groups, self.k // 2)

    def init(self, rng):
        # He-normal (fan-in); kept on the float32 grid so weight files
        # round-trip bit-exactly
        cin_g = self.cin // self.groups
        std = np.sqrt(2.0 / (cin_g * self.k * self.k))
        weight = rng.normal(0.0, std, size=(self.cout, cin_g, self.k, self.k))
        return ConvParams(weight.astype(np.float32).astype(np.float64), np.zeros(self.cout))

    def forward(self, p, x, g, out, mode, keep, shuffle=False, relu=False):
        layers._conv(x, p.weight, p.bias, g, self.stride, self.groups, shuffle, relu, out)
        return x, g, shuffle

    def backward(self, p, cache, gy, want_x):
        x, g, shuffle = cache
        gx, gw, gb = layers._conv_backward(x, gy, p.weight, g, self.stride, self.groups, shuffle, want_x)
        return gx, [gw, gb]

    def arrays(self, p, with_running):
        return [p.weight, p.bias]

    def absorb(self, p, c, scale, shift):
        return ConvParams(p.weight * scale[:, None, None, None], p.bias * scale + shift), None


@dataclass(frozen=True)
class ChannelShuffle(Block):
    groups: int

    def __post_init__(self):
        if self.groups < 1:
            raise SpecError(f"shuffle groups must be >= 1, got {self.groups}")

    def shape(self, c, h, w, outs):
        if c % self.groups:
            raise SpecError(f"shuffle groups={self.groups} must divide {c}")
        return Shape(c, h, w)

    def forward(self, p, x, g, out, mode, keep):
        layers.channel_shuffle(x, self.groups, out)

    def backward(self, p, cache, gy, want_x):
        return layers.channel_shuffle_backward(gy, self.groups), []

    def absorb(self, p, c, scale, shift):  # per-channel vectors go back like gradients
        return p, [layers.channel_shuffle_backward(v[None, :, None, None], self.groups).ravel() for v in (scale, shift)]


@dataclass(frozen=True)
class BatchNorm(Block):
    channels: int
    inplace = True

    def shape(self, c, h, w, outs):
        if self.channels != c:
            raise SpecError(f"BN sized {self.channels}, chain gives {c}")
        return Shape(c, h, w, params=2 * c, running=2 * c)

    def init(self, rng):
        c = self.channels
        return BNParams(np.ones(c), np.zeros(c), np.zeros(c), np.ones(c))

    def forward(self, p, x, g, out, mode, keep):
        return layers.batchnorm_forward(x, p.scale, p.shift, p.running_mean, p.running_var, mode, out, g)[1]

    def backward(self, p, cache, gy, want_x):
        _, gscale, gshift = layers.batchnorm_backward(gy, p.scale, cache, gy)
        return gy, [gscale, gshift]

    def arrays(self, p, with_running):
        if with_running:
            return [p.scale, p.shift, p.running_mean, p.running_var]
        return [p.scale, p.shift]


@dataclass(frozen=True)
class ReLU(Block):
    inplace = holds_output = True  # the output is its backward's mask

    def forward(self, p, x, g, out, mode, keep):
        return layers.relu(x, out)

    def backward(self, p, y, gy, want_x):
        return layers.relu_backward(gy, y, gy), []


@dataclass(frozen=True)
class MaxPool2(Block):
    def shape(self, c, h, w, outs):
        return Shape(c, h // 2, w // 2)

    def forward(self, p, x, g, out, mode, keep):
        layers.maxpool2_forward(g.inner(x), Grid(g.h // 2, g.w // 2, g.p).inner(out))
        return x, g

    def backward(self, p, cache, gy, want_x):
        x, g = cache
        gx = g.zeros(*gy.shape[:2])
        layers.maxpool2_backward(Grid(g.h // 2, g.w // 2, g.p).inner(gy), g.inner(x), g.inner(gx))
        return gx, []


@dataclass(frozen=True)
class UpsampleNearest2(Block):
    def shape(self, c, h, w, outs):
        return Shape(c, 2 * h, 2 * w)

    def forward(self, p, x, g, out, mode, keep):
        layers.upsample_nearest(g.inner(x), Grid(2 * g.h, 2 * g.w, g.p).inner(out))
        return g

    def backward(self, p, g, gy, want_x):
        gx = g.zeros(*gy.shape[:2])
        layers.upsample_nearest_backward(Grid(2 * g.h, 2 * g.w, g.p).inner(gy), g.inner(gx))
        return gx, []


@dataclass(frozen=True)
class SkipConcat(Block):
    """Concat the output of an earlier block of the same path (both written
    in place); it must have the input's size, unless a pool emptied a side."""

    source: int
    holds_output = True

    def shape(self, c, h, w, outs):
        if not 0 <= self.source < len(outs):
            raise SpecError(f"skip source {self.source} out of range")
        src = outs[self.source]
        if (src.h, src.w) != (h, w) and min(h, w, src.h, src.w) > 0:
            raise SpecError(f"skip source is {src.h}x{src.w}, not {h}x{w}")
        return Shape(c + src.c, h, w)

    def forward(self, p, x, g, out, mode, keep):
        return x.shape[1]


@dataclass(frozen=True)
class Branch(Block):
    """Run each path (a tuple of blocks) on the same input and concatenate
    the outputs on channels; a single path is a plain sequence."""

    paths: tuple
    holds_output = True

    def shape(self, c, h, w, outs):  # every path ends at the same size
        walks = [_path_shapes(path, c, h, w) for path in self.paths]
        return _total([s for walk in walks for s in walk])._replace(c=sum(walk[-1].c for walk in walks))

    def init(self, rng):
        return [[blk.init(rng) for blk in path] for path in self.paths]

    def forward(self, p, x, g, out, mode, keep):  # each path writes the next channels of out
        caches = []
        for path, pp in zip(self.paths, p):
            y, _, path_caches = _path_forward(path, pp, x, g, mode, keep, out)
            caches.append((y.shape[1], path_caches))
            out = out[:, y.shape[1] :]
        return caches

    def backward(self, p, cache, gy, want_x):
        gx, grads = 0.0, []
        for path, pp, (width, caches) in zip(self.paths, p, cache):
            g, path_grads = _path_backward(path, pp, caches, gy[:, :width])
            gx, gy, grads = gx + g, gy[:, width:], grads + path_grads
        return gx, grads

    def arrays(self, p, with_running):
        return [a for path, pp in zip(self.paths, p) for blk, q in zip(path, pp) for a in blk.arrays(q, with_running)]

    def absorb(self, p, c, scale, shift):  # each path takes its channels' share, or none does
        ends = np.cumsum([0] + [_path_shapes(path, c, 1, 1)[-1].c for path in self.paths])
        got = [_absorb(path, pp, c, len(path), scale[a:b], shift[a:b])
               for path, pp, a, b in zip(self.paths, p, ends, ends[1:])]
        return None if None in got else (got, None)


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
        c = _path_shapes(self.alpha, self.in_channels, 64, 64)[-1].c
        beta = _path_shapes(self.beta, c, 64, 64)[-1]
        if self.residual and beta.c != c:
            raise SpecError(
                f"residual spec needs beta out ({beta.c}) == alpha out ({c})"
            )
        if self.residual and (beta.h, beta.w) != (64, 64):
            raise SpecError(
                f"residual spec needs beta to keep the spatial size, it maps 64x64 to {beta.h}x{beta.w}"
            )
        final = _path_shapes(self.gamma, *beta[:3])[-1].c
        if final != self.out_channels:
            raise SpecError(f"gamma produces {final} channels, spec says {self.out_channels}")

    @property
    def spatial_multiple(self) -> int:
        """Side multiple that every pooling layer can halve: 2 ** (deepest
        pooling level), read off the stage walk of a power-of-two side
        (no block type puts a pool inside a Branch)."""
        probe = 1 << 12
        return probe // min(s.h for walk in _stage_shapes(self, probe, probe) for s in walk)

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


def _path_shapes(blocks, c: int, h: int, w: int) -> list[Shape]:
    """The path input's Shape, then each block's; raises SpecError naming
    the block that does not fit."""
    shapes = [Shape(c, h, w)]
    for i, blk in enumerate(blocks):
        try:
            shapes.append(blk.shape(*shapes[-1][:3], shapes[1:]))
        except SpecError as exc:
            raise SpecError(f"block {i}: {exc}") from None
    return shapes


def _total(shapes: list[Shape]) -> Shape:
    """The last of shapes with the MACs and parameter counts of all summed
    and their largest group count and border."""
    return shapes[-1]._replace(
        macs=sum(s.macs for s in shapes),
        params=sum(s.params for s in shapes),
        running=sum(s.running for s in shapes),
        groups=max(s.groups for s in shapes),
        border=max(s.border for s in shapes),
    )


def _stage_shapes(spec: ArchSpec, h: int, w: int) -> list[list[Shape]]:
    """The walk of each stage at network input h x w. A stage starts from
    the output of the one before (a residual beta keeps its input's size),
    and is walked on its own: ``cat`` indices are local to their stage. At
    0 x 0 every size is 0, so that walk gives the channels and parameter
    counts of any spec that parses."""
    walks = [[Shape(spec.in_channels, h, w)]]
    for blocks in spec.stages:
        walks.append(_path_shapes(blocks, *walks[-1][-1][:3]))
    return walks[1:]


def _spec_total(spec: ArchSpec, h: int, w: int) -> Shape:
    """The network output's Shape at input h x w, with the costs of every block."""
    return _total([s for walk in _stage_shapes(spec, h, w) for s in walk])


def _absorb(blocks, plist, c, end, scale, shift):
    """A copy of plist (a path with c input channels) whose blocks before end,
    walking back (``Block.absorb``), take the affine on block end - 1's output;
    None when one refuses it, none is left, or a SkipConcat reads one it changes."""
    shapes, sources, plist = _path_shapes(blocks, c, 0, 0), set(_skips(blocks).values()), list(plist)
    for i in range(end - 1, -1, -1):
        got = None if i in sources else blocks[i].absorb(plist[i], shapes[i].c, scale, shift)
        if got is None:
            return None
        plist[i], vectors = got
        if vectors is None:
            return plist
        scale, shift = vectors
    return None


def _fold_bn(blocks, plist, c):
    """(params, folded BN indices) of a path with c input channels, with every
    BatchNorm that the blocks before it absorb folded into them (a conv, back
    through shuffles, or each path of a Branch). plist is not mutated."""
    folded = set()
    for j, bn in enumerate(blocks):
        if isinstance(bn, BatchNorm):
            q = plist[j]
            scale = q.scale / np.sqrt(q.running_var + layers.BN_EPS)
            got = _absorb(blocks, plist, c, j, scale, q.shift - q.running_mean * scale)
            if got is not None:
                plist, folded = got, folded | {j}
    return plist, folded


def _epilogue(blocks, i, folded, sources, relu):
    """((shuffle, relu), last) of the step at block i: the shuffle and, with
    ``relu``, the ReLU after a conv that its tap loop runs, and the last of
    them and of the folded BNs after i, stopping at the input of a SkipConcat."""
    fused = {ChannelShuffle(blocks[i].groups): False, ReLU(): False if relu else None} if blocks[i].epilogue else {}
    last = i
    for j in range(i + 1, len(blocks)):
        if j - 1 in sources or not (j in folded or fused.get(blocks[j]) is False):
            break
        if fused.get(blocks[j]) is False:
            fused[blocks[j]] = True
        last = j
    return tuple(bool(v) for v in fused.values()), last


def _skips(blocks) -> dict:
    return {i: blk.source for i, blk in enumerate(blocks) if isinstance(blk, SkipConcat)}


def _tail(blocks, shapes, skips):
    """(u, f, h) when the blocks after the path's last upsample u keep its
    size and f is the one of them with k > 1, a conv, and no SkipConcat after
    f reads an output before it; else None. f reads its h halo rows from its
    input band's padding rows, so a band recomputes nothing."""
    ups = [i for i in range(len(blocks)) if shapes[i + 1].h > shapes[i].h]
    if not ups or any(s[1:3] != shapes[-1][1:3] for s in shapes[ups[-1] + 1 :]):
        return None
    wide = [i for i in range(ups[-1], len(blocks)) if shapes[i + 1].border]
    if len(wide) != 1 or not isinstance(blocks[wide[0]], ConvBlock) or any(s < wide[0] < r for r, s in skips.items()):
        return None
    return ups[-1], wide[0], shapes[wide[0] + 1].border


Step = namedtuple("Step", "i last fused inplace parts source band")  # see _plan


def _plan(blocks, shapes, folded, infer, keep, n, p):
    """(steps, passes) of a path's forward at these shapes, n samples and
    padding p. Step i runs blocks i to last (``_epilogue``) and writes last's
    output into its input (``inplace``), into the first of its ``parts``
    (r, lo, hi), channels lo:hi of SkipConcat r's buffer, copying it into the
    others, or into a new buffer. A pass is (grids by block index, windows,
    top, rows): the whole-size pass, then on inference with a tail (``_tail``)
    one per band of output rows [r0, r1), which runs the ``band`` steps so
    that no full-size activation of theirs exists whole. A band reads block
    i's input from row r of the buffer before it on grid gi ({i: (gi, r)}),
    and a source before the tail from row top."""
    skips, grids = _skips(blocks), [Grid(s.h, s.w, p) for s in shapes]
    sources, tail = set(skips.values()), _tail(blocks, shapes, skips) if infer else None
    (u, f, h1), full, parts, steps = tail or (len(blocks), 0, 0), grids[-1], {}, []
    for r in sorted(skips, reverse=True):  # a later SkipConcat may hold an earlier's buffer
        s, c = skips[r], shapes[r].c  # a band copies its rows of a source before the tail
        for j, part in [(s, (r, c, shapes[r + 1].c))] * (not s < u < r) + [(r - 1, (r, 0, c))]:
            parts.setdefault(j, []).append(part)
    for i, blk in enumerate(blocks):
        if not steps or i > steps[-1].last:
            fused, last = _epilogue(blocks, i, folded, sources, infer)
            # not over a SkipConcat's buffer either: the tail may read a source it holds
            own = i > 0 and i - 1 not in sources and i - 1 not in skips and not (keep and blocks[i - 1].holds_output)
            steps.append(Step(i, last, fused, blk.inplace and own, parts.get(last, ()), skips.get(i), i >= u))
    passes = [(grids, {}, 0, None)]
    # a band's output holds about one tap-loop column block (at 1x2x400x400,
    # m ran 5% slower in bands of 10 rows than of 20 to 40)
    step = max(1, layers._BLOCK_ELEMS // (n * shapes[-1].c * full.wp))
    for r0 in range(0, full.h if tail else 0, step):
        r1 = min(r0 + step, full.h)
        # f's output rows [r0, r1) from its input's rows [e0, e1), even for the upsample
        e0, e1 = max(r0 - h1, 0) // 2 * 2, min(r1 + h1 + 1, full.h) // 2 * 2
        band, grid_e, grid_v = Grid((e1 - e0) // 2, grids[u].w, p), Grid(e1 - e0, full.w, p), Grid(r1 - r0, full.w, p)
        bands = [band] * (u + 1) + [grid_e] * (f - u) + [grid_v] * (len(blocks) - f)
        passes.append((bands, {u: (band, e0 // 2), f: (grid_v, r0 - e0)}, e0, (r0, r1)))
    return steps, passes


def _path_forward(blocks, plist, x, g, mode, keep=True, out=None):
    """Run a path on buffer x of grid g into the first channels of out (or a
    new buffer): (output, its grid, (step, cache) pairs kept with ``keep``);
    out x itself gets the output added (a residual path). Inference passes
    (eval without ``keep``) fold BNs into the blocks before them (``_fold_bn``,
    on every call so that parameter updates count) and run the tail band by
    band (``_plan``): a conv's column sums do not depend on the columns around
    them (``layers._tap_products``), so bands give the bits of the whole pass."""
    n, x0, infer = len(x), x, mode == "eval" and not keep
    shapes = _path_shapes(blocks, x.shape[1], g.h, g.w)
    plist, folded = _fold_bn(blocks, plist, x.shape[1]) if infer else (plist, set())
    steps, passes = _plan(blocks, shapes, folded, infer, keep, n, g.p)
    full, z, caches, held = passes[0][0][-1], x, [], {}
    wanted = {st.source for st in steps if st.band}  # the outputs before the tail that it reads
    for grids, windows, top, rows in passes:
        x, g, band = z, grids[0], rows is not None
        bufs = {} if band or out is None or out is x0 else {len(blocks) - 1: out[:, : shapes[-1].c]}
        seg = [st for st in steps if st.band == band]
        for st in reversed(seg):  # SkipConcat buffers, then their parts
            if st.parts:
                bufs[st.last] = bufs[st.parts[0][0]][:, st.parts[0][1] : st.parts[0][2]]
            elif st.source is not None:
                bufs.setdefault(st.i, grids[st.i].zeros(n, shapes[st.i + 1].c))
        for st in seg:
            if st.i in windows:
                g, row = windows[st.i]
                x = g.window(x, row)
            y = bufs.pop(st.last, None)  # a planned buffer is held by its readers alone
            if y is None:
                y = x if st.inplace else grids[st.i + 1].zeros(n, shapes[st.last + 1].c)
            if band and st.source in held:
                y[:, shapes[st.i].c :] = grids[st.i].window(held[st.source], top)
            # an inference pass drops each cache at once: it holds the step's input
            (caches if keep else []).append((st, blocks[st.i].forward(plist[st.i], x, g, y, mode, keep, *st.fused)))
            for r, lo, hi in st.parts[1:]:
                bufs[r][:, lo:hi] = y
            if not band and st.last in wanted:
                held[st.last] = y
            x, g = y, grids[st.i + 1]
        if band:
            dst, got = full.inner(out)[:, :, rows[0] : rows[1]], grids[-1].inner(x)
            np.add(dst, got, out=dst) if out is x0 else np.copyto(dst, got)
        elif len(passes) > 1:  # each band's input; the output
            z, out = x, full.zeros(n, shapes[-1].c) if out is None else out
        elif out is x0:  # the borders add 0 + 0; a keep pass must not overwrite a ReLU's mask
            x = np.add(x, x0, out=None if keep or x is x0 else x)
    return out if band else x, full, caches


def _path_backward(blocks, plist, caches, gy, want_x=True):
    """Walk a path's (step, cache) pairs back, dropping each, and send each
    SkipConcat's gradient to its source: (the path input's gradient buffer,
    per-block grads in forward order). Without ``want_x`` a first conv leaves
    out its input gradient (None)."""
    routed, grads = {}, []
    while caches:
        st, cache = caches.pop()
        if st.last in routed:  # gradient that later skips sent to this output
            gy = gy + routed.pop(st.last)
        if st.source is not None:
            routed[st.source] = routed[st.source] + gy[:, cache:] if st.source in routed else gy[:, cache:]
            gy = gy[:, :cache]
        else:
            gy, block_grads = blocks[st.i].backward(plist[st.i], cache, gy, want_x or st.i > 0)
            grads[:0] = block_grads
    return gy, grads


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
    total = _spec_total(spec, 0, 0)
    return total.params, total.running


def count_params(spec: ArchSpec) -> int:
    """Trainable parameter count (conv weights/biases + BN scale/shift)."""
    return count_state(spec)[0]


def count_flops(spec: ArchSpec, h: int, w: int) -> int:
    """FLOPs at input h x w with the 1 MAC = 2 FLOPs convention.

    Pooling, shuffling, ReLU, BN, concats and the residual add count as
    zero MACs.
    """
    return 2 * _spec_total(spec, h, w).macs


def count_groups(spec: ArchSpec) -> int:
    """Largest conv group count; a depthwise conv counts as ungrouped."""
    return _spec_total(spec, 0, 0).groups


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
