"""Network parameters, seeded init, forward/backward execution, weight files.

A network is three block stages (alpha / beta / gamma). With ``residual``
set the beta output is added to its own input before gamma (on inference
in place, band by band for ``m``), and every output passes through a final
sigmoid so fused intensities stay in (0, 1).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import DimensionError, FormatError, IoError, RangeError, SpecError, TruncationError
from ..image import ImageGray, ImagePair
from . import layers
from .arch import ArchSpec, _path_backward, _path_forward, _spec_total, _stage_shapes, builtin_spec, count_groups
from .arch import count_state


@dataclass
class NetParams:
    """Per-stage lists with one params entry per block (see ``Block.init``)."""

    spec: ArchSpec
    alpha: list
    beta: list
    gamma: list


def trainable_arrays(params: NetParams) -> list[np.ndarray]:
    """All trainable tensors in fixed traversal order (BN running stats excluded)."""
    return params.spec.sequence.arrays([params.alpha + params.beta + params.gamma], False)


def state_arrays(params: NetParams) -> list[np.ndarray]:
    """All state tensors including BN running stats, in fixed order."""
    return params.spec.sequence.arrays([params.alpha + params.beta + params.gamma], True)


def build_network(spec: ArchSpec | str, seed: int = 0) -> NetParams:
    """He-normal (fan-in) seeded initialization; BN scale 1, shift 0."""
    if seed < 0:
        raise RangeError(f"seed must be >= 0, got {seed}")
    if isinstance(spec, str):
        spec = builtin_spec(spec)
    rng = np.random.default_rng(seed)
    stages = [[blk.init(rng) for blk in stage] for stage in spec.stages]
    return NetParams(spec, *stages)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def pair_tensor(pair: ImagePair) -> np.ndarray:
    """Channel-concatenated (1, 2, h, w) tensor from an aligned pair."""
    return np.stack([pair.a.data, pair.b.data])[None]


def _forward(params: NetParams, x, mode: str, keep: bool, head: bool = True):
    """Full forward pass of an ImagePair or (n, c, h, w) array: (out, caches for
    net_backward or None), or without ``head`` the pre-gamma features. The input
    is padded by the spec's widest conv padding once and the output read back once."""
    spec, pad = params.spec, _spec_total(params.spec, 0, 0).border
    x = pair_tensor(x) if isinstance(x, ImagePair) else np.asarray(x, dtype=np.float64)
    if mode not in ("train", "eval"):
        raise RangeError(f"mode must be 'train' or 'eval', got {mode!r}")
    if x.ndim != 4 or x.shape[1] != spec.in_channels or 0 in x.shape:
        raise DimensionError(f"expected (n, {spec.in_channels}, h, w) input, n, h, w >= 1, got {x.shape}")
    with layers.blas_pinned():
        xf, g_in = layers._flat(x, 2 * pad + 1, pad), layers.Grid(*x.shape[2:], pad)
        a, g, ac = _path_forward(spec.alpha, params.alpha, xf, g_in, mode, keep)
        z, g, bc = _path_forward(spec.beta, params.beta, a, g, mode, keep, a if spec.residual else None)
        if not head:
            return np.ascontiguousarray(layers._interior(z, g.h, g.w, g.p))
        y, g, gc = _path_forward(spec.gamma, params.gamma, z, g, mode, keep)
    out = layers.sigmoid(layers._interior(y, g.h, g.w, g.p))
    return out, ((ac, bc, gc, out, g, g_in) if keep else None)


def trunk_forward(params: NetParams, x: np.ndarray, mode: str = "eval") -> np.ndarray:
    """Pre-gamma features alpha(x) + beta(alpha(x)) under the residual rule;
    an inference pass that keeps no block caches."""
    return _forward(params, x, mode, keep=False, head=False)


def head_params(params: NetParams, gamma: list) -> NetParams:
    """The output stage with parameters ``gamma`` as a network on trunk_forward's features."""
    spec = params.spec
    c = _stage_shapes(spec, 0, 0)[2][0].c  # gamma's input channels
    return NetParams(ArchSpec(spec.name, c, spec.out_channels, (), (), spec.gamma, False), [], [], gamma)


def net_forward_cached(params: NetParams, x: np.ndarray, mode: str = "eval"):
    """Full forward pass keeping intermediate state for net_backward."""
    return _forward(params, x, mode, keep=True)


def net_forward(params: NetParams, inputs, mode: str = "eval") -> np.ndarray:
    """Run the fusion network on an ImagePair or a raw (n, c, h, w) tensor.

    The pooled variant needs spatial dims divisible by 4. Output shape is
    (n, 1, h, w) with values in (0, 1) from the final sigmoid. No block
    cache is kept, so the pass holds only the live activations.
    """
    return _forward(params, inputs, mode, keep=False)[0]


def net_backward(params: NetParams, cache, grad_out: np.ndarray, _input_grad: bool = True):
    """(grads aligned with trainable_arrays order, grad wrt input); without
    ``_input_grad`` the input gradient is skipped and returned as None."""
    spec = params.spec
    a_caches, b_caches, g_caches, out, g, g_in = cache
    gy = g.zeros(*out.shape[:2])
    g.inner(gy)[...] = layers.sigmoid_backward(grad_out, out)
    with layers.blas_pinned():
        gz, g_grads = _path_backward(spec.gamma, params.gamma, g_caches, gy)
        # a block's backward may overwrite its gradient: beta gets its own copy
        gh, b_grads = _path_backward(spec.beta, params.beta, b_caches, gz.copy() if spec.residual else gz)
        if spec.residual:
            gh += gz
        gx, a_grads = _path_backward(spec.alpha, params.alpha, a_caches, gh, _input_grad)
    gx = layers._interior(gx, g_in.h, g_in.w, g_in.p) if _input_grad else None
    return a_grads + b_grads + g_grads, gx


def net_output_image(params: NetParams, pair: ImagePair) -> ImageGray:
    out = net_forward(params, pair, mode="eval")
    return ImageGray(np.clip(out[0, 0], 0.0, 1.0))


# ---------------------------------------------------------------------------
# Weight files: magic "AENW", then name/shape metadata and float32 payloads.
# ---------------------------------------------------------------------------

_MAGIC = b"AENW"
_VERSION = 1


def _weight_blob(params: NetParams) -> bytes:
    name = params.spec.name.encode("utf-8")
    chunks = [
        _MAGIC,
        struct.pack("<I", _VERSION),
        struct.pack("<H", len(name)),
        name,
        struct.pack("<HH", params.spec.in_channels, count_groups(params.spec)),
    ]
    arrays = state_arrays(params)
    chunks.append(struct.pack("<I", len(arrays)))
    for arr in arrays:
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return b"".join(chunks)


def weight_file_bytes(params: NetParams) -> int:
    """Exact serialized size: header plus 4 bytes per stored float."""
    return len(_weight_blob(params))


def save_weights(params: NetParams, path) -> None:
    try:
        Path(path).write_bytes(_weight_blob(params))
    except OSError as exc:
        raise IoError(str(exc)) from exc


def load_weights(path, spec: ArchSpec | None = None) -> NetParams:
    """Rebuild NetParams from an AENW file.

    Built-in specs are reconstructed from the stored name; pass ``spec``
    explicitly for custom architectures.
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(str(exc)) from exc
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(blob):
            raise TruncationError(f"weight file ends at byte {len(blob)}, needed {pos + n}")
        pos += n
        return blob[pos - n : pos]

    def unpack(fmt):
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    if take(4) != _MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {_MAGIC!r}")
    (version,) = unpack("<I")
    if version != _VERSION:
        raise FormatError(f"unsupported version {version}")
    (name_len,) = unpack("<H")
    try:
        name = take(name_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"spec name is not UTF-8: {exc}") from exc
    in_channels, groups = unpack("<HH")
    if spec is None:
        try:
            spec = builtin_spec(name, in_channels=in_channels, groups=groups)
        except SpecError as exc:
            raise FormatError(f"header describes no valid built-in: {exc}") from exc
    # every state value is a 4-byte float: a header whose network cannot fit
    # in the rest of the file fails before that network is allocated
    need = 4 * sum(count_state(spec))
    if need > len(blob) - pos:
        raise TruncationError(
            f"spec {spec.name!r} needs {need} payload bytes, the file has {len(blob) - pos} after its header"
        )
    params = build_network(spec, seed=0)
    targets = state_arrays(params)
    (n_arrays,) = unpack("<I")
    if n_arrays != len(targets):
        raise FormatError(f"file holds {n_arrays} arrays, spec needs {len(targets)}")
    for i, tgt in enumerate(targets):
        (ndim,) = unpack("<B")
        shape = unpack(f"<{ndim}I")
        if shape != tgt.shape:
            raise FormatError(f"array {i}: shape {shape} != spec shape {tgt.shape}")
        # the shape matches the spec, so the payload size is bounded before reading
        data = np.frombuffer(take(4 * tgt.size), dtype="<f4")
        if not np.isfinite(data).all():
            raise FormatError(f"array {i} holds non-finite values")
        tgt[...] = data.reshape(shape)
    if pos != len(blob):
        raise FormatError(f"{len(blob) - pos} trailing bytes after the last array")
    return params
