"""Grayscale image container, binary PGM I/O, patch tiling and filter primitives.

Intensities live in [0, 1] as float64. Quantization to 8-bit levels uses
round-half-up so files and histograms are reproducible across platforms.
All spatial filters use symmetric (reflect) border handling.

The filters are NumPy replicas of SciPy's ``ndimage`` routines that give its
bits: ``correlate1d`` and ``gaussian_filter`` sum each output as the centre
sample times its weight, then (x[i - j] + x[i + j]) times w_j from the
outermost pair inwards; ``filter2_same`` adds the products of ``correlate``
in the kernel's C order, skipping zero weights. Each runs over bands of
rows of the whole stack, ``_BAND`` elements each, so that its temporaries
stay in cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import DimensionError, IoError, ParseError, RangeError, TruncationError


def quantize8(values):
    """Map [0, 1] floats to 8-bit levels with round-half-up."""
    return np.floor(np.asarray(values, dtype=np.float64) * 255.0 + 0.5).astype(np.uint8)


class Task(str, Enum):
    """Fusion task families a source pair can belong to."""

    MULTI_EXPOSURE = "multi_exposure"
    MULTI_FOCUS = "multi_focus"
    MEDICAL = "medical"
    IR_VISIBLE = "ir_visible"
    CVS = "cvs"


@dataclass(frozen=True, eq=False)
class ImageGray:
    """Single-channel raster; ``data`` is (height, width) float64 in [0, 1]."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise DimensionError(f"expected 2-D intensity grid, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionError(f"degenerate image shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise RangeError("non-finite intensities")
        lo, hi = float(arr.min()), float(arr.max())
        if lo < 0.0 or hi > 1.0:
            raise RangeError(f"intensities outside [0, 1]: min={lo}, max={hi}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


@dataclass(frozen=True, eq=False)
class ImagePair:
    """Aligned source pair; ``a`` and ``b`` must share dimensions."""

    a: ImageGray
    b: ImageGray
    pair_id: str
    task: Task = Task.IR_VISIBLE

    def __post_init__(self):
        if self.a.shape != self.b.shape:
            raise DimensionError(
                f"pair {self.pair_id!r}: source shapes differ {self.a.shape} vs {self.b.shape}"
            )

    @property
    def height(self) -> int:
        return self.a.height

    @property
    def width(self) -> int:
        return self.a.width


# ---------------------------------------------------------------------------
# Binary PGM (P5) is the bit-exact interchange format of this toolkit.
# ---------------------------------------------------------------------------

_WS = b" \t\r\n"


def _header_tokens(blob):
    """First four whitespace-separated header tokens and the payload offset.

    '#' starts a comment running to end of line, as allowed by the PGM
    grammar. Exactly one whitespace byte separates maxval from the raster.
    """
    tokens = []
    i, n = 0, len(blob)
    while len(tokens) < 4 and i < n:
        c = blob[i : i + 1]
        if c in _WS:
            i += 1
        elif c == b"#":
            j = blob.find(b"\n", i)
            i = n if j < 0 else j + 1
        else:
            j = i
            while j < n and blob[j : j + 1] not in _WS and blob[j : j + 1] != b"#":
                j += 1
            tokens.append(blob[i:j])
            i = j
    if len(tokens) < 4:
        raise ParseError("incomplete PGM header")
    if i >= n or blob[i : i + 1] not in _WS:
        raise ParseError("missing whitespace after maxval")
    return tokens, i + 1


def load_pgm(path) -> ImageGray:
    """Read a binary PGM (P5) file with maxval 255 or 65535."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(str(exc)) from exc
    # the magic is checked before the header tokens, so that a file in
    # another format (PNG, JPEG) is named as such and not as a bad header
    if not blob.startswith(b"P5"):
        raise ParseError(f"unsupported magic {blob[:2]!r}, expected P5")
    tokens, offset = _header_tokens(blob)
    if tokens[0] != b"P5":
        raise ParseError(f"unsupported magic {tokens[0]!r}, expected P5")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError as exc:
        raise ParseError(f"non-numeric header field: {exc}") from exc
    if width < 1 or height < 1:
        raise ParseError(f"bad dimensions {width}x{height}")
    if maxval not in (255, 65535):
        raise ParseError(f"unsupported maxval {maxval}")
    bytes_per_px = 1 if maxval == 255 else 2
    need = width * height * bytes_per_px
    payload = blob[offset : offset + need]
    if len(payload) < need:
        raise TruncationError(f"expected {need} raster bytes, found {len(payload)}")
    dtype = np.uint8 if maxval == 255 else np.dtype(">u2")
    raw = np.frombuffer(payload, dtype=dtype).reshape(height, width)
    return ImageGray(raw.astype(np.float64) / maxval)


def save_pgm(img: ImageGray, path) -> None:
    """Write a binary PGM (P5), maxval 255, round-half-up quantization."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    try:
        Path(path).write_bytes(header + quantize8(img.data).tobytes())
    except OSError as exc:
        raise IoError(str(exc)) from exc


def load_pairs(directory, task: Task = Task.IR_VISIBLE) -> list[ImagePair]:
    """Load ``<id>_a.pgm`` / ``<id>_b.pgm`` pairs from a directory, sorted by id."""
    root = Path(directory)
    if not root.is_dir():
        raise IoError(f"not a directory: {root}")
    pairs = []
    for a_path in sorted(root.glob("*_a.pgm")):
        pair_id = a_path.name[: -len("_a.pgm")]
        b_path = root / f"{pair_id}_b.pgm"
        if not b_path.exists():
            raise IoError(f"missing partner file {b_path}")
        pairs.append(ImagePair(load_pgm(a_path), load_pgm(b_path), pair_id, task))
    return pairs


# ---------------------------------------------------------------------------
# Patch tiling
# ---------------------------------------------------------------------------


def tile_grid(height: int, width: int, size: int) -> list[tuple[int, int]]:
    """Top-left corners of the aligned patch tiling; tail rows/cols are dropped."""
    if size > height or size > width:
        raise DimensionError(f"patch size {size} exceeds image {height}x{width}")
    return [
        (y, x)
        for y in range(0, height - size + 1, size)
        for x in range(0, width - size + 1, size)
    ]


# ---------------------------------------------------------------------------
# Shared spatial-filter primitives
# ---------------------------------------------------------------------------


_BAND = 1 << 15  # elements per band of a filter pass: its temporaries stay in cache
_WEIGHT_EPS = np.finfo(np.float64).eps  # SciPy skips 2-D weights at or below it


def _bands(n: int, row: int):
    """(start, stop) of bands of n rows of ``row`` elements each."""
    step = max(1, _BAND // row)
    return ((s, min(s + step, n)) for s in range(0, n, step))


def filter2_same(img, kernel) -> np.ndarray:
    """Correlate with an odd 2-D kernel, reflect borders, same-size output.

    Accepts an ImageGray or a raw 2-D array; the output is a raw float grid
    and may leave [0, 1]. Bit for bit SciPy's ``ndimage.correlate(a, kernel,
    mode="reflect")``: the products added to 0 in the kernel's C order.
    """
    arr = img.data if isinstance(img, ImageGray) else np.asarray(img, dtype=np.float64)
    k = np.asarray(kernel, dtype=np.float64)
    if k.ndim != 2:
        raise DimensionError(f"kernel must be 2-D, got ndim={k.ndim}")
    if k.shape[0] % 2 == 0 or k.shape[1] % 2 == 0:
        raise DimensionError(f"kernel dims must be odd, got {k.shape}")
    (h, w), (ry, rx) = arr.shape, (k.shape[0] // 2, k.shape[1] // 2)
    xp = np.pad(arr, ((ry, ry), (rx, rx)), mode="symmetric")
    taps = [(u, v, k[u, v]) for u, v in np.ndindex(k.shape) if abs(k[u, v]) > _WEIGHT_EPS]
    out = np.zeros_like(arr)
    for s, e in _bands(h, w):
        blk, tmp = out[s:e], np.empty((e - s, w))
        for u, v, weight in taps:
            view = xp[s + u : e + u, v : v + w]
            blk += view if weight == 1.0 else np.multiply(view, weight, out=tmp)
    return out


def gaussian_taps(size: int, sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian taps with odd length."""
    if size % 2 == 0:
        raise DimensionError(f"window size must be odd, got {size}")
    r = size // 2
    g = np.exp(-0.5 * (np.arange(-r, r + 1, dtype=np.float64) / sigma) ** 2)
    return g / g.sum()


@lru_cache(maxsize=256)
def _border(n: int, r: int) -> np.ndarray:
    """Sources of positions -r .. n + r - 1 on an axis of n samples (np.pad's
    "symmetric", SciPy's "reflect", at any distance)."""
    return np.pad(np.arange(n), r, mode="symmetric")


def correlate1d(a: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """SciPy's ``ndimage.correlate1d(a, taps, axis, mode="reflect")``, bit for
    bit, for odd taps symmetric about the centre, along axis -1 or -2 of a 2-D
    or stacked array.

    Each band of rows is copied with its border into one reused buffer, in
    which a flat shift of a row (axis -2) or of 1 (axis -1) moves one tap; a
    column pass also sums the 2r positions that span row ends, then drops them."""
    a = np.asarray(a, dtype=np.float64)
    r, rows = taps.size // 2, axis % a.ndim == a.ndim - 2
    h, w = a.shape[-2:]
    out = np.empty(a.shape)
    a3, of = a.reshape(-1, h, w), out.reshape(-1, h * w)
    b, step, wp = len(a3), (w if rows else 1), (w if rows else w + 2 * r)
    bands = list(_bands(h, b * wp))
    src_buf, acc_buf, tmp_buf = (np.empty(b * (bands[0][1] + 2 * r) * wp) for _ in range(3))
    for s, e in bands:
        at = _border(h, r)[s : e + 2 * r] if rows else _border(w, r)
        shape = (b, e - s + 2 * r, w) if rows else (b, e - s, wp)
        src = np.take(a3 if rows else a3[:, s:e], at, axis=2 - rows, mode="clip",
                      out=src_buf[: math.prod(shape)].reshape(shape))
        xf, c, m = src.reshape(b, -1), r * step, (e - s) * wp - 2 * r * (not rows)
        acc = of[:, s * w : e * w] if rows else acc_buf[: b * (e - s) * wp].reshape(b, -1)
        blk, tmp = acc[:, :m], tmp_buf[: b * m].reshape(b, m)
        np.multiply(xf[:, c : c + m], taps[r], out=blk)
        for j in range(r, 0, -1):
            np.add(xf[:, c - j * step : c - j * step + m], xf[:, c + j * step : c + j * step + m], out=tmp)
            tmp *= taps[r - j]
            blk += tmp
        if not rows:
            out.reshape(a3.shape)[:, s:e] = acc.reshape(b, e - s, wp)[..., :w]
    return out


def gaussian_filter(a: np.ndarray, sigma: float) -> np.ndarray:
    """SciPy's ``ndimage.gaussian_filter(a, sigma)`` of a 2-D grid, bit for bit:
    SciPy's kernel of radius int(4 sigma + 0.5), along axis 0, then axis 1."""
    x = np.arange(-int(4.0 * sigma + 0.5), int(4.0 * sigma + 0.5) + 1)
    taps = np.exp(-0.5 / (sigma * sigma) * x**2)
    taps = taps / taps.sum()
    return correlate1d(correlate1d(a, taps, 0), taps, 1)


def separable_filter(a: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Correlate the last two axes with ``taps`` each, reflect borders.

    On a 2-D grid this equals ``filter2_same(a, np.outer(taps, taps))``;
    leading axes are independent images.
    """
    return correlate1d(correlate1d(a, taps, -1), taps, -2)


def _reflect_fold(g: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    # transpose of (reflect-pad by r, then valid correlation) along one axis:
    # full correlation with the flipped taps (the taps themselves, as they are
    # symmetric), then each padded border sample is added back onto the pixel
    # it mirrored; every sample a reflected border of the zero-padded axis
    # reads lies in its r added zeros, so reflect mode sums zeros there
    r = taps.size // 2
    g = np.moveaxis(g, axis, -1)
    n = g.shape[-1]
    padded = np.pad(g, [(0, 0)] * (g.ndim - 1) + [(r, r)])
    full = correlate1d(padded, taps, -1)
    out = full[..., r : r + n].copy()
    out[..., :r] += full[..., :r][..., ::-1]
    out[..., n - r :] += full[..., n + r :][..., ::-1]
    return np.moveaxis(out, -1, axis)


def separable_filter_adjoint(g: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Exact adjoint of ``separable_filter``; needs both sides >= taps.size // 2."""
    return _reflect_fold(_reflect_fold(g, taps, -2), taps, -1)
