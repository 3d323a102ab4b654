"""Corrupted PGM, AENW, NIQE and bank files fail only with EvoFuseError.

Each example takes one valid file, corrupts it once (truncation at a drawn
offset, one flipped bit, or one header integer raised to a drawn larger
value) and loads it with warnings turned into errors. A load may succeed
(a flipped pixel bit is still a valid image); any exception other than an
EvoFuseError fails the test.
"""

import struct
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evofuse.errors import EvoFuseError
from evofuse.evolution import MANIFEST_NAME, load_bank
from evofuse.image import load_pgm
from evofuse.net.network import build_network, load_weights, save_weights
from evofuse.niqe import FEATURE_DIM, NiqeModel, load_niqe_model, save_niqe_model


def pgm_blob(width, height, maxval, payload=None):
    if payload is None:
        size = width * height * (1 if maxval == 255 else 2)
        payload = bytes(range(256)) * (size // 256) + bytes(range(size % 256))
    return f"P5\n# fuzz\n{width} {height}\n{maxval}\n".encode("ascii") + payload


def pgm_inflations(blob):
    """The width, height and maxval of a pgm_blob, one raised by 1 + big."""
    _, _, dims, maxval, payload = blob.split(b"\n", 4)
    fields = [*map(int, dims.split()), int(maxval)]

    def inflate(i):
        return lambda big: pgm_blob(
            *(v + 1 + big if j == i else v for j, v in enumerate(fields)), payload=payload
        )

    return [inflate(i) for i in range(3)]


def struct_inflation(blob, offset, fmt):
    def inflate(big):
        (value,) = struct.unpack_from(fmt, blob, offset)
        top = (1 << (8 * struct.calcsize(fmt))) - 1
        out = bytearray(blob)
        struct.pack_into(fmt, out, offset, value + 1 + big % (top - value))
        return bytes(out)

    return inflate


def aenw_blob(tmp_path):
    save_weights(build_network("gcb", seed=0), tmp_path / "w.aenw")
    return (tmp_path / "w.aenw").read_bytes()


def aenw_inflations(blob):
    """Name length, array count and the first array's ndim and leading dim."""
    name_len = struct.unpack_from("<H", blob, 8)[0]
    count_at = 10 + name_len + 4
    return [
        struct_inflation(blob, 8, "<H"),
        struct_inflation(blob, count_at, "<I"),
        struct_inflation(blob, count_at + 4, "<B"),
        struct_inflation(blob, count_at + 5, "<I"),
    ]


def niqe_blob(tmp_path):
    d = FEATURE_DIM
    model = NiqeModel(mu_ref=np.linspace(-1.0, 1.0, d), cov_ref=np.eye(d) + 0.1)
    save_niqe_model(model, tmp_path / "m.niqe")
    return (tmp_path / "m.niqe").read_bytes()


MANIFEST = b"p0\tavg\t0.500000\tp0.pgm\np1\tlp\t0.250000\tp1.pgm\n"


def make_files(tmp_path):
    """{format: (valid blob, loader of a blob written to disk, inflations)}."""
    pgm = pgm_blob(5, 3, 255)
    pgm16 = pgm_blob(3, 2, 65535)

    def write(name, blob):
        path = tmp_path / name
        path.write_bytes(blob)
        return path

    def bank_with(manifest, pgm_file):
        root = tmp_path / "bank"
        root.mkdir(exist_ok=True)
        write(f"bank/{MANIFEST_NAME}", manifest)
        write("bank/p0.pgm", pgm_file)
        write("bank/p1.pgm", pgm)
        return load_bank(root)

    aenw = aenw_blob(tmp_path)
    niqe = niqe_blob(tmp_path)
    return {
        "pgm": (pgm, lambda b: load_pgm(write("f.pgm", b)), pgm_inflations(pgm)),
        "pgm16": (pgm16, lambda b: load_pgm(write("f.pgm", b)), pgm_inflations(pgm16)),
        "aenw": (aenw, lambda b: load_weights(write("f.aenw", b)), aenw_inflations(aenw)),
        "niqe": (niqe, lambda b: load_niqe_model(write("f.niqe", b)),
                 [struct_inflation(niqe, 4, "<I")]),
        "manifest": (MANIFEST, lambda b: bank_with(b, pgm), []),
        "bank_pgm": (pgm, lambda b: bank_with(MANIFEST, b), pgm_inflations(pgm)),
    }


@st.composite
def corruptions(draw, files):
    name = draw(st.sampled_from(sorted(files)))
    blob, load, inflations = files[name]
    kinds = ["truncate", "flip"] + (["inflate"] if inflations else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        bad = blob[: draw(st.integers(0, len(blob) - 1))]
    elif kind == "flip":
        at, bit = draw(st.integers(0, len(blob) - 1)), draw(st.integers(0, 7))
        bad = blob[:at] + bytes([blob[at] ^ (1 << bit)]) + blob[at + 1 :]
    else:
        inflate = draw(st.sampled_from(inflations))
        bad = inflate(draw(st.integers(0, 1 << 64)))
    return name, load, bad


def test_corrupted_files_raise_only_evofuse_errors(tmp_path_factory):
    files = make_files(tmp_path_factory.mktemp("fuzz"))
    for blob, load, _ in files.values():
        load(blob)  # every valid file loads

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(corruptions(files))
    def check(case):
        name, load, bad = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                load(bad)
            except EvoFuseError:
                pass

    check()
