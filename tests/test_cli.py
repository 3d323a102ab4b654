import json
import zlib

import numpy as np
import pytest

from evofuse.cli import main
from evofuse.image import load_pgm, save_pgm
from evofuse.net.network import load_weights
from evofuse.niqe import save_niqe_model
from evofuse.synth import pristine_corpus, split_focus_pair, toy_pairs


@pytest.fixture(scope="module")
def pair_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("pairs")
    pair = split_focus_pair(size=96)
    save_pgm(pair.a, root / "a.pgm")
    save_pgm(pair.b, root / "b.pgm")
    return root


@pytest.fixture(scope="module")
def niqe_file(tmp_path_factory, niqe_model):
    path = tmp_path_factory.mktemp("model") / "default.niqe"
    save_niqe_model(niqe_model, path)
    return path


def test_fuse_roundtrip(pair_files, tmp_path, capsys):
    out = tmp_path / "fused.pgm"
    rc = main(["fuse", "--algo", "avg", "--a", str(pair_files / "a.pgm"),
               "--b", str(pair_files / "b.pgm"), "--out", str(out)])
    assert rc == 0
    a = load_pgm(pair_files / "a.pgm")
    b = load_pgm(pair_files / "b.pgm")
    fused = load_pgm(out)
    assert np.max(np.abs(fused.data - (a.data + b.data) / 2.0)) <= 1.0 / 255.0


def test_eval_prints_scores_json(pair_files, niqe_file, tmp_path, capsys):
    out = tmp_path / "fused.pgm"
    main(["fuse", "--algo", "lp", "--a", str(pair_files / "a.pgm"),
          "--b", str(pair_files / "b.pgm"), "--out", str(out)])
    capsys.readouterr()
    rc = main(["eval", "--a", str(pair_files / "a.pgm"), "--b", str(pair_files / "b.pgm"),
               "--fused", str(out), "--niqe-model", str(niqe_file)])
    assert rc == 0
    scores = json.loads(capsys.readouterr().out)
    for key in ("en", "ag", "ssim_a", "ssim_b", "psnr_a", "psnr_b",
                "mi_a", "mi_b", "viff", "niqe", "brenner", "combined"):
        assert key in scores
    assert scores["combined"] == 0.5  # single candidate rule


def test_select_reports_candidates(pair_files, niqe_file, tmp_path, capsys):
    out = tmp_path / "best.pgm"
    rc = main(["select", "--a", str(pair_files / "a.pgm"), "--b", str(pair_files / "b.pgm"),
               "--algos", "avg,gradsel,lp", "--niqe-model", str(niqe_file),
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["selected"] in ("avg", "gradsel", "lp")
    assert len(payload["candidates"]) == 3
    assert out.exists()


def test_niqe_fit_cli(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i, img in enumerate(pristine_corpus(n=20, size=96, seed=2)):
        save_pgm(img, corpus / f"img{i:02d}.pgm")
    model_path = tmp_path / "fit.niqe"
    rc = main(["niqe-fit", "--corpus", str(corpus), "--out", str(model_path)])
    assert rc == 0
    assert model_path.exists()


def test_niqe_fit_cli_names_missing_corpus(tmp_path, capsys):
    corpus = tmp_path / "no-such-corpus"
    rc = main(["niqe-fit", "--corpus", str(corpus), "--out", str(tmp_path / "fit.niqe")])
    assert rc == 3
    assert f"not a directory: {corpus}" in capsys.readouterr().err
    assert not (tmp_path / "fit.niqe").exists()


def test_train_cli_writes_weights(tmp_path, niqe_file, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for pair in toy_pairs(n=2, size=96, seed=4):
        save_pgm(pair.a, data / f"{pair.pair_id}_a.pgm")
        save_pgm(pair.b, data / f"{pair.pair_id}_b.pgm")
    weights = tmp_path / "net.aenw"
    rc = main([
        "train", "--spec", "gcb", "--data", str(data), "--rounds", "1",
        "--out", str(weights), "--niqe-model", str(niqe_file),
        "--epochs1", "1", "--epochs2", "1", "--batch", "4", "--patch", "32",
        "--bank-dir", str(tmp_path / "bank"), "--curve", str(tmp_path / "curve.csv"),
    ])
    assert rc == 0
    params = load_weights(weights)
    assert params.spec.name == "gcb"
    assert (tmp_path / "bank" / "manifest.txt").exists()
    curve_lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert curve_lines[0] == "epoch,phase,mean_loss"
    assert len(curve_lines) == 3  # header + 2 epochs


@pytest.mark.parametrize("flag, under", [("--curve", "c.csv"), ("--bank-dir", "bank"), ("--checkpoint-dir", "ck")])
def test_train_cli_names_an_output_it_cannot_write(tmp_path, niqe_file, capsys, flag, under):
    data = tmp_path / "data"
    data.mkdir()
    for pair in toy_pairs(n=2, size=96, seed=4):
        save_pgm(pair.a, data / f"{pair.pair_id}_a.pgm")
        save_pgm(pair.b, data / f"{pair.pair_id}_b.pgm")
    blocker = tmp_path / "F"
    blocker.write_text("a regular file")
    every = ["--checkpoint-every", "1"] if flag == "--checkpoint-dir" else []
    rc = main([
        "train", "--spec", "gcb", "--data", str(data), "--rounds", "1",
        "--out", str(tmp_path / "net.aenw"), "--niqe-model", str(niqe_file),
        "--epochs1", "1", "--epochs2", "1", "--batch", "4", "--patch", "32",
        flag, str(blocker / under), *every,
    ])
    assert rc == 3
    assert str(blocker / under) in capsys.readouterr().err


def test_train_cli_rejects_unpoolable_pairs_first(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    data.mkdir()
    for pair in toy_pairs(n=2, size=98, seed=4):
        save_pgm(pair.a, data / f"{pair.pair_id}_a.pgm")
        save_pgm(pair.b, data / f"{pair.pair_id}_b.pgm")
    monkeypatch.setattr("evofuse.training.init_bank", lambda *a, **k: pytest.fail("bank built"))
    rc = main([
        "train", "--spec", "m", "--data", str(data), "--rounds", "1",
        "--out", str(tmp_path / "net.aenw"), "--patch", "32",
    ])
    assert rc == 3
    assert "multiples of 4, got 98x98" in capsys.readouterr().err
    assert not (tmp_path / "net.aenw").exists()


def test_train_cli_rejects_patch_below_ssim_window_first(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    data.mkdir()
    for pair in toy_pairs(n=2, size=32, seed=4):
        save_pgm(pair.a, data / f"{pair.pair_id}_a.pgm")
        save_pgm(pair.b, data / f"{pair.pair_id}_b.pgm")
    monkeypatch.setattr("evofuse.training.init_bank", lambda *a, **k: pytest.fail("bank built"))
    rc = main([
        "train", "--spec", "gcb", "--data", str(data), "--rounds", "1",
        "--out", str(tmp_path / "net.aenw"), "--patch", "8",
    ])
    assert rc == 3
    assert "smaller than the 11-pixel SSIM window" in capsys.readouterr().err
    assert not (tmp_path / "net.aenw").exists()


@pytest.mark.parametrize(
    "flags,match",
    [
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--checkpoint-every", "-1"], "checkpoint_every must be >= 0"),
        (["--checkpoint-every", "2"], "checkpoint_every=2 needs a checkpoint_dir"),
    ],
)
def test_train_cli_rejects_bad_settings_first(tmp_path, capsys, monkeypatch, flags, match):
    data = tmp_path / "data"
    data.mkdir()
    for pair in toy_pairs(n=2, size=96, seed=4):
        save_pgm(pair.a, data / f"{pair.pair_id}_a.pgm")
        save_pgm(pair.b, data / f"{pair.pair_id}_b.pgm")
    monkeypatch.setattr("evofuse.training.init_bank", lambda *a, **k: pytest.fail("bank built"))
    rc = main([
        "train", "--spec", "gcb", "--data", str(data), "--rounds", "1",
        "--out", str(tmp_path / "net.aenw"), "--patch", "32", *flags,
    ])
    assert rc == 3
    assert match in capsys.readouterr().err
    assert not (tmp_path / "net.aenw").exists()


def test_bench_cli(tmp_path, niqe_file, capsys):
    out = tmp_path / "bench"
    rc = main(["bench", "--methods", "avg,absmax", "--size", "32", "--trials", "2",
               "--out", str(out), "--niqe-model", str(niqe_file)])
    assert rc == 0
    assert (out / "report.csv").exists()
    assert (out / "report.json").exists()


def test_bench_cli_names_a_report_dir_it_cannot_write(tmp_path, niqe_file, capsys):
    blocker = tmp_path / "F"
    blocker.write_text("a regular file")
    rc = main(["bench", "--methods", "avg", "--size", "32", "--trials", "2",
               "--out", str(blocker / "rep"), "--niqe-model", str(niqe_file)])
    assert rc == 3
    assert str(blocker / "rep") in capsys.readouterr().err


def test_bench_cli_rejects_pairs_dir_without_pairs_first(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("evofuse.bench.time_method", lambda *a, **k: pytest.fail("timed"))
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["bench", "--methods", "avg", "--size", "32", "--trials", "2",
               "--out", str(tmp_path / "bench"), "--pairs", str(empty)])
    assert rc == 3
    assert f"no *_a.pgm/*_b.pgm pairs under {empty}" in capsys.readouterr().err
    assert not (tmp_path / "bench").exists()


def test_profile_cli(capsys):
    rc = main(["profile", "--spec", "gcb", "--h", "128", "--w", "128"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "gcb"
    assert report["params"] == 6721
    assert report["assumptions"]["groups"] == 8


def test_missing_file_gives_data_error(tmp_path, capsys):
    rc = main(["fuse", "--algo", "avg", "--a", str(tmp_path / "missing.pgm"),
               "--b", str(tmp_path / "missing.pgm"), "--out", str(tmp_path / "o.pgm")])
    assert rc == 3


def _png_chunk(tag, body):
    return len(body).to_bytes(4, "big") + tag + body + zlib.crc32(tag + body).to_bytes(4, "big")


def test_non_pgm_input_names_the_magic(tmp_path, capsys):
    # a valid 2x2 gray PNG: read as a PGM header, it fails on the whitespace
    # after maxval unless the magic is checked first
    png = tmp_path / "x.png"
    png.write_bytes(
        b"\x89PNG\r\n\x1a\n"
        + _png_chunk(b"IHDR", (2).to_bytes(4, "big") * 2 + bytes([8, 0, 0, 0, 0]))
        + _png_chunk(b"IDAT", zlib.compress(b"\x00\x00\x01" * 2))
        + _png_chunk(b"IEND", b"")
    )
    rc = main(["select", "--a", str(png), "--b", str(png)])
    assert rc == 3
    assert "magic" in capsys.readouterr().err


def test_train_cli_rejects_data_without_pairs(tmp_path, capsys):
    rc = main(["train", "--spec", "gcb", "--data", str(tmp_path), "--out", str(tmp_path / "net.aenw")])
    assert rc == 3
    assert "no *_a.pgm/*_b.pgm pairs" in capsys.readouterr().err
    assert not (tmp_path / "net.aenw").exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["fuse", "--algo", "definitely-not-an-algo"])
    assert exc.value.code == 2
