"""The example scripts run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

from evofuse.net.arch import BUILTIN_NAMES

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )


def test_compare_architectures():
    done = run_script("compare_architectures.py", "--size", "16", "--trials", "0")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0].split() == ["spec", "params", "flops", "bytes"]


def test_compare_architectures_rejects_a_size_below_one():
    done = run_script("compare_architectures.py", "--size", "-4", "--trials", "0")
    assert done.returncode != 0
    assert done.stdout == ""
    assert "RangeError: input size must be >= 1, got -4x-4" in done.stderr


def test_compare_architectures_timed_prints_peak_memory():
    done = run_script("compare_architectures.py", "--size", "16", "--trials", "2")
    assert done.returncode == 0, done.stderr
    header, _, *rows = done.stdout.splitlines()
    rows = rows[: rows.index("")]
    assert header.split()[-2:] == ["peak", "MiB"]
    assert [row.split()[0] for row in rows] == list(BUILTIN_NAMES)
    assert all(float(row.split()[-1]) > 0 for row in rows)


def test_run_evolution_demo():
    # NIQE scores need sides of at least 96
    done = run_script("run_evolution_demo.py", "--pairs", "2", "--size", "96", "--rounds", "1", "--epochs", "1")
    assert done.returncode == 0, done.stderr
    assert "after 1 evolution round(s)" in done.stdout
