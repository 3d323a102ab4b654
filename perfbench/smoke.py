#!/usr/bin/env python3
"""Fast self-check of the benchmark at tiny sizes (about a minute).

Run from the repository root:

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced at ``--scale smoke`` and
asserts that:
- each result line has the contract's keys, passes its output checks, and
  carries every metric BENCHMARK.json names, with its unit;
- each report names the workload's own end-to-end metrics
  (``infer_*_ms``, ``select_ms``, ``evolve_round_s``, ...);
- each traced op is covered by layer self times within the stated share,
  the span file is valid JSON lines, and tracing overhead is reported;
- without the evofuse sources the benchmark exits non-zero and prints no
  result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import UNATTRIBUTED_LIMIT  # noqa: E402

NAMED = {
    "infer400": ("infer_gcb_ms", "infer_regular_ms", "infer_m_ms"),
    "select400": ("select_ms",),
    "evolve256": ("evolve_round_s", "train_samples_per_s"),
}
COMMON = ("latency_ms", "adj_latency_ms", "setup_s", "setup_raw_s", "peak_rss_mb", "fail_ratio")


def run(cwd: Path, workload: str, trace: int) -> tuple[int, str]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    res = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return res.returncode, res.stdout


def check_result(stdout: str, expected: list) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}, sorted(set(got) ^ {m["name"] for m in expected})
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    for wl in whys:
        code, out = run(ROOT, wl, 0)
        assert code == 0, f"{wl} untraced exited {code}"
        check_result(out, bench["end_to_end"])
        report = json.loads((HERE / "out" / f"{wl}-seed3-trace0.json").read_text())
        assert report["facts"]["why"] == whys[wl], (report["facts"]["why"], whys[wl])
        for name in NAMED[wl] + COMMON:
            assert report["named"][name]["median"] is not None, (wl, name)
            assert report["named"][name]["unit"], (wl, name)

        code, out = run(ROOT, wl, 1)
        assert code == 0, f"{wl} traced exited {code}"
        result = check_result(out, bench["per_layer"])
        share = result["metrics"]["trace.unattributed_share"]["value"]
        assert share <= UNATTRIBUTED_LIMIT, (wl, share)
        report = json.loads((HERE / "out" / f"{wl}-seed3-trace1.json").read_text())
        assert report["trace"]["overhead"]["against"] == f"{wl}-seed3-trace0.json", report["trace"]
        spans = (ROOT / report["trace"]["spans_file"]).read_text().splitlines()
        assert spans and all("name" in json.loads(line) for line in spans)
        print(f"{wl}: ok ({result['attempted']} traced ops, unattributed share {share:.4f})")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        code, out = run(bare, "infer400", 0)
    finally:
        shutil.rmtree(bare)
    assert code != 0 and not out.strip(), (code, out)
    print("without sources: exits", code, "and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
