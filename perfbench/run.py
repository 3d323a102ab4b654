#!/usr/bin/env python3
"""Benchmark of evofuse: one closed-loop workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload infer400 --seed 0 --seconds 36 --trace 0

Workloads are ``infer400``, ``select400`` and ``evolve256`` (see
``workloads.py`` and README.md). One caller runs ops back to back for
``--seconds`` seconds; an op is started only while its predicted end (the
time the same op of the previous cycle took) stays inside the window, and
at least one full cycle always runs. Every op's output is checked.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
public functions of every evofuse module (``tracer.py``) and reports the
per-layer metrics instead, plus the tracing overhead against the latest
untraced run of the workload in this checkout. A human-readable report goes
to stdout and ``perfbench/out/``; the last stdout line is one JSON object.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3  # fresh interpreters timed for setup_s, besides this one
# Host-speed adjustment. The shared host this benchmark was defined on (2 vCPUs)
# changed speed by up to 70% within minutes, and op times follow the time of a
# fixed NumPy/SciPy kernel mix timed after every op. adj_latency_ms therefore
# scales the run's latency by REF_PROBE_MS / (median probe of the run), and
# setup_s scales each set-up by REF_PROBE_MS / (the probe right after it).
# The run's median, not the probes next to each op: one probe of about 60 ms
# is a noisy sample beside ops of 1-7 s.
REF_PROBE_MS = 60.0  # about one probe on that host when it was quiet
UNATTRIBUTED_LIMIT = 0.05  # layer self times must cover >= 95% of each traced op


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="smoke: tiny inputs for checking the benchmark itself")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def median_tail(samples):
    """(median, n, (percentile, value) or None): the highest whole percentile
    above the median that still has ten samples beyond it."""
    n = len(samples)
    if n == 0:
        return None, 0, None
    med = statistics.median(samples)
    p = math.floor(100 * (1 - 10 / n)) if n > 10 else 0
    if p <= 50:
        return med, n, None
    return med, n, (p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1])


def src_sha256() -> str:
    """Digest of the evofuse sources, which names the code where git cannot."""
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "evofuse").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return src.hexdigest()


def machine_facts(args, wl) -> dict:
    import numpy
    import scipy

    def git_rev():
        try:
            top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return "unavailable"
        lines = top.stdout.split()
        if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
            return "unavailable (not a git checkout)"
        return lines[1]

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": wl.name,
        "why": wl.why,
        "loop": "closed, 1 caller, ops back to back in one process",
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "nproc": NPROC,
        "blas_threads": int(os.environ[BLAS_VARS[0]]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "git_revision": git_rev(),
        "src_sha256": src_sha256(),
    }


def probe_setups(args) -> list[tuple[float, float]]:
    """(set-up seconds, host probe seconds) of SETUP_PROBES fresh
    interpreters, run one after another."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--scale", args.scale, "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
        row = json.loads(res.stdout.strip().splitlines()[-1])
        out.append((row["setup_s"], row["probe_s"]))
    return out


class HostProbe:
    """Times a fixed kernel mix: 11x11 correlation and exp over 400x400,
    a 300x300 matmul, four times (about 60 ms)."""

    def __init__(self):
        import numpy as np
        from scipy import ndimage

        rng = np.random.default_rng(12345)
        img, win, mat = rng.random((400, 400)), rng.random((11, 11)), rng.random((300, 300))

        def mix():
            ndimage.correlate(img, win, mode="reflect")
            mat @ mat
            np.exp(img)

        self._mix = mix
        mix()  # untimed: the first call starts the BLAS threads and warms the kernels

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            self._mix()
        return time.perf_counter() - t0


def measure(wl, seconds, tracer, refs, probe):
    """Closed loop; returns per-kind latencies, extra samples, probe times
    and op counts."""
    from workloads import clock

    probes = [probe()]
    lat: dict[str, list[float]] = {}
    extra: dict[str, list[float]] = {}
    spent: list[float] = []  # wall time of every op attempt, by op index
    ok_ops: list[int] = []
    problems: list[str] = []
    failed = 0
    t0 = clock()
    k = 0
    while True:
        if k >= wl.cycle and clock() - t0 + spent[k - wl.cycle] > seconds:
            break
        start = clock()
        try:
            op = tracer.run_op(k, lambda: wl.run_op(k)) if tracer else wl.run_op(k)
            found = wl.problems(op, refs.get(op.key))
        except Exception as exc:  # a failed op is counted and reported, the loop goes on
            found = [f"op {k}: {type(exc).__name__}: {exc}"]
        probes.append(probe())
        spent.append(clock() - start)
        if found:
            failed += 1
            problems.extend(found)
        else:
            ok_ops.append(k)
            lat.setdefault(op.kind, []).append(op.seconds)
            for key, value in op.extra.items():
                extra.setdefault(key, []).append(value)
        k += 1
    return lat, extra, probes, ok_ops, k, failed, problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(NPROC)
    if not (ROOT / "src" / "evofuse" / "__init__.py").is_file():
        return fail(f"no evofuse sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import PER_LAYER, Tracer, derive
    import workloads
    from workloads import WORKLOADS, make_workdir

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl_cls = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(callers=[workloads])
        tracer.op = "setup"
    OUT.mkdir(exist_ok=True)
    workdir = make_workdir(OUT, str(os.getpid()))
    try:
        wl = wl_cls(args.seed, args.scale, workdir)
        own_setup = time.perf_counter() - T_START
        probe = HostProbe()
        setups = [(own_setup, probe())]
        if args.setup_probe:
            print(json.dumps({"setup_s": setups[0][0], "probe_s": setups[0][1]}))
            return 0
        if not tracer:
            setups += probe_setups(args)
        refs = {}
        if args.scale == "full":
            digests = json.loads((HERE / "references.json").read_text())["digests"]
            refs = digests.get(wl.name, {}).get(str(args.seed), {})
        if tracer:
            tracer.op = "warmup"
        for k in range(wl.warmup):
            wl.run_op(k)
        if tracer:
            tracer.op = None
        lat, extra, probes, ok_ops, attempted, failed, problems = measure(
            wl, args.seconds, tracer, refs, probe
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = machine_facts(args, wl)
    facts["reference_digests"] = f"{len(refs)} for this seed" if refs else "none: invariants only"
    facts["host_probe_ms"] = {"median": 1e3 * statistics.median(probes), "n": len(probes),
                              "reference": REF_PROBE_MS}

    # one op of each kind: the sum of the per-kind medians
    latency_ms = 1e3 * sum(statistics.median(v) for v in lat.values()) if lat else None
    adj_latency_ms = None if latency_ms is None else latency_ms * 1e-3 * REF_PROBE_MS / statistics.median(probes)
    named = {}
    for name, (samples, unit, scale) in wl.named_metrics(lat, extra).items():
        med, n, tail = median_tail(samples)
        named[name] = {
            "median": None if med is None else med * scale,
            "unit": unit,
            "n": n,
            "tail": None if tail is None else {"percentile": tail[0], "value": tail[1] * scale},
            "samples": [v * scale for v in samples],
        }
    named["latency_ms"] = {"median": latency_ms, "unit": "ms", "n": len(ok_ops), "tail": None}
    named["adj_latency_ms"] = {"median": adj_latency_ms, "unit": "ms", "n": len(ok_ops), "tail": None}
    adj_setups = [s * 1e-3 * REF_PROBE_MS / p for s, p in setups]
    named["setup_s"] = {"median": statistics.median(adj_setups), "unit": "s", "n": len(setups), "tail": None,
                        "samples": adj_setups}
    named["setup_raw_s"] = {"median": statistics.median(s for s, _ in setups), "unit": "s",
                            "n": len(setups), "tail": None}
    named["peak_rss_mb"] = {"median": peak_rss_mb, "unit": "MB", "n": 1, "tail": None}
    named["fail_ratio"] = {"median": failed / attempted, "unit": "ratio", "n": attempted, "tail": None,
                           "base": f"{failed} failed / {attempted} attempted"}
    report = {"facts": facts, "named": named, "problems": problems[:20]}
    if hasattr(wl, "profiles"):
        report["efficiency"] = efficiency_table(wl, named)

    if tracer:
        tracer.uninstall()
        flops_of = functools.cache(lambda arch, h, w: workloads.profile_arch(arch, h, w).flops)
        values, notes = derive(tracer, ok_ops, flops_of)
        values["trace.adj_latency_ms"] = adj_latency_ms
        metrics = {name: metric(values[name], unit) for name, unit, _ in PER_LAYER}
        spans_path = OUT / f"{wl.name}-seed{args.seed}.spans.jsonl"
        tracer.write_jsonl(spans_path)
        report["per_layer"] = metrics
        report["trace"] = {**notes, "spans_file": str(spans_path.relative_to(ROOT)),
                           "overhead": trace_overhead(wl.name, args, adj_latency_ms)}
    else:
        metrics = {
            "adj_latency_ms": metric(adj_latency_ms, "ms"),
            "setup_s": metric(named["setup_s"]["median"], "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
        report["end_to_end"] = metrics
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=2))
    print_report(report, metrics)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def efficiency_table(wl, named) -> list[dict]:
    rows = []
    for arch, prof in wl.profiles.items():
        lat = named[f"infer_{arch}_ms"]["median"]
        rows.append({
            "arch": arch,
            "params": prof.params,
            "flops": prof.flops,
            "bytes_computed": prof.bytes,
            "latency_ms": lat,
            "gflops_per_s": prof.flops / lat / 1e6 if lat else None,
        })
    return rows


def trace_overhead(name, args, traced_ms) -> dict:
    """Traced minus untraced adj_latency_ms, against the untraced report of the
    same seed if this checkout has one, else the newest of the workload."""
    same = OUT / f"{name}-seed{args.seed}-trace0.json"
    found = [same] if same.exists() else sorted(OUT.glob(f"{name}-seed*-trace0.json"), key=lambda p: p.stat().st_mtime)
    for path in reversed(found):
        base = json.loads(path.read_text())
        if base["facts"]["scale"] != args.scale:
            continue
        untraced = base["end_to_end"]["adj_latency_ms"]["value"]
        if untraced and traced_ms:
            return {"against": path.name, "untraced_ms": untraced, "traced_ms": traced_ms,
                    "overhead_ms": traced_ms - untraced, "overhead_share": traced_ms / untraced - 1.0}
    return {"against": None, "note": "no untraced report of this workload in this checkout; run --trace 0 first"}


def print_report(report, metrics) -> None:
    facts = report["facts"]
    print(f"== perfbench {facts['workload']} (seed {facts['seed']}, {facts['seconds']} s, "
          f"scale {facts['scale']}, trace {facts['trace']})")
    print(f"why: {facts['why']}")
    print("facts: " + ", ".join(f"{k}={facts[k]}" for k in (
        "loop", "nproc", "blas_threads", "python", "numpy", "scipy", "cpu", "git_revision",
        "src_sha256", "reference_digests", "host_probe_ms")))
    print("end-to-end (median over the run's ops; tail = highest percentile with >= 10 samples beyond it):")
    for name, m in report["named"].items():
        value = "n/a" if m["median"] is None else f"{m['median']:.6g}"
        tail = f", p{m['tail']['percentile']} {m['tail']['value']:.6g}" if m["tail"] else ""
        base = f" ({m['base']})" if "base" in m else ""
        print(f"  {name:22s} {value:>12s} {m['unit']:6s} n={m['n']}{tail}{base}")
    for row in report.get("efficiency", []):
        print(f"  efficiency {row['arch']:8s} params={row['params']} flops={row['flops']} "
              f"bytes={row['bytes_computed']} (computed) latency_ms={row['latency_ms']} "
              f"GFLOP/s={row['gflops_per_s']}")
    for problem in report["problems"]:
        print(f"  FAILED CHECK: {problem}")
    if "per_layer" in report:
        print("per-layer (ms per op unless the name says per call; counts per op):")
        for name, m in metrics.items():
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {name:38s} {value:>12s} {m['unit']}")
        share = metrics["trace.unattributed_share"]["value"]
        verdict = "within" if share <= UNATTRIBUTED_LIMIT else "OUTSIDE"
        print(f"  layer self times cover each op to {share:.4f} unattributed, {verdict} the "
              f"stated share {UNATTRIBUTED_LIMIT}")
        print(f"  challenger_win_ratio base: {report['trace']['challenger_win_ratio_base']}")
        print(f"  tracing overhead: {json.dumps(report['trace']['overhead'])}")
        print(f"  spans: {report['trace']['spans_file']}")


if __name__ == "__main__":
    sys.exit(main())
