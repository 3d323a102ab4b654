#!/usr/bin/env python3
"""Side-by-side efficiency comparison of the built-in fusion architectures.

Prints parameters, FLOPs at a fixed input size, serialized model bytes and
(optionally) measured latency and memory for every built-in variant,
mirroring the kind of table used to pick the grouped-conv design.
"""

import argparse
import tracemalloc

import numpy as np

from evofuse.bench import BenchProtocol, profile_arch, time_method
from evofuse.net.arch import BUILTIN_NAMES
from evofuse.net.network import build_network, net_forward
from evofuse.synth import bench_pair


def forward_peak_mib(name: str, size: int) -> float:
    """tracemalloc peak of one untimed eval forward of a seed-0 network on a
    size x size pair: the arrays the pass holds at once."""
    params, pair = build_network(name, seed=0), bench_pair(np.random.default_rng(0), size)
    tracemalloc.start()
    try:
        net_forward(params, pair)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=400, help="input side length")
    parser.add_argument("--trials", type=int, default=5, help="timing trials (0 skips timing)")
    parser.add_argument("--specs", default=",".join(BUILTIN_NAMES))
    args = parser.parse_args()

    names = args.specs.split(",")
    rows = []
    for name in names:
        report = profile_arch(name, args.size, args.size)
        measured = ""
        if args.trials >= 2:
            protocol = BenchProtocol(image_size=args.size, trials=args.trials)
            timed = time_method(name, protocol)
            measured = f"{timed.latency_ms_mean:9.1f} +- {timed.latency_ms_std:6.1f}"
            measured += f"  {forward_peak_mib(name, args.size):9.1f}"
        rows.append((name, report.params, report.flops, report.bytes, measured))

    header = f"{'spec':15s} {'params':>9s} {'flops':>14s} {'bytes':>9s}"
    if args.trials >= 2:
        header += f"  {'latency ms':>20s}  {'peak MiB':>9s}"
    print(header)
    print("-" * len(header))
    for name, params, flops, size, measured in rows:
        line = f"{name:15s} {params:9d} {flops:14d} {size:9d}"
        if measured:
            line += f"  {measured:>31s}"
        print(line)
    print(f"\ninput {args.size}x{args.size}, FLOP convention: 1 MAC = 2 FLOPs")
    print("bytes = serialized weight file incl. BN running statistics")
    if args.trials >= 2:
        print("peak MiB = tracemalloc peak of one untimed eval forward")


if __name__ == "__main__":
    main()
