"""Command-line surface.

Subcommands: fuse, eval, select, niqe-fit, train, bench, profile.
Exit codes: 0 success, 2 usage error (argparse), 3 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .bench import BenchProtocol, profile_arch, run_benchmark
from .errors import EvoFuseError
from .evolution import evaluate_candidates, save_bank, select_optimal
from .fusion import DEFAULT_ALGOS, FusionCandidate, REGISTRY, run_bank
from .image import ImagePair, Task, load_image, load_pairs, save_pgm
from .net.arch import BUILTIN_NAMES, builtin_spec, parse_arch_file
from .net.network import save_weights
from .niqe import default_niqe_model, fit_niqe_model, load_niqe_model, save_niqe_model
from .training import TrainConfig, evolve, write_curve_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


def _load_pair(args) -> ImagePair:
    return ImagePair(load_image(args.a), load_image(args.b), "cli-pair", Task(args.task))


def _niqe_from(args):
    if getattr(args, "niqe_model", None):
        return load_niqe_model(args.niqe_model)
    return default_niqe_model()


def _resolve_spec(name: str):
    if name in BUILTIN_NAMES:
        return builtin_spec(name)
    return parse_arch_file(name)


def _scores_dict(scores) -> dict:
    return dataclasses.asdict(scores)


def cmd_fuse(args) -> int:
    pair = _load_pair(args)
    cands = run_bank(pair, [args.algo])
    save_pgm(cands[0].fused, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    pair = _load_pair(args)
    fused = load_image(args.fused)
    candidate = FusionCandidate("cli", fused)
    evaluate_candidates(pair, [candidate], _niqe_from(args))
    print(json.dumps(_scores_dict(candidate.scores), indent=2))
    return EXIT_OK


def cmd_select(args) -> int:
    pair = _load_pair(args)
    algos = args.algos.split(",") if args.algos else list(DEFAULT_ALGOS)
    scored = evaluate_candidates(pair, run_bank(pair, algos), _niqe_from(args))
    best = select_optimal(scored)
    if args.out:
        save_pgm(best.fused, args.out)
    print(
        json.dumps(
            {
                "selected": best.algo_id,
                "combined": best.scores.combined,
                "candidates": [
                    {"algo_id": c.algo_id, "combined": c.scores.combined} for c in scored
                ],
            },
            indent=2,
        )
    )
    return EXIT_OK


def cmd_niqe_fit(args) -> int:
    corpus_dir = Path(args.corpus)
    images = [load_image(p) for p in sorted(corpus_dir.glob("*.pgm"))]
    model = fit_niqe_model(images)
    save_niqe_model(model, args.out)
    print(f"fitted on {len(images)} images -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    phases = ((args.lr1, args.epochs1), (args.lr2, args.epochs2))
    cfg = TrainConfig(
        phases=phases,
        batch_size=args.batch,
        patch=args.patch,
        seed=args.seed,
        loss_threshold=args.loss_threshold,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
    )
    pairs = load_pairs(args.data, Task(args.task))
    if not pairs:
        raise EvoFuseError(f"no *_a.pgm/*_b.pgm pairs under {args.data}")
    curve = []
    params, bank = evolve(
        _resolve_spec(args.spec),
        pairs,
        cfg,
        rounds=args.rounds,
        niqe_model=_niqe_from(args),
        curve_out=curve,
    )
    save_weights(params, args.out)
    if args.bank_dir:
        save_bank(bank, args.bank_dir)
    if args.curve:
        write_curve_csv(curve, args.curve)
    print(f"trained {args.spec} over {args.rounds} round(s) -> {args.out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    protocol = BenchProtocol(image_size=args.size, trials=args.trials)
    methods = args.methods.split(",")
    pairs = load_pairs(args.pairs) if args.pairs else None
    niqe = _niqe_from(args)
    csv_path, json_path = run_benchmark(methods, protocol, args.out, pairs, niqe)
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def cmd_profile(args) -> int:
    report = profile_arch(_resolve_spec(args.spec), args.height, args.width)
    print(json.dumps(report.as_dict(), indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evofuse", description="Self-evolving multi-modal image fusion toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    task_names = [t.value for t in Task]

    def add_pair_args(p):
        p.add_argument("--a", required=True, help="first source image (PGM)")
        p.add_argument("--b", required=True, help="second source image (PGM)")
        p.add_argument("--task", default=Task.IR_VISIBLE.value, choices=task_names)

    p = sub.add_parser("fuse", help="run one fusion algorithm on a pair")
    add_pair_args(p)
    p.add_argument("--algo", required=True, choices=sorted(REGISTRY))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_fuse)

    p = sub.add_parser("eval", help="score a fused image against its sources")
    add_pair_args(p)
    p.add_argument("--fused", required=True)
    p.add_argument("--niqe-model", dest="niqe_model")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("select", help="run the algorithm bank and pick the optimum")
    add_pair_args(p)
    p.add_argument("--algos", help="comma-separated algo ids (default: all)")
    p.add_argument("--out", help="write the selected fusion here")
    p.add_argument("--niqe-model", dest="niqe_model")
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("niqe-fit", help="fit a NIQE model from a pristine PGM corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_niqe_fit)

    p = sub.add_parser("train", help="evolve a fusion network on a pair directory")
    p.add_argument("--spec", required=True, help="built-in name or arch file")
    p.add_argument("--data", required=True, help="directory of <id>_a.pgm/<id>_b.pgm")
    p.add_argument("--task", default=Task.IR_VISIBLE.value, choices=task_names)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--out", required=True, help="weight file to write")
    p.add_argument("--bank-dir", help="also persist the solution bank here")
    p.add_argument("--niqe-model", dest="niqe_model")
    p.add_argument("--lr1", type=float, default=0.001)
    p.add_argument("--epochs1", type=int, default=10)
    p.add_argument("--lr2", type=float, default=0.0001)
    p.add_argument("--epochs2", type=int, default=100)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--patch", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--loss-threshold", type=float, default=0.0)
    p.add_argument("--curve", help="write the loss curve CSV here")
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.add_argument("--checkpoint-dir")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("bench", help="latency/quality/size sweep over methods")
    p.add_argument("--methods", required=True, help="comma-separated algo ids or spec names")
    p.add_argument("--size", type=int, default=400)
    p.add_argument("--trials", type=int, default=300)
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--pairs", help="directory of evaluation pairs")
    p.add_argument("--niqe-model", dest="niqe_model")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("profile", help="analytic cost report for an architecture")
    p.add_argument("--spec", required=True)
    p.add_argument("--h", dest="height", type=int, default=400)
    p.add_argument("--w", dest="width", type=int, default=400)
    p.set_defaults(fn=cmd_profile)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except EvoFuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
