"""Command-line entry points.

Each subcommand wraps one pipeline stage; `pipeline` runs them all in
order with the same per-stage seeds, so the two ways of driving a run
produce identical artifacts.  Exit codes: 0 success, 1 typed failure,
2 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import PipelineConfig, load_config, validate_config
from .errors import ConfigError, SubmapError
from . import pipeline as pl
from .synthetic import generate_instance


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="INI config file")
    p.add_argument("--out", required=True, help="run directory for artifacts")
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument("--restarts", type=int, default=None,
                   help="override single-GAN restart count")
    p.add_argument("--level", default=None,
                   help="override cluster level policy (last|second_to_last|<index>)")
    p.add_argument("--refine", default=None, choices=["none", "global", "local", "single"],
                   help="override refinement mode")


def _resolve(args) -> PipelineConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "restarts", None) is not None:
        cfg = replace(cfg, single_restarts=args.restarts)
    if getattr(args, "level", None) is not None:
        cfg = replace(cfg, cluster=replace(cfg.cluster, level=args.level))
    if getattr(args, "refine", None) is not None:
        cfg = replace(cfg, refine_mode=args.refine)
    if getattr(args, "stage", None):
        cfg = replace(cfg, stop_after=args.stage)
    validate_config(cfg)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submap",
        description="Cross-lingual embedding mapping with per-subspace adversarial training")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("pipeline", help="run all configured stages in order")
    _add_common(run)
    run.add_argument("--stage", default=None, help="stop after this stage")
    run.add_argument("--resume", action="store_true",
                     help="skip stages whose artifacts already exist; a directory "
                          "whose manifest records another config's hash is refused "
                          "(exit 2)")

    for stage in pl.STAGES.values():
        _add_common(sub.add_parser(stage.command, help=stage.help))

    gen = sub.add_parser("synth-gen", help="write a synthetic piecewise-linear instance")
    gen.add_argument("--out", required=True)
    gen.add_argument("--clusters", type=int, default=3)
    gen.add_argument("--per-cluster", type=int, default=400)
    gen.add_argument("--dim", type=int, default=10)
    gen.add_argument("--separation", type=float, default=5.0)
    gen.add_argument("--noise-sigma", type=float, default=0.01)
    gen.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_synth_gen(args) -> int:
    from .clustering import save_assignments
    from .embeddings import save_embeddings

    inst = generate_instance(args.clusters, args.per_cluster, args.dim,
                             args.separation, args.noise_sigma, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_embeddings(out / "source.vec", inst.source)
    save_embeddings(out / "target.vec", inst.target)
    with open(out / "gold.tsv", "w", encoding="utf-8", newline="\n") as f:
        for s, t in inst.gold:
            f.write(f"{s}\t{t}\n")
    save_assignments(out / "labels.tsv", inst.source.words, inst.labels)
    print(f"wrote synthetic instance ({inst.source.n} words, d={inst.source.dim}) to {out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth-gen":
            return _cmd_synth_gen(args)
        cfg = _resolve(args)
        run = pl.RunDir(args.out)
        if args.command == "pipeline":
            pl.run_pipeline(cfg, args.out, resume=args.resume)
            print(f"pipeline complete; artifacts in {run.root}")
            return 0
        stage = next(name for name, s in pl.STAGES.items() if s.command == args.command)
        metrics = ", ".join(f"{k}={v}" for k, v in pl.run_stage(run, cfg, stage).items())
        print(f"{stage}: {metrics}")
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except SubmapError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
