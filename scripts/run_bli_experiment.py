#!/usr/bin/env python3
"""Full-scale bilingual lexicon induction driver for pretrained
embeddings in word2vec text format.

Writes a config with the keys its flags set (data paths, seed, refine
mode, restarts, epochs and steps) and runs the whole pipeline.  Every
other value is the default in `submap.config`, which is full scale:
200k vocabulary, 2048 hidden units, a 75k-word discriminator sampling
pool and dynamic subspace weighting.  Expect hours of CPU time on
300-dimensional embeddings; this is an experiment driver, not part of
the test suite.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from submap.cli import main as cli_main


CONFIG = """
[run]
seed = {seed}
refine_mode = {refine}
single_restarts = {restarts}

[data]
source = {source}
target = {target}
gold = {gold}

[single_gan]
epochs = {epochs}
steps_per_epoch = {steps}
"""


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--source", required=True, help="source embeddings (.vec)")
    parser.add_argument("--target", required=True, help="target embeddings (.vec)")
    parser.add_argument("--gold", default="", help="test dictionary for evaluation")
    parser.add_argument("--out", default="runs/bli")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--restarts", type=int, default=10)
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--steps", type=int, default=100000)
    parser.add_argument("--refine", default="global",
                        choices=["none", "global", "local", "single"])
    parser.add_argument("--resume", action="store_true")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "run.ini"
    cfg_path.write_text(CONFIG.format(
        source=args.source, target=args.target, gold=args.gold, seed=args.seed,
        refine=args.refine, restarts=args.restarts, epochs=args.epochs,
        steps=args.steps), encoding="utf-8")
    cli_args = ["pipeline", "--config", str(cfg_path), "--out", str(out / "run")]
    if args.resume:
        cli_args.append("--resume")
    return cli_main(cli_args)


if __name__ == "__main__":
    sys.exit(run())
