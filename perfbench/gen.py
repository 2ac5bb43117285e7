"""Input generators for the benchmark workloads.

Run as a child process so that `run.py` itself never holds the
arrays:

    python3 perfbench/gen.py desk     --out DIR --seed N
    python3 perfbench/gen.py rotation --out DIR --seed N --words 4000

`desk` is the acceptance instance drawn by `submap.synthetic`.
`rotation` draws Gaussian clusters in the source space, rotates each
cluster by its own near-identity rotation and then the whole space by
one global rotation that is far from the identity.  The identity
dictionary is the gold standard.  The identity map keeps only about
half of it, so the P@1 that `run.py` checks has to be recovered by
refinement.  The generator writes the identity map's P@1 to
`identity.json` and refuses an instance on which it reaches
IDENTITY_CEILING.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

DIM = 300
CLUSTERS = 8
SEPARATION = 20.0        # cluster centre norm against noise norm sqrt(d) ~ 17
CLUSTER_STRENGTH = 0.5   # |Q - I|_F about 1 per cluster rotation
GLOBAL_STRENGTH = 18.0   # far from the identity: see IDENTITY_CEILING
NOISE_SIGMA = 0.01
EVAL_WORDS = 2000        # the paper workload's evaluation vocabulary
IDENTITY_CEILING = 0.75  # observed 0.43-0.59 over 60 seeds


def _unit(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def cayley_rotation(d: int, strength: float, rng: np.random.Generator) -> np.ndarray:
    """Cayley transform of a random skew-symmetric matrix of Frobenius
    norm `strength`: orthogonal, determinant +1, and |Q - I|_F about
    2 * strength while strength is small."""
    a = rng.normal(size=(d, d))
    skew = (a - a.T) * (strength / np.linalg.norm(a - a.T))
    eye = np.eye(d)
    return np.linalg.solve(eye - skew, eye + skew)


def rotation_instance(words: int, seed: int):
    """(source, target) unit-row matrices; row i of both is word i."""
    rng = np.random.default_rng(seed)
    centers = _unit(rng.normal(size=(CLUSTERS, DIM))) * SEPARATION
    labels = rng.integers(0, CLUSTERS, size=words)
    source = _unit(centers[labels] + rng.normal(size=(words, DIM)))
    target = np.empty_like(source)
    for cid in range(CLUSTERS):
        rows = labels == cid
        target[rows] = source[rows] @ cayley_rotation(DIM, CLUSTER_STRENGTH, rng).T
    target = target @ cayley_rotation(DIM, GLOBAL_STRENGTH, rng).T
    target = _unit(target + rng.normal(scale=NOISE_SIGMA, size=target.shape))
    return source, target


def token(i: int) -> str:
    return f"w{i:07d}"


def identity_p_at_1(source, target) -> float:
    """P@1 of the identity map under the pipeline's own CSLS evaluation,
    on the first EVAL_WORDS words of each space."""
    from submap.embeddings import EmbeddingSpace
    from submap.evaluation import evaluate_bli
    source, target = (EmbeddingSpace(s.words[:EVAL_WORDS], s.vectors[:EVAL_WORDS])
                      for s in (source, target))
    gold = {w: {w} for w in source.words}
    return evaluate_bli(lambda x, idx: x, gold, source, target).p_at_1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind in ("desk", "rotation"):
        k = kinds.add_parser(kind)
        k.add_argument("--out", required=True)
        k.add_argument("--seed", type=int, required=True)
        if kind == "rotation":
            k.add_argument("--words", type=int, required=True)
    args = p.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.kind == "desk":
        from submap.cli import main as submap_main
        return submap_main(["synth-gen", "--out", str(out), "--clusters", "3",
                            "--per-cluster", "400", "--dim", "10", "--separation", "5",
                            "--noise-sigma", "0.01", "--seed", str(args.seed)])
    from submap.embeddings import EmbeddingSpace, save_embeddings
    source, target = rotation_instance(args.words, args.seed)
    words = [token(i) for i in range(args.words)]
    source = EmbeddingSpace(words, source)
    target = EmbeddingSpace(words, target)
    save_embeddings(out / "source.vec", source)
    save_embeddings(out / "target.vec", target)
    with open(out / "gold.tsv", "w", encoding="utf-8", newline="\n") as f:
        f.writelines(f"{w}\t{w}\n" for w in words)
    identity = identity_p_at_1(source, target)
    (out / "identity.json").write_text(json.dumps({"p_at_1": identity}), encoding="utf-8")
    if identity >= IDENTITY_CEILING:
        print(f"error: the identity map already has P@1 {identity}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
