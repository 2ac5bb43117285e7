"""Procrustes refinement driven by stochastic dictionary induction.

`refine_linear` refines one map W, as MUSE does: each round induces a
bidirectional seed dictionary with the current map (randomly dropping
similarity scores to escape local optima), solves the orthogonal
Procrustes problem on it, and keeps the best map by mean pair cosine.
The keep probability starts low and doubles whenever the objective
stalls, ending with a deterministic pass.  `global_refine` runs it from
the identity on the piecewise-mapped source space and composes the
result onto every subspace map; `local_refine` runs it per subspace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .embeddings import EmbeddingSpace, unit_rows
from .errors import ConfigError, EmptyDictionaryError
from .mapping import LinearMap, PiecewiseMap, identity_map
from .retrieval import SeedDictionary, induce_seed_dictionary

# VecMap's stochastic dictionary induction schedule (arXiv 1805.06297):
# the first keep probability, its factor after a round that improves the
# objective by less than the threshold, and that threshold
_P0 = 0.1
_MULTIPLIER = 2.0
_THRESHOLD = 1e-6


@dataclass(frozen=True)
class RefineConfig:
    max_iters: int = 50
    vocab_limit: int = 10000
    seed: int = 0

    def validate(self) -> "RefineConfig":
        if self.max_iters < 1 or self.vocab_limit < 1:
            raise ConfigError("max_iters and vocab_limit must be positive")
        return self


def procrustes(dictionary: SeedDictionary, source, target) -> LinearMap:
    """Closed-form orthogonal map minimizing summed squared distances
    over the dictionary pairs, via SVD of Y^T X."""
    if len(dictionary) == 0:
        raise EmptyDictionaryError("cannot refine from an empty dictionary")
    src = source.vectors if isinstance(source, EmbeddingSpace) else np.asarray(source)
    tgt = target.vectors if isinstance(target, EmbeddingSpace) else np.asarray(target)
    x = src[dictionary.pairs[:, 0]]
    y = tgt[dictionary.pairs[:, 1]]
    u, _, vt = np.linalg.svd(y.T @ x)
    return LinearMap(u @ vt)


@dataclass(frozen=True)
class RefineStep:
    iteration: int
    keep_prob: float
    objective: float
    pairs: int


def _pair_objective(m: LinearMap, src_vectors, tgt_vectors,
                    dictionary: SeedDictionary) -> float:
    mapped = unit_rows(m.apply(src_vectors[dictionary.pairs[:, 0]]))
    return float(np.sum(mapped * tgt_vectors[dictionary.pairs[:, 1]], axis=1).mean())


def refine_linear(initial: LinearMap, source: EmbeddingSpace, target: EmbeddingSpace,
                  cfg: RefineConfig) -> tuple[LinearMap, float, list[RefineStep]]:
    """Iterated induce-and-Procrustes from an initial map.

    Returns the best-objective map, its objective and the step log; a
    map fit to fewer than d pairs is returned only when no round reached
    d pairs.  The first induction uses `initial`; later rounds propose
    from the best Procrustes solution so far, once there is one.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    keep_prob = _P0
    best_map: LinearMap | None = None
    best_objective = -np.inf
    fallback: tuple[float, LinearMap] | None = None
    log: list[RefineStep] = []
    for iteration in range(1, cfg.max_iters + 1):
        # propose from the best map found so far; a chain through an
        # unlucky stochastic draw would walk away from solutions it had
        proposer = initial if best_map is None else best_map
        try:
            dictionary = induce_seed_dictionary(proposer.apply_source,
                                                proposer.apply_target_back, source, target,
                                                vocab_limit=cfg.vocab_limit,
                                                keep_prob=keep_prob, rng=rng)
        except EmptyDictionaryError as e:
            raise EmptyDictionaryError(
                f"induction produced no pairs at refinement iteration {iteration}: {e}"
            ) from None
        m = procrustes(dictionary, source, target)
        objective = _pair_objective(m, source.vectors, target.vectors, dictionary)
        log.append(RefineStep(iteration, keep_prob, objective, len(dictionary)))
        # dictionaries below d pairs are fit exactly by an orthogonal map,
        # so their objective says nothing; they may not claim the snapshot
        if len(dictionary) >= source.dim:
            improved = objective - best_objective >= _THRESHOLD
            if objective > best_objective:
                best_map, best_objective = m, objective
        else:
            improved = False
            if fallback is None or objective > fallback[0]:
                fallback = (objective, m)
        if not improved:
            if keep_prob >= 1.0:
                break
            keep_prob = min(1.0, keep_prob * _MULTIPLIER)
    if best_map is None:
        assert fallback is not None
        best_objective, best_map = fallback
    return best_map, best_objective, log


def global_refine(pm: PiecewiseMap, source: EmbeddingSpace, target: EmbeddingSpace,
                  cfg: RefineConfig) -> tuple[PiecewiseMap, float, list[RefineStep]]:
    """Refine one linear map between the piecewise-transformed source
    space and the target space, then compose it onto every subspace map
    (the combination stays piecewise linear).  Returns the composed map,
    the refined linear map's objective and the step log."""
    transformed = EmbeddingSpace(source.words,
                                 unit_rows(pm.transformed_source(source.vectors)))
    w_g, objective, log = refine_linear(identity_map(source.dim), transformed, target, cfg)
    return pm.compose_global(w_g), objective, log


def local_refine(pm: PiecewiseMap, source: EmbeddingSpace, target: EmbeddingSpace,
                 cfg: RefineConfig) -> tuple[PiecewiseMap, dict[int, list[RefineStep]]]:
    """Refine each subspace map against its own target subspace only.

    Subspaces whose local induction degenerates (too few words, or an
    empty dictionary at some iteration) keep their current map.
    """
    pairing = pm.pairing
    new_maps = list(pm.maps)
    logs: dict[int, list[RefineStep]] = {}
    for cluster_id in pairing.cluster_ids():
        cid = int(cluster_id)
        src_rows = pairing.source_members(cid)
        tgt_rows = pairing.target_members(cid)
        if len(src_rows) < 2 or len(tgt_rows) < 2:
            continue
        sub_source = EmbeddingSpace(tuple(source.words[i] for i in src_rows),
                                    source.vectors[src_rows])
        sub_target = EmbeddingSpace(tuple(target.words[i] for i in tgt_rows),
                                    target.vectors[tgt_rows])
        try:
            refined, _, log = refine_linear(pm.maps[cid], sub_source, sub_target,
                                            replace(cfg, seed=cfg.seed + cid))
        except EmptyDictionaryError:
            continue
        new_maps[cid] = refined
        logs[cid] = log
    return PiecewiseMap(pairing, tuple(new_maps), pm.lambdas), logs
