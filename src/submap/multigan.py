"""Per-subspace adversarial training: two games per subspace on the
one trainer in `gan`.

Every source subspace gets its own generator, initialized from the
single map.  It plays the language game (a discriminator judging
membership in the full target distribution) and the subspace game (a
discriminator judging membership in the aligned target subspace), and
its generator loss mixes the two with a per-subspace weight lambda
derived from eigenvalue divergences.
"""

from __future__ import annotations

import numpy as np

from .alignment import SubspacePairing
from .embeddings import EmbeddingSpace
from .gan import (GanConfig, Game, Trained, language_game, train_each, _mixed_loss_and_grad,
                  _train)
from .mapping import LinearMap, PiecewiseMap
from .numerics import MlpDiscriminator, covariance_eigenvalues, init_discriminator

LAMBDA_FALLBACK = 0.5
WHOLE_EVD_EPS = 1e-9


def evd(v1: np.ndarray, v2: np.ndarray) -> float:
    """Eigenvalue divergence: summed squared log-gaps between the two
    covariance spectra (eigenvalues floored, descending)."""
    e1 = covariance_eigenvalues(v1)
    e2 = covariance_eigenvalues(v2)
    return float(np.sum((np.log(e1) - np.log(e2)) ** 2))


def dynamic_lambda(sub_source: np.ndarray, sub_target: np.ndarray,
                   whole_source: np.ndarray, whole_target: np.ndarray,
                   whole_evd: float | None = None) -> float:
    """Subspace-to-whole EVD ratio, clamped to [0, 1].

    Falls back to 0.5 when either side of the subspace has fewer than 2
    rows (no covariance spectrum) or the whole-space divergence is
    degenerate; the whole-space EVD can be precomputed once and passed in.
    """
    if min(len(sub_source), len(sub_target)) < 2:
        return LAMBDA_FALLBACK
    if whole_evd is None:
        whole_evd = evd(whole_source, whole_target)
    if whole_evd < WHOLE_EVD_EPS:
        return LAMBDA_FALLBACK
    ratio = evd(sub_source, sub_target) / whole_evd
    return float(min(1.0, max(0.0, ratio)))


def subspace_gen_loss_and_grad(gen: LinearMap, dis_lang: MlpDiscriminator,
                               dis_sub: MlpDiscriminator, lambda_i: float,
                               sub_src_batch: np.ndarray, lang_tgt_batch: np.ndarray,
                               sub_tgt_batch: np.ndarray, smoothing: float):
    """Convex mix (lambda_i, 1 - lambda_i) of the language and subspace
    generator losses on a subspace batch, and its gradient in W."""
    return _mixed_loss_and_grad(gen, (dis_lang, dis_sub), (lambda_i, 1.0 - lambda_i),
                                sub_src_batch, (lang_tgt_batch, sub_tgt_batch), smoothing)


def train_subspace_gan(cluster_id: int, single_map: LinearMap, pairing: SubspacePairing,
                       source: EmbeddingSpace, target: EmbeddingSpace, cfg: GanConfig,
                       lambda_i: float) -> Trained:
    """Train one subspace generator from the single map in the language
    game (weight lambda_i) and the subspace game (weight 1 - lambda_i),
    selected on the subspace's source words."""
    src_rows = pairing.source_members(cluster_id)
    sub_source = source.vectors[src_rows]
    sub_target = target.vectors[pairing.target_members(cluster_id)]
    # seeded by subspace id so training order cannot matter
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, cluster_id)))
    dis_lang = init_discriminator(source.dim, cfg.dis_hidden, cfg.dis_dropout, rng,
                                  cfg.dis_leaky_slope)
    dis_sub = init_discriminator(source.dim, cfg.dis_hidden, cfg.dis_dropout, rng,
                                 cfg.dis_leaky_slope)
    games = (language_game(dis_lang, source, target, cfg, lambda_i),
             Game(dis_sub, sub_target, sub_source, 1.0 - lambda_i))
    sub_space = EmbeddingSpace(tuple(source.words[i] for i in src_rows), sub_source)
    return _train(LinearMap(single_map.w.copy()), games, sub_space, target, cfg, rng)


def train_multi_gan(single_map: LinearMap, pairing: SubspacePairing,
                    source: EmbeddingSpace, target: EmbeddingSpace, cfg: GanConfig,
                    lambda_fixed: float | None = None
                    ) -> tuple[PiecewiseMap, list[Trained | None]]:
    """Train every subspace generator independently from the single map.

    Returns the piecewise map of best snapshots and each subspace's
    result.  A subspace whose training diverges keeps the single map, and
    its result is None.
    """
    cfg.validate()
    cluster_ids = [int(c) for c in pairing.cluster_ids()]
    if lambda_fixed is not None:
        lambdas = [float(lambda_fixed)] * len(cluster_ids)
    else:
        whole = evd(source.vectors, target.vectors)
        lambdas = [dynamic_lambda(source.vectors[pairing.source_members(c)],
                                  target.vectors[pairing.target_members(c)],
                                  source.vectors, target.vectors, whole_evd=whole)
                   for c in cluster_ids]
    runs = train_each(train_subspace_gan, [(c, single_map, pairing, source, target, cfg, lam)
                                           for c, lam in zip(cluster_ids, lambdas)])
    maps = tuple(r.map if r else LinearMap(single_map.w.copy()) for r in runs)
    return PiecewiseMap(pairing, maps, tuple(lambdas)), runs
