"""The one adversarial trainer: a linear map W between two embedding
spaces, trained against a list of games.

A game is an MLP discriminator classifying whether a vector came from
its pool of target rows or is W applied to its pool of source rows; the
generator loss is the weighted sum over games.  The single map plays
one game against the whole language; each subspace generator
(`multigan`) adds a second against its aligned target subspace.
Discriminators and W are updated alternately with SGD, W is nudged back
toward the orthogonal manifold after every generator step, and the best
epoch snapshot under the unsupervised selection criterion is returned.
A game whose weight is exactly 0.0 is not played: it still draws its
batches and dropout masks, so every other game sees the same rng
stream, but its discriminator is neither stepped nor evaluated, since
its term cannot move W.
A game stops early after `_PATIENCE` epochs in a row with no new best
criterion (the start's counts as the first best).  Every game draws
from its own rng, so a stop returns the full schedule's snapshot unless
a later epoch would have beaten it after the flat ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .embeddings import EmbeddingSpace
from .errors import ConfigError, NumericError, TrainingFailedError, check_finite
from .mapping import LinearMap, identity_map
from .numerics import (MlpDiscriminator, bce_input_gradient, bce_loss_from_logits,
                       init_discriminator, _dropout_mask, _forward, _pass, _sgd_update)
from .retrieval import selection_criterion

_PATIENCE = 2  # epochs in a row with no new best criterion before a game stops; 0 runs all
_LR_DECAY = 0.98  # per-epoch factor on both learning rates, MUSE's (Conneau et al., 2018)


@dataclass(frozen=True)
class GanConfig:
    epochs: int = 5
    steps_per_epoch: int = 1000
    batch_size: int = 32
    lr_generator: float = 0.1
    lr_discriminator: float = 0.1
    beta: float = 0.001
    smoothing: float = 0.1
    dis_freq_vocab: int = 75000
    dis_steps_per_gen_step: int = 1
    seed: int = 0
    dis_hidden: int = 2048
    dis_dropout: float = 0.1
    dis_leaky_slope: float = 0.2
    criterion_vocab: int = 10000
    csls_k: int = 10

    def validate(self) -> "GanConfig":
        check_finite(self)
        positive = ["steps_per_epoch", "batch_size", "lr_generator", "lr_discriminator",
                    "dis_freq_vocab", "dis_steps_per_gen_step", "dis_hidden",
                    "criterion_vocab", "csls_k"]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 < self.beta:
            raise ConfigError(f"beta must be positive, got {self.beta}")
        if not 0.0 <= self.smoothing < 0.5:
            raise ConfigError(f"smoothing must be in [0, 0.5), got {self.smoothing}")
        if not 0.0 <= self.dis_dropout < 1.0:
            raise ConfigError(f"dis_dropout must be in [0, 1), got {self.dis_dropout}")
        if not 0.0 <= self.dis_leaky_slope <= 1.0:
            raise ConfigError(f"dis_leaky_slope must be in [0, 1], got {self.dis_leaky_slope}")
        return self


def orthogonalize(m: LinearMap, beta: float = 0.001) -> LinearMap:
    """One step of W <- (1 + beta) W - beta (W W^T) W.

    Orthogonal matrices are fixed points; repeated application contracts
    every singular value toward 1 at rate about (1 - 2 beta) per step.
    """
    w = m.w
    return LinearMap((1.0 + beta) * w - beta * (w @ w.T) @ w)


@dataclass(frozen=True)
class Game:
    """One adversarial game: a discriminator that learns to tell rows of
    `real` from mapped rows of `fake`, and the weight of its term in the
    generator loss."""

    dis: MlpDiscriminator
    real: np.ndarray  # target rows
    fake: np.ndarray  # source rows, mapped before the discriminator sees them
    weight: float


def language_game(dis: MlpDiscriminator, source: EmbeddingSpace, target: EmbeddingSpace,
                  cfg: GanConfig, weight: float) -> Game:
    """The game against the whole language, over the `dis_freq_vocab`
    most frequent rows of each side."""
    return Game(dis, target.vectors[:cfg.dis_freq_vocab],
                source.vectors[:cfg.dis_freq_vocab], weight)


def _sample(pool: np.ndarray, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform batch of pool rows (with replacement)."""
    return pool[rng.integers(0, pool.shape[0], size=batch_size)]


def discriminator_step(m: LinearMap, games: tuple[Game, ...], cfg: GanConfig,
                       rng: np.random.Generator
                       ) -> tuple[tuple[Game, ...], list[float | None]]:
    """One SGD step per game on -log D(v_t) - log(1 - D(W v_s)), label-smoothed.

    Every game's batches are drawn before any dropout mask.  Returns the
    games with updated discriminators and the pre-update losses.  A game
    of weight 0.0 draws its batches and masks but is returned as it came,
    with loss None.
    """
    batches = [(_sample(g.real, cfg.batch_size, rng),
                m.apply(_sample(g.fake, cfg.batch_size, rng))) for g in games]
    stepped, losses = [], []
    for g, (real, fake) in zip(games, batches):
        if g.weight == 0.0:  # unplayed: draw its masks so later draws keep their order
            _dropout_mask(real.shape, g.dis.input_dropout, rng)
            _dropout_mask(fake.shape, g.dis.input_dropout, rng)
            stepped.append(g)
            losses.append(None)
            continue
        # the fake pass's loss and gradients are summed into the real pass's
        terms = _pass(g.dis, real, 1.0 - cfg.smoothing, rng)
        for i, fake_term in enumerate(_pass(g.dis, fake, cfg.smoothing, rng)):
            terms[i] += fake_term
        loss, *grads = terms
        stepped.append(Game(_sgd_update(g.dis, grads, loss, cfg.lr_discriminator),
                            g.real, g.fake, g.weight))
        losses.append(loss)
    return tuple(stepped), losses


def _mixed_loss_and_grad(m: LinearMap, nets, weights, src_batch: np.ndarray,
                         tgt_batches, smoothing: float):
    """Weighted sum over games of -log D(W v_s) - log(1 - D(v_t)), and its
    gradient in W.

    Every discriminator sees the same mapped source batch and runs in
    eval mode (no dropout); the terms on true target rows carry no
    W-gradient but count in the loss.  A game of weight 0.0 is skipped:
    its term would only add 0 * term to the sums.
    """
    mapped = src_batch @ m.w.T
    loss = dx = None
    for dis, weight, tgt in zip(nets, weights, tgt_batches):
        if weight == 0.0:
            continue
        term, term_dx = bce_input_gradient(dis, mapped, 1.0 - smoothing)
        term += bce_loss_from_logits(_forward(dis, tgt, None)[3], smoothing)
        term_dx *= weight
        loss = weight * term if loss is None else loss + weight * term
        dx = term_dx if dx is None else np.add(dx, term_dx, out=dx)
    return loss, dx.T @ src_batch


def generator_loss_and_grad(m: LinearMap, dis: MlpDiscriminator, src_batch: np.ndarray,
                            tgt_batch: np.ndarray, smoothing: float):
    """Loss -log D(W v_s) - log(1 - D(v_t)) and its gradient in W."""
    return _mixed_loss_and_grad(m, (dis,), (1.0,), src_batch, (tgt_batch,), smoothing)


def generator_step(m: LinearMap, games: tuple[Game, ...], cfg: GanConfig,
                   rng: np.random.Generator) -> tuple[LinearMap, float]:
    """One SGD step on the weighted generator loss w.r.t. W, then orthogonalize.

    The source batch comes from the last (narrowest) game's fake pool;
    each game then draws its own target batch, a game of weight 0.0 too,
    though its discriminator is not evaluated.
    """
    src = _sample(games[-1].fake, cfg.batch_size, rng)
    tgts = [_sample(g.real, cfg.batch_size, rng) for g in games]
    loss, grad_w = _mixed_loss_and_grad(m, [g.dis for g in games], [g.weight for g in games],
                                        src, tgts, cfg.smoothing)
    if not np.isfinite(loss) or not np.all(np.isfinite(grad_w)):
        raise NumericError("non-finite generator loss or gradient")
    stepped = LinearMap(m.w - cfg.lr_generator * grad_w)
    return orthogonalize(stepped, cfg.beta), loss


def _criterion(m: LinearMap, source: EmbeddingSpace, target: EmbeddingSpace,
               cfg: GanConfig) -> float:
    return selection_criterion(m.apply_source, source, target,
                               vocab_limit=cfg.criterion_vocab, k=cfg.csls_k)


@dataclass(frozen=True)
class Trained:
    """One game's result: the best snapshot, its criterion, the epoch it
    was taken after (0 is the start) and the number of epochs that ran."""

    map: LinearMap
    criterion: float
    best_epoch: int
    epochs_run: int


def _train(start: LinearMap, games: tuple[Game, ...], source: EmbeddingSpace,
           target: EmbeddingSpace, cfg: GanConfig, rng: np.random.Generator,
           start_crit: float | None = None) -> Trained:
    """Alternating adversarial training of `start` against `games`.

    Runs up to `epochs` x `steps_per_epoch` generator steps (each preceded
    by `dis_steps_per_gen_step` discriminator steps), evaluates the
    selection criterion of `source` against `target` after every epoch,
    decays the learning rates per epoch and halves them whenever the
    criterion drops, and returns the best snapshot.  With `_PATIENCE` > 0
    it stops once `_PATIENCE` epochs in a row bring no criterion above the
    best so far; the start's criterion is the first best, and a tie is
    no new best.  `start_crit` is the start's criterion when the caller
    already has it.
    """
    current = start
    if start_crit is None:
        start_crit = _criterion(start, source, target, cfg)
    best_map, best_crit, best_epoch = current, start_crit, 0
    prev_crit = start_crit
    lr_g, lr_d = cfg.lr_generator, cfg.lr_discriminator
    epoch = 0
    while epoch < cfg.epochs and not (_PATIENCE and epoch - best_epoch >= _PATIENCE):
        epoch += 1
        epoch_cfg = replace(cfg, lr_generator=lr_g, lr_discriminator=lr_d)
        for _ in range(cfg.steps_per_epoch):
            for _ in range(cfg.dis_steps_per_gen_step):
                games, _ = discriminator_step(current, games, epoch_cfg, rng)
            current, _ = generator_step(current, games, epoch_cfg, rng)
        crit = _criterion(current, source, target, cfg)
        if crit > best_crit:
            best_map, best_crit, best_epoch = current, crit, epoch
        if crit < prev_crit:
            lr_g /= 2.0
            lr_d /= 2.0
        lr_g *= _LR_DECAY
        lr_d *= _LR_DECAY
        prev_crit = crit
    return Trained(best_map, best_crit, best_epoch, epoch)


def _check_pair(source: EmbeddingSpace, target: EmbeddingSpace, cfg: GanConfig) -> None:
    cfg.validate()
    if source.dim != target.dim:
        raise ConfigError(f"dimension mismatch: {source.dim} vs {target.dim}")


def train_single_gan(source: EmbeddingSpace, target: EmbeddingSpace, cfg: GanConfig,
                     start_crit: float | None = None) -> Trained:
    """Adversarial training from an identity start in the one language
    game (weight 1), selected on the whole source vocabulary.
    `start_crit`, when given, is the identity start's criterion."""
    _check_pair(source, target, cfg)
    rng = np.random.default_rng(cfg.seed)
    dis = init_discriminator(source.dim, cfg.dis_hidden, cfg.dis_dropout, rng,
                             cfg.dis_leaky_slope)
    games = (language_game(dis, source, target, cfg, 1.0),)
    return _train(identity_map(source.dim), games, source, target, cfg, rng, start_crit)


def train_each(train, jobs) -> list[Trained | None]:
    """`train(*job)` for each job, in order; None for a job whose training
    diverged (raised NumericError).  The jobs are independent games, each
    drawing from its own rng."""
    results: list[Trained | None] = []
    for job in jobs:
        try:
            results.append(train(*job))
        except NumericError:
            results.append(None)
    return results


def random_restart_train(source: EmbeddingSpace, target: EmbeddingSpace, cfg: GanConfig,
                         restarts: int = 10) -> tuple[Trained, list[Trained | None]]:
    """Train with seeds seed..seed+restarts-1.  Returns the result with the
    best criterion (the first of a tie) and every restart's result in seed
    order, None for one whose training diverged.
    Every restart starts from the identity, whose criterion is computed once."""
    if restarts < 1:
        raise ConfigError(f"restarts must be >= 1, got {restarts}")
    _check_pair(source, target, cfg)
    start_crit = _criterion(identity_map(source.dim), source, target, cfg)
    runs = train_each(train_single_gan, [(source, target, replace(cfg, seed=cfg.seed + i),
                                          start_crit) for i in range(restarts)])
    if not any(runs):
        raise TrainingFailedError(f"all {restarts} restarts diverged")
    return max(filter(None, runs), key=lambda r: r.criterion), runs
