import numpy as np
import pytest
from dataclasses import replace

from submap.embeddings import EmbeddingSpace, unit_rows
from submap import gan, retrieval
from submap.errors import ConfigError, NumericError, TrainingFailedError
from submap.gan import (Game, GanConfig, discriminator_step, generator_loss_and_grad,
                        generator_step, orthogonalize, random_restart_train,
                        train_single_gan)
from submap.mapping import LinearMap, identity_map
from submap.numerics import MlpDiscriminator, init_discriminator, mlp_sgd_step
from submap.retrieval import selection_criterion
from submap.synthetic import random_orthogonal

from conftest import (frozen_discriminator_step, frozen_generator_step, frozen_mlp_sgd_step,
                      make_space)

SMALL = GanConfig(epochs=2, steps_per_epoch=40, batch_size=8, dis_hidden=16,
                  dis_dropout=0.0, criterion_vocab=50, csls_k=5, seed=0)


def constant_half_discriminator(d, h=4):
    return MlpDiscriminator(np.zeros((h, d)), np.zeros(h), np.zeros((1, h)), 0.0,
                            input_dropout=0.0)


def two_point_spaces():
    """One real word at +x, one source word at -x: lets a hand-built net
    output exactly (1 - s) on real rows and s on fake rows."""
    target = EmbeddingSpace(("real",), np.array([[1.0, 0.0]]))
    source = EmbeddingSpace(("fake",), np.array([[-1.0, 0.0]]))
    return source, target


def one_game(dis, source, target):
    return (Game(dis, target.vectors, source.vectors, 1.0),)


def perfect_discriminator(smoothing):
    # sigma(z(+1)) = 1 - s and sigma(z(-1)) = s via one hidden unit
    z = float(np.log((1 - smoothing) / smoothing))
    w2 = np.array([[2.0 * z / 1.2]])
    b2 = z - w2[0, 0]
    return MlpDiscriminator(np.array([[1.0, 0.0]]), np.zeros(1), w2, b2,
                            input_dropout=0.0, leaky_slope=0.2)


class TestGanConfig:
    @pytest.mark.parametrize("slope", [-0.1, 1.5, float("nan")])
    def test_leaky_slope_outside_unit_interval_rejected(self, slope):
        with pytest.raises(ConfigError):
            GanConfig(dis_leaky_slope=slope).validate()

    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
    def test_leaky_slope_in_unit_interval_accepted(self, slope):
        assert GanConfig(dis_leaky_slope=slope).validate().dis_leaky_slope == slope


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: unlike ==, tells -0.0 from +0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_nets(a: MlpDiscriminator, b: MlpDiscriminator) -> bool:
    return (same_bits(a.w1, b.w1) and same_bits(a.b1, b.b1) and same_bits(a.w2, b.w2)
            and same_bits(np.float64(a.b2), np.float64(b.b2)))


# one game, two played games, and two games of which one has weight 0.0
# (lambda = 1 and lambda = 0 in a subspace generator); the ids of the
# first two are their game counts
WEIGHTS = pytest.mark.parametrize("weights", [(1.0,), (0.7, 0.3), (1.0, 0.0), (0.0, 1.0)],
                                  ids=["1", "2", "2-second-unplayed", "2-first-unplayed"])


def check_steps_match_frozen(m, games, cfg, steps):
    """`steps` discriminator and generator steps against the frozen steps:
    W and every played game's net and loss bit for bit, an unplayed game
    returned as it came with loss None, and the same rng state after
    every step.  The frozen steps still train an unplayed net, whose
    term reaches W only as 0 * term."""
    m_ref, games_ref = m, games
    rng, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(steps):
        stepped, losses = discriminator_step(m, games, cfg, rng)
        games_ref, losses_ref = frozen_discriminator_step(m_ref, games_ref, cfg, rng_ref)
        for old, new, ref, loss, loss_ref in zip(games, stepped, games_ref, losses, losses_ref):
            if old.weight == 0.0:
                assert new.dis is old.dis and loss is None
            else:
                assert same_nets(new.dis, ref.dis) and same_bits(loss, loss_ref)
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        games = stepped
        m, loss = generator_step(m, games, cfg, rng)
        m_ref, loss_ref = frozen_generator_step(m_ref, games_ref, cfg, rng_ref)
        assert same_bits(loss, loss_ref)
        assert same_bits(m.w, m_ref.w)
        assert rng.bit_generator.state == rng_ref.bit_generator.state


class TestStepsMatchFrozenStepMath:
    """The discriminator, generator and MLP steps against the frozen step
    math in conftest (`np.where` activations, one five-output backward
    pass), bit for bit over several steps in a row.  Integer-valued pools
    and weights put pre-activations at exactly 0.0; -0.0 cannot reach one
    through a product plus bias, so `TestActivations` in test_numerics
    covers it directly."""

    D, H, POOL, STEPS = 6, 16, 40, 4

    def pools(self, g, integer):
        if integer:
            return g.integers(-2, 3, size=(self.POOL, self.D)).astype(np.float64)
        return g.normal(size=(self.POOL, self.D))

    def net(self, g, integer, dropout, slope):
        net = init_discriminator(self.D, self.H, dropout, g, slope)
        if integer:
            net = replace(net, w1=g.integers(-2, 3, size=net.w1.shape).astype(np.float64),
                          b1=g.integers(-2, 3, size=self.H).astype(np.float64))
        return net

    def start(self, weights, dropout, slope, integer):
        g = np.random.default_rng(17)
        games = tuple(Game(self.net(g, integer, dropout, slope), self.pools(g, integer),
                           self.pools(g, integer), w) for w in weights)
        w = np.eye(self.D) if integer else random_orthogonal(self.D, 3)
        cfg = replace(SMALL, batch_size=8, dis_dropout=dropout, dis_leaky_slope=slope)
        return LinearMap(w), games, cfg

    @pytest.mark.parametrize("integer", [False, True])
    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @WEIGHTS
    def test_adversarial_steps(self, weights, dropout, slope, integer):
        m, games, cfg = self.start(weights, dropout, slope, integer)
        if integer:
            game = games[0]
            assert (game.real @ game.dis.w1.T + game.dis.b1 == 0.0).any()
        check_steps_match_frozen(m, games, cfg, self.STEPS)

    @pytest.mark.parametrize("integer", [False, True])
    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    def test_mlp_sgd_step(self, dropout, slope, integer):
        g = np.random.default_rng(23)
        net = net_ref = self.net(g, integer, dropout, slope)
        rng, rng_ref = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(self.STEPS):
            batch = self.pools(g, integer)[:8]
            targets = g.uniform(0.05, 0.95, size=8)
            net, loss = mlp_sgd_step(net, batch, targets, 0.3, rng)
            net_ref, loss_ref = frozen_mlp_sgd_step(net_ref, batch, targets, 0.3, rng_ref)
            assert same_bits(loss, loss_ref)
            assert same_nets(net, net_ref)

    @WEIGHTS
    def test_adversarial_steps_at_paper_shape(self, weights):
        """d = 300, hidden 2048, batch 32: BLAS takes other kernels there
        than at the small shape, and the paper runs the steps at it."""
        d, h = 300, 2048
        g = np.random.default_rng(19)
        games = tuple(Game(init_discriminator(d, h, 0.1, g, 0.2), g.normal(size=(64, d)),
                           g.normal(size=(64, d)), w) for w in weights)
        m = LinearMap(random_orthogonal(d, 3))
        cfg = replace(SMALL, batch_size=32, dis_hidden=h, dis_dropout=0.1)
        check_steps_match_frozen(m, games, cfg, 3)


def array_bytes(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def game_arrays(m, games):
    """W and every array a game holds: the net's parameters and both pools."""
    return [m.w] + [a for g in games for a in (g.dis.w1, g.dis.b1, g.dis.w2, g.real, g.fake)]


class TestStepsNeverWriteTheirInputs:
    """The steps sum and update gradients in place: neither the old nets,
    the pools, the batch nor W may change, and no updated parameter may
    share memory with an old one."""

    @pytest.mark.parametrize("weights", [(1.0,), (0.7, 0.3)], ids=["1", "2"])
    def test_adversarial_steps(self, weights):
        m, games, cfg = TestStepsMatchFrozenStepMath().start(weights, 0.1, 0.2, False)
        rng = np.random.default_rng(3)
        before = array_bytes(*game_arrays(m, games))
        stepped, _ = discriminator_step(m, games, cfg, rng)
        assert array_bytes(*game_arrays(m, games)) == before
        for old, new in zip(games, stepped):
            for a, b in zip((old.dis.w1, old.dis.b1, old.dis.w2),
                            (new.dis.w1, new.dis.b1, new.dis.w2)):
                assert not np.shares_memory(a, b)
        before = array_bytes(*game_arrays(m, stepped))
        moved, _ = generator_step(m, stepped, cfg, rng)
        assert array_bytes(*game_arrays(m, stepped)) == before
        assert not np.shares_memory(moved.w, m.w)

    def test_mlp_sgd_step(self):
        g = np.random.default_rng(4)
        net = init_discriminator(6, 16, 0.1, g)
        batch, targets = g.normal(size=(8, 6)), g.uniform(0.05, 0.95, size=8)
        before = array_bytes(net.w1, net.b1, net.w2, batch, targets)
        updated, _ = mlp_sgd_step(net, batch, targets, 0.3, g)
        assert array_bytes(net.w1, net.b1, net.w2, batch, targets) == before
        for a, b in zip((net.w1, net.b1, net.w2), (updated.w1, updated.b1, updated.w2)):
            assert not np.shares_memory(a, b)


class TestOrthogonalize:
    def test_orthogonal_fixed_point(self):
        q = random_orthogonal(4, 3)
        out = orthogonalize(LinearMap(q), beta=0.001)
        assert np.max(np.abs(out.w - q)) < 1e-12

    def test_scaled_identity(self):
        out = orthogonalize(LinearMap(2.0 * np.eye(3)), beta=0.001)
        assert np.allclose(out.w, 1.994 * np.eye(3), atol=1e-12)

    def test_repeated_application_matches_singular_value_recurrence(self):
        # oracle: the scalar recurrence s <- (1+b)s - b s^3 on each
        # singular value, using a matrix built from known factors
        q1, q2 = random_orthogonal(5, 1), random_orthogonal(5, 2)
        svals = np.array([0.5, 0.8, 1.0, 1.2, 1.5])
        m = LinearMap(q1 @ np.diag(svals) @ q2)
        s = svals.copy()
        for _ in range(500):
            m = orthogonalize(m, beta=0.001)
            s = 1.001 * s - 0.001 * s ** 3
        expected_defect = np.sqrt(np.sum((s ** 2 - 1.0) ** 2))
        got_defect = np.linalg.norm(m.w @ m.w.T - np.eye(5))
        assert abs(got_defect - expected_defect) < 1e-9
        # contraction toward orthogonality is slow at beta=0.001: after 500
        # steps the defect is still O(0.1); full convergence takes ~4000
        assert got_defect < np.sqrt(np.sum((svals ** 2 - 1) ** 2))
        for _ in range(4500):
            m = orthogonalize(m, beta=0.001)
        assert np.linalg.norm(m.w @ m.w.T - np.eye(5)) < 1e-3


class TestDiscriminatorStep:
    def test_perfect_discriminator_hits_smoothed_floor(self):
        source, target = two_point_spaces()
        cfg = replace(SMALL, batch_size=4, smoothing=0.1)
        dis = perfect_discriminator(cfg.smoothing)
        _, (loss,) = discriminator_step(identity_map(2), one_game(dis, source, target),
                                        cfg, np.random.default_rng(0))
        s = cfg.smoothing
        floor = -2.0 * ((1 - s) * np.log(1 - s) + s * np.log(s))
        assert abs(loss - floor) < 1e-9

    def test_uninformative_discriminator_loss(self):
        source, target = two_point_spaces()
        dis = constant_half_discriminator(2)
        _, (loss,) = discriminator_step(identity_map(2), one_game(dis, source, target),
                                        SMALL, np.random.default_rng(0))
        assert abs(loss - 2.0 * np.log(2.0)) < 1e-9

    def test_zero_lr_keeps_parameters(self, rng):
        source = make_space(10, 4, seed=1)
        target = make_space(10, 4, seed=2)
        dis = init_discriminator(4, 8, 0.0, rng)
        cfg = replace(SMALL, lr_discriminator=0.0)
        (updated,), _ = discriminator_step(identity_map(4), one_game(dis, source, target),
                                           cfg, np.random.default_rng(0))
        updated = updated.dis
        assert np.array_equal(updated.w1, dis.w1)
        assert np.array_equal(updated.w2, dis.w2)


class TestGeneratorStep:
    def test_zero_lr_only_orthogonalizes(self, rng):
        source = make_space(10, 4, seed=1)
        target = make_space(10, 4, seed=2)
        dis = init_discriminator(4, 8, 0.0, rng)
        w0 = random_orthogonal(4, 9) * 1.01
        cfg = replace(SMALL, lr_generator=0.0)
        out, _ = generator_step(LinearMap(w0), one_game(dis, source, target), cfg,
                                np.random.default_rng(0))
        assert np.allclose(out.w, orthogonalize(LinearMap(w0), cfg.beta).w)

    def test_gradient_matches_finite_differences(self, rng):
        d = 2
        dis = init_discriminator(d, 6, 0.0, rng)
        src = rng.normal(size=(5, d))
        tgt = rng.normal(size=(5, d))
        w = random_orthogonal(d, 4)
        _, grad = generator_loss_and_grad(LinearMap(w), dis, src, tgt, 0.1)
        eps = 1e-5
        numeric = np.zeros_like(w)
        for i in range(d):
            for j in range(d):
                up, down = w.copy(), w.copy()
                up[i, j] += eps
                down[i, j] -= eps
                lp, _ = generator_loss_and_grad(LinearMap(up), dis, src, tgt, 0.1)
                lm, _ = generator_loss_and_grad(LinearMap(down), dis, src, tgt, 0.1)
                numeric[i, j] = (lp - lm) / (2 * eps)
        denom = np.maximum(np.abs(grad) + np.abs(numeric), 1e-8)
        assert np.max(np.abs(grad - numeric) / denom) < 1e-4

    def test_uninformative_discriminator_loss(self):
        source, target = two_point_spaces()
        dis = constant_half_discriminator(2)
        _, loss = generator_step(identity_map(2), one_game(dis, source, target), SMALL,
                                 np.random.default_rng(0))
        assert abs(loss - 2.0 * np.log(2.0)) < 1e-9


class TestTrainSingleGan:
    def test_identical_spaces_keep_high_criterion(self):
        space = make_space(120, 6, seed=5)
        cfg = replace(SMALL, epochs=3, steps_per_epoch=60, criterion_vocab=120)
        crit = train_single_gan(space, space, cfg).criterion
        assert crit >= 0.95

    def test_zero_epochs_returns_identity(self, small_space):
        cfg = replace(SMALL, epochs=0, criterion_vocab=small_space.n)
        trained = train_single_gan(small_space, small_space, cfg)
        best, crit = trained.map, trained.criterion
        assert np.array_equal(best.w, np.eye(small_space.dim))
        expected = selection_criterion(best.apply_source, small_space, small_space,
                                       vocab_limit=cfg.criterion_vocab, k=cfg.csls_k)
        assert crit == expected

    def test_rotated_target_beats_identity(self):
        space = make_space(200, 6, seed=6)
        q = random_orthogonal(6, 7)
        target = EmbeddingSpace(space.words, space.vectors @ q.T)
        cfg = replace(SMALL, epochs=5, steps_per_epoch=200, dis_hidden=32,
                      criterion_vocab=200, seed=2)
        crit = train_single_gan(space, target, cfg).criterion
        ident = selection_criterion(identity_map(6).apply_source, space, target,
                                    vocab_limit=200, k=10)
        assert crit > ident

    def test_training_is_deterministic(self):
        space = make_space(60, 5, seed=8)
        target = make_space(60, 5, seed=9)
        a, b = train_single_gan(space, target, SMALL), train_single_gan(space, target, SMALL)
        assert np.array_equal(a.map.w, b.map.w) and a.criterion == b.criterion

    def test_stays_near_orthogonal(self):
        # desk-scale gradient magnitudes need a desk-scale manifold pull;
        # beta balances the generator lr at this dimensionality
        space = make_space(100, 5, seed=8)
        target = make_space(100, 5, seed=9)
        cfg = replace(SMALL, epochs=3, steps_per_epoch=100, criterion_vocab=100,
                      beta=0.5)
        best = train_single_gan(space, target, cfg).map
        assert best.orthogonality_defect() < 0.05

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            train_single_gan(make_space(10, 4), make_space(10, 5), SMALL)


def scripted_criterion(monkeypatch, values):
    """Make gan._criterion return `values` in order; returns its call log."""
    calls = []

    def criterion(m, source, target, cfg):
        calls.append(m)
        return values[len(calls) - 1]

    monkeypatch.setattr(gan, "_criterion", criterion)
    return calls


class TestPatience:
    # criteria of the start, then of epochs 1..6
    @pytest.mark.parametrize("values,patience,best_epoch,epochs_run", [
        # the start is never beaten; the rise at epoch 2 is no new best
        ([0.5, 0.4, 0.45, 0.3, 0.35, 0.2, 0.1], 2, 0, 2),
        # new bests at epochs 1 and 3, then two epochs below the best
        ([0.5, 0.6, 0.55, 0.7, 0.65, 0.68, 0.9], 2, 3, 5),
        # three epochs that rise but stay below epoch 1's best
        ([0.5, 0.6, 0.55, 0.58, 0.59, 0.9, 1.0], 3, 1, 4),
    ])
    def test_stops_after_patience_epochs_with_no_new_best(self, small_space, monkeypatch,
                                                          values, patience, best_epoch,
                                                          epochs_run):
        monkeypatch.setattr(gan, "_PATIENCE", patience)
        calls = scripted_criterion(monkeypatch, values)
        trained = train_single_gan(small_space, small_space,
                                   replace(SMALL, epochs=6, steps_per_epoch=2))
        assert (trained.best_epoch, trained.epochs_run) == (best_epoch, epochs_run)
        assert trained.criterion == values[best_epoch]
        assert trained.map is calls[best_epoch]
        assert len(calls) == 1 + trained.epochs_run

    def test_zero_patience_runs_every_epoch(self, small_space, monkeypatch):
        values = [0.5, 0.4, 0.45, 0.3, 0.35, 0.2, 0.6]
        for patience, epochs_run, best_epoch in ((0, 6, 6), (2, 2, 0)):
            monkeypatch.setattr(gan, "_PATIENCE", patience)
            calls = scripted_criterion(monkeypatch, values)
            trained = train_single_gan(small_space, small_space,
                                       replace(SMALL, epochs=6, steps_per_epoch=2))
            assert (trained.epochs_run, trained.best_epoch) == (epochs_run, best_epoch)
            assert len(calls) == 1 + epochs_run

    def test_a_tie_is_no_new_best(self, small_space, monkeypatch):
        # epoch 2 only ties epoch 1's best, so epochs 2-4 are three without one
        monkeypatch.setattr(gan, "_PATIENCE", 3)
        calls = scripted_criterion(monkeypatch, [0.5, 0.6, 0.6, 0.55, 0.58, 0.6, 0.6])
        trained = train_single_gan(small_space, small_space,
                                   replace(SMALL, epochs=6, steps_per_epoch=2))
        assert (trained.best_epoch, trained.epochs_run) == (1, 4)
        assert trained.map is calls[1]
        assert len(calls) == 5

    def test_early_stop_returns_the_full_schedule_map(self, monkeypatch):
        # a rotated target whose best snapshot (epoch 2) comes before the
        # stop, with a rise below the best at epoch 4
        space = make_space(200, 6, seed=6)
        target = EmbeddingSpace(space.words, space.vectors @ random_orthogonal(6, 8).T)
        cfg = replace(SMALL, epochs=8, steps_per_epoch=60, dis_hidden=32,
                      criterion_vocab=200, seed=1)
        criterion, calls = gan._criterion, []

        def counting_criterion(*args):
            calls.append(args)
            return criterion(*args)

        monkeypatch.setattr(gan, "_criterion", counting_criterion)
        patience = gan._PATIENCE
        monkeypatch.setattr(gan, "_PATIENCE", 0)
        full = train_single_gan(space, target, cfg)
        assert len(calls) == 1 + full.epochs_run == 9
        calls.clear()
        monkeypatch.setattr(gan, "_PATIENCE", patience)
        early = train_single_gan(space, target, cfg)
        assert len(calls) == 1 + early.epochs_run
        assert early.epochs_run < full.epochs_run and early.best_epoch == full.best_epoch
        assert early.epochs_run == early.best_epoch + patience
        assert early.map.w.tobytes() == full.map.w.tobytes()
        assert early.criterion == full.criterion


class TestRandomRestarts:
    def test_single_restart_equals_plain_training(self, small_space):
        target = make_space(small_space.n, small_space.dim, seed=12)
        cfg = replace(SMALL, criterion_vocab=small_space.n)
        a, _ = random_restart_train(small_space, target, cfg, restarts=1)
        b = train_single_gan(small_space, target, cfg)
        assert np.array_equal(a.map.w, b.map.w) and a.criterion == b.criterion

    def test_three_restarts_return_best_criterion(self, small_space):
        target = make_space(small_space.n, small_space.dim, seed=13)
        cfg = replace(SMALL, criterion_vocab=small_space.n)
        best = random_restart_train(small_space, target, cfg, restarts=3)[0].criterion
        singles = [train_single_gan(small_space, target,
                                    replace(cfg, seed=cfg.seed + i)).criterion
                   for i in range(3)]
        assert best == max(singles)

    def test_identity_criterion_scored_once(self, small_space, monkeypatch):
        # every restart starts from the identity: one criterion for it, then
        # one per epoch of each restart
        target = make_space(small_space.n, small_space.dim, seed=13)
        cfg = replace(SMALL, criterion_vocab=small_space.n)
        csls, calls = retrieval.csls_translate, []

        def counting_csls(*args, **kwargs):
            calls.append(args)
            return csls(*args, **kwargs)

        monkeypatch.setattr(retrieval, "csls_translate", counting_csls)
        random_restart_train(small_space, target, cfg, restarts=3)
        assert len(calls) == 1 + 3 * cfg.epochs

    def test_deterministic_choice(self, small_space):
        target = make_space(small_space.n, small_space.dim, seed=14)
        cfg = replace(SMALL, criterion_vocab=small_space.n)
        a, _ = random_restart_train(small_space, target, cfg, restarts=2)
        b, _ = random_restart_train(small_space, target, cfg, restarts=2)
        assert np.array_equal(a.map.w, b.map.w)

    def test_rejects_zero_restarts(self, small_space):
        with pytest.raises(ConfigError):
            random_restart_train(small_space, small_space, SMALL, restarts=0)


class TestDivergence:
    def test_every_restart_diverging_raises(self, small_space):
        target = make_space(small_space.n, small_space.dim, seed=15)
        cfg = replace(SMALL, lr_discriminator=1e200, criterion_vocab=small_space.n)
        with np.errstate(all="ignore"), pytest.raises(TrainingFailedError,
                                                      match="^all 3 restarts diverged$"):
            random_restart_train(small_space, target, cfg, restarts=3)

    def test_diverged_restarts_are_skipped(self, small_space, monkeypatch):
        target = make_space(small_space.n, small_space.dim, seed=16)
        cfg = replace(SMALL, criterion_vocab=small_space.n)
        train = gan.train_single_gan

        def diverge_on_odd_seeds(source, target, run_cfg, *args):
            if run_cfg.seed % 2:
                raise NumericError("diverged")
            return train(source, target, run_cfg, *args)

        monkeypatch.setattr(gan, "train_single_gan", diverge_on_odd_seeds)
        best_run, _ = random_restart_train(small_space, target, cfg, restarts=4)
        m, crit = best_run.map, best_run.criterion
        kept = [train(small_space, target, replace(cfg, seed=cfg.seed + i)) for i in (0, 2)]
        best = max(kept, key=lambda r: r.criterion)
        assert np.array_equal(m.w, best.map.w) and crit == best.criterion
