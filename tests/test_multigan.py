import numpy as np
import pytest
from dataclasses import replace

from submap.alignment import SubspacePairing
from submap.clustering import Partition, cluster_centroids
from submap.embeddings import EmbeddingSpace, unit_rows
from submap import gan, multigan
from submap.gan import (Game, GanConfig, discriminator_step, generator_loss_and_grad,
                        generator_step, language_game)
from submap.mapping import LinearMap, identity_map
from submap.multigan import (dynamic_lambda, evd, subspace_gen_loss_and_grad,
                             train_multi_gan, train_subspace_gan)
from submap.numerics import MlpDiscriminator, init_discriminator
from submap.retrieval import selection_criterion
from submap.synthetic import generate_instance, random_orthogonal
from submap.errors import TooFewSamplesError

from conftest import frozen_discriminator_step, frozen_generator_step, make_space

SMALL = GanConfig(epochs=2, steps_per_epoch=30, batch_size=8, dis_hidden=16,
                  dis_dropout=0.0, beta=0.5, criterion_vocab=100, csls_k=5, seed=0)


def rows_with_cov_eigs(e1, e2):
    """Four points whose sample covariance is exactly diag(e1, e2)."""
    a = np.sqrt(3.0 * e1 / 2.0)
    b = np.sqrt(3.0 * e2 / 2.0)
    return np.array([[a, 0.0], [-a, 0.0], [0.0, b], [0.0, -b]])


def constant_half_discriminator(d, h=4):
    return MlpDiscriminator(np.zeros((h, d)), np.zeros(h), np.zeros((1, h)), 0.0,
                            input_dropout=0.0)


def criteria_of(runs):
    """Each subspace's criterion, NaN for one whose training diverged."""
    return [np.nan if r is None else r.criterion for r in runs]


def two_games(dis_lang, dis_sub, lambda_i, source, target, sub_source, sub_target):
    return (language_game(dis_lang, source, target, SMALL, lambda_i),
            Game(dis_sub, sub_target, sub_source, 1.0 - lambda_i))


def tiny_pairing(source, pieces=1):
    assignments = np.arange(source.n) % pieces
    part = Partition(assignments, cluster_centroids(source.vectors, assignments))
    return SubspacePairing(part, assignments.copy())


class TestEvd:
    def test_self_is_zero(self, rng):
        v = rng.normal(size=(30, 5))
        assert evd(v, v) == 0.0

    def test_orthogonal_transform_is_zero(self, rng):
        v = rng.normal(size=(30, 5))
        q = random_orthogonal(5, 4)
        assert abs(evd(v, v @ q.T)) < 1e-9

    def test_hand_computed_two_dim_case(self):
        v1 = rows_with_cov_eigs(4.0, 1.0)
        v2 = rows_with_cov_eigs(1.0, 1.0)
        expected = np.log(4.0) ** 2
        assert abs(evd(v1, v2) - expected) < 1e-9

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            evd(np.ones((1, 3)), np.ones((5, 3)))


class TestDynamicLambda:
    def test_subspace_equal_to_whole_gives_one(self, rng):
        v1 = rng.normal(size=(40, 4))
        v2 = rng.normal(size=(40, 4))
        assert dynamic_lambda(v1, v2, v1, v2) == 1.0

    def test_isomorphic_subspace_gives_zero(self, rng):
        sub = rng.normal(size=(30, 4))
        q = random_orthogonal(4, 6)
        whole_s = rng.normal(size=(50, 4))
        whole_t = rng.normal(size=(50, 4)) * 2.0
        assert dynamic_lambda(sub, sub @ q.T, whole_s, whole_t) < 1e-9

    def test_ratio_above_one_clamps(self):
        sub_s = rows_with_cov_eigs(9.0, 1.0)
        sub_t = rows_with_cov_eigs(1.0, 1.0)
        whole_s = rows_with_cov_eigs(2.0, 1.0)
        whole_t = rows_with_cov_eigs(1.0, 1.0)
        # ratio = log(9)^2 / log(2)^2 ~ 10 before clamping
        assert dynamic_lambda(sub_s, sub_t, whole_s, whole_t) == 1.0

    def test_degenerate_whole_falls_back(self, rng):
        v = rng.normal(size=(20, 3))
        assert dynamic_lambda(v, v * 2.0, v, v) == 0.5

    @pytest.mark.parametrize("n_source, n_target", [(1, 20), (20, 1), (1, 1)])
    def test_one_row_side_falls_back(self, rng, n_source, n_target):
        whole_s, whole_t = rng.normal(size=(40, 3)), rng.normal(size=(40, 3)) * 2.0
        assert dynamic_lambda(whole_s[:n_source], whole_t[:n_target], whole_s, whole_t) == 0.5


class TestSubspaceDisSteps:
    def test_uninformative_discriminators_loss(self):
        source = make_space(10, 4, seed=1)
        target = make_space(10, 4, seed=2)
        dl = constant_half_discriminator(4)
        ds = constant_half_discriminator(4)
        _, (loss_l, loss_s) = discriminator_step(
            identity_map(4),
            two_games(dl, ds, 0.5, source, target, source.vectors[:5], target.vectors[:5]),
            SMALL, np.random.default_rng(0))
        assert abs(loss_l - 2 * np.log(2)) < 1e-9
        assert abs(loss_s - 2 * np.log(2)) < 1e-9

    def test_zero_lr_keeps_parameters(self, rng):
        source = make_space(10, 4, seed=1)
        target = make_space(10, 4, seed=2)
        dl = init_discriminator(4, 8, 0.0, rng)
        ds = init_discriminator(4, 8, 0.0, rng)
        cfg = replace(SMALL, lr_discriminator=0.0)
        (new_dl, new_ds), _ = discriminator_step(
            identity_map(4),
            two_games(dl, ds, 0.5, source, target, source.vectors[:5], target.vectors[:5]),
            cfg, np.random.default_rng(0))
        assert np.array_equal(new_dl.dis.w1, dl.w1)
        assert np.array_equal(new_ds.dis.w1, ds.w1)

    def test_gradients_match_finite_differences(self, rng):
        # both discriminator losses share one implementation; check it
        # through the generator-side gradient of each branch separately
        d = 2
        dl = init_discriminator(d, 5, 0.0, rng)
        ds = init_discriminator(d, 5, 0.0, np.random.default_rng(5))
        sub_src = rng.normal(size=(4, d))
        lang_tgt = rng.normal(size=(4, d))
        sub_tgt = rng.normal(size=(4, d))
        w = random_orthogonal(d, 8)
        eps = 1e-5
        for lam in (0.0, 1.0, 0.5):
            _, grad = subspace_gen_loss_and_grad(LinearMap(w), dl, ds, lam,
                                                 sub_src, lang_tgt, sub_tgt, 0.1)
            numeric = np.zeros_like(w)
            for i in range(d):
                for j in range(d):
                    up, down = w.copy(), w.copy()
                    up[i, j] += eps
                    down[i, j] -= eps
                    lp, _ = subspace_gen_loss_and_grad(LinearMap(up), dl, ds, lam,
                                                       sub_src, lang_tgt, sub_tgt, 0.1)
                    lm, _ = subspace_gen_loss_and_grad(LinearMap(down), dl, ds, lam,
                                                       sub_src, lang_tgt, sub_tgt, 0.1)
                    numeric[i, j] = (lp - lm) / (2 * eps)
            denom = np.maximum(np.abs(grad) + np.abs(numeric), 1e-8)
            assert np.max(np.abs(grad - numeric) / denom) < 1e-4


class TestSubspaceGenStep:
    def test_lambda_one_ignores_subspace_discriminator(self, rng):
        d = 3
        dl = init_discriminator(d, 6, 0.0, rng)
        ds_a = init_discriminator(d, 6, 0.0, np.random.default_rng(1))
        ds_b = init_discriminator(d, 6, 0.0, np.random.default_rng(2))
        sub_src = rng.normal(size=(5, d))
        lang_tgt = rng.normal(size=(5, d))
        sub_tgt = rng.normal(size=(5, d))
        w = random_orthogonal(d, 9)
        _, grad_a = subspace_gen_loss_and_grad(LinearMap(w), dl, ds_a, 1.0,
                                               sub_src, lang_tgt, sub_tgt, 0.1)
        _, grad_b = subspace_gen_loss_and_grad(LinearMap(w), dl, ds_b, 1.0,
                                               sub_src, lang_tgt, sub_tgt, 0.1)
        assert np.allclose(grad_a, grad_b)  # subspace net cannot matter

    def test_lambda_zero_matches_single_gan_loss(self, rng):
        # Eq. 6 at lambda = 0 must equal the single-GAN generator loss
        # evaluated with the subspace discriminator and subspace batches
        d = 3
        dl = init_discriminator(d, 6, 0.0, rng)
        ds = init_discriminator(d, 6, 0.0, np.random.default_rng(1))
        sub_src = rng.normal(size=(5, d))
        lang_tgt = rng.normal(size=(5, d))
        sub_tgt = rng.normal(size=(5, d))
        w = random_orthogonal(d, 9)
        loss_multi, grad_multi = subspace_gen_loss_and_grad(
            LinearMap(w), dl, ds, 0.0, sub_src, lang_tgt, sub_tgt, 0.1)
        loss_single, grad_single = generator_loss_and_grad(
            LinearMap(w), ds, sub_src, sub_tgt, 0.1)
        assert abs(loss_multi - loss_single) < 1e-12
        assert np.allclose(grad_multi, grad_single)

    def test_half_lambda_uninformative_discriminators(self):
        source = make_space(10, 4, seed=1)
        target = make_space(10, 4, seed=2)
        dl = constant_half_discriminator(4)
        ds = constant_half_discriminator(4)
        _, loss = generator_step(
            identity_map(4),
            two_games(dl, ds, 0.5, source, target, source.vectors[:6], target.vectors[:6]),
            SMALL, np.random.default_rng(0))
        assert abs(loss - 2 * np.log(2)) < 1e-9


class TestTrainMultiGan:
    def test_zero_epochs_keeps_single_map(self, small_space):
        q = random_orthogonal(small_space.dim, 3)
        single = LinearMap(q)
        pairing = tiny_pairing(small_space, pieces=2)
        cfg = replace(SMALL, epochs=0, criterion_vocab=small_space.n)
        pm, runs = train_multi_gan(single, pairing, small_space, small_space, cfg)
        criteria = criteria_of(runs)
        assert len(pm.maps) == 2
        for m in pm.maps:
            assert np.array_equal(m.w, q)
        assert all(np.isfinite(criteria))

    def test_single_subspace_does_not_regress(self):
        inst = generate_instance(1, 120, 6, 5.0, 0.0, seed=4)
        q = random_orthogonal(6, 11)
        target = EmbeddingSpace(inst.source.words,
                                unit_rows(inst.source.vectors @ q.T))
        single = LinearMap(q)  # already aligned
        pairing = tiny_pairing(inst.source, pieces=1)
        cfg = replace(SMALL, epochs=2, steps_per_epoch=50, criterion_vocab=120)
        pm, runs = train_multi_gan(single, pairing, inst.source, target, cfg)
        criteria = criteria_of(runs)
        start = selection_criterion(lambda v, i: v @ q.T, inst.source, target,
                                    vocab_limit=120, k=5)
        assert criteria[0] >= start - 0.02

    def test_subspace_result_independent_of_training_order(self, small_space):
        # a subspace's outcome is a function of its id and the config only
        target = make_space(small_space.n, small_space.dim, seed=30)
        pairing = tiny_pairing(small_space, pieces=2)
        single = identity_map(small_space.dim)
        cfg = replace(SMALL, epochs=1, steps_per_epoch=20, criterion_vocab=20)
        pm, runs = train_multi_gan(single, pairing, small_space, target, cfg)
        criteria = criteria_of(runs)
        lam1 = dynamic_lambda(small_space.vectors[pairing.source_members(1)],
                              target.vectors[pairing.target_members(1)],
                              small_space.vectors, target.vectors)
        assert pm.lambdas[1] == lam1
        alone = train_subspace_gan(1, single, pairing, small_space, target, cfg, lam1)
        alone1, crit1 = alone.map, alone.criterion
        assert np.array_equal(pm.maps[1].w, alone1.w)
        assert criteria[1] == crit1

    def test_lambda_fixed_override(self, small_space):
        target = make_space(small_space.n, small_space.dim, seed=31)
        pairing = tiny_pairing(small_space, pieces=2)
        cfg = replace(SMALL, epochs=0, criterion_vocab=20)
        pm, _ = train_multi_gan(identity_map(small_space.dim), pairing,
                                small_space, target, cfg, lambda_fixed=0.5)
        assert pm.lambdas == (0.5, 0.5)

    def test_one_word_target_subspace_trains_at_fallback_lambda(self, small_space):
        # the target side of subspace 1 holds one word: it has no
        # covariance spectrum, so its lambda is the fallback
        target = make_space(small_space.n, small_space.dim, seed=34)
        assignments = np.zeros(small_space.n, dtype=np.int64)
        assignments[3] = 1
        pairing = SubspacePairing(tiny_pairing(small_space, pieces=2).source_partition,
                                  assignments)
        cfg = replace(SMALL, epochs=1, steps_per_epoch=5, criterion_vocab=20)
        pm, runs = train_multi_gan(identity_map(small_space.dim), pairing, small_space,
                                   target, cfg)
        assert pm.lambdas[1] == multigan.LAMBDA_FALLBACK
        assert all(r is not None for r in runs)

    def test_fixed_lambda_computes_no_spectrum(self, small_space, monkeypatch):
        target = make_space(small_space.n, small_space.dim, seed=35)
        pairing = tiny_pairing(small_space, pieces=2)
        cfg = replace(SMALL, epochs=1, steps_per_epoch=10, criterion_vocab=20)
        args = (identity_map(small_space.dim), pairing, small_space, target, cfg, 0.25)
        expected, _ = train_multi_gan(*args)

        def no_spectrum(vectors):
            raise AssertionError("covariance spectrum computed under a fixed lambda")

        monkeypatch.setattr(multigan, "covariance_eigenvalues", no_spectrum)
        pm, _ = train_multi_gan(*args)
        assert all(a.w.tobytes() == b.w.tobytes() for a, b in zip(pm.maps, expected.maps))

    @pytest.mark.parametrize("lam", [1.0, 0.0])
    def test_unplayed_game_keeps_the_frozen_steps_maps(self, small_space, monkeypatch, lam):
        # the frozen steps still train and evaluate a weight-0 game
        target = make_space(small_space.n, small_space.dim, seed=36)
        pairing = tiny_pairing(small_space, pieces=2)
        cfg = replace(SMALL, epochs=2, steps_per_epoch=20, dis_dropout=0.1,
                      criterion_vocab=20)
        args = (LinearMap(random_orthogonal(small_space.dim, 5)), pairing, small_space,
                target, cfg, lam)
        pm, _ = train_multi_gan(*args)
        monkeypatch.setattr(gan, "discriminator_step", frozen_discriminator_step)
        monkeypatch.setattr(gan, "generator_step", frozen_generator_step)
        ref, _ = train_multi_gan(*args)
        assert all(a.w.tobytes() == b.w.tobytes() for a, b in zip(pm.maps, ref.maps))
        assert any(a.w.tobytes() != args[0].w.tobytes() for a in pm.maps)

    def test_maps_stay_near_orthogonal(self):
        inst = generate_instance(2, 80, 6, 5.0, 0.01, seed=6)
        pairing = SubspacePairing(
            Partition(inst.labels, cluster_centroids(inst.source.vectors, inst.labels)),
            inst.labels.copy())
        cfg = replace(SMALL, epochs=2, steps_per_epoch=80, criterion_vocab=160)
        pm, _ = train_multi_gan(identity_map(6), pairing, inst.source, inst.target, cfg)
        for m in pm.maps:
            assert m.orthogonality_defect() < 0.05

    def test_criterion_improves_on_rotated_subspaces(self):
        # each cluster rotated by its own matrix; per-subspace training
        # should beat the shared map's per-subspace criterion on >= 2 of 3
        # subspaces for the best of 3 restart seeds
        inst = generate_instance(3, 100, 8, 5.0, 0.01, seed=9)
        src, tgt = inst.source, inst.target
        pairing = SubspacePairing(
            Partition(inst.labels, cluster_centroids(src.vectors, inst.labels)),
            inst.labels.copy())
        # a deliberately mediocre shared start: cluster 0's true rotation
        single = LinearMap(inst.true_maps[0])

        def subspace_criterion(m, cid):
            rows = pairing.source_members(cid)
            sub = EmbeddingSpace(tuple(src.words[i] for i in rows), src.vectors[rows])
            return selection_criterion(lambda v, i: m.apply(v), sub, tgt,
                                       vocab_limit=len(rows), k=10)

        base = [subspace_criterion(single, c) for c in range(3)]
        best_improved = 0
        for seed in range(3):
            cfg = replace(SMALL, epochs=4, steps_per_epoch=250, batch_size=32,
                          dis_hidden=64, dis_steps_per_gen_step=2,
                          criterion_vocab=300, csls_k=10, seed=seed)
            pm, runs = train_multi_gan(single, pairing, src, tgt, cfg)
            criteria = criteria_of(runs)
            improved = sum(1 for c in range(3) if criteria[c] > base[c])
            best_improved = max(best_improved, improved)
        assert best_improved >= 2


class TestPatience:
    def test_early_stop_returns_the_full_schedule_map(self, monkeypatch):
        # a rotated target whose subspace-1 best (epoch 2) comes before the
        # stop, with a rise below the best at epoch 4
        space = make_space(200, 6, seed=7)
        target = EmbeddingSpace(space.words, space.vectors @ random_orthogonal(6, 7).T)
        pairing = tiny_pairing(space, pieces=2)
        cfg = replace(SMALL, epochs=8, steps_per_epoch=60, dis_hidden=32,
                      criterion_vocab=200, seed=2)
        criterion, calls = gan._criterion, []

        def counting_criterion(*args):
            calls.append(args)
            return criterion(*args)

        monkeypatch.setattr(gan, "_criterion", counting_criterion)
        patience = gan._PATIENCE
        monkeypatch.setattr(gan, "_PATIENCE", 0)
        full = train_subspace_gan(1, identity_map(6), pairing, space, target, cfg, 0.5)
        assert len(calls) == 1 + full.epochs_run == 9
        calls.clear()
        monkeypatch.setattr(gan, "_PATIENCE", patience)
        early = train_subspace_gan(1, identity_map(6), pairing, space, target, cfg, 0.5)
        assert len(calls) == 1 + early.epochs_run
        assert early.epochs_run < full.epochs_run and early.best_epoch == full.best_epoch
        assert early.epochs_run == early.best_epoch + patience
        assert early.map.w.tobytes() == full.map.w.tobytes()
        assert early.criterion == full.criterion


class TestDivergence:
    def test_diverged_subspace_keeps_single_map_and_reports_lambda(self, small_space):
        target = make_space(small_space.n, small_space.dim, seed=32)
        pairing = tiny_pairing(small_space, pieces=2)
        single = LinearMap(random_orthogonal(small_space.dim, 3))
        cfg = replace(SMALL, lr_discriminator=1e200, criterion_vocab=20)
        dynamic = tuple(dynamic_lambda(small_space.vectors[pairing.source_members(c)],
                                       target.vectors[pairing.target_members(c)],
                                       small_space.vectors, target.vectors)
                        for c in range(2))
        for fixed, lambdas in ((None, dynamic), (0.25, (0.25, 0.25))):
            with np.errstate(all="ignore"):
                pm, runs = train_multi_gan(single, pairing, small_space, target, cfg,
                                           lambda_fixed=fixed)
            criteria = criteria_of(runs)
            assert all(np.isnan(c) for c in criteria)
            assert pm.lambdas == lambdas
            for m in pm.maps:
                assert np.array_equal(m.w, single.w) and m.w is not single.w


class TestSamplingContract:
    def test_language_rows_are_frequent_and_generator_source_is_subspace(
            self, small_space, monkeypatch):
        # rows 0..7 are the frequent ones; subspace 1 is the odd rows
        target = make_space(small_space.n, small_space.dim, seed=33)
        pairing = tiny_pairing(small_space, pieces=2)
        cfg = replace(SMALL, epochs=1, steps_per_epoch=10, dis_freq_vocab=8,
                      criterion_vocab=20)
        drawn = []
        sample = gan._sample

        def recording_sample(pool, batch_size, rng):
            drawn.append(sample(pool, batch_size, rng))
            return drawn[-1]

        def rows(vectors):
            return {tuple(v) for v in vectors}

        monkeypatch.setattr(gan, "_sample", recording_sample)
        top_s, top_t = rows(small_space.vectors[:8]), rows(target.vectors[:8])
        sub_s = rows(small_space.vectors[pairing.source_members(1)])
        sub_t = rows(target.vectors[pairing.target_members(1)])

        gan.train_single_gan(small_space, target, cfg)
        # per step: real, fake (discriminator); source, target (generator)
        assert len(drawn) == 4 * cfg.steps_per_epoch
        for real, fake, src, tgt in zip(*[iter(drawn)] * 4):
            assert rows(real) <= top_t and rows(tgt) <= top_t
            assert rows(fake) <= top_s and rows(src) <= top_s

        # at lambda 1 and 0 one game is unplayed but still draws its batches
        for lam in (0.5, 1.0, 0.0):
            drawn.clear()
            train_subspace_gan(1, identity_map(small_space.dim), pairing, small_space,
                               target, cfg, lam)
            # per step: language real, language fake, subspace real, subspace fake
            # (discriminators); source, language target, subspace target (generator)
            assert len(drawn) == 7 * cfg.steps_per_epoch
            for lang_real, lang_fake, sub_real, sub_fake, src, lang_tgt, sub_tgt in \
                    zip(*[iter(drawn)] * 7):
                assert rows(lang_real) <= top_t and rows(lang_tgt) <= top_t
                assert rows(lang_fake) <= top_s
                assert rows(sub_real) <= sub_t and rows(sub_tgt) <= sub_t
                assert rows(sub_fake) <= sub_s and rows(src) <= sub_s
