import numpy as np
import pytest
from dataclasses import replace

from submap.alignment import SubspacePairing
from submap.clustering import Partition, cluster_centroids
from submap.embeddings import EmbeddingSpace, unit_rows
from submap.errors import EmptyDictionaryError
from submap import refinement
from submap.mapping import LinearMap, PiecewiseMap, identity_map
from submap.refinement import (RefineConfig, global_refine, local_refine, procrustes,
                               refine_linear)
from submap.retrieval import SeedDictionary
from submap.synthetic import generate_instance, random_orthogonal

from conftest import make_space

CFG = RefineConfig(vocab_limit=10000, seed=3)


def identity_dictionary(n):
    idx = np.arange(n)
    return SeedDictionary(np.column_stack([idx, idx]))


def in_plane_rotation(q, theta, d, seed):
    """Rotate q by angle theta in a random plane."""
    g = np.random.default_rng(seed)
    a = g.normal(size=d)
    a /= np.linalg.norm(a)
    b = g.normal(size=d)
    b -= (b @ a) * a
    b /= np.linalg.norm(b)
    gen = np.outer(a, b) - np.outer(b, a)
    proj = np.outer(a, a) + np.outer(b, b)
    rot = np.eye(d) + np.sin(theta) * gen + (np.cos(theta) - 1) * proj
    return rot @ q


class TestProcrustes:
    def test_recovers_exact_rotation(self):
        g = np.random.default_rng(1)
        x = unit_rows(g.normal(size=(500, 20)))
        q = random_orthogonal(20, 2)
        source = EmbeddingSpace(tuple(f"w{i}" for i in range(500)), x)
        target = EmbeddingSpace(source.words, x @ q.T)
        w = procrustes(identity_dictionary(500), source, target)
        assert np.linalg.norm(w.w - q) < 1e-6

    def test_identity_case(self, small_space):
        w = procrustes(identity_dictionary(small_space.n), small_space, small_space)
        assert np.linalg.norm(w.w - np.eye(small_space.dim)) < 1e-8

    def test_single_pair_maps_u_to_v(self):
        g = np.random.default_rng(7)
        u = unit_rows(g.normal(size=(1, 6)))[0]
        v = unit_rows(g.normal(size=(1, 6)))[0]
        source = EmbeddingSpace(("u",), u[None, :])
        target = EmbeddingSpace(("v",), v[None, :])
        w = procrustes(SeedDictionary(np.array([[0, 0]])), source, target)
        assert np.linalg.norm(w.apply(u[None, :])[0] - v) < 1e-8

    def test_always_exactly_orthogonal(self, rng):
        for trial in range(10):
            n, d = int(rng.integers(2, 9)), int(rng.integers(2, 6))
            x = unit_rows(rng.normal(size=(n, d)))
            y = unit_rows(rng.normal(size=(n, d)))
            source = EmbeddingSpace(tuple(f"a{i}" for i in range(n)), x)
            target = EmbeddingSpace(tuple(f"b{i}" for i in range(n)), y)
            w = procrustes(identity_dictionary(n), source, target)
            assert w.orthogonality_defect() < 1e-8

    def test_beats_random_orthogonal_matrices(self, rng):
        for trial in range(5):
            n, d = int(rng.integers(3, 9)), int(rng.integers(2, 6))
            x = unit_rows(rng.normal(size=(n, d)))
            y = unit_rows(rng.normal(size=(n, d)))
            source = EmbeddingSpace(tuple(f"a{i}" for i in range(n)), x)
            target = EmbeddingSpace(tuple(f"b{i}" for i in range(n)), y)
            w = procrustes(identity_dictionary(n), source, target)
            best = np.sum((x @ w.w.T - y) ** 2)
            for k in range(1000):
                q = random_orthogonal(d, 10_000 + 100 * trial + k)
                assert best <= np.sum((x @ q.T - y) ** 2) + 1e-12

    def test_empty_dictionary(self, small_space):
        with pytest.raises(EmptyDictionaryError):
            procrustes(SeedDictionary(np.empty((0, 2), dtype=int)),
                       small_space, small_space)


class TestStochasticRefine:
    def test_identical_spaces_converge_fast(self, ):
        space = make_space(80, 6, seed=4)
        cfg = replace(CFG, vocab_limit=80)
        ident = identity_map(6)
        best, _, log = refine_linear(ident, space, space, cfg)
        assert max(s.objective for s in log) >= 0.999
        improving = [s for i, s in enumerate(log)
                     if s.objective > max([-np.inf] + [t.objective for t in log[:i]])]
        assert len(improving) <= 3

    def test_keep_prob_one_is_deterministic(self, monkeypatch):
        monkeypatch.setattr(refinement, "_P0", 1.0)
        source = make_space(40, 5, seed=5)
        target = make_space(40, 5, seed=6)
        cfg = replace(CFG, vocab_limit=40)
        a, _, log_a = refine_linear(identity_map(5), source, target, cfg)
        b, _, log_b = refine_linear(identity_map(5), source, target, cfg)
        assert np.array_equal(a.w, b.w)
        assert [s.objective for s in log_a] == [s.objective for s in log_b]

    def test_perturbed_rotation_improves_precision(self):
        inst = generate_instance(1, 150, 8, 5.0, 0.01, seed=8)
        q = random_orthogonal(8, 12)
        target = EmbeddingSpace(inst.source.words,
                                unit_rows(inst.source.vectors @ q.T
                                          + 0.01 * np.random.default_rng(1).normal(
                                              size=(150, 8))))
        start = LinearMap(in_plane_rotation(q, 0.4, 8, seed=2))

        def p1(m):
            mapped = unit_rows(m.apply(inst.source.vectors))
            hits = (mapped @ target.vectors.T).argmax(axis=1) == np.arange(150)
            return float(hits.mean())

        refined, _, _ = refine_linear(start, inst.source, target,
                                      replace(CFG, vocab_limit=150))
        assert p1(refined) >= p1(start)

    def test_best_objective_is_non_decreasing_snapshot(self):
        source = make_space(60, 5, seed=7)
        target = make_space(60, 5, seed=8)
        _, _, log = refine_linear(identity_map(5), source, target,
                                  replace(CFG, vocab_limit=60))
        best = -np.inf
        for step in log:
            best = max(best, step.objective)
        assert best == max(s.objective for s in log)

    def test_returns_the_objective_of_its_map(self):
        source = make_space(60, 5, seed=7)
        target = make_space(60, 5, seed=8)
        _, objective, log = refine_linear(identity_map(5), source, target,
                                          replace(CFG, vocab_limit=60))
        # rows below d pairs are fit exactly and may not claim the snapshot
        assert objective == max(s.objective for s in log if s.pairs >= 5)
        # ... unless no row reaches d pairs
        tiny = make_space(4, 6, seed=3)
        _, objective, log = refine_linear(identity_map(6), tiny, tiny,
                                          replace(CFG, vocab_limit=4))
        assert all(s.pairs < 6 for s in log)
        assert objective == max(s.objective for s in log)

    def test_keep_prob_schedule_doubles_and_caps(self):
        source = make_space(30, 4, seed=9)
        target = make_space(30, 4, seed=10)
        _, _, log = refine_linear(identity_map(4), source, target,
                                  replace(CFG, vocab_limit=30, max_iters=30))
        probs = [s.keep_prob for s in log]
        assert probs[0] == refinement._P0
        assert all(b == a or b == min(1.0, a * 2.0) for a, b in zip(probs, probs[1:]))
        assert max(probs) <= 1.0


def one_piece_map(m, space):
    assignments = np.zeros(space.n, dtype=int)
    part = Partition(assignments, cluster_centroids(space.vectors, assignments))
    return PiecewiseMap(SubspacePairing(part, assignments.copy()), (m,), (0.5,))


class TestGlobalRefine:
    def test_identity_piecewise_on_identical_spaces(self):
        space = make_space(100, 6, seed=11)
        pm = one_piece_map(identity_map(6), space)
        refined, _, _ = global_refine(pm, space, space, replace(CFG, vocab_limit=100))
        assert np.max(np.abs(refined.maps[0].w - np.eye(6))) < 1e-3

    def test_single_subspace_matches_direct_refinement(self, monkeypatch):
        monkeypatch.setattr(refinement, "_P0", 1.0)
        inst = generate_instance(1, 120, 6, 5.0, 0.005, seed=13)
        q = random_orthogonal(6, 14)
        target = EmbeddingSpace(inst.source.words,
                                unit_rows(inst.source.vectors @ q.T))
        start = LinearMap(in_plane_rotation(q, 0.2, 6, seed=3))
        cfg = replace(CFG, vocab_limit=120)
        pm = one_piece_map(start, inst.source)
        via_global, _, _ = global_refine(pm, inst.source, target, cfg)
        direct, _, _ = refine_linear(start, inst.source, target, cfg)
        assert np.max(np.abs(via_global.maps[0].w - direct.w)) < 1e-8

    def test_composed_maps_stay_near_orthogonal(self):
        inst = generate_instance(2, 60, 6, 5.0, 0.01, seed=15)
        pairing = SubspacePairing(
            Partition(inst.labels, cluster_centroids(inst.source.vectors, inst.labels)),
            inst.labels.copy())
        maps = tuple(LinearMap(q) for q in inst.true_maps)
        pm = PiecewiseMap(pairing, maps, (0.5, 0.5))
        refined, _, _ = global_refine(pm, inst.source, inst.target,
                                      replace(CFG, vocab_limit=120))
        for m in refined.maps:
            assert m.orthogonality_defect() < 0.05


class TestLocalRefine:
    def test_identical_subspace_refines_to_identity(self):
        space = make_space(90, 6, seed=16)
        pm = one_piece_map(LinearMap(in_plane_rotation(np.eye(6), 0.2, 6, seed=4)),
                           space)
        refined, logs = local_refine(pm, space, space, replace(CFG, vocab_limit=90))
        assert 0 in logs
        assert np.max(np.abs(refined.maps[0].w - np.eye(6))) < 1e-3

    def test_degenerate_subspace_keeps_map(self):
        # subspace 1 has a single target word: local induction impossible
        g = np.random.default_rng(17)
        src = unit_rows(g.normal(size=(10, 4)))
        source = EmbeddingSpace(tuple(f"s{i}" for i in range(10)), src)
        target = EmbeddingSpace(tuple(f"t{i}" for i in range(10)), src)
        assignments = np.array([0] * 5 + [1] * 5)
        part = Partition(assignments, cluster_centroids(src, assignments))
        target_assign = np.array([0] * 9 + [1])
        pm = PiecewiseMap(SubspacePairing(part, target_assign),
                          (identity_map(4), LinearMap(random_orthogonal(4, 5))),
                          (0.5, 0.5))
        refined, logs = local_refine(pm, source, target, replace(CFG, vocab_limit=10))
        assert 1 not in logs
        assert np.array_equal(refined.maps[1].w, pm.maps[1].w)

    def test_recovers_each_rotation_from_true_alignment(self):
        # generative-truth subspace alignment, maps started near the true
        # rotations: local refinement should land on each one
        inst = generate_instance(3, 150, 8, 5.0, 0.005, seed=18)
        pairing = SubspacePairing(
            Partition(inst.labels, cluster_centroids(inst.source.vectors, inst.labels)),
            inst.labels.copy())
        starts = tuple(LinearMap(in_plane_rotation(q, 0.35, 8, seed=6 + i))
                       for i, q in enumerate(inst.true_maps))
        pm = PiecewiseMap(pairing, starts, (0.5,) * 3)
        refined, logs = local_refine(pm, inst.source, inst.target,
                                     replace(CFG, vocab_limit=450))
        for cid, q in enumerate(inst.true_maps):
            assert np.linalg.norm(refined.maps[cid].w - q) < 0.1
