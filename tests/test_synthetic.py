import numpy as np
import pytest
from itertools import combinations

from submap.clustering import finch_hierarchy
from submap.embeddings import unit_rows
from submap.errors import ConfigError
from submap.evaluation import evaluate_bli
from submap.refinement import procrustes
from submap.retrieval import SeedDictionary, gold_multimap
from submap.synthetic import generate_instance, random_orthogonal


class TestRandomOrthogonal:
    def test_orthogonality(self):
        for seed in range(5):
            q = random_orthogonal(7, seed)
            assert np.linalg.norm(q.T @ q - np.eye(7)) < 1e-10

    def test_seed_determinism(self):
        assert np.array_equal(random_orthogonal(5, 9), random_orthogonal(5, 9))

    def test_determinant_positive(self):
        for d in (2, 3, 6):
            for seed in range(4):
                assert abs(np.linalg.det(random_orthogonal(d, seed)) - 1.0) < 1e-10

    def test_rejects_dim_one(self):
        with pytest.raises(ConfigError):
            random_orthogonal(1, 0)


def true_piecewise_forward(inst):
    def fwd(vectors, indices):
        out = np.empty_like(vectors)
        for cid, q in enumerate(inst.true_maps):
            rows = inst.labels[indices] == cid
            out[rows] = vectors[rows] @ q.T
        return out
    return fwd


class TestGenerateInstance:
    @pytest.mark.parametrize("d", [1, 0, -1])
    def test_rejects_dim_below_two(self, d):
        with pytest.raises(ConfigError, match="d must be >= 2"):
            generate_instance(2, 10, d, 5.0, 0.0, seed=0)

    def test_rejects_more_rotations_than_fit(self):
        # SO(2) holds at most 8 rotations pairwise 1.0 apart
        with pytest.raises(ConfigError, match=r"clusters = 9 .* d = 2"):
            generate_instance(9, 2, 2, 5.0, 0.0, seed=0)

    def test_single_cluster_no_noise_is_exact_rotation(self):
        inst = generate_instance(1, 100, 8, 5.0, 0.0, seed=3)
        q = inst.true_maps[0]
        assert np.max(np.abs(inst.target.vectors - inst.source.vectors @ q.T)) < 1e-12
        idx = np.arange(inst.source.n)
        recovered = procrustes(SeedDictionary(np.column_stack([idx, idx])),
                               inst.source, inst.target)
        assert np.linalg.norm(recovered.w - q) < 1e-6

    def test_finch_finds_generative_clusters(self):
        inst = generate_instance(3, 100, 10, 5.0, 0.0, seed=0)
        h = finch_hierarchy(inst.source.vectors)
        sizes = [p.c for p in h.levels]
        assert 3 in sizes
        part = h.levels[sizes.index(3)]
        # adjusted agreement: majority generative label per cluster
        from collections import Counter
        agree = sum(Counter(inst.labels[part.members(c)].tolist()).most_common(1)[0][1]
                    for c in range(3))
        assert agree / inst.source.n >= 0.95

    def test_seed_determinism(self):
        a = generate_instance(2, 30, 6, 5.0, 0.05, seed=11)
        b = generate_instance(2, 30, 6, 5.0, 0.05, seed=11)
        assert a.source.words == b.source.words
        assert np.array_equal(a.source.vectors, b.source.vectors)
        assert np.array_equal(a.target.vectors, b.target.vectors)
        assert np.array_equal(a.labels, b.labels)

    def test_rotations_are_pairwise_distant(self):
        inst = generate_instance(4, 20, 6, 5.0, 0.0, seed=13)
        for qa, qb in combinations(inst.true_maps, 2):
            assert np.linalg.norm(qa - qb) >= 1.0

    def test_rows_are_unit_norm(self):
        inst = generate_instance(2, 40, 5, 5.0, 0.02, seed=14)
        assert np.allclose(np.linalg.norm(inst.source.vectors, axis=1), 1.0)
        assert np.allclose(np.linalg.norm(inst.target.vectors, axis=1), 1.0)

    def test_true_map_scores_perfectly_without_noise(self):
        inst = generate_instance(3, 50, 8, 5.0, 0.0, seed=15)
        gold = gold_multimap(list(inst.gold))
        report = evaluate_bli(true_piecewise_forward(inst), gold,
                              inst.source, inst.target, k=10)
        assert report.p_at_1 == 1.0

    def test_single_map_ceiling_below_piecewise(self):
        # the best single orthogonal map, fit on the full gold dictionary,
        # must lose to the true piecewise map on a multi-rotation instance
        inst = generate_instance(3, 100, 10, 5.0, 0.0, seed=16)
        gold = gold_multimap(list(inst.gold))
        idx = np.arange(inst.source.n)
        single = procrustes(SeedDictionary(np.column_stack([idx, idx])),
                            inst.source, inst.target)
        single_report = evaluate_bli(lambda v, i: single.apply(v), gold,
                                     inst.source, inst.target, k=10)
        piecewise_report = evaluate_bli(true_piecewise_forward(inst), gold,
                                        inst.source, inst.target, k=10)
        assert single_report.p_at_1 < piecewise_report.p_at_1
