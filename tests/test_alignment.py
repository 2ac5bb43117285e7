import numpy as np
import pytest

from submap import retrieval
from submap.alignment import SubspacePairing, partition_target_with_merge
from submap.clustering import Partition, cluster_centroids, finch_partition
from submap.embeddings import EmbeddingSpace, unit_rows
from submap.mapping import LinearMap, identity_map
from submap.synthetic import generate_instance, random_orthogonal

from conftest import brute_force_csls, make_space


def arbitrary_partition(vectors, pieces=3):
    n = len(vectors)
    assignments = np.arange(n) % pieces
    return Partition(assignments, cluster_centroids(vectors, assignments))


def pairing_without_merge(*args, **kwargs):
    """The pairing, for instances where no cluster is merged away."""
    pairing, merged = partition_target_with_merge(*args, **kwargs)
    assert merged == []
    return pairing


def test_identity_map_identical_spaces_reproduces_partition(small_space):
    part = arbitrary_partition(small_space.vectors)
    pairing = pairing_without_merge(identity_map(small_space.dim), part,
                                    small_space, small_space, k=3)
    assert np.array_equal(pairing.target_assignments, part.assignments)


def test_exact_rotation_reproduces_partition(small_space):
    q = random_orthogonal(small_space.dim, 21)
    target = EmbeddingSpace(small_space.words, small_space.vectors @ q.T)
    part = arbitrary_partition(small_space.vectors)
    pairing = pairing_without_merge(LinearMap(q), part, small_space, target, k=3)
    assert np.array_equal(pairing.target_assignments, part.assignments)


def test_k_clamped_to_target_size(small_space):
    # 4 target words to back-translate against k = 10
    q = random_orthogonal(small_space.dim, 21)
    target = EmbeddingSpace(("t0", "t1", "t2", "t3"),
                            unit_rows(small_space.vectors[[3, 8, 1, 14]] @ q.T))
    part = arbitrary_partition(small_space.vectors, pieces=2)
    pairing = pairing_without_merge(LinearMap(q), part, small_space, target, k=10)
    back = brute_force_csls(unit_rows(target.vectors @ q), small_space.vectors, 4)
    assert np.array_equal(pairing.target_assignments, part.assignments[back])
    assert pairing.pair_sizes() == [(10, 2), (10, 2)]


def test_noisy_two_cluster_instance_mostly_agrees():
    # two caps sharing one rotation, plus 5% free-floating noise vectors
    g = np.random.default_rng(2)
    centers = unit_rows(g.normal(size=(2, 8))) * 5.0
    labels = np.repeat([0, 1], 100)
    points = centers[labels] + g.normal(size=(200, 8))
    noise_rows = g.choice(200, size=10, replace=False)
    points[noise_rows] = g.normal(size=(10, 8))
    points = unit_rows(points)
    q = random_orthogonal(8, 3)
    source = EmbeddingSpace(tuple(f"w{i}" for i in range(200)), points)
    target = EmbeddingSpace(source.words,
                            unit_rows(points @ q.T + 0.02 * g.normal(size=(200, 8))))
    part = Partition(labels, cluster_centroids(points, labels))
    pairing = pairing_without_merge(LinearMap(q), part, source, target, k=10)
    agree = (pairing.target_assignments == labels).mean()
    assert agree >= 0.90


def test_union_of_target_subspaces_is_whole_vocabulary(small_space):
    part = arbitrary_partition(small_space.vectors, pieces=4)
    pairing = pairing_without_merge(identity_map(small_space.dim), part,
                                    small_space, small_space, k=3)
    members = np.concatenate([pairing.target_members(c) for c in range(part.c)])
    assert sorted(members.tolist()) == list(range(small_space.n))
    assert pairing.pair_sizes() == [(5, 5)] * 4


def one_sided_instance():
    """Two far clusters in the source; every target word sits by cluster 0,
    so cluster 1 gets nothing."""
    src = unit_rows(np.array([
        [1.0, 0.01, 0.0], [1.0, -0.01, 0.0], [1.0, 0.0, 0.01],
        [-1.0, 0.01, 0.0], [-1.0, -0.01, 0.0],
    ]))
    source = EmbeddingSpace(tuple(f"s{i}" for i in range(5)), src)
    assignments = np.array([0, 0, 0, 1, 1])
    part = Partition(assignments, cluster_centroids(src, assignments))
    tgt = unit_rows(np.array([[1.0, 0.005, 0.0], [1.0, 0.0, 0.005], [1.0, -0.005, 0.0]]))
    return source, part, EmbeddingSpace(("t0", "t1", "t2"), tgt)


def test_merge_variant_folds_empty_cluster():
    source, part, target = one_sided_instance()
    pairing, merged = partition_target_with_merge(identity_map(3), part,
                                                  source, target, k=2)
    assert merged == [1]
    assert pairing.source_partition.c == 1
    assert np.array_equal(pairing.target_assignments, [0, 0, 0])


def test_merge_back_translates_once(monkeypatch):
    # the translations do not depend on the partition, so a merge reuses them
    calls = []
    translate = retrieval.csls_translate

    def counting_translate(queries, *args, **kwargs):
        calls.append(len(queries))
        return translate(queries, *args, **kwargs)

    monkeypatch.setattr(retrieval, "csls_translate", counting_translate)
    source, part, target = one_sided_instance()
    _, merged = partition_target_with_merge(identity_map(3), part, source, target, k=2)
    assert merged == [1]
    assert calls == [target.n]


def test_pairing_rejects_out_of_range_ids(small_space):
    part = arbitrary_partition(small_space.vectors)
    with pytest.raises(Exception):
        SubspacePairing(part, np.full(small_space.n, 99))
