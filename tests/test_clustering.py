import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submap import clustering
from submap.clustering import (ClusterHierarchy, Partition, finch_hierarchy,
                               finch_partition, first_neighbors, kmeans,
                               load_assignments, merge_small_clusters, save_assignments,
                               select_level)
from submap.embeddings import unit_rows
from submap.errors import ConfigError, ParseError, TooFewSamplesError

from conftest import make_space


def brute_force_first_neighbors(x):
    n = len(x)
    out = np.empty(n, dtype=int)
    for i in range(n):
        best, best_sim = None, -np.inf
        for j in range(n):
            if j == i:
                continue
            sim = float(x[i] @ x[j])
            if sim > best_sim:
                best, best_sim = j, sim
        out[i] = best
    return out


def adjacency_matrix(kappa):
    n = len(kappa)
    a = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if kappa[i] == j or kappa[j] == i or kappa[i] == kappa[j]:
                a[i, j] = True
    return a


def brute_force_components(x):
    """BFS over the full adjacency of the first-neighbor graph."""
    a = adjacency_matrix(brute_force_first_neighbors(x))
    n = len(x)
    labels = -np.ones(n, dtype=int)
    nxt = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        frontier = [start]
        labels[start] = nxt
        while frontier:
            i = frontier.pop()
            for j in np.flatnonzero(a[i]):
                if labels[j] == -1:
                    labels[j] = nxt
                    frontier.append(j)
        nxt += 1
    return labels


def same_partition(a, b):
    """Equal up to relabeling."""
    if len(a) != len(b):
        return False
    mapping = {}
    for x, y in zip(a, b):
        if mapping.setdefault(x, y) != y:
            return False
    return len(set(mapping.values())) == len(mapping)


def blobs(counts, d, spread=0.05, separation=6.0, seed=0):
    g = np.random.default_rng(seed)
    centers = unit_rows(g.normal(size=(len(counts), d))) * separation
    rows, labels = [], []
    for cid, count in enumerate(counts):
        rows.append(centers[cid] + spread * g.normal(size=(count, d)))
        labels.extend([cid] * count)
    return unit_rows(np.vstack(rows)), np.array(labels)


class TestFirstNeighbors:
    def test_two_vectors_are_mutual(self):
        x = unit_rows(np.array([[1.0, 0.2], [0.3, 1.0]]))
        assert first_neighbors(x).tolist() == [1, 0]

    def test_matches_brute_force(self, rng):
        x = unit_rows(rng.normal(size=(50, 5)))
        assert np.array_equal(first_neighbors(x), brute_force_first_neighbors(x))

    def test_blocked_matches_brute_force(self, monkeypatch):
        # slices of 7 rows over 23: three full slices and a short one.
        # Sign vectors have exact dot products, so every tie is exact and
        # each row's self-similarity d is the largest value in its row.
        n, step = 23, 7
        x = np.random.default_rng(5).choice([-1.0, 1.0], size=(n, 6))
        x[7] = x[6]    # identical rows either side of the first boundary
        x[14] = x[13]  # and of the second
        monkeypatch.setattr(clustering, "_SLICE", step)
        got = first_neighbors(x)
        assert np.array_equal(got, brute_force_first_neighbors(x))
        assert got[[6, 7, 13, 14]].tolist() == [7, 6, 14, 13]

    @pytest.mark.parametrize("n, d", [(1200, 10), (4000, 300)])  # desk and paper vocabularies
    def test_slices_match_one_product(self, n, d):
        # rows drawn from 40 distinct ones: every row's nearest rows are its
        # copies, tied, on both sides of the 64-row slice boundaries, and
        # the lowest-index copy must win
        g = np.random.default_rng(6)
        base = unit_rows(g.integers(1, 3, size=(40, d)) * g.choice([-1.0, 1.0], size=(40, d)))
        ids = g.integers(0, 40, size=n)
        x = base[ids]
        sims = x @ x.T
        np.fill_diagonal(sims, -np.inf)
        got = first_neighbors(x)
        assert np.array_equal(got, sims.argmax(axis=1))
        for copies in (np.flatnonzero(ids == b) for b in range(40)):
            assert got[copies[0]] == copies[1] and np.all(got[copies[1:]] == copies[0])

    def test_peak_memory_is_one_slice(self):
        n = 4000
        x = unit_rows(np.random.default_rng(7).normal(size=(n, 300)))
        tracemalloc.start()
        try:
            first_neighbors(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one [64, n] float64 slice, plus the n-entry result
        assert peak <= 1.05 * clustering._SLICE * n * 8

    def test_identical_vectors_tie_break(self):
        x = unit_rows(np.ones((3, 4)))
        assert first_neighbors(x).tolist() == [1, 0, 0]

    def test_single_vector_rejected(self):
        with pytest.raises(TooFewSamplesError):
            first_neighbors(np.ones((1, 3)))


class TestFinchPartition:
    def test_two_separated_pairs(self):
        x, labels = blobs([2, 2], 4, spread=0.01, seed=3)
        part = finch_partition(x)
        assert part.c == 2
        assert same_partition(part.assignments, labels)

    def test_all_identical_vectors_single_cluster(self):
        x = unit_rows(np.ones((5, 3)))
        assert finch_partition(x).c == 1

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(2, 60), d=st.integers(2, 5))
    def test_matches_brute_force_components(self, seed, n, d):
        x = unit_rows(np.random.default_rng(seed).normal(size=(n, d)))
        part = finch_partition(x)
        assert same_partition(part.assignments, brute_force_components(x))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_adjacency_is_symmetric(self, seed):
        x = unit_rows(np.random.default_rng(seed).normal(size=(30, 4)))
        a = adjacency_matrix(first_neighbors(x))
        assert np.array_equal(a, a.T)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_invariant_under_row_permutation(self, seed):
        g = np.random.default_rng(seed)
        x = unit_rows(g.normal(size=(40, 4)))
        perm = g.permutation(40)
        a = finch_partition(x)
        b = finch_partition(x[perm])
        assert same_partition(a.assignments[perm], b.assignments)

    def test_centroids_are_unit_mean_rows(self, rng):
        x = unit_rows(rng.normal(size=(20, 4)))
        part = finch_partition(x)
        for cid in range(part.c):
            members = part.members(cid)
            expected = x[members].sum(axis=0)
            expected /= np.linalg.norm(expected)
            assert np.allclose(part.centroids[cid], expected)


class TestFinchHierarchy:
    def test_three_blobs_have_three_cluster_level(self):
        from submap.synthetic import generate_instance

        inst = generate_instance(3, 30, 8, 5.0, 0.0, seed=3)
        h = finch_hierarchy(inst.source.vectors)
        sizes = [p.c for p in h.levels]
        assert 3 in sizes
        part = h.levels[sizes.index(3)]
        assert same_partition(part.assignments, inst.labels)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_nesting_and_coverage(self, seed):
        x = unit_rows(np.random.default_rng(seed).normal(size=(50, 5)))
        h = finch_hierarchy(x)
        for fine, coarse in zip(h.levels, h.levels[1:]):
            assert coarse.c < fine.c
            # every fine cluster maps into exactly one coarse cluster
            for cid in range(fine.c):
                members = fine.members(cid)
                assert len(set(coarse.assignments[members].tolist())) == 1
        for level in h.levels:
            assert level.assignments.shape == (50,)
            assert set(np.unique(level.assignments)) == set(range(level.c))

    def test_two_points_single_level(self):
        x = unit_rows(np.array([[1.0, 0.1], [0.9, 0.2]]))
        h = finch_hierarchy(x)
        assert len(h.levels) == 1
        assert h.levels[0].c == 1

    def test_strictly_decreasing_enforced(self, rng):
        x = unit_rows(rng.normal(size=(8, 3)))
        p = finch_partition(x)
        with pytest.raises(Exception):
            ClusterHierarchy((p, p))


class TestSelectLevel:
    def test_policies(self, rng):
        x, _ = blobs([20, 20, 20, 20], 6, spread=0.2, seed=9)
        h = finch_hierarchy(x)
        assert select_level(h, "last") is h.levels[-1]
        if len(h.levels) >= 2:
            assert select_level(h, "second_to_last") is h.levels[-2]
        assert select_level(h, "0") is h.levels[0]

    def test_second_to_last_falls_back(self):
        x = unit_rows(np.array([[1.0, 0.1], [0.9, 0.2]]))
        h = finch_hierarchy(x)
        assert select_level(h, "second_to_last") is h.levels[0]

    def test_index_out_of_range(self):
        x = unit_rows(np.array([[1.0, 0.1], [0.9, 0.2]]))
        h = finch_hierarchy(x)
        with pytest.raises(ConfigError):
            select_level(h, "5")
        with pytest.raises(ConfigError):
            select_level(h, "bogus")


class TestKmeans:
    def test_k_one(self, rng):
        x = unit_rows(rng.normal(size=(10, 4)))
        part = kmeans(x, 1, seed=0)
        assert part.c == 1
        expected = x.sum(axis=0)
        expected /= np.linalg.norm(expected)
        assert np.allclose(part.centroids[0], expected)

    def test_k_equals_n(self, rng):
        x = unit_rows(rng.normal(size=(7, 4)))
        part = kmeans(x, 7, seed=0)
        assert part.c == 7
        assert sorted(part.sizes().tolist()) == [1] * 7

    def test_two_blobs(self):
        x, labels = blobs([25, 25], 5, spread=0.1, seed=11)
        part = kmeans(x, 2, seed=1)
        assert same_partition(part.assignments, labels)

    def test_k_out_of_range(self, rng):
        x = unit_rows(rng.normal(size=(5, 3)))
        with pytest.raises(ConfigError):
            kmeans(x, 6, seed=0)
        with pytest.raises(ConfigError):
            kmeans(x, 0, seed=0)

    def test_deterministic(self, rng):
        x = unit_rows(rng.normal(size=(30, 4)))
        a = kmeans(x, 4, seed=3)
        b = kmeans(x, 4, seed=3)
        assert np.array_equal(a.assignments, b.assignments)


class TestMergeSmallClusters:
    def test_small_cluster_folded_into_nearest(self):
        x, _ = blobs([30, 30, 3], 5, spread=0.1, seed=13)
        part = finch_partition(x)
        merged = merge_small_clusters(part, x, min_size=10)
        assert all(s >= 10 for s in merged.sizes())
        assert merged.assignments.shape == part.assignments.shape

    def test_noop_when_nothing_below_threshold(self):
        x, _ = blobs([20, 20], 4, spread=0.1, seed=14)
        part = finch_partition(x)
        merged = merge_small_clusters(part, x, min_size=1)
        assert np.array_equal(merged.assignments, part.assignments)


def test_partition_round_trip(tmp_path, rng):
    x = unit_rows(rng.normal(size=(12, 3)))
    part = finch_partition(x)
    words = tuple(f"w{i}" for i in range(12))
    save_assignments(tmp_path / "p.tsv", words, part.assignments)
    back = load_assignments(tmp_path / "p.tsv", words)
    assert np.array_equal(back, part.assignments)


@pytest.mark.parametrize("token", ["a\tb", "a\nb", "a\rb"])
def test_save_assignments_rejects_tokens_it_cannot_read_back(tmp_path, token):
    with pytest.raises(ParseError, match=re.escape(repr(token))):
        save_assignments(tmp_path / "p.tsv", ("w0", token), np.array([0, 0]))


def test_non_integer_cluster_id_names_file_and_line(tmp_path):
    path = tmp_path / "p.tsv"
    path.write_text("w0\t0\nw1\tx\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"p\.tsv line 2"):
        load_assignments(path, ("w0", "w1"))
