"""Parameter-free first-neighbor hierarchical clustering and a Lloyd
k-means used for diagnostics.

The first-neighbor adjacency links i and j when either is the other's
nearest neighbor or both share one; clusters are the connected
components of that graph, and re-clustering the (unit-normalized)
centroids yields the next hierarchy level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError, TooFewSamplesError
from .retrieval import _SLICE


@dataclass(frozen=True)
class Partition:
    assignments: np.ndarray  # [n] cluster id per point
    centroids: np.ndarray    # [c x d], unit rows

    def __post_init__(self):
        a = np.ascontiguousarray(self.assignments, dtype=np.int64)
        cents = np.ascontiguousarray(self.centroids, dtype=np.float64)
        used = np.unique(a)
        if used.size == 0 or used[0] != 0 or used[-1] != used.size - 1:
            raise ParseError("cluster ids must be exactly 0..c-1")
        if cents.shape[0] != used.size:
            raise ParseError(f"{cents.shape[0]} centroids for {used.size} clusters")
        a.flags.writeable = False
        cents.flags.writeable = False
        object.__setattr__(self, "assignments", a)
        object.__setattr__(self, "centroids", cents)

    @property
    def c(self) -> int:
        return self.centroids.shape[0]

    @property
    def n(self) -> int:
        return self.assignments.shape[0]

    def members(self, cluster_id: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == cluster_id)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.c)


@dataclass(frozen=True)
class ClusterHierarchy:
    levels: tuple[Partition, ...]

    def __post_init__(self):
        levels = tuple(self.levels)
        if not levels:
            raise ParseError("hierarchy must have at least one level")
        for a, b in zip(levels, levels[1:]):
            if b.c >= a.c:
                raise ParseError("levels must strictly decrease in cluster count")
        object.__setattr__(self, "levels", levels)


def _relabel(assignments: np.ndarray) -> np.ndarray:
    """Renumber cluster labels to 0..c-1 in order of first appearance."""
    _, first, inverse = np.unique(assignments, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def cluster_centroids(vectors: np.ndarray, assignments: np.ndarray) -> np.ndarray:
    """Per-cluster mean rows, renormalized to unit length."""
    c = int(assignments.max()) + 1
    d = vectors.shape[1]
    sums = np.zeros((c, d))
    np.add.at(sums, assignments, vectors)
    norms = np.linalg.norm(sums, axis=1)
    norms[norms == 0.0] = 1.0
    return sums / norms[:, None]


def first_neighbors(vectors: np.ndarray) -> np.ndarray:
    """Index of each row's nearest other row by cosine.

    Similarities are float64 products of 64 rows at a time with every
    row, written into one reused [64, n] slice buffer, so memory never
    holds an n x n block.  Of equal computed similarities the lowest
    index wins.  Exact-duplicate rows need not compute equal ones: BLAS
    can round one dot product differently by the column's place in its
    kernel (a 4.8e-15 gap between two copies at 300 rows, d = 300), so
    which copy is a row's neighbour can depend on the product's shape.
    """
    x = np.asarray(vectors, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise TooFewSamplesError(f"first neighbors need n >= 2, got {n}")
    out = np.empty(n, dtype=np.int64)
    buf = np.empty((min(_SLICE, n), n))
    for i in range(0, n, _SLICE):
        sims = np.matmul(x[i:i + _SLICE], x.T, out=buf[:min(_SLICE, n - i)])
        rows = np.arange(i, min(i + _SLICE, n))
        sims[rows - i, rows] = -np.inf
        out[i:i + _SLICE] = sims.argmax(axis=1)
    return out


class _UnionFind:
    def __init__(self, n: int):
        self.parent = np.arange(n)

    def find(self, u: int) -> int:
        root = u
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[u] != root:
            self.parent[u], u = root, self.parent[u]
        return root

    def union(self, u: int, v: int) -> None:
        ru, rv = self.find(u), self.find(v)
        if ru != rv:
            self.parent[max(ru, rv)] = min(ru, rv)


def finch_partition(vectors: np.ndarray) -> Partition:
    """Connected components of the first-neighbor adjacency graph.

    Linking every point to its first neighbor reproduces the components
    of the full adjacency: the shared-neighbor condition joins i and j
    through their common neighbor.
    """
    x = np.asarray(vectors, dtype=np.float64)
    kappa = first_neighbors(x)
    uf = _UnionFind(x.shape[0])
    for i, j in enumerate(kappa):
        uf.union(i, int(j))
    roots = np.array([uf.find(i) for i in range(x.shape[0])])
    assignments = _relabel(roots)
    return Partition(assignments, cluster_centroids(x, assignments))


def finch_hierarchy(vectors: np.ndarray) -> ClusterHierarchy:
    """Recursively cluster centroid sets until one more level would put
    everything in a single cluster; that all-in-one level is dropped."""
    x = np.asarray(vectors, dtype=np.float64)
    level = finch_partition(x)
    levels = [level]
    assignments = level.assignments
    while levels[-1].c > 2:
        centroid_level = finch_partition(levels[-1].centroids)
        if centroid_level.c <= 1:
            break
        assignments = centroid_level.assignments[assignments]
        assignments = _relabel(assignments)
        levels.append(Partition(assignments, cluster_centroids(x, assignments)))
    return ClusterHierarchy(tuple(levels))


def select_level(hierarchy: ClusterHierarchy, policy: str) -> Partition:
    """Pick a hierarchy level: 'last', 'second_to_last', or an integer index."""
    levels = hierarchy.levels
    if policy == "last":
        return levels[-1]
    if policy == "second_to_last":
        return levels[-2] if len(levels) >= 2 else levels[-1]
    try:
        i = int(policy)
    except (TypeError, ValueError):
        raise ConfigError(f"unknown level policy {policy!r}") from None
    if not 0 <= i < len(levels):
        raise ConfigError(f"level index {i} out of range for {len(levels)} levels")
    return levels[i]


def merge_clusters(partition: Partition, vectors: np.ndarray, cluster_ids) -> Partition:
    """Fold each listed cluster into the unlisted cluster whose centroid
    (recomputed from `vectors`) is nearest to its own, then relabel."""
    assignments = np.array(partition.assignments)
    centroids = cluster_centroids(vectors, assignments)
    doomed = sorted(set(int(c) for c in cluster_ids))
    for cid in doomed:
        sims = centroids @ centroids[cid]
        sims[doomed] = -np.inf
        assignments[assignments == cid] = int(sims.argmax())
    assignments = _relabel(assignments)
    return Partition(assignments, cluster_centroids(vectors, assignments))


def merge_small_clusters(partition: Partition, vectors: np.ndarray,
                         min_size: int) -> Partition:
    """Fold clusters below `min_size`, smallest first, into the cluster
    with the nearest centroid; per-subspace training degenerates on tiny
    clusters."""
    while partition.c > 1:
        sizes = partition.sizes()
        small = np.flatnonzero(sizes < min_size)
        if small.size == 0:
            break
        partition = merge_clusters(partition, vectors,
                                   [small[np.argsort(sizes[small], kind="stable")[0]]])
    return partition


def kmeans(vectors: np.ndarray, k: int, seed: int = 0, max_iters: int = 100) -> Partition:
    """Lloyd iterations from farthest-point initial centroids (diagnostics only)."""
    x = np.asarray(vectors, dtype=np.float64)
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ConfigError(f"k={k} out of range for {n} points")
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    best = x @ x[chosen[0]]
    while len(chosen) < k:
        nxt = int(best.argmin())
        chosen.append(nxt)
        best = np.maximum(best, x @ x[nxt])
    centroids = x[chosen].copy()
    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(max_iters):
        new_assign = (x @ centroids.T).argmax(axis=1)
        for cid in range(k):
            if not np.any(new_assign == cid):
                sims = np.max(x @ centroids.T, axis=1)
                new_assign[int(sims.argmin())] = cid
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        centroids = cluster_centroids(x, assignments)
    assignments = _relabel(assignments)
    return Partition(assignments, cluster_centroids(x, assignments))


def save_assignments(path, words, assignments: np.ndarray) -> None:
    """Write one 'token<TAB>cluster_id' line per word, read by load_assignments."""
    for w in words:
        if "\t" in w or "\n" in w or "\r" in w:
            raise ParseError(f"token {w!r} contains a tab or line break and cannot be serialized")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for word, cid in zip(words, assignments):
            f.write(f"{word}\t{cid}\n")


def load_assignments(path, words) -> np.ndarray:
    by_word = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                token, cluster_id = line.split("\t")
                by_word[token] = int(cluster_id)
            except ValueError:  # not two fields, or a non-integer id
                raise ParseError(
                    f"{path} line {lineno}: expected 'token<TAB>cluster_id'") from None
    try:
        return np.array([by_word[w] for w in words], dtype=np.int64)
    except KeyError as e:
        raise ParseError(f"{path}: no cluster id for token {e.args[0]!r}") from None
