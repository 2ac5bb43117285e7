"""Partitioning the target vocabulary into subspaces aligned with the
source clustering.

Only the source side is clustered; each target word is mapped back into
the source space by the transposed single map, translated with CSLS,
and inherits the cluster id of its translation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import Partition, merge_clusters
from .embeddings import EmbeddingSpace
from .errors import ParseError
from .mapping import LinearMap
from .retrieval import _translate


@dataclass(frozen=True)
class SubspacePairing:
    source_partition: Partition
    target_assignments: np.ndarray

    def __post_init__(self):
        t = np.ascontiguousarray(self.target_assignments, dtype=np.int64)
        if t.min(initial=0) < 0 or t.max(initial=0) >= self.source_partition.c:
            raise ParseError("target assignment outside the source partition's id range")
        t.flags.writeable = False
        object.__setattr__(self, "target_assignments", t)

    def cluster_ids(self) -> np.ndarray:
        return np.arange(self.source_partition.c)

    def pair_sizes(self) -> list[tuple[int, int]]:
        c = self.source_partition.c
        s_sizes = self.source_partition.sizes()
        t_sizes = np.bincount(self.target_assignments, minlength=c)
        return [(int(s), int(t)) for s, t in zip(s_sizes, t_sizes)]

    def source_members(self, cluster_id: int) -> np.ndarray:
        return self.source_partition.members(cluster_id)

    def target_members(self, cluster_id: int) -> np.ndarray:
        return np.flatnonzero(self.target_assignments == cluster_id)


def partition_target_with_merge(single_map: LinearMap, source_partition: Partition,
                                source: EmbeddingSpace, target: EmbeddingSpace,
                                k: int = 10) -> tuple[SubspacePairing, list[int]]:
    """Assign every target word the cluster of its back-translated source
    word, folding clusters the target side leaves empty into their nearest
    source cluster (by centroid) until none is empty.

    The translations do not depend on the partition, so they are computed
    once.  Returns the pairing and the list of merged-away cluster ids.
    """
    _, translations = _translate(single_map.apply_target_back, target,
                                 np.arange(target.n), source, k)
    partition = source_partition
    merged: list[int] = []
    while True:
        assignments = partition.assignments[translations]
        empty = np.setdiff1d(np.arange(partition.c), assignments).tolist()
        if not empty:
            return SubspacePairing(partition, assignments), merged
        merged.extend(empty)
        partition = merge_clusters(partition, source.vectors, empty)
