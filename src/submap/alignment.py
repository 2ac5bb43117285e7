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
from .errors import EmptyTargetSubspaceError, ParseError
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


def partition_target(single_map: LinearMap, source_partition: Partition,
                     source: EmbeddingSpace, target: EmbeddingSpace,
                     k: int = 10) -> SubspacePairing:
    """Assign every target word the cluster of its back-translated source word.

    Raises EmptyTargetSubspaceError when some cluster receives no target
    words; callers either merge those clusters away or abort.
    """
    _, translations = _translate(single_map.apply_target_back, target,
                                 np.arange(target.n), source, k)
    assignments = source_partition.assignments[translations]
    empty = np.setdiff1d(np.arange(source_partition.c), np.unique(assignments))
    if empty.size:
        raise EmptyTargetSubspaceError(empty)
    return SubspacePairing(source_partition, assignments)


def partition_target_with_merge(single_map: LinearMap, source_partition: Partition,
                                source: EmbeddingSpace, target: EmbeddingSpace,
                                k: int = 10) -> tuple[SubspacePairing, list[int]]:
    """As partition_target, but folds clusters the target side left empty
    into their nearest source cluster (by centroid) and retries.

    Returns the pairing and the list of merged-away original cluster ids.
    """
    partition = source_partition
    merged: list[int] = []
    while True:
        try:
            return partition_target(single_map, partition, source, target, k), merged
        except EmptyTargetSubspaceError as e:
            if partition.c <= 1:
                raise
            merged.extend(e.empty_ids)
            partition = merge_clusters(partition, source.vectors, e.empty_ids)
