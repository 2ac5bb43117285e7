"""Ground-truth piecewise-linear alignment instances.

Each instance draws clustered unit vectors as the source space and
builds the target space by rotating every cluster with its own
orthogonal matrix (plus optional Gaussian noise), so the true mapping
is piecewise linear by construction and the identity dictionary is a
perfect gold standard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSpace, unit_rows
from .errors import ConfigError


@dataclass(frozen=True)
class SyntheticInstance:
    source: EmbeddingSpace
    target: EmbeddingSpace
    gold: tuple[tuple[str, str], ...]
    true_maps: tuple[np.ndarray, ...]
    labels: np.ndarray
    noise_sigma: float


def random_orthogonal(d: int, seed: int) -> np.ndarray:
    """Orthonormalized seeded Gaussian matrix with determinant +1."""
    if d < 2:
        raise ConfigError(f"d must be >= 2, got {d}")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


def _distinct_rotations(clusters: int, d: int, rng: np.random.Generator,
                        min_gap: float = 1.0, draws: int = 1000) -> list[np.ndarray]:
    """Per-cluster rotations kept pairwise at least `min_gap` apart in
    Frobenius norm, so no single map can fit every cluster.  SO(2) holds
    at most 8 such rotations, so the search gives up after `draws`."""
    rotations: list[np.ndarray] = []
    for _ in range(draws):
        q = random_orthogonal(d, int(rng.integers(0, 2 ** 31)))
        if all(np.linalg.norm(q - other) >= min_gap for other in rotations):
            rotations.append(q)
            if len(rotations) == clusters:
                return rotations
    raise ConfigError(f"clusters = {clusters} rotations of d = {d} pairwise {min_gap} apart "
                      f"not found in {draws} draws (found {len(rotations)}); "
                      f"use fewer clusters or a larger d")


def generate_instance(clusters: int, per_cluster: int, d: int, separation: float,
                      noise_sigma: float, seed: int) -> SyntheticInstance:
    if clusters < 1 or per_cluster < 1:
        raise ConfigError("clusters and per_cluster must be positive")
    if d < 2:
        raise ConfigError(f"d must be >= 2, got {d}")
    if not 0 < separation < np.inf:
        raise ConfigError(f"separation must be positive and finite, got {separation}")
    if not 0 <= noise_sigma < np.inf:
        raise ConfigError(f"noise_sigma must be >= 0 and finite, got {noise_sigma}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    centers = unit_rows(rng.normal(size=(clusters, d))) * separation
    rotations = _distinct_rotations(clusters, d, rng)

    n = clusters * per_cluster
    labels = np.repeat(np.arange(clusters), per_cluster)
    points = centers[labels] + rng.normal(size=(n, d))
    # shuffle so frequency rank is independent of cluster identity
    order = rng.permutation(n)
    labels = labels[order]
    points = unit_rows(points[order])

    target = np.empty_like(points)
    for cid in range(clusters):
        rows = labels == cid
        target[rows] = points[rows] @ rotations[cid].T
    if noise_sigma > 0:
        target = target + rng.normal(scale=noise_sigma, size=target.shape)
    target = unit_rows(target)

    words = tuple(f"w{i}" for i in range(n))
    return SyntheticInstance(
        source=EmbeddingSpace(words, points),
        target=EmbeddingSpace(words, target),
        gold=tuple((w, w) for w in words),
        true_maps=tuple(rotations),
        labels=labels,
        noise_sigma=noise_sigma,
    )
