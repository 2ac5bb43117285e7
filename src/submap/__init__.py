"""Unsupervised cross-lingual word embedding mapping that trains one
adversarial linear map per source subspace and refines with Procrustes."""

from .embeddings import EmbeddingSpace, iterative_normalize, load_embeddings, save_embeddings
from .mapping import LinearMap, PiecewiseMap, identity_map
from .retrieval import SeedDictionary, csls_translate, induce_seed_dictionary

__all__ = [
    "EmbeddingSpace",
    "LinearMap",
    "PiecewiseMap",
    "SeedDictionary",
    "csls_translate",
    "identity_map",
    "induce_seed_dictionary",
    "iterative_normalize",
    "load_embeddings",
    "save_embeddings",
]
