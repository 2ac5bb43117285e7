"""Linear and piecewise-linear maps between embedding spaces.

A LinearMap holds a d x d matrix W applied to row vectors as v -> W v
(rows(X) -> X @ W.T).  A PiecewiseMap owns one LinearMap per source
subspace plus the subspace pairing that says which map applies to which
word on either side.  Both map (rows, vocabulary indices) forward with
`apply_source` and back by the transposes with `apply_target_back`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .embeddings import write_rows
from .errors import NumericError, ParseError, utf8_input

if TYPE_CHECKING:
    from .alignment import SubspacePairing

MapFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LinearMap:
    w: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.w, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ParseError(f"map matrix must be square, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise NumericError("map matrix contains non-finite entries")
        object.__setattr__(self, "w", w)

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        return np.asarray(vectors) @ self.w.T

    def apply_source(self, vectors: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return self.apply(vectors)

    def apply_target_back(self, vectors: np.ndarray, indices: np.ndarray) -> np.ndarray:
        # a contiguous copy of W^T: `vectors @ self.w` rounds differently
        return LinearMap(self.w.T).apply(vectors)

    def orthogonality_defect(self) -> float:
        return float(np.linalg.norm(self.w.T @ self.w - np.eye(self.dim)))


def identity_map(dim: int) -> LinearMap:
    return LinearMap(np.eye(dim))


@dataclass(frozen=True)
class PiecewiseMap:
    """One LinearMap per subspace id, with per-subspace mixing weights."""

    pairing: "SubspacePairing"
    maps: tuple[LinearMap, ...]
    lambdas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        object.__setattr__(self, "lambdas", tuple(float(x) for x in self.lambdas))
        ids = self.pairing.cluster_ids()
        if len(self.maps) != len(ids):
            raise ParseError(f"{len(self.maps)} maps for {len(ids)} subspace ids")
        if len(self.lambdas) != len(self.maps):
            raise ParseError("one lambda per subspace map required")

    def apply_source(self, vectors: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Map source rows, each by the map of its source-side subspace."""
        ids = self.pairing.source_partition.assignments[indices]
        return self._apply_by_id(vectors, ids, transpose=False)

    def apply_target_back(self, vectors: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Map target rows back to the source space by per-subspace transposes."""
        ids = self.pairing.target_assignments[indices]
        return self._apply_by_id(vectors, ids, transpose=True)

    def _apply_by_id(self, vectors, ids, transpose):
        vectors = np.asarray(vectors, dtype=np.float64)
        out = np.empty_like(vectors)
        for cid in np.unique(ids):
            w = self.maps[cid].w
            rows = ids == cid
            out[rows] = vectors[rows] @ (w if transpose else w.T)
        return out

    def transformed_source(self, source_vectors: np.ndarray) -> np.ndarray:
        """The whole source space with every word mapped by its subspace map."""
        return self.apply_source(source_vectors, np.arange(len(source_vectors)))

    def compose_global(self, outer: LinearMap) -> "PiecewiseMap":
        """Left-compose one linear map onto every subspace map."""
        composed = tuple(LinearMap(outer.w @ m.w) for m in self.maps)
        return PiecewiseMap(self.pairing, composed, self.lambdas)


def save_matrix(path, m: np.ndarray, header: str | None = None) -> np.ndarray:
    """Write a header line ("<rows> <cols>" unless given), then one line of
    full-precision floats per row, and return the matrix the file parses to.

    Each field is written as '%.17g' % x would write it, which reads back
    every finite float64 bit for bit (`embeddings.write_rows`), so the
    returned copy of `m` equals `load_matrix(path)`.
    """
    m = np.asarray(m, dtype=np.float64)
    with open(path, "wb") as f:
        f.write(((header or f"{m.shape[0]} {m.shape[1]}") + "\n").encode("utf-8"))
        write_rows(f, m, 17)
    return m.copy()  # after the write, so the write's buffers and the copy never coexist


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by save_matrix.

    The header is "<d>" for a d x d matrix or "<rows> <cols>"; blank lines
    are skipped.  A wrong field or row count is a ParseError naming the line.
    """
    with open(path, encoding="utf-8") as f, utf8_input(path):
        header = f.readline()
        lines = [(lineno, line) for lineno, line in enumerate(f, start=2) if line.strip()]
    try:
        dims = [int(x) for x in header.split()]
    except ValueError:
        dims = []
    if len(dims) not in (1, 2) or min(dims) < 1:
        raise ParseError(f"{path}: expected '<d>' or '<rows> <cols>' on the first line, "
                         f"got {header.strip()!r}")
    rows, cols = dims if len(dims) == 2 else dims * 2
    for lineno, line in lines:
        if len(line.split()) != cols:
            raise ParseError(f"{path} line {lineno}: expected {cols} floats")
    if len(lines) != rows:
        raise ParseError(f"{path}: expected {rows} rows, got {len(lines)}")
    try:
        return np.loadtxt([line for _, line in lines], dtype=np.float64, comments=None,
                          ndmin=2)
    except ValueError:
        raise ParseError(f"{path}: unparseable float") from None


def save_linear_map(path, m: LinearMap) -> LinearMap:
    """Text format: first line d, then d rows of d floats (full precision).
    Returns the map the file parses to, `load_linear_map(path)`."""
    return LinearMap(save_matrix(path, m.w, str(m.dim)))


def load_linear_map(path) -> LinearMap:
    return LinearMap(load_matrix(path))
