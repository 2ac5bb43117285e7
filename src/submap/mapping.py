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

from .embeddings import _DIGITS4, _join_fields
from .errors import NumericError, ParseError

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

    @property
    def dim(self) -> int:
        return self.maps[0].dim

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


# Fields per `_format_matrix_rows` call: its two dozen temporaries then
# take about 3 MB, and a smaller block is no slower per field
_BLOCK_FIELDS = 1 << 14

# 10**(16 - X) for the band's exponents X = 0, -1, ..., -6, indexed by -X,
# with the Veltkamp halves TwoProduct multiplies; every such power is an
# exact float (p <= 22), so hi + lo below is the exact product
_SCALE = 10.0 ** np.arange(16, 23)
_SPLIT = 134217729.0  # 2**27 + 1
_SCALE_HI = _SPLIT * _SCALE - (_SPLIT * _SCALE - _SCALE)
_SCALE_LO = _SCALE - _SCALE_HI


def _field_prefix(sign: bytes, e: int, point: bool, lead: int) -> int:
    """Lane 0 of a field: the separator, the sign, and the digits before
    the 16 fraction digits of a 17-digit mantissa, for X = -e."""
    dot = b"." if point else b"\0"
    if e == 0:
        text = b"\0" * 4 + b"%d" % lead + dot
    elif e <= 4:
        text = b"0." + b"0" * (e - 1) + b"\0" * (4 - e) + b"%d" % lead
    else:  # the first four fraction digits fill the upper half
        text = b"%d" % lead + dot + b"\0" * 4
    return int.from_bytes(b" " + sign + text, "little")


# indexed by lead + 10 * (e + 7 * (no fraction digit + 2 * negative))
_PREFIX = np.array([_field_prefix(sign, e, point, lead)
                    for sign in (b"\0", b"-") for point in (True, False)
                    for e in range(7) for lead in range(10)], dtype=np.uint64)
_EXPONENT = np.array([0] * 5 + [int.from_bytes(b"e-0%d" % e, "little") for e in (5, 6)],
                     dtype=np.uint64)


def _mantissa(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D = a * 10**(16 + e) rounded half to even, as int64, and where the
    exact product lies below 10**16.

    Dekker's TwoProduct gives hi + lo = a * 10**p exactly.  hi >= 2**53 is
    an even integer wherever the product reaches 10**16, so rint(lo)'s
    half-to-even is that of the sum."""
    b, b_hi, b_lo = _SCALE[e], _SCALE_HI[e], _SCALE_LO[e]
    hi = a * b
    a_hi = _SPLIT * a
    a_hi -= a_hi - a
    a_lo = a - a_hi
    lo = a_hi * b_hi - hi
    lo += a_hi * b_lo
    lo += a_lo * b_hi
    lo += a_lo * b_lo
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), below


def _format_matrix_rows(m: np.ndarray) -> bytes:
    """The lines of `m`, each field written as '%.17g' % x.

    A field with 1e-6 <= |x| < 10 is formatted with array arithmetic.
    floor(log10|x|) guesses its exponent X; where the exact product falls
    below 10**16 or its mantissa D reaches 10**17, a second evaluation
    moves X by one, and a field still outside [10**16, 10**17) after it,
    or whose X leaves -6...0, is formatted on its own.  Zeros come out as
    "0" or "-0", and every other field (|x| < 1e-6, |x| >= 10, nan, inf)
    is formatted by '%.17g' one at a time (DECISIONS.md "Text write").
    """
    x = m.reshape(-1)
    a = np.abs(x)
    band = (a >= 1e-6) & (a < 10.0)  # false for nan too
    a = np.where(band, a, 1.0)  # the others stay out of the arithmetic
    e = np.clip(-np.floor(np.log10(a)), 0, 6).astype(np.intp)
    d, below = _mantissa(a, e)
    moved = np.flatnonzero(band & (below | (d >= 10 ** 17)))
    if moved.size:
        e_moved = e[moved] + np.where(below[moved], 1, -1)
        valid = (e_moved >= 0) & (e_moved <= 6)
        e_moved[~valid] = 0
        d_moved, below_moved = _mantissa(a[moved], e_moved)
        band[moved] = valid & ~below_moved & (d_moved < 10 ** 17)
        e[moved], d[moved] = e_moved, d_moved
    others = np.flatnonzero(~band & (x != 0.0))
    texts = [b" %.17g" % v for v in x[others].tolist()]
    d[~band] = 0  # zeros; the others' lanes are overwritten by their texts
    e[~band] = 0
    lead, rest = np.divmod(d, 10 ** 16)
    high8, low8 = np.divmod(rest, 10 ** 8)
    g0, g1 = np.divmod(high8, 10 ** 4)
    g2, g3 = np.divmod(low8, 10 ** 4)
    # each group of four fraction digits, with trailing zeros as NUL where no
    # later group has a digit
    s3 = _DIGITS4[g3 + 10000]
    s2 = _DIGITS4[g2 + 10000 * (g3 == 0)]
    s1 = _DIGITS4[g1 + 10000 * (low8 == 0)]
    s0 = _DIGITS4[g0 + 10000 * ((low8 == 0) & (g1 == 0))]
    lane0 = _PREFIX[lead + 10 * (e + 7 * ((rest == 0) + 2 * np.signbit(x)))]
    fixed = e <= 4  # fixed notation; below it "d.ddd...e-0X"
    shift = np.uint64(32)
    lane0 |= np.where(fixed, np.uint64(0), s0 << shift)
    lane1 = np.where(fixed, s0 | s1 << shift, s1 | s2 << shift)
    lane2 = np.where(fixed, s2 | s3 << shift, s3 | _EXPONENT[e] << shift)
    # a 25-character field such as "-1.2345678901234567e+300" widens the block by a lane
    return _join_fields([lane.reshape(m.shape) for lane in (lane0, lane1, lane2)], others,
                        texts, row_sep=False)


def save_matrix(path, m: np.ndarray, header: str | None = None) -> None:
    """Write a header line ("<rows> <cols>" unless given), then one line of
    full-precision floats per row.

    Each field is written as '%.17g' % x would write it, which reads back
    exactly.  Rows are formatted in blocks of about 2**14 fields by
    `_format_matrix_rows`.
    """
    m = np.asarray(m, dtype=np.float64)
    step = max(1, _BLOCK_FIELDS // max(1, m.shape[1]))
    with open(path, "wb") as f:
        f.write(((header or f"{m.shape[0]} {m.shape[1]}") + "\n").encode("utf-8"))
        for i in range(0, m.shape[0], step):
            f.write(_format_matrix_rows(m[i:i + step]))


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by save_matrix.

    The header is "<d>" for a d x d matrix or "<rows> <cols>"; blank lines
    are skipped.  A wrong field or row count is a ParseError naming the line.
    """
    with open(path, encoding="utf-8") as f:
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


def save_linear_map(path, m: LinearMap) -> None:
    """Text format: first line d, then d rows of d floats (full precision)."""
    save_matrix(path, m.w, str(m.dim))


def load_linear_map(path) -> LinearMap:
    return LinearMap(load_matrix(path))
