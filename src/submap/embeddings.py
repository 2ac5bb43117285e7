"""Loading, normalizing and persisting monolingual embedding spaces.

The on-disk format is the word2vec text format: a header line
"<count> <dim>" followed by one "<token> <f1> ... <fd>" line per word,
single-space separated, UTF-8.  Vectors are held as float64 throughout.

`load_embeddings` parses the vector bodies in C, with one `np.loadtxt`
call that rounds as `float()` does.  A file the C parse cannot vouch
for (a malformed line, or a float syntax only `float()` reads, such as
"1_0") falls back to the per-line loop, which is the reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateVectorError, EmptySpaceError, ParseError, TooFewSamplesError

NORM_TOL = 1e-6


@dataclass(frozen=True)
class EmbeddingSpace:
    """A ranked vocabulary plus its dense vector matrix.

    Row order is frequency order: row 0 is the most frequent word.
    Instances are immutable and safe to share across workers.
    """

    words: tuple[str, ...]
    vectors: np.ndarray
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ParseError(f"vector matrix must be 2-d, got shape {vectors.shape}")
        n, d = vectors.shape
        if n < 1 or d < 2:
            raise EmptySpaceError(f"space must have n >= 1 and d >= 2, got {n}x{d}")
        if len(self.words) != n:
            raise ParseError(f"{len(self.words)} words but {n} vector rows")
        index = {}
        for i, w in enumerate(self.words):
            if w in index:
                raise ParseError(f"duplicate token {w!r}")
            index[w] = i
        vectors.flags.writeable = False
        object.__setattr__(self, "words", tuple(self.words))
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "_index", index)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def index_of(self, word: str) -> int | None:
        return self._index.get(word)

    def __contains__(self, word: str) -> bool:
        return word in self._index


def _read_header(f) -> tuple[int, int]:
    header = f.readline()
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"malformed header {header!r}: expected '<count> <dim>'")
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"malformed header {header!r}: non-integer fields") from None
    if count < 0 or dim < 2:
        raise ParseError(f"malformed header {header!r}: need count >= 0, dim >= 2")
    return count, dim


def _parse_per_line(path, max_vocab: int):
    """The reference parse, one `float()` per value: (words, vectors or None).

    It is the only path that raises a line-numbered ParseError and that
    accepts the float syntaxes `loadtxt` rejects ("1_0", non-ASCII digits).
    """
    words: list[str] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as f:
        count, dim = _read_header(f)
        for lineno, line in enumerate(f, start=2):
            if lineno - 1 > count:
                break
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split(" ")
            token = fields[0]
            if len(fields) != dim + 1:
                raise ParseError(
                    f"line {lineno}: expected {dim} floats for {token!r}, got {len(fields) - 1}"
                )
            try:
                vec = np.array(fields[1:], dtype=np.float64)
            except ValueError:
                raise ParseError(f"line {lineno}: unparseable float for {token!r}") from None
            if token in seen:
                continue
            seen.add(token)
            words.append(token)
            rows.append(vec)
            if len(words) >= max_vocab:
                break
    return words, np.vstack(rows) if rows else None


# ASCII separators that `loadtxt` strips around a number as whitespace and
# `float()` rejects; every other field the two read alike (DECISIONS.md)
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _parse_in_c(path, max_vocab: int):
    """The same parse with every vector body in one `np.loadtxt` call:
    (words, vectors or None), or None where it cannot vouch for giving
    `_parse_per_line`'s answer.

    Python keeps to what is not number parsing: the header's row count,
    blank lines, duplicate tokens and the `max_vocab` cut.  Duplicate
    rows are parsed too, so a malformed one still fails the file.
    """
    words: list[str] = []
    bodies: list[str] = []
    keep: list[int] = []  # index in `bodies` of each word's first occurrence
    seen: set[str] = set()
    with open(path, encoding="utf-8") as f:
        count, dim = _read_header(f)
        for line in itertools.islice(f, count):
            line = line.rstrip("\n")
            if not line:
                continue
            token, _, body = line.partition(" ")
            if token not in seen:
                seen.add(token)
                words.append(token)
                keep.append(len(bodies))
            bodies.append(body)
            if len(words) >= max_vocab:
                break
    if not bodies:
        return words, None
    if any(sep in body for body in bodies for sep in _SEPARATORS):
        return None
    try:
        vectors = np.loadtxt(bodies, dtype=np.float64, delimiter=" ", comments=None,
                             quotechar=None, ndmin=2)
    except ValueError:
        return None
    # loadtxt skips an empty body (the line "a "), which would shift rows
    if vectors.shape != (len(bodies), dim):
        return None
    return words, vectors if len(keep) == len(bodies) else vectors[keep]


def load_embeddings(path, max_vocab: int) -> EmbeddingSpace:
    """Read the first `max_vocab` distinct words of a word2vec text file.

    Duplicate tokens after their first occurrence are skipped and do not
    count against `max_vocab`.  Reading stops after the header's declared
    row count even if the file is longer.  The numbers are parsed in C
    (`_parse_in_c`); a file that parse does not vouch for is read again
    by the per-line reference loop, which gives `float()`'s value for
    every field or a ParseError naming the line.
    """
    if max_vocab < 1:
        raise ParseError(f"max_vocab must be positive, got {max_vocab}")
    words, vectors = _parse_in_c(path, max_vocab) or _parse_per_line(path, max_vocab)
    if not words:
        raise EmptySpaceError(f"{path}: no usable rows")
    return EmbeddingSpace(tuple(words), vectors)


def save_embeddings(path, space: EmbeddingSpace) -> None:
    """Write a space in the same text format, floats at 9 significant digits."""
    for w in space.words:
        if " " in w or "\n" in w:
            raise ParseError(f"token {w!r} contains whitespace and cannot be serialized")
    # one %-template per row; '%.9g' % x is byte-identical to format(x, '.9g')
    row_format = " ".join(["%.9g"] * space.dim) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{space.n} {space.dim}\n")
        for word, row in zip(space.words, space.vectors.tolist()):
            f.write(word + " " + row_format % tuple(row))


def unit_rows(vectors: np.ndarray, words=None) -> np.ndarray:
    """Scale each row to unit Euclidean norm; a row whose norm is zero or
    not finite (a nan or inf field) is an error."""
    norms = np.linalg.norm(vectors, axis=1)
    bad = np.flatnonzero((norms == 0.0) | ~np.isfinite(norms))
    if bad.size:
        i = int(bad[0])
        name = words[i] if words is not None else f"row {i}"
        kind = "zero vector" if norms[i] == 0.0 else "non-finite norm"
        raise DegenerateVectorError(f"{kind} for {name}")
    return vectors / norms[:, None]


def iterative_normalize(space: EmbeddingSpace, iterations: int = 5) -> EmbeddingSpace:
    """Alternate unit-norm scaling and mean centering, ending unit-norm.

    Each round scales rows to unit length and then subtracts the column
    mean; a final unit-norm pass guarantees the output rows have norm 1,
    which cosine and CSLS retrieval rely on.
    """
    if iterations < 1:
        raise ParseError(f"iterations must be positive, got {iterations}")
    if space.n < 2:
        raise TooFewSamplesError(f"iterative normalization needs n >= 2, got {space.n}")
    x = np.array(space.vectors)
    for _ in range(iterations):
        x = unit_rows(x, space.words)
        x -= x.mean(axis=0)
    x = unit_rows(x, space.words)
    return EmbeddingSpace(space.words, x)
