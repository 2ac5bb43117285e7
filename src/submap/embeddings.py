"""Loading, normalizing and persisting monolingual embedding spaces.

The on-disk format is the word2vec text format: a header line
"<count> <dim>" followed by one "<token> <f1> ... <fd>" line per word,
single-space separated, UTF-8.  Vectors are held as float64 throughout.

`load_embeddings` parses the vector bodies in C, with one `np.loadtxt`
call that rounds as `float()` does.  A file the C parse cannot vouch
for (a malformed line, or a float syntax only `float()` reads, such as
"1_0") falls back to the per-line loop, which is the reference.

`save_embeddings` writes each field as '%.9g' % x does, formatting
blocks of rows with array arithmetic, and returns the space the file
parses to, so a caller that keeps it need not read the file back.
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


# Rows per `_format_rows` call: about 2**16 fields, so each of its arrays
# stays within a core's cache
_BLOCK_FIELDS = 1 << 16
_POW10 = 10.0 ** np.arange(13)


# An in-band field is 16 bytes, two uint64 lanes; NUL bytes are dropped.
# Lane 0 is the separator, the sign, "0.", the zeros after the point and
# the first digit, indexed by lead + 10 * c + 40 * negative, where c counts
# the thresholds 1e-3, 1e-2 and 0.1 that |x| reaches.  Lane 1 is digits
# 2-9, from the two tables of `_digit_tables`.
_LANE0 = np.array([int.from_bytes(b" " + sign + b"0." + b"0" * (3 - c) + b"\0" * c + b"%d" % lead,
                                  "little")
                   for sign in (b"\0", b"-") for c in range(4) for lead in range(10)],
                  dtype=np.uint64)


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of each k < 10**4, first digit at the lowest
    byte; the second table has the trailing zeros as NUL."""
    k = np.arange(10000, dtype=np.uint64)
    full = np.zeros_like(k)
    strip = np.zeros_like(k)
    for i in range(4):
        byte = (k // np.uint64(10 ** (3 - i)) % np.uint64(10) + np.uint64(0x30)) << np.uint64(8 * i)
        full |= byte
        # digit i is no trailing zero when it or a later digit is not 0
        strip |= np.where(k % np.uint64(10 ** (4 - i)) != 0, byte, np.uint64(0))
    return full, strip


# _DIGITS4[k] and _DIGITS4[10000 + k]: the four digits of k < 10**4, the
# second with its trailing zeros as NUL
_DIGITS4 = np.concatenate(_digit_tables())
_FULL4, _STRIP4 = _DIGITS4[:10000], _DIGITS4[10000:]


def _join_fields(lanes, others: np.ndarray, texts: list[bytes], row_sep: bool = True) -> bytes:
    """Rows of fields, each field the bytes of its uint64 lanes (one
    [rows, cols] array per lane, NUL-padded) or, at flat index others[i],
    texts[i]; each row ends in "\n" and every NUL byte is dropped.

    Fields are built with their leading separator; `row_sep=False` drops
    it before each row's first field.  A text longer than the lanes widens
    every field of the call by the lanes it needs.
    """
    r, d = lanes[0].shape
    n = max(len(lanes), -(-max(map(len, texts), default=0) // 8))
    out = np.zeros((r, d * n + 1), dtype=np.uint64)
    out[:, -1] = ord("\n")
    fields = out[:, :-1].reshape(r, d, n)
    for i, lane in enumerate(lanes):
        fields[..., i] = lane
    if texts:
        fields[np.divmod(others, d)] = (np.array(texts, dtype=f"S{8 * n}")
                                        .view(np.uint64).reshape(-1, n))
    if not row_sep:
        fields[:, :1, 0] &= ~np.uint64(0xFF)  # the separator is each field's first byte
    return out.tobytes().translate(None, b"\0")


def _format_rows(words, vectors: np.ndarray, kept: np.ndarray) -> bytes:
    """The lines of `words` and their `vectors` rows, each field written
    as " " + '%.9g' % x; `kept` receives the float each field reads back
    as.

    A field in the band 1e-4 <= |x| < 1 is formatted with array
    arithmetic.  Its exponent X comes from three comparisons, and
    y = |x| * 10**(8 - X) is one rounding of an exact product: 10**p is
    exact for p <= 22.  Half-integers below 2**52 are floats, so y is on
    the exact product's side of every tie it does not equal, and where y
    is no tie and rint(y) has 9 digits, rint(y) is the correctly rounded
    mantissa m.  m / 10**(8 - X), a quotient of two exact floats, is then
    what float() reads back.  Every other field (a y that is a tie, the
    band's edges, zeros, subnormals, |x| >= 1, nan, inf) is formatted on
    its own with '%.9g' (DECISIONS.md "Text write").
    """
    a = np.abs(vectors)
    c = (a >= 1e-3).view(np.int8) + (a >= 1e-2).view(np.int8) + (a >= 0.1).view(np.int8)
    scale = _POW10[12 - c]  # 10**(8 - X) for X = c - 4
    below_one = a < 1.0  # false for nan too
    y = np.where(below_one, a, 1e-4) * scale  # the others stay out of the arithmetic
    m = np.rint(y)
    band = below_one & (np.abs(y - m) < 0.5) & (m >= 1e8) & (m < 1e9)
    np.copysign(m / scale, vectors, out=kept)
    m[~band] = 1e8  # keeps the table indices below in range
    lead = np.floor(m / 1e8)
    m -= lead * 1e8
    hi = np.floor(m / 1e4)
    lo = (m - hi * 1e4).astype(np.intp)
    hi = hi.astype(np.intp)
    others = np.flatnonzero(~band)
    texts = [b" %.9g" % x for x in vectors.reshape(-1)[others].tolist()]
    if texts:
        kept.reshape(-1)[others] = [float(t) for t in texts]
    # a 16-character field such as "-1.23456789e+300" widens the block by a lane
    body = _join_fields([_LANE0[lead.astype(np.intp) + 10 * c + 40 * np.signbit(vectors)],
                         np.where(lo == 0, _STRIP4[hi], _FULL4[hi] | _STRIP4[lo] << np.uint64(32))],
                        others, texts)
    ends = (np.flatnonzero(np.frombuffer(body, dtype=np.uint8) == ord("\n")) + 1).tolist()
    rows = memoryview(body)
    lines = []
    for word, start, end in zip(words, [0] + ends, ends):
        lines += (word.encode("utf-8"), rows[start:end])
    return b"".join(lines)


def save_embeddings(path, space: EmbeddingSpace) -> EmbeddingSpace:
    """Write a space in the same text format, floats as '%.9g' formats
    them, and return the space the written file parses to.

    The rows are formatted in blocks by `_format_rows`; the returned
    vectors equal `load_embeddings(path, space.n).vectors` bit for bit.
    """
    for w in space.words:
        if " " in w or "\n" in w or "\r" in w:
            raise ParseError(f"token {w!r} contains whitespace and cannot be serialized")
    kept = np.empty_like(space.vectors)
    step = max(1, _BLOCK_FIELDS // space.dim)
    with open(path, "wb") as f:
        f.write(b"%d %d\n" % (space.n, space.dim))
        for i in range(0, space.n, step):
            block = slice(i, i + step)
            f.write(_format_rows(space.words[block], space.vectors[block], kept[block]))
    return EmbeddingSpace(space.words, kept)


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
