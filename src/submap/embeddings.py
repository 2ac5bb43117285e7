"""Loading, normalizing and persisting monolingual embedding spaces.

The on-disk format is the word2vec text format: a header line
"<count> <dim>" followed by one "<token> <f1> ... <fd>" line per word,
single-space separated, UTF-8.  Vectors are held as float64 throughout.

`load_embeddings` parses the vector bodies in C, with one `np.loadtxt`
call that rounds as `float()` does.  A file the C parse cannot vouch
for (a malformed line, or a float syntax only `float()` reads, such as
"1_0") falls back to the per-line loop, which is the reference.

`write_rows` is the one text writer of spaces and maps: it formats
blocks of rows with array arithmetic, each field as '%.9g' or '%.17g'
formats it.  `save_embeddings` writes a space at 9 digits and returns
the space the file parses to, so a caller that keeps it need not read
the file back; `mapping.save_matrix` writes maps and centroids at 17.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateVectorError, EmptySpaceError, ParseError, TooFewSamplesError,
                     utf8_input)

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


def _read_header(f) -> tuple[int, int]:
    header = f.readline()
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"{f.name}: malformed header {header!r}: expected '<count> <dim>'")
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"{f.name}: malformed header {header!r}: non-integer fields") from None
    if count < 0 or dim < 2:
        raise ParseError(f"{f.name}: malformed header {header!r}: need count >= 0, dim >= 2")
    return count, dim


def _parse_per_line(path, max_vocab: int):
    """The reference parse, one `float()` per value: (words, vectors or None).

    It is the only path that raises a line-numbered ParseError and that
    accepts the float syntaxes `loadtxt` rejects ("1_0", non-ASCII digits).
    """
    words: list[str] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as f, utf8_input(path):
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
                raise ParseError(f"{path} line {lineno}: expected {dim} floats for {token!r}, "
                                 f"got {len(fields) - 1}")
            try:
                vec = np.array(fields[1:], dtype=np.float64)
            except ValueError:
                raise ParseError(f"{path} line {lineno}: unparseable float for {token!r}") from None
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
    with open(path, encoding="utf-8") as f, utf8_input(path):
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


# Fields per `_format_fields` call: its temporaries then take about 2 MB,
# and a larger block is no faster per field
_BLOCK_FIELDS = 1 << 14

# 10**p for p = 0 ... 22, each an exact float, and its Veltkamp halves,
# which Dekker's TwoProduct multiplies
_POW10 = 10.0 ** np.arange(23)
_SPLIT = 134217729.0  # 2**27 + 1
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _field_prefix(sign: bytes, e: int, point: bool, lead: int) -> int:
    """Lane 0 of a field: the separator, the sign, and the text before the
    fraction digits of a mantissa, for the exponent X = -e."""
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


def _mantissa(a: np.ndarray, e: np.ndarray, precision: int) -> tuple[np.ndarray, np.ndarray]:
    """D = a * 10**(precision - 1 + e) rounded half to even, as int64, and
    where hi <= 10**(precision - 1), which holds wherever the exact product
    has fewer than `precision` digits.

    hi, the rounded product, is within hi * 2**-53 of the exact one, so
    rint(hi) is D wherever that keeps clear of a half-integer.
    Elsewhere Dekker's TwoProduct gives hi + lo = the exact product, and
    hi is an even integer (hi >= 10**16 > 2**53) or, for precision 9, a
    half-integer: D is rint(hi) + rint(lo), moved across the tie by the
    sign of lo."""
    hi = a * _POW10[precision - 1:][e]
    d = np.rint(hi)
    t = hi - d
    near = np.flatnonzero(np.abs(t) + hi * 2.0 ** -53 >= 0.5)
    d = d.astype(np.int64)
    if near.size:
        i = near if near.size < d.size else slice(None)
        p = e[i] + (precision - 1)
        a_hi = _SPLIT * a[i]
        a_hi -= a_hi - a[i]
        a_lo = a[i] - a_hi
        lo = a_hi * _POW10_HI[p] - hi[i]
        lo += a_hi * _POW10_LO[p]
        lo += a_lo * _POW10_HI[p]
        lo += a_lo * _POW10_LO[p]
        d[i] += (np.rint(lo) + 2 * t[i] * (t[i] * lo > 0)).astype(np.int64)
    return d, hi <= _POW10[precision - 1]


def _join_fields(lanes, others: np.ndarray, texts: list[bytes], row_sep: bool) -> bytes:
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


def _format_fields(m: np.ndarray, precision: int, kept: np.ndarray | None,
                   row_sep: bool) -> bytes:
    """The lines of `m`, each field written as " " + '%.{precision}g' % x
    for precision 9 or 17; `kept`, if given (precision 9), receives the
    float each field reads back as.

    A field with 1e-6 <= |x| < 10 is formatted with array arithmetic.
    floor(log10|x|) guesses its exponent X = -e; where the product may
    lie below 10**(precision - 1) or its mantissa D reaches 10**precision,
    a second evaluation moves X by one, and a field still outside
    [10**(precision - 1), 10**precision) after it, or whose X leaves
    -6...0, is formatted on its own.  Zeros come out as "0" or "-0", and
    every other field (|x| < 1e-6, |x| >= 10, nan, inf) is formatted with
    '%.{precision}g' one at a time.  For precision 9, D / 10**(8 + e), a
    quotient of two exact floats, is what float() reads back
    (DECISIONS.md "Text write").
    """
    x = m.reshape(-1)
    a = np.abs(x)
    band = (a >= 1e-6) & (a < 10.0)  # false for nan too
    a = np.where(band, a, 1.0)  # the others stay out of the arithmetic
    e = np.clip(-np.floor(np.log10(a)), 0, 6).astype(np.intp)
    d, below = _mantissa(a, e, precision)
    moved = np.flatnonzero(band & (below | (d >= 10 ** precision)))
    if moved.size:
        e_moved = e[moved] + np.where(below[moved], 1, -1)
        valid = (e_moved >= 0) & (e_moved <= 6)
        e_moved[~valid] = 0
        d_moved, below_moved = _mantissa(a[moved], e_moved, precision)
        band[moved] = valid & ~below_moved & (d_moved < 10 ** precision)
        e[moved], d[moved] = e_moved, d_moved
    out = ~band
    others = np.flatnonzero(out & (x != 0.0))
    texts = [b" %.*g" % (precision, v) for v in x[others].tolist()]
    d[out] = 0  # zeros; the others' lanes are overwritten by their texts
    e[out] = 0
    if kept is not None:
        np.copysign(d / _POW10[precision - 1:][e], x, out=kept.reshape(-1))
        kept.reshape(-1)[others] = [float(t) for t in texts]
    # four fraction digits at a time from the last, each from the table with
    # trailing zeros as NUL where no later group has a digit
    quads = []
    tail = True
    for _ in range((precision - 1) // 4):
        group, d = d, d // 10 ** 4
        group -= d * 10 ** 4
        quads.insert(0, _DIGITS4[group + 10000 * tail])
        tail = tail & (group == 0)
    lanes = [_PREFIX[d + 10 * (e + 7 * (tail + 2 * np.signbit(x)))]]
    lanes += [quads[k] | quads[k + 1] << 32 for k in range(0, len(quads), 2)]
    # below X = -4, "d.ddd...e-0X": every group half a lane earlier, then
    # the exponent
    sci = np.flatnonzero(e > 4)
    if sci.size:
        old = [lane[sci] for lane in lanes] + [_EXPONENT[e[sci]]]
        lanes[0][sci] = old[0] | old[1] << 32
        for k in range(1, len(lanes)):
            lanes[k][sci] = old[k] >> 32 | old[k + 1] << 32
    # a per-field text such as "-1.2345678901234567e+300" widens the block by a lane
    return _join_fields([lane.reshape(m.shape) for lane in lanes], others, texts, row_sep)


def write_rows(f, m: np.ndarray, precision: int, words=None, kept=None) -> None:
    """Write one line per row of `m` to the binary file `f`: its fields as
    '%.{precision}g' formats them (9 or 17), single-space separated, after
    `words[i]` and a space where words are given.  `kept` (precision 9)
    receives the float each field reads back as.

    Rows are formatted in blocks of about `_BLOCK_FIELDS` fields by
    `_format_fields`.
    """
    step = max(1, _BLOCK_FIELDS // max(1, m.shape[1]))
    for i in range(0, len(m), step):
        block = slice(i, i + step)
        body = _format_fields(m[block], precision, None if kept is None else kept[block],
                              row_sep=words is not None)
        if words is None:
            f.write(body)
            continue
        ends = (np.flatnonzero(np.frombuffer(body, dtype=np.uint8) == ord("\n")) + 1).tolist()
        rows = memoryview(body)
        lines = []
        for word, start, end in zip(words[block], [0] + ends, ends):
            lines += (word.encode("utf-8"), rows[start:end])
        f.write(b"".join(lines))


def save_embeddings(path, space: EmbeddingSpace) -> EmbeddingSpace:
    """Write a space in the same text format, floats as '%.9g' formats
    them, and return the space the written file parses to.

    The returned vectors equal `load_embeddings(path, space.n).vectors`
    bit for bit.
    """
    for w in space.words:
        if " " in w or "\t" in w or "\n" in w or "\r" in w:
            raise ParseError(f"token {w!r} contains whitespace and cannot be serialized")
    kept = np.empty_like(space.vectors)
    with open(path, "wb") as f:
        f.write(b"%d %d\n" % (space.n, space.dim))
        write_rows(f, space.vectors, 9, space.words, kept)
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
