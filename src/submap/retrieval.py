"""CSLS translation retrieval, the unsupervised model selection
criterion, and bidirectional seed-dictionary induction.

All retrieval assumes unit-norm rows on both sides, breaks ties
between equal computed scores toward the lowest target index, and is
deterministic given an rng.  Exact-duplicate target rows need not
compute equal scores: BLAS can round one dot product differently by
the column's place in its kernel, so either copy may win.
Similarities are float32 products; the r_s means, the scores and
everything built on them are float64.  The query-side CSLS term r_t is
never computed: it is constant along a query's row, so no argmax reads it.
Every CSLS lookup in the package goes through `_translate`, which maps,
normalizes and clamps k in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSpace, unit_rows
from .errors import ConfigError, EmptyDictionaryError, ParseError, utf8_input
from .mapping import MapFn

# cap on float32 similarities per block (32 MB), keeps memory bounded on big
# vocabularies: a block holds 2097 queries against 4000 targets, so on a
# 4000-word target only a call with more queries than that splits
_BLOCK_ELEMENTS = 2 ** 23
# rows (or columns) per slice of a block that the top-k and scoring passes
# work on: each pass reworks a few MB that stay in cache, not the whole block
_SLICE = 64
# block rows per tile when a slice of columns is copied out of a block: one
# strided copy of a whole column slice walks every block row, and at
# power-of-two widths those rows fall into the same cache sets
_TILE = 128


def _rows32(x) -> np.ndarray:
    """A float32 copy of the rows of a space or an array."""
    return np.array(x.vectors if isinstance(x, EmbeddingSpace) else x, dtype=np.float32)


def _block_rows(n_cols: int) -> int:
    return max(1, _BLOCK_ELEMENTS // max(1, n_cols))


def _column_topk(sims: np.ndarray, k: int) -> np.ndarray:
    """[n_cols, k]: the k largest entries of each column as a row, in the
    order introselect leaves them, or every entry when a column has fewer
    than k.  Each slice of `_SLICE` columns is partitioned as a transposed
    copy in a small buffer, filled a tile of `_TILE` rows at a time, or
    at once where the transpose is C-contiguous."""
    cols = sims.T
    n, m = cols.shape
    if m < k:
        return cols.copy()
    out = np.empty((n, k), dtype=cols.dtype)
    buf = np.empty((min(_SLICE, n), m), dtype=cols.dtype)
    tile = m if cols.flags.c_contiguous else _TILE
    for i in range(0, n, _SLICE):
        part = buf[:min(_SLICE, n - i)]
        for j in range(0, m, tile):
            part[:, j:j + tile] = cols[i:i + _SLICE, j:j + tile]
        part.partition(m - k, axis=1)
        out[i:i + _SLICE] = part[:, -k:]
    return out


def csls_translate(queries, target, k: int, keep_prob: float = 1.0,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """Top-1 target index per query under 2*cos - r_t - r_s.

    r_t is the mean cosine of the query to its k nearest target rows and
    r_s the mean cosine of the target to its k nearest query rows; the
    query set itself serves as the source-side neighborhood.  r_t is the
    same for every target of a query, so it cannot change which target
    wins and is not computed: each query takes the argmax of 2*cos - r_s,
    one correctly rounded float64 value per score.  With keep_prob < 1
    each score survives with that probability and dropped scores count
    as -inf (stochastic dictionary induction); keep_prob must be
    positive, and 1 or more drops nothing.

    Query rows go in blocks of at most 2**23 similarities (32 MB), each
    the float32 product of its rows with every target in one BLAS call,
    written into one reused buffer; both sides are cast to float32 once
    per call.  The first pass merges each block's columns into a running
    [n_targets, k] top-k for r_s (`_column_topk`), partitioned in float32
    and averaged in float64.  The second pass scores and takes the
    argmax.  It starts with the block the buffer still holds and
    recomputes the others; with dropout it goes block after block in
    query order, so the block left over is recomputed too.  Top-k,
    scoring, dropout and argmax run on slices of 64 rows or columns:
    each score slice is doubled (exactly) into one reused float64 buffer
    before r_s is subtracted.  So memory holds one float32 block plus a
    few slice buffers.  Each slice's dropout draws fill one reused buffer
    u, and a score is dropped where u >= keep_prob, by taking the minimum
    with -inf there and +inf elsewhere; slice after slice, the draws
    continue one stream as a single draw over the query rows would.
    """
    q_vecs = _rows32(queries)
    t_vecs = _rows32(target)
    n_q, n_t = q_vecs.shape[0], t_vecs.shape[0]
    if not 1 <= k <= n_t:
        raise ConfigError(f"k={k} out of range for {n_t} target rows")
    if k > n_q:
        raise ConfigError(f"k={k} exceeds query count {n_q} for the r_s neighborhood")
    if not keep_prob > 0.0:
        raise ConfigError(f"keep_prob must be positive, got {keep_prob}")
    dropout = keep_prob < 1.0
    if dropout and rng is None:
        raise ConfigError("keep_prob < 1 requires an rng")
    step = _block_rows(n_t)
    block = np.empty((min(step, n_q), n_t), dtype=np.float32)

    def product(i: int) -> np.ndarray:
        rows = q_vecs[i:i + step]
        return np.matmul(rows, t_vecs.T, out=block[:len(rows)])

    starts = range(0, n_q, step)
    col_top = None  # [n_t, <= k] largest similarities seen so far per target
    for i in starts:
        sims = product(i)
        top = _column_topk(sims, k)
        # each merged row is [top so far, this block's top] of one target
        col_top = top if col_top is None else _column_topk(
            np.concatenate((col_top, top), axis=1).T, k)
    r_s = col_top.mean(axis=1, dtype=np.float64)
    out = np.empty(n_q, dtype=np.int64)
    buf = np.empty((min(_SLICE, n_q), n_t))
    drawn = np.empty_like(buf) if dropout else None
    held = starts[-1]  # the block `block` holds
    for i in starts if dropout else [held, *starts[:-1]]:
        if i != held:
            sims, held = product(i), i
        for j in range(0, len(sims), _SLICE):
            scores = buf[:min(_SLICE, len(sims) - j)]
            np.multiply(sims[j:j + _SLICE], 2.0, out=scores)
            scores -= r_s
            if dropout:
                u = drawn[:len(scores)]
                rng.random(out=u)
                u -= keep_prob  # +0 or more exactly where u >= keep_prob
                np.copysign(np.inf, u, out=u)
                np.negative(u, out=u)
                np.minimum(scores, u, out=scores)
            out[i + j:i + j + len(scores)] = scores.argmax(axis=1)
    return out


def _translate(fn: MapFn, space: EmbeddingSpace, idx: np.ndarray, target: EmbeddingSpace,
               k: int, keep_prob: float = 1.0,
               rng: np.random.Generator | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Rows `idx` of `space` mapped by `fn` and unit-normalized, and their
    CSLS translations into `target` with k clamped to both sides' sizes."""
    mapped = unit_rows(fn(space.vectors[idx], idx))
    return mapped, csls_translate(mapped, target, min(k, len(idx), target.n), keep_prob, rng)


def selection_criterion(forward: MapFn, source: EmbeddingSpace, target: EmbeddingSpace,
                        vocab_limit: int = 10000, k: int = 10) -> float:
    """Mean cosine between mapped frequent source words and their CSLS
    translations; higher correlates with mapping quality."""
    if vocab_limit < 1:
        raise ConfigError(f"vocab_limit must be positive, got {vocab_limit}")
    idx = np.arange(min(vocab_limit, source.n))
    mapped, translated = _translate(forward, source, idx, target, k)
    return float(np.sum(mapped * target.vectors[translated], axis=1).mean())


@dataclass(frozen=True)
class SeedDictionary:
    """Induced (source_index, target_index) pairs, one per source word."""

    pairs: np.ndarray  # [m x 2] int

    def __post_init__(self):
        pairs = np.ascontiguousarray(self.pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ParseError(f"pairs must be m x 2, got {pairs.shape}")
        src = pairs[:, 0]
        if len(np.unique(src)) != len(src):
            raise ParseError("duplicate source index in seed dictionary")
        pairs.flags.writeable = False
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return self.pairs.shape[0]


def induce_seed_dictionary(forward: MapFn, backward: MapFn, source: EmbeddingSpace,
                           target: EmbeddingSpace, vocab_limit: int = 10000, k: int = 10,
                           keep_prob: float = 1.0,
                           rng: np.random.Generator | None = None) -> SeedDictionary:
    """Mutual-translation pairs over the top `vocab_limit` source words.

    Each source word's CSLS translation is back-translated through the
    backward map over the full source vocabulary; the pair is kept only
    when the round trip returns the original word.  With keep_prob < 1
    the forward choice is randomized by score dropout while the
    backward re-check stays deterministic, so the dictionary thins to
    roughly keep_prob of its deterministic size instead of vanishing.
    """
    if vocab_limit < 1:
        raise ConfigError(f"vocab_limit must be positive, got {vocab_limit}")
    v = min(vocab_limit, source.n)
    _, translations = _translate(forward, source, np.arange(v), target, k, keep_prob, rng)
    unique_targets = np.unique(translations)
    _, back = _translate(backward, target, unique_targets, source, k)
    kept = np.flatnonzero(back[np.searchsorted(unique_targets, translations)] == np.arange(v))
    if kept.size == 0:
        raise EmptyDictionaryError(
            f"no mutual translations among the top {v} source words")
    return SeedDictionary(np.column_stack((kept, translations[kept])))


def save_dictionary(path, dictionary: SeedDictionary, source: EmbeddingSpace,
                    target: EmbeddingSpace) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for s, t in dictionary.pairs:
            f.write(f"{source.words[s]}\t{target.words[t]}\n")


def load_dictionary_tokens(path) -> list[tuple[str, str]]:
    """Token pairs from a text dictionary, tab- or space-separated."""
    out = []
    with open(path, encoding="utf-8") as f, utf8_input(path):
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" in line:
                fields = line.split("\t")
            else:
                fields = line.split(" ")
            if len(fields) != 2 or not fields[0] or not fields[1]:
                raise ParseError(f"{path} line {lineno}: expected 'source<TAB>target'")
            out.append((fields[0], fields[1]))
    return out


def gold_multimap(pairs: list[tuple[str, str]]) -> dict[str, set[str]]:
    gold: dict[str, set[str]] = {}
    for s, t in pairs:
        gold.setdefault(s, set()).add(t)
    return gold
