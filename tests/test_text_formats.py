"""Byte-level checks of the text artifacts: the row-template writers must
emit exactly what per-element formatting emitted, and read back exactly."""

import numpy as np
import pytest

from submap.embeddings import EmbeddingSpace, load_embeddings, save_embeddings
from submap.errors import ParseError
from submap.mapping import LinearMap, load_linear_map, load_matrix, save_linear_map, save_matrix

EDGE_VALUES = [-0.0, 5e-324, 1e-320, 1e300, -1e300, 1 / 3]


def edge_matrix(rows, cols, seed=0):
    g = np.random.default_rng(seed)
    m = g.normal(size=(rows, cols)) * 10.0 ** g.integers(-8, 8, size=(rows, cols))
    m.flat[:len(EDGE_VALUES)] = EDGE_VALUES
    return m


def per_element(m, spec, words=None):
    """The reference formatting: one format() call per float."""
    prefixes = [w + " " for w in words] if words else [""] * len(m)
    return "".join(p + " ".join(format(x, spec) for x in row) + "\n"
                   for p, row in zip(prefixes, m))


def test_save_embeddings_golden_bytes(tmp_path):
    m = edge_matrix(6, 5)
    words = [f"w{i}" for i in range(6)]
    path = tmp_path / "space.vec"
    save_embeddings(path, EmbeddingSpace(tuple(words), m))
    assert path.read_bytes() == ("6 5\n" + per_element(m, ".9g", words)).encode("utf-8")
    back = load_embeddings(path, max_vocab=6).vectors
    written = np.vectorize(lambda x: float(format(x, ".9g")))(m)
    assert np.array_equal(back, written)
    assert np.array_equal(np.signbit(back), np.signbit(m))


def test_save_linear_map_golden_bytes(tmp_path):
    m = edge_matrix(6, 6, seed=1)
    path = tmp_path / "map.txt"
    save_linear_map(path, LinearMap(m))
    assert path.read_bytes() == ("6\n" + per_element(m, ".17g")).encode("utf-8")
    back = load_linear_map(path).w
    assert np.array_equal(back, m)
    assert np.array_equal(np.signbit(back), np.signbit(m))


def test_centroid_matrix_golden_bytes(tmp_path):
    m = edge_matrix(3, 7, seed=2)
    path = tmp_path / "centroids.txt"
    save_matrix(path, m)
    assert path.read_bytes() == ("3 7\n" + per_element(m, ".17g")).encode("utf-8")
    back = load_matrix(path)
    assert back.shape == (3, 7)
    assert np.array_equal(back, m)
    assert np.array_equal(np.signbit(back), np.signbit(m))


@pytest.mark.parametrize("body, match", [
    ("2\n1 0\n0 1 0\n", "line 3: expected 2 floats"),
    ("2\n1 0\n", "expected 2 rows, got 1"),
    ("2 3\n1 0 0\n0 1\n", "line 3: expected 3 floats"),
    ("2 3\n1 0 0\n0 1 0\n0 0 1\n", "expected 2 rows, got 3"),
    ("two\n1 0\n0 1\n", "first line"),
    ("2\n1 0\n0 x\n", "unparseable float"),
])
def test_load_matrix_rejects_malformed_text(tmp_path, body, match):
    path = tmp_path / "m.txt"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ParseError, match=match):
        load_matrix(path)


def test_load_matrix_skips_blank_lines(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2\n1 0\n\n0 1\n", encoding="utf-8")
    assert np.array_equal(load_linear_map(path).w, np.eye(2))
