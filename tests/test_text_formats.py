"""Byte-level checks of the text artifacts: the row-template writers must
emit exactly what per-element formatting emitted, and read back exactly."""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submap import embeddings
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


def _edge_pool():
    """Fields at the edges of the writers' array path, and the values they
    hand to '%.9g' or '%.17g' one by one."""
    bounds = [s * b for b in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 1.0, 10.0)
              for s in (1.0, -1.0)]
    pool = bounds + [np.nextafter(b, t) for b in bounds for t in (-np.inf, np.inf)]
    # the floats just below each power of ten: where a mantissa would carry
    # to the next power, and where floor(log10) can name the next exponent
    for p in range(-7, 3):
        x = float(f"1e{p}")
        for _ in range(4):
            x = np.nextafter(x, 0.0)
            pool += [x, -x]
    exact_ties = [2.0 ** -13, -(2.0 ** -13), 105 / 1024, -105 / 1024]  # (k + 0.5) / 10**p
    pool += exact_ties + [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, -1.23456789e300,
                          -1.2345678901234567e300, np.nan, np.inf, -np.inf]
    return np.array(pool)


EDGE_POOL = _edge_pool()


def _near_ties(g, size):
    """(k + 0.5) / 10**p for 9-digit k, around the in-band exponents, with
    both float neighbours."""
    k = g.integers(10 ** 8, 10 ** 9, size=size)
    ties = (k + 0.5) / 10.0 ** g.integers(8, 14, size=size) * g.choice([-1.0, 1.0], size=size)
    step = g.choice([-np.inf, 0.0, np.inf], size=size)
    return np.where(step == 0.0, ties, np.nextafter(ties, step))


@settings(max_examples=12, deadline=None)
@given(width=st.sampled_from([2, 300]), extra_rows=st.sampled_from([-1, 0, 1]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_save_embeddings_matches_per_element_formatting(tmp_path_factory, width, extra_rows,
                                                        seed):
    rows = max(1, embeddings._BLOCK_FIELDS // width) + extra_rows  # around one block
    g = np.random.default_rng(seed)
    m = g.normal(scale=0.06, size=(rows, width))  # mostly in band, as unit rows at d=300 are
    edge = g.random(m.shape) < 0.02
    m[edge] = g.choice(EDGE_POOL, size=int(edge.sum()))
    tie = ~edge & (g.random(m.shape) < 0.02)
    m[tie] = _near_ties(g, int(tie.sum()))
    assert_writes_per_element_bytes(tmp_path_factory.mktemp("fmt") / "space.vec", m, ".9g")


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


def _ties_17(g, size):
    """Exact ties of a 17-digit mantissa: k * 2**-j whose decimal expansion
    has 18 significant digits, the last a 5, for exponents 0 ... -7."""
    ties = []
    while len(ties) < size:
        j = int(g.integers(17, 25))  # k * 5**j has 18 digits: the exponent is 17 - j
        k = int(g.integers(-(-10 ** 17 // 5 ** j), 10 ** 18 // 5 ** j)) | 1
        x = k * 2.0 ** -j * g.choice([-1.0, 1.0])
        digits = Decimal(x).as_tuple().digits
        if len(digits) == 18 and digits[-1] == 5:
            ties.append(x)
    return np.array(ties)


def assert_writes_per_element_bytes(path, m, spec=".17g"):
    """save_matrix (".17g") or save_embeddings (".9g") writes `m` as one
    format() per field, and the file reads back as expected."""
    if spec == ".17g":
        save_matrix(path, m)
        assert path.read_bytes() == (f"{m.shape[0]} {m.shape[1]}\n"
                                     + per_element(m, spec)).encode("utf-8")
        assert load_matrix(path).tobytes() == m.tobytes()
        return
    words = [f"w{i}" for i in range(len(m))]
    kept = save_embeddings(path, EmbeddingSpace(tuple(words), m))
    assert path.read_bytes() == (f"{m.shape[0]} {m.shape[1]}\n"
                                 + per_element(m, spec, words)).encode("utf-8")
    back = load_embeddings(path, max_vocab=len(m))
    assert kept.words == back.words
    assert kept.vectors.tobytes() == back.vectors.tobytes()


@settings(max_examples=12, deadline=None)
@given(width=st.sampled_from([1, 10, 300]), extra_rows=st.sampled_from([-1, 0, 1]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_save_matrix_matches_per_element_formatting(tmp_path_factory, width, extra_rows, seed):
    rows = max(1, embeddings._BLOCK_FIELDS // width) + extra_rows  # around one block
    g = np.random.default_rng(seed)
    m = g.normal(scale=0.06, size=(rows, width))  # mostly in band, as a rotation at d=300 is
    m[g.random(m.shape) < 0.1] = 0.0  # and the zeros of a near-identity map
    spread = g.random(m.shape) < 0.1
    m[spread] = 10.0 ** g.uniform(-9, 3, size=int(spread.sum())) * g.choice([-1.0, 1.0],
                                                                             size=int(spread.sum()))
    edge = g.random(m.shape) < 0.02
    m[edge] = g.choice(EDGE_POOL, size=int(edge.sum()))
    tie = ~edge & (g.random(m.shape) < 0.01)
    m[tie] = _ties_17(g, int(tie.sum()))
    assert_writes_per_element_bytes(tmp_path_factory.mktemp("fmt") / "m.txt", m)


@pytest.mark.parametrize("spec", [".9g", ".17g"])
def test_save_matrix_corrects_an_exponent_guess_off_by_one(tmp_path, monkeypatch, spec):
    # floor(log10|x|) only guesses a field's exponent; a guess one too high
    # or one too low must still give the per-element bytes
    g = np.random.default_rng(0)
    m = 10.0 ** g.uniform(-7, 1.1, size=(40, 50)) * g.choice([-1.0, 1.0], size=(40, 50))
    m.flat[:len(EDGE_POOL)] = EDGE_POOL
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + g.integers(-1, 2, size=a.shape))
    assert_writes_per_element_bytes(tmp_path / "m.txt", m, spec)


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
