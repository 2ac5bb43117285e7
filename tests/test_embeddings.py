import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submap.embeddings import (EmbeddingSpace, iterative_normalize, load_embeddings,
                               save_embeddings, unit_rows)
from submap.errors import (DegenerateVectorError, EmptySpaceError, ParseError,
                           TooFewSamplesError)

from conftest import make_space, write_vec_file


def test_load_basic(tmp_path):
    path = write_vec_file(tmp_path / "e.vec", [
        "the 1 0 0 0",
        "of 0 1 0 0",
        "and 0 0 1 0",
    ], header="3 4")
    space = load_embeddings(path, max_vocab=200000)
    assert space.n == 3 and space.dim == 4
    assert space.words == ("the", "of", "and")
    assert np.allclose(space.vectors[1], [0, 1, 0, 0])


def test_load_truncates_to_max_vocab(tmp_path):
    path = write_vec_file(tmp_path / "e.vec", [
        "the 1 0 0 0",
        "of 0 1 0 0",
        "and 0 0 1 0",
    ], header="3 4")
    space = load_embeddings(path, max_vocab=2)
    assert space.n == 2
    assert space.words == ("the", "of")


def test_load_skips_duplicate_tokens(tmp_path):
    lines = [
        "the 1 0 0",
        "of 0 1 0",
        "and 0 0 1",
        "the 9 9 9",   # duplicate, must be dropped
        "cat 1 1 0",
    ]
    path = write_vec_file(tmp_path / "e.vec", lines, header="5 3")
    space = load_embeddings(path, max_vocab=200000)
    # oracle: set-based reload of the same lines
    seen, expect = set(), []
    for line in lines:
        token = line.split(" ")[0]
        if token not in seen:
            seen.add(token)
            expect.append(token)
    assert list(space.words) == expect
    assert space.n == 4
    assert np.allclose(space.vectors[0], [1, 0, 0])  # first occurrence kept


def test_load_duplicates_do_not_consume_max_vocab(tmp_path):
    lines = ["a 1 0", "a 2 0", "b 0 1", "c 1 1"]
    path = write_vec_file(tmp_path / "e.vec", lines, header="4 2")
    space = load_embeddings(path, max_vocab=3)
    assert space.words == ("a", "b", "c")


def test_load_malformed_header(tmp_path):
    path = write_vec_file(tmp_path / "e.vec", ["a 1 0"], header="not a header at all")
    with pytest.raises(ParseError):
        load_embeddings(path, max_vocab=10)


def test_load_wrong_float_count_reports_line(tmp_path):
    path = write_vec_file(tmp_path / "e.vec", ["a 1 0 0", "b 1 0"], header="2 3")
    with pytest.raises(ParseError, match="line 3"):
        load_embeddings(path, max_vocab=10)


@pytest.mark.parametrize("text", ["1_0", "\u0661\u0662", "nan", "-inf", "1e400", "5e-324",
                                  "", "1,0", "0x1p3"])
def test_load_parses_each_value_as_float_does(tmp_path, text):
    path = write_vec_file(tmp_path / "e.vec", ["a 1 0", f"b {text} 1"], header="2 2")
    try:
        expected = float(text)
    except ValueError:
        with pytest.raises(ParseError, match="line 3"):
            load_embeddings(path, max_vocab=10)
        return
    got = load_embeddings(path, max_vocab=10).vectors[1]
    assert np.array_equal(got, [expected, 1.0], equal_nan=True)


def test_load_empty_file(tmp_path):
    path = write_vec_file(tmp_path / "e.vec", [], header="0 5")
    with pytest.raises(EmptySpaceError):
        load_embeddings(path, max_vocab=10)


def test_space_rejects_duplicates_and_bad_shapes():
    with pytest.raises(ParseError):
        EmbeddingSpace(("a", "a"), np.eye(2))
    with pytest.raises(EmptySpaceError):
        EmbeddingSpace(("a",), np.ones((1, 1)))


def test_iterative_normalize_idempotent_at_fixed_point():
    # enough iterations to converge; reapplication must then be a no-op
    space = make_space(12, 4, seed=3)
    once = iterative_normalize(space, iterations=60)
    again = iterative_normalize(once, iterations=60)
    assert np.max(np.abs(again.vectors - once.vectors)) < 1e-6


def test_iterative_normalize_antipodal_pair():
    v = unit_rows(np.array([[1.0, 2.0, 2.0]]))
    space = EmbeddingSpace(("a", "b"), np.vstack([v, -v]))
    out = iterative_normalize(space, iterations=4)
    assert np.max(np.abs(out.vectors - space.vectors)) < 1e-6


def test_iterative_normalize_matches_reference_loop(rng):
    x0 = rng.normal(size=(10, 4))
    space = EmbeddingSpace(tuple(f"w{i}" for i in range(10)), x0)
    out = iterative_normalize(space, iterations=5)
    # oracle: rerun the stated loop directly
    x = np.array(x0)
    for _ in range(5):
        x = x / np.linalg.norm(x, axis=1, keepdims=True)
        x = x - x.mean(axis=0)
    assert np.max(np.abs(x.mean(axis=0))) < 1e-3  # columns centered before last renorm
    x = x / np.linalg.norm(x, axis=1, keepdims=True)
    assert np.allclose(out.vectors, x)
    assert np.allclose(np.linalg.norm(out.vectors, axis=1), 1.0, atol=1e-6)


def test_iterative_normalize_zero_vector_names_token():
    vecs = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    space = EmbeddingSpace(("a", "dead", "c"), vecs)
    with pytest.raises(DegenerateVectorError, match="dead"):
        iterative_normalize(space, iterations=1)


def test_iterative_normalize_needs_two_rows():
    space = EmbeddingSpace(("a",), np.array([[1.0, 0.0]]))
    with pytest.raises(TooFewSamplesError):
        iterative_normalize(space, iterations=1)


def test_save_rejects_tokens_with_spaces(tmp_path):
    space = EmbeddingSpace(("a b",), np.array([[1.0, 0.0]]))
    with pytest.raises(ParseError):
        save_embeddings(tmp_path / "bad.vec", space)


token_strategy = st.text(
    alphabet=st.characters(blacklist_characters=" \n\r\t", blacklist_categories=("Cs",)),
    min_size=1, max_size=8)


@settings(max_examples=25, deadline=None)
@given(words=st.lists(token_strategy, min_size=1, max_size=6, unique=True),
       seed=st.integers(0, 2 ** 16))
def test_save_load_round_trip(tmp_path_factory, words, seed):
    g = np.random.default_rng(seed)
    vectors = g.normal(size=(len(words), 3))
    space = EmbeddingSpace(tuple(words), vectors)
    path = tmp_path_factory.mktemp("rt") / "space.vec"
    save_embeddings(path, space)
    back = load_embeddings(path, max_vocab=len(words))
    assert back.words == space.words
    # 9 significant digits of text precision
    assert np.max(np.abs(back.vectors - space.vectors)) < 1e-7 * np.max(np.abs(vectors) + 1)
