import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submap import embeddings
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
    for header, why in (("not a header at all", "expected '<count> <dim>'"),
                        ("1 2.5", "non-integer fields"),
                        ("-1 2", "need count >= 0, dim >= 2")):
        path = write_vec_file(tmp_path / "e.vec", ["a 1 0"], header=header)
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: malformed header')}"
                                             f".*{re.escape(why)}$"):
            load_embeddings(path, max_vocab=10)


@pytest.mark.parametrize("parse", [embeddings._parse_in_c, embeddings._parse_per_line])
def test_bytes_that_are_not_utf8_name_the_file(tmp_path, parse):
    path = tmp_path / "e.vec"
    path.write_bytes(b"2 2\na 1 0\n\xe9b 0 1\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}: not UTF-8 text (byte 0xe9: ")):
        parse(path, 10)


def test_load_wrong_float_count_reports_line(tmp_path):
    path = write_vec_file(tmp_path / "e.vec", ["a 1 0 0", "b 1 0"], header="2 3")
    with pytest.raises(ParseError, match="line 3"):
        load_embeddings(path, max_vocab=10)


@pytest.mark.parametrize("line, why", [("b 1 0", "expected 3 floats for 'b', got 2"),
                                       ("b 1 x 0", "unparseable float for 'b'")])
def test_line_error_names_the_file(tmp_path, line, why):
    # with two embedding inputs, the message must say which one is malformed
    path = write_vec_file(tmp_path / "target.vec", ["a 1 0 0", line], header="2 3")
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path} line 3: {why}')}$"):
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


def _outcome(parse):
    """What a parse gives: its words and vector bytes, or its error."""
    try:
        got = parse()
    except ParseError as e:
        return "ParseError", str(e)
    words, vectors = (got.words, got.vectors) if isinstance(got, EmbeddingSpace) else got
    return tuple(words), None if vectors is None else (vectors.shape, vectors.tobytes())


# (file text after a header "9 2", max_vocab, whether the C parse answers)
PARSE_CORPUS = {
    "duplicates before the cut": ("a 1 2\nb 3 4\na 5 6\nc 7 8\nd 9 0\n", 3, True),
    "duplicate after the cut is not read": ("a 1 2\nb 3 4\nb 9 9\nc x y\n", 2, True),
    "malformed duplicate fails the file": ("a 1 2\nb 3 4\na 5 x\nc 7 8\n", 3, False),
    "blank lines": ("\na 1 2\n\n\nb 3 4\n\n", 10, True),
    "only blank lines": ("\n\n", 10, True),
    "header count shorter than the file": ("a 1 2\nb 3 4\n" * 4 + "c 5 6\nd x\n", 10, True),
    "crlf line endings": ("a 1 2\r\nb 3 4\r\n\r\nc 5 6\r\n", 10, True),
    "lone carriage return splits a line": ("a 1\r2\nb 3 4\n", 10, False),
    "no final newline": ("a 1 2\nb 3 4", 10, True),
    "trailing space": ("a 1 2 \nb 3 4\n", 10, False),
    "double space": ("a 1  2\nb 3 4\n", 10, False),
    "tab inside a field": ("a 1\t2 3\nb 3 4\n", 10, False),
    "tab beside a field": ("a 1\t 2\nb \t3 4\n", 10, True),
    "token-only line": ("a\nb 3 4\n", 10, False),
    "token and a space": ("a \nb 3 4\n", 10, False),
    "token and two spaces": ("a  \nb 3 4\n", 10, False),
    "one float too many": ("a 1 2 3\nb 3 4\n", 10, False),
    "every line one float too many": ("a 1 2 3\nb 3 4 5\n", 10, False),
    "empty token": (" 1 2\nb 3 4\n", 10, True),
    "ascii separator beside a field": ("a 1\x1c 2\nb 3 4\n", 10, False),
    "unicode space beside a field": ("a 1\xa0 \u20032\nb 3\x85 4\n", 10, True),
    "signed zeros, nans and extremes": ("a -0 +0\nb -nan NaN\nc -Infinity 1e400\n"
                                        "d 5e-324 2.2250738585072011e-308\n", 10, True),
    "decimal forms": ("a +.5 1.\nb 1E5 -7e-3\n", 10, True),
}
for _text in ["1_0", "\u0661\u0662", "nan", "-inf", "1e400", "5e-324", "", "1,0", "0x1p3"]:
    PARSE_CORPUS[f"float syntax {_text!r}"] = (
        f"a 1 0\nb {_text} 1\n", 10, _text in ("nan", "-inf", "1e400", "5e-324"))


@pytest.mark.parametrize("name", sorted(PARSE_CORPUS))
def test_c_parse_matches_per_line_loop(tmp_path, name):
    body, max_vocab, in_c = PARSE_CORPUS[name]
    path = tmp_path / "e.vec"
    path.write_bytes(("9 2\n" + body).encode("utf-8"))
    want = _outcome(lambda: embeddings._parse_per_line(path, max_vocab))
    fast = embeddings._parse_in_c(path, max_vocab)
    assert (fast is not None) == in_c
    if fast is not None:
        assert _outcome(lambda: fast) == want
    try:
        got = _outcome(lambda: load_embeddings(path, max_vocab))
    except EmptySpaceError:
        assert want == ((), None)
    else:
        assert got == want


field_strategy = st.lists(st.sampled_from(list("0123456789+-.eE_naifINF,x\t\x0b\x1c\x1f")
                                          + ["\xa0", "\u0661", "\u2028", "nan", "inf",
                                             "1e-400"]),
                          max_size=5).map("".join)


@settings(max_examples=300, deadline=None)
@given(fields=st.lists(field_strategy, min_size=4, max_size=4))
def test_c_parse_reads_each_field_as_the_loop_does(tmp_path_factory, fields):
    path = tmp_path_factory.mktemp("fields") / "e.vec"
    path.write_text(f"2 2\na {fields[0]} {fields[1]}\nb {fields[2]} {fields[3]}\n",
                    encoding="utf-8")
    want = _outcome(lambda: embeddings._parse_per_line(path, 10))
    fast = embeddings._parse_in_c(path, 10)
    if fast is not None:
        assert _outcome(lambda: fast) == want
    assert _outcome(lambda: load_embeddings(path, 10)) == want


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_unit_rows_non_finite_row_names_token(bad):
    vecs = np.array([[1.0, 0.0], [bad, 2.0], [0.0, 1.0]])
    with pytest.raises(DegenerateVectorError, match="non-finite norm for odd"):
        unit_rows(vecs, ("a", "odd", "c"))


def test_unit_rows_keeps_the_bits_of_finite_rows():
    vecs = np.random.default_rng(2).normal(size=(50, 7))
    norms = np.linalg.norm(vecs, axis=1)
    assert np.array_equal(unit_rows(vecs), vecs / norms[:, None])


def test_iterative_normalize_needs_two_rows():
    space = EmbeddingSpace(("a",), np.array([[1.0, 0.0]]))
    with pytest.raises(TooFewSamplesError):
        iterative_normalize(space, iterations=1)


def test_save_rejects_tokens_with_spaces(tmp_path):
    space = EmbeddingSpace(("a b",), np.array([[1.0, 0.0]]))
    with pytest.raises(ParseError):
        save_embeddings(tmp_path / "bad.vec", space)


@pytest.mark.parametrize("token", ["a\rb", "a\nb", "a\r"])
def test_save_rejects_tokens_with_line_breaks(tmp_path, token):
    # reading splits lines at "\r" as well as "\n", so the file could not be read back
    space = EmbeddingSpace((token, "c"), np.array([[0.6, 0.8], [0.8, 0.6]]))
    with pytest.raises(ParseError, match=re.escape(repr(token))):
        save_embeddings(tmp_path / "bad.vec", space)
    assert not (tmp_path / "bad.vec").exists()


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
