import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submap import retrieval
from submap.embeddings import EmbeddingSpace, unit_rows
from submap.errors import ConfigError, EmptyDictionaryError, ParseError
from submap.mapping import LinearMap, identity_map
from submap.retrieval import (SeedDictionary, csls_translate, gold_multimap,
                              induce_seed_dictionary, load_dictionary_tokens,
                              save_dictionary, selection_criterion)

from conftest import (brute_force_csls, make_space, one_shot_column_topk, one_shot_csls,
                      one_shot_r_s)


def brute_force_mutual_pairs(q, source, target, k):
    """Mutual CSLS pairs under the orthogonal map q over the whole source
    vocabulary, recomputed densely with k clamped to each direction's
    query and target counts."""
    fwd = brute_force_csls(unit_rows(source.vectors @ q.T), target.vectors,
                           min(k, source.n, target.n))
    uniq = np.unique(fwd)
    back_all = unit_rows(target.vectors @ q)
    bwd = brute_force_csls(back_all[uniq], source.vectors, min(k, len(uniq)))
    bwd_of = dict(zip(uniq.tolist(), bwd.tolist()))
    return [[s, t] for s, t in enumerate(fwd.tolist()) if bwd_of[t] == s]


def angled(deg):
    r = np.radians(deg)
    return np.array([np.cos(r), np.sin(r)])


class TestCslsTranslate:
    def test_self_retrieval(self, small_space):
        out = csls_translate(small_space.vectors, small_space, k=1)
        assert np.array_equal(out, np.arange(small_space.n))

    def test_matches_dense_oracle_small(self):
        g = np.random.default_rng(42)
        queries = unit_rows(g.normal(size=(5, 3)))
        targets = unit_rows(g.normal(size=(7, 3)))
        got = csls_translate(queries, targets, k=2)
        assert np.array_equal(got, brute_force_csls(queries, targets, 2))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), k=st.sampled_from([1, 5, 10]))
    def test_matches_dense_oracle_random(self, seed, k):
        g = np.random.default_rng(seed)
        q = int(g.integers(k, 60))
        n = int(g.integers(k, 80))
        d = int(g.integers(2, 6))
        queries = unit_rows(g.normal(size=(q, d)))
        targets = unit_rows(g.normal(size=(n, d)))
        assert np.array_equal(csls_translate(queries, targets, k=k),
                              brute_force_csls(queries, targets, k))

    def test_tie_breaks_to_lowest_index(self):
        target = unit_rows(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        queries = unit_rows(np.array([[1.0, 0.0], [0.8, 0.6]]))
        out = csls_translate(queries, target, k=1)
        assert out[0] == 0  # targets 0 and 1 identical, lowest index wins

    def test_blocked_matches_unblocked_and_dense_oracle(self, monkeypatch):
        g = np.random.default_rng(7)
        k, n_t, step = 5, 50, 7
        queries = unit_rows(g.normal(size=(3 * step + 3, 4)))  # last block: 3 < k rows
        targets = unit_rows(g.normal(size=(n_t, 4)))
        unblocked = csls_translate(queries, targets, k=k)
        dropped = csls_translate(queries, targets, k=k, keep_prob=0.6,
                                 rng=np.random.default_rng(3))
        monkeypatch.setattr(retrieval, "_BLOCK_ELEMENTS", step * n_t)
        assert retrieval._block_rows(n_t) == step
        blocked = csls_translate(queries, targets, k=k)
        assert np.array_equal(blocked, brute_force_csls(queries, targets, k))
        assert np.array_equal(blocked, unblocked)
        assert np.array_equal(csls_translate(queries, targets, k=k, keep_prob=0.6,
                                             rng=np.random.default_rng(3)), dropped)
        assert not np.array_equal(dropped, unblocked)  # the dropout did act

    def test_k_out_of_range(self, small_space):
        with pytest.raises(ConfigError):
            csls_translate(small_space.vectors, small_space, k=small_space.n + 1)
        with pytest.raises(ConfigError):
            csls_translate(small_space.vectors[:3], small_space, k=4)  # k > q
        with pytest.raises(ConfigError):
            csls_translate(small_space.vectors, small_space, k=0)

    @pytest.mark.parametrize("keep_prob", [0.0, -0.5, float("nan")])
    def test_keep_prob_must_be_positive(self, small_space, keep_prob):
        with pytest.raises(ConfigError, match="keep_prob must be positive"):
            csls_translate(small_space.vectors, small_space, 2, keep_prob,
                           np.random.default_rng(0))

    def test_dropout_needs_an_rng(self, small_space):
        with pytest.raises(ConfigError, match="keep_prob < 1 requires an rng"):
            csls_translate(small_space.vectors, small_space, 2, keep_prob=0.5)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), scale=st.floats(0.1, 10.0))
    def test_invariant_under_uniform_target_rescaling(self, seed, scale):
        g = np.random.default_rng(seed)
        queries = unit_rows(g.normal(size=(6, 4)))
        targets = unit_rows(g.normal(size=(9, 4)))
        rescaled = unit_rows(targets * scale)
        assert np.array_equal(csls_translate(queries, targets, k=3),
                              csls_translate(queries, rescaled, k=3))

    def test_penalizes_hub(self):
        # target 0 is the nearest cosine neighbour of every query; CSLS
        # penalizes that hub
        targets = np.vstack([angled(0), angled(40), angled(-40)])
        queries = np.vstack([angled(19), angled(5), angled(-5)])
        cs = csls_translate(queries, targets, k=2)
        # oracle: manual score computation on the three vectors
        sims = queries @ targets.T
        r_t = np.sort(sims, axis=1)[:, -2:].mean(axis=1)
        r_s = np.sort(targets @ queries.T, axis=1)[:, -2:].mean(axis=1)
        manual = (2 * sims - r_t[:, None] - r_s[None, :]).argmax(axis=1)
        assert np.array_equal(cs, manual)
        assert cs[0] == 1  # the ambiguous query flips away from the hub


def tied_rows(g, n, d=3):
    """Unit rows over a coarse grid of {-2, -1, 1, 2}: many rows repeat or
    are parallel, so many similarities tie."""
    return unit_rows(g.integers(1, 3, size=(n, d)) * g.choice([-1.0, 1.0], size=(n, d)))


class TestSlicedKernel:
    """The sliced passes against the frozen one-shot kernel, bit for bit,
    with slices of 3 so that k = 5 spans more than one slice and every
    slice loop ends on a ragged tail, and column tiles of 4 rows."""

    @pytest.fixture(autouse=True)
    def thin_slices(self, monkeypatch):
        monkeypatch.setattr(retrieval, "_SLICE", 3)
        monkeypatch.setattr(retrieval, "_TILE", 4)

    @pytest.mark.parametrize("keep_prob", [1.0, 0.3])
    @pytest.mark.parametrize("step", [None, 7, 4])  # 1 block; 4 blocks; 6 blocks, each < k rows
    def test_translations_match_one_shot_kernel(self, monkeypatch, step, keep_prob):
        k, n_q, n_t = 5, 23, 29
        if step is not None:
            monkeypatch.setattr(retrieval, "_BLOCK_ELEMENTS", step * n_t)
        step = retrieval._block_rows(n_t)
        for seed in range(10):
            g = np.random.default_rng(seed)
            rows = tied_rows if seed % 2 else (lambda g, n: unit_rows(g.normal(size=(n, 4))))
            queries, targets = rows(g, n_q), rows(g, n_t)
            got = csls_translate(queries, targets, k, keep_prob, np.random.default_rng(seed))
            want = one_shot_csls(queries, targets, k, step, keep_prob,
                                 np.random.default_rng(seed))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("step", [None, 7])  # 1 block; 4 blocks
    def test_dropout_consumes_the_one_shot_stream(self, monkeypatch, step):
        # refinement reads one generator across iterations, so a call must
        # leave it where the one-shot kernel leaves it
        k, n_q, n_t = 5, 23, 29
        if step is not None:
            monkeypatch.setattr(retrieval, "_BLOCK_ELEMENTS", step * n_t)
        g = np.random.default_rng(4)
        queries, targets = unit_rows(g.normal(size=(n_q, 4))), unit_rows(g.normal(size=(n_t, 4)))
        got, want = np.random.default_rng(9), np.random.default_rng(9)
        csls_translate(queries, targets, k, 0.3, got)
        one_shot_csls(queries, targets, k, retrieval._block_rows(n_t), 0.3, want)
        assert np.array_equal(got.random(50), want.random(50))

    @pytest.mark.parametrize("keep_prob, products", [(1.0, 7), (0.3, 8)])
    def test_resident_block_is_scored_without_a_product(self, monkeypatch, keep_prob,
                                                        products):
        n_t = 29
        monkeypatch.setattr(retrieval, "_BLOCK_ELEMENTS", 7 * n_t)  # 4 blocks
        matmul = np.matmul
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(retrieval.np, "matmul", counted)
        g = np.random.default_rng(2)
        queries, targets = unit_rows(g.normal(size=(23, 4))), unit_rows(g.normal(size=(n_t, 4)))
        got = csls_translate(queries, targets, 5, keep_prob, np.random.default_rng(2))
        assert len(calls) == products  # 4 + 3 without draws: the last block stays
        assert np.array_equal(got, one_shot_csls(queries, targets, 5, 7, keep_prob,
                                                 np.random.default_rng(2)))

    @pytest.mark.parametrize("k", [5, 10])
    def test_topk_passes_match_one_shot_kernel(self, k):
        for seed in range(10):
            g = np.random.default_rng(seed)
            sims = tied_rows(g, 23) @ tied_rows(g, 29).T if seed % 2 else g.normal(size=(23, 29))
            for dtype in (np.float64, np.float32):  # either block dtype
                sims = sims.astype(dtype)
                for block in (sims, sims[:k - 1]):  # fewer than k rows: keeps them all
                    r_s = retrieval._column_topk(block, k).mean(axis=1, dtype=np.float64)
                    assert np.array_equal(r_s, one_shot_r_s(one_shot_column_topk(block, k)))


def untiled_column_topk(sims, k):
    """The column top-k with each column slice filled by one strided copy."""
    n, m = sims.shape
    if n < k:
        return sims.T.copy()
    out = np.empty((m, k), dtype=sims.dtype)
    for j in range(0, m, retrieval._SLICE):
        part = np.ascontiguousarray(sims[:, j:j + retrieval._SLICE].T)
        part.partition(n - k, axis=1)
        out[j:j + retrieval._SLICE] = part[:, -k:]
    return out


class TestTiledColumnTopk:
    @pytest.mark.parametrize("width", [1200, 4000, 4032, 4096])
    @pytest.mark.parametrize("rows", [300, 50])  # two tiles and a ragged one; under one tile
    def test_matches_untiled_stripe_copy(self, width, rows):
        assert rows < retrieval._TILE or rows % retrieval._TILE
        sims = np.random.default_rng(width + rows).standard_normal((rows, width),
                                                                   dtype=np.float32)
        got = retrieval._column_topk(sims, 10)
        assert got.tobytes() == untiled_column_topk(sims, 10).tobytes()

    def test_matches_untiled_stripe_copy_on_the_merge_path(self, monkeypatch):
        n_q, n_t, k = 600, 4096, 10
        monkeypatch.setattr(retrieval, "_BLOCK_ELEMENTS", 256 * n_t)  # blocks of 256, 256, 88
        column_topk = retrieval._column_topk
        shapes = []

        def checked(sims, k):
            got = column_topk(sims, k)
            assert got.tobytes() == untiled_column_topk(sims, k).tobytes()
            shapes.append(sims.shape)
            return got

        monkeypatch.setattr(retrieval, "_column_topk", checked)
        g = np.random.default_rng(5)
        queries = unit_rows(g.normal(size=(n_q, 20)))
        targets = unit_rows(g.normal(size=(n_t, 20)))
        csls_translate(queries, targets, k)
        assert shapes == [(256, n_t), (256, n_t), (2 * k, n_t), (88, n_t), (2 * k, n_t)]


@pytest.mark.parametrize("keep_prob", [1.0, 0.9])
def test_csls_peak_memory_is_one_block(keep_prob):
    # the paper shape's calls: 2000 x 4000 (criterion, induction,
    # evaluation) fits one float32 block, and 4000 x 4000 (align's
    # back-translation) goes in blocks of at most 2**23 float32 (32 MB).
    # Beyond one block and the float32 copies of both sides, the passes may
    # add one float64 score slice and small buffers, not copies of the block
    g = np.random.default_rng(0)
    targets = unit_rows(g.normal(size=(4000, 300)))
    for n_q in (2000, 4000):
        queries = unit_rows(g.normal(size=(n_q, 300)))
        tracemalloc.start()
        try:
            csls_translate(queries, targets, 10, keep_prob, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = min(n_q * 4000, 2 ** 23) * 4
        assert peak <= 1.1 * (block + (n_q + 4000) * 300 * 4 + retrieval._SLICE * 4000 * 8), n_q


def twin_rows(g, n, d):
    """n unit rows in random order: n // 2 random rows and a twin of each,
    perturbed by 1e-8, so two targets' scores often differ by less than
    float32 resolves."""
    base = unit_rows(g.normal(size=(n // 2, d)))
    rows = np.vstack([base, unit_rows(base + 1e-8 * g.normal(size=base.shape))])
    return rows[g.permutation(n)]


@pytest.mark.parametrize("keep_prob", [1.0, 0.1])
@pytest.mark.parametrize("n_q, n_t, d", [(1200, 1200, 10), (2000, 4000, 300)])  # desk; paper
def test_kernel_matches_one_shot_kernel_at_pipeline_shapes(n_q, n_t, d, keep_prob):
    # the one-shot kernel computes r_t and subtracts it; the sliced kernel
    # does not, and must still pick the same target and leave the rng where
    # the one-shot kernel leaves it.  Twin targets make float32 scores tie
    g = np.random.default_rng(n_q + d)
    queries, targets = unit_rows(g.normal(size=(n_q, d))), twin_rows(g, n_t, d)
    got, want = np.random.default_rng(1), np.random.default_rng(1)
    assert np.array_equal(
        csls_translate(queries, targets, 10, keep_prob, got),
        one_shot_csls(queries, targets, 10, retrieval._block_rows(n_t), keep_prob, want))
    assert np.array_equal(got.random(50), want.random(50))


@pytest.mark.parametrize("n_q, n_t, d, rows", [
    (2000, 4000, 300, None),  # one block of the paper shape
    (300, 400, 3, tied_rows),  # many exact ties, broken toward the lowest index
])
def test_float32_kernel_matches_float64_oracle(n_q, n_t, d, rows):
    g = np.random.default_rng(3)
    rows = rows or (lambda g, n, d: unit_rows(g.normal(size=(n, d))))
    queries, targets = rows(g, n_q, d), rows(g, n_t, d)
    assert np.array_equal(csls_translate(queries, targets, 10),
                          brute_force_csls(queries, targets, 10))


class TestSelectionCriterion:
    def test_identity_map_identical_spaces(self, small_space):
        crit = selection_criterion(identity_map(small_space.dim).apply_source,
                                   small_space, small_space,
                                   vocab_limit=small_space.n, k=5)
        assert abs(crit - 1.0) < 1e-9

    def test_negated_identity_scores_below_identity(self):
        space = make_space(20, 5, seed=10)
        neg = LinearMap(-np.eye(5))
        # vocab_limit 6 < k: k is clamped to the 6 queries
        for vocab_limit in (20, 6):
            crit = selection_criterion(neg.apply_source, space, space,
                                       vocab_limit=vocab_limit, k=10)
            # oracle: dense recomputation on this fixed seed-10 space
            mapped = unit_rows(-space.vectors[:vocab_limit])
            idx = brute_force_csls(mapped, space.vectors, min(10, vocab_limit))
            expected = float(np.mean(np.sum(mapped * space.vectors[idx], axis=1)))
            assert abs(crit - expected) < 1e-12
            assert crit < selection_criterion(identity_map(5).apply_source, space, space,
                                              vocab_limit=vocab_limit, k=10)

    def test_vocab_limit_one(self, small_space):
        crit = selection_criterion(identity_map(small_space.dim).apply_source,
                                   small_space, small_space, vocab_limit=1, k=1)
        assert abs(crit - 1.0) < 1e-9

    def test_rejects_nonpositive_vocab_limit(self, small_space):
        with pytest.raises(ConfigError):
            selection_criterion(identity_map(small_space.dim).apply_source,
                                small_space, small_space, vocab_limit=0, k=1)


class TestInduceSeedDictionary:
    def test_identity_maps_keep_every_pair(self, small_space):
        ident = identity_map(small_space.dim)
        d = induce_seed_dictionary(ident.apply_source, ident.apply_target_back,
                                   small_space, small_space,
                                   vocab_limit=small_space.n, k=5)
        assert len(d) == small_space.n
        assert np.array_equal(d.pairs[:, 0], d.pairs[:, 1])

    def test_hub_collapse_keeps_single_mutual_pair(self):
        # forward sends everything to one hub target; backward translation
        # of that hub lands on source 0, so only (0, hub) is mutual
        space = make_space(5, 4, seed=8)
        hub = space.vectors[2]

        def forward(vectors, indices):
            return np.tile(hub, (len(vectors), 1))

        def backward(vectors, indices):
            return np.tile(space.vectors[0], (len(vectors), 1))

        d = induce_seed_dictionary(forward, backward, space, space, vocab_limit=5, k=1)
        # oracle, traced by hand: every source retrieves target 2 (the hub's
        # own index); back-translating 2 gives source 0; only source 0 matches
        assert d.pairs.tolist() == [[0, 2]]

    def test_rejects_nonpositive_vocab_limit(self, small_space):
        ident = identity_map(small_space.dim)
        with pytest.raises(ConfigError):
            induce_seed_dictionary(ident.apply_source, ident.apply_target_back,
                                   small_space, small_space, vocab_limit=0, k=1)

    def test_empty_dictionary_raises(self, small_space):
        # backward always lands on the last word, forward on index 0's word
        def forward(vectors, indices):
            return np.tile(small_space.vectors[0], (len(vectors), 1))

        def backward(vectors, indices):
            return np.tile(small_space.vectors[-1], (len(vectors), 1))

        with pytest.raises(EmptyDictionaryError):
            induce_seed_dictionary(forward, backward, small_space, small_space,
                                   vocab_limit=3, k=1)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_mutuality_recheck(self, seed):
        g = np.random.default_rng(seed)
        source = EmbeddingSpace(tuple(f"s{i}" for i in range(30)),
                                unit_rows(g.normal(size=(30, 4))))
        target = EmbeddingSpace(tuple(f"t{i}" for i in range(25)),
                                unit_rows(g.normal(size=(25, 4))))
        q = np.linalg.qr(g.normal(size=(4, 4)))[0]
        m = LinearMap(q)
        pairs = induce_seed_dictionary(m.apply_source, m.apply_target_back, source, target,
                                       vocab_limit=30, k=5).pairs
        # independent re-check of the mutual translation property
        assert pairs.tolist() == brute_force_mutual_pairs(q, source, target, 5)

    def test_k_clamped_to_unique_translations(self):
        # a 4-word target leaves at most 4 distinct translations to
        # back-translate, fewer than k = 10
        source = make_space(30, 4, seed=12)
        q = np.linalg.qr(np.random.default_rng(11).normal(size=(4, 4)))[0]
        target = EmbeddingSpace(("t0", "t1", "t2", "t3"),
                                unit_rows(source.vectors[:4] @ q.T))
        m = LinearMap(q)
        pairs = induce_seed_dictionary(m.apply_source, m.apply_target_back, source, target,
                                       vocab_limit=30, k=10).pairs
        expected = brute_force_mutual_pairs(q, source, target, 10)
        assert expected and pairs.tolist() == expected

    def test_no_duplicate_source_indices_enforced(self):
        with pytest.raises(ParseError):
            SeedDictionary(np.array([[0, 1], [0, 2]]))


class TestDictionaryIo:
    def test_round_trip(self, tmp_path, small_space):
        d = SeedDictionary(np.array([[0, 3], [2, 1]]))
        path = tmp_path / "dict.tsv"
        save_dictionary(path, d, small_space, small_space)
        pairs = load_dictionary_tokens(path)
        assert pairs == [("w0", "w3"), ("w2", "w1")]

    def test_loads_space_separated(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("dog hund\ncat katze\n", encoding="utf-8")
        assert load_dictionary_tokens(path) == [("dog", "hund"), ("cat", "katze")]

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("only_one_token\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            load_dictionary_tokens(path)

    def test_gold_multimap_merges_targets(self):
        gold = gold_multimap([("a", "x"), ("a", "y"), ("b", "x")])
        assert gold == {"a": {"x", "y"}, "b": {"x"}}
