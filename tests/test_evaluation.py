import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submap.clustering import Partition, cluster_centroids
from submap.embeddings import EmbeddingSpace, unit_rows
from submap.errors import EmptyEvaluationError
from submap.evaluation import (evaluate_bli, format_report, per_subspace_accuracy,
                               per_subspace_table, report_to_json)
from submap.mapping import LinearMap, identity_map
from submap.retrieval import gold_multimap
from submap.synthetic import generate_instance

from conftest import brute_force_csls, make_space


def identity_gold(space):
    return {w: {w} for w in space.words}


def piecewise_forward(inst):
    def fwd(vectors, indices):
        out = np.empty_like(vectors)
        for cid, q in enumerate(inst.true_maps):
            rows = inst.labels[indices] == cid
            out[rows] = vectors[rows] @ q.T
        return out
    return fwd


class TestEvaluateBli:
    def test_identity_everything(self, small_space):
        report = evaluate_bli(identity_map(small_space.dim).apply_source,
                              identity_gold(small_space), small_space, small_space, k=5)
        assert report.p_at_1 == 1.0
        assert report.evaluated == small_space.n
        assert report.skipped_oov == 0

    def test_any_gold_target_counts(self, small_space):
        # two translations per source; the map hits the second one
        gold = {w: {w, small_space.words[(i + 1) % small_space.n]}
                for i, w in enumerate(small_space.words)}
        report = evaluate_bli(identity_map(small_space.dim).apply_source, gold,
                              small_space, small_space, k=5)
        assert report.p_at_1 == 1.0

    def test_true_piecewise_map_on_synthetic(self):
        inst = generate_instance(3, 60, 8, 5.0, 0.0, seed=2)
        gold = gold_multimap(list(inst.gold))
        report = evaluate_bli(piecewise_forward(inst), gold,
                              inst.source, inst.target, k=10)
        assert report.p_at_1 >= 0.99

    def test_oov_entries_skipped_not_wrong(self, small_space):
        gold = identity_gold(small_space)
        gold["missing-word"] = {"w0"}
        gold["w0"] = {"not-in-target"}
        report = evaluate_bli(identity_map(small_space.dim).apply_source, gold,
                              small_space, small_space, k=5)
        assert report.skipped_oov == 2
        assert report.evaluated == small_space.n - 1
        assert report.evaluated + report.skipped_oov == len(gold)
        assert report.p_at_1 == 1.0

    def test_empty_gold(self, small_space):
        with pytest.raises(EmptyEvaluationError):
            evaluate_bli(identity_map(small_space.dim).apply_source, {},
                         small_space, small_space)
        with pytest.raises(EmptyEvaluationError):
            evaluate_bli(identity_map(small_space.dim).apply_source,
                         {"nope": {"nada"}}, small_space, small_space)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_invariant_under_gold_permutation(self, seed):
        g = np.random.default_rng(seed)
        space = make_space(25, 4, seed=17)
        items = [(w, {space.words[int(g.integers(25))]}) for w in space.words]
        report_a = evaluate_bli(identity_map(4).apply_source, dict(items),
                                space, space, k=5)
        perm = [items[i] for i in g.permutation(25)]
        report_b = evaluate_bli(identity_map(4).apply_source, dict(perm),
                                space, space, k=5)
        assert report_a.p_at_1 == report_b.p_at_1


class TestPerSubspaceAccuracy:
    def uniform_setup(self, pieces=3):
        space = make_space(30, 5, seed=21)
        assignments = np.arange(space.n) % pieces
        part = Partition(assignments, cluster_centroids(space.vectors, assignments))
        return space, part

    def test_uniform_map_gives_uniform_accuracy(self):
        space, part = self.uniform_setup()
        report = per_subspace_accuracy(identity_map(space.dim).apply_source, part,
                                       identity_gold(space), space, space,
                                       vocab_limit=50000, k=5)
        accs = [r.accuracy for r in report.per_subspace]
        assert accs == [1.0, 1.0, 1.0]
        assert np.std(accs) == 0.0

    def test_single_map_on_multi_rotation_is_uneven(self):
        # one cluster's true rotation as a global map: that cluster is
        # perfect, the others collapse; the non-uniformity is structural
        inst = generate_instance(3, 80, 8, 5.0, 0.0, seed=5)
        part = Partition(inst.labels,
                         cluster_centroids(inst.source.vectors, inst.labels))
        single = LinearMap(inst.true_maps[0])
        gold = gold_multimap(list(inst.gold))
        report = per_subspace_accuracy(single.apply_source, part, gold,
                                       inst.source, inst.target,
                                       vocab_limit=50000, k=10)
        accs = [r.accuracy for r in report.per_subspace]
        assert np.std(accs) > 0.1
        assert max(accs) > 0.95

    def test_true_piecewise_map_is_uniform(self):
        inst = generate_instance(3, 80, 8, 5.0, 0.0, seed=5)
        part = Partition(inst.labels,
                         cluster_centroids(inst.source.vectors, inst.labels))
        gold = gold_multimap(list(inst.gold))
        report = per_subspace_accuracy(piecewise_forward(inst), part, gold,
                                       inst.source, inst.target,
                                       vocab_limit=50000, k=10)
        accs = [r.accuracy for r in report.per_subspace]
        assert np.std(accs) < 0.05

    def test_weighted_mean_recombines_exactly(self):
        inst = generate_instance(3, 40, 6, 5.0, 0.1, seed=7)
        part = Partition(inst.labels,
                         cluster_centroids(inst.source.vectors, inst.labels))
        gold = gold_multimap(list(inst.gold))
        report = per_subspace_accuracy(identity_map(6).apply_source, part, gold,
                                       inst.source, inst.target,
                                       vocab_limit=50000, k=10)
        weighted = sum(r.evaluated * r.accuracy for r in report.per_subspace
                       if r.accuracy is not None)
        assert abs(weighted / report.evaluated - report.p_at_1) < 1e-12

    def test_vocab_limit_restricts_queries(self):
        space, part = self.uniform_setup()
        report = per_subspace_accuracy(identity_map(space.dim).apply_source, part,
                                       identity_gold(space), space, space,
                                       vocab_limit=10, k=5)
        assert report.evaluated == 10
        assert report.skipped_oov == space.n - 10
        whole = evaluate_bli(identity_map(space.dim).apply_source, identity_gold(space),
                             space, space, k=5, max_rank=10)
        assert (whole.p_at_1, whole.evaluated, whole.skipped_oov) == \
            (report.p_at_1, report.evaluated, report.skipped_oov)

    def test_empty_group_gets_null_accuracy(self):
        space, part = self.uniform_setup(pieces=2)
        gold = {w: {w} for i, w in enumerate(space.words) if part.assignments[i] == 0}
        report = per_subspace_accuracy(identity_map(space.dim).apply_source, part,
                                       gold, space, space, vocab_limit=50000, k=5)
        by_id = {r.cluster_id: r for r in report.per_subspace}
        assert by_id[1].accuracy is None and by_id[1].evaluated == 0
        assert by_id[0].accuracy == 1.0


def test_both_scorers_clamp_k_to_evaluable_queries():
    # 4 evaluable queries against k = 10; one more gold entry is out of
    # vocabulary, and w12 lies outside per_subspace_accuracy's rank window
    space = make_space(20, 5, seed=10)
    w = np.random.default_rng(4).normal(size=(5, 5))
    gold = {space.words[i]: {space.words[j] for j in range(i % 3, 20, 3)} for i in range(4)}
    gold["missing-word"] = {"w0"}
    retrieved = brute_force_csls(unit_rows(space.vectors[:4] @ w.T), space.vectors, 4)
    hits = [space.words[r] in gold[space.words[i]] for i, r in enumerate(retrieved)]
    assert 0 < sum(hits) < 4
    fwd = LinearMap(w).apply_source
    report = evaluate_bli(fwd, gold, space, space, k=10)
    assert (report.evaluated, report.p_at_1) == (4, sum(hits) / 4)
    assignments = np.arange(space.n) % 2
    part = Partition(assignments, cluster_centroids(space.vectors, assignments))
    gold["w12"] = {"w12"}
    report = per_subspace_accuracy(fwd, part, gold, space, space, vocab_limit=10, k=10)
    assert (report.evaluated, report.p_at_1) == (4, sum(hits) / 4)
    assert [r.accuracy for r in report.per_subspace] == [(hits[0] + hits[2]) / 2,
                                                         (hits[1] + hits[3]) / 2]


class TestReportFormats:
    def test_json_and_tables(self, small_space):
        assignments = np.zeros(small_space.n, dtype=int)
        part = Partition(assignments,
                         cluster_centroids(small_space.vectors, assignments))
        report = per_subspace_accuracy(identity_map(small_space.dim).apply_source,
                                       part, identity_gold(small_space),
                                       small_space, small_space,
                                       vocab_limit=50000, k=5)
        doc = json.loads(report_to_json(report))
        assert doc["p_at_1"] == 1.0
        assert doc["per_subspace"][0]["accuracy"] == 1.0
        table = per_subspace_table(report)
        assert table.splitlines()[0] == "cluster_id\tevaluated\taccuracy"
        assert "P@1" in format_report(report)
