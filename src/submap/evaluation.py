"""Bilingual lexicon induction scoring (precision at one with CSLS
retrieval) and the per-subspace accuracy breakdown."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .clustering import Partition
from .embeddings import EmbeddingSpace
from .errors import EmptyEvaluationError
from .mapping import MapFn
from .retrieval import _translate


@dataclass(frozen=True)
class SubspaceAccuracy:
    cluster_id: int
    evaluated: int
    accuracy: float | None


@dataclass(frozen=True)
class BliReport:
    p_at_1: float
    evaluated: int
    skipped_oov: int
    per_subspace: tuple[SubspaceAccuracy, ...] | None = None


def _evaluable(gold: dict[str, set[str]], source: EmbeddingSpace,
               target: EmbeddingSpace, max_rank: int | None = None):
    """Gold entries whose source word is in vocabulary (and rank window)
    and that keep at least one in-vocabulary target."""
    queries: list[int] = []
    answers: list[set[int]] = []
    skipped = 0
    for word in gold:
        si = source.index_of(word)
        if si is None or (max_rank is not None and si >= max_rank):
            skipped += 1
            continue
        tgt_ids = {target.index_of(t) for t in gold[word]}
        tgt_ids.discard(None)
        if not tgt_ids:
            skipped += 1
            continue
        queries.append(si)
        answers.append(tgt_ids)
    return np.array(queries, dtype=np.int64), answers, skipped


def _hits(forward: MapFn, gold: dict[str, set[str]], source: EmbeddingSpace,
          target: EmbeddingSpace, k: int, max_rank: int | None = None):
    """The evaluable query rows, whether each one's CSLS translation is a
    gold answer, and the count of gold entries skipped."""
    if not gold:
        raise EmptyEvaluationError("gold dictionary is empty")
    queries, answers, skipped = _evaluable(gold, source, target, max_rank)
    if queries.size == 0:
        where = "against these spaces" if max_rank is None else "in the rank window"
        raise EmptyEvaluationError(f"no gold entry is evaluable {where}")
    _, retrieved = _translate(forward, source, queries, target, k)
    hits = np.array([int(r) in gold_set for r, gold_set in zip(retrieved, answers)])
    return queries, hits, skipped


def evaluate_bli(forward: MapFn, gold: dict[str, set[str]], source: EmbeddingSpace,
                 target: EmbeddingSpace, k: int = 10,
                 max_rank: int | None = None) -> BliReport:
    """P@1 of CSLS retrieval against a gold multimap.

    Out-of-vocabulary entries, and with `max_rank` entries whose source
    word ranks at or past it, are excluded and reported as coverage
    rather than counted wrong.
    """
    queries, hits, skipped = _hits(forward, gold, source, target, k, max_rank)
    return BliReport(p_at_1=float(hits.mean()), evaluated=len(queries), skipped_oov=skipped)


def per_subspace_accuracy(forward: MapFn, partition: Partition,
                          gold: dict[str, set[str]], source: EmbeddingSpace,
                          target: EmbeddingSpace, vocab_limit: int = 50000,
                          k: int = 10) -> BliReport:
    """P@1 grouped by source cluster over the most frequent words.

    The report's overall number covers the same restricted query set, so
    the evaluable-count-weighted mean of group accuracies reproduces it
    exactly.  Clusters with nothing to evaluate get a null accuracy.
    """
    queries, hits, skipped = _hits(forward, gold, source, target, k,
                                   max_rank=min(vocab_limit, source.n))
    groups = partition.assignments[queries]
    rows = []
    for cid in range(partition.c):
        in_group = groups == cid
        count = int(in_group.sum())
        acc = float(hits[in_group].mean()) if count else None
        rows.append(SubspaceAccuracy(cid, count, acc))
    return BliReport(p_at_1=float(hits.mean()), evaluated=len(queries),
                     skipped_oov=skipped, per_subspace=tuple(rows))


def report_to_json(report: BliReport) -> str:
    doc = {
        "p_at_1": report.p_at_1,
        "evaluated": report.evaluated,
        "skipped_oov": report.skipped_oov,
    }
    if report.per_subspace is not None:
        doc["per_subspace"] = [
            {"cluster_id": r.cluster_id, "evaluated": r.evaluated, "accuracy": r.accuracy}
            for r in report.per_subspace
        ]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def per_subspace_table(report: BliReport) -> str:
    """Tab-separated rows (cluster_id, evaluated, accuracy) for plotting."""
    lines = ["cluster_id\tevaluated\taccuracy"]
    for r in report.per_subspace or ():
        acc = "" if r.accuracy is None else f"{r.accuracy:.6f}"
        lines.append(f"{r.cluster_id}\t{r.evaluated}\t{acc}")
    return "\n".join(lines) + "\n"


def format_report(report: BliReport) -> str:
    lines = [
        f"P@1        {report.p_at_1:.4f}",
        f"evaluated  {report.evaluated}",
        f"skipped    {report.skipped_oov} (out of vocabulary)",
    ]
    if report.per_subspace is not None:
        lines.append("per-subspace accuracy:")
        for r in report.per_subspace:
            acc = "n/a" if r.accuracy is None else f"{r.accuracy:.4f}"
            lines.append(f"  cluster {r.cluster_id:3d}  n={r.evaluated:6d}  {acc}")
    return "\n".join(lines) + "\n"
