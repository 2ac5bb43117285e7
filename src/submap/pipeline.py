"""Batch orchestration: ordered stages, persisted artifacts, and a run
manifest.

Every stage reads its inputs from the run directory and writes its
outputs back there, so `pipeline` and the per-stage subcommands produce
identical artifacts.  Stage seeds derive from the master seed and the
stage name; timings live in their own manifest key and are the only
nondeterministic field.

Each normalized space, map, cluster-id file and centroid matrix is
parsed at most once per process: the RunDir keeps what it parsed,
stamped with the file's modification time and size, and parses a file
again only when its stamp changed.  A file the process wrote itself is
kept as what it parses to, stamped after the write, and never parsed:
`save_embeddings` returns the space its '%.9g' text reads back as,
'%.17g' text reads back every finite float bit for bit, and cluster ids
are integers.  So a stage sees the same inputs whether it runs inside
`pipeline` or as its own subcommand, which parses from disk.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .alignment import SubspacePairing, partition_target_with_merge
from .clustering import (Partition, finch_hierarchy, kmeans, load_assignments,
                         merge_small_clusters, save_assignments, select_level)
from .config import PipelineConfig, config_digest, derive_seed
from .embeddings import (EmbeddingSpace, iterative_normalize, load_embeddings,
                         save_embeddings, unit_rows)
from .errors import ConfigError, EmptyDictionaryError, ParseError, SubmapError
from .evaluation import (evaluate_bli, format_report, per_subspace_accuracy,
                         per_subspace_table, report_to_json)
from .gan import Trained, random_restart_train
from .mapping import (LinearMap, PiecewiseMap, load_linear_map, load_matrix,
                      save_linear_map, save_matrix)
from .multigan import train_multi_gan
from .refinement import global_refine, local_refine, refine_linear
from .retrieval import (gold_multimap, induce_seed_dictionary, load_dictionary_tokens,
                        save_dictionary)


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as e:  # a JSONDecodeError or a UnicodeDecodeError
        raise ParseError(f"{path}: not a JSON document ({e})") from None


class RunDir:
    """Artifact paths, the manifest, and the spaces, maps, cluster ids and
    centroids kept parsed, for one run directory."""

    def __init__(self, out: str | Path):
        self.root = Path(out)
        self.root.mkdir(parents=True, exist_ok=True)
        # key -> ((st_mtime_ns, st_size) of the file it was read from, object)
        self._kept: dict[tuple, tuple[tuple[int, int], object]] = {}

    def path(self, name: str) -> Path:
        return self.root / name

    def _stamp(self, name: str) -> tuple[int, int]:
        st = self.path(name).stat()
        return st.st_mtime_ns, st.st_size

    def _parsed(self, name: str, key: tuple, parse):
        """parse(path of `name`), parsed again only when the file's
        modification time or size changed since it was kept under `key`."""
        stamp = self._stamp(name)  # before parsing, so a concurrent rewrite reads as a change
        kept = self._kept.get(key)
        if kept is None or kept[0] != stamp:
            kept = self._kept[key] = (stamp, parse(self.path(name)))
        return kept[1]

    def _written(self, name: str, key: tuple, parsed) -> None:
        """Keep `parsed`, what the file `name` just written parses to, under `key`."""
        self._kept[key] = (self._stamp(name), parsed)

    def load_space(self, name: str, max_vocab: int) -> EmbeddingSpace:
        """The embedding file `name` as load_embeddings parses it.  A space
        save_space wrote is every word of its file, so it is what any
        `max_vocab` not below its size parses."""
        written = self._kept.get((name,))
        if written is not None and written[1].n <= max_vocab and written[0] == self._stamp(name):
            return written[1]
        return self._parsed(name, (name, max_vocab),
                            lambda path: load_embeddings(path, max_vocab))

    def save_space(self, name: str, space: EmbeddingSpace) -> None:
        """Write `space` to `name` and keep the space the file parses to,
        which save_embeddings returns."""
        self._written(name, (name,), save_embeddings(self.path(name), space))

    def load_map(self, name: str) -> LinearMap:
        """The map file `name` as load_linear_map parses it."""
        return self._parsed(name, (name,), load_linear_map)

    def save_map(self, name: str, m: LinearMap) -> None:
        """Write `m` to `name` and keep it as what the file parses to:
        '%.17g' reads back every float64 bit for bit."""
        save_linear_map(self.path(name), m)
        self._written(name, (name,), LinearMap(m.w.copy()))

    def load_assignments(self, name: str, words: tuple[str, ...]) -> np.ndarray:
        """The cluster-id file `name` as load_assignments parses it for `words`."""
        return self._parsed(name, (name, words), lambda path: load_assignments(path, words))

    def save_assignments(self, name: str, words: tuple[str, ...], assignments) -> None:
        """Write one cluster id per word to `name` and keep the ids: the
        integers read back exactly."""
        save_assignments(self.path(name), words, assignments)
        self._written(name, (name, words), np.array(assignments, dtype=np.int64))

    def load_matrix(self, name: str) -> np.ndarray:
        """The matrix file `name` as load_matrix parses it."""
        return self._parsed(name, (name,), load_matrix)

    def save_matrix(self, name: str, m: np.ndarray) -> None:
        """Write `m` to `name` and keep it: '%.17g' reads back every finite
        float64 bit for bit."""
        save_matrix(self.path(name), m)
        self._written(name, (name,), np.array(m, dtype=np.float64))

    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def read_manifest(self) -> dict:
        p = self.manifest_path()
        if p.exists():
            return _read_json(p)
        return {"stages": {}, "timings": {}}

    def _write_manifest(self, doc: dict) -> None:
        # a whole new file or none: an interrupted write never leaves half
        # a manifest for --resume to read
        tmp = self.root / "manifest.json.tmp"
        tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(tmp, self.manifest_path())

    def update_manifest(self, **top_level) -> None:
        doc = self.read_manifest()
        doc.update(top_level)
        self._write_manifest(doc)

    def record_stage(self, name: str, seed: int, artifacts: list[str],
                     metrics: dict, seconds: float) -> None:
        doc = self.read_manifest()
        doc.setdefault("stages", {})[name] = {
            "seed": seed,
            "status": "ok",
            "artifacts": artifacts,
            "metrics": metrics,
        }
        doc.setdefault("timings", {})[name] = round(seconds, 3)
        self._write_manifest(doc)

    def record_failure(self, name: str, error: Exception) -> None:
        self.update_manifest(failure_stage=name, failure=f"{type(error).__name__}: {error}")


def _load_normalized(run: RunDir, cfg: PipelineConfig):
    return (run.load_space("source.norm.vec", cfg.data.max_vocab),
            run.load_space("target.norm.vec", cfg.data.max_vocab))


def _save_partition(run: RunDir, partition: Partition, words) -> None:
    run.save_assignments("source_partition.tsv", words, partition.assignments)
    run.save_matrix("source_centroids.txt", partition.centroids)


def _load_partition(run: RunDir, source: EmbeddingSpace) -> Partition:
    return Partition(run.load_assignments("source_partition.tsv", source.words),
                     run.load_matrix("source_centroids.txt"))


def _load_pairing(run: RunDir, source: EmbeddingSpace, target: EmbeddingSpace) -> SubspacePairing:
    return SubspacePairing(_load_partition(run, source),
                           run.load_assignments("target_assignments.tsv", target.words))


def _save_mapset(run: RunDir, subdir: str, kind: str, maps: list[LinearMap],
                 meta: dict) -> list[str]:
    d = run.path(subdir)
    d.mkdir(parents=True, exist_ok=True)
    artifacts = []
    for i, m in enumerate(maps):
        name = f"{subdir}/map_{i:03d}.txt"
        run.save_map(name, m)
        artifacts.append(name)
    doc = {"kind": kind, "count": len(maps), **meta}
    meta_name = f"{subdir}/meta.json"
    run.path(meta_name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                   encoding="utf-8")
    artifacts.append(meta_name)
    return artifacts


def _load_mapset(run: RunDir, subdir: str, source: EmbeddingSpace,
                 target: EmbeddingSpace) -> LinearMap | PiecewiseMap:
    """The map `_save_mapset` wrote: a LinearMap for kind "single", else a
    PiecewiseMap over the run's subspace pairing."""
    meta = _read_json(run.path(f"{subdir}/meta.json"))
    maps = [run.load_map(f"{subdir}/map_{i:03d}.txt") for i in range(meta["count"])]
    if meta["kind"] == "single":
        return maps[0]
    return PiecewiseMap(_load_pairing(run, source, target), tuple(maps), tuple(meta["lambdas"]))


def load_final_mapping(run: RunDir, source: EmbeddingSpace, target: EmbeddingSpace):
    """The refine stage's map m, as (m.apply_source, m.apply_target_back, m):
    the forward and backward calls retrieval takes, then the map itself,
    a LinearMap or a PiecewiseMap."""
    m = _load_mapset(run, "final", source, target)
    return m.apply_source, m.apply_target_back, m


def stage_normalize(run: RunDir, cfg: PipelineConfig, seed: int) -> dict:
    if not cfg.data.source or not cfg.data.target:
        raise ConfigError("data.source and data.target must name embedding files")
    source = load_embeddings(cfg.data.source, cfg.data.max_vocab)
    target = load_embeddings(cfg.data.target, cfg.data.max_vocab)
    if cfg.data.normalize:
        source = iterative_normalize(source, cfg.data.normalize_iterations)
        target = iterative_normalize(target, cfg.data.normalize_iterations)
    else:
        source = EmbeddingSpace(source.words, unit_rows(source.vectors, source.words))
        target = EmbeddingSpace(target.words, unit_rows(target.vectors, target.words))
    run.save_space("source.norm.vec", source)
    run.save_space("target.norm.vec", target)
    return {"artifacts": ["source.norm.vec", "target.norm.vec"],
            "metrics": {"source_n": source.n, "target_n": target.n, "dim": source.dim}}


def _game_metrics(games: list[Trained | None], criteria_key: str) -> dict:
    """Per game, in order: its best criterion (under `criteria_key`), the
    epochs it ran, and the epoch of its best snapshot (0 is the start).
    A game whose training diverged reads NaN, null and null."""
    return {criteria_key: [g.criterion if g else float("nan") for g in games],
            "epochs_run": [g.epochs_run if g else None for g in games],
            "best_epochs": [g.best_epoch if g else None for g in games]}


def stage_single_gan(run: RunDir, cfg: PipelineConfig, seed: int) -> dict:
    source, target = _load_normalized(run, cfg)
    gan_cfg = replace(cfg.single_gan, seed=seed)
    best, restarts = random_restart_train(source, target, gan_cfg,
                                          restarts=cfg.single_restarts)
    run.save_map("single_map.txt", best.map)
    return {"artifacts": ["single_map.txt"],
            "metrics": {"criterion": best.criterion,
                        "orthogonality_defect": best.map.orthogonality_defect(),
                        "restarts": cfg.single_restarts,
                        "winning_restart": next(i for i, r in enumerate(restarts) if r is best),
                        **_game_metrics(restarts, "restart_criteria")}}


def stage_cluster(run: RunDir, cfg: PipelineConfig, seed: int) -> dict:
    source, _ = _load_normalized(run, cfg)
    hierarchy = finch_hierarchy(source.vectors)
    partition = select_level(hierarchy, cfg.cluster.level)
    min_size = cfg.cluster.min_cluster_size or max(2 * source.dim, 32)
    partition = merge_small_clusters(partition, source.vectors, min_size)
    _save_partition(run, partition, source.words)
    return {"artifacts": ["source_partition.tsv", "source_centroids.txt"],
            "metrics": {"level_sizes": [p.c for p in hierarchy.levels],
                        "selected_level": cfg.cluster.level,
                        "clusters": partition.c,
                        "cluster_sizes": partition.sizes().tolist()}}


def stage_align(run: RunDir, cfg: PipelineConfig, seed: int) -> dict:
    source, target = _load_normalized(run, cfg)
    single = run.load_map("single_map.txt")
    partition = _load_partition(run, source)
    pairing, merged = partition_target_with_merge(single, partition, source, target,
                                                  k=cfg.cluster.align_csls_k)
    _save_partition(run, pairing.source_partition, source.words)
    run.save_assignments("target_assignments.tsv", target.words, pairing.target_assignments)
    return {"artifacts": ["target_assignments.tsv", "source_partition.tsv",
                          "source_centroids.txt"],
            "metrics": {"pair_sizes": pairing.pair_sizes(),
                        "merged_empty_clusters": merged}}


def stage_multi_gan(run: RunDir, cfg: PipelineConfig, seed: int) -> dict:
    source, target = _load_normalized(run, cfg)
    single = run.load_map("single_map.txt")
    pairing = _load_pairing(run, source, target)
    gan_cfg = replace(cfg.single_gan, seed=seed)
    lambda_fixed = cfg.multi.lambda_fixed if cfg.multi.lambda_mode == "fixed" else None
    pm, subspaces = train_multi_gan(single, pairing, source, target, gan_cfg,
                                    lambda_fixed=lambda_fixed)
    per_game = _game_metrics(subspaces, "criteria")
    artifacts = _save_mapset(run, "multi", "piecewise", list(pm.maps),
                             {"lambdas": list(pm.lambdas), "criteria": per_game["criteria"]})
    return {"artifacts": artifacts, "metrics": {**per_game, "lambdas": list(pm.lambdas)}}


def _write_refine_log(path: Path, steps) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("iteration\tkeep_prob\tobjective\tpairs\n")
        for s in steps:
            f.write(f"{s.iteration}\t{s.keep_prob:.6g}\t{s.objective:.12g}\t{s.pairs}\n")


def stage_refine(run: RunDir, cfg: PipelineConfig, seed: int) -> dict:
    source, target = _load_normalized(run, cfg)
    refine_cfg = replace(cfg.refine, seed=seed)
    metrics: dict = {"mode": cfg.refine_mode}
    logs: dict = {}  # log file name -> refinement steps
    if cfg.refine_mode == "single":
        single = run.load_map("single_map.txt")
        refined, objective, log = refine_linear(single, source, target, refine_cfg)
        logs["refine_log.tsv"] = log
        metrics["objective"] = objective
        kind, maps = "single", [refined]
        meta = {"objective": objective}
    else:
        pm = _load_mapset(run, "multi", source, target)
        if cfg.refine_mode == "global":
            pm, objective, log = global_refine(pm, source, target, refine_cfg)
            logs["refine_log.tsv"] = log
            metrics["objective"] = objective
        elif cfg.refine_mode == "local":
            pm, by_cluster = local_refine(pm, source, target, refine_cfg)
            for cid, log in sorted(by_cluster.items()):
                logs[f"refine_log_{cid:03d}.tsv"] = log
            metrics["refined_subspaces"] = sorted(int(c) for c in by_cluster)
        kind, maps = "piecewise", list(pm.maps)
        meta = {"lambdas": list(pm.lambdas)}
    for name, log in logs.items():
        _write_refine_log(run.path(name), log)
    artifacts = _save_mapset(run, "final", kind, maps, meta)
    return {"artifacts": artifacts + list(logs), "metrics": metrics}


def stage_induce_dict(run: RunDir, cfg: PipelineConfig, seed: int) -> dict:
    source, target = _load_normalized(run, cfg)
    fwd, bwd, _ = load_final_mapping(run, source, target)
    dictionary = induce_seed_dictionary(fwd, bwd, source, target,
                                        vocab_limit=cfg.refine.vocab_limit,
                                        k=cfg.refine.csls_k)
    save_dictionary(run.path("seed_dict.tsv"), dictionary, source, target)
    return {"artifacts": ["seed_dict.tsv"], "metrics": {"pairs": len(dictionary)}}


def stage_eval(run: RunDir, cfg: PipelineConfig, seed: int) -> dict:
    if not cfg.data.gold:
        raise ConfigError("eval stage needs data.gold")
    source, target = _load_normalized(run, cfg)
    fwd, _, _ = load_final_mapping(run, source, target)
    gold = gold_multimap(load_dictionary_tokens(cfg.data.gold))
    artifacts = []
    partition = None
    if cfg.evaluation.kmeans_k > 0:
        partition = kmeans(source.vectors, cfg.evaluation.kmeans_k,
                           seed=derive_seed(cfg.seed, "eval_kmeans", "0"))
    elif cfg.evaluation.per_subspace and run.path("source_partition.tsv").exists():
        partition = _load_partition(run, source)
    if partition is not None:
        report = per_subspace_accuracy(fwd, partition, gold, source, target,
                                       vocab_limit=cfg.evaluation.vocab_limit,
                                       k=cfg.evaluation.csls_k)
        run.path("per_subspace.tsv").write_text(per_subspace_table(report),
                                                encoding="utf-8")
        artifacts.append("per_subspace.tsv")
    else:
        report = evaluate_bli(fwd, gold, source, target, k=cfg.evaluation.csls_k,
                              max_rank=cfg.evaluation.vocab_limit)
    run.path("report.json").write_text(report_to_json(report), encoding="utf-8")
    run.path("report.txt").write_text(format_report(report), encoding="utf-8")
    artifacts.extend(["report.json", "report.txt"])
    return {"artifacts": artifacts,
            "metrics": {"p_at_1": report.p_at_1, "evaluated": report.evaluated,
                        "skipped_oov": report.skipped_oov}}


STAGES = {"normalize": stage_normalize, "single_gan": stage_single_gan,
          "cluster": stage_cluster, "align": stage_align, "multi_gan": stage_multi_gan,
          "refine": stage_refine, "induce_dict": stage_induce_dict, "eval": stage_eval}


def stages_for(cfg: PipelineConfig) -> tuple[str, ...]:
    """The stage sequence a config implies; single-map refinement skips
    the clustering and multi-GAN stages entirely."""
    order = list(STAGES)
    if cfg.refine_mode == "single":
        for name in ("cluster", "align", "multi_gan"):
            order.remove(name)
    if not cfg.data.gold:
        order.remove("eval")
    if cfg.stop_after:
        if cfg.stop_after not in order:
            raise ConfigError(f"stop_after names unknown or skipped stage {cfg.stop_after!r}")
        order = order[:order.index(cfg.stop_after) + 1]
    return tuple(order)


def run_stage(run: RunDir, cfg: PipelineConfig, name: str, attempt: int = 0) -> dict:
    if name not in STAGES:
        raise ConfigError(f"unknown stage {name!r}")
    seed = derive_seed(cfg.seed, name, str(attempt))
    started = time.monotonic()
    result = STAGES[name](run, cfg, seed)
    run.record_stage(name, seed, result["artifacts"], result["metrics"],
                     time.monotonic() - started)
    return result


def _stage_complete(run: RunDir, name: str) -> bool:
    doc = run.read_manifest()
    stage = doc.get("stages", {}).get(name)
    if not stage or stage.get("status") != "ok":
        return False
    return all(run.path(a).exists() for a in stage.get("artifacts", []))


def run_pipeline(cfg: PipelineConfig, out: str | Path, resume: bool = False) -> RunDir:
    """Run all configured stages in order.  On EmptyDictionaryError every
    stage reruns, `normalize` included, with fresh stage seeds, at most
    `restart_budget` times; any other typed failure, or one past the
    budget, is recorded in the manifest and re-raised.  `resume` refuses,
    before writing anything, a run directory whose manifest records
    another config's hash."""
    run = RunDir(out)
    digest = config_digest(cfg)
    recorded = run.read_manifest().get("config_hash") if resume else None
    if recorded is not None and recorded != digest:
        raise ConfigError(f"{run.manifest_path()} records config_hash {recorded}, "
                          f"not this config's {digest}: resume a run with its own config")
    run.update_manifest(config_hash=digest, master_seed=cfg.seed,
                        stage_order=list(stages_for(cfg)))
    attempt = 0
    while True:
        name = "?"
        try:
            for name in stages_for(cfg):
                if resume and attempt == 0 and _stage_complete(run, name):
                    continue
                run_stage(run, cfg, name, attempt=attempt)
            run.update_manifest(attempt=attempt)
            return run
        except SubmapError as e:
            if not isinstance(e, EmptyDictionaryError) or attempt >= cfg.restart_budget:
                run.record_failure(name, e)
                raise
            attempt += 1
            resume = False
