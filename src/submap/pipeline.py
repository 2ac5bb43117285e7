"""Batch orchestration: ordered stages, persisted artifacts, and a run
manifest.

Every stage reads its inputs from the run directory through `RunDir.load`
and writes its outputs back there through `RunDir.out`, so `pipeline` and
the per-stage subcommands produce identical artifacts.  A stage function
returns its metrics; the manifest lists as its artifacts the files it
wrote, in the order written.  Stage seeds derive from the master seed
and the stage name; timings live in their own manifest key and are the
only nondeterministic field.

Each file a stage reads is parsed at most once per process: `load` keeps
what it parsed, stamped with the file's modification time and size, and
parses a file again only when its stamp changed.  A file the process
wrote itself is kept (`RunDir.keep`) as what it parses to, stamped after
the write, and never parsed.  Each writer returns that object:
`save_embeddings` the space its '%.9g' text reads back as, `save_matrix`
and `save_linear_map` a copy of what they wrote, which '%.17g' text reads
back bit for bit (one writer, `embeddings.write_rows`, writes both), and
`save_assignments` its integer ids.  So a stage sees the same inputs
whether it runs inside `pipeline` or as its own subcommand, which parses
from disk.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

from .alignment import SubspacePairing, partition_target_with_merge
from .clustering import (Partition, finch_hierarchy, load_assignments,
                         merge_small_clusters, save_assignments, select_level)
from .config import PipelineConfig, config_digest, derive_seed
from .embeddings import (EmbeddingSpace, iterative_normalize, load_embeddings,
                         save_embeddings, unit_rows)
from .errors import ConfigError, ParseError, SubmapError
from .evaluation import evaluate_bli, format_report, per_subspace_table, report_to_json
from .gan import Trained, random_restart_train
from .mapping import (LinearMap, PiecewiseMap, load_linear_map, load_matrix,
                      save_linear_map, save_matrix)
from .multigan import train_multi_gan
from .refinement import global_refine, local_refine, refine_linear
from .retrieval import (gold_multimap, induce_seed_dictionary, load_dictionary_tokens,
                        save_dictionary)


def _read_json(path: Path, keys: tuple[str, ...] = ()) -> dict:
    """The JSON object in `path`, which must hold each of `keys`."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as e:  # a JSONDecodeError or a UnicodeDecodeError
        raise ParseError(f"{path}: not a JSON document ({e})") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: not a JSON object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ParseError(f"{path}: no {', '.join(missing)} key")
    return doc


class RunDir:
    """One run directory: artifact paths, the manifest, `written` (the names the current stage
    wrote), and the objects `load` parsed or `keep` was given, by file name and parse arguments."""

    def __init__(self, out: str | Path):
        self.root = Path(out)
        self.written: list[str] = []
        # (name, *parse args) -> ((st_mtime_ns, st_size) of the file it was read from, object)
        self._kept: dict[tuple, tuple[tuple[int, int], object]] = {}

    def path(self, name: str) -> Path:
        return self.root / name

    def out(self, name: str) -> Path:
        """The path of `name`, appended to `written`; its directory is made
        only now, so a command refused before it writes makes none."""
        path = self.path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        self.written.append(name)
        return path

    def load(self, name: str, parse: Callable, *args):
        """parse(path of `name`, *args), kept under (name, *args) and parsed
        again only when the file's modification time or size changed."""
        st = self.path(name).stat()  # before parsing, so a concurrent rewrite reads as a change
        stamp, key = (st.st_mtime_ns, st.st_size), (name, *args)
        kept = self._kept.get(key)
        if kept is None or kept[0] != stamp:
            kept = self._kept[key] = (stamp, parse(self.path(name), *args))
        return kept[1]

    def keep(self, name: str, parsed, *args) -> None:
        """Keep `parsed`, what the file `name` the process just wrote parses
        to, as `load(name, parse, *args)` would return it."""
        st = self.path(name).stat()
        self._kept[(name, *args)] = ((st.st_mtime_ns, st.st_size), parsed)

    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def read_manifest(self) -> dict:
        p = self.manifest_path()
        doc = _read_json(p) if p.exists() else {"stages": {}, "timings": {}}
        stages, timings = doc.get("stages", {}), doc.get("timings", {})
        if not (isinstance(stages, dict) and isinstance(timings, dict)
                and all(isinstance(entry, dict) for entry in stages.values())):
            raise ParseError(f"{p}: stages, each stage's entry and timings must be objects")
        for entry in stages.values():
            names = entry.get("artifacts", [])
            if not (isinstance(names, list) and all(isinstance(a, str) for a in names)):
                raise ParseError(f"{p}: a stage's artifacts must be a list of file names, "
                                 f"got {names!r}")
        return doc

    def write_manifest(self, doc: dict) -> None:
        # a whole new file or none: an interrupted write never leaves half
        # a manifest for --resume to read
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.root / "manifest.json.tmp"
        tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(tmp, self.manifest_path())

    def update_manifest(self, **top_level) -> None:
        doc = self.read_manifest()
        doc.update(top_level)
        self.write_manifest(doc)

    def record_stage(self, name: str, seed: int, metrics: dict, seconds: float) -> None:
        doc = self.read_manifest()
        doc.setdefault("stages", {})[name] = {
            "seed": seed,
            "status": "ok",
            "artifacts": self.written,
            "metrics": metrics,
        }
        doc.setdefault("timings", {})[name] = round(seconds, 3)
        if doc.get("failure_stage") == name:  # this success supersedes the failure
            doc.pop("failure_stage")
            doc.pop("failure", None)
        self.write_manifest(doc)

    def record_failure(self, name: str, error: Exception) -> None:
        self.update_manifest(failure_stage=name, failure=f"{type(error).__name__}: {error}")


def _load_normalized(run: RunDir, cfg: PipelineConfig):
    return (run.load("source.norm.vec", load_embeddings, cfg.data.max_vocab),
            run.load("target.norm.vec", load_embeddings, cfg.data.max_vocab))


@contextmanager
def _naming(*paths: Path):
    """Put `paths` in front of a ParseError raised in the block: the check
    that failed holds the files' parsed contents against each other."""
    try:
        yield
    except ParseError as e:
        raise ParseError(f"{', '.join(map(str, paths))}: {e}") from None


def _load_partition(run: RunDir, source: EmbeddingSpace) -> Partition:
    ids = run.load("source_partition.tsv", load_assignments, source.words)
    centroids = run.load("source_centroids.txt", load_matrix)
    with _naming(run.path("source_partition.tsv"), run.path("source_centroids.txt")):
        return Partition(ids, centroids)


def _load_pairing(run: RunDir, source: EmbeddingSpace, target: EmbeddingSpace) -> SubspacePairing:
    partition = _load_partition(run, source)
    ids = run.load("target_assignments.tsv", load_assignments, target.words)
    with _naming(run.path("target_assignments.tsv"), run.path("source_partition.tsv")):
        return SubspacePairing(partition, ids)


def _save_mapset(run: RunDir, subdir: str, kind: str, maps: list[LinearMap],
                 meta: dict) -> None:
    for i, m in enumerate(maps):
        name = f"{subdir}/map_{i:03d}.txt"
        run.keep(name, save_linear_map(run.out(name), m))
    doc = {"kind": kind, "count": len(maps), **meta}
    run.out(f"{subdir}/meta.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                              encoding="utf-8")


def _read_mapset_meta(path: Path) -> dict:
    """The meta.json `_save_mapset` wrote: kind "single" with count 1, or
    kind "piecewise" with a positive count and a list of lambdas."""
    meta = _read_json(path, ("kind", "count"))
    kind, count, lambdas = meta["kind"], meta["count"], meta.get("lambdas")
    if kind not in ("single", "piecewise"):
        raise ParseError(f"{path}: kind must be single or piecewise, got {kind!r}")
    if type(count) is not int or count < 1:
        raise ParseError(f"{path}: count must be a positive integer, got {count!r}")
    if kind == "single" and count != 1:
        raise ParseError(f"{path}: a single map set has count 1, got {count}")
    if kind == "piecewise" and not (isinstance(lambdas, list)
                                    and all(isinstance(x, (int, float)) for x in lambdas)):
        raise ParseError(f"{path}: lambdas must be a list of numbers, got {lambdas!r}")
    return meta


def _load_mapset(run: RunDir, subdir: str, source: EmbeddingSpace,
                 target: EmbeddingSpace) -> LinearMap | PiecewiseMap:
    """The map `_save_mapset` wrote: a LinearMap for kind "single", else a
    PiecewiseMap over the run's subspace pairing."""
    meta = run.load(f"{subdir}/meta.json", _read_mapset_meta)
    maps = [run.load(f"{subdir}/map_{i:03d}.txt", load_linear_map) for i in range(meta["count"])]
    if meta["kind"] == "single":
        return maps[0]
    pairing = _load_pairing(run, source, target)
    with _naming(run.path(f"{subdir}/meta.json"), run.path("source_partition.tsv")):
        return PiecewiseMap(pairing, tuple(maps), tuple(meta["lambdas"]))


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
    for name, space in (("source.norm.vec", source), ("target.norm.vec", target)):
        # kept under the max_vocab every later stage loads it with
        run.keep(name, save_embeddings(run.out(name), space), cfg.data.max_vocab)
    return {"source_n": source.n, "target_n": target.n, "dim": source.dim}


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
    run.keep("single_map.txt", save_linear_map(run.out("single_map.txt"), best.map))
    return {"criterion": best.criterion,
            "orthogonality_defect": best.map.orthogonality_defect(),
            "restarts": cfg.single_restarts,
            "winning_restart": next(i for i, r in enumerate(restarts) if r is best),
            **_game_metrics(restarts, "restart_criteria")}


def stage_cluster(run: RunDir, cfg: PipelineConfig, seed: int) -> dict:
    source, target = _load_normalized(run, cfg)
    hierarchy = finch_hierarchy(source.vectors)
    partition = select_level(hierarchy, cfg.cluster.level)
    partition = merge_small_clusters(partition, source.vectors, max(2 * source.dim, 32))
    # pair each cluster with the target words the single map sends back into it
    pairing, merged = partition_target_with_merge(run.load("single_map.txt", load_linear_map),
                                                  partition, source, target)
    paired = pairing.source_partition
    run.keep("source_partition.tsv", save_assignments(run.out("source_partition.tsv"),
                                                      source.words, paired.assignments),
             source.words)
    run.keep("source_centroids.txt", save_matrix(run.out("source_centroids.txt"),
                                                 paired.centroids))
    run.keep("target_assignments.tsv", save_assignments(run.out("target_assignments.tsv"),
                                                        target.words, pairing.target_assignments),
             target.words)
    return {"level_sizes": [p.c for p in hierarchy.levels],
            "selected_level": cfg.cluster.level,
            "clusters": partition.c,
            "cluster_sizes": partition.sizes().tolist(),
            "pair_sizes": pairing.pair_sizes(),
            "merged_empty_clusters": merged}


def stage_multi_gan(run: RunDir, cfg: PipelineConfig, seed: int) -> dict:
    source, target = _load_normalized(run, cfg)
    single = run.load("single_map.txt", load_linear_map)
    pairing = _load_pairing(run, source, target)
    gan_cfg = replace(cfg.single_gan, seed=seed)
    mode = cfg.multi.lambda_mode
    pm, subspaces = train_multi_gan(single, pairing, source, target, gan_cfg,
                                    lambda_fixed=None if mode == "dynamic" else float(mode))
    per_game = _game_metrics(subspaces, "criteria")
    _save_mapset(run, "multi", "piecewise", list(pm.maps),
                 {"lambdas": list(pm.lambdas), "criteria": per_game["criteria"]})
    return {**per_game, "lambdas": list(pm.lambdas)}


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
        single = run.load("single_map.txt", load_linear_map)
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
    _save_mapset(run, "final", kind, maps, meta)
    for name, log in logs.items():
        _write_refine_log(run.out(name), log)
    return metrics


def stage_induce_dict(run: RunDir, cfg: PipelineConfig, seed: int) -> dict:
    source, target = _load_normalized(run, cfg)
    fwd, bwd, _ = load_final_mapping(run, source, target)
    dictionary = induce_seed_dictionary(fwd, bwd, source, target,
                                        vocab_limit=cfg.refine.vocab_limit)
    save_dictionary(run.out("seed_dict.tsv"), dictionary, source, target)
    return {"pairs": len(dictionary)}


def stage_eval(run: RunDir, cfg: PipelineConfig, seed: int) -> dict:
    source, target = _load_normalized(run, cfg)
    fwd, _, _ = load_final_mapping(run, source, target)
    gold = gold_multimap(load_dictionary_tokens(cfg.data.gold))
    # the partition this config made, not one an earlier run left behind
    grouped = cfg.evaluation.per_subspace and STAGES["cluster"].included(cfg)
    partition = _load_partition(run, source) if grouped else None
    report = evaluate_bli(fwd, gold, source, target, max_rank=cfg.evaluation.vocab_limit,
                          partition=partition)
    if grouped:
        run.out("per_subspace.tsv").write_text(per_subspace_table(report), encoding="utf-8")
    else:  # a table from an earlier evaluation would not match this report
        run.path("per_subspace.tsv").unlink(missing_ok=True)
    run.out("report.json").write_text(report_to_json(report), encoding="utf-8")
    run.out("report.txt").write_text(format_report(report), encoding="utf-8")
    return {"p_at_1": report.p_at_1, "evaluated": report.evaluated,
            "skipped_oov": report.skipped_oov}


class Stage(NamedTuple):
    """A stage's function (it returns its metrics; its artifacts are the files it wrote
    through the RunDir), subcommand, help text and whether a config includes it."""
    run: Callable[[RunDir, PipelineConfig, int], dict]
    command: str
    help: str
    included: Callable[[PipelineConfig], bool] = lambda cfg: True


STAGES = {  # in run order
    "normalize": Stage(stage_normalize, "normalize",
                       "load, normalize and persist both embedding spaces"),
    "single_gan": Stage(stage_single_gan, "train-single",
                        "adversarial single-map training with random restarts"),
    "cluster": Stage(stage_cluster, "cluster",
                     "cluster the source space (FINCH) and align target subspaces",
                     lambda cfg: cfg.refine_mode != "single"),
    "multi_gan": Stage(stage_multi_gan, "train-multi", "per-subspace multi-discriminator training",
                       lambda cfg: cfg.refine_mode != "single"),
    "refine": Stage(stage_refine, "refine", "Procrustes refinement (mode from config or --refine)"),
    "induce_dict": Stage(stage_induce_dict, "induce-dict",
                         "export the bidirectional seed dictionary of the final map"),
    "eval": Stage(stage_eval, "eval-bli", "precision-at-1 evaluation against the gold dictionary",
                  lambda cfg: bool(cfg.data.gold)),
}


def stages_for(cfg: PipelineConfig) -> tuple[str, ...]:
    """The stages `cfg` includes, in run order, up to its stop_after."""
    order = [name for name, stage in STAGES.items() if stage.included(cfg)]
    if cfg.stop_after:
        if cfg.stop_after not in order:
            raise ConfigError(f"stop_after names unknown or skipped stage {cfg.stop_after!r}")
        order = order[:order.index(cfg.stop_after) + 1]
    return tuple(order)


def run_stage(run: RunDir, cfg: PipelineConfig, name: str) -> dict:
    """Run stage `name`, record it with the files it wrote, and return its
    metrics.  A failure (exit 1: a typed error or an OSError) is recorded
    in the manifest (`failure_stage`, `failure`) and re-raised, and a later
    success of the stage drops it.  A ConfigError is a refusal (exit 2),
    not recorded; a stage the config leaves out is refused before
    anything is written."""
    if name not in STAGES or not STAGES[name].included(cfg):
        raise ConfigError(f"stage {name!r} is not part of this configuration")
    # "0" is the attempt label of the deleted automatic rerun, kept so that no stage seed moves
    seed = derive_seed(cfg.seed, name, "0")
    started = time.monotonic()
    run.written.clear()
    try:
        metrics = STAGES[name].run(run, cfg, seed)
    except ConfigError:
        raise
    except (SubmapError, OSError) as e:
        run.record_failure(name, e)
        raise
    run.record_stage(name, seed, metrics, time.monotonic() - started)
    return metrics


def _stage_complete(run: RunDir, name: str) -> bool:
    doc = run.read_manifest()
    stage = doc.get("stages", {}).get(name)
    if not stage or stage.get("status") != "ok":
        return False
    return all(run.path(a).exists() for a in stage.get("artifacts", []))


def run_pipeline(cfg: PipelineConfig, out: str | Path, resume: bool = False) -> RunDir:
    """Run all configured stages in order, once; `run_stage` records a
    failure and re-raises it.  A run starts a new manifest; with `resume`
    it keeps the stages' records and skips each stage whose artifacts
    exist, and refuses, before writing anything, a run directory whose
    manifest records another config's hash."""
    run = RunDir(out)
    digest = config_digest(cfg)
    old = run.read_manifest()  # a damaged manifest is refused, not overwritten
    recorded = old.get("config_hash") if resume else None
    if recorded is not None and recorded != digest:
        raise ConfigError(f"{run.manifest_path()} records config_hash {recorded}, "
                          f"not this config's {digest}: resume a run with its own config")
    kept = old if resume else {}
    order = stages_for(cfg)
    run.write_manifest({"stages": kept.get("stages", {}), "timings": kept.get("timings", {}),
                        "config_hash": digest, "master_seed": cfg.seed,
                        "stage_order": list(order)})
    for name in order:
        if not (resume and _stage_complete(run, name)):
            run_stage(run, cfg, name)
    return run
