"""Run `submap` in-process with every public function traced, then
write the per-layer metrics of that run as JSON.

    python3 perfbench/traced_pipeline.py METRICS.json pipeline --config RUN.ini --out DIR

Everything after the metrics path is passed to `submap.cli.main`
unchanged, so the run directory matches an untraced run byte for byte
apart from the manifest timings.  The exit code is the CLI's.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import pkgutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, install, selfcheck, uninstall  # noqa: E402

STAGES = ("normalize", "single_gan", "cluster", "align", "multi_gan",
          "refine", "induce_dict", "eval")
MB = 1e6
GIGA = 1e9


def _rows(x) -> int:
    return x.vectors.shape[0] if hasattr(x, "vectors") else len(x)


def _bound(fn, args, kwargs):
    sig = inspect.signature(inspect.unwrap(fn))
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def work_counters(modules: dict) -> dict:
    """Computed work per call, keyed by traced span name."""
    retrieval, embeddings = modules["retrieval"], modules["embeddings"]

    def csls(t, args, kwargs, result):
        a = _bound(retrieval.csls_translate, args, kwargs)
        t.count("csls_cells", 3 * _rows(a["queries"]) * _rows(a["target"]))

    def first_neighbors(t, args, kwargs, result):
        t.count("first_neighbor_cells", len(args[0]) ** 2)

    def load(t, args, kwargs, result):
        t.count("load_bytes", os.path.getsize(_bound(embeddings.load_embeddings,
                                                     args, kwargs)["path"]))

    def save(t, args, kwargs, result):
        t.count("save_bytes", os.path.getsize(_bound(embeddings.save_embeddings,
                                                     args, kwargs)["path"]))

    def induce(t, args, kwargs, result):
        a = _bound(retrieval.induce_seed_dictionary, args, kwargs)
        t.count("induce_queried", min(a["vocab_limit"], a["source"].n))
        t.count("induce_pairs", len(result))

    return {"retrieval.csls_translate": csls,
            "clustering.first_neighbors": first_neighbors,
            "embeddings.load_embeddings": load,
            "embeddings.save_embeddings": save,
            "retrieval.induce_seed_dictionary": induce}


def _improved_share(run: Path) -> tuple[int, int]:
    """(iterations, iterations that raised the best objective so far) over
    every refinement log of the run."""
    iterations = improved = 0
    for log in sorted(run.glob("refine_log*.tsv")):
        best = -math.inf
        for line in log.read_text(encoding="utf-8").splitlines()[1:]:
            objective = float(line.split("\t")[2])
            iterations += 1
            if objective > best:
                improved += 1
                best = objective
    return iterations, improved


def layer_metrics(tracer: Tracer, run: Path) -> dict[str, float]:
    """The per-layer metrics named in perfbench/README.md."""
    spans = tracer.summary()
    work = tracer.work
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    stages = manifest.get("stages", {})

    def total(*names):
        return sum(spans[n]["total_s"] for n in names if n in spans)

    def own(*names):
        return sum(spans[n]["self_s"] for n in names if n in spans)

    def calls(name):
        return spans[name]["calls"] if name in spans else 0

    def median_ms(name):
        return spans[name]["median_ms"] if name in spans else 0.0

    # selection-criterion time belongs to the trainer that asked for it
    criterion = {"gan": 0.0, "multigan": 0.0}
    durations = tracer.durations()
    for i in tracer.spans_of("retrieval.selection_criterion"):
        for ancestor in tracer.ancestor_names(i):
            owner = ancestor.split(".")[0]
            if owner in criterion:
                criterion[owner] += durations[i]
                break

    multi = stages.get("multi_gan", {}).get("metrics", {})
    criteria = multi.get("criteria", [])
    cluster = stages.get("cluster", {}).get("metrics", {})
    iterations, improved = _improved_share(run)
    timings = manifest.get("timings", {})
    m = {f"pipeline.{s}_s": float(timings.get(s, 0.0)) for s in STAGES}
    m.update({
        "pipeline.attempts": manifest.get("attempt", 0),
        "gan.dis_step_ms": median_ms("gan.discriminator_step"),
        "gan.dis_steps": calls("gan.discriminator_step"),
        "gan.gen_step_ms": median_ms("gan.generator_step"),
        "gan.gen_steps": calls("gan.generator_step"),
        "gan.criterion_s": criterion["gan"],
        "gan.restarts": calls("gan.train_single_gan"),
        "gan.restarts_failed": spans.get("gan.train_single_gan", {}).get("failed", 0),
        "numerics.bce_input_gradient_s": total("numerics.bce_input_gradient"),
        "numerics.covariance_eigenvalues_s": total("numerics.covariance_eigenvalues"),
        "multigan.dis_step_ms": median_ms("multigan.subspace_dis_steps"),
        "multigan.dis_steps": calls("multigan.subspace_dis_steps"),
        "multigan.gen_step_ms": median_ms("multigan.subspace_gen_step"),
        "multigan.gen_steps": calls("multigan.subspace_gen_step"),
        "multigan.criterion_s": criterion["multigan"],
        "multigan.lambda_s": total("multigan.evd"),
        "multigan.subspaces": len(criteria),
        "multigan.fallbacks": sum(1 for c in criteria if c is None or math.isnan(c)),
        "retrieval.csls_s": own("retrieval.csls_translate"),
        "retrieval.csls_ms": median_ms("retrieval.csls_translate"),
        "retrieval.topk_s": total("retrieval.topk_mean"),
        "retrieval.csls_calls": calls("retrieval.csls_translate"),
        "retrieval.csls_gcells": work.get("csls_cells", 0) / GIGA,
        "retrieval.criterion_s": total("retrieval.selection_criterion"),
        "retrieval.induce_s": total("retrieval.induce_seed_dictionary"),
        "retrieval.induce_yield": (work.get("induce_pairs", 0) / work["induce_queried"]
                                   if work.get("induce_queried") else 0.0),
        "refinement.iterations": calls("refinement.procrustes"),
        "refinement.improved_share": improved / iterations if iterations else 0.0,
        "refinement.procrustes_s": total("refinement.procrustes"),
        "alignment.partition_s": total("alignment.partition_target_with_merge"),
        "alignment.merge_retries": (calls("alignment.partition_target")
                                    - calls("alignment.partition_target_with_merge")),
        "evaluation.bli_s": total("evaluation.evaluate_bli",
                                  "evaluation.per_subspace_accuracy"),
        "evaluation.p_at_1": float(stages.get("eval", {}).get("metrics", {})
                                   .get("p_at_1", 0.0)),
        "mapping.io_s": total("mapping.save_linear_map", "mapping.load_linear_map"),
        "mapping.apply_s": own("mapping.LinearMap.apply", "mapping.PiecewiseMap.apply_source",
                               "mapping.PiecewiseMap.apply_target_back",
                               "mapping.PiecewiseMap.transformed_source"),
        "clustering.first_neighbors_s": total("clustering.first_neighbors"),
        "clustering.first_neighbors_ms": median_ms("clustering.first_neighbors"),
        "clustering.first_neighbors_gcells": work.get("first_neighbor_cells", 0) / GIGA,
        "clustering.finch_s": total("clustering.finch_hierarchy"),
        "clustering.levels": len(cluster.get("level_sizes", [])),
        "clustering.clusters": cluster.get("clusters", 0),
        "embeddings.load_s": total("embeddings.load_embeddings"),
        "embeddings.load_ms": median_ms("embeddings.load_embeddings"),
        "embeddings.load_calls": calls("embeddings.load_embeddings"),
        "embeddings.load_mb": work.get("load_bytes", 0) / MB,
        "embeddings.save_s": total("embeddings.save_embeddings"),
        "embeddings.save_ms": median_ms("embeddings.save_embeddings"),
        "embeddings.save_mb": work.get("save_bytes", 0) / MB,
        "embeddings.normalize_s": total("embeddings.iterative_normalize"),
    })
    return m


def module_self_shares(tracer: Tracer) -> dict[str, float]:
    """Self time per package module as a share of all traced time."""
    per: dict[str, float] = {}
    for nid, own in zip(tracer.name, tracer.self_times()):
        module = tracer.names[nid].split(".")[0]
        per[module] = per.get(module, 0.0) + own
    whole = sum(per.values()) or 1.0
    return {k: v / whole for k, v in sorted(per.items(), key=lambda kv: -kv[1])}


def main(argv: list[str]) -> int:
    metrics_path, cli_args = Path(argv[0]), argv[1:]
    selfcheck()
    package = importlib.import_module("submap")
    modules = {name: importlib.import_module(f"submap.{name}")
               for _, name, _ in pkgutil.iter_modules(package.__path__)}
    cli = modules["cli"]
    tracer = Tracer()
    undo = install(tracer, list(modules.values()), "submap", work_counters(modules))
    try:
        code = cli.main(cli_args)
    finally:
        uninstall(undo)
    doc = {"exit_code": code, "spans": len(tracer.name),
           "self_share": module_self_shares(tracer),
           "functions": tracer.summary()}
    if code == 0:
        doc["metrics"] = layer_metrics(tracer, Path(cli_args[cli_args.index("--out") + 1]))
    metrics_path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
