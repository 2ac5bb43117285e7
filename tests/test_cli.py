import configparser
import json
import os
import re
import shlex
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from submap.cli import _STAGE_COMMANDS, build_parser, main
from submap.config import PipelineConfig, config_digest, derive_seed, load_config
from submap.errors import ConfigError, EmptyDictionaryError, TrainingFailedError
from submap import gan, pipeline
from submap.pipeline import RunDir, run_pipeline, run_stage, stages_for
from submap.embeddings import EmbeddingSpace, load_embeddings, save_embeddings
from submap.clustering import load_assignments, save_assignments
from submap.mapping import LinearMap, load_linear_map, load_matrix, save_linear_map
from submap.retrieval import load_dictionary_tokens

TINY_CONFIG = """
[run]
seed = 11
refine_mode = {refine_mode}
single_restarts = 1

[data]
source = {src}
target = {tgt}
gold = {gold}
normalize_iterations = 3

[single_gan]
epochs = 1
steps_per_epoch = 30
batch_size = 8
beta = 0.5
dis_hidden = 16
dis_dropout = 0.0
criterion_vocab = 600
csls_k = 5

[refinement]
vocab_limit = 600
max_iters = 6
csls_k = 5

[evaluation]
csls_k = 5
"""


@pytest.fixture
def map_loads(monkeypatch):
    """The names of the map files `pipeline` parses, in order."""
    parsed = []

    def counting_load(path):
        parsed.append(Path(path).name)
        return load_linear_map(path)

    monkeypatch.setattr(pipeline, "load_linear_map", counting_load)
    return parsed


@pytest.fixture
def partition_loads(monkeypatch):
    """The names of the cluster-id and centroid files `pipeline` parses, in order."""
    parsed = []

    def counting_assignments(path, words):
        parsed.append(Path(path).name)
        return load_assignments(path, words)

    def counting_matrix(path):
        parsed.append(Path(path).name)
        return load_matrix(path)

    monkeypatch.setattr(pipeline, "load_assignments", counting_assignments)
    monkeypatch.setattr(pipeline, "load_matrix", counting_matrix)
    return parsed


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main(["synth-gen", "--out", str(out), "--clusters", "2", "--per-cluster", "60",
               "--dim", "6", "--separation", "5", "--noise-sigma", "0.0", "--seed", "4"])
    assert rc == 0
    return out


def write_config(tmp_path, synth_dir, refine_mode="global"):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(TINY_CONFIG.format(
        refine_mode=refine_mode, src=synth_dir / "source.vec",
        tgt=synth_dir / "target.vec", gold=synth_dir / "gold.tsv"), encoding="utf-8")
    return cfg_path


def set_value(cfg_path, section, key, value):
    parser = configparser.ConfigParser()
    parser.read(cfg_path, encoding="utf-8")
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, value)
    with open(cfg_path, "w", encoding="utf-8") as f:
        parser.write(f)
    return cfg_path


def manifest_without_timings(path):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    doc.pop("timings", None)
    return doc


class TestConfig:
    def test_load_and_digest(self, tmp_path, synth_dir, monkeypatch):
        cfg_path = write_config(tmp_path, synth_dir)
        cfg = load_config(cfg_path)
        assert cfg.seed == 11
        assert cfg.single_gan.epochs == 1
        assert cfg.single_gan.dis_hidden == 16
        assert config_digest(cfg) == config_digest(load_config(cfg_path))
        assert config_digest(cfg) == config_digest(replace(cfg, stop_after="normalize"))
        assert config_digest(cfg) != config_digest(replace(cfg, seed=12))
        # the subspace games train on [single_gan] with their own stage seed
        trained_on = []

        class Seen(Exception):
            pass

        def spy(single, pairing, source, target, gan_cfg, lambda_fixed=None):
            trained_on.append(gan_cfg)
            raise Seen

        monkeypatch.setattr(pipeline, "train_multi_gan", spy)
        run = RunDir(tmp_path / "spy")
        for name in ("normalize", "single_gan", "cluster", "align"):
            run_stage(run, cfg, name)
        with pytest.raises(Seen):
            run_stage(run, cfg, "multi_gan")
        assert trained_on == [replace(cfg.single_gan,
                                      seed=derive_seed(cfg.seed, "multi_gan", "0"))]

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\nbogus = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[nonsense]\nx = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_boundary_values_load(self, tmp_path, synth_dir):
        cfg_path = write_config(tmp_path, synth_dir)
        for section, key, value in (("data", "max_vocab", "1"),
                                    ("data", "normalize_iterations", "1"),
                                    ("clustering", "level", "0"),
                                    ("clustering", "min_cluster_size", "0"),
                                    ("clustering", "align_csls_k", "1"),
                                    ("evaluation", "csls_k", "1"),
                                    ("evaluation", "vocab_limit", "1"),
                                    ("evaluation", "kmeans_k", "0")):
            set_value(cfg_path, section, key, value)
        cfg = load_config(cfg_path)
        assert cfg.cluster.level == "0" and cfg.data.max_vocab == 1

    def test_derive_seed_is_stable_and_stage_specific(self):
        assert derive_seed(3, "cluster", "0") == derive_seed(3, "cluster", "0")
        assert derive_seed(3, "cluster", "0") != derive_seed(3, "align", "0")
        assert derive_seed(3, "cluster", "0") != derive_seed(4, "cluster", "0")

    def test_stages_for_modes(self, tmp_path, synth_dir):
        cfg = load_config(write_config(tmp_path, synth_dir))
        assert stages_for(cfg) == ("normalize", "single_gan", "cluster", "align",
                                   "multi_gan", "refine", "induce_dict", "eval")
        assert stages_for(replace(cfg, refine_mode="single")) == (
            "normalize", "single_gan", "refine", "induce_dict", "eval")
        assert stages_for(replace(cfg, stop_after="single_gan")) == (
            "normalize", "single_gan")
        with pytest.raises(ConfigError):
            stages_for(replace(cfg, stop_after="bogus"))


class TestPipeline:
    def test_full_run_artifacts_parse(self, tmp_path, synth_dir):
        cfg = load_config(write_config(tmp_path, synth_dir))
        out = tmp_path / "run"
        run = run_pipeline(cfg, out)
        manifest = run.read_manifest()
        # every artifact referenced by the manifest exists and parses
        for name, stage in manifest["stages"].items():
            assert stage["status"] == "ok"
            for artifact in stage["artifacts"]:
                path = out / artifact
                assert path.exists(), f"{name} artifact {artifact} missing"
                if artifact.endswith(".vec"):
                    load_embeddings(path, max_vocab=10 ** 6)
                elif artifact.endswith("map_000.txt") or artifact == "single_map.txt":
                    load_linear_map(path)
                elif artifact == "seed_dict.tsv":
                    load_dictionary_tokens(path)
                elif artifact.endswith(".json"):
                    json.loads(path.read_text(encoding="utf-8"))
        assert "p_at_1" in manifest["stages"]["eval"]["metrics"]

    def test_manifest_reports_each_game(self, tmp_path, synth_dir):
        cfg_path = write_config(tmp_path, synth_dir)
        for section, key, value in (("run", "single_restarts", "3"),
                                    ("single_gan", "epochs", "5")):
            set_value(cfg_path, section, key, value)
        cfg = load_config(cfg_path)
        stages = run_pipeline(cfg, tmp_path / "games").read_manifest()["stages"]
        single, multi = stages["single_gan"]["metrics"], stages["multi_gan"]["metrics"]
        crits = single["restart_criteria"]
        assert len(crits) == 3 and single["criterion"] == max(crits)
        assert single["winning_restart"] == crits.index(max(crits))
        subspaces = len(stages["align"]["metrics"]["pair_sizes"])
        assert len(multi["epochs_run"]) == len(multi["best_epochs"]) == subspaces
        for metrics in (single, multi):  # both stages train on [single_gan]
            for best, ran in zip(metrics["best_epochs"], metrics["epochs_run"]):
                # a game runs every epoch or stops `_PATIENCE` epochs after its best
                assert 0 <= best <= ran and ran in (5, best + gan._PATIENCE)

    def test_stage_gating_stops_early(self, tmp_path, synth_dir):
        cfg = replace(load_config(write_config(tmp_path, synth_dir)),
                      stop_after="single_gan")
        out = tmp_path / "gated"
        run = run_pipeline(cfg, out)
        stages = run.read_manifest()["stages"]
        assert set(stages) == {"normalize", "single_gan"}
        assert (out / "single_map.txt").exists()
        assert not (out / "report.json").exists()

    def test_pipeline_equals_manual_stage_sequence(self, tmp_path, synth_dir):
        cfg = load_config(write_config(tmp_path, synth_dir))
        auto = tmp_path / "auto"
        manual = tmp_path / "manual"
        run_pipeline(cfg, auto)
        run = RunDir(manual)
        for name in stages_for(cfg):
            run_stage(run, cfg, name)
        for artifact in sorted(p.relative_to(auto) for p in auto.rglob("*")
                               if p.is_file() and p.name != "manifest.json"):
            a = (auto / artifact).read_bytes()
            b = (manual / artifact).read_bytes()
            assert a == b, f"{artifact} differs between pipeline and subcommands"

    def test_each_normalized_space_parsed_once(self, tmp_path, synth_dir, monkeypatch):
        cfg = load_config(write_config(tmp_path, synth_dir))
        parsed = []

        def counting_load(path, max_vocab):
            parsed.append(Path(path).name)
            return load_embeddings(path, max_vocab)

        monkeypatch.setattr(pipeline, "load_embeddings", counting_load)
        run = run_pipeline(cfg, tmp_path / "once")
        # the inputs once each; the normalized spaces are kept as written
        assert sorted(parsed) == ["source.vec", "target.vec"]
        for name in ("source.norm.vec", "target.norm.vec"):
            kept = run.load_space(name, cfg.data.max_vocab)
            back = load_embeddings(run.path(name), cfg.data.max_vocab)
            assert kept.words == back.words
            assert kept.vectors.tobytes() == back.vectors.tobytes()
        assert sorted(parsed) == ["source.vec", "target.vec"]

    def test_rewritten_space_is_parsed_again(self, tmp_path, synth_dir, monkeypatch):
        cfg = load_config(write_config(tmp_path, synth_dir))
        run = RunDir(tmp_path / "rewrite")
        run_stage(run, cfg, "normalize")
        run_stage(run, cfg, "single_gan")
        old = load_embeddings(run.path("source.norm.vec"), cfg.data.max_vocab)
        # unit basis rows: different vectors and a shorter file than the old ones
        basis = np.eye(old.dim)[np.arange(old.n) % old.dim]
        save_embeddings(run.path("source.norm.vec"), EmbeddingSpace(old.words, basis))
        seen = []

        class Seen(Exception):
            pass

        def spy(vectors):
            seen.append(vectors)
            raise Seen

        monkeypatch.setattr(pipeline, "finch_hierarchy", spy)
        with pytest.raises(Seen):
            run_stage(run, cfg, "cluster")
        assert np.array_equal(seen[0], basis)

    @pytest.mark.parametrize("refine_mode", ["global", "single"])
    def test_maps_written_in_process_are_not_parsed(self, tmp_path, synth_dir, map_loads,
                                                    refine_mode):
        cfg = load_config(write_config(tmp_path, synth_dir, refine_mode=refine_mode))
        run = run_pipeline(cfg, tmp_path / "kept")
        names = sorted(str(p.relative_to(run.root)) for p in run.root.rglob("*map*.txt"))
        assert "single_map.txt" in names and "final/map_000.txt" in names
        for name in names:  # each kept map is what its file parses to
            assert run.load_map(name).w.tobytes() == load_linear_map(run.path(name)).w.tobytes()
        assert map_loads == []

    def test_rewritten_map_is_parsed_again(self, tmp_path, map_loads):
        run = RunDir(tmp_path / "maps")
        run.save_map("m.txt", LinearMap(np.eye(3)))
        assert np.array_equal(run.load_map("m.txt").w, np.eye(3)) and map_loads == []
        # the same size on disk, so only the new modification time tells
        swapped = np.eye(3)[[1, 0, 2]]
        save_linear_map(run.path("m.txt"), LinearMap(swapped))
        st = run.path("m.txt").stat()
        os.utime(run.path("m.txt"), ns=(st.st_atime_ns, st.st_mtime_ns + 10 ** 9))
        assert np.array_equal(run.load_map("m.txt").w, swapped) and map_loads == ["m.txt"]
        run.load_map("m.txt")
        assert map_loads == ["m.txt"]
        # a new RunDir, as each per-stage subcommand makes, parses from disk
        assert np.array_equal(RunDir(run.root).load_map("m.txt").w, swapped)
        assert map_loads == ["m.txt", "m.txt"]

    def test_written_space_is_parsed_again_when_rewritten(self, tmp_path, monkeypatch):
        parsed = []

        def counting_load(path, max_vocab):
            parsed.append((Path(path).name, max_vocab))
            return load_embeddings(path, max_vocab)

        monkeypatch.setattr(pipeline, "load_embeddings", counting_load)
        run = RunDir(tmp_path / "spaces")
        words = ("a", "b", "c")
        run.save_space("s.vec", EmbeddingSpace(words, np.eye(3)))
        assert np.array_equal(run.load_space("s.vec", 3).vectors, np.eye(3))
        assert run.load_space("s.vec", 10).n == 3 and parsed == []
        # fewer words than the file holds is a parse of the first ones
        assert run.load_space("s.vec", 2).words == ("a", "b") and parsed == [("s.vec", 2)]
        # the same size on disk, so only the new modification time tells
        swapped = np.eye(3)[[1, 0, 2]]
        save_embeddings(run.path("s.vec"), EmbeddingSpace(words, swapped))
        st = run.path("s.vec").stat()
        os.utime(run.path("s.vec"), ns=(st.st_atime_ns, st.st_mtime_ns + 10 ** 9))
        assert np.array_equal(run.load_space("s.vec", 3).vectors, swapped)
        assert parsed == [("s.vec", 2), ("s.vec", 3)]
        run.load_space("s.vec", 3)
        assert parsed == [("s.vec", 2), ("s.vec", 3)]
        # a new RunDir, as each per-stage subcommand makes, parses from disk
        assert np.array_equal(RunDir(run.root).load_space("s.vec", 3).vectors, swapped)
        assert parsed == [("s.vec", 2), ("s.vec", 3), ("s.vec", 3)]

    def test_partition_files_written_in_process_are_not_parsed(self, tmp_path, synth_dir,
                                                               partition_loads):
        cfg = load_config(write_config(tmp_path, synth_dir))
        run = run_pipeline(cfg, tmp_path / "kept")
        assert partition_loads == []
        source = run.load_space("source.norm.vec", cfg.data.max_vocab)
        target = run.load_space("target.norm.vec", cfg.data.max_vocab)
        # each kept array is what its file parses to
        for name, words in (("source_partition.tsv", source.words),
                            ("target_assignments.tsv", target.words)):
            assert np.array_equal(run.load_assignments(name, words),
                                  load_assignments(run.path(name), words))
        centroids = run.load_matrix("source_centroids.txt")
        assert centroids.tobytes() == load_matrix(run.path("source_centroids.txt")).tobytes()
        assert partition_loads == []
        # a new RunDir, as each per-stage subcommand makes, parses from disk
        fresh = RunDir(run.root)
        fresh.load_assignments("target_assignments.tsv", target.words)
        fresh.load_matrix("source_centroids.txt")
        assert partition_loads == ["target_assignments.tsv", "source_centroids.txt"]

    def test_rewritten_partition_file_is_parsed_again(self, tmp_path, partition_loads):
        run = RunDir(tmp_path / "ids")
        words = ("a", "b", "c")
        run.save_assignments("p.tsv", words, np.array([0, 1, 0]))
        run.save_matrix("c.txt", np.eye(2))
        assert np.array_equal(run.load_assignments("p.tsv", words), [0, 1, 0])
        assert np.array_equal(run.load_matrix("c.txt"), np.eye(2)) and partition_loads == []
        # the same sizes on disk, so only the new modification times tell
        save_assignments(run.path("p.tsv"), words, np.array([1, 0, 1]))
        np.savetxt(run.path("c.txt"), np.eye(2)[::-1], fmt="%d", header="2 2", comments="")
        for name in ("p.tsv", "c.txt"):
            st = run.path(name).stat()
            os.utime(run.path(name), ns=(st.st_atime_ns, st.st_mtime_ns + 10 ** 9))
        assert np.array_equal(run.load_assignments("p.tsv", words), [1, 0, 1])
        assert np.array_equal(run.load_matrix("c.txt"), np.eye(2)[::-1])
        assert partition_loads == ["p.tsv", "c.txt"]
        run.load_assignments("p.tsv", words)
        run.load_matrix("c.txt")
        assert partition_loads == ["p.tsv", "c.txt"]

    def test_single_mode_skips_clustering(self, tmp_path, synth_dir):
        cfg = load_config(write_config(tmp_path, synth_dir, refine_mode="single"))
        out = tmp_path / "single"
        run = run_pipeline(cfg, out)
        stages = run.read_manifest()["stages"]
        assert "cluster" not in stages and "multi_gan" not in stages
        meta = json.loads((out / "final" / "meta.json").read_text(encoding="utf-8"))
        assert meta["kind"] == "single"
        assert "p_at_1" in stages["eval"]["metrics"]

    def test_single_refinement_reports_the_returned_maps_objective(self, tmp_path, synth_dir):
        cfg_path = set_value(write_config(tmp_path, synth_dir, refine_mode="single"),
                             "refinement", "max_iters", "2")
        out = tmp_path / "single"
        stages = run_pipeline(load_config(cfg_path), out).read_manifest()["stages"]
        objective = stages["refine"]["metrics"]["objective"]
        meta = json.loads((out / "final" / "meta.json").read_text(encoding="utf-8"))
        rows = [line.split("\t")[2:] for line in
                (out / "refine_log.tsv").read_text(encoding="utf-8").splitlines()[1:]]
        # round 2 induced fewer than d = 6 pairs, which an orthogonal map fits
        # exactly, so its higher objective may not claim the snapshot
        (first, first_pairs), (last, last_pairs) = rows
        assert int(first_pairs) >= 6 > int(last_pairs) and float(last) > float(first)
        assert meta["objective"] == objective
        assert f"{objective:.12g}" == first

    def test_baseline_and_pipeline_score_the_same_window(self, tmp_path, synth_dir):
        # 120 gold entries against an evaluation window of 50 source words
        evaluated = {}
        for mode in ("global", "single"):
            cfg_path = set_value(write_config(tmp_path, synth_dir, refine_mode=mode),
                                 "evaluation", "vocab_limit", "50")
            stages = run_pipeline(load_config(cfg_path), tmp_path / mode).read_manifest()["stages"]
            metrics = stages["eval"]["metrics"]
            evaluated[mode] = (metrics["evaluated"], metrics["skipped_oov"])
        assert evaluated["global"] == evaluated["single"] == (50, 70)

    @pytest.mark.parametrize("mode", ["none", "local"])
    def test_piecewise_refine_modes(self, tmp_path, synth_dir, mode):
        cfg = load_config(write_config(tmp_path, synth_dir, refine_mode=mode))
        out = tmp_path / mode
        run = run_pipeline(cfg, out)
        stages = run.read_manifest()["stages"]
        refine = stages["refine"]
        count = len(stages["multi_gan"]["metrics"]["lambdas"])
        maps = [f"final/map_{i:03d}.txt" for i in range(count)]
        if mode == "none":
            logs = []
            assert list(refine["metrics"]) == ["mode"]
            for name in maps:
                multi = out / name.replace("final", "multi")
                assert (out / name).read_bytes() == multi.read_bytes()
        else:
            subspaces = refine["metrics"]["refined_subspaces"]
            assert subspaces
            logs = [f"refine_log_{c:03d}.tsv" for c in subspaces]
            assert sorted(refine["metrics"]) == ["mode", "refined_subspaces"]
        assert refine["metrics"]["mode"] == mode
        assert refine["artifacts"] == maps + ["final/meta.json"] + logs
        source = run.load_space("source.norm.vec", cfg.data.max_vocab)
        target = run.load_space("target.norm.vec", cfg.data.max_vocab)
        _, _, pm = pipeline.load_final_mapping(run, source, target)
        assert len(pm.maps) == count
        for m, name in zip(pm.maps, maps):
            assert np.array_equal(m.w, load_linear_map(out / name).w)
        assert "p_at_1" in stages["eval"]["metrics"]

    def test_resume_skips_completed_stages(self, tmp_path, synth_dir):
        cfg = load_config(write_config(tmp_path, synth_dir))
        out = tmp_path / "resume"
        run_pipeline(cfg, out)
        before = manifest_without_timings(out / "manifest.json")
        marker = out / "single_map.txt"
        stamp = marker.stat().st_mtime_ns
        run_pipeline(cfg, out, resume=True)
        assert marker.stat().st_mtime_ns == stamp  # stage not rerun
        assert manifest_without_timings(out / "manifest.json") == before

    @pytest.mark.parametrize("first", [["pipeline", "--stage", "normalize"], ["normalize"]],
                             ids=["stopped-pipeline", "stage-subcommand"])
    def test_resume_continues_a_run_of_the_same_config(self, tmp_path, synth_dir, first):
        cfg_path = write_config(tmp_path, synth_dir)
        out = tmp_path / "resume"
        common = ["--config", str(cfg_path), "--out", str(out)]
        assert main(first[:1] + common + first[1:]) == 0
        stamp = (out / "source.norm.vec").stat().st_mtime_ns
        assert main(["pipeline", *common, "--resume"]) == 0
        assert (out / "source.norm.vec").stat().st_mtime_ns == stamp
        assert (out / "report.json").exists()

    def test_resume_refuses_another_config(self, tmp_path, synth_dir, capsys):
        cfg_path = write_config(tmp_path, synth_dir)
        out = tmp_path / "resume"
        common = ["--config", str(cfg_path), "--out", str(out)]
        assert main(["pipeline", *common]) == 0
        before = (out / "manifest.json").read_bytes()
        assert main(["pipeline", *common, "--seed", "12", "--resume"]) == 2
        assert "config_hash" in capsys.readouterr().err
        assert (out / "manifest.json").read_bytes() == before

    def test_interrupted_manifest_write_keeps_the_old_manifest(self, tmp_path, monkeypatch):
        run = RunDir(tmp_path / "run")
        run.update_manifest(config_hash="a")

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run.update_manifest(config_hash="b")
        assert run.read_manifest()["config_hash"] == "a"

    @pytest.mark.parametrize("name, command", [("manifest.json", ["pipeline", "--resume"]),
                                               ("final/meta.json", ["eval-bli"])])
    def test_truncated_json_is_a_parse_error(self, tmp_path, synth_dir, capsys, name,
                                             command):
        cfg_path = write_config(tmp_path, synth_dir)
        out = tmp_path / "cut"
        common = ["--config", str(cfg_path), "--out", str(out)]
        assert main(["pipeline", *common]) == 0
        path = out / name
        text = path.read_bytes()
        path.write_bytes(text[:len(text) // 2])
        assert main(command[:1] + common + command[1:]) == 1
        assert f"error: ParseError: {path}: " in capsys.readouterr().err


class TestRetry:
    def test_empty_dictionary_reruns_every_stage_with_fresh_seeds(self, tmp_path, synth_dir,
                                                                  monkeypatch):
        induce = pipeline.STAGES["induce_dict"]
        calls = []

        def empty_once(run, cfg, seed):
            calls.append(seed)
            if len(calls) == 1:
                raise EmptyDictionaryError("forced")
            return induce(run, cfg, seed)

        monkeypatch.setitem(pipeline.STAGES, "induce_dict", empty_once)
        cfg = load_config(write_config(tmp_path, synth_dir, refine_mode="single"))
        manifest = run_pipeline(cfg, tmp_path / "retry").read_manifest()
        assert manifest["attempt"] == 1 and "failure_stage" not in manifest
        assert calls == [derive_seed(cfg.seed, "induce_dict", str(a)) for a in (0, 1)]
        assert sorted(manifest["stages"]) == sorted(stages_for(cfg))
        for name, stage in manifest["stages"].items():
            assert stage["seed"] == derive_seed(cfg.seed, name, "1")
            assert stage["seed"] != derive_seed(cfg.seed, name, "0")

    @pytest.mark.parametrize("stage, error", [("induce_dict", EmptyDictionaryError),
                                              ("single_gan", TrainingFailedError)])
    def test_failure_without_retry_is_recorded(self, tmp_path, synth_dir, monkeypatch,
                                               stage, error):
        def failing(run, cfg, seed):
            raise error("forced")

        monkeypatch.setitem(pipeline.STAGES, stage, failing)
        cfg_path = set_value(write_config(tmp_path, synth_dir, refine_mode="single"),
                             "run", "restart_budget", "0")
        out = tmp_path / "failed"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["failure_stage"] == stage
        assert manifest["failure"] == f"{error.__name__}: forced"
        assert "attempt" not in manifest


class TestCliCommands:
    def test_pipeline_then_rerun_is_bit_identical(self, tmp_path, synth_dir):
        cfg_path = write_config(tmp_path, synth_dir)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            if rel.name == "manifest.json":
                assert (manifest_without_timings(out_a / rel)
                        == manifest_without_timings(out_b / rel))
            else:
                assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()

    def test_subcommand_sequence_via_cli(self, tmp_path, synth_dir):
        cfg_path = write_config(tmp_path, synth_dir, refine_mode="single")
        out = tmp_path / "cli_stages"
        for cmd in ("normalize", "train-single", "refine", "induce-dict", "eval-bli"):
            assert main([cmd, "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "report.json").exists()

    def test_eval_bli_kmeans_table(self, tmp_path, synth_dir):
        cfg_path = write_config(tmp_path, synth_dir, refine_mode="single")
        out = tmp_path / "kmeans"
        for cmd in ("normalize", "train-single", "refine"):
            assert main([cmd, "--config", str(cfg_path), "--out", str(out)]) == 0
        eval_bli = ["eval-bli", "--config", str(cfg_path), "--out", str(out), "--kmeans"]
        assert main(eval_bli + ["-1"]) == 2
        assert not (out / "report.json").exists()
        assert main(eval_bli + ["3"]) == 0
        header, *rows = (out / "per_subspace.tsv").read_text(encoding="utf-8").splitlines()
        assert header == "cluster_id\tevaluated\taccuracy"
        assert [row.split("\t")[0] for row in rows] == ["0", "1", "2"]

    def test_every_stage_has_one_subcommand(self):
        assert sorted(stage for stage, _ in _STAGE_COMMANDS.values()) == sorted(pipeline.STAGES)

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\nbogus = 1\n", encoding="utf-8")
        assert main(["pipeline", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2

    def test_leaky_slope_above_one_exits_at_config_load(self, tmp_path, synth_dir):
        cfg_path = write_config(tmp_path, synth_dir)
        text = cfg_path.read_text(encoding="utf-8")
        cfg_path.write_text(text.replace("[single_gan]\n", "[single_gan]\ndis_leaky_slope = 1.5\n"),
                            encoding="utf-8")
        out = tmp_path / "x"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("data", "max_vocab", "0"),
        ("data", "normalize_iterations", "0"),
        ("clustering", "align_csls_k", "0"),
        ("clustering", "min_cluster_size", "-1"),
        ("clustering", "level", "lats"),
        ("clustering", "level", "-1"),
        ("evaluation", "csls_k", "0"),
        ("evaluation", "vocab_limit", "0"),
        ("evaluation", "kmeans_k", "-1"),
        # stage seeds derive from [run] seed alone
        ("single_gan", "seed", "123"),
        ("refinement", "seed", "77"),
        # both adversarial stages train on [single_gan]: no [multi_gan] section
        ("multi_gan", "seed", "5"),
        ("multi_gan", "epochs", "1"),
        # where a run stops is `pipeline --stage`, not a config key
        ("run", "stop_after", "normalize"),
    ])
    def test_bad_value_exits_at_config_load(self, tmp_path, synth_dir, section, key,
                                            value):
        cfg_path = set_value(write_config(tmp_path, synth_dir), section, key, value)
        out = tmp_path / "x"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("old,new", [
        ("single_restarts = 1\n", "single_restarts = 1\nsingle_restarts = 2\n"),
        ("[evaluation]\n", "[run]\nseed = 3\n\n[evaluation]\n"),
        ("[run]\n", ""),
        ("beta = 0.5\n", "beta = 0.5%\n"),  # raised by interpolation, not at read
    ], ids=["option-twice", "section-twice", "no-section-header", "bare-percent"])
    def test_syntax_error_exits_at_config_load(self, tmp_path, synth_dir, capsys, old, new):
        cfg_path = write_config(tmp_path, synth_dir)
        text = cfg_path.read_text(encoding="utf-8")
        assert old in text
        cfg_path.write_text(text.replace(old, new, 1), encoding="utf-8")
        out = tmp_path / "x"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_typed_failure_exit_code(self, tmp_path, synth_dir):
        cfg_path = write_config(tmp_path, synth_dir)
        # break the source path: load fails with a ParseError subclass
        text = cfg_path.read_text(encoding="utf-8").replace("source.vec", "missing.vec")
        broken = tmp_path / "broken.ini"
        broken.write_text(text, encoding="utf-8")
        rc = main(["pipeline", "--config", str(broken), "--out", str(tmp_path / "y")])
        assert rc == 1

    def test_non_finite_embedding_fails_at_normalize(self, tmp_path, synth_dir):
        lines = (synth_dir / "source.vec").read_text(encoding="utf-8").splitlines()
        word, *fields = lines[5].split(" ")
        lines[5] = " ".join([word, "nan", *fields[1:]])
        (tmp_path / "source.vec").write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg_path = write_config(tmp_path, synth_dir)
        text = cfg_path.read_text(encoding="utf-8")
        cfg_path.write_text(text.replace(str(synth_dir / "source.vec"),
                                         str(tmp_path / "source.vec")), encoding="utf-8")
        out = tmp_path / "nan"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["failure_stage"] == "normalize"
        assert manifest["failure"] == f"DegenerateVectorError: non-finite norm for {word}"

    @pytest.mark.parametrize("flag, value", [("--separation", "inf"),
                                             ("--noise-sigma", "nan")])
    def test_synth_gen_rejects_non_finite_parameters(self, tmp_path, flag, value):
        out = tmp_path / "synth"
        rc = main(["synth-gen", "--out", str(out), "--clusters", "2", "--per-cluster", "5",
                   "--dim", "3", flag, value])
        assert rc == 2
        assert not (out / "source.vec").exists()

    def test_stage_not_in_configuration_rejected(self, tmp_path, synth_dir):
        cfg_path = write_config(tmp_path, synth_dir, refine_mode="single")
        rc = main(["train-multi", "--config", str(cfg_path),
                   "--out", str(tmp_path / "z")])
        assert rc == 2

    def test_flag_overrides(self, tmp_path, synth_dir):
        cfg_path = write_config(tmp_path, synth_dir)
        out = tmp_path / "override"
        rc = main(["pipeline", "--config", str(cfg_path), "--out", str(out),
                   "--seed", "99", "--refine", "single", "--stage", "single_gan"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["master_seed"] == 99
        assert set(manifest["stages"]) == {"normalize", "single_gan"}


class TestReadmeRecipes:
    """README's code blocks are the experiment recipes, so they must run."""

    BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```",
                        (Path(__file__).resolve().parent.parent / "README.md")
                        .read_text(encoding="utf-8"), re.M | re.S)

    def test_every_ini_block_loads(self, tmp_path):
        blocks = [body for lang, body in self.BLOCKS if lang == "ini"]
        assert len(blocks) >= 3
        for i, body in enumerate(blocks):
            path = tmp_path / f"block{i}.ini"
            path.write_text(body, encoding="utf-8")
            load_config(path)

    def test_minimal_config_shows_the_defaults(self, tmp_path):
        path = tmp_path / "minimal.ini"
        path.write_text(next(body for lang, body in self.BLOCKS if lang == "ini"),
                        encoding="utf-8")
        cfg = load_config(path)
        assert cfg.data.source and cfg.data.target and cfg.data.gold
        data = replace(cfg.data, source="", target="", gold="")
        assert replace(cfg, data=data) == PipelineConfig()

    def test_every_command_line_parses(self):
        commands = [shlex.split(line, comments=True)
                    for _, body in self.BLOCKS
                    for line in body.replace("\\\n", " ").splitlines()
                    if line.startswith("submap ")]
        assert len(commands) >= 7
        for argv in commands:
            build_parser().parse_args(argv[1:])
