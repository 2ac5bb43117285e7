import argparse
import configparser
import json
import os
import re
import shlex
import shutil
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from submap.cli import build_parser, main
from submap.config import PipelineConfig, config_digest, derive_seed, load_config
from submap.errors import ConfigError, EmptyDictionaryError, TrainingFailedError
from submap import gan, pipeline
from submap.pipeline import RunDir, run_pipeline, run_stage, stages_for
from submap.embeddings import EmbeddingSpace, load_embeddings, save_embeddings, unit_rows
from submap.clustering import load_assignments, save_assignments
from submap.mapping import LinearMap, load_linear_map, load_matrix, save_linear_map, save_matrix
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

[evaluation]
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


def subparsers() -> argparse._SubParsersAction:
    """The `submap` parser's subcommands."""
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))


def subcommand_help() -> dict[str, str]:
    """Each subcommand of `submap`, in the parser's order, with its help text."""
    return {a.dest: a.help for a in subparsers()._choices_actions}


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
        for name in ("normalize", "single_gan", "cluster"):
            run_stage(run, cfg, name)
        with pytest.raises(Seen):
            run_stage(run, cfg, "multi_gan")
        assert trained_on == [replace(cfg.single_gan,
                                      seed=derive_seed(cfg.seed, "multi_gan", "0"))]

    def test_lambda_mode_reaches_train_multi_gan(self, tmp_path, synth_dir, monkeypatch):
        cfg_path = write_config(tmp_path, synth_dir)
        run = RunDir(tmp_path / "spy")
        for name in ("normalize", "single_gan", "cluster"):
            run_stage(run, load_config(cfg_path), name)
        passed = []

        class Seen(Exception):
            pass

        def spy(single, pairing, source, target, gan_cfg, lambda_fixed=None):
            passed.append(lambda_fixed)
            raise Seen

        monkeypatch.setattr(pipeline, "train_multi_gan", spy)
        # lambda_mode names the fixed lambda itself; dynamic passes none
        modes = {"dynamic": None, "0": 0.0, "1": 1.0, "0.3": 0.3, "1.0": 1.0, "0.30": 0.3,
                 ".5": 0.5}
        for mode in modes:
            with pytest.raises(Seen):
                run_stage(run, load_config(set_value(cfg_path, "multi", "lambda_mode", mode)),
                          "multi_gan")
        assert passed == list(modes.values())
        assert all(type(x) is float for x in passed[1:])

    def test_fixed_lambda_spellings_hash_alike(self, tmp_path):
        def digest(mode):
            path = tmp_path / "lambda.ini"
            path.write_text(f"[multi]\nlambda_mode = {mode}\n", encoding="utf-8")
            return config_digest(load_config(path))

        # one hash per value, the one its shortest spelling had before spellings were merged
        groups = {"bc4a23560151f56a": ("dynamic",),
                  "46832a161d2bae4c": ("0.3", "0.30", "0.300000000000000001"),
                  "1a6015a536ef7ab7": ("1", "1.0", "1."),
                  "c0b5f641b206d445": ("0", "0.0", "00", ".0")}
        for expected, spellings in groups.items():
            assert [digest(mode) for mode in spellings] == [expected] * len(spellings)
        assert len({digest(mode) for mode in ("0.5", ".5", "00.5", "0.50")}) == 1

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
                                    ("clustering", "level", "second_to_last"),
                                    ("multi", "lambda_mode", "0"),
                                    ("evaluation", "vocab_limit", "1")):
            set_value(cfg_path, section, key, value)
        cfg = load_config(cfg_path)
        assert cfg.cluster.level == "second_to_last" and cfg.data.max_vocab == 1
        assert cfg.multi.lambda_mode == "0"

    # Every key a config file may set, per section.  Adding or deleting a
    # knob edits this table.
    INI_SURFACE = {
        "run": ("seed", "single_restarts", "refine_mode"),
        "data": ("source", "target", "gold", "max_vocab", "normalize_iterations",
                 "normalize"),
        "single_gan": ("epochs", "steps_per_epoch", "batch_size", "lr_generator",
                       "lr_discriminator", "beta", "smoothing",
                       "dis_freq_vocab", "dis_steps_per_gen_step", "dis_hidden",
                       "dis_dropout", "dis_leaky_slope", "criterion_vocab", "csls_k"),
        "clustering": ("level",),
        "multi": ("lambda_mode",),
        "refinement": ("max_iters", "vocab_limit"),
        "evaluation": ("per_subspace", "vocab_limit"),
    }

    def test_ini_surface(self, tmp_path):
        assert sum(len(keys) for keys in self.INI_SURFACE.values()) == 29
        default = PipelineConfig()
        settings = {"run": default, "data": default.data, "single_gan": default.single_gan,
                    "clustering": default.cluster, "multi": default.multi,
                    "refinement": default.refine, "evaluation": default.evaluation}
        assert settings.keys() == self.INI_SURFACE.keys()
        path = tmp_path / "one_key.ini"
        for section, obj in settings.items():
            values = {f.name: getattr(obj, f.name) for f in fields(obj)
                      if not is_dataclass(getattr(obj, f.name))}
            # every listed key is a field, so the table lists no deleted knob ...
            assert set(self.INI_SURFACE[section]) <= values.keys(), section
            for name, value in values.items():
                path.write_text(f"[{section}]\n{name} = {value}\n", encoding="utf-8")
                # ... and every field loads exactly when it is listed
                if name in self.INI_SURFACE[section]:
                    assert load_config(path) == default, (section, name)
                else:
                    with pytest.raises(ConfigError, match="unknown key"):
                        load_config(path)

    def test_derive_seed_is_stable_and_stage_specific(self):
        assert derive_seed(3, "cluster", "0") == derive_seed(3, "cluster", "0")
        assert derive_seed(3, "cluster", "0") != derive_seed(3, "multi_gan", "0")
        assert derive_seed(3, "cluster", "0") != derive_seed(4, "cluster", "0")

    def test_stages_for_modes(self, tmp_path, synth_dir):
        cfg = load_config(write_config(tmp_path, synth_dir))
        assert stages_for(cfg) == ("normalize", "single_gan", "cluster", "multi_gan",
                                   "refine", "induce_dict", "eval")
        assert stages_for(replace(cfg, refine_mode="single")) == (
            "normalize", "single_gan", "refine", "induce_dict", "eval")
        assert stages_for(replace(cfg, stop_after="single_gan")) == (
            "normalize", "single_gan")
        assert stages_for(replace(cfg, data=replace(cfg.data, gold=""))) == (
            "normalize", "single_gan", "cluster", "multi_gan", "refine", "induce_dict")
        with pytest.raises(ConfigError):
            stages_for(replace(cfg, stop_after="bogus"))

    def test_every_stage_function_is_in_the_table_once(self):
        functions = {name[len("stage_"):]: f for name, f in vars(pipeline).items()
                     if name.startswith("stage_")}
        assert {name: stage.run for name, stage in pipeline.STAGES.items()} == functions


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

    def test_manifest_lists_each_artifact_under_one_stage(self, tmp_path, synth_dir):
        cfg = load_config(write_config(tmp_path, synth_dir))
        out = tmp_path / "run"
        stages = run_pipeline(cfg, out).read_manifest()["stages"]
        listed = [a for stage in stages.values() for a in stage["artifacts"]]
        written = [str(p.relative_to(out)) for p in out.rglob("*")
                   if p.is_file() and p.name != "manifest.json"]
        assert sorted(listed) == sorted(written)
        assert "target_assignments.tsv" in stages["cluster"]["artifacts"]

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
        subspaces = len(stages["cluster"]["metrics"]["pair_sizes"])
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
        returned = {name: run_stage(run, cfg, name) for name in stages_for(cfg)}
        for artifact in sorted(p.relative_to(auto) for p in auto.rglob("*")
                               if p.is_file() and p.name != "manifest.json"):
            a = (auto / artifact).read_bytes()
            b = (manual / artifact).read_bytes()
            assert a == b, f"{artifact} differs between pipeline and subcommands"
        # the same stage records, each artifact list in the order written,
        # and each stage's metrics are what its function returned
        stages = manifest_without_timings(auto / "manifest.json")["stages"]
        assert stages == run.read_manifest()["stages"]
        assert json.loads(json.dumps(returned)) == {name: stage["metrics"]
                                                    for name, stage in stages.items()}

    def test_a_failed_stage_records_nothing_it_wrote(self, tmp_path, synth_dir, monkeypatch):
        def write_then_fail(run, cfg, seed):
            run.out("seed_dict.tsv").write_text("", encoding="utf-8")
            raise EmptyDictionaryError("forced")

        monkeypatch.setitem(pipeline.STAGES, "induce_dict",
                            pipeline.STAGES["induce_dict"]._replace(run=write_then_fail))
        cfg = load_config(write_config(tmp_path, synth_dir, refine_mode="single"))
        run = RunDir(tmp_path / "failed")
        for name in ("normalize", "single_gan", "refine"):
            run_stage(run, cfg, name)
        with pytest.raises(EmptyDictionaryError):
            run_stage(run, cfg, "induce_dict")
        assert "induce_dict" not in run.read_manifest()["stages"]
        run_stage(run, cfg, "eval")
        assert run.read_manifest()["stages"]["eval"]["artifacts"] == ["report.json", "report.txt"]

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
            kept = run.load(name, pipeline.load_embeddings, cfg.data.max_vocab)
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
            kept = run.load(name, pipeline.load_linear_map)
            assert kept.w.tobytes() == load_linear_map(run.path(name)).w.tobytes()
        assert map_loads == []

    def test_rewritten_map_is_parsed_again(self, tmp_path, map_loads):
        run = RunDir(tmp_path / "maps")
        run.keep("m.txt", save_linear_map(run.out("m.txt"), LinearMap(np.eye(3))))
        assert np.array_equal(run.load("m.txt", pipeline.load_linear_map).w, np.eye(3))
        assert map_loads == []
        # the same size on disk, so only the new modification time tells
        swapped = np.eye(3)[[1, 0, 2]]
        save_linear_map(run.path("m.txt"), LinearMap(swapped))
        st = run.path("m.txt").stat()
        os.utime(run.path("m.txt"), ns=(st.st_atime_ns, st.st_mtime_ns + 10 ** 9))
        assert np.array_equal(run.load("m.txt", pipeline.load_linear_map).w, swapped)
        assert map_loads == ["m.txt"]
        run.load("m.txt", pipeline.load_linear_map)
        assert map_loads == ["m.txt"]
        # a new RunDir, as each per-stage subcommand makes, parses from disk
        assert np.array_equal(RunDir(run.root).load("m.txt", pipeline.load_linear_map).w,
                              swapped)
        assert map_loads == ["m.txt", "m.txt"]

    def test_written_space_is_parsed_again_when_rewritten(self, tmp_path, monkeypatch):
        parsed = []

        def counting_load(path, max_vocab):
            parsed.append((Path(path).name, max_vocab))
            return load_embeddings(path, max_vocab)

        monkeypatch.setattr(pipeline, "load_embeddings", counting_load)
        run = RunDir(tmp_path / "spaces")
        words = ("a", "b", "c")
        run.keep("s.vec", save_embeddings(run.out("s.vec"), EmbeddingSpace(words, np.eye(3))), 3)
        assert np.array_equal(run.load("s.vec", pipeline.load_embeddings, 3).vectors, np.eye(3))
        assert parsed == []
        # fewer words than the file holds is a parse of the first ones
        assert run.load("s.vec", pipeline.load_embeddings, 2).words == ("a", "b")
        assert parsed == [("s.vec", 2)]
        # the same size on disk, so only the new modification time tells
        swapped = np.eye(3)[[1, 0, 2]]
        save_embeddings(run.path("s.vec"), EmbeddingSpace(words, swapped))
        st = run.path("s.vec").stat()
        os.utime(run.path("s.vec"), ns=(st.st_atime_ns, st.st_mtime_ns + 10 ** 9))
        assert np.array_equal(run.load("s.vec", pipeline.load_embeddings, 3).vectors, swapped)
        assert parsed == [("s.vec", 2), ("s.vec", 3)]
        run.load("s.vec", pipeline.load_embeddings, 3)
        assert parsed == [("s.vec", 2), ("s.vec", 3)]
        # a new RunDir, as each per-stage subcommand makes, parses from disk
        fresh = RunDir(run.root).load("s.vec", pipeline.load_embeddings, 3)
        assert np.array_equal(fresh.vectors, swapped)
        assert parsed == [("s.vec", 2), ("s.vec", 3), ("s.vec", 3)]

    def test_partition_files_written_in_process_are_not_parsed(self, tmp_path, synth_dir,
                                                               partition_loads):
        cfg = load_config(write_config(tmp_path, synth_dir))
        run = run_pipeline(cfg, tmp_path / "kept")
        assert partition_loads == []
        source, target = pipeline._load_normalized(run, cfg)
        # each kept array is what its file parses to
        for name, words in (("source_partition.tsv", source.words),
                            ("target_assignments.tsv", target.words)):
            assert np.array_equal(run.load(name, pipeline.load_assignments, words),
                                  load_assignments(run.path(name), words))
        centroids = run.load("source_centroids.txt", pipeline.load_matrix)
        assert centroids.tobytes() == load_matrix(run.path("source_centroids.txt")).tobytes()
        assert partition_loads == []
        # a new RunDir, as each per-stage subcommand makes, parses from disk
        fresh = RunDir(run.root)
        fresh.load("target_assignments.tsv", pipeline.load_assignments, target.words)
        fresh.load("source_centroids.txt", pipeline.load_matrix)
        assert partition_loads == ["target_assignments.tsv", "source_centroids.txt"]

    def test_rewritten_partition_file_is_parsed_again(self, tmp_path, partition_loads):
        run = RunDir(tmp_path / "ids")
        words = ("a", "b", "c")
        run.keep("p.tsv", save_assignments(run.out("p.tsv"), words, np.array([0, 1, 0])), words)
        run.keep("c.txt", save_matrix(run.out("c.txt"), np.eye(2)))
        assert np.array_equal(run.load("p.tsv", pipeline.load_assignments, words), [0, 1, 0])
        assert np.array_equal(run.load("c.txt", pipeline.load_matrix), np.eye(2))
        assert partition_loads == []
        # the same sizes on disk, so only the new modification times tell
        save_assignments(run.path("p.tsv"), words, np.array([1, 0, 1]))
        np.savetxt(run.path("c.txt"), np.eye(2)[::-1], fmt="%d", header="2 2", comments="")
        for name in ("p.tsv", "c.txt"):
            st = run.path(name).stat()
            os.utime(run.path(name), ns=(st.st_atime_ns, st.st_mtime_ns + 10 ** 9))
        assert np.array_equal(run.load("p.tsv", pipeline.load_assignments, words), [1, 0, 1])
        assert np.array_equal(run.load("c.txt", pipeline.load_matrix), np.eye(2)[::-1])
        assert partition_loads == ["p.tsv", "c.txt"]
        run.load("p.tsv", pipeline.load_assignments, words)
        run.load("c.txt", pipeline.load_matrix)
        assert partition_loads == ["p.tsv", "c.txt"]

    @pytest.mark.parametrize("refine_mode", ["global", "single"])
    def test_each_stage_reads_its_inputs_through_load(self, tmp_path, synth_dir, monkeypatch,
                                                      refine_mode):
        cfg = load_config(write_config(tmp_path, synth_dir, refine_mode=refine_mode))
        load, read = RunDir.load, []

        def spy(run, name, parse, *args):
            read.append(name)
            return load(run, name, parse, *args)

        monkeypatch.setattr(RunDir, "load", spy)
        reads = {}
        for name in stages_for(cfg):  # a new RunDir per stage, as each subcommand makes
            read.clear()
            run_stage(RunDir(tmp_path / "reads"), cfg, name)
            reads[name] = sorted(set(read))
        stages = RunDir(tmp_path / "reads").read_manifest()["stages"]
        spaces = ["source.norm.vec", "target.norm.vec"]
        partition = ["source_centroids.txt", "source_partition.tsv", "target_assignments.tsv"]

        def mapset(subdir, count):
            return [f"{subdir}/map_{i:03d}.txt" for i in range(count)] + [f"{subdir}/meta.json"]

        if refine_mode == "single":
            refine, final = ["single_map.txt"], mapset("final", 1)
            expected = {"normalize": [], "single_gan": spaces, "refine": refine + spaces,
                        "induce_dict": final + spaces, "eval": final + spaces}
        else:
            count = len(stages["multi_gan"]["metrics"]["lambdas"])
            final = mapset("final", count) + partition + spaces
            expected = {"normalize": [], "single_gan": spaces,
                        "cluster": ["single_map.txt"] + spaces,
                        "multi_gan": sorted(["single_map.txt"] + partition + spaces),
                        "refine": sorted(mapset("multi", count) + partition + spaces),
                        "induce_dict": sorted(final), "eval": sorted(final)}
        assert reads == expected

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
        _, _, pm = pipeline.load_final_mapping(run, *pipeline._load_normalized(run, cfg))
        assert len(pm.maps) == count
        for m, name in zip(pm.maps, maps):
            assert np.array_equal(m.w, load_linear_map(out / name).w)
        assert "p_at_1" in stages["eval"]["metrics"]

    def test_whole_vocabulary_report_removes_an_old_per_subspace_table(self, tmp_path,
                                                                       synth_dir):
        cfg_path = write_config(tmp_path, synth_dir)
        out = tmp_path / "eval"
        common = ["--config", str(cfg_path), "--out", str(out)]
        assert main(["pipeline", *common]) == 0
        assert (out / "per_subspace.tsv").exists()
        set_value(cfg_path, "evaluation", "per_subspace", "false")
        assert main(["eval-bli", *common]) == 0
        assert not (out / "per_subspace.tsv").exists()
        stages = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stages"]
        assert stages["eval"]["artifacts"] == ["report.json", "report.txt"]

    def test_single_rerun_ignores_an_earlier_runs_partition(self, tmp_path, synth_dir):
        cfg_path = write_config(tmp_path, synth_dir)
        out = tmp_path / "rerun"
        common = ["--config", str(cfg_path), "--out", str(out)]
        assert main(["pipeline", *common]) == 0
        assert (out / "per_subspace.tsv").exists()
        assert main(["pipeline", *common, "--refine", "single"]) == 0
        assert (out / "source_partition.tsv").exists()  # left by the global run
        assert not (out / "per_subspace.tsv").exists()
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert "per_subspace" not in report
        stages = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stages"]
        assert stages["eval"]["artifacts"] == ["report.json", "report.txt"]

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

    @pytest.mark.parametrize("name, command, damage", [
        ("manifest.json", ["pipeline", "--resume"], "truncate"),
        ("final/meta.json", ["eval-bli"], "truncate"),
        ("manifest.json", ["pipeline"], "list"),
        ("manifest.json", ["pipeline", "--resume"], "list"),
        ("final/meta.json", ["eval-bli"], "no count"),
        ("final/meta.json", ["eval-bli"], {"lambdas": None}),
        ("final/meta.json", ["eval-bli"], {"lambdas": "0.5"}),
        ("final/meta.json", ["eval-bli"], {"count": -1}),
        ("final/meta.json", ["eval-bli"], {"count": 0}),
        ("final/meta.json", ["eval-bli"], {"count": "2"}),
        ("final/meta.json", ["eval-bli"], {"count": 2.0}),
        ("final/meta.json", ["eval-bli"], {"kind": "bogus"}),
        ("final/meta.json", ["eval-bli"], {"kind": "single"}),
        ("manifest.json", ["pipeline"], {"stages": []}),
        ("manifest.json", ["pipeline", "--resume"], {"stages": []}),
        ("manifest.json", ["pipeline", "--resume"], {"stages": {"normalize": "ok"}}),
        ("manifest.json", ["pipeline"], {"timings": []}),
        ("manifest.json", ["pipeline", "--resume"],
         {"stages": {"normalize": {"status": "ok", "artifacts": 5}}}),
        ("manifest.json", ["pipeline", "--resume"],
         {"stages": {"normalize": {"status": "ok", "artifacts": ["source.norm.vec", 7]}}}),
    ], ids=["manifest.json-command0", "final/meta.json-command1", "manifest.json-list",
            "manifest.json-list-resume", "final/meta.json-no-count",
            "final/meta.json-no-lambdas", "final/meta.json-lambdas-string",
            "final/meta.json-count-negative", "final/meta.json-count-zero",
            "final/meta.json-count-string", "final/meta.json-count-float",
            "final/meta.json-kind-bogus", "final/meta.json-single-count-2",
            "manifest.json-stages-list", "manifest.json-stages-list-resume",
            "manifest.json-stage-string-resume", "manifest.json-timings-list",
            "manifest.json-artifacts-number-resume", "manifest.json-artifact-number-resume"])
    def test_truncated_json_is_a_parse_error(self, tmp_path, synth_dir, capsys, name,
                                             command, damage):
        cfg_path = write_config(tmp_path, synth_dir)
        out = tmp_path / "cut"
        common = ["--config", str(cfg_path), "--out", str(out)]
        assert main(["pipeline", *common]) == 0
        path = out / name
        text = path.read_bytes()
        if damage == "truncate":
            path.write_bytes(text[:len(text) // 2])
        elif damage == "list":
            path.write_text("[]\n", encoding="utf-8")
        else:  # set each key of the damage to its value, or delete it for None
            doc = json.loads(text)
            for key, value in ({"count": None} if damage == "no count" else damage).items():
                if value is None:
                    del doc[key]
                else:
                    doc[key] = value
            path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(command[:1] + common + command[1:]) == 1
        assert f"error: ParseError: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("names, damage, message", [
        (["final/meta.json", "source_partition.tsv"], "one lambda too few",
         "one lambda per subspace map required"),
        (["final/meta.json", "source_partition.tsv"], "count 1", "1 maps for 2 subspace ids"),
        (["source_partition.tsv", "source_centroids.txt"], "id gap",
         "cluster ids must be exactly 0..c-1"),
        (["target_assignments.tsv", "source_partition.tsv"], "target id 5",
         "target assignment outside the source partition's id range"),
        (["source_partition.tsv", "source_centroids.txt"], "one centroid",
         "1 centroids for 2 clusters"),
    ], ids=["lambdas", "count", "id-gap", "target-id", "centroids"])
    def test_run_files_that_disagree_name_the_files(self, tmp_path, synth_dir, capsys, names,
                                                    damage, message):
        cfg_path = write_config(tmp_path, synth_dir)
        out = tmp_path / "run"
        common = ["--config", str(cfg_path), "--out", str(out)]
        assert main(["pipeline", *common]) == 0
        assert json.loads((out / "final/meta.json").read_text(encoding="utf-8"))["count"] == 2

        def edit(name, change):
            path = out / name
            path.write_text(change(path.read_text(encoding="utf-8")), encoding="utf-8")

        def meta(key, value):
            return lambda text: json.dumps({**json.loads(text), key: value})

        if damage == "one lambda too few":
            edit("final/meta.json", meta("lambdas", [0.5]))
        elif damage == "count 1":
            edit("final/meta.json", meta("count", 1))
        elif damage == "id gap":
            edit("source_partition.tsv", lambda text: text.replace("\t1\n", "\t2\n"))
        elif damage == "target id 5":
            edit("target_assignments.tsv", lambda text: re.sub(r"\t\d+\n", "\t5\n", text, 1))
        else:  # keep the header's column count and the first row
            edit("source_centroids.txt",
                 lambda text: "1 " + text.split("\n")[0].split()[1] + "\n"
                              + text.split("\n")[1] + "\n")
        assert main(["eval-bli", *common]) == 1
        files = ", ".join(str(out / name) for name in names)
        assert capsys.readouterr().err == f"error: ParseError: {files}: {message}\n"


class TestRetry:
    @pytest.mark.parametrize("stage, error", [("induce_dict", EmptyDictionaryError),
                                              ("single_gan", TrainingFailedError)])
    def test_failure_without_retry_is_recorded(self, tmp_path, synth_dir, monkeypatch,
                                               stage, error):
        def failing(run, cfg, seed):
            raise error("forced")

        ran = []  # every stage call, in order: a typed failure stops the run
        for name, entry in list(pipeline.STAGES.items()):
            def counted(run, cfg, seed, name=name, call=failing if name == stage else entry.run):
                ran.append(name)
                return call(run, cfg, seed)

            monkeypatch.setitem(pipeline.STAGES, name, entry._replace(run=counted))
        cfg_path = write_config(tmp_path, synth_dir, refine_mode="single")
        out = tmp_path / "failed"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["failure_stage"] == stage
        assert manifest["failure"] == f"{error.__name__}: forced"
        order = list(stages_for(load_config(cfg_path)))
        assert ran == order[:order.index(stage) + 1]

    @pytest.mark.parametrize("driver", ["pipeline", "subcommand"])
    @pytest.mark.parametrize("name, text, stage, failure", [
        ("gold.tsv", "nothing\tnowhere\n", "eval",
         "EmptyEvaluationError: no gold entry is evaluable"),
        ("gold.tsv", None, "eval", "FileNotFoundError: [Errno 2]"),
        ("source.vec", None, "normalize", "FileNotFoundError: [Errno 2]"),
    ], ids=["gold-without-an-evaluable-entry", "gold-missing", "source-missing"])
    def test_both_drivers_record_a_failure(self, tmp_path, synth_dir, capsys, driver, name,
                                           text, stage, failure):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        out = tmp_path / "run"
        common = ["--config", str(write_config(tmp_path, data, refine_mode="single")),
                  "--out", str(out)]
        command = "pipeline" if driver == "pipeline" else pipeline.STAGES[stage].command
        if driver == "subcommand":  # the stage reads the files earlier stages wrote
            assert main(["pipeline", *common]) == 0
        path = data / name
        kept = path.read_bytes()
        if text is None:
            path.unlink()
        else:
            path.write_text(text, encoding="utf-8")

        def manifest():
            return json.loads((out / "manifest.json").read_text(encoding="utf-8"))

        assert main([command, *common]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert manifest()["failure_stage"] == stage
        assert manifest()["failure"].startswith(failure)
        # a later success of the stage drops the record
        path.write_bytes(kept)
        assert main([command, *common]) == 0
        assert "failure" not in manifest() and "failure_stage" not in manifest()
        assert stage in manifest()["stages"]

    def test_a_rerun_starts_a_new_manifest(self, tmp_path, synth_dir, monkeypatch):
        induce = pipeline.STAGES["induce_dict"]

        def failing(run, cfg, seed):
            raise EmptyDictionaryError("forced")

        cfg_path = write_config(tmp_path, synth_dir)
        out = tmp_path / "rerun"
        common = ["--config", str(cfg_path), "--out", str(out)]

        def manifest():
            return json.loads((out / "manifest.json").read_text(encoding="utf-8"))

        for rerun in (["pipeline"], ["pipeline", "--resume"]):
            monkeypatch.setitem(pipeline.STAGES, "induce_dict", induce._replace(run=failing))
            assert main(["pipeline", *common]) == 1
            assert manifest()["failure_stage"] == "induce_dict"
            monkeypatch.setitem(pipeline.STAGES, "induce_dict", induce)
            assert main(rerun[:1] + common + rerun[1:]) == 0
            doc = manifest()
            assert "failure" not in doc and "failure_stage" not in doc
            assert sorted(doc["stages"]) == sorted(doc["stage_order"])
        # a rerun that leaves stages out records none of the last run's
        assert main(["pipeline", *common, "--refine", "single"]) == 0
        assert sorted(manifest()["stages"]) == sorted(stages_for(
            replace(load_config(cfg_path), refine_mode="single")))


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
        def files(root):
            return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*")
                    if p.is_file() and p.name != "manifest.json"}

        # each subcommand parses its inputs from disk, while `pipeline` uses
        # the objects it kept when it wrote them: the bytes must not tell
        for mode in ("global", "local", "single"):
            cfg_path = write_config(tmp_path, synth_dir, refine_mode=mode)
            auto, out = tmp_path / f"pipeline_{mode}", tmp_path / f"cli_stages_{mode}"
            assert main(["pipeline", "--config", str(cfg_path), "--out", str(auto)]) == 0
            for name in stages_for(load_config(cfg_path)):
                command = pipeline.STAGES[name].command
                assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
            assert (out / "report.json").exists()
            assert files(out) == files(auto), mode
            stages = manifest_without_timings(auto / "manifest.json")["stages"]
            assert manifest_without_timings(out / "manifest.json")["stages"] == stages, mode

    def test_target_side_merge_same_by_pipeline_and_subcommands(self, tmp_path):
        # two far source clusters, and every target word a copy of a word
        # of the first, so the second gets no target words and is merged away
        g = np.random.default_rng(0)
        e0 = np.eye(6)[0]
        first = unit_rows(5 * e0 + g.normal(size=(40, 6)))
        second = unit_rows(-5 * e0 + g.normal(size=(40, 6)))
        save_embeddings(tmp_path / "source.vec",
                        EmbeddingSpace(tuple(f"s{i}" for i in range(80)),
                                       np.vstack([first, second])))
        save_embeddings(tmp_path / "target.vec",
                        EmbeddingSpace(tuple(f"t{i}" for i in range(40)), first))
        (tmp_path / "gold.tsv").write_text("".join(f"s{i}\tt{i}\n" for i in range(40)),
                                          encoding="utf-8")
        cfg_path = write_config(tmp_path, tmp_path)
        set_value(cfg_path, "data", "normalize", "false")
        auto, manual = tmp_path / "auto", tmp_path / "manual"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(auto)]) == 0
        for stage in pipeline.STAGES.values():
            assert main([stage.command, "--config", str(cfg_path), "--out", str(manual)]) == 0
        cluster = json.loads((auto / "manifest.json").read_text(encoding="utf-8")
                             )["stages"]["cluster"]["metrics"]
        assert cluster["clusters"] == 2 and cluster["merged_empty_clusters"] == [1]
        assert cluster["pair_sizes"] == [[80, 40]]
        files = sorted(p.relative_to(auto) for p in auto.rglob("*")
                       if p.is_file() and p.name != "manifest.json")
        assert files == sorted(p.relative_to(manual) for p in manual.rglob("*")
                               if p.is_file() and p.name != "manifest.json")
        for rel in files:
            assert (auto / rel).read_bytes() == (manual / rel).read_bytes(), rel
        words = tuple(f"s{i}" for i in range(80))
        assert set(load_assignments(auto / "source_partition.tsv", words)) == {0}

    def test_eval_bli_has_no_kmeans_flag(self, tmp_path, synth_dir, capsys):
        cfg_path = write_config(tmp_path, synth_dir)
        out = tmp_path / "kmeans"
        with pytest.raises(SystemExit) as exit_info:
            main(["eval-bli", "--config", str(cfg_path), "--out", str(out), "--kmeans", "3"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --kmeans 3" in capsys.readouterr().err
        assert not (out / "report.json").exists()
        assert not (out / "manifest.json").exists()

    def test_eval_bli_has_no_per_subspace_flag(self, tmp_path, synth_dir, capsys):
        # the per-subspace table is `[evaluation] per_subspace`, true by default
        cfg_path = write_config(tmp_path, synth_dir)
        out = tmp_path / "per_subspace"
        with pytest.raises(SystemExit) as exit_info:
            main(["eval-bli", "--config", str(cfg_path), "--out", str(out), "--per-subspace"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --per-subspace" in capsys.readouterr().err
        assert not out.exists()

    def test_every_stage_has_one_subcommand(self):
        commands = [stage.command for stage in pipeline.STAGES.values()]
        assert list(subcommand_help()) == ["pipeline", *commands, "synth-gen"]

    def test_subcommand_help_texts(self):
        assert subcommand_help() == {
            "pipeline": "run all configured stages in order",
            "normalize": "load, normalize and persist both embedding spaces",
            "train-single": "adversarial single-map training with random restarts",
            "cluster": "cluster the source space (FINCH) and align target subspaces",
            "train-multi": "per-subspace multi-discriminator training",
            "refine": "Procrustes refinement (mode from config or --refine)",
            "induce-dict": "export the bidirectional seed dictionary of the final map",
            "eval-bli": "precision-at-1 evaluation against the gold dictionary",
            "synth-gen": "write a synthetic piecewise-linear instance"}

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
        ("clustering", "level", "lats"),
        ("clustering", "level", "-1"),
        ("evaluation", "vocab_limit", "0"),
        # the per-subspace table groups by the run's own partition only
        ("evaluation", "kmeans_k", "3"),
        # NaN passes every range test and inf a positivity one
        ("single_gan", "lr_generator", "nan"),
        ("single_gan", "lr_discriminator", "inf"),
        ("single_gan", "beta", "inf"),
        # stage seeds derive from [run] seed alone
        ("single_gan", "seed", "123"),
        ("refinement", "seed", "77"),
        # both adversarial stages train on [single_gan]: no [multi_gan] section
        ("multi_gan", "seed", "5"),
        ("multi_gan", "epochs", "1"),
        # where a run stops is `pipeline --stage`, not a config key
        ("run", "stop_after", "normalize"),
        # a typed failure stops the run: no automatic rerun to budget
        ("run", "restart_budget", "2"),
        # text that is no int, or no boolean
        ("data", "max_vocab", "many"),
        ("data", "normalize", "maybe"),
        ("run", "refine_mode", "both"),
        ("run", "single_restarts", "0"),
        ("multi", "lambda_mode", "static"),
        ("multi", "lambda_fixed", "1.5"),
        ("single_gan", "batch_size", "0"),
        ("single_gan", "epochs", "-1"),
        ("single_gan", "lr_decay", "0"),
        ("single_gan", "beta", "0"),
        ("single_gan", "smoothing", "0.5"),
        ("single_gan", "dis_dropout", "1"),
        ("refinement", "max_iters", "0"),
        # published constants of CSLS (MUSE) and of stochastic induction
        # (VecMap), not keys: unknown at any value, their old defaults included
        ("clustering", "min_cluster_size", "0"),
        ("clustering", "min_cluster_size", "-1"),
        ("clustering", "align_csls_k", "10"),
        ("clustering", "align_csls_k", "0"),
        ("refinement", "csls_k", "10"),
        ("evaluation", "csls_k", "10"),
        ("evaluation", "csls_k", "0"),
        ("refinement", "p0", "0.1"),
        ("refinement", "p0", "0"),
        ("refinement", "multiplier", "2.0"),
        ("refinement", "multiplier", "1"),
        ("refinement", "multiplier", "nan"),
        ("refinement", "threshold", "1e-6"),
        ("refinement", "threshold", "nan"),
        # MUSE's per-epoch decay is `gan._LR_DECAY`, not a key
        ("single_gan", "lr_decay", "0.98"),
        # one key sets lambda: dynamic, or the fixed value itself
        ("multi", "lambda_fixed", "0.5"),
        ("multi", "lambda_mode", "fixed"),
        ("multi", "lambda_mode", "1.5"),
        ("multi", "lambda_mode", "nan"),
        # a level index is valid or not depending on the data, so there is none
        ("clustering", "level", "0"),
    ])
    def test_bad_value_exits_at_config_load(self, tmp_path, synth_dir, capsys, section, key,
                                            value):
        cfg_path = set_value(write_config(tmp_path, synth_dir), section, key, value)
        out = tmp_path / "x"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        # the message names the key, or an unknown section
        assert err.startswith("config error: ")
        assert (f"[{section}]" if section == "multi_gan" else key) in err

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

    @pytest.mark.parametrize("refine_mode", ["single", "global"])
    def test_token_with_a_tab_fails_at_normalize(self, tmp_path, synth_dir, capsys,
                                                 refine_mode):
        # seed_dict.tsv separates its columns with tabs, so no token may hold one
        lines = (synth_dir / "source.vec").read_text(encoding="utf-8").splitlines()
        lines[5] = "x\ty " + lines[5].split(" ", 1)[1]
        data = tmp_path / "data"
        data.mkdir()
        (data / "source.vec").write_text("\n".join(lines) + "\n", encoding="utf-8")
        shutil.copy(synth_dir / "target.vec", data / "target.vec")
        shutil.copy(synth_dir / "gold.tsv", data / "gold.tsv")
        cfg_path = write_config(tmp_path, data, refine_mode=refine_mode)
        out = tmp_path / "tab"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "error: ParseError: token 'x\\ty' contains whitespace" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["failure_stage"] == "normalize"
        assert not (out / "single_map.txt").exists()

    @pytest.mark.parametrize("name, command, stage", [
        ("run.ini", ["pipeline"], None),
        ("source.vec", ["pipeline"], "normalize"),
        ("gold.tsv", ["pipeline", "--refine", "single"], "eval"),
        ("source_partition.tsv", ["eval-bli"], None),
        ("source_centroids.txt", ["eval-bli"], None),
    ], ids=["config", "embeddings", "gold", "partition", "centroids"])
    def test_input_that_is_not_utf8_names_the_file(self, tmp_path, synth_dir, capsys, name,
                                                   command, stage):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "run"
        common = ["--config", str(cfg_path), "--out", str(out)]
        if command[0] != "pipeline":  # a run directory's file, read by a stage subcommand
            assert main(["pipeline", *common]) == 0
        path = next(p for p in (tmp_path / name, data / name, out / name) if p.exists())
        lines = path.read_bytes().split(b"\n")
        lines[1] = b"\xe9" + lines[1]  # the first byte of a token, or of a section header
        path.write_bytes(b"\n".join(lines))
        rc = main(command[:1] + common + command[1:])
        err = capsys.readouterr().err
        assert rc == (2 if name == "run.ini" else 1)
        assert f"{path}: not UTF-8 text (byte 0xe9: " in err
        if name == "run.ini":
            assert err.startswith("config error: ") and not out.exists()
        if stage:
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            assert manifest["failure_stage"] == stage
            assert manifest["failure"].startswith(f"ParseError: {path}: not UTF-8 text")

    @pytest.mark.parametrize("flag, value", [("--separation", "inf"),
                                             ("--noise-sigma", "nan")])
    def test_synth_gen_rejects_non_finite_parameters(self, tmp_path, flag, value):
        out = tmp_path / "synth"
        rc = main(["synth-gen", "--out", str(out), "--clusters", "2", "--per-cluster", "5",
                   "--dim", "3", flag, value])
        assert rc == 2
        assert not (out / "source.vec").exists()

    def test_synth_gen_rejects_a_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "synth"
        rc = main(["synth-gen", "--out", str(out), "--clusters", "2", "--per-cluster", "5",
                   "--dim", "3", "--seed", "-1"])
        assert rc == 2
        assert "config error: seed must be >= 0" in capsys.readouterr().err
        assert not (out / "source.vec").exists()

    def test_align_is_no_stage(self, tmp_path, synth_dir, capsys):
        # the cluster stage writes the target assignments itself
        cfg_path = write_config(tmp_path, synth_dir)
        out = tmp_path / "align"
        common = ["--config", str(cfg_path), "--out", str(out)]
        with pytest.raises(SystemExit) as exit_info:
            main(["align-subspaces", *common])
        assert exit_info.value.code == 2
        assert main(["pipeline", *common, "--stage", "align"]) == 2
        assert "stop_after names unknown or skipped stage 'align'" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_stage_not_in_configuration_rejected(self, tmp_path, synth_dir, capsys):
        (tmp_path / "single").mkdir()
        (tmp_path / "no_gold").mkdir()
        single = write_config(tmp_path / "single", synth_dir, refine_mode="single")
        no_gold = set_value(write_config(tmp_path / "no_gold", synth_dir), "data", "gold", "")
        for cfg_path, command, stage in [(single, "cluster", "cluster"),
                                         (single, "train-multi", "multi_gan"),
                                         (no_gold, "eval-bli", "eval")]:
            message = f"stage {stage!r} is not part of this configuration"
            run = RunDir(tmp_path / f"direct_{stage}")
            with pytest.raises(ConfigError, match=message):
                run_stage(run, load_config(cfg_path), stage)
            out = tmp_path / command
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"
            assert not run.manifest_path().exists()
            assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("setting, command, message", [
        (("data", "gold", ""), ["eval-bli"], "stage 'eval'"),
        (("run", "refine_mode", "single"), ["cluster"], "stage 'cluster'"),
        (("run", "refine_mode", "single"), ["train-multi"], "stage 'multi_gan'"),
        (None, ["pipeline", "--stage", "bogus"], "stage 'bogus'"),
        (None, ["pipeline", "--stage", "align"], "stage 'align'"),
        (("data", "source", ""), ["normalize"], "data.source and data.target"),
    ], ids=["eval-bli-without-gold", "cluster-single", "train-multi-single",
            "pipeline-stage-bogus", "pipeline-stage-align", "normalize-without-source"])
    def test_refused_command_writes_nothing(self, tmp_path, synth_dir, capsys, setting,
                                            command, message):
        cfg_path = write_config(tmp_path, synth_dir)
        if setting:
            set_value(cfg_path, *setting)
        out = tmp_path / "refused"
        assert main(command[:1] + ["--config", str(cfg_path), "--out", str(out)]
                    + command[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out.exists()

    def test_flag_overrides(self, tmp_path, synth_dir):
        cfg_path = write_config(tmp_path, synth_dir)
        out = tmp_path / "override"
        rc = main(["pipeline", "--config", str(cfg_path), "--out", str(out),
                   "--seed", "99", "--refine", "single", "--stage", "single_gan"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["master_seed"] == 99
        assert set(manifest["stages"]) == {"normalize", "single_gan"}
        overridden = replace(load_config(cfg_path), seed=99, refine_mode="single")
        assert manifest["config_hash"] == config_digest(overridden)

    @pytest.mark.parametrize("flag, value", [("--restarts", "2"), ("--level", "last")])
    def test_config_copies_are_no_flags(self, tmp_path, synth_dir, capsys, flag, value):
        # `[run] single_restarts` and `[clustering] level` are set in the config only
        cfg_path = write_config(tmp_path, synth_dir)
        out = tmp_path / "flag"
        with pytest.raises(SystemExit) as exit_info:
            main(["pipeline", "--config", str(cfg_path), "--out", str(out), flag, value])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()


class TestReadmeRecipes:
    """README's code blocks are the experiment recipes, so they must run."""

    TEXT = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", TEXT, re.M | re.S)

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

    def test_minimal_config_lists_every_key(self):
        # with the test above: every key a config may set, at its default
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read_string(next(body for lang, body in self.BLOCKS if lang == "ini"))
        assert ({section: set(parser[section]) for section in parser.sections()}
                == {section: set(keys) for section, keys in TestConfig.INI_SURFACE.items()})

    def test_shared_flags_sentence_lists_the_parsers_flags(self):
        def flags(command):
            return [s for a in subparsers().choices[command]._actions for s in a.option_strings
                    if s != "--help" and s.startswith("--")]

        sentence = re.search(r"^Shared flags: (.*?)Exit codes", self.TEXT, re.M | re.S).group(1)
        shared, added = sentence.split("`pipeline` adds")
        common = flags("normalize")
        assert re.findall(r"`(--[\w-]+)", shared) == common
        assert re.findall(r"`(--[\w-]+)", added) == [f for f in flags("pipeline")
                                                     if f not in common]
        for stage in pipeline.STAGES.values():
            assert flags(stage.command) == common, stage.command

    def test_every_command_line_parses(self):
        commands = [shlex.split(line, comments=True)
                    for _, body in self.BLOCKS
                    for line in body.replace("\\\n", " ").splitlines()
                    if line.startswith("submap ")]
        assert len(commands) >= 7
        for argv in commands:
            build_parser().parse_args(argv[1:])
