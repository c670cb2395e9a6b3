"""End-to-end pipeline runs on a tiny topical corpus: config handling,
stage caching, determinism, and resume behavior."""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import pytest

import lha.pipeline
from lha import __version__
from lha.pipeline import (
    PipelineConfig,
    PipelineStageError,
    run_pipeline,
    validate_config,
)
from lha.sent_align import read_groups
from conftest import _TOY_VECTORS, write_jsonl, write_vectors

ALL_STAGES = [
    "embed_docs_src", "embed_docs_tgt", "align_docs",
    "embed_sents_src", "embed_sents_tgt", "align_sents", "summary",
]

OUTPUT_FILES = [
    "docs_source.lhae", "docs_target.lhae",
    "doc_pairs.tsv", "sents_source.lhae", "sents_target.lhae",
    "groups.jsonl", "groups.tsv", "align_stats.json", "summary.json",
]


def make_workspace(root: Path, out_name: str = "out") -> PipelineConfig:
    write_jsonl(root / "source.jsonl", [
        {"id": "s1", "sentences": ["The cat sat.", "An apple fell."]},
        {"id": "s2", "sentences": ["Rain is coming."]},
    ])
    write_jsonl(root / "target.jsonl", [
        {"id": "t1", "sentences": ["A kitten sat.", "A banana fell."]},
        {"id": "t2", "sentences": ["The storm rain came."]},
    ])
    write_vectors(root / "vectors.txt", _TOY_VECTORS)
    return PipelineConfig(
        source_corpus=str(root / "source.jsonl"),
        target_corpus=str(root / "target.jsonl"),
        out_dir=str(root / out_name),
        word_vectors=str(root / "vectors.txt"),
        k_doc=2,
        k_sent=2,
        theta_d=0.3,
        theta_s=0.6,
        min_overlap=0.2,
    )


class TestConfigFile:
    def test_from_file(self, tmp_path) -> None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "source_corpus": "a.jsonl", "target_corpus": "b.jsonl",
            "out_dir": "out", "k_doc": 3,
        }), encoding="utf-8")
        config = PipelineConfig.from_file(path)
        assert config.k_doc == 3
        assert config.scorer == "cosine"

    def test_unknown_key_rejected(self, tmp_path) -> None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "source_corpus": "a", "target_corpus": "b", "out_dir": "o",
            "theta_sent": 0.5,
        }), encoding="utf-8")
        with pytest.raises(ValueError, match="theta_sent"):
            PipelineConfig.from_file(path)

    def test_removed_index_keys_rejected(self, tmp_path) -> None:
        # Keys of the deleted tree forest fail loudly instead of being ignored.
        for key in ("seed", "trees", "leaf_size", "search_k"):
            path = tmp_path / "config.json"
            path.write_text(json.dumps({
                "source_corpus": "a", "target_corpus": "b", "out_dir": "o", key: 1,
            }), encoding="utf-8")
            with pytest.raises(ValueError, match=key):
                PipelineConfig.from_file(path)

    def test_removed_normalize_key_rejected(self, tmp_path) -> None:
        # Embeddings are always unit-normalized; the old switch fails loudly.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "source_corpus": "a", "target_corpus": "b", "out_dir": "o",
            "normalize": False,
        }), encoding="utf-8")
        with pytest.raises(ValueError, match="normalize"):
            PipelineConfig.from_file(path)

    def test_missing_required_keys(self, tmp_path) -> None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"source_corpus": "a"}), encoding="utf-8")
        with pytest.raises(ValueError, match="target_corpus"):
            PipelineConfig.from_file(path)

    def test_non_object_rejected(self, tmp_path) -> None:
        path = tmp_path / "config.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValueError, match="JSON object"):
            PipelineConfig.from_file(path)


class TestOverrides:
    def base(self) -> PipelineConfig:
        return PipelineConfig(source_corpus="a", target_corpus="b", out_dir="o")

    def test_type_coercion(self) -> None:
        config = self.base().with_overrides(
            ["k_doc=7", "theta_s=0.55", "emit_tsv=false", "scorer=overlap"]
        )
        assert config.k_doc == 7
        assert config.theta_s == 0.55
        assert config.emit_tsv is False
        assert config.scorer == "overlap"

    def test_null_for_optional(self) -> None:
        config = self.base().with_overrides(["word_vectors=null"])
        assert config.word_vectors is None

    def test_null_for_required_rejected(self) -> None:
        with pytest.raises(ValueError, match="cannot be null"):
            self.base().with_overrides(["k_doc=null"])

    def test_unknown_key(self) -> None:
        with pytest.raises(ValueError, match="unknown config key"):
            self.base().with_overrides(["nope=1"])

    def test_missing_equals(self) -> None:
        with pytest.raises(ValueError, match="key=value"):
            self.base().with_overrides(["k_doc"])

    def test_bad_number(self) -> None:
        with pytest.raises(ValueError, match="number"):
            self.base().with_overrides(["k_doc=three"])

    def test_bad_boolean(self) -> None:
        with pytest.raises(ValueError, match="boolean"):
            self.base().with_overrides(["emit_tsv=maybe"])


class TestValidateConfig:
    def test_workspace_config_has_no_errors(self, tmp_path) -> None:
        findings = validate_config(make_workspace(tmp_path))
        assert [m for level, m in findings if level == "error"] == []

    def errors_of(self, config: PipelineConfig) -> str:
        return "; ".join(m for level, m in validate_config(config) if level == "error")

    def test_range_errors(self, tmp_path) -> None:
        config = make_workspace(tmp_path)
        assert "k_doc" in self.errors_of(dataclasses.replace(config, k_doc=0))
        assert "scorer" in self.errors_of(dataclasses.replace(config, scorer="fuzzy"))
        assert "theta_s" in self.errors_of(dataclasses.replace(config, theta_s=2.0))
        assert "NaN" in self.errors_of(dataclasses.replace(config, theta_d=float("nan")))
        assert "min_overlap" in self.errors_of(
            dataclasses.replace(config, min_overlap=1.5)
        )
        assert "filter_stage" in self.errors_of(
            dataclasses.replace(config, filter_stage="later")
        )

    def test_missing_vectors_per_scorer(self, tmp_path) -> None:
        config = dataclasses.replace(make_workspace(tmp_path), word_vectors=None)
        assert "word_vectors" in self.errors_of(config)

    def test_precomputed_needs_paths(self, tmp_path) -> None:
        config = dataclasses.replace(
            make_workspace(tmp_path), doc_strategy="precomputed"
        )
        assert "doc_embeddings_source" in self.errors_of(config)

    def test_out_dir_collision(self, tmp_path) -> None:
        config = make_workspace(tmp_path)
        config = dataclasses.replace(config, out_dir=config.source_corpus)
        assert "output directory" in self.errors_of(config)

    def test_self_alignment_warns(self, tmp_path) -> None:
        config = make_workspace(tmp_path)
        config = dataclasses.replace(config, target_corpus=config.source_corpus)
        warnings = [m for level, m in validate_config(config) if level == "warning"]
        assert any("self-alignment" in m for m in warnings)

    def test_low_cosine_threshold_warns(self, tmp_path) -> None:
        config = dataclasses.replace(make_workspace(tmp_path), theta_s=0.1)
        warnings = [m for level, m in validate_config(config) if level == "warning"]
        assert any("theta_s" in m for m in warnings)


def out_bytes(out_dir: Path, names=OUTPUT_FILES) -> dict[str, bytes]:
    return {name: (out_dir / name).read_bytes() for name in names}


class TestRunPipeline:
    def test_end_to_end(self, tmp_path) -> None:
        config = make_workspace(tmp_path)
        summary = run_pipeline(config)
        assert summary.summary["documents"] == {"source": 2, "target": 2}
        assert summary.summary["sentences"] == {"source": 3, "target": 3}
        assert summary.summary["doc_pairs"] == 2
        assert summary.summary["groups"] == 3
        assert summary.cached_stages == []
        out_dir = Path(config.out_dir)
        for name in OUTPUT_FILES + ["manifest.json"]:
            assert (out_dir / name).exists(), name
        texts = {
            (g.source_text, g.target_text)
            for g in read_groups(out_dir / "groups.jsonl")
        }
        assert texts == {
            ("The cat sat.", "A kitten sat."),
            ("An apple fell.", "A banana fell."),
            ("Rain is coming.", "The storm rain came."),
        }

    def test_summary_serialization(self, tmp_path) -> None:
        summary = run_pipeline(make_workspace(tmp_path))
        plain = summary.to_dict()
        assert "cached_stages" not in plain
        assert plain["groups"] == 3
        assert "cached_stages" in summary.to_dict(include_runtime=True)
        assert summary.to_json() == summary.to_json()

    def test_rerun_is_fully_cached(self, tmp_path) -> None:
        config = make_workspace(tmp_path)
        run_pipeline(config)
        before = out_bytes(Path(config.out_dir))
        second = run_pipeline(config)
        assert sorted(second.cached_stages) == sorted(ALL_STAGES)
        assert out_bytes(Path(config.out_dir)) == before

    def test_fresh_runs_are_byte_identical(self, tmp_path) -> None:
        config1 = make_workspace(tmp_path, out_name="out1")
        config2 = dataclasses.replace(config1, out_dir=str(tmp_path / "out2"))
        run_pipeline(config1)
        run_pipeline(config2)
        names = OUTPUT_FILES + ["manifest.json"]
        assert out_bytes(Path(config1.out_dir), names) == out_bytes(
            Path(config2.out_dir), names
        )

    def test_source_change_recomputes_only_dependents(self, tmp_path) -> None:
        config = make_workspace(tmp_path)
        run_pipeline(config)
        records = [
            json.loads(line)
            for line in Path(config.source_corpus).read_text("utf-8").splitlines()
        ]
        records.append({"id": "s3", "sentences": ["A puppy ran."]})
        write_jsonl(Path(config.source_corpus), records)
        second = run_pipeline(config)
        assert "embed_docs_src" not in second.cached_stages
        assert "align_docs" not in second.cached_stages
        assert "align_sents" not in second.cached_stages
        assert "embed_docs_tgt" in second.cached_stages
        assert "embed_sents_tgt" in second.cached_stages

    def test_param_change_recomputes_alignment_only(self, tmp_path) -> None:
        config = make_workspace(tmp_path)
        run_pipeline(config)
        tightened = dataclasses.replace(config, theta_s=0.995)
        second = run_pipeline(tightened)
        assert "align_sents" not in second.cached_stages
        for stage in ("embed_docs_src", "embed_docs_tgt", "align_docs",
                      "embed_sents_src", "embed_sents_tgt"):
            assert stage in second.cached_stages
        # the apple/banana pair scores ~0.994 and falls below the new cut
        assert second.summary["groups"] == 2

    def test_resume_after_deleting_intermediate(self, tmp_path) -> None:
        config = make_workspace(tmp_path)
        run_pipeline(config)
        out_dir = Path(config.out_dir)
        before = out_bytes(out_dir)
        (out_dir / "groups.jsonl").unlink()
        (out_dir / "doc_pairs.tsv").unlink()
        second = run_pipeline(config)
        assert "align_docs" not in second.cached_stages
        assert "align_sents" not in second.cached_stages
        assert "embed_docs_src" in second.cached_stages
        assert out_bytes(out_dir) == before

    def test_corrupt_manifest_recomputes(self, tmp_path) -> None:
        config = make_workspace(tmp_path)
        run_pipeline(config)
        out_dir = Path(config.out_dir)
        before = out_bytes(out_dir)
        (out_dir / "manifest.json").write_text("{broken", encoding="utf-8")
        second = run_pipeline(config)
        assert second.cached_stages == []
        assert out_bytes(out_dir) == before

    def test_invalid_config_refused(self, tmp_path) -> None:
        config = dataclasses.replace(make_workspace(tmp_path), theta_s=5.0)
        with pytest.raises(ValueError, match="invalid config"):
            run_pipeline(config)

    def test_stage_failure_names_stage(self, tmp_path) -> None:
        bad = tmp_path / "exclude.tsv"
        bad.write_text("onlyonefield\n", encoding="utf-8")
        config = dataclasses.replace(
            make_workspace(tmp_path), exclusion_file=str(bad)
        )
        with pytest.raises(PipelineStageError, match="align_sents") as excinfo:
            run_pipeline(config)
        assert excinfo.value.stage == "align_sents"

    def test_emit_tsv_off(self, tmp_path) -> None:
        config = dataclasses.replace(make_workspace(tmp_path), emit_tsv=False)
        summary = run_pipeline(config)
        assert not (Path(config.out_dir) / "groups.tsv").exists()
        assert "groups_tsv" not in summary.outputs

    @pytest.mark.parametrize("scorer", ["overlap", "bm25", "wmd", "rwmd"])
    def test_word_count_and_transport_scorers(self, tmp_path, scorer) -> None:
        config = dataclasses.replace(
            make_workspace(tmp_path, out_name=f"out_{scorer}"),
            scorer=scorer,
            theta_s=0.1,
        )
        summary = run_pipeline(config)
        assert summary.summary["groups"] >= 1
        rerun = run_pipeline(config)
        assert "align_sents" in rerun.cached_stages
        assert "embed_sents_src" not in rerun.cached_stages


def undo_renames(text: str, renames: dict[str, str]) -> str:
    """Map renamed target ids back to their shared ids in an output file."""
    for shared, renamed in renames.items():
        for template in ('"{}#', '"{}"', "\t{}\t"):
            text = text.replace(template.format(renamed), template.format(shared))
    return text


class TestSharedIds:
    """English and Simple Wikipedia articles often share an id. A run on
    corpora that share ids must equal the run with the target renamed."""

    def run_pair(self, tmp_path, source, target, renames, **overrides):
        """Run on ``target`` as given and with its ids renamed by
        ``renames`` (shared id -> new id); return the shared run's groups."""
        config = dataclasses.replace(make_workspace(tmp_path), **overrides)
        write_jsonl(Path(config.source_corpus), source)
        renamed_target = [{**r, "id": renames.get(r["id"], r["id"])} for r in target]
        out = {}
        for name, records in (("shared", target), ("renamed", renamed_target)):
            corpus = write_jsonl(tmp_path / f"target_{name}.jsonl", records)
            out[name] = tmp_path / name
            run_pipeline(dataclasses.replace(
                config, target_corpus=str(corpus), out_dir=str(out[name])
            ))
        for name in ("groups.jsonl", "groups.tsv", "doc_pairs.tsv"):
            assert (out["shared"] / name).read_text("utf-8") == undo_renames(
                (out["renamed"] / name).read_text("utf-8"), renames
            ), name
        assert json.loads((out["shared"] / "summary.json").read_text("utf-8")) == (
            json.loads((out["renamed"] / "summary.json").read_text("utf-8"))
        )
        return read_groups(out["shared"] / "groups.jsonl")

    def test_cat_dog_not_scored_with_source_rows(self, tmp_path) -> None:
        # Scored with the source row of the same id, target A#0 "Rain and
        # snow." looked identical to source A#0 and was emitted at 1.0.
        groups = self.run_pair(
            tmp_path,
            [{"id": "A", "sentences": ["The cat and the dog.", "Rain and snow."]}],
            [{"id": "A", "sentences": ["Rain and snow.", "The cat and the dog."]}],
            {"A": "B"},
            k_doc=1, k_sent=1, min_overlap=0.0,
        )
        assert sorted((g.source_text, g.target_text) for g in groups) == [
            ("Rain and snow.", "Rain and snow."),
            ("The cat and the dog.", "The cat and the dog."),
        ]
        assert [g.score for g in groups] == pytest.approx([1.0, 1.0])

    def test_workspace_with_source_ids_on_target(self, tmp_path) -> None:
        source = [
            {"id": "s1", "sentences": ["The cat sat.", "An apple fell."]},
            {"id": "s2", "sentences": ["Rain is coming."]},
        ]
        # target s2 is the pets+food article and s1 the weather one, so each
        # shared id names a different article on each side
        target = [
            {"id": "s2", "sentences": ["A kitten sat.", "A banana fell."]},
            {"id": "s1", "sentences": ["The storm rain came."]},
        ]
        groups = self.run_pair(tmp_path, source, target, {"s2": "t1", "s1": "t2"})
        assert {(g.source_text, g.target_text) for g in groups} == {
            ("The cat sat.", "A kitten sat."),
            ("An apple fell.", "A banana fell."),
            ("Rain is coming.", "The storm rain came."),
        }


class TestToolVersion:
    def test_stage_records_carry_version(self, tmp_path) -> None:
        config = make_workspace(tmp_path)
        run_pipeline(config)
        manifest = json.loads((Path(config.out_dir) / "manifest.json").read_text("utf-8"))
        assert {r["tool_version"] for r in manifest["stages"].values()} == {__version__}

    @pytest.mark.parametrize("stage", ["embed_docs_tgt", "align_sents"])
    def test_version_mismatch_recomputes_that_stage(self, tmp_path, stage) -> None:
        # Outputs recomputed by the same code hash the same, so the stages
        # that read them stay cached: exactly the edited stage recomputes.
        config = make_workspace(tmp_path)
        run_pipeline(config)
        out_dir = Path(config.out_dir)
        before = out_bytes(out_dir)
        manifest_path = out_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text("utf-8"))
        manifest["stages"][stage]["tool_version"] = "0.1.0"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        second = run_pipeline(config)
        assert sorted(second.cached_stages) == sorted(set(ALL_STAGES) - {stage})
        assert out_bytes(out_dir) == before
        manifest = json.loads(manifest_path.read_text("utf-8"))
        assert manifest["stages"][stage]["tool_version"] == __version__

    def test_record_without_version_recomputes(self, tmp_path) -> None:
        config = make_workspace(tmp_path)
        run_pipeline(config)
        manifest_path = Path(config.out_dir) / "manifest.json"
        manifest = json.loads(manifest_path.read_text("utf-8"))
        for record in manifest["stages"].values():
            del record["tool_version"]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        assert run_pipeline(config).cached_stages == []


class TestParseOnce:
    @pytest.mark.parametrize("scorer", ["cosine", "wmd"])
    def test_each_corpus_parsed_once_per_run(self, tmp_path, monkeypatch, scorer) -> None:
        config = dataclasses.replace(make_workspace(tmp_path), scorer=scorer)
        parsed: list[str] = []
        load_corpus = lha.pipeline.load_corpus

        def counting(path, *args, **kwargs):
            parsed.append(Path(path).name)
            return load_corpus(path, *args, **kwargs)

        monkeypatch.setattr(lha.pipeline, "load_corpus", counting)
        run_pipeline(config)
        assert sorted(parsed) == ["source.jsonl", "target.jsonl"]
        parsed.clear()
        assert sorted(run_pipeline(config).cached_stages) == sorted(
            s for s in ALL_STAGES if scorer == "cosine" or not s.startswith("embed_sents")
        )
        assert parsed == []


class TestHashOnce:
    def test_each_file_hashed_once_per_run(self, tmp_path, monkeypatch) -> None:
        config = make_workspace(tmp_path)
        hashed: list[str] = []
        sha256 = lha.pipeline._sha256

        def counting(path):
            hashed.append(Path(path).name)
            return sha256(path)

        monkeypatch.setattr(lha.pipeline, "_sha256", counting)
        inputs = ["source.jsonl", "target.jsonl", "vectors.txt"]
        for expected_cached in ([], ALL_STAGES):
            hashed.clear()
            assert sorted(run_pipeline(config).cached_stages) == sorted(expected_cached)
            assert sorted(hashed) == sorted(inputs + OUTPUT_FILES)


class TestAtomicManifest:
    def test_failed_rename_keeps_previous_manifest(self, tmp_path, monkeypatch) -> None:
        config = make_workspace(tmp_path)
        run_pipeline(config)
        out_dir = Path(config.out_dir)
        manifest_path = out_dir / "manifest.json"
        before = manifest_path.read_bytes()
        (out_dir / "summary.json").unlink()
        renames: list[str] = []

        def killed(src, dst):
            renames.append(Path(dst).name)
            raise OSError("killed mid-save")

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(OSError, match="killed"):
            run_pipeline(config)
        monkeypatch.undo()
        assert renames == ["manifest.json"]
        assert manifest_path.read_bytes() == before
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            OUTPUT_FILES + ["manifest.json"]
        )
        assert sorted(run_pipeline(config).cached_stages) == sorted(ALL_STAGES)
