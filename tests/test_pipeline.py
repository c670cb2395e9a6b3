"""End-to-end pipeline runs on a tiny topical corpus: config handling,
stage caching, determinism, and resume behavior."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import lha.corpus
import lha.pipeline
import lha.sent_align
from lha import __version__
from lha.pipeline import (
    PipelineConfig,
    PipelineStageError,
    run_pipeline,
    validate_config,
)
from lha.doc_align import DocPair, read_doc_pairs
from lha.embeddings import load_word_vectors
from lha.sent_align import align_sentences, read_groups
from conftest import _TOY_VECTORS, child_env, write_jsonl, write_vectors

ALL_STAGES = [
    "embed_docs_src", "embed_docs_tgt", "align_docs",
    "embed_sents_src", "embed_sents_tgt", "align_sents",
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

    @pytest.mark.parametrize("key, value", [
        ("theta_s", "0.7"), ("k_doc", 2.5), ("emit_tsv", "false"),
        ("k_sent", True), ("min_overlap", False), ("scorer", None),
        ("word_vectors", 3), ("out_dir", None),
    ])
    def test_value_of_wrong_type_rejected(self, tmp_path, key, value) -> None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "source_corpus": "a", "target_corpus": "b", "out_dir": "o", key: value,
        }), encoding="utf-8")
        with pytest.raises(ValueError, match=f"config.json: config key '{key}'"):
            PipelineConfig.from_file(path)

    def test_value_types_accepted(self, tmp_path) -> None:
        # An int stands for a float, and an optional key may be null.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "source_corpus": "a", "target_corpus": "b", "out_dir": "o",
            "theta_s": 1, "bm25_b": 0.5, "k_doc": 3, "emit_tsv": False,
            "word_vectors": None, "scorer": "wmd",
        }), encoding="utf-8")
        config = PipelineConfig.from_file(path)
        assert (config.theta_s, config.bm25_b, config.k_doc) == (1, 0.5, 3)
        assert (config.emit_tsv, config.word_vectors, config.scorer) == (False, None, "wmd")


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

    @staticmethod
    def placeholders(monkeypatch, root: Path, *names: str) -> None:
        """Create the named input files in ``root`` and work from there:
        validate_config reports a missing input file."""
        monkeypatch.chdir(root)
        for name in names:
            (root / name).touch()

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

    def test_precomputed_needs_paths(self, tmp_path, monkeypatch) -> None:
        # A level is read from files when both of its paths are given; one
        # path alone is an error.
        config = make_workspace(tmp_path)
        self.placeholders(monkeypatch, tmp_path, "x.lhae", "a.lhae", "b.lhae")
        for key, unit in (("doc_embeddings_source", "doc"), ("sent_embeddings_target", "sent")):
            errors = self.errors_of(dataclasses.replace(config, **{key: "x.lhae"}))
            assert f"give both {unit}_embeddings_source and _target" in errors
        both = dataclasses.replace(config, doc_embeddings_source="a.lhae",
                                   doc_embeddings_target="b.lhae")
        assert self.errors_of(both) == ""

    def test_precomputed_levels_need_no_vectors(self, tmp_path, monkeypatch) -> None:
        self.placeholders(monkeypatch, tmp_path, "a.lhae", "b.lhae", "c.lhae", "d.lhae")
        config = dataclasses.replace(
            make_workspace(tmp_path), word_vectors=None, scorer="overlap", theta_s=0.5,
            doc_embeddings_source="a.lhae", doc_embeddings_target="b.lhae",
        )
        assert self.errors_of(config) == ""
        assert "word_vectors" in self.errors_of(dataclasses.replace(config, scorer="cosine"))
        assert self.errors_of(dataclasses.replace(
            config, scorer="cosine", sent_embeddings_source="c.lhae",
            sent_embeddings_target="d.lhae",
        )) == ""

    def test_sentence_paths_warn_for_other_scorers(self, tmp_path, monkeypatch) -> None:
        self.placeholders(monkeypatch, tmp_path, "c.lhae", "d.lhae")
        config = dataclasses.replace(
            make_workspace(tmp_path), sent_embeddings_source="c.lhae",
            sent_embeddings_target="d.lhae",
        )
        assert validate_config(config) == []
        findings = validate_config(dataclasses.replace(config, scorer="bm25"))
        assert findings == [
            ("warning", "the bm25 scorer does not read sent_embeddings_source/_target")
        ]

    @pytest.mark.parametrize("key, value", [
        ("k_doc", 2.5), ("theta_s", "0.7"), ("emit_tsv", "false"), ("min_overlap", None),
    ])
    def test_wrong_type_reported_alone(self, tmp_path, key, value) -> None:
        # theta_d=5.0 is out of range; the type error is reported instead.
        config = dataclasses.replace(make_workspace(tmp_path), theta_d=5.0, **{key: value})
        ((level, message),) = validate_config(config)
        assert level == "error"
        assert message.startswith(f"config key {key!r} expects ")
        assert message.endswith(f", got {value!r}")

    @pytest.mark.parametrize("key", [
        "source_corpus", "target_corpus", "word_vectors",
        "doc_embeddings_source", "doc_embeddings_target",
        "sent_embeddings_source", "sent_embeddings_target",
        "exclusion_file", "stopwords_file", "abbreviations_file",
    ])
    def test_missing_input_file(self, tmp_path, key) -> None:
        missing = str(tmp_path / "missing.txt")
        config = dataclasses.replace(make_workspace(tmp_path), **{key: missing})
        assert f"{key} {missing!r} is not an existing file" in self.errors_of(config)

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
        assert summary.cached_stages == []
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

    def test_corrupt_manifest_recomputes(self, tmp_path, caplog) -> None:
        config = make_workspace(tmp_path)
        run_pipeline(config)
        out_dir = Path(config.out_dir)
        before = out_bytes(out_dir)
        # Unreadable as a whole, then readable with damaged stage records.
        for damaged, warned in (
            (b"{broken", True), (b"\xff\xfe{", True), (b'{"stages": []}', True),
            (b'["stages"]', True),
            (b'{"stages": {"align_sents": 5, "align_docs": {"outputs": []}}}', False),
        ):
            caplog.clear()
            (out_dir / "manifest.json").write_bytes(damaged)
            second = run_pipeline(config)
            assert second.cached_stages == [], damaged
            assert out_bytes(out_dir) == before, damaged
            assert any(
                "unreadable manifest" in r.message for r in caplog.records
            ) == warned, damaged

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

    def test_emit_tsv_off_removes_a_stale_tsv(self, tmp_path) -> None:
        config = make_workspace(tmp_path)
        tsv = Path(config.out_dir) / "groups.tsv"
        run_pipeline(config)
        assert tsv.exists()
        off = dataclasses.replace(config, emit_tsv=False, theta_s=0.995)
        assert "align_sents" not in run_pipeline(off).cached_stages
        assert not tsv.exists()
        tsv.write_text("stale\tgroup\n", encoding="utf-8")
        assert "align_sents" in run_pipeline(off).cached_stages
        assert not tsv.exists()

    @pytest.mark.parametrize("key, value", [
        ("k_doc", 2.5), ("theta_s", "0.7"), ("emit_tsv", "false"),
    ])
    def test_wrongly_typed_value_refused(self, tmp_path, key, value) -> None:
        config = dataclasses.replace(make_workspace(tmp_path), **{key: value})
        with pytest.raises(ValueError, match=f"invalid config: config key '{key}'"):
            run_pipeline(config)
        assert not Path(config.out_dir).exists()

    def test_embedding_paths_select_precomputed(self, tmp_path) -> None:
        config = make_workspace(tmp_path)
        run_pipeline(config)
        out_dir = Path(config.out_dir)
        precomputed = dataclasses.replace(
            config, out_dir=str(tmp_path / "pre"),
            doc_embeddings_source=str(out_dir / "docs_source.lhae"),
            doc_embeddings_target=str(out_dir / "docs_target.lhae"),
            sent_embeddings_source=str(out_dir / "sents_source.lhae"),
            sent_embeddings_target=str(out_dir / "sents_target.lhae"),
        )
        run_pipeline(precomputed)
        for manifest, strategy in ((out_dir / "manifest.json", "avg"),
                                   (tmp_path / "pre" / "manifest.json", "precomputed")):
            stages = json.loads(manifest.read_text("utf-8"))["stages"]
            for name in ("embed_docs_src", "embed_docs_tgt", "embed_sents_src",
                         "embed_sents_tgt"):
                assert stages[name]["params"]["strategy"] == strategy
        pre_stages = json.loads((tmp_path / "pre" / "manifest.json").read_text("utf-8"))
        assert pre_stages["stages"]["embed_docs_src"]["inputs"]["embedding_source"] == (
            hashlib.sha256((out_dir / "docs_source.lhae").read_bytes()).hexdigest()
        )

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


class TestRunWideTokens:
    """Both corpora of a run share one Token per surface form, under the
    run's stopword set."""

    def parsed(self, monkeypatch) -> list:
        docs: list = []
        load_corpus = lha.pipeline.load_corpus

        def keeping(*args, **kwargs):
            for d in load_corpus(*args, **kwargs):
                docs.append(d)
                yield d

        monkeypatch.setattr(lha.pipeline, "load_corpus", keeping)
        return docs

    def test_custom_stopwords_file_flags_both_corpora(self, tmp_path, monkeypatch) -> None:
        stops = tmp_path / "stops.txt"
        stops.write_text("cat\nrain\nkitten\n", encoding="utf-8")
        config = dataclasses.replace(make_workspace(tmp_path), stopwords_file=str(stops))
        docs = self.parsed(monkeypatch)
        run_pipeline(config)
        tokens = [t for d in docs for t in d.tokens()]
        assert {d.dataset_tag for d in docs} == {"src", "tgt"}
        assert {t.normalized for t in tokens if t.is_stopword} == {"cat", "rain", "kitten"}
        assert all(t.is_stopword == (t.normalized in {"cat", "rain", "kitten"})
                   for t in tokens)

    def test_one_token_per_distinct_surface(self, tmp_path, monkeypatch) -> None:
        config = make_workspace(tmp_path)
        built: list[str] = []
        token = lha.corpus._token

        def counting(surface, stopwords):
            built.append(surface)
            return token(surface, stopwords)

        monkeypatch.setattr(lha.corpus, "_token", counting)
        docs = self.parsed(monkeypatch)
        run_pipeline(config)
        surfaces = [
            surface for d in docs for s in d.sentences
            for surface in lha.corpus._TOKEN_RE.findall(s.text)
        ]
        assert sorted(built) == sorted(set(surfaces))
        # The target repeats these source forms, so each was built once for both.
        assert {"sat", "fell", ".", "A"} <= {
            t.surface for d in docs if d.dataset_tag == "tgt" for t in d.tokens()
        }
        by_surface = {}
        for d in docs:
            for t in d.tokens():
                assert by_surface.setdefault(t.surface, t) is t


_COMPUTED = re.compile(r"^stage (\w+): computed in \d+\.\d{3} s$")


class TestStageLog:
    def test_computed_stages_log_their_duration(self, tmp_path, caplog) -> None:
        config = make_workspace(tmp_path)
        with caplog.at_level(logging.INFO, logger="lha.pipeline"):
            run_pipeline(config)
        computed = [m.group(1) for m in map(_COMPUTED.match, caplog.messages) if m]
        assert computed == ALL_STAGES
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="lha.pipeline"):
            run_pipeline(config)
        assert not any(map(_COMPUTED.match, caplog.messages))
        assert sum(m.endswith(": cached") for m in caplog.messages) == len(ALL_STAGES)

    def test_one_stage_start_record_per_stage(self, tmp_path, caplog) -> None:
        # perfbench/spans.py times a stage from its record whose format starts
        # with "stage " to the next such record: one per stage, first argument
        # the stage's name.
        config = make_workspace(tmp_path)
        with caplog.at_level(logging.INFO, logger="lha.pipeline"):
            run_pipeline(config)
        starts = [r for r in caplog.records if r.msg.startswith("stage ") and r.args]
        assert [r.args[0] for r in starts] == ALL_STAGES
        assert all(r.getMessage().endswith(": computing") for r in starts)

    def test_logs_doc_pairs_scored_and_retrieved(
        self, tmp_path, caplog, monkeypatch
    ) -> None:
        scored = []
        score = lha.sent_align.sentence_sim_matrix

        def spy(src, tgt, scorer):
            scored.append((src.doc_id, tgt.doc_id))
            return score(src, tgt, scorer)

        monkeypatch.setattr(lha.sent_align, "sentence_sim_matrix", spy)
        # Every document pair is retrieved, some with no cell at theta_s.
        config = dataclasses.replace(make_workspace(tmp_path), theta_d=0.0)
        with caplog.at_level(logging.INFO, logger="lha.pipeline"):
            run_pipeline(config)
        retrieved = len(read_doc_pairs(Path(config.out_dir) / "doc_pairs.tsv"))
        lines = [m for m in caplog.messages if m.startswith("doc pairs:")]
        assert lines == [f"doc pairs: {len(scored)} scored of {retrieved} retrieved"]
        assert 0 < len(scored) < retrieved


class TestSummarySchema:
    def test_dropped_names_each_reason(self, tmp_path, monkeypatch) -> None:
        # s3 repeats s1, so its groups are duplicates, and one doc pair read
        # names a document no corpus holds: the run drops groups and pairs
        # for every reason.
        s1 = ["The cat sat.", "The dog sat on a mat.", "An apple fell.", "Rain came."]
        write_jsonl(tmp_path / "source.jsonl", [
            {"id": "s1", "sentences": s1},
            {"id": "s2", "sentences": ["Rain is coming.", "Snow is coming."]},
            {"id": "s3", "sentences": s1},
        ])
        write_jsonl(tmp_path / "target.jsonl", [
            {"id": "t1", "sentences": ["A kitten sat.", "A banana fell.", "Bread."]},
            {"id": "t2", "sentences": ["The storm rain came.", "Sun!"]},
        ])
        write_vectors(tmp_path / "vectors.txt", _TOY_VECTORS)
        exclude = tmp_path / "exclude.tsv"
        exclude.write_text("An apple fell.\tA banana fell. Bread.\n", encoding="utf-8")
        read = lha.pipeline.read_doc_pairs
        monkeypatch.setattr(lha.pipeline, "read_doc_pairs",
                            lambda path: [*read(path), DocPair("s9", "t1", 1.0)])
        run_pipeline(PipelineConfig(
            source_corpus=str(tmp_path / "source.jsonl"),
            target_corpus=str(tmp_path / "target.jsonl"),
            out_dir=str(tmp_path / "out"),
            word_vectors=str(tmp_path / "vectors.txt"),
            k_doc=2, k_sent=2, theta_d=0.0, theta_s=0.5, min_overlap=0.3,
            exclusion_file=str(exclude),
        ))
        summary = json.loads((tmp_path / "out" / "summary.json").read_text("utf-8"))
        assert set(summary["dropped"]) == {
            "missing_doc", "overlap", "length_ratio", "excluded", "duplicate",
        }
        assert all(summary["dropped"].values()), summary["dropped"]
        stats = json.loads((tmp_path / "out" / "align_stats.json").read_text("utf-8"))
        means = {"mean_source_tokens", "mean_target_tokens",
                 "pct_multi_sentence_source", "pct_multi_sentence_target"}
        assert stats == {key: v for key, v in summary.items() if key not in means}
        assert means <= set(summary)


class TestLazyVectors:
    """The word-vector file is read only by a stage that computes with it."""

    @pytest.fixture
    def refuse_vectors(self, monkeypatch):
        def refuse(path, vocabulary=None):
            raise AssertionError("word vectors loaded")

        return lambda: monkeypatch.setattr(lha.pipeline, "load_word_vectors", refuse)

    @pytest.mark.parametrize("scorer", ["cosine", "wmd"])
    def test_cached_rerun(self, tmp_path, refuse_vectors, scorer) -> None:
        config = dataclasses.replace(make_workspace(tmp_path), scorer=scorer)
        run_pipeline(config)
        before = out_bytes(Path(config.out_dir), ["groups.jsonl", "manifest.json"])
        refuse_vectors()
        assert len(run_pipeline(config).cached_stages) == (6 if scorer == "cosine" else 4)
        assert out_bytes(Path(config.out_dir), ["groups.jsonl", "manifest.json"]) == before

    def test_cosine_resweep(self, tmp_path, refuse_vectors) -> None:
        config = make_workspace(tmp_path)
        fresh = dataclasses.replace(config, theta_s=0.9, out_dir=str(tmp_path / "fresh"))
        run_pipeline(fresh)
        run_pipeline(config)
        refuse_vectors()
        resweep = run_pipeline(dataclasses.replace(config, theta_s=0.9))
        assert resweep.cached_stages == ALL_STAGES[:-1]
        assert out_bytes(Path(config.out_dir)) == out_bytes(tmp_path / "fresh")

    def test_precomputed_embeddings(self, tmp_path, refuse_vectors) -> None:
        config = make_workspace(tmp_path)
        run_pipeline(config)
        out_dir = Path(config.out_dir)
        precomputed = {
            f"{unit}_embeddings_{side}": str(out_dir / f"{name}_{side}.lhae")
            for unit, name in (("doc", "docs"), ("sent", "sents"))
            for side in ("source", "target")
        }
        without = dataclasses.replace(
            config, out_dir=str(tmp_path / "without"), word_vectors=None, **precomputed
        )
        run_pipeline(without)
        refuse_vectors()
        run_pipeline(dataclasses.replace(config, out_dir=str(tmp_path / "pre"), **precomputed))
        names = [*OUTPUT_FILES, "manifest.json"]
        assert out_bytes(tmp_path / "pre", names) == out_bytes(tmp_path / "without", names)
        assert out_bytes(tmp_path / "pre", ["groups.jsonl"]) == out_bytes(out_dir, ["groups.jsonl"])

    @pytest.mark.parametrize("scorer", ["cosine", "overlap", "bm25", "wmd", "rwmd"])
    def test_table_released_before_align_sents_unless_read(
        self, tmp_path, monkeypatch, scorer
    ) -> None:
        # The embed stages' table is dropped before the sentence stage of a
        # scorer that never reads it, so it is not held at peak memory.
        loaded: list[weakref.ref] = []
        alive: list[bool] = []

        def loading(path, vocabulary=None):
            table = load_word_vectors(path, vocabulary)
            loaded.append(weakref.ref(table))
            return table

        def aligning(*args, **kwargs):
            alive.append(any(ref() is not None for ref in loaded))
            return align_sentences(*args, **kwargs)

        monkeypatch.setattr(lha.pipeline, "load_word_vectors", loading)
        monkeypatch.setattr(lha.pipeline, "align_sentences", aligning)
        run_pipeline(dataclasses.replace(make_workspace(tmp_path), scorer=scorer))
        assert len(loaded) == 1
        assert alive == [scorer in ("wmd", "rwmd")]


class TestVocabulary:
    """The run loads the word vectors once, for the words of both corpora."""

    @pytest.mark.parametrize("scorer", ["cosine", "wmd"])
    def test_one_load_of_both_corpora_words_parsed_before_it(
        self, tmp_path, monkeypatch, scorer
    ) -> None:
        # The load is timed as set-up by perfbench, so no corpus parse may
        # run inside it.
        config = dataclasses.replace(make_workspace(tmp_path), scorer=scorer)
        vocabularies: list = []
        loading_now: list[bool] = []
        inside: list[str] = []
        load_corpus = lha.pipeline.load_corpus

        def parsing(*args, **kwargs):
            for d in load_corpus(*args, **kwargs):
                if loading_now:
                    inside.append(d.doc_id)
                yield d

        def loading(path, vocabulary=None):
            vocabularies.append(vocabulary)
            loading_now.append(True)
            try:
                return load_word_vectors(path, vocabulary)
            finally:
                loading_now.pop()

        monkeypatch.setattr(lha.pipeline, "load_corpus", parsing)
        monkeypatch.setattr(lha.pipeline, "load_word_vectors", loading)
        run_pipeline(config)
        words = {
            t.normalized for path in (config.source_corpus, config.target_corpus)
            for d in lha.corpus.load_corpus(path) for t in d.tokens()
        }
        assert vocabularies == [words] and inside == []
        assert {"kitten", "storm", "cat", "."} <= words
        # A table of every word of the file gives the same bytes.
        monkeypatch.setattr(lha.pipeline, "load_word_vectors",
                            lambda path, vocabulary: load_word_vectors(path))
        run_pipeline(dataclasses.replace(config, out_dir=str(tmp_path / "all")))
        names = sorted(p.name for p in Path(config.out_dir).iterdir())
        assert out_bytes(tmp_path / "all", names) == out_bytes(Path(config.out_dir), names)


class TestTokeniseOnce:
    @pytest.mark.parametrize("filter_stage", ["group", "pair"])
    def test_run_never_tokenises_outside_parsing(
        self, tmp_path, monkeypatch, filter_stage
    ) -> None:
        config = dataclasses.replace(make_workspace(tmp_path), filter_stage=filter_stage)
        expected = run_pipeline(config)

        def refuse(*args, **kwargs):
            raise AssertionError("tokenize called outside parsing")

        monkeypatch.setattr(lha.pipeline, "tokenize", refuse)
        monkeypatch.setattr(lha.sent_align, "tokenize", refuse)
        again = run_pipeline(dataclasses.replace(config, out_dir=str(tmp_path / "again")))
        assert again.summary == expected.summary
        assert again.summary["mean_source_tokens"] > 0


class TestGroupsTsv:
    def test_one_line_per_group(self, tmp_path) -> None:
        config = make_workspace(tmp_path)
        write_jsonl(Path(config.source_corpus), [
            {"id": "s1", "sentences": ["The dog\nran home."]},
        ])
        write_jsonl(Path(config.target_corpus), [
            {"id": "t1", "sentences": ["A puppy\tran home."]},
        ])
        run_pipeline(config)
        out_dir = Path(config.out_dir)
        assert (out_dir / "groups.tsv").read_text("utf-8") == (
            "The dog ran home.\tA puppy ran home.\n"
        )
        (group,) = read_groups(out_dir / "groups.jsonl")
        assert (group.source_text, group.target_text) == (
            "The dog\nran home.", "A puppy\tran home."
        )


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


# Runs each config given as JSON in argv[1] with run_pipeline, in order. When
# argv[2] names an output, the process ends with exit status 17 just before
# that file is written, the way a kill would end it.
_CHILD = """
import json, os, sys
import lha.pipeline
from lha.pipeline import PipelineConfig, run_pipeline

configs, kill_before = json.loads(sys.argv[1]), sys.argv[2]
write_json = lha.pipeline._write_json

def write_or_die(path, data):
    if path.name == kill_before:
        os._exit(17)
    write_json(path, data)

lha.pipeline._write_json = write_or_die
for config in configs:
    run_pipeline(PipelineConfig(**config))
"""


def run_in_child(
    configs: list[PipelineConfig], kill_before: str = "", hash_seed: str = "0"
) -> int:
    args = json.dumps([dataclasses.asdict(c) for c in configs])
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, args, kill_before],
        env=child_env(PYTHONHASHSEED=hash_seed), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode in (0, 17), proc.stderr
    return proc.returncode


class TestKilledRun:
    """A run killed between the writes of one stage is repaired by the next
    run, which recomputes exactly that stage."""

    def test_rerun_recomputes_only_the_killed_stage(self, tmp_path) -> None:
        config = make_workspace(tmp_path, out_name="killed")
        assert run_in_child([config], kill_before="summary.json") == 17
        out_dir = Path(config.out_dir)
        assert (out_dir / "groups.jsonl").exists()
        assert not (out_dir / "summary.json").exists()
        rerun = run_pipeline(config)
        assert sorted(rerun.cached_stages) == sorted(set(ALL_STAGES) - {"align_sents"})
        clean = dataclasses.replace(config, out_dir=str(tmp_path / "clean"))
        run_pipeline(clean)
        names = OUTPUT_FILES + ["manifest.json"]
        assert out_bytes(out_dir, names) == out_bytes(Path(clean.out_dir), names)

    def test_stale_record_of_an_earlier_run_is_not_reused(self, tmp_path) -> None:
        # B's groups.jsonl is written, but the manifest still holds A's
        # align_sents record, whose parameters A's rerun matches.
        run_a = make_workspace(tmp_path)
        run_b = dataclasses.replace(run_a, theta_s=0.995)
        run_pipeline(run_a)
        out_dir = Path(run_a.out_dir)
        a_bytes = out_bytes(out_dir)
        assert run_in_child([run_b], kill_before="summary.json") == 17
        assert (out_dir / "groups.jsonl").read_bytes() != a_bytes["groups.jsonl"]
        rerun = run_pipeline(run_a)
        assert "align_sents" not in rerun.cached_stages
        assert out_bytes(out_dir) == a_bytes


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path) -> None:
    # Every sentence pair shares many content words, so BM25 sums many terms
    # and a sum in set order differs in the last bits between hash seeds.
    words = ["cat", "dog", "kitten", "puppy", "apple", "banana", "bread",
             "rain", "snow", "storm", "sun"]
    write_vectors(tmp_path / "vectors.txt", _TOY_VECTORS)
    for side, shift in (("source", 0), ("target", 3)):
        write_jsonl(tmp_path / f"{side}.jsonl", [
            {"id": f"{side[0]}{d}", "sentences": [
                " ".join(words[(d + i + shift + k) % 11] for k in range(9)) + "."
                for i in range(3)
            ]}
            for d in range(4)
        ])
    configs = {
        seed: [
            PipelineConfig(
                source_corpus=str(tmp_path / "source.jsonl"),
                target_corpus=str(tmp_path / "target.jsonl"),
                out_dir=str(tmp_path / f"seed{seed}" / scorer),
                word_vectors=str(tmp_path / "vectors.txt"),
                scorer=scorer, k_doc=2, k_sent=2, theta_d=0.3,
                theta_s=0.5, min_overlap=0.2, max_len_ratio=3.0,
            )
            for scorer in ("cosine", "overlap", "bm25", "wmd", "rwmd")
        ]
        for seed in ("0", "1", "5")
    }
    for seed, seed_configs in configs.items():
        assert run_in_child(seed_configs, hash_seed=seed) == 0
    names = ["groups.jsonl", "doc_pairs.tsv", "summary.json"]
    for scorer_runs in zip(*configs.values()):
        first, *others = (out_bytes(Path(c.out_dir), names) for c in scorer_runs)
        assert json.loads(first["summary.json"])["groups"] > 0, scorer_runs[0].scorer
        for other in others:
            assert other == first, scorer_runs[0].scorer
