"""Command-line surface: every subcommand driven through the click runner."""

from __future__ import annotations

import dataclasses
import json
import logging
import struct
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import lha.corpus
from lha.ann_index import build_index
from lha.cli import _sentence_matrices, main
from lha.corpus import corpus_index, load_corpus
from lha.doc_align import read_doc_pairs
from lha.embeddings import (
    EmbeddingFormatError,
    EmbeddingMatrix,
    WordVectorTable,
    embed_corpus,
    load_embeddings,
    load_word_vectors,
    save_embeddings,
)
from lha.evaluate import eval_joint, load_eval_dataset, sample_docs
from lha.metrics import SCORERS, CosineScorer, make_scorer
from lha.pipeline import PipelineConfig, PipelineStageError, run_pipeline, validate_config
from lha.sent_align import read_groups, sentence_sim_matrix
from conftest import _TOY_VECTORS, doc, write_jsonl, write_vectors
from oracles import word_vectors_oracle


@pytest.fixture(autouse=True)
def reset_logging():
    # the CLI configures the root logger; drop its handler so the next
    # invocation does not write into a closed capture stream
    yield
    root = logging.getLogger()
    for handler in list(root.handlers):
        root.removeHandler(handler)


@pytest.fixture
def workspace(tmp_path: Path) -> Path:
    write_jsonl(tmp_path / "source.jsonl", [
        {"id": "s1", "sentences": ["The cat sat.", "An apple fell."]},
        {"id": "s2", "sentences": ["Rain is coming."]},
    ])
    write_jsonl(tmp_path / "target.jsonl", [
        {"id": "t1", "sentences": ["A kitten sat.", "A banana fell."]},
        {"id": "t2", "sentences": ["The storm rain came."]},
    ])
    write_vectors(tmp_path / "vectors.txt", _TOY_VECTORS)
    (tmp_path / "config.json").write_text(json.dumps({
        "source_corpus": str(tmp_path / "source.jsonl"),
        "target_corpus": str(tmp_path / "target.jsonl"),
        "out_dir": str(tmp_path / "out"),
        "word_vectors": str(tmp_path / "vectors.txt"),
        "k_doc": 2, "k_sent": 2, "theta_d": 0.3, "theta_s": 0.6,
        "min_overlap": 0.2,
    }), encoding="utf-8")
    return tmp_path


@pytest.fixture
def eval_dir(tmp_path: Path) -> Path:
    root = tmp_path / "evaldata"
    root.mkdir()
    write_jsonl(root / "source_docs.jsonl", [
        {"id": "s1", "sentences": ["The cat sat.", "An apple fell."]},
        {"id": "s2", "sentences": ["Rain is coming."]},
    ])
    write_jsonl(root / "target_docs.jsonl", [
        {"id": "t1", "sentences": ["A kitten sat.", "A banana fell."]},
        {"id": "t2", "sentences": ["The storm cat came."]},
    ])
    (root / "doc_pairs.tsv").write_text("s1\tt1\ns2\tt2\n", encoding="utf-8")
    write_jsonl(root / "gold_pairs.jsonl", [
        {"source_key": "s1#0", "target_key": "t1#0", "label": "good"},
        {"source_key": "s1#1", "target_key": "t1#1", "label": "good"},
        {"source_key": "s2#0", "target_key": "t2#0", "label": "good_partial"},
    ])
    write_jsonl(root / "noise_source_docs.jsonl",
                [{"id": "ns1", "sentences": ["Xyzzy plugh."]}])
    write_jsonl(root / "noise_target_docs.jsonl",
                [{"id": "nt1", "sentences": ["Qwerty asdf."]}])
    return root


def invoke(*args: str):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


class TestTopLevel:
    def test_version(self) -> None:
        result = invoke("--version")
        assert result.exit_code == 0
        assert "lha" in result.output

    def test_help_lists_commands(self) -> None:
        result = invoke("--help")
        assert result.exit_code == 0
        for command in ("embed", "align-docs", "align-sents", "eval", "run", "validate"):
            assert command in result.output


class TestEmbedCommand:
    def test_doc_and_sent_levels(self, workspace) -> None:
        doc_out = workspace / "docs.lhae"
        result = invoke(
            "embed", "--corpus", str(workspace / "source.jsonl"),
            "--level", "doc", "--vectors", str(workspace / "vectors.txt"),
            "--out", str(doc_out),
        )
        assert result.exit_code == 0
        matrix = load_embeddings(doc_out)
        assert matrix.unit_ids == ["s1", "s2"]

        sent_out = workspace / "sents.lhae"
        result = invoke(
            "embed", "--corpus", str(workspace / "source.jsonl"),
            "--level", "sent", "--vectors", str(workspace / "vectors.txt"),
            "--out", str(sent_out),
        )
        assert result.exit_code == 0
        assert load_embeddings(sent_out).unit_ids == ["s1#0", "s1#1", "s2#0"]

    def test_precomputed_strategy(self, workspace) -> None:
        base = workspace / "sents.lhae"
        invoke("embed", "--corpus", str(workspace / "source.jsonl"),
               "--level", "sent", "--vectors", str(workspace / "vectors.txt"),
               "--out", str(base))
        out = workspace / "sents2.lhae"
        result = invoke(
            "embed", "--corpus", str(workspace / "source.jsonl"),
            "--level", "sent", "--strategy", f"precomputed:{base}",
            "--out", str(out),
        )
        assert result.exit_code == 0
        assert load_embeddings(out).unit_ids == load_embeddings(base).unit_ids

    def test_avg_needs_vectors(self, workspace) -> None:
        result = invoke(
            "embed", "--corpus", str(workspace / "source.jsonl"),
            "--level", "doc", "--out", str(workspace / "x.lhae"),
        )
        assert result.exit_code == 2
        assert "--vectors" in result.output

    def test_normalize_switch_is_gone(self, workspace) -> None:
        result = invoke(
            "embed", "--corpus", str(workspace / "source.jsonl"), "--level", "doc",
            "--vectors", str(workspace / "vectors.txt"), "--no-normalize",
            "--out", str(workspace / "x.lhae"),
        )
        assert result.exit_code == 2
        assert "--no-normalize" in result.output

    def test_unknown_strategy(self, workspace) -> None:
        result = invoke(
            "embed", "--corpus", str(workspace / "source.jsonl"),
            "--level", "doc", "--strategy", "magic",
            "--out", str(workspace / "x.lhae"),
        )
        assert result.exit_code == 2


class TestStageCommands:
    def run_stages(self, workspace) -> Path:
        vectors = str(workspace / "vectors.txt")
        for side, corpus in (("src", "source.jsonl"), ("tgt", "target.jsonl")):
            invoke("embed", "--corpus", str(workspace / corpus), "--level", "doc",
                   "--vectors", vectors, "--out", str(workspace / f"{side}.lhae"))
        result = invoke(
            "align-docs", "--source-embeddings", str(workspace / "src.lhae"),
            "--target-embeddings", str(workspace / "tgt.lhae"),
            "--k", "2", "--theta-d", "0.3",
            "--out", str(workspace / "doc_pairs.tsv"),
        )
        assert result.exit_code == 0
        return workspace / "doc_pairs.tsv"

    def test_index_and_align_docs(self, workspace) -> None:
        pairs_path = self.run_stages(workspace)
        pairs = read_doc_pairs(pairs_path)
        assert {(p.source_id, p.target_id) for p in pairs} == {
            ("s1", "t1"), ("s2", "t2"),
        }

    def test_align_sents(self, workspace) -> None:
        pairs_path = self.run_stages(workspace)
        groups_path = workspace / "groups.jsonl"
        tsv_path = workspace / "groups.tsv"
        result = invoke(
            "align-sents", "--doc-pairs", str(pairs_path),
            "--source-corpus", str(workspace / "source.jsonl"),
            "--target-corpus", str(workspace / "target.jsonl"),
            "--vectors", str(workspace / "vectors.txt"),
            "--k", "2", "--theta-s", "0.6", "--min-overlap", "0.2",
            "--out", str(groups_path), "--tsv-out", str(tsv_path),
        )
        assert result.exit_code == 0
        groups = read_groups(groups_path)
        assert len(groups) == 3
        assert tsv_path.read_text(encoding="utf-8").count("\n") == 3

    def test_align_sents_builds_one_token_per_surface(self, workspace, monkeypatch) -> None:
        pairs_path = self.run_stages(workspace)
        surfaces = {
            surface for name in ("source.jsonl", "target.jsonl")
            for d in load_corpus(workspace / name) for s in d.sentences
            for surface in lha.corpus._TOKEN_RE.findall(s.text)
        }
        built: list[str] = []
        token = lha.corpus._token

        def counting(surface, stopwords):
            built.append(surface)
            return token(surface, stopwords)

        monkeypatch.setattr(lha.corpus, "_token", counting)
        result = invoke(
            "align-sents", "--doc-pairs", str(pairs_path),
            "--source-corpus", str(workspace / "source.jsonl"),
            "--target-corpus", str(workspace / "target.jsonl"),
            "--scorer", "overlap", "--k", "2", "--theta-s", "0.1",
            "--out", str(workspace / "groups.jsonl"),
        )
        assert result.exit_code == 0
        assert sorted(built) == sorted(surfaces)
        assert {"sat", "fell", "."} <= surfaces

    @pytest.mark.parametrize("scorer, sentence_input", [
        ("cosine", "vectors"), ("cosine", "embeddings"), ("overlap", "vectors"),
        ("bm25", "vectors"), ("wmd", "vectors"), ("rwmd", "vectors"),
    ])
    def test_custom_abbreviations_chain_equals_pipeline(
        self, tmp_path, scorer, sentence_input
    ) -> None:
        # The README's stage chain writes what `lha run` writes, byte for byte.
        # Without "dr" on the list "Dr." is a sentence of its own, so the
        # sentence ids in the embeddings only match a corpus split the same way.
        for side, text in (("source", "Dr. Smith saw the cat. The dog ran home."),
                           ("target", "Dr. Smith saw the kitten. A puppy ran home.")):
            write_jsonl(tmp_path / f"{side}.jsonl", [{"id": side[0], "text": text}])
        write_vectors(tmp_path / "vectors.txt", _TOY_VECTORS)
        abbreviations = tmp_path / "abbreviations.txt"
        abbreviations.write_text("mr\nmrs\n", encoding="utf-8")
        common = ["--vectors", str(tmp_path / "vectors.txt"),
                  "--abbreviations", str(abbreviations)]
        for side in ("source", "target"):
            for level in ("doc", "sent"):
                result = invoke("embed", "--corpus", str(tmp_path / f"{side}.jsonl"),
                                "--level", level, *common,
                                "--out", str(tmp_path / f"{level}_{side}.lhae"))
                assert result.exit_code == 0, result.output
        result = invoke(
            "align-docs", "--source-embeddings", str(tmp_path / "doc_source.lhae"),
            "--target-embeddings", str(tmp_path / "doc_target.lhae"), "--k", "1",
            "--theta-d", "0.3", "--out", str(tmp_path / "doc_pairs.tsv"),
        )
        assert result.exit_code == 0, result.output
        sentences = common if sentence_input == "vectors" else [
            "--source-sent-embeddings", str(tmp_path / "sent_source.lhae"),
            "--target-sent-embeddings", str(tmp_path / "sent_target.lhae"),
            "--abbreviations", str(abbreviations),
        ]
        result = invoke(
            "align-sents", "--doc-pairs", str(tmp_path / "doc_pairs.tsv"),
            "--source-corpus", str(tmp_path / "source.jsonl"),
            "--target-corpus", str(tmp_path / "target.jsonl"),
            "--scorer", scorer, *sentences,
            "--k", "1", "--theta-s", "0.6", "--min-overlap", "0.0",
            "--out", str(tmp_path / "groups.jsonl"),
            "--tsv-out", str(tmp_path / "groups.tsv"),
        )
        assert result.exit_code == 0, result.output
        run_pipeline(PipelineConfig(
            source_corpus=str(tmp_path / "source.jsonl"),
            target_corpus=str(tmp_path / "target.jsonl"),
            out_dir=str(tmp_path / "out"),
            word_vectors=str(tmp_path / "vectors.txt"),
            abbreviations_file=str(abbreviations),
            scorer=scorer,
            k_doc=1, k_sent=1, theta_d=0.3, theta_s=0.6, min_overlap=0.0,
        ))
        for name in ("doc_pairs.tsv", "groups.jsonl", "groups.tsv"):
            assert (tmp_path / name).read_bytes() == (tmp_path / "out" / name).read_bytes()
        chained = (tmp_path / "groups.jsonl").read_text("utf-8")
        assert "s#2" in chained

    @pytest.mark.parametrize("options, keys", [
        (["--filter-stage", "pair"], {"filter_stage": "pair"}),
        (["--exclude", "EXCLUDE"], {"exclusion_file": "EXCLUDE"}),
        (["--scorer", "bm25", "--bm25-k1", "2.0", "--bm25-b", "0.3"],
         {"scorer": "bm25", "bm25_k1": 2.0, "bm25_b": 0.3}),
        (["--max-len-ratio", "1.2"], {"max_len_ratio": 1.2}),
        (["--scorer", "wmd"], {"scorer": "wmd"}),
    ], ids=["filter-stage-pair", "exclude", "bm25", "max-len-ratio", "wmd"])
    def test_align_sents_is_the_pipeline_stage(self, tmp_path, options, keys) -> None:
        # On `lha run`'s doc pairs, the command writes the groups `lha run`
        # writes and logs the stage's numbers as `lha run` does.
        write_jsonl(tmp_path / "source.jsonl", [
            {"id": "s1", "sentences": ["The cat sat.", "The dog sat on a mat.",
                                       "An apple fell.", "Rain came."]},
            {"id": "s2", "sentences": ["Rain is coming.", "Snow is coming."]},
        ])
        write_jsonl(tmp_path / "target.jsonl", [
            {"id": "t1", "sentences": ["A kitten sat.", "A banana fell.", "Bread."]},
            {"id": "t2", "sentences": ["The storm rain came.", "Sun!"]},
        ])
        write_vectors(tmp_path / "vectors.txt", _TOY_VECTORS)
        exclude = tmp_path / "exclude.tsv"
        exclude.write_text("An apple fell.\tA banana fell. Bread.\n", encoding="utf-8")
        keys = {k: str(exclude) if v == "EXCLUDE" else v for k, v in keys.items()}
        (tmp_path / "config.json").write_text(json.dumps({
            "source_corpus": str(tmp_path / "source.jsonl"),
            "target_corpus": str(tmp_path / "target.jsonl"),
            "out_dir": str(tmp_path / "out"),
            "word_vectors": str(tmp_path / "vectors.txt"),
            "k_doc": 2, "k_sent": 2, "theta_d": 0.0, "theta_s": 0.5, "min_overlap": 0.0,
            **keys,
        }), encoding="utf-8")
        run = invoke("run", "--config", str(tmp_path / "config.json"))
        assert run.exit_code == 0, run.output
        chain = invoke(
            "align-sents", "--doc-pairs", str(tmp_path / "out" / "doc_pairs.tsv"),
            "--source-corpus", str(tmp_path / "source.jsonl"),
            "--target-corpus", str(tmp_path / "target.jsonl"),
            "--vectors", str(tmp_path / "vectors.txt"), "--k", "2", "--theta-s", "0.5",
            "--min-overlap", "0.0", *(str(exclude) if o == "EXCLUDE" else o for o in options),
            "--out", str(tmp_path / "groups.jsonl"), "--tsv-out", str(tmp_path / "groups.tsv"),
        )
        assert chain.exit_code == 0, chain.output
        for name in ("groups.jsonl", "groups.tsv"):
            assert (tmp_path / name).read_bytes() == (tmp_path / "out" / name).read_bytes()
        assert (tmp_path / "groups.tsv").read_text("utf-8")

        def stage_numbers(stderr: str) -> list[str]:
            return [line for line in stderr.splitlines()
                    if ": doc pairs: " in line or ": wmd cells: " in line]

        logged = stage_numbers(run.stderr)
        assert stage_numbers(chain.stderr) == logged
        assert len(logged) == (2 if keys.get("scorer") == "wmd" else 1)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text("utf-8"))
        assert summary["dropped"]["excluded"] == (1 if "exclusion_file" in keys else 0)

    def test_align_sents_wmd_prunes_below_theta_s(self, workspace, monkeypatch) -> None:
        # Like `lha run`, the chain solves no LP of a cell whose RWMD bound is
        # below theta_s, and writes the same groups.
        built = []

        def recording_make_scorer(*args, **kwargs):
            built.append(make_scorer(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr("lha.pipeline.make_scorer", recording_make_scorer)
        pairs_path = self.run_stages(workspace)
        result = invoke(
            "align-sents", "--doc-pairs", str(pairs_path),
            "--source-corpus", str(workspace / "source.jsonl"),
            "--target-corpus", str(workspace / "target.jsonl"),
            "--vectors", str(workspace / "vectors.txt"), "--scorer", "wmd",
            "--k", "2", "--theta-s", "0.6", "--min-overlap", "0.2",
            "--out", str(workspace / "groups.jsonl"),
        )
        assert result.exit_code == 0, result.output
        (scorer,) = built
        assert scorer.pruned > 0
        assert scorer.solved + scorer.pruned == scorer.cells
        result = invoke("run", "--config", str(workspace / "config.json"),
                        "--set", "scorer=wmd")
        assert result.exit_code == 0, result.output
        assert (workspace / "groups.jsonl").read_bytes() == (
            workspace / "out" / "groups.jsonl").read_bytes()

    def test_align_sents_scores_a_raw_matrix_as_run_does(self, workspace) -> None:
        # A matrix of the user's own need not hold unit rows; here each row
        # has its own scale. `lha run` scores the rows its embed_sents stage
        # makes from the matrix, and the chain must score the same rows.
        pairs_path = self.run_stages(workspace)
        rng = np.random.default_rng(1)
        raw = {}
        for side in ("source", "target"):
            unit = workspace / f"unit_{side}.lhae"
            invoke("embed", "--corpus", str(workspace / f"{side}.jsonl"), "--level", "sent",
                   "--vectors", str(workspace / "vectors.txt"), "--out", str(unit))
            matrix = load_embeddings(unit)
            raw[side] = workspace / f"raw_{side}.lhae"
            scales = rng.uniform(0.5, 3.0, (matrix.count, 1))
            save_embeddings(EmbeddingMatrix(matrix.unit_ids, matrix.rows * scales), raw[side])
        result = invoke(
            "align-sents", "--doc-pairs", str(pairs_path),
            "--source-corpus", str(workspace / "source.jsonl"),
            "--target-corpus", str(workspace / "target.jsonl"),
            "--source-sent-embeddings", str(raw["source"]),
            "--target-sent-embeddings", str(raw["target"]),
            "--k", "2", "--theta-s", "0.6", "--min-overlap", "0.2",
            "--out", str(workspace / "groups.jsonl"),
        )
        assert result.exit_code == 0, result.output
        result = invoke("run", "--config", str(workspace / "config.json"),
                        "--set", f"sent_embeddings_source={raw['source']}",
                        "--set", f"sent_embeddings_target={raw['target']}")
        assert result.exit_code == 0, result.output
        for name in ("doc_pairs.tsv", "groups.jsonl"):
            assert (workspace / name).read_bytes() == (workspace / "out" / name).read_bytes()
        assert len(read_groups(workspace / "groups.jsonl")) == 3

    def test_align_sents_cosine_needs_embeddings_or_vectors(self, workspace) -> None:
        pairs_path = self.run_stages(workspace)
        result = invoke(
            "align-sents", "--doc-pairs", str(pairs_path),
            "--source-corpus", str(workspace / "source.jsonl"),
            "--target-corpus", str(workspace / "target.jsonl"),
            "--theta-s", "0.6", "--out", str(workspace / "g.jsonl"),
        )
        assert result.exit_code == 2


class TestStageParameters:
    """The stage commands check their values with validate_config's rules: a
    bad value is a usage error naming the option, before any corpus is read
    and with no output written."""

    @pytest.fixture
    def stage_inputs(self, workspace) -> Path:
        vectors = str(workspace / "vectors.txt")
        for side, corpus in (("src", "source.jsonl"), ("tgt", "target.jsonl")):
            invoke("embed", "--corpus", str(workspace / corpus), "--level", "doc",
                   "--vectors", vectors, "--out", str(workspace / f"{side}.lhae"))
        (workspace / "pairs.tsv").write_text("s1\tt1\t0.9\n", encoding="utf-8")
        # Reading this corpus would fail, so a value error shows it was not read.
        (workspace / "broken.jsonl").write_text("not json\n", encoding="utf-8")
        return workspace

    def align_docs(self, ws: Path, *options: str):
        return invoke("align-docs", "--source-embeddings", str(ws / "src.lhae"),
                      "--target-embeddings", str(ws / "tgt.lhae"), *options,
                      "--out", str(ws / "out.tsv"))

    def align_sents(self, ws: Path, *options: str):
        return invoke("align-sents", "--doc-pairs", str(ws / "pairs.tsv"),
                      "--source-corpus", str(ws / "broken.jsonl"),
                      "--target-corpus", str(ws / "broken.jsonl"),
                      "--vectors", str(ws / "vectors.txt"), *options,
                      "--out", str(ws / "out.jsonl"))

    @pytest.mark.parametrize("options, message", [
        (["--k", "0"], "--k must be >= 1, got 0"),
        (["--theta-d", "nan"], "--theta-d must not be NaN"),
        (["--theta-d", "1.5"], "--theta-d must be within [-1,1] for cosine, got 1.5"),
    ], ids=["k", "theta-d-nan", "theta-d-range"])
    def test_align_docs_bad_value(self, stage_inputs, options, message) -> None:
        result = self.align_docs(stage_inputs, *options)
        assert result.exit_code == 2
        assert message in result.output
        assert not (stage_inputs / "out.tsv").exists()

    @pytest.mark.parametrize("options, message", [
        (["--k", "0", "--theta-s", "0.6"], "--k must be >= 1, got 0"),
        (["--theta-s", "nan"], "--theta-s must not be NaN"),
        (["--theta-s", "0.6", "--min-overlap", "2"], "--min-overlap must be in [0,1], got 2.0"),
        (["--theta-s", "0.6", "--max-len-ratio", "0"], "--max-len-ratio must be > 0, got 0.0"),
        (["--scorer", "overlap", "--theta-s", "2"],
         "--theta-s must be within [0,1] for overlap, got 2.0"),
        (["--scorer", "wmd", "--theta-s", "0"],
         "--theta-s must be within (0,1] for wmd and rwmd, got 0.0"),
    ], ids=["k", "theta-s-nan", "min-overlap", "max-len-ratio", "overlap-theta-s",
            "wmd-theta-s"])
    def test_align_sents_bad_value(self, stage_inputs, options, message) -> None:
        result = self.align_sents(stage_inputs, *options)
        assert result.exit_code == 2
        assert message in result.output
        assert not (stage_inputs / "out.jsonl").exists()

    def test_low_cosine_threshold_warns(self, stage_inputs) -> None:
        ws = stage_inputs
        result = invoke("align-sents", "--doc-pairs", str(ws / "pairs.tsv"),
                        "--source-corpus", str(ws / "source.jsonl"),
                        "--target-corpus", str(ws / "target.jsonl"),
                        "--vectors", str(ws / "vectors.txt"), "--theta-s", "0.2",
                        "--out", str(ws / "out.jsonl"))
        assert result.exit_code == 0, result.output
        assert "--theta-s 0.2 is low for cosine" in result.stderr

    def test_dimension_mismatch_is_usage_error(self, stage_inputs) -> None:
        save_embeddings(EmbeddingMatrix(["t1"], np.ones((1, 4), dtype=np.float32)),
                        stage_inputs / "tgt.lhae")
        result = self.align_docs(stage_inputs)
        assert result.exit_code == 2
        assert "source dim 3 != index dim 4" in result.output
        assert not (stage_inputs / "out.tsv").exists()

    def test_index_file_is_read_as_target_embeddings(self, stage_inputs) -> None:
        # An index file is the target's non-zero rows in the embedding
        # format, so it gives the same pairs as the embeddings themselves.
        ws = stage_inputs
        target = load_embeddings(ws / "tgt.lhae")
        ids = [*target.unit_ids, "zero"]
        rows = np.vstack([target.rows, np.zeros((1, target.dim), dtype=np.float32)])
        save_embeddings(EmbeddingMatrix(ids, rows), ws / "tgt.lhae")
        build_index(load_embeddings(ws / "tgt.lhae")).save(ws / "tgt.lhai")
        assert load_embeddings(ws / "tgt.lhai").unit_ids == target.unit_ids
        assert self.align_docs(ws, "--k", "3", "--theta-d", "-1").exit_code == 0
        from_embeddings = (ws / "out.tsv").read_bytes()
        result = invoke("align-docs", "--source-embeddings", str(ws / "src.lhae"),
                        "--target-embeddings", str(ws / "tgt.lhai"), "--k", "3",
                        "--theta-d", "-1", "--out", str(ws / "out.tsv"))
        assert result.exit_code == 0, result.output
        assert (ws / "out.tsv").read_bytes() == from_embeddings
        assert from_embeddings.count(b"\n") == 4

    def test_index_command_is_gone(self, stage_inputs) -> None:
        result = invoke("index", "--embeddings", str(stage_inputs / "tgt.lhae"),
                        "--out", str(stage_inputs / "tgt.lhai"))
        assert result.exit_code == 2
        assert "No such command 'index'" in result.output


class TestSplitMismatch:
    """Sentence embeddings made from another split of the corpus are
    refused: each row would be read for the wrong sentence."""

    @pytest.fixture
    def mismatched(self, tmp_path) -> Path:
        # Split without "dr" on the list, "Dr." is a sentence of its own and
        # the embeddings hold s#0..s#2 and t#0..t#2; the default list splits
        # each document into two sentences.
        for side, text in (("source", "Dr. Smith saw the cat. The dog ran home."),
                           ("target", "Dr. Smith saw the kitten. A puppy ran home.")):
            write_jsonl(tmp_path / f"{side}.jsonl", [{"id": side[0], "text": text}])
        write_vectors(tmp_path / "vectors.txt", _TOY_VECTORS)
        abbreviations = tmp_path / "abbreviations.txt"
        abbreviations.write_text("mr\nmrs\n", encoding="utf-8")
        for side in ("source", "target"):
            result = invoke("embed", "--corpus", str(tmp_path / f"{side}.jsonl"),
                            "--level", "sent", "--vectors", str(tmp_path / "vectors.txt"),
                            "--abbreviations", str(abbreviations),
                            "--out", str(tmp_path / f"sent_{side}.lhae"))
            assert result.exit_code == 0, result.output
        (tmp_path / "doc_pairs.tsv").write_text("s\tt\t0.9\n", encoding="utf-8")
        return tmp_path

    def test_embed_precomputed(self, mismatched) -> None:
        result = invoke(
            "embed", "--corpus", str(mismatched / "source.jsonl"), "--level", "sent",
            "--strategy", f"precomputed:{mismatched / 'sent_source.lhae'}",
            "--out", str(mismatched / "again.lhae"),
        )
        assert result.exit_code == 2
        assert "'s#2'" in result.output
        assert not (mismatched / "again.lhae").exists()

    def test_align_sents(self, mismatched) -> None:
        result = invoke(
            "align-sents", "--doc-pairs", str(mismatched / "doc_pairs.tsv"),
            "--source-corpus", str(mismatched / "source.jsonl"),
            "--target-corpus", str(mismatched / "target.jsonl"),
            "--source-sent-embeddings", str(mismatched / "sent_source.lhae"),
            "--target-sent-embeddings", str(mismatched / "sent_target.lhae"),
            "--k", "1", "--theta-s", "0.6", "--min-overlap", "0.0",
            "--out", str(mismatched / "groups.jsonl"),
        )
        assert result.exit_code == 2
        assert "'s#2'" in result.output
        assert not (mismatched / "groups.jsonl").exists()

    def test_pipeline(self, mismatched) -> None:
        config = PipelineConfig(
            source_corpus=str(mismatched / "source.jsonl"),
            target_corpus=str(mismatched / "target.jsonl"),
            out_dir=str(mismatched / "out"),
            word_vectors=str(mismatched / "vectors.txt"),
            sent_embeddings_source=str(mismatched / "sent_source.lhae"),
            sent_embeddings_target=str(mismatched / "sent_target.lhae"),
            k_doc=1, k_sent=1, theta_d=0.3, theta_s=0.6, min_overlap=0.0,
        )
        with pytest.raises(PipelineStageError, match="'s#2'") as excinfo:
            run_pipeline(config)
        assert excinfo.value.stage == "embed_sents_src"

    def test_rows_of_other_documents_allowed(self, mismatched) -> None:
        # The default split of source.jsonl gives s#0 and s#1; rows of a
        # document outside the corpus may be split any way.
        ids = ["s#0", "s#1", "x#0", "x#7"]
        save_embeddings(
            EmbeddingMatrix(ids, np.eye(4, dtype=np.float32)), mismatched / "wide.lhae"
        )
        result = invoke(
            "embed", "--corpus", str(mismatched / "source.jsonl"), "--level", "sent",
            "--strategy", f"precomputed:{mismatched / 'wide.lhae'}",
            "--out", str(mismatched / "narrow.lhae"),
        )
        assert result.exit_code == 0, result.output
        assert load_embeddings(mismatched / "narrow.lhae").unit_ids == ["s#0", "s#1"]


class TestMissingRows:
    """Precomputed sentence embeddings with no row for a sentence of the
    corpus are a usage error that names the sentence."""

    @pytest.fixture
    def two_rows(self, tmp_path) -> Path:
        texts = ["The cat sat.", "A dog ran.", "Rain fell.", "Snow fell."]
        write_jsonl(tmp_path / "a.jsonl", [{"id": "a", "sentences": texts}])
        write_jsonl(tmp_path / "b.jsonl", [{"id": "b", "sentences": texts}])
        save_embeddings(
            EmbeddingMatrix(["a#0", "a#1"], np.eye(2, 3, dtype=np.float32)),
            tmp_path / "two.lhae",
        )
        save_embeddings(
            EmbeddingMatrix([f"b#{i}" for i in range(4)], np.eye(4, 3, dtype=np.float32)),
            tmp_path / "four.lhae",
        )
        (tmp_path / "doc_pairs.tsv").write_text("a\tb\t0.9\n", encoding="utf-8")
        return tmp_path

    def test_embed_precomputed(self, two_rows) -> None:
        result = invoke(
            "embed", "--corpus", str(two_rows / "a.jsonl"), "--level", "sent",
            "--strategy", f"precomputed:{two_rows / 'two.lhae'}",
            "--out", str(two_rows / "again.lhae"),
        )
        assert result.exit_code == 2
        assert "no embedding row for unit id 'a#2'" in result.output
        assert not (two_rows / "again.lhae").exists()

    def test_embed_precomputed_names_the_file(self, two_rows) -> None:
        result = invoke(
            "embed", "--corpus", str(two_rows / "a.jsonl"), "--level", "sent",
            "--strategy", f"precomputed:{two_rows / 'two.lhae'}",
            "--out", str(two_rows / "again.lhae"),
        )
        assert result.exit_code == 2
        assert f"{two_rows / 'two.lhae'}: no embedding row for unit id 'a#2'" in result.output

    def test_align_sents(self, two_rows) -> None:
        result = invoke(
            "align-sents", "--doc-pairs", str(two_rows / "doc_pairs.tsv"),
            "--source-corpus", str(two_rows / "a.jsonl"),
            "--target-corpus", str(two_rows / "b.jsonl"),
            "--source-sent-embeddings", str(two_rows / "two.lhae"),
            "--target-sent-embeddings", str(two_rows / "four.lhae"),
            "--k", "1", "--theta-s", "0.6", "--min-overlap", "0.0",
            "--out", str(two_rows / "groups.jsonl"),
        )
        assert result.exit_code == 2
        assert "two.lhae: no embedding row for unit id 'a#2'" in result.output
        assert not (two_rows / "groups.jsonl").exists()


class TestRunCommand:
    def test_run_emits_summary_json(self, workspace) -> None:
        result = invoke("run", "--config", str(workspace / "config.json"))
        assert result.exit_code == 0
        summary = json.loads(result.stdout)
        assert summary["groups"] == 3
        assert summary["doc_pairs"] == 2
        assert (workspace / "out" / "groups.jsonl").exists()

    def test_set_overrides(self, workspace) -> None:
        result = invoke(
            "run", "--config", str(workspace / "config.json"),
            "--set", "theta_s=0.995",
            "--set", f"out_dir={workspace / 'out_tight'}",
        )
        assert result.exit_code == 0
        assert json.loads(result.stdout)["groups"] == 2

    def test_bad_override_is_usage_error(self, workspace) -> None:
        result = invoke(
            "run", "--config", str(workspace / "config.json"), "--set", "nope=1",
        )
        assert result.exit_code == 2
        assert "unknown config key" in result.output

    def test_invalid_config_is_clean_error(self, workspace) -> None:
        result = invoke(
            "run", "--config", str(workspace / "config.json"),
            "--set", "theta_s=5.0",
        )
        assert result.exit_code == 1
        assert "invalid config" in result.output

    def test_logs_go_to_stderr(self, workspace) -> None:
        result = invoke("run", "--config", str(workspace / "config.json"),
                        "--set", f"out_dir={workspace / 'out_logs'}")
        assert "stage" in result.stderr
        json.loads(result.stdout)

    def test_quiet_suppresses_info(self, workspace) -> None:
        result = invoke("--quiet", "run", "--config", str(workspace / "config.json"),
                        "--set", f"out_dir={workspace / 'out_quiet'}")
        assert result.exit_code == 0
        assert "INFO" not in result.stderr


class TestConfigTypes:
    """A config value of the wrong JSON type is a usage error naming the key,
    before anything runs."""

    @pytest.mark.parametrize("command, key, value", [
        ("validate", "theta_s", "0.7"),
        ("run", "k_doc", 2.5),
        ("run", "emit_tsv", "false"),
    ])
    def test_wrong_type_is_usage_error(self, workspace, command, key, value) -> None:
        path = workspace / "config.json"
        config = json.loads(path.read_text("utf-8"))
        config[key] = value
        path.write_text(json.dumps(config), encoding="utf-8")
        result = invoke(command, "--config", str(path))
        assert result.exit_code == 2
        assert f"config key '{key}'" in result.output
        assert not (workspace / "out").exists()


class TestValidateCommand:
    def test_missing_input_file(self, workspace) -> None:
        missing = workspace / "absent.jsonl"
        for command, code in (("validate", 1), ("run", 1)):
            result = invoke(command, "--config", str(workspace / "config.json"),
                            "--set", f"source_corpus={missing}")
            assert result.exit_code == code, command
            assert f"source_corpus '{missing}' is not an existing file" in result.output
        assert not (workspace / "out").exists()

    def test_ok(self, workspace) -> None:
        result = invoke("validate", "--config", str(workspace / "config.json"))
        assert result.exit_code == 0
        assert "ok" in result.output

    def test_warnings_exit_zero(self, workspace) -> None:
        result = invoke("validate", "--config", str(workspace / "config.json"),
                        "--set", "theta_s=0.2")
        assert result.exit_code == 0
        assert "warning" in result.output

    def test_errors_exit_nonzero(self, workspace) -> None:
        result = invoke("validate", "--config", str(workspace / "config.json"),
                        "--set", "theta_s=5.0")
        assert result.exit_code == 1
        assert "error" in result.output


class TestEvalCommands:
    def test_eval_sent(self, workspace, eval_dir) -> None:
        result = invoke(
            "eval", "sent", "--data-dir", str(eval_dir),
            "--vectors", str(workspace / "vectors.txt"),
        )
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["f1_max"] == 1.0
        assert report["positives_total"] == 2
        assert "wall_clock_sec" not in report
        assert "F1max" in result.stderr
        assert "TP%" in result.stderr

    def test_positive_labels_and_timing(self, workspace, eval_dir) -> None:
        result = invoke(
            "eval", "sent", "--data-dir", str(eval_dir),
            "--vectors", str(workspace / "vectors.txt"),
            "--positive-labels", "good,good_partial", "--include-timing",
        )
        report = json.loads(result.stdout)
        assert report["positives_total"] == 3
        assert "wall_clock_sec" in report

    def test_eval_sent_overlap_scorer(self, eval_dir) -> None:
        result = invoke("eval", "sent", "--data-dir", str(eval_dir),
                        "--scorer", "overlap")
        assert result.exit_code == 0
        json.loads(result.stdout)

    def test_eval_sent_cosine_needs_vectors(self, eval_dir) -> None:
        result = invoke("eval", "sent", "--data-dir", str(eval_dir))
        assert result.exit_code == 2

    def test_eval_doc(self, workspace, eval_dir) -> None:
        result = invoke(
            "eval", "doc", "--data-dir", str(eval_dir),
            "--vectors", str(workspace / "vectors.txt"), "--n-noise", "1",
        )
        assert result.exit_code == 0
        assert json.loads(result.stdout)["f1_max"] == 1.0

    def test_eval_joint_both_modes(self, workspace, eval_dir) -> None:
        for mode in ("lha", "global"):
            result = invoke(
                "eval", "joint", "--data-dir", str(eval_dir), "--mode", mode,
                "--vectors", str(workspace / "vectors.txt"),
                "--k-doc", "2", "--theta-d", "0.6", "--n-noise", "1",
            )
            assert result.exit_code == 0, result.output
            report = json.loads(result.stdout)
            assert report["f1_max"] == 1.0
            assert report["details"]["mode"] == mode

    def test_eval_joint_noise_may_repeat_a_gold_id(self, workspace, eval_dir) -> None:
        # Noise is never drawn from an article with an annotated article's id,
        # so such an article changes nothing, though one matrix cannot hold both.
        args = ["eval", "joint", "--data-dir", str(eval_dir), "--mode", "lha",
                "--vectors", str(workspace / "vectors.txt"),
                "--k-doc", "2", "--theta-d", "0.6", "--n-noise", "1"]
        before = invoke(*args)
        noise = eval_dir / "noise_source_docs.jsonl"
        noise.write_text(noise.read_text(encoding="utf-8") + json.dumps(
            {"id": "s1", "sentences": ["A puppy ran."]}) + "\n", encoding="utf-8")
        after = invoke(*args)
        assert after.exit_code == 0, after.output
        assert after.stdout == before.stdout

    def test_eval_joint_noise_never_repeats_an_annotated_id(self, workspace, eval_dir) -> None:
        # "s3" is annotated but in no gold article pair. A noise article "s3"
        # would be scored with the annotated article's sentence rows, so it
        # is not in the noise pool: the pool has one article, not two.
        def append(name, record):
            path = eval_dir / name
            path.write_text(path.read_text(encoding="utf-8") + json.dumps(record) + "\n",
                            encoding="utf-8")

        args = ["eval", "joint", "--data-dir", str(eval_dir), "--mode", "global",
                "--vectors", str(workspace / "vectors.txt")]
        before = invoke(*args, "--n-noise", "1")
        append("source_docs.jsonl", {"id": "s3", "sentences": ["A kitten sat."]})
        append("noise_source_docs.jsonl", {"id": "s3", "sentences": ["Banana bread fell."]})
        result = CliRunner().invoke(main, [*args, "--n-noise", "2"])
        assert result.exit_code == 2
        assert "source noise pool, which has 1 eligible documents" in result.output
        after = invoke(*args, "--n-noise", "1")
        assert after.exit_code == 0, after.output
        assert after.stdout == before.stdout

    @pytest.mark.parametrize("mode", ["global", "lha"])
    def test_eval_joint_embeds_only_the_sampled_noise(
        self, workspace, eval_dir, monkeypatch, mode
    ) -> None:
        words = ["cat", "dog", "apple", "bread", "rain", "snow", "storm", "sun"]
        for side in ("source", "target"):
            write_jsonl(eval_dir / f"noise_{side}_docs.jsonl", [
                {"id": f"n{side[0]}{i}", "sentences": [f"The {w} fell.", f"A {words[i - 1]} sat."]}
                for i, w in enumerate(words)
            ])
        embedded = []

        def recording_embed_corpus(docs, level, embedder):
            docs = list(docs)
            embedded.append((level, [d.doc_id for d in docs]))
            return embed_corpus(docs, level, embedder)

        monkeypatch.setattr("lha.cli.embed_corpus", recording_embed_corpus)
        result = invoke("eval", "joint", "--data-dir", str(eval_dir), "--mode", mode,
                        "--vectors", str(workspace / "vectors.txt"), "--k-doc", "3",
                        "--theta-d", "0.3", "--n-noise", "3", "--seed", "7")
        assert result.exit_code == 0, result.output
        dataset = load_eval_dataset(eval_dir)
        src, tgt = sample_docs(dataset, 3, 7)
        assert embedded == [("sentence", [d.doc_id for d in src]),
                            ("sentence", [d.doc_id for d in tgt])]
        assert len(src) == len(tgt) == 5
        # The report of embedding every article of both pools first.
        table = load_word_vectors(workspace / "vectors.txt")
        every_src, every_tgt = (
            [*annotated.values(), *noise] for annotated, noise in
            ((dataset.src_docs, dataset.noise_src), (dataset.tgt_docs, dataset.noise_tgt)))
        scorer = CosineScorer(embed_corpus(every_src, "sentence", table),
                              embed_corpus(every_tgt, "sentence", table))
        expected = eval_joint(mode, dataset, scorer, doc_embedder=table,
                              k_doc=3, theta_d=0.3, n_noise=3, seed=7)
        assert json.loads(result.stdout) == json.loads(expected.to_json(include_timing=False))

    def test_eval_joint_rescore(self, workspace, eval_dir) -> None:
        result = invoke(
            "eval", "joint", "--data-dir", str(eval_dir), "--mode", "lha",
            "--vectors", str(workspace / "vectors.txt"),
            "--k-doc", "2", "--theta-d", "0.6", "--n-noise", "1",
            "--rescore", "wmd", "--rescore-top", "2",
        )
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["details"]["rescorer"] == "wmd"
        assert report["details"]["rescored"] <= report["details"]["candidates"]


    def test_eval_sent_wmd_scores_every_cell(self, workspace, eval_dir, monkeypatch) -> None:
        # The eval commands never gate the wmd scorer: F1max sweeps every
        # threshold, so every cell holds its exact value. The reports are
        # the ones the ungated scorer gave before the gate existed.
        built = []

        def recording_make_scorer(*args, **kwargs):
            built.append(make_scorer(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr("lha.cli.make_scorer", recording_make_scorer)
        expected = {
            "good": (0.8761006569007046, 2),
            "good,good_partial": (0.5672122459933009, 3),
        }
        for labels, (threshold, positives) in expected.items():
            result = invoke("eval", "sent", "--data-dir", str(eval_dir), "--scorer", "wmd",
                            "--vectors", str(workspace / "vectors.txt"),
                            "--positive-labels", labels)
            assert result.exit_code == 0, result.output
            assert json.loads(result.stdout) == {
                "best_threshold": threshold,
                "details": {"doc_pairs": 2, "positive_labels": labels.split(","),
                            "protocol": "sentence", "scorer": "wmd"},
                "f1_max": 1.0, "positives_total": positives, "precision_at_max": 1.0,
                "recall_at_max": 1.0, "retrieved_at_max": positives, "scored_pairs": 5,
            }
        result = invoke("eval", "joint", "--data-dir", str(eval_dir), "--mode", "lha",
                        "--vectors", str(workspace / "vectors.txt"), "--k-doc", "2",
                        "--theta-d", "0.6", "--n-noise", "1", "--rescore", "wmd")
        assert result.exit_code == 0, result.output
        wmd_scorers = [s for s in built if s.kind == "wmd"]
        assert len(wmd_scorers) == 3
        assert all(s.floor is None and s.pruned == 0 for s in wmd_scorers)
        assert all(s.solved == s.cells > 0 for s in wmd_scorers)

    @pytest.mark.parametrize("command", [
        ["doc", "--vectors"], ["joint", "--mode", "lha", "--vectors"],
    ], ids=["doc", "joint"])
    def test_n_noise_beyond_the_pool(self, workspace, eval_dir, command, monkeypatch) -> None:
        # One noise article per side: asking for more is a usage error,
        # reported before any vectors are read or pair scored.
        def never(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr("lha.cli.load_word_vectors", never)
        result = invoke("eval", *command, str(workspace / "vectors.txt"),
                        "--data-dir", str(eval_dir), "--n-noise", "5")
        assert result.exit_code == 2, result.output
        assert "--n-noise" in result.output
        assert "source noise pool, which has 1 eligible documents" in result.output


class TestEvalParameters:
    """Bad eval options are usage errors naming the option, found before the
    dataset is read (the directory here holds none of its files)."""

    @pytest.mark.parametrize("options, name", [
        (["joint", "--mode", "lha", "--k-doc", "0"], "--k-doc"),
        (["joint", "--mode", "lha", "--theta-d", "nan"], "--theta-d"),
        (["joint", "--mode", "lha", "--theta-d", "1.5"], "--theta-d"),
        (["joint", "--mode", "lha", "--rescore-top", "0"], "--rescore-top"),
        (["joint", "--mode", "global", "--global-top", "0"], "--global-top"),
        (["joint", "--mode", "lha", "--n-noise", "-1"], "--n-noise"),
        (["doc", "--n-noise", "-1"], "--n-noise"),
        (["sent", "--positive-labels", "goood"], "--positive-labels"),
        (["joint", "--mode", "lha", "--positive-labels", "good,goood"],
         "--positive-labels"),
    ], ids=["k-doc", "theta-d-nan", "theta-d-range", "rescore-top", "global-top",
            "joint-n-noise", "doc-n-noise", "sent-labels", "joint-labels"])
    def test_bad_value(self, tmp_path, options, name) -> None:
        command, *rest = options
        result = invoke("eval", command, "--data-dir", str(tmp_path), *rest)
        assert result.exit_code == 2, result.output
        assert name in result.output
        assert "evaluation dataset incomplete" not in result.output

    def test_unknown_label_lists_the_labels(self, tmp_path) -> None:
        result = invoke("eval", "sent", "--data-dir", str(tmp_path),
                        "--positive-labels", "good,goood")
        assert result.exit_code == 2, result.output
        assert "'goood'" in result.output
        assert "good, good_partial, partial, nonvalid" in result.output


def test_eval_cosine_rows_are_the_run_rows(tmp_path) -> None:
    """The cosine scorer `lha eval sent --vectors` builds gives each
    one-sentence group of `lha run` its score, bit for bit."""
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(40)]
    write_vectors(tmp_path / "vectors.txt",
                  {w: list(rng.normal(size=16)) for w in words})
    source, target = [], []
    for d in range(6):
        sentences = [" ".join(rng.choice(words, size=8)) + "." for _ in range(4)]
        edited = [s.replace(s.split()[2], str(rng.choice(words)), 1) for s in sentences]
        source.append({"id": f"d{d}", "sentences": sentences})
        # Every other target document reuses its source document's id.
        target.append({"id": f"d{d}" if d % 2 else f"t{d}",
                       "sentences": edited[::-1]})
    write_jsonl(tmp_path / "source.jsonl", source)
    write_jsonl(tmp_path / "target.jsonl", target)
    (tmp_path / "config.json").write_text(json.dumps({
        "source_corpus": str(tmp_path / "source.jsonl"),
        "target_corpus": str(tmp_path / "target.jsonl"),
        "out_dir": str(tmp_path / "out"),
        "word_vectors": str(tmp_path / "vectors.txt"),
        "k_doc": 2, "k_sent": 2, "theta_d": 0.0, "theta_s": 0.5, "min_overlap": 0.0,
    }), encoding="utf-8")
    result = invoke("run", "--config", str(tmp_path / "config.json"))
    assert result.exit_code == 0, result.output

    src_docs = corpus_index(load_corpus(tmp_path / "source.jsonl", "src"))
    tgt_docs = corpus_index(load_corpus(tmp_path / "target.jsonl", "tgt"))
    table = load_word_vectors(tmp_path / "vectors.txt")
    scorer = make_scorer("cosine", **_sentence_matrices(
        None, table, src_docs.values(), tgt_docs.values()
    ))
    checked = 0
    for g in read_groups(tmp_path / "out" / "groups.jsonl"):
        if len(g.source_ids) != 1 or len(g.target_ids) != 1:
            continue
        src, tgt = src_docs[g.source_doc], tgt_docs[g.target_doc]
        values = sentence_sim_matrix(src, tgt, scorer)
        i = [s.uid for s in src.sentences].index(g.source_ids[0])
        j = [s.uid for s in tgt.sentences].index(g.target_ids[0])
        assert values[i, j] == g.score, (g.source_ids, g.target_ids)
        checked += 1
    assert checked >= 12


class TestSharedIds:
    def test_align_sents_reads_each_side_from_its_own_file(self, tmp_path) -> None:
        # Both corpora hold doc A; the target's A#0 is the weather sentence.
        write_jsonl(tmp_path / "source.jsonl", [
            {"id": "A", "sentences": ["The cat and the dog.", "Rain and snow."]},
        ])
        write_vectors(tmp_path / "vectors.txt", _TOY_VECTORS)
        outputs = {}
        for tgt_id in ("A", "B"):
            corpus = write_jsonl(tmp_path / f"target_{tgt_id}.jsonl", [
                {"id": tgt_id, "sentences": ["Rain and snow.", "The cat and the dog."]},
            ])
            for side, path in (("src", tmp_path / "source.jsonl"), ("tgt", corpus)):
                invoke("embed", "--corpus", str(path), "--level", "sent",
                       "--vectors", str(tmp_path / "vectors.txt"),
                       "--out", str(tmp_path / f"{side}_{tgt_id}.lhae"))
            pairs = tmp_path / f"pairs_{tgt_id}.tsv"
            pairs.write_text(f"A\t{tgt_id}\t1.0\n", encoding="utf-8")
            out = tmp_path / f"groups_{tgt_id}.jsonl"
            result = invoke(
                "align-sents", "--doc-pairs", str(pairs),
                "--source-corpus", str(tmp_path / "source.jsonl"),
                "--target-corpus", str(corpus),
                "--source-sent-embeddings", str(tmp_path / f"src_{tgt_id}.lhae"),
                "--target-sent-embeddings", str(tmp_path / f"tgt_{tgt_id}.lhae"),
                "--k", "1", "--theta-s", "0.6", "--min-overlap", "0.0",
                "--out", str(out),
            )
            assert result.exit_code == 0, result.output
            outputs[tgt_id] = out.read_text(encoding="utf-8")
        assert outputs["A"] == outputs["B"].replace('"B', '"A')
        assert {(g.source_text, g.target_text)
                for g in read_groups(tmp_path / "groups_A.jsonl")} == {
            ("The cat and the dog.", "The cat and the dog."),
            ("Rain and snow.", "Rain and snow."),
        }

    def test_align_sents_needs_both_embedding_files(self, workspace) -> None:
        invoke("embed", "--corpus", str(workspace / "source.jsonl"), "--level", "sent",
               "--vectors", str(workspace / "vectors.txt"),
               "--out", str(workspace / "src.lhae"))
        (workspace / "pairs.tsv").write_text("s1\tt1\t1.0\n", encoding="utf-8")
        result = invoke(
            "align-sents", "--doc-pairs", str(workspace / "pairs.tsv"),
            "--source-corpus", str(workspace / "source.jsonl"),
            "--target-corpus", str(workspace / "target.jsonl"),
            "--vectors", str(workspace / "vectors.txt"),
            "--source-sent-embeddings", str(workspace / "src.lhae"),
            "--theta-s", "0.6", "--out", str(workspace / "g.jsonl"),
        )
        assert result.exit_code == 2
        assert "--target-sent-embeddings" in result.output

    @staticmethod
    def one_matrix(eval_dir: Path, vectors: Path, level: str) -> Path:
        """Embed both sides of the eval set, noise included, into one file."""
        merged = eval_dir / "merged.jsonl"
        merged.write_text("".join(
            (eval_dir / name).read_text(encoding="utf-8")
            for name in ("source_docs.jsonl", "target_docs.jsonl",
                         "noise_source_docs.jsonl", "noise_target_docs.jsonl")
        ), encoding="utf-8")
        out = eval_dir / f"{level}.lhae"
        result = invoke("embed", "--corpus", str(merged), "--level", level,
                        "--vectors", str(vectors), "--out", str(out))
        assert result.exit_code == 0, result.output
        return out

    def test_one_matrix_flags_work_without_shared_ids(self, workspace, eval_dir) -> None:
        vectors = workspace / "vectors.txt"
        sents = self.one_matrix(eval_dir, vectors, "sent")
        docs = self.one_matrix(eval_dir, vectors, "doc")
        result = invoke("eval", "sent", "--data-dir", str(eval_dir),
                        "--sent-embeddings", str(sents))
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["f1_max"] == 1.0
        result = invoke("eval", "doc", "--data-dir", str(eval_dir),
                        "--doc-embeddings", str(docs), "--n-noise", "1")
        assert result.exit_code == 0, result.output
        result = invoke("eval", "joint", "--data-dir", str(eval_dir), "--mode", "lha",
                        "--sent-embeddings", str(sents), "--doc-embeddings", str(docs),
                        "--k-doc", "2", "--theta-d", "0.6", "--n-noise", "1")
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("command, flag, level, shared", [
        (["eval", "sent"], "--sent-embeddings", "sent", "'s1#0'"),
        (["eval", "doc", "--n-noise", "1"], "--doc-embeddings", "doc", "'s1'"),
        (["eval", "joint", "--mode", "global", "--n-noise", "1"],
         "--sent-embeddings", "sent", "'s1#0'"),
        (["eval", "joint", "--mode", "lha", "--n-noise", "1"],
         "--doc-embeddings", "doc", "'s1'"),
    ])
    def test_one_matrix_flags_reject_shared_ids(
        self, workspace, eval_dir, command, flag, level, shared
    ) -> None:
        vectors = workspace / "vectors.txt"
        target = eval_dir / "target_docs.jsonl"
        target.write_text(target.read_text(encoding="utf-8").replace('"t1"', '"s1"'),
                          encoding="utf-8")
        (eval_dir / "doc_pairs.tsv").write_text("s1\ts1\ns2\tt2\n", encoding="utf-8")
        # the ids clash, so no one file can cover both sides; any file will do
        matrix = eval_dir / "source.lhae"
        invoke("embed", "--corpus", str(eval_dir / "source_docs.jsonl"), "--level", level,
               "--vectors", str(vectors), "--out", str(matrix))
        result = invoke(*command, "--data-dir", str(eval_dir), "--vectors", str(vectors),
                        flag, str(matrix))
        assert result.exit_code == 2
        assert flag in result.output and shared in result.output


class TestVectorsReadOnlyWhenUsed:
    """--vectors is read only by a scorer or embedder that uses it; given to
    any other, it is not opened and changes no output."""

    @pytest.fixture
    def loads(self, monkeypatch) -> list[str]:
        calls: list[str] = []

        def counting(path, vocabulary=None):
            calls.append(path)
            return load_word_vectors(path, vocabulary)

        monkeypatch.setattr("lha.cli.load_word_vectors", counting)
        return calls

    @staticmethod
    def align_sents(workspace: Path, *options: str) -> bytes:
        out = workspace / "groups.jsonl"
        out.unlink(missing_ok=True)
        result = invoke(
            "align-sents", "--doc-pairs", str(workspace / "doc_pairs.tsv"),
            "--source-corpus", str(workspace / "source.jsonl"),
            "--target-corpus", str(workspace / "target.jsonl"),
            "--k", "2", "--min-overlap", "0.2", "--out", str(out), *options,
        )
        assert result.exit_code == 0, result.output
        return out.read_bytes()

    @pytest.mark.parametrize("options, reads", [
        (["--scorer", "overlap", "--theta-s", "0.3"], 0),
        (["--scorer", "bm25", "--theta-s", "0.5"], 0),
        (["--scorer", "cosine", "--theta-s", "0.6", "--source-sent-embeddings", "SRC",
          "--target-sent-embeddings", "TGT"], 0),
        (["--scorer", "cosine", "--theta-s", "0.6"], 1),
        (["--scorer", "wmd", "--theta-s", "0.6"], 1),
        (["--scorer", "rwmd", "--theta-s", "0.6"], 1),
    ], ids=["overlap", "bm25", "cosine-embeddings", "cosine", "wmd", "rwmd"])
    def test_align_sents(self, workspace, loads, options, reads) -> None:
        vectors = str(workspace / "vectors.txt")
        TestStageCommands().run_stages(workspace)
        for side, corpus in (("SRC", "source.jsonl"), ("TGT", "target.jsonl")):
            invoke("embed", "--corpus", str(workspace / corpus), "--level", "sent",
                   "--vectors", vectors, "--out", str(workspace / f"{side}.lhae"))
        options = [str(workspace / f"{o}.lhae") if o in ("SRC", "TGT") else o
                   for o in options]
        loads.clear()
        with_vectors = self.align_sents(workspace, *options, "--vectors", vectors)
        assert loads == [vectors] * reads
        assert b'"score"' in with_vectors
        if reads == 0:
            assert self.align_sents(workspace, *options) == with_vectors

    @pytest.mark.parametrize("command, reads", [
        (["sent", "--scorer", "overlap"], 0),
        (["sent", "--scorer", "bm25"], 0),
        (["sent", "--sent-embeddings", "SENT"], 0),
        (["sent", "--scorer", "wmd"], 1),
        (["sent"], 1),
        (["doc", "--doc-embeddings", "DOC", "--n-noise", "1"], 0),
        (["doc", "--n-noise", "1"], 1),
        (["joint", "--mode", "global", "--sent-embeddings", "SENT", "--n-noise", "1"], 0),
        (["joint", "--mode", "lha", "--sent-embeddings", "SENT", "--doc-embeddings", "DOC",
          "--k-doc", "2", "--theta-d", "0.6", "--n-noise", "1"], 0),
        (["joint", "--mode", "lha", "--sent-embeddings", "SENT", "--k-doc", "2",
          "--theta-d", "0.6", "--n-noise", "1"], 1),
        (["joint", "--mode", "global", "--sent-embeddings", "SENT", "--n-noise", "1",
          "--rescore", "rwmd"], 1),
    ])
    def test_eval(self, workspace, eval_dir, loads, command, reads) -> None:
        vectors = workspace / "vectors.txt"
        matrices = {
            "SENT": str(TestSharedIds.one_matrix(eval_dir, vectors, "sent")),
            "DOC": str(TestSharedIds.one_matrix(eval_dir, vectors, "doc")),
        }
        command = ["eval", *(matrices.get(o, o) for o in command),
                   "--data-dir", str(eval_dir)]
        loads.clear()
        with_vectors = invoke(*command, "--vectors", str(vectors))
        assert with_vectors.exit_code == 0, with_vectors.output
        assert loads == [str(vectors)] * reads
        assert "f1_max" in with_vectors.stdout
        if reads == 0:
            assert invoke(*command).stdout == with_vectors.stdout


class TestCorporaVocabulary:
    """A command reads from --vectors only the words of the corpora it
    parsed, and writes what a table of every word gives."""

    @pytest.fixture
    def vocabularies(self, monkeypatch) -> list:
        seen: list = []

        def loading(path, vocabulary=None):
            seen.append(vocabulary)
            return load_word_vectors(path, vocabulary)

        monkeypatch.setattr("lha.cli.load_word_vectors", loading)
        return seen

    @staticmethod
    def words(*paths: Path) -> set[str]:
        return {t.normalized for p in paths for d in load_corpus(p) for t in d.tokens()}

    @staticmethod
    def every_word(monkeypatch) -> None:
        monkeypatch.setattr("lha.cli.load_word_vectors",
                            lambda path, vocabulary: load_word_vectors(path))

    @pytest.mark.parametrize("scorer", ["cosine", "wmd"])
    def test_align_sents(self, workspace, vocabularies, monkeypatch, scorer) -> None:
        pairs = TestStageCommands().run_stages(workspace)
        vocabularies.clear()

        def align(out: Path) -> bytes:
            result = invoke(
                "align-sents", "--doc-pairs", str(pairs),
                "--source-corpus", str(workspace / "source.jsonl"),
                "--target-corpus", str(workspace / "target.jsonl"),
                "--vectors", str(workspace / "vectors.txt"), "--scorer", scorer,
                "--k", "2", "--theta-s", "0.6", "--min-overlap", "0.2", "--out", str(out),
            )
            assert result.exit_code == 0, result.output
            return out.read_bytes()

        kept = align(workspace / "kept.jsonl")
        assert vocabularies == [self.words(workspace / "source.jsonl",
                                           workspace / "target.jsonl")]
        assert len(vocabularies[0] & set(_TOY_VECTORS)) < len(_TOY_VECTORS)
        self.every_word(monkeypatch)
        assert align(workspace / "all.jsonl") == kept and b'"score"' in kept

    @pytest.mark.parametrize("level", ["doc", "sent"])
    def test_embed(self, workspace, vocabularies, monkeypatch, level) -> None:
        def embed(out: Path) -> bytes:
            result = invoke("embed", "--corpus", str(workspace / "target.jsonl"),
                            "--level", level, "--vectors", str(workspace / "vectors.txt"),
                            "--out", str(out))
            assert result.exit_code == 0, result.output
            return out.read_bytes()

        kept = embed(workspace / "kept.lhae")
        assert vocabularies == [self.words(workspace / "target.jsonl")]
        self.every_word(monkeypatch)
        assert embed(workspace / "all.lhae") == kept

    @pytest.mark.parametrize("command", [
        ["sent"], ["sent", "--scorer", "rwmd"], ["doc", "--n-noise", "1"],
        ["joint", "--mode", "lha", "--k-doc", "2", "--theta-d", "0.3", "--n-noise", "1",
         "--rescore", "wmd"],
    ], ids=["sent", "sent-rwmd", "doc", "joint"])
    def test_eval(self, workspace, eval_dir, vocabularies, monkeypatch, command) -> None:
        args = ["eval", *command, "--data-dir", str(eval_dir),
                "--vectors", str(workspace / "vectors.txt")]
        kept = invoke(*args)
        assert kept.exit_code == 0, kept.output
        assert vocabularies == [self.words(*(eval_dir / f"{name}.jsonl" for name in (
            "source_docs", "target_docs", "noise_source_docs", "noise_target_docs")))]
        self.every_word(monkeypatch)
        assert invoke(*args).stdout == kept.stdout

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_corpus_error_names_the_file(self, workspace, side) -> None:
        bad = workspace / f"bad_{side}.jsonl"
        write_jsonl(bad, [{"id": "ok", "text": "Fine."}, {"id": "x", "text": 5}])
        message = f"{bad}: line 2: document 'x': 'text' must be a string"
        result = invoke("run", "--config", str(workspace / "config.json"),
                        "--set", f"{side}_corpus={bad}")
        assert result.exit_code == 1 and message in result.output
        pairs = TestStageCommands().run_stages(workspace)
        corpora = {"source": workspace / "source.jsonl", "target": workspace / "target.jsonl"}
        corpora[side] = bad
        result = invoke("align-sents", "--doc-pairs", str(pairs),
                        "--source-corpus", str(corpora["source"]),
                        "--target-corpus", str(corpora["target"]), "--scorer", "overlap",
                        "--theta-s", "0.1", "--out", str(workspace / "groups.jsonl"))
        assert result.exit_code == 2 and message in result.output
        result = invoke("embed", "--corpus", str(bad), "--level", "doc",
                        "--vectors", str(workspace / "vectors.txt"),
                        "--out", str(workspace / "bad.lhae"))
        assert result.exit_code == 2 and message in result.output


class TestVectorFileErrors:
    """A malformed --vectors file is a usage error (exit 2) that names the
    file and the line, in every command that reads it."""

    @pytest.fixture
    def bad(self, workspace) -> Path:
        path = workspace / "bad.vec"
        path.write_text("3 3\ncat 1 0 0\ndog nan 0 0\nsun 0 0 1\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("command", [
        ["embed", "--corpus", "SOURCE", "--level", "doc", "--out", "OUT"],
        ["embed", "--corpus", "SOURCE", "--level", "sent", "--out", "OUT"],
        ["align-sents", "--doc-pairs", "PAIRS", "--source-corpus", "SOURCE",
         "--target-corpus", "TARGET", "--theta-s", "0.6", "--out", "OUT"],
        ["align-sents", "--doc-pairs", "PAIRS", "--source-corpus", "SOURCE",
         "--target-corpus", "TARGET", "--scorer", "wmd", "--theta-s", "0.6", "--out", "OUT"],
        ["eval", "sent", "--data-dir", "EVAL"],
        ["eval", "doc", "--data-dir", "EVAL", "--n-noise", "1"],
        ["eval", "joint", "--mode", "lha", "--data-dir", "EVAL", "--k-doc", "2",
         "--theta-d", "0.3", "--n-noise", "1"],
    ], ids=["embed-doc", "embed-sent", "align-sents", "align-sents-wmd", "eval-sent",
            "eval-doc", "eval-joint"])
    def test_usage_error_names_the_file(self, workspace, eval_dir, bad, command) -> None:
        places = {
            "SOURCE": workspace / "source.jsonl", "TARGET": workspace / "target.jsonl",
            "OUT": workspace / "out.bin", "EVAL": eval_dir,
            "PAIRS": workspace / "doc_pairs.tsv",
        }
        if "PAIRS" in command:
            TestStageCommands().run_stages(workspace)
        result = invoke(*(str(places.get(a, a)) for a in command), "--vectors", str(bad))
        assert result.exit_code == 2, result.output
        assert f"{bad}: line 3: non-finite vector component" in result.output
        assert not places["OUT"].exists()

    def test_run_names_the_file(self, workspace, bad) -> None:
        result = invoke("run", "--config", str(workspace / "config.json"),
                        "--set", f"word_vectors={bad}")
        assert result.exit_code == 1
        assert (f"stage 'embed_docs_src' failed: {bad}: line 3: non-finite vector component"
                in result.output)


class TestUnusedVectorLines:
    """How the lines of --vectors that no corpus word uses are written changes
    no output, whether a load proves their shape or reads their chunk as
    text; a malformed one fails with the per-line rules' message."""

    # Lines of words the corpora do not hold: plain, and in forms only the
    # per-line rules read.
    UNUSED = [
        ("zebra 0.5 -0.25 1.0\n", "zebra 0.5 -0.25 1.0\r\n"),
        ("yak 0.5 0.25 0.125\n", "yak\t0.5\t0.25 0.125\n"),
        ("xylo 0.001 2.0 3.0\n", "xylo 1e-3 2.0 3.0\n"),
        ("wolf 0.5 1.0 2.0\n", "wolf +.5 1.0 2.0\n"),
        ("vole 10.0 2.0 3.0\n", "vole 1_0 2.0 3.0\n"),
        ("urchin -0.0 0.0 1.0\n", "urchin -0 0.0 1.0\n"),
        ("tapir 0.5 1.0 2.0\n", "tapir\u00a00.5\u00a01.0 2.0\n"),
    ]

    @pytest.fixture(autouse=True)
    def chunk(self, monkeypatch) -> None:
        # Three lines a chunk, so some chunks are proved and some read as text.
        monkeypatch.setattr("lha.embeddings._LINES", 3)

    def write(self, path: Path, form: int, bad: str | None = None) -> Path:
        """The toy vectors, one unused line after each, in ``form`` (0:
        plain, 1: odd); ``bad`` replaces the fourth unused line."""
        used = [f"{w} " + " ".join(f"{x:.6f}" for x in v) + "\n"
                for w, v in _TOY_VECTORS.items()]
        unused = [line[form] for line in self.UNUSED]
        if bad is not None:
            unused[3] = bad
        body = [line for pair in zip(used, unused * 2) for line in pair]
        path.write_bytes(f"{len(body)} 3\n{''.join(body)}".encode("utf-8"))
        return path

    def outputs(self, workspace: Path, vectors: Path) -> dict:
        """groups.jsonl of cosine and wmd runs and of align-sents with rwmd,
        or each command's exit code and output where it fails."""
        out = {}
        for scorer in ("cosine", "wmd"):
            out_dir = workspace / f"{vectors.stem}-{scorer}"
            result = invoke("run", "--config", str(workspace / "config.json"),
                            "--set", f"word_vectors={vectors}",
                            "--set", f"out_dir={out_dir}", "--set", f"scorer={scorer}")
            out[scorer] = ((out_dir / "groups.jsonl").read_bytes() if result.exit_code == 0
                           else (result.exit_code, result.output))
        groups = workspace / f"{vectors.stem}-rwmd.jsonl"
        result = invoke("align-sents", "--doc-pairs", str(workspace / "pairs.tsv"),
                        "--source-corpus", str(workspace / "source.jsonl"),
                        "--target-corpus", str(workspace / "target.jsonl"),
                        "--scorer", "rwmd", "--vectors", str(vectors),
                        "--theta-s", "0.3", "--out", str(groups))
        out["rwmd"] = (groups.read_bytes() if result.exit_code == 0
                       else (result.exit_code, result.output))
        return out

    def test_odd_forms_change_no_output(self, workspace) -> None:
        (workspace / "pairs.tsv").write_text("s1\tt1\t1.0\ns2\tt2\t1.0\n", encoding="utf-8")
        plain = self.outputs(workspace, self.write(workspace / "plain.vec", 0))
        odd = self.outputs(workspace, self.write(workspace / "odd.vec", 1))
        assert plain == odd
        assert all(isinstance(groups, bytes) and groups.count(b"\n") >= 1
                   for groups in plain.values()), plain

    @pytest.mark.parametrize("form", [0, 1], ids=["plain", "odd"])
    def test_a_malformed_unused_line_names_its_line(self, workspace, form) -> None:
        (workspace / "pairs.tsv").write_text("s1\tt1\t1.0\n", encoding="utf-8")
        path = self.write(workspace / "bad.vec", form, bad="wolf 0.5 1.0 2.0.0\n")
        with pytest.raises(EmbeddingFormatError) as info:
            word_vectors_oracle(path)
        message = f"{path}: {info.value}"
        assert message.endswith(": line 9: unparsable vector component")
        out = self.outputs(workspace, path)
        assert out["cosine"][0] == out["wmd"][0] == 1
        assert f"stage 'embed_docs_src' failed: {message}" in out["cosine"][1]
        assert f"stage 'embed_docs_src' failed: {message}" in out["wmd"][1]
        assert out["rwmd"][0] == 2 and f"Error: {message}" in out["rwmd"][1]


class TestEmbeddingFileErrors:
    """A malformed .lhae file is a usage error (exit 2) that names the file,
    in every command that reads one."""

    @pytest.fixture
    def files(self, workspace) -> dict:
        (workspace / "bad.lhae").write_bytes(b"LHAE\x01")
        vectors = str(workspace / "vectors.txt")
        for side in ("source", "target"):
            for level in ("doc", "sent"):
                invoke("embed", "--corpus", str(workspace / f"{side}.jsonl"),
                       "--level", level, "--vectors", vectors,
                       "--out", str(workspace / f"{level}_{side}.lhae"))
        (workspace / "pairs.tsv").write_text("s1\tt1\t1.0\n", encoding="utf-8")
        return {
            "BAD": workspace / "bad.lhae", "OUT": workspace / "out.bin",
            "SOURCE": workspace / "source.jsonl", "TARGET": workspace / "target.jsonl",
            "PAIRS": workspace / "pairs.tsv", "VECTORS": workspace / "vectors.txt",
            **{f"{level.upper()}_{side.upper()}": workspace / f"{level}_{side}.lhae"
               for side in ("source", "target") for level in ("doc", "sent")},
        }

    @pytest.mark.parametrize("command", [
        ["embed", "--corpus", "SOURCE", "--level", "doc", "--out", "OUT"],
        ["align-docs", "--source-embeddings", "BAD", "--target-embeddings", "DOC_TARGET",
         "--out", "OUT"],
        ["align-docs", "--source-embeddings", "DOC_SOURCE", "--target-embeddings", "BAD",
         "--out", "OUT"],
        ["align-sents", "--doc-pairs", "PAIRS", "--source-corpus", "SOURCE",
         "--target-corpus", "TARGET", "--source-sent-embeddings", "BAD",
         "--target-sent-embeddings", "SENT_TARGET", "--theta-s", "0.6", "--out", "OUT"],
        ["align-sents", "--doc-pairs", "PAIRS", "--source-corpus", "SOURCE",
         "--target-corpus", "TARGET", "--source-sent-embeddings", "SENT_SOURCE",
         "--target-sent-embeddings", "BAD", "--theta-s", "0.6", "--out", "OUT"],
        ["eval", "sent", "--data-dir", "EVAL", "--sent-embeddings", "BAD"],
        ["eval", "doc", "--data-dir", "EVAL", "--n-noise", "1", "--doc-embeddings", "BAD"],
        ["eval", "joint", "--mode", "lha", "--data-dir", "EVAL", "--n-noise", "1",
         "--vectors", "VECTORS", "--doc-embeddings", "BAD"],
        ["eval", "joint", "--mode", "global", "--data-dir", "EVAL", "--n-noise", "1",
         "--sent-embeddings", "BAD"],
    ], ids=["embed", "align-docs-source", "align-docs-target", "align-sents-source",
            "align-sents-target", "eval-sent", "eval-doc", "eval-joint-doc",
            "eval-joint-sent"])
    def test_usage_error_names_the_file(self, files, eval_dir, command) -> None:
        places = {**files, "EVAL": eval_dir}
        args = [str(places.get(a, a)) for a in command]
        if command[0] == "embed":
            args += ["--strategy", f"precomputed:{files['BAD']}"]
        result = invoke(*args)
        assert result.exit_code == 2, result.output
        assert (f"{files['BAD']}: truncated file: expected 19 bytes for header, got 5"
                in result.output)
        assert not files["OUT"].exists()

    @pytest.fixture
    def faulty(self, workspace, eval_dir) -> dict:
        """One-matrix files of the eval set with one fault each: a missing
        target row, or a row of a sentence the corpus split does not make."""
        vectors = workspace / "vectors.txt"
        faults = {
            "SENT_MISSING": ("sent", lambda ids: [i for i in ids if i != "t1#1"]),
            "SENT_SPLIT": ("sent", lambda ids: [*ids, "s1#2"]),
            "DOC_MISSING": ("doc", lambda ids: [i for i in ids if i != "t1"]),
        }
        files = {}
        for name, (level, fault) in faults.items():
            whole = load_embeddings(TestSharedIds.one_matrix(eval_dir, vectors, level))
            ids = fault(whole.unit_ids)
            rows = np.ones((len(ids), whole.dim), dtype=np.float32)
            files[name] = eval_dir / f"{name.lower()}.lhae"
            save_embeddings(EmbeddingMatrix(ids, rows), files[name])
        return files

    @pytest.mark.parametrize("command, file, message", [
        (["eval", "sent"], "SENT_MISSING", "no embedding row for unit id 't1#1'"),
        (["eval", "sent"], "SENT_SPLIT", "sentence embedding row 's1#2' is not a "
         "sentence of document 's1' as the corpus is split"),
        (["eval", "doc", "--n-noise", "1"], "DOC_MISSING", "no embedding row for unit id 't1'"),
        (["eval", "joint", "--mode", "lha", "--n-noise", "1", "--vectors", "VECTORS"],
         "DOC_MISSING", "no embedding row for unit id 't1'"),
        (["eval", "joint", "--mode", "global", "--n-noise", "1"], "SENT_MISSING",
         "no embedding row for unit id 't1#1'"),
        (["eval", "joint", "--mode", "global", "--n-noise", "1"], "SENT_SPLIT",
         "sentence embedding row 's1#2' is not a sentence of document 's1' as the "
         "corpus is split"),
    ], ids=["eval-sent-missing", "eval-sent-split", "eval-doc-missing",
            "eval-joint-lha-missing", "eval-joint-global-missing", "eval-joint-global-split"])
    def test_a_row_error_names_the_file(
        self, files, faulty, eval_dir, command, file, message
    ) -> None:
        flag = "--doc-embeddings" if file.startswith("DOC") else "--sent-embeddings"
        args = [str(files.get(a, a)) for a in command]
        result = invoke(*args, "--data-dir", str(eval_dir), flag, str(faulty[file]))
        assert result.exit_code == 2, result.output
        assert f"{faulty[file]}: {message}" in result.output

    @pytest.mark.parametrize("command, unused", [
        (["align-sents", "--doc-pairs", "PAIRS", "--source-corpus", "SOURCE",
          "--target-corpus", "TARGET", "--scorer", "bm25", "--theta-s", "0.5",
          "--out", "OUT"],
         ["--source-sent-embeddings", "BAD", "--target-sent-embeddings", "BAD"]),
        (["eval", "joint", "--mode", "global", "--data-dir", "EVAL", "--n-noise", "1",
          "--vectors", "VECTORS"], ["--doc-embeddings", "BAD"]),
    ], ids=["align-sents-bm25", "eval-joint-global"])
    def test_an_unused_file_is_not_read(self, files, eval_dir, command, unused) -> None:
        places = {**files, "EVAL": eval_dir}
        outputs = []
        for args in (command, command + unused):
            files["OUT"].unlink(missing_ok=True)
            result = invoke(*(str(places.get(a, a)) for a in args))
            assert result.exit_code == 0, result.output
            written = files["OUT"].read_bytes() if files["OUT"].exists() else None
            outputs.append((result.stdout, written))
        assert outputs[0] == outputs[1]

    def test_run_names_the_file(self, workspace, files) -> None:
        result = invoke("run", "--config", str(workspace / "config.json"),
                        "--set", f"doc_embeddings_source={files['BAD']}",
                        "--set", f"doc_embeddings_target={files['DOC_TARGET']}")
        assert result.exit_code == 1
        assert (f"stage 'embed_docs_src' failed: {files['BAD']}: truncated file: "
                "expected 19 bytes for header, got 5" in result.output)


def test_malformed_doc_pairs_is_a_usage_error(workspace) -> None:
    pairs = workspace / "p.tsv"
    pairs.write_text("a\tt\n", encoding="utf-8")
    result = invoke("align-sents", "--doc-pairs", str(pairs),
                    "--source-corpus", str(workspace / "source.jsonl"),
                    "--target-corpus", str(workspace / "target.jsonl"),
                    "--scorer", "overlap", "--theta-s", "0.1",
                    "--out", str(workspace / "groups.jsonl"))
    assert result.exit_code == 2
    assert f"{pairs}: line 1: expected 3 tab-separated fields, got 2" in result.output
    assert not (workspace / "groups.jsonl").exists()


# The malformed files of TestMalformedInput: name -> (path under the
# workspace, bytes). The eval ones replace a file of the eval directory.
_CORPUS_LINE = b'{"id": "ok", "text": "Fine."}\n{"id": "x", "text": 5}\n'
_NOT_UTF8 = b'{"id": "ok", "text": "Caf\xe9."}\n'
_BAD_FILES = {
    "corpus-line": ("bad.jsonl", _CORPUS_LINE),
    "corpus-utf8": ("bad.jsonl", _NOT_UTF8),
    "stopwords": ("bad.txt", b"the\n\xff\n"),
    "vectors": ("bad.vec", b"2 3\ncat 1 0 0\ndog 1 0\n"),
    # A header naming 10**9 components a line.
    "huge-dim-vectors": ("huge.vec", b"2 1000000000\ncat 0.5 0.5\ndog 0.5 0.5\n"),
    "lhae": ("bad.lhae", b"LHAE\x01"),
    "doc-pairs": ("bad.tsv", b"s1\tt1\n"),
    "exclude": ("bad.tsv", b"one field\n"),
    "config": ("bad.json", b'{"out_dir": \n'),
    "eval-corpus-line": ("evaldata/source_docs.jsonl", _CORPUS_LINE),
    "eval-corpus-utf8": ("evaldata/target_docs.jsonl", _NOT_UTF8),
    "eval-doc-pairs": ("evaldata/doc_pairs.tsv", b"s1 t1\n"),
    "eval-doc-pair-id": ("evaldata/doc_pairs.tsv", b"s1\tt1\ns2\tt9\n"),
    "empty-lhae": ("empty.lhae", struct.pack("<4sHBQI", b"LHAE", 1, 0, 0, 3)),
    # A header naming 2**32 - 1 values a row: 16 GiB of rows in a 28-byte file.
    "huge-dim-lhae": ("huge.lhae", struct.pack("<4sHBQII", b"LHAE", 1, 0, 1, 0xFFFFFFFF, 1)
                      + b"a" + bytes(4)),
    # A header naming a 2**32 - 1 byte id in a 24-byte file.
    "huge-id-lhae": ("huge_id.lhae", struct.pack("<4sHBQII", b"LHAE", 1, 0, 1, 1, 0xFFFFFFFF)
                     + b"a"),
    "gold-label": ("evaldata/gold_pairs.jsonl",
                   b'{"source_key": "s1#0", "target_key": "t1#0", "label": "great"}\n'),
}
_EMBED = ["embed", "--corpus", "SOURCE", "--level", "doc", "--vectors", "VECTORS",
          "--out", "OUT"]
_ALIGN_SENTS = ["align-sents", "--doc-pairs", "PAIRS", "--source-corpus", "SOURCE",
                "--target-corpus", "TARGET", "--scorer", "wmd", "--vectors", "VECTORS",
                "--theta-s", "0.6", "--out", "OUT"]
_EVAL = {
    "sent": (["eval", "sent", "--data-dir", "EVAL", "--vectors", "VECTORS"],
             "--sent-embeddings"),
    "doc": (["eval", "doc", "--data-dir", "EVAL", "--n-noise", "1", "--vectors", "VECTORS"],
            "--doc-embeddings"),
    "joint": (["eval", "joint", "--mode", "lha", "--data-dir", "EVAL", "--n-noise", "1",
               "--vectors", "VECTORS"], "--doc-embeddings"),
}


def _bad(argv: list[str], place: str) -> list[str]:
    """``argv`` reading the malformed file at ``place``."""
    return ["BAD" if a == place else a for a in argv]


# Case id -> (argv, malformed file); BAD in an argument stands for the file.
_MALFORMED = {
    "embed-corpus-line": (_bad(_EMBED, "SOURCE"), "corpus-line"),
    "embed-corpus-utf8": (_bad(_EMBED, "SOURCE"), "corpus-utf8"),
    "embed-stopwords": ([*_EMBED, "--stopwords", "BAD"], "stopwords"),
    "embed-vectors": (_bad(_EMBED, "VECTORS"), "vectors"),
    "embed-huge-dim-vectors": (_bad(_EMBED, "VECTORS"), "huge-dim-vectors"),
    "embed-lhae": (["embed", "--corpus", "SOURCE", "--level", "doc",
                    "--strategy", "precomputed:BAD", "--out", "OUT"], "lhae"),
    "align-docs-lhae": (["align-docs", "--source-embeddings", "BAD",
                         "--target-embeddings", "DOC_TARGET", "--out", "OUT"], "lhae"),
    "align-docs-empty-target": (["align-docs", "--source-embeddings", "DOC_TARGET",
                                 "--target-embeddings", "BAD", "--out", "OUT"], "empty-lhae"),
    "align-docs-huge-dim": (["align-docs", "--source-embeddings", "BAD",
                             "--target-embeddings", "DOC_TARGET", "--out", "OUT"],
                            "huge-dim-lhae"),
    "align-docs-huge-id": (["align-docs", "--source-embeddings", "DOC_TARGET",
                            "--target-embeddings", "BAD", "--out", "OUT"], "huge-id-lhae"),
    "align-sents-corpus-line": (_bad(_ALIGN_SENTS, "TARGET"), "corpus-line"),
    "align-sents-corpus-utf8": (_bad(_ALIGN_SENTS, "SOURCE"), "corpus-utf8"),
    "align-sents-stopwords": ([*_ALIGN_SENTS, "--stopwords", "BAD"], "stopwords"),
    "align-sents-vectors": (_bad(_ALIGN_SENTS, "VECTORS"), "vectors"),
    "align-sents-lhae": (["align-sents", "--doc-pairs", "PAIRS", "--source-corpus", "SOURCE",
                          "--target-corpus", "TARGET", "--source-sent-embeddings",
                          "SENT_SOURCE", "--target-sent-embeddings", "BAD",
                          "--theta-s", "0.6", "--out", "OUT"], "lhae"),
    "align-sents-doc-pairs": (_bad(_ALIGN_SENTS, "PAIRS"), "doc-pairs"),
    "align-sents-exclude": ([*_ALIGN_SENTS, "--exclude", "BAD"], "exclude"),
    **{
        f"eval-{name}-{bad}": (argv, bad)
        for name, (argv, _) in _EVAL.items()
        for bad in ("eval-corpus-line", "eval-corpus-utf8", "eval-doc-pairs",
                    "eval-doc-pair-id", "gold-label")
    },
    **{f"eval-{name}-vectors": (_bad(argv, "VECTORS"), "vectors")
       for name, (argv, _) in _EVAL.items()},
    **{f"eval-{name}-lhae": ([*argv, flag, "BAD"], "lhae")
       for name, (argv, flag) in _EVAL.items()},
    "validate-config": (["validate", "--config", "BAD"], "config"),
    "run-config": (["run", "--config", "BAD"], "config"),
}


class TestMalformedInput:
    """Each malformed input file of each command is a usage error (exit 2),
    without a traceback, whose message starts with the file's path."""

    @pytest.fixture
    def places(self, workspace, eval_dir) -> dict:
        for side, level in (("target", "doc"), ("source", "sent")):
            invoke("embed", "--corpus", str(workspace / f"{side}.jsonl"), "--level", level,
                   "--vectors", str(workspace / "vectors.txt"),
                   "--out", str(workspace / f"{level}_{side}.lhae"))
        (workspace / "pairs.tsv").write_text("s1\tt1\t1.0\n", encoding="utf-8")
        return {
            "SOURCE": workspace / "source.jsonl", "TARGET": workspace / "target.jsonl",
            "VECTORS": workspace / "vectors.txt", "PAIRS": workspace / "pairs.tsv",
            "OUT": workspace / "out.bin", "EVAL": eval_dir,
            "DOC_TARGET": workspace / "doc_target.lhae",
            "SENT_SOURCE": workspace / "sent_source.lhae",
        }

    @pytest.mark.parametrize("case", list(_MALFORMED))
    def test_usage_error_starts_with_the_path(self, workspace, places, case) -> None:
        command, bad = _MALFORMED[case]
        name, content = _BAD_FILES[bad]
        path = workspace / name
        path.write_bytes(content)
        args = [str(places.get(a, a)).replace("BAD", str(path)) for a in command]
        result = invoke(*args)
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert f"Error: {path}: " in result.output
        assert not places["OUT"].exists()

    def test_exclude_is_read_before_the_vectors(self, workspace, places, monkeypatch) -> None:
        def load_word_vectors(*args):
            pytest.fail("the vectors were read")

        monkeypatch.setattr("lha.cli.load_word_vectors", load_word_vectors)
        (workspace / "bad.tsv").write_text("one field\n", encoding="utf-8")
        args = [str(places.get(a, a)) for a in _ALIGN_SENTS]
        result = invoke(*args, "--exclude", str(workspace / "bad.tsv"))
        assert result.exit_code == 2
        assert f"{workspace / 'bad.tsv'}: line 1: expected 2 tab-separated fields" in result.output

    @pytest.mark.parametrize("name", list(_EVAL))
    def test_eval_data_dir_lacking_a_file(self, places, name) -> None:
        (places["EVAL"] / "noise_target_docs.jsonl").unlink()
        argv, _ = _EVAL[name]
        result = invoke(*(str(places.get(a, a)) for a in argv))
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert (f"Error: evaluation dataset incomplete at {places['EVAL']}: "
                "missing noise_target_docs.jsonl." in result.output)

    @pytest.mark.parametrize("name", ["sent", "joint"])
    def test_positive_labels_that_no_gold_pair_carries(self, places, name) -> None:
        argv, _ = _EVAL[name]
        result = invoke(*(str(places.get(a, a)) for a in argv),
                        "--positive-labels", "nonvalid")
        assert result.exit_code == 2, result.output
        assert "Error: no gold pair is labelled nonvalid" in result.output


def test_one_list_of_scorers() -> None:
    """The CLI's scorer choices, the names validate_config accepts and the
    kinds make_scorer builds are one set."""
    for command in (main.commands["align-sents"], main.commands["eval"].commands["sent"]):
        option = next(p for p in command.params if p.name == "scorer")
        assert set(option.type.choices) == set(SCORERS), command.name
    config = PipelineConfig("s.jsonl", "t.jsonl", "out", word_vectors="v.vec")
    accepted = {
        kind for kind in (*SCORERS, "nope")
        if not any("scorer must be" in m for _, m in
                   validate_config(dataclasses.replace(config, scorer=kind)))
    }
    assert accepted == set(SCORERS)
    table = WordVectorTable(1, {"a": [1.0]})
    matrix = EmbeddingMatrix(["d#0"], np.ones((1, 1)))
    built = set()
    for kind in (*SCORERS, "nope"):
        try:
            make_scorer(kind, source=matrix, target=matrix, table=table,
                        target_docs=[doc("d", ["A cat."])])
        except ValueError as e:
            assert "unknown scorer kind" in str(e)
        else:
            built.add(kind)
    assert built == set(SCORERS)
