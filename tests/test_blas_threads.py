"""A run holds OpenBLAS at one thread (``one_blas_thread``).

The thread count must change no output bit, must be restored after the run
however it ends, and must do nothing where no OpenBLAS library is found.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import lha.embeddings
import lha.pipeline
from lha.cli import main
from lha.embeddings import one_blas_thread
from lha.pipeline import PipelineConfig, PipelineStageError, run_pipeline
from conftest import write_jsonl, write_vectors
from test_pipeline import make_workspace

_TOPICS = 6
_WORDS_PER_TOPIC = 16


def _seeded_workspace(root: Path, seed: int, scorer: str) -> PipelineConfig:
    """Topical corpora with 160 source and 240 target documents: each block
    of the document stage multiplies 160 x 16 by 16 x 240, a product large
    enough for OpenBLAS to split over threads when it may."""
    rng = np.random.default_rng(seed)
    dim = 16
    directions = rng.normal(size=(_TOPICS, dim))
    words = [[f"t{t}w{i}" for i in range(_WORDS_PER_TOPIC)] for t in range(_TOPICS)]
    write_vectors(root / "vectors.txt", {
        w: list(directions[t] + rng.normal(size=dim))
        for t in range(_TOPICS) for w in words[t]
    })

    def corpus(path: Path, prefix: str, n: int) -> None:
        write_jsonl(path, [
            {"id": f"{prefix}{d}", "sentences": [
                " ".join(rng.choice(words[d % _TOPICS], size=int(rng.integers(2, 6)))) + "."
                for _ in range(int(rng.integers(1, 4)))
            ]}
            for d in range(n)
        ])

    corpus(root / "source.jsonl", "s", 160)
    corpus(root / "target.jsonl", "t", 240)
    return PipelineConfig(
        source_corpus=str(root / "source.jsonl"),
        target_corpus=str(root / "target.jsonl"),
        out_dir=str(root / "out"),
        word_vectors=str(root / "vectors.txt"),
        scorer=scorer,
        k_doc=2,
        theta_d=0.0,
        theta_s=0.6,
        min_overlap=0.0,
        max_len_ratio=10.0,
    )


def _outputs(out_dir: Path | str) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}


def _counts() -> list[int]:
    return [get() for get, _ in lha.embeddings._openblas()]


@pytest.fixture
def rediscover():
    """Find the libraries again on the next entry, and after the test."""
    lha.embeddings._openblas.cache_clear()
    yield
    lha.embeddings._openblas.cache_clear()


@pytest.fixture
def two_threads():
    """Every OpenBLAS library at two threads for the test, then its own
    count again, so that holding one thread shows on any machine."""
    libs = lha.embeddings._openblas()
    if not libs:
        pytest.skip("no OpenBLAS library in this process")
    before = _counts()
    for _, set_ in libs:
        set_(2)
    yield
    for (_, set_), count in zip(libs, before):
        set_(count)


@pytest.mark.usefixtures("two_threads")
class TestOutputsDoNotDependOnThreads:
    """Every output is byte-identical on one BLAS thread and on two."""

    @pytest.mark.parametrize("scorer", ["cosine", "wmd"])
    def test_run_pipeline(self, tmp_path, monkeypatch, scorer) -> None:
        config = _seeded_workspace(tmp_path, 7, scorer)
        run_pipeline(config)
        held = _outputs(config.out_dir)
        assert {"groups.jsonl", "doc_pairs.tsv", "manifest.json", "docs_source.lhae"} <= set(held)
        assert held["groups.jsonl"]

        monkeypatch.setattr(lha.embeddings, "_openblas", lambda: ())
        free = dataclasses.replace(config, out_dir=str(tmp_path / "free"))
        run_pipeline(free)
        assert _outputs(free.out_dir) == held

    def test_align_docs_command(self, tmp_path) -> None:
        config = _seeded_workspace(tmp_path, 8, "cosine")
        run_pipeline(config)
        out = Path(config.out_dir)

        def align_docs(name: str) -> bytes:
            result = CliRunner().invoke(main, [
                "--quiet", "align-docs",
                "--source-embeddings", str(out / "docs_source.lhae"),
                "--target-embeddings", str(out / "docs_target.lhae"),
                "--k", "3", "--theta-d", "0.0", "--out", str(tmp_path / name),
            ], catch_exceptions=False)
            assert result.exit_code == 0, result.output
            return (tmp_path / name).read_bytes()

        with one_blas_thread():
            held = align_docs("held.tsv")
        assert align_docs("free.tsv") == held
        assert held.count(b"\n") == 3 * 160


@pytest.mark.usefixtures("two_threads")
class TestCountIsHeldAndRestored:
    @pytest.fixture
    def seen(self, monkeypatch) -> list[list[int]]:
        """The counts each ``align_documents`` call of a run sees."""
        seen: list[list[int]] = []
        align_documents = lha.pipeline.align_documents

        def spy(*args, **kwargs):
            seen.append(_counts())
            return align_documents(*args, **kwargs)

        monkeypatch.setattr(lha.pipeline, "align_documents", spy)
        return seen

    def test_normal_return(self, tmp_path, seen) -> None:
        run_pipeline(make_workspace(tmp_path))
        assert seen == [[1] * len(_counts())]
        assert _counts() == [2] * len(seen[0])

    def test_failed_stage(self, tmp_path, monkeypatch, seen) -> None:
        def fail(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(lha.pipeline, "align_sentences", fail)
        with pytest.raises(PipelineStageError, match="align_sents"):
            run_pipeline(make_workspace(tmp_path))
        assert seen == [[1] * len(_counts())]
        assert _counts() == [2] * len(seen[0])

    def test_run_command(self, tmp_path, seen) -> None:
        config = make_workspace(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dataclasses.asdict(config)), encoding="utf-8")
        result = CliRunner().invoke(main, ["--quiet", "run", "--config", str(path)],
                                    catch_exceptions=False)
        assert result.exit_code == 0, result.output
        assert seen == [[1] * len(_counts())]
        assert _counts() == [2] * len(seen[0])

    def test_nested_entries_restore_in_lifo_order(self) -> None:
        libs = lha.embeddings._openblas()
        with one_blas_thread():
            assert _counts() == [1] * len(libs)
            for _, set_ in libs:
                set_(3)
            with one_blas_thread():
                assert _counts() == [1] * len(libs)
            assert _counts() == [3] * len(libs)
        assert _counts() == [2] * len(libs)


@pytest.mark.usefixtures("rediscover")
class TestNoOpenBlasFound:
    @pytest.fixture(params=["unreadable", "no-library", "unloadable", "no-symbol"])
    def maps(self, request, tmp_path, monkeypatch) -> None:
        """A maps file in which discovery finds no OpenBLAS library."""
        path = tmp_path / "maps"
        # A loaded extension that neither is nor links an OpenBLAS library.
        other = np.random.mtrand.__file__
        library = tmp_path / "libopenblas_stub.so"
        if request.param == "unloadable":
            library.write_bytes(b"not a shared object")
        elif request.param == "no-symbol":
            os.symlink(other, library)
        if request.param != "unreadable":
            line = "7f0000000000-7f0000001000 r-xp 00000000 00:00 0          {}\n"
            named = [other, ""] if request.param == "no-library" else [library]
            path.write_text("".join(map(line.format, named)), encoding="utf-8")
        monkeypatch.setattr(lha.embeddings, "_MAPS", str(path))

    def test_does_nothing(self, maps) -> None:
        assert lha.embeddings._openblas() == ()
        with one_blas_thread():
            pass

    def test_run_outputs_unchanged(self, tmp_path, maps, monkeypatch) -> None:
        config = make_workspace(tmp_path)
        run_pipeline(config)
        assert lha.embeddings._openblas() == ()
        none_found = _outputs(config.out_dir)
        monkeypatch.undo()
        lha.embeddings._openblas.cache_clear()
        found = dataclasses.replace(config, out_dir=str(tmp_path / "found"))
        run_pipeline(found)
        assert _outputs(found.out_dir) == none_found
