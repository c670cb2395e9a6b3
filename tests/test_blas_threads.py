"""No output depends on the BLAS thread count, and no run changes it.

Each differential case runs one ``lha`` command in two fresh interpreters,
one with ``OPENBLAS_NUM_THREADS=1`` and one with ``2``, and compares every
byte they write. The two-thread child reports its OS threads after the
document stage; with one thread only (one CPU, or no OpenBLAS) the
comparison shows nothing, and the case skips.

The in-process cases set every OpenBLAS library of this process to two
threads, and check that a run's document stage sees two and leaves two,
however the run ends and however runs overlap.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import os
import subprocess
import sys
import threading
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import lha.pipeline
from lha.cli import main
from lha.pipeline import PipelineConfig, PipelineStageError, run_pipeline
from conftest import child_env, write_jsonl, write_vectors
from test_pipeline import make_workspace

_TOPICS = 6
_WORDS_PER_TOPIC = 16

# Runs ``lha`` on its arguments and prints the OS thread count after each
# document-stage call.
_CHILD = """
import json, os, sys
import lha.pipeline
from lha.cli import main
align_documents = lha.pipeline.align_documents
threads = []
def counted(*args, **kwargs):
    pairs = align_documents(*args, **kwargs)
    threads.append(len(os.listdir("/proc/self/task")))
    return pairs
lha.pipeline.align_documents = counted
try:
    main(sys.argv[1:])
except SystemExit as stop:
    assert not stop.code, stop.code
print(json.dumps(threads))
"""

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="needs /proc/self/task to count threads")


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


def _lha(threads: int, *args: str) -> list[int]:
    """Run ``lha *args`` with OpenBLAS at ``threads``: the OS thread counts
    seen after each document-stage call."""
    proc = subprocess.run([sys.executable, "-c", _CHILD, "--quiet", *args],
                          env=child_env(OPENBLAS_NUM_THREADS=str(threads)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _outputs(out_dir: Path | str) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}


def _skip_unless_threaded(seen: list[int]) -> None:
    assert seen, "the document stage did not run"
    if max(seen) < 2:
        pytest.skip(f"OpenBLAS ran on one OS thread ({seen}): nothing to compare")


@pytest.mark.parametrize("scorer", ["cosine", "wmd"])
def test_run(tmp_path, scorer) -> None:
    config = _seeded_workspace(tmp_path, 7, scorer)
    outputs = {}
    for threads in (1, 2):
        run = dataclasses.replace(config, out_dir=str(tmp_path / f"out{threads}"))
        path = tmp_path / f"config{threads}.json"
        path.write_text(json.dumps(dataclasses.asdict(run)), encoding="utf-8")
        seen = _lha(threads, "run", "--config", str(path))
        outputs[threads] = _outputs(run.out_dir)
    _skip_unless_threaded(seen)
    assert {"groups.jsonl", "doc_pairs.tsv", "manifest.json", "docs_source.lhae"} <= set(
        outputs[1])
    assert outputs[1]["groups.jsonl"]
    assert outputs[2] == outputs[1]


def test_align_docs(tmp_path) -> None:
    config = _seeded_workspace(tmp_path, 8, "cosine")
    run_pipeline(config)
    out = Path(config.out_dir)
    pairs = {}
    for threads in (1, 2):
        path = tmp_path / f"pairs{threads}.tsv"
        seen = _lha(threads, "align-docs",
                    "--source-embeddings", str(out / "docs_source.lhae"),
                    "--target-embeddings", str(out / "docs_target.lhae"),
                    "--k", "3", "--theta-d", "0.0", "--out", str(path))
        pairs[threads] = path.read_bytes()
    _skip_unless_threaded(seen)
    assert pairs[1].count(b"\n") == 3 * 160
    assert pairs[2] == pairs[1]


def _openblas() -> list[tuple]:
    """The thread-count getter and setter of each OpenBLAS library mapped
    into this process."""
    paths = set()
    with open("/proc/self/maps", "rb") as fh:
        for line in fh:
            fields = line.split(maxsplit=5)
            if len(fields) == 6 and b"openblas" in os.path.basename(fields[5].rstrip()):
                paths.add(os.fsdecode(fields[5].rstrip()))
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in product(("scipy_", ""), ("64_", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return found


def _counts(libs: list[tuple]) -> list[int]:
    return [get() for get, _ in libs]


@pytest.fixture
def libs():
    """Every OpenBLAS library at two threads for the test, then its own count
    again, so that a run that changed the count would show on any machine."""
    found = _openblas()
    if not found:
        pytest.skip("no OpenBLAS library in this process")
    before = _counts(found)
    for _, set_ in found:
        set_(2)
    yield found
    for (_, set_), count in zip(found, before):
        set_(count)


class TestCountIsLeftAsSet:
    @pytest.fixture
    def seen(self, monkeypatch, libs) -> list[list[int]]:
        """The counts each ``align_documents`` call sees."""
        seen: list[list[int]] = []
        align_documents = lha.pipeline.align_documents

        def spy(*args, **kwargs):
            seen.append(_counts(libs))
            return align_documents(*args, **kwargs)

        monkeypatch.setattr(lha.pipeline, "align_documents", spy)
        return seen

    def test_normal_return(self, tmp_path, libs, seen) -> None:
        run_pipeline(make_workspace(tmp_path))
        assert seen == [[2] * len(libs)]
        assert _counts(libs) == [2] * len(libs)

    def test_failed_stage(self, tmp_path, monkeypatch, libs, seen) -> None:
        def fail(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(lha.pipeline, "align_sentences", fail)
        with pytest.raises(PipelineStageError, match="align_sents"):
            run_pipeline(make_workspace(tmp_path))
        assert seen == [[2] * len(libs)]
        assert _counts(libs) == [2] * len(libs)

    def test_run_command(self, tmp_path, libs, seen) -> None:
        config = make_workspace(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dataclasses.asdict(config)), encoding="utf-8")
        result = CliRunner().invoke(main, ["--quiet", "run", "--config", str(path)],
                                    catch_exceptions=False)
        assert result.exit_code == 0, result.output
        assert seen == [[2] * len(libs)]
        assert _counts(libs) == [2] * len(libs)

    def test_align_docs_command(self, tmp_path, libs, seen) -> None:
        config = make_workspace(tmp_path)
        run_pipeline(config)
        out = Path(config.out_dir)
        result = CliRunner().invoke(main, [
            "--quiet", "align-docs",
            "--source-embeddings", str(out / "docs_source.lhae"),
            "--target-embeddings", str(out / "docs_target.lhae"),
            "--out", str(tmp_path / "pairs.tsv"),
        ], catch_exceptions=False)
        assert result.exit_code == 0, result.output
        assert seen == [[2] * len(libs)] * 2
        assert _counts(libs) == [2] * len(libs)

    def test_overlapping_runs(self, tmp_path, monkeypatch, libs, seen) -> None:
        """The first run enters its document stage, the second starts and
        enters its own, and the first ends while the second is still in it:
        the order in which a save-and-restore of the count would leave the
        second run's saved count behind."""
        first_in, second_in, first_done = (threading.Event() for _ in range(3))
        align_documents = lha.pipeline.align_documents

        def meet(*args, **kwargs):
            if not first_in.is_set():
                first_in.set()
                assert second_in.wait(60)
            else:
                second_in.set()
                assert first_done.wait(60)
            return align_documents(*args, **kwargs)

        monkeypatch.setattr(lha.pipeline, "align_documents", meet)
        errors: list[BaseException] = []

        def run(name: str, done: threading.Event | None) -> None:
            try:
                run_pipeline(make_workspace(tmp_path / name))
            except BaseException as e:  # reported in the test's own thread
                errors.append(e)
                first_in.set()
                second_in.set()
            finally:
                if done is not None:
                    done.set()

        (tmp_path / "one").mkdir()
        (tmp_path / "two").mkdir()
        first = threading.Thread(target=run, args=("one", first_done))
        first.start()
        assert first_in.wait(60)
        second = threading.Thread(target=run, args=("two", None))
        second.start()
        first.join(120)
        second.join(120)
        assert not first.is_alive() and not second.is_alive()
        assert not errors, errors
        assert seen == [[2] * len(libs)] * 2
        assert _counts(libs) == [2] * len(libs)
