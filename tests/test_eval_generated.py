"""The evaluation protocols on a generated set (``evalset.py``), through the
command line: every scorer's sentence F1max, document identification, and
hierarchical against flat retrieval.

Each F1max is pinned as a regression value of this set and this code, not as
the paper's number. The tolerance, 0.01, is about one pair at the sweep's
cut: a last-bit change in the scores may move a tie across it, a change in
which pairs are scored or how moves more.
"""

from __future__ import annotations

import json
import logging

import pytest
from click.testing import CliRunner

from lha.cli import main
from evalset import write_eval_set

TOLERANCE = 0.01
N_NOISE = "60"


@pytest.fixture(autouse=True)
def reset_logging():
    # the CLI configures the root logger; drop its handler so the next
    # invocation does not write into a closed capture stream
    yield
    root = logging.getLogger()
    for handler in list(root.handlers):
        root.removeHandler(handler)


@pytest.fixture(scope="module")
def evalset(tmp_path_factory):
    return write_eval_set(tmp_path_factory.mktemp("evalset"))


def report(*args: str) -> dict:
    result = CliRunner().invoke(main, ["--quiet", *args], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return json.loads(result.stdout)


@pytest.mark.parametrize("scorer, f1_max", [
    ("cosine", 0.9004), ("overlap", 0.8716), ("bm25", 0.8327), ("rwmd", 0.8517),
    ("wmd", 0.8990),
])
def test_sentence_f1max(evalset, scorer, f1_max) -> None:
    data, vectors = evalset
    got = report("eval", "sent", "--data-dir", str(data), "--scorer", scorer,
                 "--vectors", str(vectors))
    assert got["positives_total"] == 142
    assert got["f1_max"] == pytest.approx(f1_max, abs=TOLERANCE)


def test_sentence_f1max_from_an_embedding_file(evalset, tmp_path) -> None:
    # `lha embed` writes the rows the --vectors route averages; read back
    # through --sent-embeddings they give the same report.
    data, vectors = evalset
    merged = tmp_path / "both.jsonl"
    merged.write_text((data / "source_docs.jsonl").read_text("utf-8")
                      + (data / "target_docs.jsonl").read_text("utf-8"), "utf-8")
    matrix = tmp_path / "sents.lhae"
    result = CliRunner().invoke(main, ["embed", "--corpus", str(merged), "--level", "sent",
                                       "--vectors", str(vectors), "--out", str(matrix)])
    assert result.exit_code == 0, result.output
    got = report("eval", "sent", "--data-dir", str(data), "--sent-embeddings", str(matrix))
    assert got == report("eval", "sent", "--data-dir", str(data), "--vectors", str(vectors))


def test_document_f1max(evalset) -> None:
    data, vectors = evalset
    got = report("eval", "doc", "--data-dir", str(data), "--vectors", str(vectors),
                 "--n-noise", N_NOISE)
    assert got["f1_max"] == pytest.approx(0.9000, abs=TOLERANCE)


def test_hierarchical_at_or_above_flat(evalset, capsys) -> None:
    data, vectors = evalset
    got = {
        mode: report("eval", "joint", "--data-dir", str(data), "--mode", mode,
                     "--vectors", str(vectors), "--n-noise", N_NOISE, "--include-timing")
        for mode in ("lha", "global")
    }
    assert got["lha"]["f1_max"] == pytest.approx(0.8664, abs=TOLERANCE)
    assert got["global"]["f1_max"] == pytest.approx(0.8664, abs=TOLERANCE)
    assert got["lha"]["f1_max"] >= got["global"]["f1_max"]
    # Timing is too noisy here to assert; the ratio is reported.
    ratio = got["global"]["wall_clock_sec"] / got["lha"]["wall_clock_sec"]
    with capsys.disabled():
        print(f"\nflat / hierarchical wall time on the generated set: {ratio:.1f}x")
