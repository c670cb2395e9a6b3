"""Shared builders and fixtures for the test suite."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import pytest

from lha.corpus import Document, Sentence, content_tokens, tokenize
from lha.embeddings import AvgEmbedder, WordVectorTable, embed_corpus
from lha.metrics import (
    Bm25Scorer,
    CosineScorer,
    OverlapScorer,
    Scorer,
    UnembeddableSentenceError,
    bm25,
    cosine,
    rwmd,
    to_similarity,
    unigram_overlap,
    wmd,
)
from lha.sent_align import FilterPolicy, filter_reason


def sent(text: str, doc_id: str = "d0", ordinal: int = 0) -> Sentence:
    return Sentence(doc_id=doc_id, ordinal=ordinal, text=text, tokens=tokenize(text))


def doc(
    doc_id: str,
    texts: list[str],
    tag: str = "source",
    title: str | None = None,
) -> Document:
    sentences = tuple(sent(t, doc_id=doc_id, ordinal=i) for i, t in enumerate(texts))
    return Document(doc_id=doc_id, dataset_tag=tag, sentences=sentences, title=title)


def filter_texts(source_text: str, target_text: str, policy: FilterPolicy) -> str | None:
    """``filter_reason`` for a group whose sides are these texts, each
    tokenised whole as one sentence."""
    return filter_reason(
        (sent(source_text, "s"),), (sent(target_text, "t"),), policy
    )


def cosine_scorer(
    table: WordVectorTable,
    source: Iterable[Document | Sentence],
    target: Iterable[Document | Sentence] | None = None,
) -> CosineScorer:
    """The cosine scorer over the unit rows ``embed_corpus`` averages from
    ``table`` (the rows ``lha run`` scores), one matrix per side. The target
    side defaults to the source's matrix; a bare sentence is embedded as a
    document of its own."""

    def rows(units: Iterable[Document | Sentence]):
        docs = [u if isinstance(u, Document) else Document(u.doc_id, "", (u,))
                for u in units]
        return embed_corpus(docs, "sentence", AvgEmbedder(table))

    source_rows = rows(source)
    return CosineScorer(source_rows, source_rows if target is None else rows(target))


def pair_score(
    scorer: Scorer, x: Sentence | Sequence[str], y: Sentence | Sequence[str]
) -> float:
    """The cell ``scorer.matrix([x], [y])`` should hold, from the module's
    per-pair metric. Except for cosine, a side may also be a bag of content
    tokens. A transport side with no in-vocabulary token scores 0."""
    if isinstance(scorer, CosineScorer):
        return cosine(scorer.source.row(x.uid), scorer.target.row(y.uid))
    x, y = (content_tokens(u) if isinstance(u, Sentence) else list(u) for u in (x, y))
    if isinstance(scorer, OverlapScorer):
        return unigram_overlap(x, y)
    if isinstance(scorer, Bm25Scorer):
        return bm25(x, y, scorer.stats)
    distance = {"wmd": wmd, "rwmd": rwmd}[scorer.kind]
    try:
        return to_similarity(distance(x, y, scorer.table))
    except UnembeddableSentenceError:
        return 0.0


def write_jsonl(path: Path, records: list[dict]) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


def write_vectors(path: Path, table: dict[str, list[float]]) -> Path:
    dim = len(next(iter(table.values())))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {dim}\n")
        for word, vec in table.items():
            fh.write(word + " " + " ".join(f"{x:.6f}" for x in vec) + "\n")
    return path


# A tiny hand vocabulary on the 3d axes: pets cluster on x, food on y,
# weather on z, so cosine structure between topics is predictable.
_TOY_VECTORS = {
    "cat": [1.0, 0.0, 0.0],
    "dog": [0.9, 0.1, 0.0],
    "kitten": [0.95, 0.05, 0.0],
    "puppy": [0.85, 0.15, 0.0],
    "apple": [0.0, 1.0, 0.0],
    "banana": [0.0, 0.9, 0.1],
    "bread": [0.1, 0.85, 0.0],
    "rain": [0.0, 0.0, 1.0],
    "snow": [0.0, 0.1, 0.9],
    "storm": [0.1, 0.0, 0.95],
    "sun": [0.2, 0.1, 0.8],
}


@pytest.fixture
def toy_table() -> WordVectorTable:
    vectors = {w: np.asarray(v, dtype=np.float64) for w, v in _TOY_VECTORS.items()}
    return WordVectorTable(dim=3, vectors=vectors)


@pytest.fixture
def toy_vectors_file(tmp_path: Path) -> Path:
    return write_vectors(tmp_path / "vectors.txt", _TOY_VECTORS)
