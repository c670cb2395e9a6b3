"""Stage 1: pair each source document with its nearest target documents.

For every source embedding row the target index is queried for K neighbors,
a block of source rows at a time; pairs below theta_d are dropped. Output is
canonicalized by source id, then similarity descending, then target id, so
runs are comparable byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .ann_index import AnnIndex
from .corpus import InputError, naming
from .embeddings import EmbeddingMatrix

__all__ = ["DocPair", "align_documents", "write_doc_pairs", "read_doc_pairs"]

# Source rows scored per matrix product: at least _MIN_ROWS, and about
# _BLOCK_CELLS similarities. Each block adds a fixed cost of array calls
# around its product, so fewer, larger blocks are faster; the budget caps a
# block's similarities, and so the stage's peak memory, at about 1 MB.
_MIN_ROWS = 64
_BLOCK_CELLS = 2**17


@dataclass(frozen=True)
class DocPair:
    source_id: str
    target_id: str
    similarity: float


def align_documents(
    src: EmbeddingMatrix, tgt_index: AnnIndex, k: int, theta_d: float
) -> list[DocPair]:
    """Retrieve up to k targets per source document, keeping similarity >= theta_d.

    All-zero source rows have no meaningful cosine and are skipped. Ties at
    the k boundary break by lexicographic target id (the index guarantees
    this ordering).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if src.dim != tgt_index.dim:
        raise InputError(f"source dim {src.dim} != index dim {tgt_index.dim}")
    rows64 = src.rows.astype(np.float64)
    norms = np.linalg.norm(rows64, axis=1)
    # Sources in id order; query_block returns each one's neighbors by
    # similarity descending, then target id, so the pairs come out sorted.
    live = [i for i in sorted(range(src.count), key=src.unit_ids.__getitem__)
            if norms[i] > 0.0]
    step = max(_MIN_ROWS, _BLOCK_CELLS // max(tgt_index.size, 1))
    pairs: list[DocPair] = []
    for lo in range(0, len(live), step):
        block = live[lo : lo + step]
        for i, neighbors in zip(block, tgt_index.query_block(rows64[block], k)):
            pairs.extend(
                DocPair(src.unit_ids[i], nb.unit_id, nb.similarity)
                for nb in neighbors
                if nb.similarity >= theta_d
            )
    return pairs


def write_doc_pairs(pairs: Iterable[DocPair], path: Path | str) -> int:
    """Write pairs as TSV ``source_id<TAB>target_id<TAB>similarity``."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(f"{p.source_id}\t{p.target_id}\t{p.similarity:.6f}\n")
            n += 1
    return n


def read_doc_pairs(path: Path | str) -> list[DocPair]:
    pairs = []
    with naming(path), open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise InputError(
                    f"expected 3 tab-separated fields, got {len(fields)}", line_no
                )
            try:
                sim = float(fields[2])
            except ValueError as e:
                raise InputError(f"unparsable similarity {fields[2]!r}", line_no) from e
            pairs.append(DocPair(fields[0], fields[1], sim))
    return pairs
