"""Exact cosine nearest-neighbor index over embedding rows.

Every query scores all indexed rows with one matrix product, so results are
exact at every corpus size. A block of queries shares one product. Results
are ordered by similarity descending, then unit id ascending; identical rows
score identically wherever they sit in the matrix.

All-zero rows are excluded at build time and never returned. The index is
stored in the ``.lhae`` embedding format.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingMatrix, load_embeddings, save_embeddings

__all__ = [
    "Neighbor",
    "AnnIndex",
    "build_index",
]


@dataclass(frozen=True)
class Neighbor:
    unit_id: str
    similarity: float


class AnnIndex:
    """Cosine nearest-neighbor index over the non-zero rows of a matrix."""

    def __init__(self, unit_ids: list[str], rows: np.ndarray):
        rows64 = np.asarray(rows, dtype=np.float32).astype(np.float64)
        norms = np.linalg.norm(rows64, axis=1)
        keep = np.flatnonzero(norms > 0.0)
        self.unit_ids = [unit_ids[i] for i in keep]
        self._ids_arr = np.array(self.unit_ids, dtype=np.str_)
        self._rows64 = rows64[keep]
        self._row_norms = norms[keep]

    @property
    def dim(self) -> int:
        return self._rows64.shape[1]

    @property
    def size(self) -> int:
        return self._rows64.shape[0]

    def query(self, v: np.ndarray, k: int) -> list[Neighbor]:
        """Return up to k nearest rows by cosine, ties broken by unit id."""
        v64 = np.asarray(v, dtype=np.float64).ravel()
        return self.query_block(v64[None, :], k)[0]

    def query_block(self, vs: np.ndarray, k: int) -> list[list[Neighbor]]:
        """``query`` for each row of ``vs``, scored with one matrix product."""
        vs64 = np.asarray(vs, dtype=np.float64)
        if vs64.ndim != 2 or vs64.shape[1] != self.dim:
            raise ValueError(f"query dim {vs64.shape[-1]} != index dim {self.dim}")
        out = []
        for v, dots in zip(vs64, vs64 @ self._rows64.T):
            norm = float(np.linalg.norm(v))
            if norm > 0.0:
                denominators = self._row_norms * norm
                sims = dots / denominators
            else:  # A zero query scores every row 0.
                denominators, sims = None, np.zeros_like(dots)
            top, top_sims = _top_by_similarity(
                self._ids_arr, sims, k, self._rows64, v, denominators
            )
            out.append(
                [Neighbor(str(self._ids_arr[i]), float(s)) for i, s in zip(top, top_sims)]
            )
        return out

    def save(self, path: Path | str) -> None:
        rows = self._rows64.astype(np.float32)
        save_embeddings(EmbeddingMatrix(self.unit_ids, rows), path)

    @classmethod
    def load(cls, path: Path | str) -> "AnnIndex":
        matrix = load_embeddings(path)
        return cls(matrix.unit_ids, matrix.rows)


# Candidates this close to the k-th similarity are rescored: far wider than
# the last-bit differences between matrix products.
_NEAR = 1e-9


def _top_by_similarity(
    ids: np.ndarray, sims: np.ndarray, k: int, rows: np.ndarray, v: np.ndarray,
    denominators: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and similarities of the k best rows, similarity descending
    then id ascending.

    ``sims`` come from a matrix product, whose last bits depend on a row's
    position, so identical rows can score one ulp apart. The rows at or near
    the k-th value are rescored one by one (elementwise product with ``v``
    summed in float64, over ``denominators`` when given) before the id
    tie-break, and their rescored similarities are returned.
    """
    if k <= 0:
        return np.arange(0), sims[:0]
    cand = np.arange(sims.shape[0])
    if k < cand.size:
        kth = sims[np.argpartition(-sims, k - 1)[:k]].min()
        cand = np.flatnonzero(sims >= kth - _NEAR)
    # initial=0.0 keeps a zero query's scores at +0.0, not -0.0.
    exact = np.sum(rows[cand] * v, axis=1, initial=0.0)
    if denominators is not None:
        exact /= denominators[cand]
    order = np.lexsort((ids[cand], -exact))[:k]
    return cand[order], exact[order]


def build_index(matrix: EmbeddingMatrix) -> AnnIndex:
    """Build an AnnIndex over a matrix, skipping all-zero rows."""
    if matrix.count == 0 or matrix.dim == 0:
        raise ValueError("cannot index an empty embedding matrix")
    return AnnIndex(matrix.unit_ids, matrix.rows)
