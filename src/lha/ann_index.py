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

from .corpus import InputError
from .embeddings import EmbeddingMatrix, load_embeddings, save_embeddings

__all__ = [
    "Neighbor",
    "AnnIndex",
    "build_index",
    "id_ranks",
    "line_ranks",
    "top_k",
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
        self._id_rank = id_ranks(self.unit_ids)
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
        # Each query's norm is the 1-d norm of its row; norm(axis=1) sums in
        # another order. A zero query scores every row 0.
        norms = np.array([np.linalg.norm(v) for v in vs64])
        norms[norms == 0.0] = 1.0
        sims = vs64 @ self._rows64.T
        sims /= norms[:, None] * self._row_norms
        out: list[list[Neighbor]] = [[] for _ in range(len(vs64))]
        norm_pair = (norms, self._row_norms)
        for q, j, s in zip(*top_k(sims, k, self._rows64, vs64, self._id_rank, norm_pair)):
            out[q].append(Neighbor(self.unit_ids[j], s))
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
# Candidates rescored per pass; near ties can make a query's candidates many.
_RESCORE = 4096


def id_ranks(ids: list[str]) -> np.ndarray:
    """Each id's position in the sorted ids; equal ids keep their order."""
    ranks = np.empty(len(ids), dtype=np.intp)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def line_ranks(lines: np.ndarray, within: np.ndarray, sims: np.ndarray) -> np.ndarray:
    """Each entry's rank among the entries of its line (row or column):
    by similarity descending, then by ``within`` ascending."""
    order = np.lexsort((within, -sims, lines))
    sorted_lines = lines[order]
    ranks = np.empty_like(order)
    ranks[order] = np.arange(order.size) - np.searchsorted(sorted_lines, sorted_lines)
    return ranks


def top_k(
    sims: np.ndarray, k: int, rows: np.ndarray, vs: np.ndarray, id_rank: np.ndarray,
    norms: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[list[int], list[int], list[float]]:
    """The k best rows for each query ``vs[q]``: (query, row, similarity)
    lists ordered by query, then similarity descending, then ``id_rank``.

    ``sims[q]`` come from a matrix product, whose last bits depend on a
    row's position, so identical rows can score one ulp apart. The entries
    at or near each query's k-th value are rescored (elementwise product
    summed in float64, divided by the product of the query's and the row's
    entries of ``norms`` when given) before the id tie-break, and their
    rescored similarities are returned.
    """
    n = sims.shape[1]
    if k <= 0:
        return [], [], []
    kth = np.partition(sims, n - k, axis=1)[:, n - k] if k < n else np.full(len(sims), -np.inf)
    qi, cj = np.nonzero(sims >= (kth - _NEAR)[:, None])
    exact = np.empty(qi.size)
    for lo in range(0, qi.size, _RESCORE):
        part = slice(lo, lo + _RESCORE)
        # initial=0.0 keeps a zero query's scores at +0.0, not -0.0.
        exact[part] = np.sum(rows[cj[part]] * vs[qi[part]], axis=1, initial=0.0)
    if norms is not None:
        exact /= norms[0][qi] * norms[1][cj]
    ranks = line_ranks(qi, id_rank[cj], exact)
    keep = np.flatnonzero(ranks < k)
    keep = keep[np.lexsort((ranks[keep], qi[keep]))]
    return qi[keep].tolist(), cj[keep].tolist(), exact[keep].tolist()


def build_index(matrix: EmbeddingMatrix) -> AnnIndex:
    """Build an AnnIndex over a matrix, skipping all-zero rows."""
    if matrix.count == 0 or matrix.dim == 0:
        raise InputError("cannot index an empty embedding matrix")
    return AnnIndex(matrix.unit_ids, matrix.rows)
