"""Similarity metrics and scorers for sentence and document pairs.

Distance-based metrics (WMD, RWMD) are mapped to similarities with
``to_similarity``. Word-count metrics operate on content tokens, that is
tokens that are not punctuation, numbers or stopwords.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix
from scipy.spatial.distance import cdist

from .corpus import Document, Sentence, content_tokens
from .embeddings import EmbeddingMatrix, WordVectorTable, unit_rows

__all__ = [
    "UnembeddableSentenceError",
    "cosine",
    "unigram_overlap",
    "Bm25Stats",
    "bm25",
    "wmd",
    "rwmd",
    "to_similarity",
    "Scorer",
    "CosineScorer",
    "OverlapScorer",
    "Bm25Scorer",
    "WmdScorer",
    "RwmdScorer",
    "make_scorer",
]


class UnembeddableSentenceError(ValueError):
    """A sentence has no in-vocabulary content token to embed."""


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity in float64; zero vectors compare as 0.0."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def unigram_overlap(x: Iterable[str], y: Iterable[str]) -> float:
    """Fraction of y's distinct tokens that also occur in x.

    Asymmetric on purpose: o(x, y) = |set(y) & set(x)| / |set(y)|, and 0.0
    when y has no tokens.
    """
    xs = set(x)
    ys = set(y)
    if not ys:
        return 0.0
    return len(ys & xs) / len(ys)


@dataclass(frozen=True)
class Bm25Stats:
    """Collection statistics for BM25 scoring."""

    doc_count: int
    doc_freq: Mapping[str, int]
    avg_doc_len: float
    k1: float = 1.2
    b: float = 0.75

    @classmethod
    def from_documents(
        cls, token_bags: Iterable[Sequence[str]], k1: float = 1.2, b: float = 0.75
    ) -> "Bm25Stats":
        doc_freq: Counter[str] = Counter()
        n = 0
        total_len = 0
        for bag in token_bags:
            n += 1
            total_len += len(bag)
            doc_freq.update(set(bag))
        if n == 0:
            raise ValueError("BM25 statistics need at least one document")
        return cls(
            doc_count=n,
            doc_freq=dict(doc_freq),
            avg_doc_len=total_len / n,
            k1=k1,
            b=b,
        )

    def idf(self, term: str) -> float:
        df = self.doc_freq.get(term, 0)
        return math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))


def bm25(query: Sequence[str], doc: Sequence[str], stats: Bm25Stats) -> float:
    """Okapi BM25 score of ``doc`` for ``query`` under ``stats``."""
    tf = Counter(doc)
    dl = len(doc)
    ratio = dl / stats.avg_doc_len if stats.avg_doc_len > 0 else 0.0
    norm = stats.k1 * (1.0 - stats.b + stats.b * ratio)
    score = 0.0
    # First-occurrence order, not set order: float sums must not depend on
    # the per-process string hash seed.
    for term in dict.fromkeys(query):
        f = tf.get(term, 0)
        if f == 0:
            continue
        score += stats.idf(term) * f * (stats.k1 + 1.0) / (f + norm)
    return score


@dataclass(frozen=True)
class _Nbow:
    """Normalized bag-of-words: unique in-vocabulary content tokens with
    relative frequencies and their stacked vectors."""

    tokens: tuple[str, ...]
    weights: np.ndarray
    vectors: np.ndarray


def _sentence_tokens(x: Sentence | Sequence[str]) -> list[str]:
    if isinstance(x, Sentence):
        return content_tokens(x)
    return [str(t).lower() for t in x]


def _nbow(x: Sentence | Sequence[str], table: WordVectorTable) -> _Nbow | None:
    counts = Counter(t for t in _sentence_tokens(x) if t in table)
    if not counts:
        return None
    tokens = tuple(sorted(counts))
    total = sum(counts.values())
    weights = np.array([counts[t] / total for t in tokens], dtype=np.float64)
    vectors = np.vstack([table.get(t) for t in tokens])
    return _Nbow(tokens=tokens, weights=weights, vectors=vectors)


def _require_nbow(x: Sentence | Sequence[str], table: WordVectorTable) -> _Nbow:
    nb = _nbow(x, table)
    if nb is None:
        what = x.uid if isinstance(x, Sentence) else "token sequence"
        raise UnembeddableSentenceError(
            f"no in-vocabulary content tokens in {what}"
        )
    return nb


def _transport_cost(a: np.ndarray, b: np.ndarray, costs: np.ndarray) -> float:
    """Minimum-cost transport of distribution a onto b under a cost matrix,
    solved as a linear program."""
    m, n = costs.shape
    if m == 1:
        return float(np.dot(b, costs[0]))
    if n == 1:
        return float(np.dot(a, costs[:, 0]))
    row_idx = np.repeat(np.arange(m), n)
    col_idx = np.tile(np.arange(n), m)
    var_idx = np.arange(m * n)
    # Equality rows: m row sums, then n column sums.
    a_eq = coo_matrix(
        (
            np.ones(2 * m * n),
            (
                np.concatenate([row_idx, m + col_idx]),
                np.concatenate([var_idx, var_idx]),
            ),
        ),
        shape=(m + n, m * n),
    )
    b_eq = np.concatenate([a, b])
    res = linprog(costs.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return max(float(res.fun), 0.0)


def _relaxed_cost(a: np.ndarray, b: np.ndarray, costs: np.ndarray) -> float:
    """Relaxed transport cost: the max of the two one-sided costs where all
    of a word's mass moves to its nearest counterpart. A lower bound on
    ``_transport_cost`` under the same cost matrix."""
    moved_x = float(np.dot(a, costs.min(axis=1)))
    moved_y = float(np.dot(b, costs.min(axis=0)))
    return max(moved_x, moved_y)


def _ground_costs(nx: _Nbow, ny: _Nbow) -> np.ndarray:
    return cdist(nx.vectors, ny.vectors, metric="euclidean")


def _wmd_nbow(nx: _Nbow, ny: _Nbow) -> float:
    return _transport_cost(nx.weights, ny.weights, _ground_costs(nx, ny))


def _rwmd_nbow(nx: _Nbow, ny: _Nbow) -> float:
    return _relaxed_cost(nx.weights, ny.weights, _ground_costs(nx, ny))


def wmd(
    x: Sentence | Sequence[str], y: Sentence | Sequence[str], table: WordVectorTable
) -> float:
    """Word mover's distance: minimum cost of transporting the normalized
    content-token distribution of x onto that of y, with Euclidean ground
    distances between word vectors. Raises UnembeddableSentenceError when a
    side has no in-vocabulary content token.
    """
    return _wmd_nbow(_require_nbow(x, table), _require_nbow(y, table))


def rwmd(
    x: Sentence | Sequence[str], y: Sentence | Sequence[str], table: WordVectorTable
) -> float:
    """Relaxed WMD: the max of the two one-sided bounds where every word's
    mass moves entirely to its nearest counterpart. Always <= wmd.
    """
    return _rwmd_nbow(_require_nbow(x, table), _require_nbow(y, table))


def to_similarity(distance: float, scheme: str = "inverse") -> float:
    """Map a non-negative distance to a similarity in (0, 1]."""
    if scheme != "inverse":
        raise ValueError(f"unknown similarity scheme {scheme!r}")
    if distance < 0:
        raise ValueError(f"negative distance {distance}")
    return 1.0 / (1.0 + distance)


class Scorer:
    """Sentence similarity: ``matrix(xs, ys)[i, j]`` scores ``xs[i]`` against
    ``ys[j]``. A sentence the metric cannot handle (for the transport metrics,
    one with no in-vocabulary content token) scores 0 against everything.
    """

    kind: str = "?"

    def matrix(self, xs: Sequence[Sentence], ys: Sequence[Sentence]) -> np.ndarray:
        raise NotImplementedError


class CosineScorer(Scorer):
    """Cosine of sentence embeddings.

    Source sentences (the rows of ``matrix``) are read by uid from
    ``source`` and target sentences (its columns) from ``target``. Keeping
    the sides apart lets both corpora use the same unit ids. Each side's
    rows are L2-normalized in float64 once, here; all-zero rows stay zero.
    """

    kind = "cosine"

    def __init__(self, source: EmbeddingMatrix, target: EmbeddingMatrix):
        if source.dim != target.dim:
            raise ValueError(f"dimension mismatch: {source.dim} vs {target.dim}")
        self.source = source
        self.target = target
        self._source_unit = unit_rows(source.rows.astype(np.float64))
        self._target_unit = (
            self._source_unit if target is source
            else unit_rows(target.rows.astype(np.float64))
        )

    def source_rows(self, xs: Sequence[Sentence]) -> np.ndarray:
        """The unit rows of ``xs`` in order, read by uid from ``source``."""
        return self._source_unit[[self.source.row_index(x.uid) for x in xs]]

    def target_rows(self, ys: Sequence[Sentence]) -> np.ndarray:
        """The unit rows of ``ys`` in order, read by uid from ``target``."""
        return self._target_unit[[self.target.row_index(y.uid) for y in ys]]

    def matrix(self, xs: Sequence[Sentence], ys: Sequence[Sentence]) -> np.ndarray:
        return self.source_rows(xs) @ self.target_rows(ys).T


class OverlapScorer(Scorer):
    kind = "overlap"

    def matrix(self, xs: Sequence[Sentence], ys: Sequence[Sentence]) -> np.ndarray:
        x_sets = [set(content_tokens(x)) for x in xs]
        y_sets = [set(content_tokens(y)) for y in ys]
        out = np.zeros((len(xs), len(ys)), dtype=np.float64)
        for i, xset in enumerate(x_sets):
            for j, yset in enumerate(y_sets):
                out[i, j] = len(yset & xset) / len(yset) if yset else 0.0
        return out


class Bm25Scorer(Scorer):
    """BM25 with the source sentence as query and the target as document."""

    kind = "bm25"

    def __init__(self, stats: Bm25Stats):
        self.stats = stats

    def matrix(self, xs: Sequence[Sentence], ys: Sequence[Sentence]) -> np.ndarray:
        x_bags = [content_tokens(x) for x in xs]
        y_bags = [content_tokens(y) for y in ys]
        out = np.zeros((len(xs), len(ys)), dtype=np.float64)
        for i, q in enumerate(x_bags):
            for j, d in enumerate(y_bags):
                out[i, j] = bm25(q, d, self.stats)
        return out


# The LP meets its constraints only up to rounding, so its optimum may sit
# a few ulps below the relaxed bound computed from the same costs. A cell is
# pruned only when its bound is below the floor by more than that.
_FLOOR_SLACK = 1e-9


class _TransportScorer(Scorer):
    _distance: Callable[[_Nbow, _Nbow], float]

    def __init__(self, table: WordVectorTable):
        self.table = table

    def matrix(self, xs: Sequence[Sentence], ys: Sequence[Sentence]) -> np.ndarray:
        x_nb = [_nbow(x, self.table) for x in xs]
        y_nb = [_nbow(y, self.table) for y in ys]
        out = np.zeros((len(xs), len(ys)), dtype=np.float64)
        for i, nx in enumerate(x_nb):
            if nx is None:
                continue
            for j, ny in enumerate(y_nb):
                if ny is None:
                    continue
                out[i, j] = to_similarity(self._distance(nx, ny))
        return out


class WmdScorer(_TransportScorer):
    """Word mover's similarity, one transport LP per cell.

    With a ``floor``, a cell whose RWMD similarity bound is below it holds
    that bound and its LP is skipped: RWMD <= WMD, so its exact value is
    below the floor too. Cells at or above the floor hold their exact
    value. The counters record the cells scored (both sentences
    embeddable), those pruned by the bound and those solved (1 x n and
    m x 1 cells are solved without an LP).
    """

    kind = "wmd"

    def __init__(self, table: WordVectorTable, floor: float | None = None):
        super().__init__(table)
        self.floor = floor
        self.cells = self.pruned = self.solved = 0

    def _distance(self, nx: _Nbow, ny: _Nbow) -> float:
        self.cells += 1
        costs = _ground_costs(nx, ny)
        if self.floor is not None:
            bound = _relaxed_cost(nx.weights, ny.weights, costs)
            if to_similarity(bound) < self.floor - _FLOOR_SLACK:
                self.pruned += 1
                return bound
        self.solved += 1
        return _transport_cost(nx.weights, ny.weights, costs)


class RwmdScorer(_TransportScorer):
    kind = "rwmd"
    _distance = staticmethod(_rwmd_nbow)


def make_scorer(
    kind: str,
    source: EmbeddingMatrix | None = None,
    target: EmbeddingMatrix | None = None,
    table: WordVectorTable | None = None,
    stats: Bm25Stats | None = None,
    target_docs: Iterable[Document] | None = None,
    k1: float = 1.2,
    b: float = 0.75,
    floor: float | None = None,
) -> Scorer:
    """Build a scorer by name; a missing input raises ValueError.

    cosine reads the ``source`` and ``target`` sentence embedding matrices.
    bm25 without ``stats`` computes them over ``target_docs``. ``floor`` is
    the wmd scorer's pruning floor (see ``WmdScorer``); it must only be set
    where no value below it is read. Other kinds ignore it.
    """
    if kind == "cosine":
        if source is None or target is None:
            raise ValueError("cosine scorer needs source and target sentence embeddings")
        return CosineScorer(source, target)
    if kind == "overlap":
        return OverlapScorer()
    if kind == "bm25":
        if stats is None and target_docs is not None:
            stats = Bm25Stats.from_documents(
                (content_tokens(s.tokens) for d in target_docs for s in d.sentences),
                k1=k1,
                b=b,
            )
        if stats is None:
            raise ValueError("bm25 scorer needs collection statistics")
        return Bm25Scorer(stats)
    if kind in ("wmd", "rwmd"):
        if table is None:
            raise ValueError(f"{kind} scorer needs a word-vector table")
        return WmdScorer(table, floor) if kind == "wmd" else RwmdScorer(table)
    raise ValueError(f"unknown scorer kind {kind!r}")
