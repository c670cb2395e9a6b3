"""Similarity metrics and scorers for sentence and document pairs.

Distance-based metrics (WMD, RWMD) are mapped to similarities with
``to_similarity``. Word-count metrics operate on content tokens, that is
tokens that are not punctuation, numbers or stopwords.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import Document, InputError, Sentence, content_tokens
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
    "SCORERS",
    "TABLE_SCORERS",
    "make_scorer",
]


def __getattr__(name: str):
    # perfbench/spans.py patches lha.metrics.linprog in traced runs; this
    # module never calls it, so scipy.optimize is imported only on request.
    if name == "linprog":
        from scipy.optimize import linprog

        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    return _share(set(x), set(y))


def _share(xset: AbstractSet[str], yset: AbstractSet[str]) -> float:
    return len(yset & xset) / len(yset) if yset else 0.0


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
            raise InputError("BM25 statistics need at least one document")
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
    """Normalized bag-of-words: unique in-vocabulary content tokens in sorted
    order, their relative frequencies and their rows in the word-vector
    table."""

    tokens: tuple[str, ...]
    weights: np.ndarray
    rows: np.ndarray


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
    return _Nbow(tokens=tokens, weights=weights, rows=table.row_indices(tokens))


def _require_nbow(x: Sentence | Sequence[str], table: WordVectorTable) -> _Nbow:
    nb = _nbow(x, table)
    if nb is None:
        what = x.uid if isinstance(x, Sentence) else "token sequence"
        raise UnembeddableSentenceError(
            f"no in-vocabulary content tokens in {what}"
        )
    return nb


# Entries of one Euclidean distance block; a single cell may be larger.
_BLOCK_CELLS = 2**16
# A squared distance below this share of its two rows' squared norms is
# taken again from the rows' difference (see ``_distances``).
_RECOMPUTE = 1.0 / 8.0


def _distances(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``u`` and those of ``v``, in
    Gram form with close pairs summed again (see ``_cells``)."""
    uu = np.einsum("ij,ij->i", u, u)
    vv = np.einsum("ij,ij->i", v, v)
    scale = uu[:, None] + vv
    d2 = np.einsum("ik,jk->ij", u, v, optimize=False)
    d2 *= -2.0
    d2 += scale
    p, q = np.nonzero(d2 < _RECOMPUTE * scale)
    if p.size:
        diff = u[p] - v[q]
        d2[p, q] = np.einsum("ij,ij->i", diff, diff)
    return np.sqrt(d2, out=d2)


def _groups(sizes: Sequence[int], cap: int) -> Iterator[tuple[int, int]]:
    """Runs ``[a, b)`` of consecutive items whose sizes sum to at most
    ``cap``; an item larger than ``cap`` forms a run of its own."""
    a = total = 0
    for b, size in enumerate(sizes):
        if b > a and total + size > cap:
            yield a, b
            a, total = b, 0
        total += size
    if sizes:
        yield a, len(sizes)


def _cells(
    x_nb: Sequence[_Nbow | None], y_nb: Sequence[_Nbow | None], vectors: np.ndarray
) -> Iterator[tuple[int, int, np.ndarray, float]]:
    """``(i, j, costs, bound)`` for every cell whose two bags exist.

    ``costs[p, q]`` is the Euclidean distance between row ``p`` of ``x_nb[i]``
    and row ``q`` of ``y_nb[j]`` in ``vectors``. ``bound`` is the relaxed
    transport cost: the max of the two one-sided costs where all of a
    word's mass moves to its nearest counterpart, a lower bound on
    ``_transport_cost(costs)``.

    Distances are taken by ``_distances`` over the stacked rows of the bags,
    in blocks of at most ``_BLOCK_CELLS`` entries unless one cell is larger.
    It computes ``d² = |u|² + |v|² − 2·u·v`` and then ``sqrt``. Where
    ``d²`` is below ``_RECOMPUTE`` (1/8) times ``|u|² + |v|²``, the Gram
    form has lost digits to cancellation, so ``d²`` is summed again from the
    difference of the two rows: the relative error stays under about
    1e-14, and identical rows come out exactly 0. Every sum is numpy's own
    ``einsum`` loop, not a BLAS product, whose entries depend on the shape
    of the block around them; so each entry depends only on its two rows,
    and ``costs`` (a view into the block) equals ``_distances`` on the
    cell's own rows bit for bit. A sentence pair's costs thus do not depend
    on which other sentences share its block. The nearest distances come
    from whole-block minima, which are exact; each side's weighted sum is
    one dot product over a contiguous run of them, as over the cell's own
    minima.
    """
    xi = [i for i, nb in enumerate(x_nb) if nb is not None]
    yj = [j for j, nb in enumerate(y_nb) if nb is not None]
    if not xi or not yj:
        return
    x_sizes = [x_nb[i].rows.size for i in xi]
    y_sizes = [y_nb[j].rows.size for j in yj]
    x_rows = np.concatenate([x_nb[i].rows for i in xi])
    y_rows = np.concatenate([y_nb[j].rows for j in yj])
    x_off = np.concatenate([[0], np.cumsum(x_sizes)]).tolist()
    y_off = np.concatenate([[0], np.cumsum(y_sizes)]).tolist()
    for xa, xb in _groups(x_sizes, _BLOCK_CELLS // y_off[-1]):
        r0, r1 = x_off[xa], x_off[xb]
        for ya, yb in _groups(y_sizes, _BLOCK_CELLS // (r1 - r0)):
            c0, c1 = y_off[ya], y_off[yb]
            block = _distances(vectors[x_rows[r0:r1]], vectors[y_rows[c0:c1]])
            # to_y[q, r]: row r's distance to its nearest word of y bag q;
            # to_x[p, c]: column c's distance to its nearest word of x bag p.
            to_y = np.minimum.reduceat(block, np.subtract(y_off[ya:yb], c0), axis=1).T.copy()
            to_x = np.minimum.reduceat(block, np.subtract(x_off[xa:xb], r0), axis=0)
            y_cells = [(yj[q], y_nb[yj[q]].weights, slice(y_off[q] - c0, y_off[q + 1] - c0))
                       for q in range(ya, yb)]
            for p in range(xa, xb):
                i, a, near_x = xi[p], x_nb[xi[p]].weights, to_x[p - xa]
                rs = slice(x_off[p] - r0, x_off[p + 1] - r0)
                for (j, b, cs), near_y in zip(y_cells, to_y[:, rs]):
                    bound = max(float(np.dot(a, near_y)), float(np.dot(b, near_x[cs])))
                    yield i, j, block[rs, cs], bound


# A reduced cost counts as negative only below -_TOLERANCE times the LP's
# largest ground cost: potentials are sums of costs along tree paths and
# carry a few ulps of rounding at that scale.
_TOLERANCE = 1e-12
# Pivots an m x n transport LP may take per row and column before it fails.
_PIVOTS_PER_LINE = 50


def _hang(
    top: int, adj: list[list[int]], parent: list[int], depth: list[int],
    potential: list[float], c: list[list[float]], m: int,
) -> list[int]:
    """Give every node below ``top`` (whose own entries are set) its parent,
    depth and potential from the tree's adjacency; returns ``top`` and them.
    Nodes ``0..m-1`` are rows and ``m + j`` is column ``j``; the cell of a
    row and its parent column costs the row's potential less the column's."""
    below = [top]
    for w in below:
        for y in adj[w]:
            if y != parent[w]:
                parent[y] = w
                depth[y] = depth[w] + 1
                potential[y] = (potential[w] + c[y][w - m] if y < m
                                else potential[w] - c[w][y - m])
                below.append(y)
    return below


def _start(
    a: np.ndarray, b: np.ndarray, costs: np.ndarray, c: list[list[float]]
) -> tuple[list[list[int]], list[int], list[int], list[float], list[float]]:
    """A strongly feasible first tree of the m x n transport LP: its
    adjacency, and per node its parent (-1 at the root, column 0), depth,
    potential and the flow on the cell joining it to its parent.

    The least-cost rule visits cells by cost, ties in row-major order, and
    gives each the mass its row and column both have left. Those positive
    cells form a forest. Every other tree of it is hung from the root's by
    a zero-flow cell from its first row to the cheapest column hung so far,
    so each zero-flow cell joins a row to its parent column.
    """
    m, n = costs.shape
    supply, demand = a.tolist(), b.tolist()
    adj: list[list[int]] = [[] for _ in range(m + n)]
    flows: dict[tuple[int, int], float] = {}
    rows_left, cols_left = m, n
    ii, jj = np.divmod(np.argsort(costs, axis=None, kind="stable"), n)
    for i, j in zip(ii.tolist(), jj.tolist()):
        s, d = supply[i], demand[j]
        if s > 0.0 and d > 0.0:
            x = min(s, d)
            supply[i], demand[j] = s - x, d - x
            flows[i, j] = x
            adj[i].append(m + j)
            adj[m + j].append(i)
            rows_left -= supply[i] == 0.0
            cols_left -= demand[j] == 0.0
            if not rows_left or not cols_left:
                break
    parent, depth, potential = [-1] * (m + n), [0] * (m + n), [0.0] * (m + n)
    hung = _hang(m, adj, parent, depth, potential, c, m)
    for r in range(m):
        if parent[r] < 0:
            j = min((v - m for v in hung if v >= m), key=c[r].__getitem__)
            parent[r], depth[r] = m + j, depth[m + j] + 1
            potential[r] = potential[m + j] + c[r][j]
            adj[r].append(m + j)
            adj[m + j].append(r)
            hung += _hang(r, adj, parent, depth, potential, c, m)
    flow = [flows.get((v, parent[v] - m) if v < m else (parent[v], v - m), 0.0)
            for v in range(m + n)]
    return adj, parent, depth, potential, flow


def _entering(reduced: np.ndarray, tol: float) -> int | None:
    """The flat index of the most negative reduced cost, the first in
    row-major order among ties; None when none is below ``-tol``."""
    k = int(reduced.argmin())
    return k if reduced.flat[k] < -tol else None


def _transport_plan(
    a: np.ndarray, b: np.ndarray, costs: np.ndarray
) -> tuple[list[int], list[float], list[float]]:
    """An optimal tree of the transport LP of a onto b, by the
    transportation simplex: per node (see ``_hang``) its parent, the flow on
    the cell joining them and its potential. A cell's reduced cost is its
    cost less its row's potential plus its column's.

    Each pivot brings in the cell ``_entering`` picks and moves flow round
    the cycle it closes in the tree. The cell that leaves is the last
    blocking one met going round from the cycle's apex (the lowest common
    ancestor of its two ends) in the entering cell's direction. That keeps
    the tree strongly feasible, every zero-flow cell joining a row to its
    parent column, which rules out cycling under degeneracy (Cunningham,
    1976). Only the subtree cut off and hung again by the entering cell gets
    new parents, depths and potentials. Raises RuntimeError after
    ``_PIVOTS_PER_LINE`` pivots per row and column.
    """
    m, n = costs.shape
    c = costs.tolist()
    adj, parent, depth, potential, flow = _start(a, b, costs, c)
    tol = _TOLERANCE * float(costs.max())
    values = np.array(potential)
    reduced = np.empty((m, n))
    for _ in range(_PIVOTS_PER_LINE * (m + n) + 1):
        np.subtract(costs, values[:m, None], out=reduced)
        reduced += values[m:]
        k = _entering(reduced, tol)
        if k is None:
            return parent, flow, potential
        i, j = divmod(k, n)
        # The tree paths from the row and from the column up to the apex,
        # each cell named by its lower node. Going round the cycle, flow
        # falls on the cells at even places of both paths and rises on the
        # others.
        x, y = i, m + j
        up_i: list[int] = []
        up_j: list[int] = []
        while depth[x] > depth[y]:
            up_i.append(x)
            x = parent[x]
        while depth[y] > depth[x]:
            up_j.append(y)
            y = parent[y]
        while x != y:
            up_i.append(x)
            x = parent[x]
            up_j.append(y)
            y = parent[y]
        # Blocking cells in order round the cycle from the apex: down the
        # row's path, then up the column's. The last of least flow leaves.
        delta, side, at = math.inf, up_i, -1
        for path, ts in ((up_i, reversed(range(0, len(up_i), 2))),
                         (up_j, range(0, len(up_j), 2))):
            for t in ts:
                if flow[path[t]] <= delta:
                    delta, side, at = flow[path[t]], path, t
        if delta > 0.0:
            for path in (up_i, up_j):
                for t in range(len(path)):
                    flow[path[t]] += delta if t % 2 else -delta
        leaving = side[at]
        adj[leaving].remove(parent[leaving])
        adj[parent[leaving]].remove(leaving)
        # The path from the entering cell to the leaving one turns over.
        for t in range(at, 0, -1):
            flow[side[t]] = flow[side[t - 1]]
        top, other = (i, m + j) if side is up_i else (m + j, i)
        adj[top].append(other)
        adj[other].append(top)
        parent[top], depth[top], flow[top] = other, depth[other] + 1, delta
        if top == i:
            potential[i] = potential[m + j] + c[i][j]
        else:
            potential[m + j] = potential[i] - c[i][j]
        below = _hang(top, adj, parent, depth, potential, c, m)
        values[below] = [potential[v] for v in below]
    raise RuntimeError(
        f"transport LP not solved in {_PIVOTS_PER_LINE * (m + n)} pivots"
    )


def _transport_cost(a: np.ndarray, b: np.ndarray, costs: np.ndarray) -> float:
    """Minimum-cost transport of distribution a onto b under a cost matrix:
    a dot product when a side has one word, else the LP solved by
    ``_transport_plan``, its cost summed exactly over the tree's cells."""
    m, n = costs.shape
    if m == 1:
        return float(np.dot(b, costs[0]))
    if n == 1:
        # A dot product over a strided column may take another BLAS kernel.
        return float(np.dot(a, np.ascontiguousarray(costs[:, 0])))
    parent, flow, _ = _transport_plan(a, b, costs)
    total = math.fsum(
        x * (costs[v, p - m] if v < m else costs[p, v - m])
        for v, (p, x) in enumerate(zip(parent, flow)) if p >= 0
    )
    return max(float(total), 0.0)


def _cell(
    x: Sentence | Sequence[str], y: Sentence | Sequence[str], table: WordVectorTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The weights, ground costs and relaxed bound of one pair."""
    nx, ny = _require_nbow(x, table), _require_nbow(y, table)
    ((_, _, costs, bound),) = _cells([nx], [ny], table.rows)
    return nx.weights, ny.weights, costs, bound


def wmd(
    x: Sentence | Sequence[str], y: Sentence | Sequence[str], table: WordVectorTable
) -> float:
    """Word mover's distance: minimum cost of transporting the normalized
    content-token distribution of x onto that of y, with Euclidean ground
    distances between word vectors. Raises UnembeddableSentenceError when a
    side has no in-vocabulary content token.
    """
    a, b, costs, _ = _cell(x, y, table)
    return _transport_cost(a, b, costs)


def rwmd(
    x: Sentence | Sequence[str], y: Sentence | Sequence[str], table: WordVectorTable
) -> float:
    """Relaxed WMD: the max of the two one-sided bounds where every word's
    mass moves entirely to its nearest counterpart. Always <= wmd.
    """
    return _cell(x, y, table)[3]


def to_similarity(distance: float) -> float:
    """Map a non-negative distance to a similarity in (0, 1]: 1 / (1 + d)."""
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

    def best_cells(
        self, xs: Sequence[Sentence], targets: Sequence[Sequence[Sentence]]
    ) -> list[float] | None:
        """Per non-empty ``ys`` of ``targets``, a bound that is at most
        ``_FLOOR_SLACK`` below the largest value of ``matrix(xs, ys)``; None
        if only ``matrix`` can tell."""
        return None


class CosineScorer(Scorer):
    """Cosine of sentence embeddings.

    Source sentences (the rows of ``matrix``) are read by uid from
    ``source`` and target sentences (its columns) from ``target``. Keeping
    the sides apart lets both corpora use the same unit ids. Each side's
    rows are L2-normalized in float64 once, here; all-zero rows stay zero.
    A tuple of sentences (a document's) has its row indices looked up once
    per side, keyed by identity with the tuple held in the entry, as
    ``_TransportScorer`` keys its bags; other sequences are looked up on
    every call.
    """

    kind = "cosine"

    def __init__(self, source: EmbeddingMatrix, target: EmbeddingMatrix):
        if source.dim != target.dim:
            raise InputError(f"dimension mismatch: {source.dim} vs {target.dim}")
        self.source = source
        self.target = target
        self._source_unit = unit_rows(source.rows.astype(np.float64))
        self._target_unit = unit_rows(target.rows.astype(np.float64))
        # Per side: id -> (tuple, its row indices).
        self._indices: tuple[dict, dict] = ({}, {})

    def _rows(self, side: int, xs: Sequence[Sentence]) -> np.ndarray:
        """The row indices of ``xs`` in ``source`` (side 0) or ``target``."""
        entry = self._indices[side].get(id(xs))
        if entry is None:
            matrix = self.target if side else self.source
            entry = (xs, np.array([matrix.row_index(x.uid) for x in xs], dtype=np.intp))
            if isinstance(xs, tuple):
                self._indices[side][id(xs)] = entry
        return entry[1]

    def source_rows(self, xs: Sequence[Sentence]) -> np.ndarray:
        """The unit rows of ``xs`` in order, read by uid from ``source``."""
        return self._source_unit[self._rows(0, xs)]

    def target_rows(self, ys: Sequence[Sentence]) -> np.ndarray:
        """The unit rows of ``ys`` in order, read by uid from ``target``."""
        return self._target_unit[self._rows(1, ys)]

    def matrix(self, xs: Sequence[Sentence], ys: Sequence[Sentence]) -> np.ndarray:
        return self.source_rows(xs) @ self.target_rows(ys).T

    def best_cells(
        self, xs: Sequence[Sentence], targets: Sequence[Sequence[Sentence]]
    ) -> list[float]:
        # One product against every target's rows at once; its entries
        # differ from matrix()'s by a few ulps of summation order.
        columns = self._target_unit[np.concatenate([self._rows(1, ys) for ys in targets])]
        values = (self.source_rows(xs) @ columns.T).max(axis=0)
        starts = np.cumsum([0] + [len(ys) for ys in targets[:-1]])
        return np.maximum.reduceat(values, starts).tolist()


class OverlapScorer(Scorer):
    kind = "overlap"

    def matrix(self, xs: Sequence[Sentence], ys: Sequence[Sentence]) -> np.ndarray:
        x_sets = [set(content_tokens(x)) for x in xs]
        y_sets = [set(content_tokens(y)) for y in ys]
        out = np.zeros((len(xs), len(ys)), dtype=np.float64)
        for i, xset in enumerate(x_sets):
            for j, yset in enumerate(y_sets):
                out[i, j] = _share(xset, yset)
        return out

    def best_cells(
        self, xs: Sequence[Sentence], targets: Sequence[Sequence[Sentence]]
    ) -> list[float]:
        # Every source sentence's words are in their union, so a target
        # sentence's share of words in the union is at or above each cell of
        # its column: a larger count over the same size, divided alike.
        union = set().union(*map(content_tokens, xs))
        return [max(_share(union, set(content_tokens(y))) for y in ys) for ys in targets]


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
    """A transport metric over each sentence's bag of words, built once per
    sentence object. Bags are keyed by identity, not by uid: two corpora,
    and the whole-document sentences of ``lha eval``, share uids."""

    _distance: Callable[[np.ndarray, np.ndarray, np.ndarray, float], float]

    def __init__(self, table: WordVectorTable):
        self.table = table
        # id -> (sentence, bag); holding the sentence keeps its id unique.
        self._bags: dict[int, tuple[Sentence, _Nbow | None]] = {}

    def _bag(self, x: Sentence) -> _Nbow | None:
        entry = self._bags.get(id(x))
        if entry is None:
            entry = self._bags[id(x)] = (x, _nbow(x, self.table))
        return entry[1]

    def matrix(self, xs: Sequence[Sentence], ys: Sequence[Sentence]) -> np.ndarray:
        x_nb = [self._bag(x) for x in xs]
        y_nb = [self._bag(y) for y in ys]
        out = np.zeros((len(xs), len(ys)), dtype=np.float64)
        for i, j, costs, bound in _cells(x_nb, y_nb, self.table.rows):
            a, b = x_nb[i].weights, y_nb[j].weights
            out[i, j] = to_similarity(self._distance(a, b, costs, bound))
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

    def _distance(
        self, a: np.ndarray, b: np.ndarray, costs: np.ndarray, bound: float
    ) -> float:
        self.cells += 1
        if self.floor is not None and to_similarity(bound) < self.floor - _FLOOR_SLACK:
            self.pruned += 1
            return bound
        self.solved += 1
        return _transport_cost(a, b, costs)


class RwmdScorer(_TransportScorer):
    kind = "rwmd"

    def _distance(
        self, a: np.ndarray, b: np.ndarray, costs: np.ndarray, bound: float
    ) -> float:
        return bound


# The kinds ``make_scorer`` builds, and those of them that read the
# word-vector table.
SCORERS = ("cosine", "overlap", "bm25", "wmd", "rwmd")
TABLE_SCORERS = ("wmd", "rwmd")


def make_scorer(
    kind: str,
    source: EmbeddingMatrix | None = None,
    target: EmbeddingMatrix | None = None,
    table: WordVectorTable | None = None,
    target_docs: Iterable[Document] | None = None,
    k1: float = 1.2,
    b: float = 0.75,
    floor: float | None = None,
) -> Scorer:
    """Build a scorer by name; a missing input raises InputError.

    cosine reads the ``source`` and ``target`` sentence embedding matrices.
    bm25 computes its collection statistics over ``target_docs``. ``floor``
    is the wmd scorer's pruning floor (see ``WmdScorer``); it must only be
    set where no value below it is read. Other kinds ignore it.
    """
    if kind == "cosine":
        if source is None or target is None:
            raise InputError("cosine scorer needs source and target sentence embeddings")
        return CosineScorer(source, target)
    if kind == "overlap":
        return OverlapScorer()
    if kind == "bm25":
        if target_docs is None:
            raise InputError("bm25 scorer needs collection statistics")
        return Bm25Scorer(Bm25Stats.from_documents(
            (content_tokens(s.tokens) for d in target_docs for s in d.sentences),
            k1=k1,
            b=b,
        ))
    if kind in TABLE_SCORERS:
        if table is None:
            raise InputError(f"{kind} scorer needs a word-vector table")
        return WmdScorer(table, floor) if kind == "wmd" else RwmdScorer(table)
    raise ValueError(f"unknown scorer kind {kind!r}")
