"""Independent reference implementations used only by the test suite.

Each oracle takes a different algorithmic route than the library code it
checks: transport cost via successive shortest paths instead of an LP
solver, threshold sweeps via exhaustive Fraction arithmetic, component
merging via breadth-first search, nearest neighbors via a plain sort, the
sentence filter and token counts via re-tokenising each group's text, the
word-vector file via ``float()`` on each field of each line, top-k pair
selection via a full sort of every row and column, sentence splitting via a
look-behind search from the start of the text, cosine rows via a
normalisation of each gathered subset, unit averages via one ``np.mean``
per unit, an index's top-k via one ``argpartition`` per query, the
transport LP via HiGHS through ``linprog`` on a freshly built sparse matrix,
a transport scorer's matrix via fresh bags and one ``_distances`` call per
cell on that cell's own rows (its LPs through the library's own solver, so
that blocks, gate and bags are checked bit for bit), and a token's flags via one scan of its characters
per flag.
"""

from __future__ import annotations

import heapq
import math
import re
import warnings
from collections import Counter, deque
from fractions import Fraction

import numpy as np

from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from lha.corpus import Token, content_tokens, default_abbreviations, tokenize
from lha.embeddings import EmbeddingFormatError, EmbeddingMatrix, WordVectorTable, unit_rows
from lha.metrics import _FLOOR_SLACK, _distances, _transport_cost
from lha.sent_align import AlignedGroup, FilterPolicy, normalize_pair_key


def token_oracle(surface: str, stopwords: frozenset[str]) -> Token:
    """A surface's token by the per-character rules: punctuation when no
    character is alphanumeric, a number when some character is but none is
    alphabetic; a stopword when its lowercase form is in ``stopwords``."""
    normalized = surface.lower()
    is_punct = not any(ch.isalnum() for ch in surface)
    return Token(
        surface=surface,
        normalized=normalized,
        is_punct=is_punct,
        is_number=(not is_punct) and not any(ch.isalpha() for ch in surface),
        is_stopword=normalized in stopwords,
    )


def transport_cost_oracle(
    supply_counts: list[int], demand_counts: list[int], costs: np.ndarray
) -> float:
    """Minimum cost to move mass supply/sum(supply) onto demand/sum(demand).

    Solves the transportation problem exactly by successive shortest
    augmenting paths on an integer-scaled instance: multiplying supplies by
    sum(demand) and demands by sum(supply) makes both sides integral with
    equal totals, and dividing the optimal flow cost by that total recovers
    the normalized optimum. All arithmetic is done in Fractions (floats are
    dyadic rationals, so this is exact), which keeps the nonnegative
    reduced-cost invariant watertight; float tolerances here can cycle.
    """
    m, n = len(supply_counts), len(demand_counts)
    costs = np.asarray(costs, dtype=np.float64)
    if costs.shape != (m, n):
        raise ValueError(f"cost shape {costs.shape} != ({m}, {n})")
    total_a = sum(supply_counts)
    total_b = sum(demand_counts)
    if total_a <= 0 or total_b <= 0:
        raise ValueError("supplies and demands must be positive")
    supply = [c * total_b for c in supply_counts]
    demand = [c * total_a for c in demand_counts]
    cost = [[Fraction(float(costs[i, j])) for j in range(n)] for i in range(m)]

    flow = [[0] * n for _ in range(m)]
    potential = [Fraction(0)] * (m + n)  # keeps reduced costs >= 0
    remaining = sum(supply)
    while remaining > 0:
        dist: list[Fraction | None] = [None] * (m + n)
        parent: list[int | None] = [None] * (m + n)
        heap: list[tuple[Fraction, int]] = []
        for i in range(m):
            if supply[i] > 0:
                dist[i] = Fraction(0)
                heapq.heappush(heap, (Fraction(0), i))
        while heap:
            d, u = heapq.heappop(heap)
            if dist[u] is None or d > dist[u]:
                continue
            if u < m:
                for j in range(n):
                    nd = d + cost[u][j] + potential[u] - potential[m + j]
                    if dist[m + j] is None or nd < dist[m + j]:
                        dist[m + j] = nd
                        parent[m + j] = u
                        heapq.heappush(heap, (nd, m + j))
            else:
                j = u - m
                for i in range(m):
                    if flow[i][j] > 0:
                        nd = d - cost[i][j] + potential[u] - potential[i]
                        if dist[i] is None or nd < dist[i]:
                            dist[i] = nd
                            parent[i] = u
                            heapq.heappush(heap, (nd, i))
        best_j = -1
        for j in range(n):
            if demand[j] > 0 and dist[m + j] is not None:
                if best_j < 0 or dist[m + j] < dist[m + best_j]:
                    best_j = j
        if best_j < 0:
            raise RuntimeError("no augmenting path; unbalanced instance")
        for u in range(m + n):
            if dist[u] is not None:
                potential[u] += dist[u]
        # walk back to a source, finding the bottleneck
        path: list[tuple[int, int, bool]] = []  # (i, j, forward)
        u = m + best_j
        bottleneck = demand[best_j]
        while parent[u] is not None:
            p = parent[u]
            if u >= m:
                path.append((p, u - m, True))
            else:
                path.append((u, p - m, False))
                bottleneck = min(bottleneck, flow[u][p - m])
            u = p
        bottleneck = min(bottleneck, supply[u])
        for i, j, forward in path:
            flow[i][j] += bottleneck if forward else -bottleneck
        supply[u] -= bottleneck
        demand[best_j] -= bottleneck
        remaining -= bottleneck
    total = sum(flow[i][j] * cost[i][j] for i in range(m) for j in range(n))
    return float(total / (total_a * total_b))


def transport_cost_linprog_oracle(a: np.ndarray, b: np.ndarray, costs: np.ndarray) -> float:
    """Minimum-cost transport of a onto b: a ``1 x n`` or ``m x 1`` cell as a
    dot product, any other as the same LP sent to HiGHS through ``linprog``,
    with its equality rows built as a ``coo_matrix`` on every call."""
    m, n = costs.shape
    if m == 1:
        return float(np.dot(b, costs[0]))
    if n == 1:
        return float(np.dot(a, costs[:, 0]))
    row_idx = np.repeat(np.arange(m), n)
    col_idx = np.tile(np.arange(n), m)
    var_idx = np.arange(m * n)
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


def _nbow_oracle(x, table) -> tuple[np.ndarray, np.ndarray] | None:
    """The weights and stacked vectors of a sentence's sorted unique
    in-vocabulary content tokens, or None when it has none."""
    counts = Counter(t for t in content_tokens(x) if t in table)
    if not counts:
        return None
    tokens = sorted(counts)
    total = sum(counts.values())
    weights = np.array([counts[t] / total for t in tokens], dtype=np.float64)
    return weights, np.vstack([table.get(t) for t in tokens])


def transport_matrix_oracle(
    kind: str, xs, ys, table, floor: float | None = None
) -> tuple[np.ndarray, tuple[int, int, int]]:
    """A ``wmd`` or ``rwmd`` scorer's matrix, cell by cell: both bags built
    afresh, ``_distances`` on the cell's own rows, then the relaxed cost or
    (for wmd cells whose bound is not below ``floor``) the library's
    ``_transport_cost``.
    Returns the matrix and wmd's (cells, pruned, solved) counts."""
    out = np.zeros((len(xs), len(ys)), dtype=np.float64)
    cells = pruned = solved = 0
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            nx, ny = _nbow_oracle(x, table), _nbow_oracle(y, table)
            if nx is None or ny is None:
                continue
            (a, u), (b, v) = nx, ny
            costs = _distances(u, v)
            bound = max(float(np.dot(a, costs.min(axis=1))),
                        float(np.dot(b, costs.min(axis=0))))
            cells += 1
            if kind == "rwmd" or (
                floor is not None and 1.0 / (1.0 + bound) < floor - _FLOOR_SLACK
            ):
                pruned += kind == "wmd"
                distance = bound
            else:
                solved += 1
                distance = _transport_cost(a, b, costs)
            out[i, j] = 1.0 / (1.0 + distance)
    return out, (cells, pruned, solved)


def word_vectors_oracle(path) -> tuple[int, dict[str, np.ndarray]]:
    """A word-vector file parsed line by line: its dimension and its
    lowercased token -> float64 vector map, the first occurrence winning.

    Raises EmbeddingFormatError with the 1-based line number and the message
    ``load_word_vectors`` must give for the same file.
    """
    vectors: dict[str, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        parts = header.split()
        bad_header = f"line 1: expected header 'count dim', got {header.strip()!r}"
        if len(parts) != 2:
            raise EmbeddingFormatError(bad_header)
        try:
            int(parts[0])
            dim = int(parts[1])
        except ValueError:
            raise EmbeddingFormatError(bad_header)
        if dim <= 0:
            raise EmbeddingFormatError(f"line 1: dimension must be positive, got {dim}")
        for line_no, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != dim + 1:
                raise EmbeddingFormatError(
                    f"line {line_no}: expected {dim} components, got {len(fields) - 1}"
                )
            try:
                values = [float(x) for x in fields[1:]]
            except ValueError:
                raise EmbeddingFormatError(f"line {line_no}: unparsable vector component")
            if not all(math.isfinite(v) for v in values):
                raise EmbeddingFormatError(f"line {line_no}: non-finite vector component")
            vectors.setdefault(fields[0].lower(), np.array(values, dtype=np.float64))
    return dim, vectors


def _first_row_wins(dim: int, tokens, rows: np.ndarray) -> WordVectorTable:
    """The table holding ``rows[i]`` for ``tokens[i]``; a token's first row wins."""
    vectors: dict[str, np.ndarray] = {}
    for token, row in zip(tokens, rows):
        vectors.setdefault(token, row)
    return WordVectorTable(dim, vectors)


def whole_file_loader_oracle(path) -> WordVectorTable:
    """A word-vector file read whole, every token kept: numpy's C reader over
    the entire body, or, when it refuses any line, the per-line rules over
    the entire body. The loader before it read a chunk at a time and kept
    only a vocabulary's rows; each table row is the file's row of its
    token's first line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        try:
            _count, dim = map(int, header.split())
        except ValueError as e:
            raise EmbeddingFormatError(
                f"line 1: expected header 'count dim', got {header.strip()!r}"
            ) from e
        if dim <= 0:
            raise EmbeddingFormatError(f"line 1: dimension must be positive, got {dim}")
        tokens: list[str] = []

        def token(field: str) -> float:
            tokens.append(field.lower())
            return 0.0

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rows = np.loadtxt(fh, dtype=np.float64, comments=None, ndmin=2,
                                  converters={0: token}, encoding=None)
        except ValueError:
            rows = None
        if rows is not None and rows.shape[1] == dim + 1 and np.isfinite(rows).all():
            return _first_row_wins(dim, tokens, rows[:, 1:])
        fh.seek(0)
        fh.readline()
        tokens = []
        vectors = []
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != dim + 1:
                raise EmbeddingFormatError(
                    f"line {line_no}: expected {dim} components, got {len(fields) - 1}"
                )
            try:
                vec = np.array([float(x) for x in fields[1:]], dtype=np.float64)
            except ValueError as e:
                raise EmbeddingFormatError(
                    f"line {line_no}: unparsable vector component"
                ) from e
            if not np.all(np.isfinite(vec)):
                raise EmbeddingFormatError(f"line {line_no}: non-finite vector component")
            tokens.append(fields[0].lower())
            vectors.append(vec)
    return _first_row_wins(dim, tokens, vectors)


def extract_nn_pairs_oracle(
    values: np.ndarray, k: int, theta_s: float
) -> list[tuple[int, int, float]]:
    """Union of row-wise and column-wise top-k entries with value >= theta_s,
    each row and column fully sorted by value descending, then by index.

    Returns (i, j, similarity) triples sorted by (i, j).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n_rows, n_cols = values.shape
    chosen: set[tuple[int, int]] = set()
    for i in range(n_rows):
        row = values[i]
        order = np.lexsort((np.arange(n_cols), -row))[:k]
        for j in order:
            if row[j] >= theta_s:
                chosen.add((i, int(j)))
    for j in range(n_cols):
        col = values[:, j]
        order = np.lexsort((np.arange(n_rows), -col))[:k]
        for i in order:
            if col[i] >= theta_s:
                chosen.add((int(i), j))
    return [(i, j, float(values[i, j])) for i, j in sorted(chosen)]


# The splitter's patterns, copied so that the oracle does not follow edits
# to lha.corpus.
_TERMINAL_RE = re.compile(r"[.!?]+")
_CLOSERS = "\"'”’)]"
_OPENER_RE = re.compile(r"[\"'“‘(\[]*[A-Z0-9]")
_PRE_WORD_RE = re.compile(r"([\w.]+)$", re.UNICODE)


def split_sentences_oracle(
    text: str, abbreviations: frozenset[str] | None = None
) -> list[str]:
    """The sentence splitter with the word before each period found by a
    search over the whole text before it (quadratic in the text length)."""
    if abbreviations is None:
        abbreviations = default_abbreviations()
    breaks: list[int] = []
    for m in _TERMINAL_RE.finditer(text):
        end = m.end()
        while end < len(text) and text[end] in _CLOSERS:
            end += 1
        k = end
        while k < len(text) and text[k].isspace():
            k += 1
        if k == end or k == len(text):
            continue
        if not _OPENER_RE.match(text, k):
            continue
        if "." in m.group():
            before = _PRE_WORD_RE.search(text, 0, m.start())
            if before is not None:
                word = before.group(1).rstrip(".")
                if word.lower() in abbreviations:
                    continue
                if len(word) == 1 and word.isalpha() and word.isupper():
                    continue
        breaks.append(end)
    pieces = []
    start = 0
    for b in breaks + [len(text)]:
        piece = text[start:b].strip()
        if piece:
            pieces.append(piece)
        start = b
    return pieces


def cosine_rows_oracle(matrix: EmbeddingMatrix, sentences) -> np.ndarray:
    """The sentences' rows of ``matrix``, gathered, cast to float64 and then
    L2-normalized as one block; all-zero rows stay zero."""
    index = [matrix.row_index(s.uid) for s in sentences]
    return unit_rows(matrix.rows[index].astype(np.float64))


def embed_avg_oracle(tokens, table) -> np.ndarray:
    """Mean vector of one unit's in-vocabulary tokens (``str`` tokens are
    lowercased): ``np.mean`` over the list of their rows, or the zero vector."""
    found = []
    for t in tokens:
        word = t.normalized if isinstance(t, Token) else str(t).lower()
        vec = table.get(word)
        if vec is not None:
            found.append(vec)
    if not found:
        return np.zeros(table.dim, dtype=np.float64)
    return np.mean(found, axis=0)


def top_by_similarity_oracle(
    ids: np.ndarray, sims: np.ndarray, k: int, rows: np.ndarray, v: np.ndarray,
    denominators: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and similarities of the k best rows for one query, similarity
    descending then id (a ``np.str_`` array) ascending: the rows near the
    k-th value by ``argpartition`` are rescored one query at a time."""
    if k <= 0:
        return np.arange(0), sims[:0]
    cand = np.arange(sims.shape[0])
    if k < cand.size:
        kth = sims[np.argpartition(-sims, k - 1)[:k]].min()
        cand = np.flatnonzero(sims >= kth - 1e-9)
    exact = np.sum(rows[cand] * v, axis=1, initial=0.0)
    if denominators is not None:
        exact /= denominators[cand]
    order = np.lexsort((ids[cand], -exact))[:k]
    return cand[order], exact[order]


def query_block_oracle(
    unit_ids: list[str], rows: np.ndarray, vs: np.ndarray, k: int
) -> list[list[tuple[str, float]]]:
    """``AnnIndex(unit_ids, rows).query_block(vs, k)`` as (id, similarity)
    lists, one query at a time through ``top_by_similarity_oracle``."""
    rows64 = np.asarray(rows, dtype=np.float32).astype(np.float64)
    norms = np.linalg.norm(rows64, axis=1)
    keep = np.flatnonzero(norms > 0.0)
    ids = np.array([unit_ids[i] for i in keep], dtype=np.str_)
    rows64, norms = rows64[keep], norms[keep]
    vs64 = np.asarray(vs, dtype=np.float64)
    out = []
    for v, dots in zip(vs64, vs64 @ rows64.T):
        norm = float(np.linalg.norm(v))
        if norm > 0.0:
            denominators = norms * norm
            sims = dots / denominators
        else:
            denominators, sims = None, np.zeros_like(dots)
        top, top_sims = top_by_similarity_oracle(ids, sims, k, rows64, v, denominators)
        out.append([(str(ids[i]), float(s)) for i, s in zip(top, top_sims)])
    return out


def knn_oracle(
    ids: list[str], rows: np.ndarray, query: np.ndarray, k: int
) -> list[tuple[str, float]]:
    """Top-k by cosine via a plain per-row loop and tuple sort.

    Zero rows are skipped; a zero query scores everything 0.
    """
    q = np.asarray(query, dtype=np.float64).ravel()
    qn = math.sqrt(float(q @ q))
    scored: list[tuple[float, str]] = []
    for unit_id, row in zip(ids, rows):
        r = np.asarray(row, dtype=np.float64)
        rn = math.sqrt(float(r @ r))
        if rn == 0.0:
            continue
        sim = 0.0 if qn == 0.0 else float(r @ q) / (rn * qn)
        scored.append((sim, unit_id))
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [(unit_id, sim) for sim, unit_id in scored[:k]]


def f1_sweep_oracle(
    scored: dict[tuple[str, str], float], gold: set[tuple[str, str]]
) -> tuple[Fraction, Fraction, Fraction, float, int, int]:
    """Exhaustive threshold sweep in exact rational arithmetic.

    Tries every distinct score as the cut (pairs scoring >= cut count as
    retrieved) and returns (f1, precision, recall, threshold, retrieved,
    true_positives) for the best cut, preferring the higher threshold on
    ties.
    """
    if not gold:
        raise ValueError("gold set is empty")
    best: tuple[Fraction, float, Fraction, Fraction, int, int] | None = None
    for cut in sorted(set(scored.values()), reverse=True):
        retrieved = [pair for pair, s in scored.items() if s >= cut]
        tp = sum(1 for pair in retrieved if pair in gold)
        precision = Fraction(tp, len(retrieved)) if retrieved else Fraction(0)
        recall = Fraction(tp, len(gold))
        denom = len(retrieved) + len(gold)
        f1 = Fraction(2 * tp, denom) if denom else Fraction(0)
        if best is None or f1 > best[0] or (f1 == best[0] and cut > best[1]):
            best = (f1, cut, precision, recall, len(retrieved), tp)
    if best is None:
        return Fraction(0), Fraction(0), Fraction(0), math.nan, 0, 0
    f1, cut, precision, recall, retrieved_n, tp = best
    return f1, precision, recall, cut, retrieved_n, tp


def components_oracle(
    pairs: list[tuple[int, int]],
) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Connected components of a bipartite pair graph via breadth-first search.

    Returns each component as (sorted left indices, sorted right indices).
    """
    adj: dict[tuple[str, int], set[tuple[str, int]]] = {}
    for i, j in pairs:
        a, b = ("s", i), ("t", j)
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen: set[tuple[str, int]] = set()
    out: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for start in adj:
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        left: list[int] = []
        right: list[int] = []
        while queue:
            node = queue.popleft()
            (left if node[0] == "s" else right).append(node[1])
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        out.add((tuple(sorted(left)), tuple(sorted(right))))
    return out


def text_filter_oracle(
    source_text: str,
    target_text: str,
    policy: FilterPolicy,
    stopwords: frozenset[str],
    boundary: Counter | None = None,
) -> str | None:
    """The sentence filter's rule on a group's texts, each tokenised whole.

    ``boundary``, when given, counts the checks decided exactly at the
    policy's bound (``overlap`` at ``min_overlap``, ``length_ratio`` at
    ``max_len_ratio``); both bounds keep the group.
    """
    src = tokenize(source_text, stopwords)
    tgt = tokenize(target_text, stopwords)

    def content(tokens) -> set[str]:
        return {
            t.normalized for t in tokens
            if not (t.is_punct or t.is_number or t.is_stopword)
        }

    src_words, tgt_words = content(src), content(tgt)
    overlap = len(tgt_words & src_words) / len(tgt_words) if tgt_words else 0.0
    if boundary is not None:
        boundary["overlap"] += overlap == policy.min_overlap
    if overlap < policy.min_overlap:
        return "overlap"
    if boundary is not None:
        boundary["length_ratio"] += len(tgt) == policy.max_len_ratio * len(src)
    if len(tgt) > policy.max_len_ratio * len(src):
        return "length_ratio"
    if normalize_pair_key(source_text, target_text) in policy.exclusion_set:
        return "excluded"
    return None


def align_sentences_oracle(
    doc_pairs, src_docs, tgt_docs, scorer, k: int, theta_s: float,
    policy: FilterPolicy, stopwords: frozenset[str], boundary: Counter | None = None,
) -> tuple[list[AlignedGroup], dict[str, int]]:
    """The sentence stage with every filter decision and token total taken
    from the group texts: scoring as the library does it, top-k by
    ``extract_nn_pairs_oracle``, components by breadth-first search, the
    filter by ``text_filter_oracle``.

    Returns the groups and the counts ``align_sentences`` fills in.
    """
    counts = dict.fromkeys((
        "missing_doc", "overlap", "length_ratio", "excluded", "duplicate",
        "scored_pairs", "raw_pairs", "merged_groups", "source_tokens", "target_tokens",
    ), 0)
    groups: list[AlignedGroup] = []
    seen: set[tuple[str, str]] = set()
    for dp in doc_pairs:
        src, tgt = src_docs.get(dp.source_id), tgt_docs.get(dp.target_id)
        if src is None or tgt is None:
            counts["missing_doc"] += 1
            continue
        counts["scored_pairs"] += 1
        values = scorer.matrix(src.sentences, tgt.sentences)
        pairs = extract_nn_pairs_oracle(values, k, theta_s)
        counts["raw_pairs"] += len(pairs)
        if policy.stage == "pair":
            kept = []
            for i, j, sim in pairs:
                reason = text_filter_oracle(
                    src.sentences[i].text, tgt.sentences[j].text, policy, stopwords,
                    boundary,
                )
                if reason is None:
                    kept.append((i, j, sim))
                else:
                    counts[reason] += 1
            pairs = kept
        components = sorted(components_oracle([(i, j) for i, j, _ in pairs]))
        counts["merged_groups"] += len(components)
        for srcs, tgts in components:
            source_text = " ".join(src.sentences[i].text for i in srcs)
            target_text = " ".join(tgt.sentences[j].text for j in tgts)
            if policy.stage == "group":
                reason = text_filter_oracle(
                    source_text, target_text, policy, stopwords, boundary
                )
                if reason is not None:
                    counts[reason] += 1
                    continue
            if (source_text, target_text) in seen:
                counts["duplicate"] += 1
                continue
            seen.add((source_text, target_text))
            counts["source_tokens"] += len(tokenize(source_text, stopwords))
            counts["target_tokens"] += len(tokenize(target_text, stopwords))
            groups.append(AlignedGroup(
                source_doc=src.doc_id,
                target_doc=tgt.doc_id,
                source_ids=tuple(src.sentences[i].uid for i in srcs),
                target_ids=tuple(tgt.sentences[j].uid for j in tgts),
                source_text=source_text,
                target_text=target_text,
                score=max(sim for i, _, sim in pairs if i in srcs),
            ))
    return groups, counts
