"""Independent reference implementations used only by the test suite.

Each oracle takes a different algorithmic route than the library code it
checks: transport cost via successive shortest paths instead of an LP
solver, threshold sweeps via exhaustive Fraction arithmetic, component
merging via breadth-first search, nearest neighbors via a plain sort, the
sentence filter and token counts via re-tokenising each group's text.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, deque
from fractions import Fraction

import numpy as np

from lha.corpus import tokenize
from lha.sent_align import AlignedGroup, FilterPolicy, extract_nn_pairs, normalize_pair_key


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
    from the group texts: scoring and top-k as the library does them,
    components by breadth-first search, the filter by ``text_filter_oracle``.

    Returns the groups and the counts ``align_sentences`` fills in.
    """
    counts = dict.fromkeys((
        "missing_doc", "overlap", "length_ratio", "excluded", "duplicate",
        "raw_pairs", "merged_groups", "source_tokens", "target_tokens",
    ), 0)
    groups: list[AlignedGroup] = []
    seen: set[tuple[str, str]] = set()
    for dp in doc_pairs:
        src, tgt = src_docs.get(dp.source_id), tgt_docs.get(dp.target_id)
        if src is None or tgt is None:
            counts["missing_doc"] += 1
            continue
        values = scorer.matrix(src.sentences, tgt.sentences)
        pairs = extract_nn_pairs(values, k, theta_s)
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
