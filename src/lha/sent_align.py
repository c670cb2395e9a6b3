"""Stage 2: align sentences inside each document pair.

Within a DocPair we score every sentence combination, keep the union of
row-wise and column-wise top-K pairs at or above theta_s (selected
threshold-first: only the entries at or above theta_s are ranked), and
merge overlapping pairs into groups (connected components of the bipartite
pair graph). The post-filters then drop groups with weak lexical overlap,
runaway target length, or test-set leakage.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .ann_index import line_ranks
from .corpus import Document, InputError, Sentence, content_tokens, naming
# perfbench/spans.py patches lha.sent_align.tokenize; this module never calls it.
from .corpus import tokenize  # noqa: F401
from .doc_align import DocPair
from .metrics import _FLOOR_SLACK, Scorer, unigram_overlap

__all__ = [
    "AlignedGroup",
    "FilterPolicy",
    "sentence_sim_matrix",
    "extract_nn_pairs",
    "merge_components",
    "merge_groups",
    "filter_reason",
    "DROP_REASONS",
    "align_sentences",
    "normalize_pair_key",
    "load_exclusion_set",
    "write_groups",
    "read_groups",
    "write_groups_tsv",
]

logger = logging.getLogger(__name__)

DROP_REASONS = ("missing_doc", "overlap", "length_ratio", "excluded", "duplicate")

_WS_RE = re.compile(r"\s+")
# What write_groups_tsv writes as a space, so each group stays one line
# of two fields.
_TSV_SPACES = str.maketrans("\t\r\n", "   ")


@dataclass(frozen=True)
class AlignedGroup:
    """A pseudo-parallel group: one or more sentences per side, in document
    order, with the maximum member-pair similarity as the group score."""

    source_doc: str
    target_doc: str
    source_ids: tuple[str, ...]
    target_ids: tuple[str, ...]
    source_text: str
    target_text: str
    score: float


@dataclass(frozen=True)
class FilterPolicy:
    min_overlap: float = 0.4
    max_len_ratio: float = 1.5
    exclusion_set: frozenset[tuple[str, str]] = frozenset()
    stage: str = "group"  # "group" (post-merge, default) or "pair" (pre-merge)

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_overlap <= 1.0:
            raise ValueError(f"min_overlap must be in [0,1], got {self.min_overlap}")
        if not self.max_len_ratio > 0.0:
            raise ValueError(f"max_len_ratio must be > 0, got {self.max_len_ratio}")
        if self.stage not in ("group", "pair"):
            raise ValueError(f"stage must be 'group' or 'pair', got {self.stage!r}")


def normalize_pair_key(source_text: str, target_text: str) -> tuple[str, str]:
    """Lowercase and collapse whitespace; the exclusion-set key form."""
    return (
        _WS_RE.sub(" ", source_text).strip().lower(),
        _WS_RE.sub(" ", target_text).strip().lower(),
    )


def load_exclusion_set(path: Path | str) -> frozenset[tuple[str, str]]:
    """Load test-set sentence pairs to exclude, TSV source<TAB>target."""
    keys = set()
    with naming(path), open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise InputError("expected 2 tab-separated fields", line_no)
            keys.add(normalize_pair_key(fields[0], fields[1]))
    return frozenset(keys)


def sentence_sim_matrix(src_doc: Document, tgt_doc: Document, scorer: Scorer) -> np.ndarray:
    """Score every sentence of src_doc (rows) against every sentence of
    tgt_doc (columns), in document order.

    Sentences the scorer cannot embed score 0 against everything.
    """
    if not src_doc.sentences or not tgt_doc.sentences:
        raise ValueError(
            f"empty document in pair ({src_doc.doc_id!r}, {tgt_doc.doc_id!r})"
        )
    values = scorer.matrix(src_doc.sentences, tgt_doc.sentences)
    expected = (len(src_doc.sentences), len(tgt_doc.sentences))
    if values.shape != expected:
        raise ValueError(f"matrix shape {values.shape} != {expected}")
    return values


def extract_nn_pairs(
    values: np.ndarray, k: int, theta_s: float
) -> list[tuple[int, int, float]]:
    """Union of row-wise and column-wise top-k entries with value >= theta_s.

    Returns (i, j, similarity) triples sorted by (i, j). An entry's rank in
    its row is the number of entries strictly greater plus the equal ones at
    a lower index, so ties break toward the lower index; its rank in its
    column likewise. NaN entries are never kept and rank after every number.

    Selection is threshold-first: every entry ranked ahead of one at or
    above theta_s is itself at or above theta_s, so ranking the candidate
    entries among themselves gives their ranks in the whole row or column.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ii, jj = np.nonzero(values >= theta_s)
    if not ii.size:
        return []
    sims = values[ii, jj]
    keep = (line_ranks(ii, jj, sims) < k) | (line_ranks(jj, ii, sims) < k)
    return list(zip(ii[keep].tolist(), jj[keep].tolist(), sims[keep].tolist()))


def merge_components(
    pairs: Sequence[tuple[int, int] | tuple[int, int, float]],
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Connected components of the bipartite graph given by (i, j) pairs.

    Returns (source_indices, target_indices) per component, each side sorted,
    components ordered by their index tuples. Union-find with path halving.
    """
    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(x: tuple[str, int]) -> tuple[str, int]:
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(x: tuple[str, int], y: tuple[str, int]) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for pair in pairs:
        union(("s", int(pair[0])), ("t", int(pair[1])))
    comps: dict[tuple[str, int], tuple[set[int], set[int]]] = {}
    for node in parent:
        side, idx = node
        srcs, tgts = comps.setdefault(find(node), (set(), set()))
        (srcs if side == "s" else tgts).add(idx)
    out = [
        (tuple(sorted(srcs)), tuple(sorted(tgts)))
        for srcs, tgts in comps.values()
    ]
    out.sort()
    return out


def merge_groups(
    pairs: Sequence[tuple[int, int, float]], src_doc: Document, tgt_doc: Document
) -> list[tuple[tuple[int, ...], tuple[int, ...], AlignedGroup]]:
    """Merge surviving pairs into AlignedGroups (one per connected component).

    Returns each component's source and target sentence indices with its
    group. Sides are emitted in document order, joined by single spaces; the
    group score is the maximum member-pair similarity.
    """
    return [
        (srcs, tgts, AlignedGroup(
            source_doc=src_doc.doc_id,
            target_doc=tgt_doc.doc_id,
            source_ids=tuple(src_doc.sentences[i].uid for i in srcs),
            target_ids=tuple(tgt_doc.sentences[j].uid for j in tgts),
            source_text=" ".join(src_doc.sentences[i].text for i in srcs),
            target_text=" ".join(tgt_doc.sentences[j].text for j in tgts),
            score=max(sim for i, _, sim in pairs if i in srcs),
        ))
        for srcs, tgts in merge_components(pairs)
    ]


def filter_reason(
    sources: Sequence[Sentence], targets: Sequence[Sentence], policy: FilterPolicy
) -> str | None:
    """Why the policy drops the group of these member sentences, or None if
    it passes.

    Checked in order: lexical overlap (content tokens of the target covered
    by the source), target/source length ratio over all tokens, and the
    exclusion set on normalized text keys. The tokens are the ones each
    sentence was parsed with: a group's text joins its members with single
    spaces and no token spans whitespace, so they are exactly the tokens of
    the group's text.
    """
    src_tokens = [t for s in sources for t in s.tokens]
    tgt_tokens = [t for s in targets for t in s.tokens]
    overlap = unigram_overlap(content_tokens(src_tokens), content_tokens(tgt_tokens))
    if overlap < policy.min_overlap:
        return "overlap"
    if len(tgt_tokens) > policy.max_len_ratio * len(src_tokens):
        return "length_ratio"
    # The key costs two regex passes per group; with no set nothing is excluded.
    if policy.exclusion_set and normalize_pair_key(
        " ".join(s.text for s in sources), " ".join(s.text for s in targets)
    ) in policy.exclusion_set:
        return "excluded"
    return None


def _best_cells(
    doc_pairs: Sequence[DocPair],
    src_docs: Mapping[str, Document],
    tgt_docs: Mapping[str, Document],
    scorer: Scorer,
) -> dict[tuple[str, str], float]:
    """The scorer's bound on the best cell of each pair of non-empty
    documents, asked once per source document; empty when it gives none.
    A pair with an empty document gets no bound, so it is scored and raises."""
    targets: dict[str, dict[str, Document]] = {}
    for dp in doc_pairs:
        src, tgt = src_docs.get(dp.source_id), tgt_docs.get(dp.target_id)
        if src is not None and src.sentences and tgt is not None and tgt.sentences:
            targets.setdefault(dp.source_id, {})[dp.target_id] = tgt
    bounds: dict[tuple[str, str], float] = {}
    for source_id, tgts in targets.items():
        best = scorer.best_cells(
            src_docs[source_id].sentences, [t.sentences for t in tgts.values()]
        )
        if best is None:
            return {}
        bounds.update(zip(((source_id, t) for t in tgts), best))
    return bounds


def align_sentences(
    doc_pairs: Sequence[DocPair],
    src_docs: Mapping[str, Document],
    tgt_docs: Mapping[str, Document],
    scorer: Scorer,
    k: int,
    theta_s: float,
    policy: FilterPolicy | None = None,
    drop_counts: dict[str, int] | None = None,
) -> Iterator[AlignedGroup]:
    """Run the full sentence stage over a list of document pairs.

    Yields filtered groups in doc-pair order, deduplicated globally on the
    exact (source_text, target_text) pair. A doc pair referencing an unknown
    document id is logged and skipped. A pair whose best cell the scorer
    bounds below theta_s (see ``Scorer.best_cells``) holds no cell to keep
    and is skipped unscored. ``drop_counts``, when given, is filled with
    a drop tally for each of ``DROP_REASONS``, the ``scored_pairs``,
    ``raw_pairs`` and ``merged_groups`` counts, and the token totals of the
    yielded groups' sides (``source_tokens``, ``target_tokens``).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    policy = policy or FilterPolicy()
    counts = drop_counts if drop_counts is not None else {}
    for key in (*DROP_REASONS, "scored_pairs", "raw_pairs", "merged_groups",
                "source_tokens", "target_tokens"):
        counts.setdefault(key, 0)
    seen: set[tuple[str, str]] = set()
    best = _best_cells(doc_pairs, src_docs, tgt_docs, scorer)
    floor = theta_s - _FLOOR_SLACK
    for dp in doc_pairs:
        src = src_docs.get(dp.source_id)
        tgt = tgt_docs.get(dp.target_id)
        if src is None or tgt is None:
            missing = dp.source_id if src is None else dp.target_id
            logger.warning("skipping doc pair (%s, %s): unknown document %r",
                           dp.source_id, dp.target_id, missing)
            counts["missing_doc"] += 1
            continue
        if best.get((dp.source_id, dp.target_id), floor) < floor:
            continue
        counts["scored_pairs"] += 1
        pairs = extract_nn_pairs(sentence_sim_matrix(src, tgt, scorer), k, theta_s)
        counts["raw_pairs"] += len(pairs)
        if policy.stage == "pair":
            kept_pairs = []
            for i, j, sim in pairs:
                reason = filter_reason((src.sentences[i],), (tgt.sentences[j],), policy)
                if reason is None:
                    kept_pairs.append((i, j, sim))
                else:
                    counts[reason] += 1
            pairs = kept_pairs
        merged = merge_groups(pairs, src, tgt)
        counts["merged_groups"] += len(merged)
        for srcs, tgts, g in merged:
            sources = [src.sentences[i] for i in srcs]
            targets = [tgt.sentences[j] for j in tgts]
            if policy.stage == "group":
                reason = filter_reason(sources, targets, policy)
                if reason is not None:
                    counts[reason] += 1
                    continue
            key = (g.source_text, g.target_text)
            if key in seen:
                counts["duplicate"] += 1
                continue
            seen.add(key)
            counts["source_tokens"] += sum(len(s.tokens) for s in sources)
            counts["target_tokens"] += sum(len(s.tokens) for s in targets)
            yield g


def write_groups(groups: Iterable[AlignedGroup], path: Path | str) -> int:
    """Write groups as JSONL. Returns the number written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for g in groups:
            # The record's keys are the field names.
            fh.write(json.dumps(vars(g), ensure_ascii=False, sort_keys=True))
            fh.write("\n")
            n += 1
    return n


def read_groups(path: Path | str) -> list[AlignedGroup]:
    groups = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            r = json.loads(line)
            groups.append(
                AlignedGroup(
                    source_doc=r["source_doc"],
                    target_doc=r["target_doc"],
                    source_ids=tuple(r["source_ids"]),
                    target_ids=tuple(r["target_ids"]),
                    source_text=r["source_text"],
                    target_text=r["target_text"],
                    score=float(r["score"]),
                )
            )
    return groups


def _one_line(text: str) -> str:
    # translate() looks up every character; most texts need no change.
    if "\t" in text or "\r" in text or "\n" in text:
        return text.translate(_TSV_SPACES)
    return text


def write_groups_tsv(groups: Iterable[AlignedGroup], path: Path | str) -> int:
    """Write ``source_text<TAB>target_text`` lines for translation tooling.

    A tab, carriage return or newline inside a text is written as a space,
    so each group is exactly one line of two fields.
    """
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for g in groups:
            fh.write(f"{_one_line(g.source_text)}\t{_one_line(g.target_text)}\n")
            n += 1
    return n
