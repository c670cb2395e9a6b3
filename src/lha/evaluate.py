"""Evaluation harness: gold labels, F1max threshold sweeps, and the
document / sentence / joint alignment protocols.

The sweep treats every distinct similarity value as a candidate cut: pairs
scoring at or above the cut are predicted positive, gold pairs that were
never scored count as missed. The maximizing cut is found with exact integer
arithmetic so results match an exhaustive oracle bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .ann_index import _top_by_similarity, build_index
from .corpus import Document, Sentence, load_corpus
from .doc_align import align_documents
from .embeddings import AvgEmbedder, PrecomputedEmbedder, embed_corpus
from .metrics import CosineScorer, Scorer
from .sent_align import sentence_sim_matrix

__all__ = [
    "LABELS",
    "GoldPair",
    "EvalReport",
    "normalize_label",
    "load_gold_pairs",
    "save_gold_pairs",
    "gold_from_tsv",
    "f1max_sweep",
    "EvalDataset",
    "load_eval_dataset",
    "eval_sentence_alignment",
    "eval_document_alignment",
    "eval_joint",
]

logger = logging.getLogger(__name__)

LABELS = ("good", "good_partial", "partial", "nonvalid")

_LABEL_ALIASES = {
    "good": "good",
    "good_partial": "good_partial",
    "good partial": "good_partial",
    "goodpartial": "good_partial",
    "partial": "partial",
    "nonvalid": "nonvalid",
    "non_valid": "nonvalid",
    "non-valid": "nonvalid",
    "non valid": "nonvalid",
    "bad": "nonvalid",
}


@dataclass(frozen=True)
class GoldPair:
    source_key: str
    target_key: str
    label: str

    def __post_init__(self) -> None:
        if self.label not in LABELS:
            raise ValueError(
                f"label must be one of {LABELS}, got {self.label!r}"
            )


def normalize_label(raw: str) -> str:
    key = raw.strip().lower()
    if key not in _LABEL_ALIASES:
        raise ValueError(f"unrecognized gold label {raw!r}")
    return _LABEL_ALIASES[key]


def load_gold_pairs(path: Path | str) -> list[GoldPair]:
    """Load gold pairs from JSONL {source_key, target_key, label}."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                r = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}: line {line_no}: invalid JSON") from e
            try:
                pairs.append(
                    GoldPair(
                        source_key=str(r["source_key"]),
                        target_key=str(r["target_key"]),
                        label=normalize_label(r["label"]),
                    )
                )
            except (KeyError, ValueError) as e:
                raise ValueError(f"{path}: line {line_no}: {e}") from e
    return pairs


def save_gold_pairs(pairs: Iterable[GoldPair], path: Path | str) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(
                json.dumps(
                    {"source_key": p.source_key, "target_key": p.target_key,
                     "label": p.label},
                    ensure_ascii=False, sort_keys=True,
                )
            )
            fh.write("\n")
            n += 1
    return n


def gold_from_tsv(
    path: Path | str,
    source_col: int = 0,
    target_col: int = 1,
    label_col: int = 2,
    delimiter: str = "\t",
    skip_header: bool = False,
) -> list[GoldPair]:
    """Adapt a delimited gold file to GoldPairs.

    Column indices are 0-based; labels are normalized ("good partial" and
    "non-valid" variants are accepted). Use this to convert whatever shape
    the annotated set is distributed in.
    """
    pairs = []
    need = max(source_col, target_col, label_col) + 1
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if skip_header and line_no == 1:
                continue
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split(delimiter)
            if len(fields) < need:
                raise ValueError(
                    f"{path}: line {line_no}: expected at least {need} fields, "
                    f"got {len(fields)}"
                )
            try:
                label = normalize_label(fields[label_col])
            except ValueError as e:
                raise ValueError(f"{path}: line {line_no}: {e}") from e
            pairs.append(
                GoldPair(
                    source_key=fields[source_col].strip(),
                    target_key=fields[target_col].strip(),
                    label=label,
                )
            )
    return pairs


@dataclass(frozen=True)
class EvalReport:
    f1_max: float
    precision_at_max: float
    recall_at_max: float  # shown as TP% in tables
    best_threshold: float | None
    positives_total: int
    retrieved_at_max: int
    throughput_units_per_sec: float = 0.0
    wall_clock_sec: float = 0.0
    scored_pairs: int = 0
    details: dict = field(default_factory=dict)

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "f1_max": self.f1_max,
            "precision_at_max": self.precision_at_max,
            "recall_at_max": self.recall_at_max,
            "best_threshold": self.best_threshold,
            "positives_total": self.positives_total,
            "retrieved_at_max": self.retrieved_at_max,
            "scored_pairs": self.scored_pairs,
            "details": dict(sorted(self.details.items())),
        }
        if include_timing:
            out["throughput_units_per_sec"] = self.throughput_units_per_sec
            out["wall_clock_sec"] = self.wall_clock_sec
        return out

    def to_json(self, include_timing: bool = False) -> str:
        # Timing is excluded by default so reports under a fixed seed are
        # byte-identical across runs.
        return json.dumps(self.to_dict(include_timing), sort_keys=True)

    def table(self) -> str:
        threshold = (
            f"{self.best_threshold:.4f}" if self.best_threshold is not None else "n/a"
        )
        rows = [
            ("F1max", f"{self.f1_max:.4f}"),
            ("TP%", f"{self.recall_at_max * 100:.1f}%"),
            ("precision", f"{self.precision_at_max:.4f}"),
            ("best threshold", threshold),
            ("gold positives", str(self.positives_total)),
            ("retrieved at max", str(self.retrieved_at_max)),
            ("scored pairs", str(self.scored_pairs)),
            ("wall clock", f"{self.wall_clock_sec:.2f}s"),
            ("throughput", f"{self.throughput_units_per_sec:.1f}/s"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


PairKey = tuple[str, str]


def f1max_sweep(
    scored: Mapping[PairKey, float] | Iterable[tuple[PairKey, float]],
    gold_positive: set[PairKey] | frozenset[PairKey],
) -> EvalReport:
    """Find the similarity cut maximizing F1 against the gold positives.

    Candidate cuts are the distinct scores; a pair is predicted positive when
    its score >= cut. Gold pairs absent from ``scored`` count as misses. Ties
    in F1 resolve toward the higher threshold. The argmax is selected by
    integer cross-multiplication, so no floating-point comparison is involved.
    """
    if not gold_positive:
        raise ValueError("gold_positive must be non-empty")
    items = list(scored.items()) if isinstance(scored, Mapping) else list(scored)
    seen_keys: set[PairKey] = set()
    for key, score in items:
        if key in seen_keys:
            raise ValueError(f"duplicate scored pair {key!r}")
        seen_keys.add(key)
        if math.isnan(score):
            raise ValueError(f"NaN score for pair {key!r}")
    items.sort(key=lambda kv: -kv[1])
    gold_total = len(gold_positive)
    # F1 at a cut with tp hits among r retrieved is 2*tp / (r + gold_total).
    best_tp = 0
    best_retrieved = 0
    best_threshold: float | None = None
    tp = 0
    i = 0
    n = len(items)
    while i < n:
        value = items[i][1]
        j = i
        while j < n and items[j][1] == value:
            if items[j][0] in gold_positive:
                tp += 1
            j += 1
        retrieved = j
        if best_threshold is None or (
            2 * tp * (best_retrieved + gold_total)
            > 2 * best_tp * (retrieved + gold_total)
        ):
            best_tp, best_retrieved, best_threshold = tp, retrieved, value
        i = j
    if best_threshold is None:
        return EvalReport(
            f1_max=0.0,
            precision_at_max=0.0,
            recall_at_max=0.0,
            best_threshold=None,
            positives_total=gold_total,
            retrieved_at_max=0,
            scored_pairs=0,
        )
    return EvalReport(
        f1_max=2 * best_tp / (best_retrieved + gold_total),
        precision_at_max=best_tp / best_retrieved,
        recall_at_max=best_tp / gold_total,
        best_threshold=best_threshold,
        positives_total=gold_total,
        retrieved_at_max=best_retrieved,
        scored_pairs=len(items),
    )


@dataclass
class EvalDataset:
    """The prepared evaluation fixture: labelled article pairs plus noise pools."""

    src_docs: dict[str, Document]
    tgt_docs: dict[str, Document]
    gold_doc_pairs: list[tuple[str, str]]
    gold_pairs: list[GoldPair]
    noise_src: list[Document]
    noise_tgt: list[Document]


_DATASET_FILES = (
    "source_docs.jsonl",
    "target_docs.jsonl",
    "doc_pairs.tsv",
    "gold_pairs.jsonl",
    "noise_source_docs.jsonl",
    "noise_target_docs.jsonl",
)


def load_eval_dataset(root: Path | str) -> EvalDataset:
    """Load a prepared evaluation directory.

    Expects: source_docs.jsonl and target_docs.jsonl (the annotated article
    pairs), doc_pairs.tsv (gold article pairings, two tab-separated ids per
    line), gold_pairs.jsonl (labelled sentence pairs keyed docid#ordinal),
    and noise_source_docs.jsonl / noise_target_docs.jsonl (distractor pools).
    """
    root = Path(root)
    missing = [name for name in _DATASET_FILES if not (root / name).exists()]
    if missing:
        raise FileNotFoundError(
            f"evaluation dataset incomplete at {root}: missing {', '.join(missing)}. "
            "Prepare the annotated wiki/simple alignment set as described in the "
            "README section 'Evaluation data': convert the published gold file "
            "with `gold_from_tsv`, write the annotated articles to "
            "source_docs.jsonl/target_docs.jsonl with sentence ids docid#ordinal, "
            "list the gold article pairs in doc_pairs.tsv, and place ~1000 "
            "distractor articles per side in the noise files."
        )
    src_docs = {d.doc_id: d for d in load_corpus(root / "source_docs.jsonl", "src")}
    tgt_docs = {d.doc_id: d for d in load_corpus(root / "target_docs.jsonl", "tgt")}
    gold_doc_pairs = []
    with open(root / "doc_pairs.tsv", "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) < 2:
                raise ValueError(
                    f"doc_pairs.tsv line {line_no}: expected 2 tab-separated ids"
                )
            gold_doc_pairs.append((fields[0], fields[1]))
    gold_pairs = load_gold_pairs(root / "gold_pairs.jsonl")
    noise_src = list(load_corpus(root / "noise_source_docs.jsonl", "noise_src"))
    noise_tgt = list(load_corpus(root / "noise_target_docs.jsonl", "noise_tgt"))
    return EvalDataset(
        src_docs=src_docs,
        tgt_docs=tgt_docs,
        gold_doc_pairs=gold_doc_pairs,
        gold_pairs=gold_pairs,
        noise_src=noise_src,
        noise_tgt=noise_tgt,
    )


def gold_positive_set(
    gold_pairs: Iterable[GoldPair], positive_labels: Sequence[str] = ("good",)
) -> set[PairKey]:
    allowed = set(positive_labels)
    unknown = allowed - set(LABELS)
    if unknown:
        raise ValueError(f"unknown positive labels {sorted(unknown)}")
    return {
        (g.source_key, g.target_key) for g in gold_pairs if g.label in allowed
    }


def _score_doc_pair(
    src: Document, tgt: Document, scorer: Scorer, scored: dict[PairKey, float]
) -> None:
    """Add the score of every sentence pair of the two documents to ``scored``."""
    values = sentence_sim_matrix(src, tgt, scorer)
    for s, row in zip(src.sentences, values.tolist()):
        scored.update(((s.uid, t.uid), sim) for t, sim in zip(tgt.sentences, row))


def eval_sentence_alignment(
    dataset: EvalDataset,
    scorer: Scorer,
    positive_labels: Sequence[str] = ("good",),
) -> EvalReport:
    """Score all sentence pairs within the gold article pairs, then sweep."""
    start = time.perf_counter()
    scored: dict[PairKey, float] = {}
    for src_id, tgt_id in dataset.gold_doc_pairs:
        src = dataset.src_docs.get(src_id)
        tgt = dataset.tgt_docs.get(tgt_id)
        if src is None or tgt is None:
            raise KeyError(f"gold doc pair ({src_id!r}, {tgt_id!r}) not in corpus")
        _score_doc_pair(src, tgt, scorer, scored)
    wall = time.perf_counter() - start
    report = f1max_sweep(scored, gold_positive_set(dataset.gold_pairs, positive_labels))
    details = {
        "protocol": "sentence",
        "scorer": scorer.kind,
        "doc_pairs": len(dataset.gold_doc_pairs),
        "positive_labels": list(positive_labels),
    }
    return _with_timing(report, wall, details)


def _with_timing(report: EvalReport, wall: float, details: dict) -> EvalReport:
    return dataclasses.replace(
        report,
        throughput_units_per_sec=report.scored_pairs / wall if wall > 0 else 0.0,
        wall_clock_sec=wall,
        details={**report.details, **details},
    )


def _sample_noise(
    pool: Sequence[Document],
    exclude_ids: set[str],
    n_noise: int,
    rng: np.random.Generator,
) -> list[Document]:
    eligible = [d for d in pool if d.doc_id not in exclude_ids]
    if len(eligible) < n_noise:
        raise ValueError(
            f"noise pool has {len(eligible)} eligible documents, need {n_noise}"
        )
    picks = rng.choice(len(eligible), size=n_noise, replace=False)
    return [eligible[int(i)] for i in picks]


def _doc_sim_matrix(
    src_list: Sequence[Document],
    tgt_list: Sequence[Document],
    embedder: AvgEmbedder | PrecomputedEmbedder | None,
    scorer: Scorer | None,
) -> np.ndarray:
    if (embedder is None) == (scorer is None):
        raise ValueError("provide exactly one of embedder or scorer")
    if embedder is not None:
        src_m = embed_corpus(src_list, "document", embedder)
        tgt_m = embed_corpus(tgt_list, "document", embedder)
        return src_m.rows.astype(np.float64) @ tgt_m.rows.astype(np.float64).T
    if isinstance(scorer, CosineScorer):
        raise ValueError("for document cosine, pass embedder= instead of a scorer")

    def whole(d: Document) -> Sentence:
        """The document as one sentence holding all of its tokens."""
        return Sentence(d.doc_id, 0, "", tuple(d.tokens()))

    return scorer.matrix([whole(d) for d in src_list], [whole(d) for d in tgt_list])


def eval_document_alignment(
    dataset: EvalDataset,
    embedder: AvgEmbedder | PrecomputedEmbedder | None = None,
    scorer: Scorer | None = None,
    n_noise: int = 1000,
    seed: int = 0,
) -> EvalReport:
    """The document-identification protocol: mix the gold articles with noise
    articles on both sides, score every cross pair, sweep against the gold
    article pairs. Scoring uses either document embeddings (cosine) or a
    non-cosine scorer over whole documents.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    gold_src_ids = [a for a, _ in dataset.gold_doc_pairs]
    gold_tgt_ids = [b for _, b in dataset.gold_doc_pairs]
    src_list = [dataset.src_docs[a] for a in dict.fromkeys(gold_src_ids)]
    tgt_list = [dataset.tgt_docs[b] for b in dict.fromkeys(gold_tgt_ids)]
    src_list += _sample_noise(dataset.noise_src, {d.doc_id for d in src_list}, n_noise, rng)
    tgt_list += _sample_noise(dataset.noise_tgt, {d.doc_id for d in tgt_list}, n_noise, rng)
    sims = _doc_sim_matrix(src_list, tgt_list, embedder, scorer)
    scored = {
        (s.doc_id, t.doc_id): float(sims[i, j])
        for i, s in enumerate(src_list)
        for j, t in enumerate(tgt_list)
    }
    wall = time.perf_counter() - start
    report = f1max_sweep(scored, set(dataset.gold_doc_pairs))
    details = {
        "protocol": "document",
        "scorer": scorer.kind if scorer is not None else "cosine",
        "noise_seed": seed,
        "noise_per_side": n_noise,
        "candidates": len(scored),
    }
    return _with_timing(report, wall, details)


def _rescore(
    scored: dict[PairKey, float],
    src_by_uid: Mapping[str, Sentence],
    tgt_by_uid: Mapping[str, Sentence],
    rescorer: Scorer,
    top: int,
) -> dict[PairKey, float]:
    """Keep the top candidates per source sentence and re-score them.

    The sides are looked up separately because a source and a target
    sentence may share a uid.
    """
    by_source: dict[str, list[tuple[float, str]]] = {}
    for (s_uid, t_uid), sim in scored.items():
        by_source.setdefault(s_uid, []).append((sim, t_uid))
    out: dict[PairKey, float] = {}
    for s_uid, cands in by_source.items():
        cands.sort(key=lambda c: (-c[0], c[1]))
        t_uids = [t_uid for _, t_uid in cands[:top]]
        row = rescorer.matrix([src_by_uid[s_uid]], [tgt_by_uid[t] for t in t_uids])[0]
        out.update({(s_uid, t): sim for t, sim in zip(t_uids, row.tolist())})
    return out


def eval_joint(
    mode: str,
    dataset: EvalDataset,
    sent_scorer: Scorer,
    doc_embedder: AvgEmbedder | PrecomputedEmbedder | None = None,
    k_doc: int = 5,
    theta_d: float = 0.5,
    n_noise: int = 1000,
    seed: int = 0,
    rescorer: Scorer | None = None,
    rescore_top: int = 50,
    global_top: int = 50,
    positive_labels: Sequence[str] = ("good",),
) -> EvalReport:
    """Compare hierarchical retrieval against flat dataset-wide retrieval.

    mode "lha": document alignment narrows the corpus to surviving DocPairs,
    all sentence pairs inside them are scored. mode "global": every source
    sentence retrieves its nearest target sentences across the entire
    dataset, ignoring documents. Optionally the top candidates per source
    sentence are re-scored with ``rescorer`` (the exact-transport
    configuration). Wall-clock is recorded for the speed comparison.
    """
    if mode not in ("lha", "global"):
        raise ValueError(f"mode must be 'lha' or 'global', got {mode!r}")
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    src_gold = list(dict.fromkeys(a for a, _ in dataset.gold_doc_pairs))
    tgt_gold = list(dict.fromkeys(b for _, b in dataset.gold_doc_pairs))
    src_list = [dataset.src_docs[a] for a in src_gold]
    tgt_list = [dataset.tgt_docs[b] for b in tgt_gold]
    src_list += _sample_noise(dataset.noise_src, set(src_gold), n_noise, rng)
    tgt_list += _sample_noise(dataset.noise_tgt, set(tgt_gold), n_noise, rng)
    src_sents = [s for doc in src_list for s in doc.sentences]
    tgt_sents = [s for doc in tgt_list for s in doc.sentences]
    details: dict = {
        "protocol": "joint",
        "mode": mode,
        "scorer": sent_scorer.kind,
        "noise_seed": seed,
        "noise_per_side": n_noise,
        "rescorer": rescorer.kind if rescorer is not None else None,
    }

    scored: dict[PairKey, float] = {}
    if mode == "lha":
        if doc_embedder is None:
            raise ValueError("lha mode needs a document embedder")
        src_m = embed_corpus(src_list, "document", doc_embedder)
        tgt_m = embed_corpus(tgt_list, "document", doc_embedder)
        doc_pairs = align_documents(src_m, build_index(tgt_m), k_doc, theta_d)
        details["doc_pairs"] = len(doc_pairs)
        src_by_id = {d.doc_id: d for d in src_list}
        tgt_by_id = {d.doc_id: d for d in tgt_list}
        for dp in doc_pairs:
            _score_doc_pair(
                src_by_id[dp.source_id], tgt_by_id[dp.target_id], sent_scorer, scored
            )
    else:
        if not isinstance(sent_scorer, CosineScorer):
            raise ValueError("global mode needs a cosine (embedding) scorer")
        tgt_unit = sent_scorer.target_rows(tgt_sents)
        tgt_uids = np.array([s.uid for s in tgt_sents], dtype=np.str_)
        top = min(global_top, len(tgt_sents))
        block = 512
        for lo in range(0, len(src_sents), block):
            chunk = src_sents[lo : lo + block]
            src_unit = sent_scorer.source_rows(chunk)
            for s, v, row in zip(chunk, src_unit, src_unit @ tgt_unit.T):
                for j, sim in zip(*_top_by_similarity(tgt_uids, row, top, tgt_unit, v)):
                    scored[(s.uid, str(tgt_uids[j]))] = float(sim)
        details["global_top"] = top
    details["candidates"] = len(scored)
    if rescorer is not None:
        scored = _rescore(
            scored,
            {s.uid: s for s in src_sents},
            {s.uid: s for s in tgt_sents},
            rescorer,
            rescore_top,
        )
        details["rescore_top"] = rescore_top
        details["rescored"] = len(scored)
    wall = time.perf_counter() - start
    report = f1max_sweep(
        scored, gold_positive_set(dataset.gold_pairs, positive_labels)
    )
    return _with_timing(report, wall, details)
