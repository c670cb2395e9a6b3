"""End-to-end orchestration: embed, index, align documents, align sentences,
filter, emit, with manifest-based stage caching.

Every stage records the tool version, content hashes of its inputs, its
parameters, and its outputs in ``manifest.json``. A stage is skipped when all
four match, so reruns are free, an upgrade recomputes, and deleting an
intermediate file rebuilds exactly that file. Hashing is content-based
throughout; timestamps are never consulted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .ann_index import AnnIndex, build_index
from .corpus import (
    Document,
    corpus_index,
    load_abbreviations,
    load_corpus,
    load_stopwords,
    tokenize,
)
from .doc_align import align_documents, read_doc_pairs, write_doc_pairs
from .embeddings import (
    AvgEmbedder,
    PrecomputedEmbedder,
    embed_corpus,
    load_embeddings,
    load_word_vectors,
    save_embeddings,
)
from .metrics import make_scorer
from .sent_align import (
    FilterPolicy,
    align_sentences,
    load_exclusion_set,
    read_groups,
    write_groups,
    write_groups_tsv,
)

__all__ = [
    "PipelineConfig",
    "PipelineStageError",
    "RunSummary",
    "validate_config",
    "run_pipeline",
]

logger = logging.getLogger(__name__)

_SCORERS = ("cosine", "overlap", "bm25", "wmd", "rwmd")
_STRATEGIES = ("avg", "precomputed")


class PipelineStageError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


@dataclass
class PipelineConfig:
    source_corpus: str
    target_corpus: str
    out_dir: str
    word_vectors: str | None = None
    doc_strategy: str = "avg"
    doc_embeddings_source: str | None = None
    doc_embeddings_target: str | None = None
    sent_strategy: str = "avg"
    sent_embeddings_source: str | None = None
    sent_embeddings_target: str | None = None
    normalize: bool = True
    scorer: str = "cosine"
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    k_doc: int = 5
    k_sent: int = 5
    theta_d: float = 0.5
    theta_s: float = 0.65
    min_overlap: float = 0.4
    max_len_ratio: float = 1.5
    filter_stage: str = "group"
    exclusion_file: str | None = None
    stopwords_file: str | None = None
    abbreviations_file: str | None = None
    emit_tsv: bool = True

    @classmethod
    def from_file(cls, path: Path | str) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
        required = ("source_corpus", "target_corpus", "out_dir")
        missing = [k for k in required if k not in raw]
        if missing:
            raise ValueError(f"{path}: missing required keys: {', '.join(missing)}")
        return cls(**raw)

    def with_overrides(self, overrides: Sequence[str]) -> "PipelineConfig":
        """Apply ``key=value`` strings, coercing values to field types."""
        by_name = {f.name: f for f in fields(self)}
        updates: dict = {}
        for item in overrides:
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"override {item!r} is not key=value")
            if key not in by_name:
                raise ValueError(f"unknown config key {key!r}")
            updates[key] = _coerce(value, by_name[key].type, key)
        return dataclasses.replace(self, **updates)


def _coerce(value: str, annotation: object, key: str):
    text = str(annotation)
    if value.lower() in ("null", "none"):
        if "None" not in text:
            raise ValueError(f"{key} cannot be null")
        return None
    if "bool" in text:
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"{key} expects a boolean, got {value!r}")
    try:
        if "int" in text:
            return int(value)
        if "float" in text:
            return float(value)
    except ValueError as e:
        raise ValueError(f"{key} expects a number, got {value!r}") from e
    return value


def validate_config(config: PipelineConfig) -> list[tuple[str, str]]:
    """Check ranges and combinations; returns (level, message) findings.

    Levels are "error" and "warning". The caller decides whether to proceed;
    run_pipeline refuses on any error.
    """
    findings: list[tuple[str, str]] = []
    err = lambda m: findings.append(("error", m))
    warn = lambda m: findings.append(("warning", m))

    if config.k_doc < 1:
        err(f"k_doc must be >= 1, got {config.k_doc}")
    if config.k_sent < 1:
        err(f"k_sent must be >= 1, got {config.k_sent}")
    if config.scorer not in _SCORERS:
        err(f"scorer must be one of {_SCORERS}, got {config.scorer!r}")
    for name in ("doc_strategy", "sent_strategy"):
        if getattr(config, name) not in _STRATEGIES:
            err(f"{name} must be one of {_STRATEGIES}, got {getattr(config, name)!r}")
    if not 0.0 <= config.min_overlap <= 1.0:
        err(f"min_overlap must be in [0,1], got {config.min_overlap}")
    if config.max_len_ratio <= 0.0:
        err(f"max_len_ratio must be > 0, got {config.max_len_ratio}")
    if config.filter_stage not in ("group", "pair"):
        err(f"filter_stage must be 'group' or 'pair', got {config.filter_stage!r}")
    if math.isnan(config.theta_d) or math.isnan(config.theta_s):
        err("thresholds must not be NaN")
    else:
        if not -1.0 <= config.theta_d <= 1.0:
            err(f"theta_d must be within [-1,1] for cosine, got {config.theta_d}")
        if config.scorer == "cosine":
            if not -1.0 <= config.theta_s <= 1.0:
                err(f"theta_s must be within [-1,1] for cosine, got {config.theta_s}")
            elif config.theta_s < 0.3:
                warn(f"theta_s={config.theta_s} is low for cosine; expect noisy pairs")
        elif config.scorer == "overlap":
            if not 0.0 <= config.theta_s <= 1.0:
                err(f"theta_s must be within [0,1] for overlap, got {config.theta_s}")
        elif config.scorer in ("wmd", "rwmd"):
            if not 0.0 < config.theta_s <= 1.0:
                err(
                    f"theta_s must be within (0,1] for inverse-distance "
                    f"similarities, got {config.theta_s}"
                )
        elif config.scorer == "bm25" and config.theta_s < 0.0:
            err(f"theta_s must be >= 0 for bm25, got {config.theta_s}")

    needs_vectors = (
        config.doc_strategy == "avg"
        or (config.scorer == "cosine" and config.sent_strategy == "avg")
        or config.scorer in ("wmd", "rwmd")
    )
    if needs_vectors and not config.word_vectors:
        err("word_vectors is required by the chosen strategies/scorer")
    if config.doc_strategy == "precomputed" and not (
        config.doc_embeddings_source and config.doc_embeddings_target
    ):
        err("doc_strategy=precomputed needs doc_embeddings_source and _target")
    if config.scorer == "cosine" and config.sent_strategy == "precomputed" and not (
        config.sent_embeddings_source and config.sent_embeddings_target
    ):
        err("sent_strategy=precomputed needs sent_embeddings_source and _target")

    out_dir = Path(config.out_dir).resolve()
    inputs = [config.source_corpus, config.target_corpus, config.word_vectors,
              config.exclusion_file, config.stopwords_file]
    for p in inputs:
        if p and Path(p).resolve() == out_dir:
            err(f"output directory equals input path {p!r}")
    if config.source_corpus == config.target_corpus:
        warn("source and target corpus are the same file (self-alignment)")
    return findings


@dataclass
class RunSummary:
    documents_source: int
    documents_target: int
    sentences_source: int
    sentences_target: int
    doc_pairs: int
    raw_sentence_pairs: int
    merged_groups: int
    dropped: dict[str, int]
    groups: int
    mean_source_tokens: float
    mean_target_tokens: float
    pct_multi_sentence_source: float
    pct_multi_sentence_target: float
    outputs: dict[str, str]
    cached_stages: list[str] = field(default_factory=list)

    def to_dict(self, include_runtime: bool = False) -> dict:
        out = {
            "documents": {"source": self.documents_source, "target": self.documents_target},
            "sentences": {"source": self.sentences_source, "target": self.sentences_target},
            "doc_pairs": self.doc_pairs,
            "raw_sentence_pairs": self.raw_sentence_pairs,
            "merged_groups": self.merged_groups,
            "dropped": dict(sorted(self.dropped.items())),
            "groups": self.groups,
            "mean_source_tokens": self.mean_source_tokens,
            "mean_target_tokens": self.mean_target_tokens,
            "pct_multi_sentence_source": self.pct_multi_sentence_source,
            "pct_multi_sentence_target": self.pct_multi_sentence_target,
            "outputs": dict(sorted(self.outputs.items())),
        }
        if include_runtime:
            out["cached_stages"] = list(self.cached_stages)
        return out

    def to_json(self, include_runtime: bool = False) -> str:
        return json.dumps(self.to_dict(include_runtime), sort_keys=True, indent=2)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _Manifest:
    def __init__(self, path: Path):
        self.path = path
        self.data: dict = {"tool_version": __version__, "stages": {}}
        if path.exists():
            try:
                loaded = json.loads(path.read_text("utf-8"))
                if isinstance(loaded, dict) and "stages" in loaded:
                    self.data = loaded
            except json.JSONDecodeError:
                logger.warning("ignoring unreadable manifest at %s", path)
        self.data["tool_version"] = __version__

    def save(self) -> None:
        # Written aside and renamed over the old file, so a run killed
        # mid-save leaves the previous manifest readable.
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            tmp.write_text(
                json.dumps(self.data, sort_keys=True, indent=2) + "\n", encoding="utf-8"
            )
            os.replace(tmp, self.path)
        finally:
            tmp.unlink(missing_ok=True)

    def run_stage(
        self,
        name: str,
        inputs: dict[str, str],
        params: dict,
        outputs: Sequence[Path],
        compute: Callable[[], None],
        cached_stages: list[str],
    ) -> None:
        record = self.data["stages"].get(name)
        params_canon = json.loads(json.dumps(params, sort_keys=True))
        if (
            record
            and record.get("tool_version") == __version__
            and record.get("inputs") == inputs
            and record.get("params") == params_canon
        ):
            recorded = record.get("outputs", {})
            if all(
                p.exists() and recorded.get(p.name) == _sha256(p) for p in outputs
            ):
                logger.info("stage %s: cached", name)
                cached_stages.append(name)
                return
        logger.info("stage %s: computing", name)
        try:
            compute()
        except Exception as e:
            raise PipelineStageError(name, e) from e
        self.data["stages"][name] = {
            "tool_version": __version__,
            "inputs": inputs,
            "params": params_canon,
            "outputs": {p.name: _sha256(p) for p in outputs},
        }
        self.save()


_BUILTIN = "builtin"


def _hash_or_builtin(path: str | None) -> str:
    return _sha256(Path(path)) if path else _BUILTIN


def run_pipeline(config: PipelineConfig) -> RunSummary:
    """Execute all stages, reusing cached results where hashes match."""
    findings = validate_config(config)
    for level, message in findings:
        (logger.error if level == "error" else logger.warning)("%s", message)
    errors = [m for level, m in findings if level == "error"]
    if errors:
        raise ValueError("invalid config: " + "; ".join(errors))

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(out_dir / "manifest.json")
    cached: list[str] = []

    stopwords = load_stopwords(config.stopwords_file)
    abbreviations = load_abbreviations(config.abbreviations_file)
    text_params = {
        "stopwords": _hash_or_builtin(config.stopwords_file),
        "abbreviations": _hash_or_builtin(config.abbreviations_file),
    }

    table = None
    if config.word_vectors:
        table = load_word_vectors(config.word_vectors)

    corpora: dict[str, dict[str, Document]] = {}

    def docs(side: str) -> dict[str, Document]:
        """The side's corpus, parsed on first use and kept for the run."""
        if side not in corpora:
            path = config.source_corpus if side == "src" else config.target_corpus
            corpora[side] = corpus_index(
                load_corpus(path, side, stopwords=stopwords, abbreviations=abbreviations)
            )
        return corpora[side]

    src_hash = _sha256(Path(config.source_corpus))
    tgt_hash = _sha256(Path(config.target_corpus))
    vectors_hash = _hash_or_builtin(config.word_vectors)

    paths = {
        "docs_source": out_dir / "docs_source.lhae",
        "docs_target": out_dir / "docs_target.lhae",
        "index": out_dir / "docs_target.lhai",
        "doc_pairs": out_dir / "doc_pairs.tsv",
        "sents_source": out_dir / "sents_source.lhae",
        "sents_target": out_dir / "sents_target.lhae",
        "groups": out_dir / "groups.jsonl",
        "groups_tsv": out_dir / "groups.tsv",
        "align_stats": out_dir / "align_stats.json",
        "summary": out_dir / "summary.json",
    }

    def embed_units(level: str, side: str, corpus_hash: str, out_path: Path) -> None:
        unit = "doc" if level == "document" else "sent"
        strategy = getattr(config, f"{unit}_strategy")
        pre_path = getattr(
            config, f"{unit}_embeddings_{'source' if side == 'src' else 'target'}"
        )
        if strategy == "avg":
            strategy_hash = vectors_hash
            make_embedder = lambda: AvgEmbedder(table)
        else:
            strategy_hash = _sha256(Path(pre_path))
            make_embedder = lambda: PrecomputedEmbedder(load_embeddings(pre_path))
        manifest.run_stage(
            f"embed_{unit}s_{side}",
            inputs={"corpus": corpus_hash, "embedding_source": strategy_hash, **text_params},
            params={"level": level, "strategy": strategy, "normalize": config.normalize},
            outputs=[out_path],
            compute=lambda: save_embeddings(
                embed_corpus(
                    docs(side).values(),
                    level,
                    make_embedder(),
                    normalize=config.normalize,
                ),
                out_path,
            ),
            cached_stages=cached,
        )

    embed_units("document", "src", src_hash, paths["docs_source"])
    embed_units("document", "tgt", tgt_hash, paths["docs_target"])

    manifest.run_stage(
        "index_docs",
        inputs={"embeddings": _sha256(paths["docs_target"])},
        params={},
        outputs=[paths["index"]],
        compute=lambda: build_index(load_embeddings(paths["docs_target"])).save(
            paths["index"]
        ),
        cached_stages=cached,
    )

    manifest.run_stage(
        "align_docs",
        inputs={
            "source_embeddings": _sha256(paths["docs_source"]),
            "index": _sha256(paths["index"]),
        },
        params={"k_doc": config.k_doc, "theta_d": config.theta_d},
        outputs=[paths["doc_pairs"]],
        compute=lambda: write_doc_pairs(
            align_documents(
                load_embeddings(paths["docs_source"]),
                AnnIndex.load(paths["index"]),
                config.k_doc,
                config.theta_d,
            ),
            paths["doc_pairs"],
        ),
        cached_stages=cached,
    )

    use_sent_embeddings = config.scorer == "cosine"
    if use_sent_embeddings:
        embed_units("sentence", "src", src_hash, paths["sents_source"])
        embed_units("sentence", "tgt", tgt_hash, paths["sents_target"])

    def compute_alignment() -> None:
        src_docs = docs("src")
        tgt_docs = docs("tgt")
        embedders = {}
        if use_sent_embeddings:
            embedders = {
                "embedder": PrecomputedEmbedder(load_embeddings(paths["sents_source"])),
                "target_embedder": PrecomputedEmbedder(
                    load_embeddings(paths["sents_target"])
                ),
            }
        scorer = make_scorer(
            config.scorer,
            table=table,
            target_docs=tgt_docs.values(),
            k1=config.bm25_k1,
            b=config.bm25_b,
            **embedders,
        )
        exclusion = (
            load_exclusion_set(config.exclusion_file)
            if config.exclusion_file
            else frozenset()
        )
        policy = FilterPolicy(
            min_overlap=config.min_overlap,
            max_len_ratio=config.max_len_ratio,
            exclusion_set=exclusion,
            stage=config.filter_stage,
        )
        doc_pairs = read_doc_pairs(paths["doc_pairs"])
        drop_counts: dict[str, int] = {}
        groups = list(
            align_sentences(
                doc_pairs,
                src_docs,
                tgt_docs,
                scorer,
                config.k_sent,
                config.theta_s,
                policy,
                stopwords,
                drop_counts,
            )
        )
        write_groups(groups, paths["groups"])
        if config.emit_tsv:
            write_groups_tsv(groups, paths["groups_tsv"])
        raw_pairs = drop_counts.pop("raw_pairs")
        merged = drop_counts.pop("merged_groups")
        stats = {
            "documents": {"source": len(src_docs), "target": len(tgt_docs)},
            "sentences": {
                "source": sum(len(d.sentences) for d in src_docs.values()),
                "target": sum(len(d.sentences) for d in tgt_docs.values()),
            },
            "doc_pairs": len(doc_pairs),
            "raw_sentence_pairs": raw_pairs,
            "merged_groups": merged,
            "dropped": dict(sorted(drop_counts.items())),
            "groups": len(groups),
        }
        paths["align_stats"].write_text(
            json.dumps(stats, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )

    align_inputs = {
        "doc_pairs": _sha256(paths["doc_pairs"]),
        "source_corpus": src_hash,
        "target_corpus": tgt_hash,
        "exclusion": _hash_or_builtin(config.exclusion_file),
        **text_params,
    }
    if use_sent_embeddings:
        align_inputs["sents_source"] = _sha256(paths["sents_source"])
        align_inputs["sents_target"] = _sha256(paths["sents_target"])
    elif config.scorer in ("wmd", "rwmd"):
        align_inputs["vectors"] = vectors_hash
    align_outputs = [paths["groups"], paths["align_stats"]]
    if config.emit_tsv:
        align_outputs.append(paths["groups_tsv"])
    manifest.run_stage(
        "align_sents",
        inputs=align_inputs,
        params={
            "k_sent": config.k_sent,
            "theta_s": config.theta_s,
            "scorer": config.scorer,
            "bm25_k1": config.bm25_k1,
            "bm25_b": config.bm25_b,
            "min_overlap": config.min_overlap,
            "max_len_ratio": config.max_len_ratio,
            "filter_stage": config.filter_stage,
            "emit_tsv": config.emit_tsv,
        },
        outputs=align_outputs,
        compute=compute_alignment,
        cached_stages=cached,
    )

    def compute_summary() -> None:
        stats = json.loads(paths["align_stats"].read_text("utf-8"))
        groups = read_groups(paths["groups"])
        n = len(groups)
        src_lens = [len(tokenize(g.source_text, stopwords)) for g in groups]
        tgt_lens = [len(tokenize(g.target_text, stopwords)) for g in groups]
        summary_dict = {
            "documents": stats["documents"],
            "sentences": stats["sentences"],
            "doc_pairs": stats["doc_pairs"],
            "raw_sentence_pairs": stats["raw_sentence_pairs"],
            "merged_groups": stats["merged_groups"],
            "dropped": stats["dropped"],
            "groups": n,
            "mean_source_tokens": round(sum(src_lens) / n, 2) if n else 0.0,
            "mean_target_tokens": round(sum(tgt_lens) / n, 2) if n else 0.0,
            "pct_multi_sentence_source": round(
                100.0 * sum(1 for g in groups if len(g.source_ids) > 1) / n, 1
            )
            if n
            else 0.0,
            "pct_multi_sentence_target": round(
                100.0 * sum(1 for g in groups if len(g.target_ids) > 1) / n, 1
            )
            if n
            else 0.0,
        }
        paths["summary"].write_text(
            json.dumps(summary_dict, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )

    manifest.run_stage(
        "summary",
        inputs={
            "groups": _sha256(paths["groups"]),
            "align_stats": _sha256(paths["align_stats"]),
        },
        params={},
        outputs=[paths["summary"]],
        compute=compute_summary,
        cached_stages=cached,
    )

    summary_dict = json.loads(paths["summary"].read_text("utf-8"))
    outputs = {
        "groups": str(paths["groups"]),
        "doc_pairs": str(paths["doc_pairs"]),
        "summary": str(paths["summary"]),
    }
    if config.emit_tsv:
        outputs["groups_tsv"] = str(paths["groups_tsv"])
    return RunSummary(
        documents_source=summary_dict["documents"]["source"],
        documents_target=summary_dict["documents"]["target"],
        sentences_source=summary_dict["sentences"]["source"],
        sentences_target=summary_dict["sentences"]["target"],
        doc_pairs=summary_dict["doc_pairs"],
        raw_sentence_pairs=summary_dict["raw_sentence_pairs"],
        merged_groups=summary_dict["merged_groups"],
        dropped=summary_dict["dropped"],
        groups=summary_dict["groups"],
        mean_source_tokens=summary_dict["mean_source_tokens"],
        mean_target_tokens=summary_dict["mean_target_tokens"],
        pct_multi_sentence_source=summary_dict["pct_multi_sentence_source"],
        pct_multi_sentence_target=summary_dict["pct_multi_sentence_target"],
        outputs=outputs,
        cached_stages=cached,
    )
