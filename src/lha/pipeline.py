"""End-to-end orchestration: embed, align documents, align sentences,
filter, emit, with manifest-based stage caching.

``run_pipeline`` declares its stages as one list of records (name, inputs,
params, outputs, compute) and runs them in order. Every stage records the
tool version, content hashes of its inputs, its parameters, and its outputs
in ``manifest.json``. A stage is skipped when all four match, so reruns are
free, an upgrade recomputes, and deleting an intermediate file rebuilds
exactly that file. Hashing is content-based throughout, and each file is
hashed once per run; timestamps are never consulted.
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
from .ann_index import build_index
from .corpus import (
    Document,
    corpus_index,
    load_abbreviations,
    load_corpus,
    load_stopwords,
)
# perfbench/spans.py patches lha.pipeline.tokenize; the pipeline never calls it.
from .corpus import tokenize  # noqa: F401
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
    write_groups,
    write_groups_tsv,
)
# perfbench/spans.py patches lha.pipeline.read_groups; the pipeline never calls it.
from .sent_align import read_groups  # noqa: F401

__all__ = [
    "PipelineConfig",
    "PipelineStageError",
    "RunSummary",
    "align_doc_files",
    "validate_config",
    "value_findings",
    "run_pipeline",
]

logger = logging.getLogger(__name__)

_SCORERS = ("cosine", "overlap", "bm25", "wmd", "rwmd")


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
    doc_embeddings_source: str | None = None
    doc_embeddings_target: str | None = None
    sent_embeddings_source: str | None = None
    sent_embeddings_target: str | None = None
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
        type_errors = _type_errors(raw)
        if type_errors:
            raise ValueError(f"{path}: {type_errors[0]}")
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


# The JSON value types each field annotation accepts. Types are matched
# exactly, so true and false never stand for a number.
_JSON_TYPES = {"bool": (bool,), "int": (int,), "float": (int, float), "str": (str,)}


def _json_matches(value: object, annotation: str) -> bool:
    if value is None:
        return "None" in annotation
    return type(value) in _JSON_TYPES[annotation.split(" | ")[0]]


def _type_errors(values: dict) -> list[str]:
    """A message for each config key in ``values`` whose value has the wrong type."""
    return [
        f"config key {f.name!r} expects {f.type}, got {values[f.name]!r}"
        for f in fields(PipelineConfig)
        if f.name in values and not _json_matches(values[f.name], str(f.type))
    ]


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


# Config key, or "theta_s <scorer>", -> (test, allowed values); NaN fails each test.
_RULES = {
    "k_doc": (lambda v: v >= 1, ">= 1"),
    "k_sent": (lambda v: v >= 1, ">= 1"),
    "theta_d": (lambda v: -1.0 <= v <= 1.0, "within [-1,1] for cosine"),
    "min_overlap": (lambda v: 0.0 <= v <= 1.0, "in [0,1]"),
    "max_len_ratio": (lambda v: v > 0.0, "> 0"),
    "theta_s cosine": (lambda v: -1.0 <= v <= 1.0, "within [-1,1] for cosine"),
    "theta_s overlap": (lambda v: 0.0 <= v <= 1.0, "within [0,1] for overlap"),
    "theta_s bm25": (lambda v: v >= 0.0, ">= 0 for bm25"),
    "theta_s wmd": (lambda v: 0.0 < v <= 1.0, "within (0,1] for wmd and rwmd"),
}
_RULES["theta_s rwmd"] = _RULES["theta_s wmd"]


def value_findings(values: dict, scorer: str) -> list[tuple[str, str]]:
    """``validate_config``'s (level, message) findings on ``values``, config
    key -> (name to report, value); ``theta_s`` is checked for ``scorer``."""
    findings = []
    for key, (name, value) in values.items():
        test, allowed = _RULES[f"{key} {scorer}" if key == "theta_s" else key]
        if math.isnan(value):
            findings.append(("error", f"{name} must not be NaN"))
        elif not test(value):
            findings.append(("error", f"{name} must be {allowed}, got {value}"))
        elif key == "theta_s" and scorer == "cosine" and value < 0.3:
            findings.append(("warning", f"{name} {value} is low for cosine; expect noise"))
    return findings


# The config keys that name files the run reads.
_INPUT_FILES = ("source_corpus", "target_corpus", "word_vectors", "doc_embeddings_source",
                "doc_embeddings_target", "sent_embeddings_source", "sent_embeddings_target",
                "exclusion_file", "stopwords_file", "abbreviations_file")


def _precomputed(config: PipelineConfig, unit: str) -> bool:
    """Whether both ``{unit}_embeddings_source`` and ``_target`` are given."""
    return all(getattr(config, f"{unit}_embeddings_{s}") for s in ("source", "target"))


def validate_config(config: PipelineConfig) -> list[tuple[str, str]]:
    """Check types, ranges and combinations; returns (level, message) findings.

    Levels are "error" and "warning". The caller decides whether to proceed;
    run_pipeline refuses on any error. Values of the wrong type are reported
    alone, before any range is checked.
    """
    type_errors = _type_errors(vars(config))
    if type_errors:
        return [("error", m) for m in type_errors]
    findings: list[tuple[str, str]] = []
    err = lambda m: findings.append(("error", m))
    warn = lambda m: findings.append(("warning", m))

    keys = ["k_doc", "k_sent", "theta_d", "min_overlap", "max_len_ratio"]
    if config.scorer in _SCORERS:
        keys.append("theta_s")
    else:
        err(f"scorer must be one of {_SCORERS}, got {config.scorer!r}")
    findings += value_findings({k: (k, getattr(config, k)) for k in keys}, config.scorer)
    if config.filter_stage not in ("group", "pair"):
        err(f"filter_stage must be 'group' or 'pair', got {config.filter_stage!r}")
    for unit in ("doc", "sent"):
        files = [getattr(config, f"{unit}_embeddings_{s}") for s in ("source", "target")]
        if any(files) and not all(files):
            err(f"give both {unit}_embeddings_source and _target, or neither")
    if config.scorer != "cosine" and _precomputed(config, "sent"):
        warn(f"the {config.scorer} scorer does not read sent_embeddings_source/_target")
    needs_vectors = (
        not _precomputed(config, "doc")
        or (config.scorer == "cosine" and not _precomputed(config, "sent"))
        or config.scorer in ("wmd", "rwmd")
    )
    if needs_vectors and not config.word_vectors:
        err("word_vectors is required by the chosen embeddings/scorer")

    out_dir = Path(config.out_dir).resolve()
    for key in _INPUT_FILES:
        p = getattr(config, key)
        if not p:
            continue
        if Path(p).resolve() == out_dir:
            err(f"output directory equals input path {p!r}")
        elif not Path(p).is_file():
            err(f"{key} {p!r} is not an existing file")
    if config.source_corpus == config.target_corpus:
        warn("source and target corpus are the same file (self-alignment)")
    return findings


@dataclass
class RunSummary:
    """The run's ``summary.json`` plus its output paths and cached stages."""

    summary: dict
    outputs: dict[str, str]
    cached_stages: list[str] = field(default_factory=list)

    def to_dict(self, include_runtime: bool = False) -> dict:
        out = {**self.summary, "outputs": dict(sorted(self.outputs.items()))}
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


@dataclass(frozen=True)
class _Stage:
    """One cached step: ``compute`` writes ``outputs``.

    An input is a literal such as ``"builtin"``, or the Path of a file: a
    pipeline input, or an output of an earlier stage. A file input stands in
    the manifest as its content hash.
    """

    name: str
    inputs: dict[str, str | Path]
    params: dict
    outputs: list[Path]
    compute: Callable[[], None]


class _Manifest:
    def __init__(self, path: Path):
        self.path = path
        self.data: dict = {"tool_version": __version__, "stages": {}}
        if path.exists():
            try:
                loaded = json.loads(path.read_text("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                loaded = None
            if isinstance(loaded, dict) and isinstance(loaded.get("stages"), dict):
                self.data = loaded
            else:
                logger.warning("ignoring unreadable manifest at %s", path)
        self.data["tool_version"] = __version__
        # Content hash of every file read or written in this run.
        self.hashes: dict[Path, str] = {}

    def hash(self, path: Path) -> str:
        if path not in self.hashes:
            self.hashes[path] = _sha256(path)
        return self.hashes[path]

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

    def run_stage(self, stage: _Stage, cached_stages: list[str]) -> None:
        """Skip the stage when its record matches, else compute and record it."""
        inputs = {
            key: self.hash(value) if isinstance(value, Path) else value
            for key, value in stage.inputs.items()
        }
        params = json.loads(json.dumps(stage.params, sort_keys=True))
        record = self.data["stages"].get(stage.name)
        recorded = record.get("outputs") if isinstance(record, dict) else None
        if (
            isinstance(recorded, dict)
            and record.get("tool_version") == __version__
            and record.get("inputs") == inputs
            and record.get("params") == params
            and all(
                p.exists() and recorded.get(p.name) == self.hash(p)
                for p in stage.outputs
            )
        ):
            logger.info("stage %s: cached", stage.name)
            cached_stages.append(stage.name)
            return
        logger.info("stage %s: computing", stage.name)
        try:
            stage.compute()
        except Exception as e:
            raise PipelineStageError(stage.name, e) from e
        for p in stage.outputs:
            self.hashes[p] = _sha256(p)
        self.data["stages"][stage.name] = {
            "tool_version": __version__,
            "inputs": inputs,
            "params": params,
            "outputs": {p.name: self.hashes[p] for p in stage.outputs},
        }
        self.save()


def _file_or_builtin(path: str | None) -> Path | str:
    return Path(path) if path else "builtin"


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def align_doc_files(source: Path | str, target: Path | str, k: int, theta_d: float,
                    out: Path | str) -> int:
    """The ``align_docs`` stage: pair the documents of the ``source`` embedding
    file with those of ``target``, indexed in memory; returns the pairs written."""
    index = build_index(load_embeddings(target))
    return write_doc_pairs(align_documents(load_embeddings(source), index, k, theta_d), out)


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
        "stopwords": _file_or_builtin(config.stopwords_file),
        "abbreviations": _file_or_builtin(config.abbreviations_file),
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

    src_corpus = Path(config.source_corpus)
    tgt_corpus = Path(config.target_corpus)
    vectors = _file_or_builtin(config.word_vectors)

    paths = {
        "docs_source": out_dir / "docs_source.lhae",
        "docs_target": out_dir / "docs_target.lhae",
        "doc_pairs": out_dir / "doc_pairs.tsv",
        "sents_source": out_dir / "sents_source.lhae",
        "sents_target": out_dir / "sents_target.lhae",
        "groups": out_dir / "groups.jsonl",
        "groups_tsv": out_dir / "groups.tsv",
        "align_stats": out_dir / "align_stats.json",
        "summary": out_dir / "summary.json",
    }

    def embed_units(level: str, side: str, corpus: Path, out_path: Path) -> _Stage:
        unit = "doc" if level == "document" else "sent"
        strategy = "precomputed" if _precomputed(config, unit) else "avg"
        pre_path = getattr(
            config, f"{unit}_embeddings_{'source' if side == 'src' else 'target'}"
        )
        if strategy == "avg":
            embedding_source = vectors
            make_embedder = lambda: AvgEmbedder(table)
        else:
            embedding_source = Path(pre_path)
            make_embedder = lambda: PrecomputedEmbedder(load_embeddings(pre_path))
        return _Stage(
            f"embed_{unit}s_{side}",
            inputs={"corpus": corpus, "embedding_source": embedding_source, **text_params},
            params={"level": level, "strategy": strategy},
            outputs=[out_path],
            compute=lambda: save_embeddings(
                embed_corpus(docs(side).values(), level, make_embedder()), out_path
            ),
        )

    use_sent_embeddings = config.scorer == "cosine"

    def compute_alignment() -> None:
        src_docs = docs("src")
        tgt_docs = docs("tgt")
        sentence_matrices = {}
        if use_sent_embeddings:
            sentence_matrices = {
                side: load_embeddings(paths[f"sents_{side}"]) for side in ("source", "target")
            }
        scorer = make_scorer(
            config.scorer,
            table=table,
            target_docs=tgt_docs.values(),
            k1=config.bm25_k1,
            b=config.bm25_b,
            **sentence_matrices,
        )
        exclusion = config.exclusion_file
        policy = FilterPolicy(
            min_overlap=config.min_overlap,
            max_len_ratio=config.max_len_ratio,
            exclusion_set=load_exclusion_set(exclusion) if exclusion else frozenset(),
            stage=config.filter_stage,
        )
        doc_pairs = read_doc_pairs(paths["doc_pairs"])
        drop_counts: dict[str, int] = {}
        groups = list(align_sentences(
            doc_pairs, src_docs, tgt_docs, scorer, config.k_sent, config.theta_s,
            policy, drop_counts,
        ))
        write_groups(groups, paths["groups"])
        if config.emit_tsv:
            write_groups_tsv(groups, paths["groups_tsv"])
        raw_pairs = drop_counts.pop("raw_pairs")
        merged = drop_counts.pop("merged_groups")
        source_tokens = drop_counts.pop("source_tokens")
        target_tokens = drop_counts.pop("target_tokens")
        n = len(groups)
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
            "groups": n,
        }
        _write_json(paths["align_stats"], stats)

        def mean(total: int) -> float:
            return round(total / n, 2) if n else 0.0

        def pct_multi(id_lists) -> float:
            multi = sum(len(ids) > 1 for ids in id_lists)
            return round(100.0 * multi / n, 1) if n else 0.0

        _write_json(paths["summary"], {
            **stats,
            "mean_source_tokens": mean(source_tokens),
            "mean_target_tokens": mean(target_tokens),
            "pct_multi_sentence_source": pct_multi(g.source_ids for g in groups),
            "pct_multi_sentence_target": pct_multi(g.target_ids for g in groups),
        })

    align_inputs = {
        "doc_pairs": paths["doc_pairs"],
        "source_corpus": src_corpus,
        "target_corpus": tgt_corpus,
        "exclusion": _file_or_builtin(config.exclusion_file),
        **text_params,
    }
    if use_sent_embeddings:
        align_inputs["sents_source"] = paths["sents_source"]
        align_inputs["sents_target"] = paths["sents_target"]
    elif config.scorer in ("wmd", "rwmd"):
        align_inputs["vectors"] = vectors

    stages = [
        embed_units("document", "src", src_corpus, paths["docs_source"]),
        embed_units("document", "tgt", tgt_corpus, paths["docs_target"]),
        _Stage(
            "align_docs",
            inputs={
                "source_embeddings": paths["docs_source"],
                "target_embeddings": paths["docs_target"],
            },
            params={key: getattr(config, key) for key in ("k_doc", "theta_d")},
            outputs=[paths["doc_pairs"]],
            compute=lambda: align_doc_files(paths["docs_source"], paths["docs_target"],
                                            config.k_doc, config.theta_d, paths["doc_pairs"]),
        ),
        *(
            [
                embed_units("sentence", "src", src_corpus, paths["sents_source"]),
                embed_units("sentence", "tgt", tgt_corpus, paths["sents_target"]),
            ]
            if use_sent_embeddings
            else []
        ),
        _Stage(
            "align_sents",
            inputs=align_inputs,
            params={key: getattr(config, key) for key in (
                "k_sent", "theta_s", "scorer", "bm25_k1", "bm25_b",
                "min_overlap", "max_len_ratio", "filter_stage", "emit_tsv",
            )},
            outputs=[paths["groups"], paths["align_stats"], paths["summary"]]
            + ([paths["groups_tsv"]] if config.emit_tsv else []),
            compute=compute_alignment,
        ),
    ]
    for stage in stages:
        manifest.run_stage(stage, cached)
    if not config.emit_tsv:  # left by an earlier run with emit_tsv
        paths["groups_tsv"].unlink(missing_ok=True)

    outputs = ["groups", "doc_pairs", "summary"]
    if config.emit_tsv:
        outputs.append("groups_tsv")
    return RunSummary(
        summary=json.loads(paths["summary"].read_text("utf-8")),
        outputs={name: str(paths[name]) for name in outputs},
        cached_stages=cached,
    )
