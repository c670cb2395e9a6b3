"""Spans around the calls the pipeline makes into each ``lha`` module.

Wrappers are installed from outside the program: each name is patched in the
module that calls it (``pipeline`` and ``sent_align`` bind names with
``from .x import f``), and methods are patched on their class. Nothing under
``src/`` knows about them.

Calls that happen thousands of times per run (tokenize, query, filter_reason,
matrix, linprog, and each ``next()`` of a generator) are aggregated as a count
plus time under their nearest recorded parent span; every other call is kept
as a span record. Self time is a span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import logging
import time
from collections import defaultdict

import lha.metrics
import lha.pipeline
import lha.sent_align
from lha.ann_index import AnnIndex
from lha.metrics import CosineScorer, WmdScorer

clock = time.perf_counter

# Aggregated, not recorded one by one.
HOT = frozenset({
    "corpus.load_corpus", "corpus.tokenize", "ann_index.query",
    "sent_align.align_sentences", "sent_align.sentence_sim_matrix",
    "sent_align.extract_nn_pairs", "sent_align.merge_groups",
    "sent_align.filter_reason", "metrics.matrix.cosine", "metrics.matrix.wmd",
    "metrics.linprog",
})

# Corpus-independent loads every run pays; timed in untraced runs too.
SETUP_LOADS = (
    ("load_word_vectors", "embeddings.load_word_vectors"),
    ("load_stopwords", "corpus.load_stopwords"),
    ("load_abbreviations", "corpus.load_abbreviations"),
)

# (module, attribute, span name) for plain functions.
_FUNCTIONS = (
    (lha.pipeline, "run_pipeline", "pipeline.run_pipeline"),
    (lha.pipeline, "tokenize", "corpus.tokenize"),
    (lha.pipeline, "save_embeddings", "embeddings.save_embeddings"),
    (lha.pipeline, "load_embeddings", "embeddings.load_embeddings"),
    (lha.pipeline, "build_index", "ann_index.build_index"),
    (lha.pipeline, "align_documents", "doc_align.align_documents"),
    (lha.pipeline, "write_doc_pairs", "doc_align.write_doc_pairs"),
    (lha.pipeline, "read_doc_pairs", "doc_align.read_doc_pairs"),
    (lha.pipeline, "write_groups", "sent_align.write_groups"),
    (lha.pipeline, "write_groups_tsv", "sent_align.write_groups_tsv"),
    (lha.pipeline, "read_groups", "sent_align.read_groups"),
    (lha.sent_align, "tokenize", "corpus.tokenize"),
    (lha.sent_align, "sentence_sim_matrix", "sent_align.sentence_sim_matrix"),
    (lha.sent_align, "extract_nn_pairs", "sent_align.extract_nn_pairs"),
    (lha.sent_align, "merge_groups", "sent_align.merge_groups"),
    (lha.sent_align, "filter_reason", "sent_align.filter_reason"),
    (lha.metrics, "linprog", "metrics.linprog"),
)
# (module, attribute, span name) for functions that return generators.
_GENERATORS = (
    (lha.pipeline, "load_corpus", "corpus.load_corpus"),
    (lha.pipeline, "align_sentences", "sent_align.align_sentences"),
)


class Tracer:
    """Span stack plus per-name totals: calls, seconds and self seconds."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[dict] = []
        self.stage_lines: list[tuple[float, str]] = []
        # Open frames: [name, start, child seconds, hot aggregates, span index].
        self._stack: list[list] = []

    def enter(self, name: str) -> None:
        index = None
        if name not in HOT:
            parent = self._stack[-1][4] if self._stack else None
            index = len(self.spans)
            self.spans.append({"name": name, "parent": parent, "start": clock()})
        self._stack.append([name, clock(), 0.0, {}, index])

    def exit(self) -> None:
        end = clock()
        name, start, child, hot, index = self._stack.pop()
        duration = end - start
        self.seconds[name] += duration
        self.self_seconds[name] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if index is not None:
            self.spans[index].update(end=end, self_s=duration - child, hot=hot)
        elif parent is not None:
            # Hot frames fold into the parent: their own hot children first.
            for key, (n, s) in hot.items():
                agg = parent[3].setdefault(key, [0, 0.0])
                agg[0] += n
                agg[1] += s
            agg = parent[3].setdefault(name, [0, 0.0])
            agg[0] += 1
            agg[1] += duration

    def call(self, name: str, fn, *args, **kwargs):
        self.calls[name] += 1
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def timed(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def timed_generator(self, fn, name: str):
        """Time a generator across iteration: its cost is paid in next()."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            inner = fn(*args, **kwargs)
            while True:
                self.enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.exit()
                self.counts[name + ".items"] += 1
                yield item
        return wrapper


class _StageLines(logging.Handler):
    """Collects the time of each ``stage <name>: computing|cached`` line."""

    def __init__(self, tracer: Tracer):
        super().__init__(logging.INFO)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if record.msg.startswith("stage ") and record.args:
            self.tracer.stage_lines.append((clock(), str(record.args[0])))


def install_setup_loads(tracer: Tracer) -> None:
    for attr, name in SETUP_LOADS:
        setattr(lha.pipeline, attr, tracer.timed(getattr(lha.pipeline, attr), name))


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the ``run`` path crosses."""
    install_setup_loads(tracer)
    for module, attr, name in _FUNCTIONS:
        setattr(module, attr, tracer.timed(getattr(module, attr), name))
    for module, attr, name in _GENERATORS:
        setattr(module, attr, tracer.timed_generator(getattr(module, attr), name))

    embed_corpus = lha.pipeline.embed_corpus

    @functools.wraps(embed_corpus)
    def embed_corpus_by_level(docs, level, *args, **kwargs):
        return tracer.call(f"embeddings.embed_corpus.{level}", embed_corpus,
                           docs, level, *args, **kwargs)
    lha.pipeline.embed_corpus = embed_corpus_by_level

    for cls in (CosineScorer, WmdScorer):
        matrix = cls.matrix
        name = f"metrics.matrix.{cls.kind}"

        def scored(self, xs, ys, _matrix=matrix, _name=name):
            tracer.counts["metrics.cells"] += len(xs) * len(ys)
            return tracer.call(_name, _matrix, self, xs, ys)
        cls.matrix = functools.wraps(matrix)(scored)

    AnnIndex.query = tracer.timed(AnnIndex.query, "ann_index.query")
    AnnIndex.save = tracer.timed(AnnIndex.save, "ann_index.save")
    AnnIndex.load = classmethod(tracer.timed(AnnIndex.load.__func__, "ann_index.load"))

    stage_logger = logging.getLogger("lha.pipeline")
    stage_logger.setLevel(logging.INFO)
    stage_logger.addHandler(_StageLines(tracer))
