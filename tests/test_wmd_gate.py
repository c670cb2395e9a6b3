"""The RWMD gate of the wmd scorer is exact.

With a floor, ``WmdScorer`` skips the transport LP of every cell whose RWMD
similarity bound is below it and stores the bound. The pipeline passes
``theta_s`` as the floor; these tests check that its outputs and counts are
the ones the ungated scorer gives, on seeded random corpora.
"""

from __future__ import annotations

import dataclasses
import logging
import re
from pathlib import Path

import numpy as np
import pytest

import lha.pipeline
from lha.corpus import corpus_index, load_corpus
from lha.doc_align import read_doc_pairs
from lha.embeddings import WordVectorTable, load_word_vectors
from lha.metrics import _FLOOR_SLACK, RwmdScorer, WmdScorer, make_scorer
from lha.pipeline import PipelineConfig, run_pipeline
from lha.sent_align import read_groups
from conftest import pair_score, sent, write_jsonl, write_vectors

OUTPUTS = ("groups.jsonl", "groups.tsv", "doc_pairs.tsv", "align_stats.json",
           "summary.json", "manifest.json")
_COUNTS = re.compile(r"wmd cells: (\d+) scored, (\d+) pruned by the RWMD bound, (\d+) solved")


def _gate_counts(scorer: WmdScorer) -> tuple[int, int, int]:
    return scorer.cells, scorer.pruned, scorer.solved


class TestScorer:
    def _sentences(self, rng, words, n, max_len=5):
        return [sent(" ".join(rng.choice(words, size=rng.integers(1, max_len + 1))), "d", i)
                for i in range(n)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("quantile", [0.25, 0.5, 0.9])
    def test_kept_cells_are_exact_and_pruned_cells_hold_the_bound(self, seed, quantile) -> None:
        rng = np.random.default_rng(seed)
        words = [f"q{c}" for c in "abcdefghijkl"]
        table = WordVectorTable(4, {w: rng.normal(size=4) for w in words})
        xs = self._sentences(rng, words, 5) + [sent("Xyzzy.", "d", 5)]
        ys = self._sentences(rng, words, 4)
        exact = np.array([[pair_score(WmdScorer(table), x, y) for y in ys] for x in xs])
        bound = RwmdScorer(table).matrix(xs, ys)
        floor = float(np.quantile(exact[:5], quantile))
        gated = WmdScorer(table, floor=floor)
        values = gated.matrix(xs, ys)

        embeddable = np.zeros(values.shape, dtype=bool)
        embeddable[:5, :] = True  # "Xyzzy." has no in-vocabulary token
        pruned = embeddable & (bound < floor - _FLOOR_SLACK)
        kept = embeddable & ~pruned
        assert np.array_equal(values[kept], exact[kept])
        assert np.array_equal(values[pruned], bound[pruned])
        assert (values[pruned] < floor).all()
        assert (values[~embeddable] == 0.0).all()
        assert _gate_counts(gated) == (embeddable.sum(), pruned.sum(), kept.sum())
        assert gated.pruned + gated.solved == gated.cells
        assert pruned.any() and kept.any()

    def test_no_floor_solves_every_cell(self, toy_table) -> None:
        xs = [sent("The cat sat."), sent("Rain and snow."), sent("Zzz.")]
        ys = [sent("A kitten."), sent("Banana bread.")]
        scorer = WmdScorer(toy_table)
        values = scorer.matrix(xs, ys)
        assert _gate_counts(scorer) == (4, 0, 4)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert values[i, j] == pair_score(scorer, x, y)

    def test_floor_at_an_exact_value_keeps_that_cell(self) -> None:
        # The LP's optimum can sit an ulp below the bound computed from the
        # same costs, so the bound's similarity can fall below the cell's
        # exact one. A floor equal to that exact value must keep the cell.
        words = [f"q{c}" for c in "abcdefghij"]
        rounding_cases = 0
        for seed in (47, 65, 82):
            rng = np.random.default_rng(seed)
            table = WordVectorTable(3, {w: rng.normal(size=3) for w in words})
            for _ in range(20):
                x, y = (sent(" ".join(rng.choice(words, size=rng.integers(1, 5))))
                        for _ in range(2))
                exact = WmdScorer(table).matrix([x], [y])[0, 0]
                rounding_cases += RwmdScorer(table).matrix([x], [y])[0, 0] < exact
                gated = WmdScorer(table, floor=exact)
                assert gated.matrix([x], [y])[0, 0] == exact, (seed, x.text, y.text)
                assert _gate_counts(gated) == (1, 0, 1)
        assert rounding_cases, "the fixture no longer holds a bound below its LP value"

    def test_single_tokens_prune_strictly_below_the_floor(self, toy_table) -> None:
        # One token per side: RWMD == WMD, so the bound is the exact value.
        xs, ys = [sent("cat"), sent("rain")], [sent("kitten"), sent("storm")]
        exact = WmdScorer(toy_table).matrix(xs, ys)
        assert np.array_equal(RwmdScorer(toy_table).matrix(xs, ys), exact)
        floor = exact[0, 0]
        gated = WmdScorer(toy_table, floor=floor)
        assert np.array_equal(gated.matrix(xs, ys), exact)
        at_or_above = int((exact >= floor).sum())
        assert _gate_counts(gated) == (4, 4 - at_or_above, at_or_above)

    def test_factory_sets_the_floor_on_wmd_only(self, toy_table) -> None:
        assert make_scorer("wmd", table=toy_table, floor=0.6).floor == 0.6
        assert make_scorer("wmd", table=toy_table).floor is None
        assert not hasattr(make_scorer("rwmd", table=toy_table, floor=0.6), "floor")


# Four topics; a word is its topic's direction plus a private part.
_TOPICS = 4
_WORDS_PER_TOPIC = 8


def _random_workspace(root: Path, seed: int, single_tokens: bool) -> PipelineConfig:
    rng = np.random.default_rng(seed)
    dim = 12
    directions = rng.normal(size=(_TOPICS, dim))
    words = [[f"t{t}w{chr(97 + i)}" for i in range(_WORDS_PER_TOPIC)] for t in range(_TOPICS)]
    vectors = {
        w: list(0.5 * directions[t] + rng.normal(size=dim))
        for t in range(_TOPICS) for w in words[t]
    }
    write_vectors(root / "vectors.txt", vectors)

    def sentence(topic: int) -> str:
        n = 1 if single_tokens else int(rng.integers(1, 5))
        return " ".join(rng.choice(words[topic], size=n)) + "."

    def corpus(path: Path, prefix: str) -> None:
        records = []
        for d in range(8):
            texts = [sentence(d % _TOPICS) for _ in range(int(rng.integers(2, 5)))]
            if d == 0 and not single_tokens:
                texts.append("Xyzzy plugh.")  # no in-vocabulary token
            records.append({"id": f"{prefix}{d}", "sentences": texts})
        write_jsonl(path, records)

    corpus(root / "source.jsonl", "s")
    corpus(root / "target.jsonl", "t")
    return PipelineConfig(
        source_corpus=str(root / "source.jsonl"),
        target_corpus=str(root / "target.jsonl"),
        out_dir=str(root / "out"),
        word_vectors=str(root / "vectors.txt"),
        scorer="wmd",
        k_doc=3,
        theta_d=0.0,
        min_overlap=0.0,
        max_len_ratio=10.0,
    )


def _run(config: PipelineConfig, name: str, caplog) -> tuple[dict[str, bytes], tuple]:
    config = dataclasses.replace(config, out_dir=str(Path(config.out_dir).parent / name))
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="lha.pipeline"):
        run_pipeline(config)
    counts = [tuple(map(int, m.groups())) for m in map(_COUNTS.search, caplog.messages) if m]
    assert len(counts) == 1, caplog.messages
    out = Path(config.out_dir)
    return {name: (out / name).read_bytes() for name in OUTPUTS}, counts[0]


def _bounded_cells(config: PipelineConfig, run_dir: Path) -> tuple[int, int]:
    """(cells, cells whose bound is below the floor) over the run's document
    pairs, from the rwmd scorer."""
    table = load_word_vectors(config.word_vectors)
    src = corpus_index(load_corpus(config.source_corpus, "src"))
    tgt = corpus_index(load_corpus(config.target_corpus, "tgt"))
    cells = below = 0
    for dp in read_doc_pairs(run_dir / "doc_pairs.tsv"):
        xs, ys = src[dp.source_id].sentences, tgt[dp.target_id].sentences
        bound = RwmdScorer(table).matrix(xs, ys)
        embeddable = bound > 0.0
        cells += int(embeddable.sum())
        below += int((embeddable & (bound < config.theta_s - _FLOOR_SLACK)).sum())
    return cells, below


@pytest.fixture
def ungated(monkeypatch):
    """Make the pipeline build its wmd scorer without a floor."""
    def set_ungated():
        monkeypatch.setattr(lha.pipeline, "make_scorer",
                            lambda *a, **kw: make_scorer(*a, **{**kw, "floor": None}))
    return set_ungated


@pytest.mark.parametrize("filter_stage", ["group", "pair"])
@pytest.mark.parametrize("seed, k_sent, theta_s", [
    (0, 1, 0.3), (0, 2, 0.35), (1, 3, 0.3), (2, 2, 0.4),
])
def test_pipeline_outputs_equal_with_and_without_the_gate(
    tmp_path, caplog, ungated, filter_stage, seed, k_sent, theta_s
) -> None:
    config = dataclasses.replace(
        _random_workspace(tmp_path, seed, single_tokens=False),
        k_sent=k_sent, theta_s=theta_s, filter_stage=filter_stage,
    )
    gated, (cells, pruned, solved) = _run(config, "gated", caplog)
    assert (cells, pruned) == _bounded_cells(config, tmp_path / "gated")
    assert pruned + solved == cells and pruned > 0 and solved > 0
    assert read_groups(tmp_path / "gated" / "groups.jsonl")
    ungated()
    plain, counts = _run(config, "plain", caplog)
    assert counts == (cells, 0, cells)
    assert gated == plain


@pytest.mark.parametrize("filter_stage", ["group", "pair"])
@pytest.mark.parametrize("single_tokens", [False, True])
def test_theta_s_at_an_emitted_exact_value(
    tmp_path, caplog, ungated, filter_stage, single_tokens
) -> None:
    """theta_s set to the exact score of an emitted group keeps that group.
    With one token per sentence RWMD == WMD, so the cell's bound equals
    theta_s: a gate that pruned on ``bound <= theta_s`` would count it as
    pruned."""
    config = dataclasses.replace(
        _random_workspace(tmp_path, 3, single_tokens=single_tokens),
        k_sent=2, theta_s=0.3, filter_stage=filter_stage,
    )
    first, _ = _run(config, "first", caplog)
    scores = sorted(g.score for g in read_groups(tmp_path / "first" / "groups.jsonl"))
    assert len(scores) >= 2
    config = dataclasses.replace(config, theta_s=scores[len(scores) // 2])
    gated, (cells, pruned, solved) = _run(config, "gated", caplog)
    assert (cells, pruned) == _bounded_cells(config, tmp_path / "gated")
    assert pruned + solved == cells
    groups = read_groups(tmp_path / "gated" / "groups.jsonl")
    assert min(g.score for g in groups) == config.theta_s
    if single_tokens:
        table = load_word_vectors(config.word_vectors)
        src = corpus_index(load_corpus(config.source_corpus, "src"))
        tgt = corpus_index(load_corpus(config.target_corpus, "tgt"))
        reaching = sum(
            int((WmdScorer(table).matrix(src[dp.source_id].sentences,
                                         tgt[dp.target_id].sentences)
                 >= config.theta_s).sum())
            for dp in read_doc_pairs(tmp_path / "gated" / "doc_pairs.tsv")
        )
        assert solved == reaching
    ungated()
    plain, counts = _run(config, "plain", caplog)
    assert counts == (cells, 0, cells)
    assert gated == plain
