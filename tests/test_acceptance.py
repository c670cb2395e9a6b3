"""Acceptance checks for the full mining-and-evaluation stack.

Each test verifies one headline guarantee end to end and prints a single
PASS line with the measured numbers. The two checks against the annotated
alignment dataset need external data and are skipped with preparation
instructions unless LHA_EVAL_DATA and LHA_WORD_VECTORS are set (see the
README section "Evaluation data").
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from lha.ann_index import build_index
from lha.embeddings import AvgEmbedder, EmbeddingMatrix, WordVectorTable, load_word_vectors
from lha.evaluate import eval_document_alignment, eval_joint, eval_sentence_alignment, f1max_sweep, load_eval_dataset
from lha.cli import _all_docs, _sentence_matrices
from lha.metrics import make_scorer, rwmd, wmd
from lha.pipeline import run_pipeline
from lha.sent_align import (
    FilterPolicy,
    align_sentences,
    merge_components,
    read_groups,
    write_groups,
)
from lha.doc_align import DocPair
from lha.metrics import OverlapScorer
from conftest import doc, filter_texts
from oracles import components_oracle, f1_sweep_oracle, transport_cost_oracle
from test_pipeline import OUTPUT_FILES, make_workspace, out_bytes

EXTERNAL_DATA = pytest.mark.skipif(
    not (os.environ.get("LHA_EVAL_DATA") and os.environ.get("LHA_WORD_VECTORS")),
    reason=(
        "needs LHA_EVAL_DATA (prepared annotated alignment directory) and "
        "LHA_WORD_VECTORS (word-vector text file); see README 'Evaluation data' "
        "for how to prepare both"
    ),
)


_CAPTURE: pytest.CaptureFixture | None = None


@pytest.fixture(autouse=True)
def _live_reporting(capsys: pytest.CaptureFixture):
    # PASS lines must reach the terminal even under default output capture.
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def report(line: str) -> None:
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(f"\n{line}", flush=True)
    else:
        print(f"\n{line}")


def test_01_wmd_matches_transport_oracle() -> None:
    rng = np.random.default_rng(100)
    pool = ["w%02d" % i for i in range(12)]
    table = WordVectorTable(
        dim=4, vectors={w: rng.standard_normal(4) for w in pool}
    )

    def random_side() -> list[str]:
        words = rng.choice(len(pool), size=int(rng.integers(1, 7)), replace=False)
        bag: list[str] = []
        for w in words:
            bag.extend([pool[int(w)]] * int(rng.integers(1, 4)))
        return bag

    start = time.perf_counter()
    worst = 0.0
    violations = 0
    for _ in range(500):
        x, y = random_side(), random_side()
        got = wmd(x, y, table)
        cx, cy = Counter(x), Counter(y)
        xs, ys = sorted(cx), sorted(cy)
        costs = cdist(
            np.vstack([table.get(w) for w in xs]),
            np.vstack([table.get(w) for w in ys]),
        )
        expected = transport_cost_oracle(
            [cx[w] for w in xs], [cy[w] for w in ys], costs
        )
        worst = max(worst, abs(got - expected))
        if rwmd(x, y, table) > got + 1e-9:
            violations += 1
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert violations == 0
    assert elapsed < 60.0
    report(
        f"PASS exact transport distance: 500 random pairs within 1e-6 of the "
        f"min-cost-flow oracle (worst {worst:.2e}), relaxed bound never above "
        f"it, {elapsed:.1f}s"
    )


def test_02_merge_matches_components_oracle() -> None:
    rng = np.random.default_rng(200)
    for trial in range(1000):
        n_pairs = int(rng.integers(1, 18))
        side = int(rng.integers(2, 9))
        pairs = [
            (int(rng.integers(0, side)), int(rng.integers(0, side)))
            for _ in range(n_pairs)
        ]
        comps = merge_components(pairs)
        assert set(comps) == components_oracle(pairs), f"trial {trial}"
        all_src = [i for srcs, _ in comps for i in srcs]
        all_tgt = [j for _, tgts in comps for j in tgts]
        assert len(all_src) == len(set(all_src)), f"trial {trial}: sources overlap"
        assert len(all_tgt) == len(set(all_tgt)), f"trial {trial}: targets overlap"
        for srcs, tgts in comps:
            sub = [p for p in pairs if p[0] in srcs]
            assert merge_components(sub) == [(srcs, tgts)], f"trial {trial}"
    report(
        "PASS merge: 1000 random bipartite pair sets equal the BFS "
        "connected-components oracle; disjointness and restriction-idempotence "
        "hold in every case"
    )


def test_03_sweep_matches_exhaustive_evaluation() -> None:
    rng = np.random.default_rng(300)
    for trial in range(200):
        n = int(rng.integers(1, 14))
        scored = {
            (f"s{i}", f"t{i}"): float(rng.integers(0, 6)) / 5.0 for i in range(n)
        }
        gold = {k for k in scored if rng.random() < 0.4}
        for extra in range(int(rng.integers(0, 3))):
            gold.add((f"missed{extra}", "x"))
        if not gold:
            gold.add(("missed", "x"))
        got = f1max_sweep(scored, gold)
        f1, precision, recall, cut, retrieved, _ = f1_sweep_oracle(scored, gold)
        assert got.f1_max == float(f1), f"trial {trial}"
        assert got.precision_at_max == float(precision), f"trial {trial}"
        assert got.recall_at_max == float(recall), f"trial {trial}"
        assert got.best_threshold == cut, f"trial {trial}"
        assert got.retrieved_at_max == retrieved, f"trial {trial}"
    report(
        "PASS threshold sweep: 200 random scored/gold fixtures match the "
        "exhaustive per-cut evaluation exactly (F1, precision, recall, "
        "threshold, retrieved count)"
    )


def test_04_ann_recall_at_default_parameters() -> None:
    # The index is exact, so its recall is 1: every query returns what the
    # exhaustive reference returns, in the same order. The reference scores
    # one probe at a time with a plain product and orders by similarity, then
    # id, with np.lexsort.
    rng = np.random.default_rng(42)
    n, dim, probes, k = 50_000, 64, 1000, 10
    rows = rng.standard_normal((n, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    ids = np.array([f"r{i:05d}" for i in range(n)])
    matrix = EmbeddingMatrix(list(ids), rows)
    rows64 = matrix.rows.astype(np.float64)
    row_norms = np.linalg.norm(rows64, axis=1)
    queries = rng.standard_normal((probes, dim))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)

    start = time.perf_counter()
    index = build_index(matrix)
    built = time.perf_counter() - start
    got = [
        nbs for lo in range(0, probes, 64) for nbs in index.query_block(queries[lo : lo + 64], k)
    ]
    queried = time.perf_counter() - start - built
    hits = 0
    for q, approx in zip(queries, got):
        sims = (rows64 @ q) / (row_norms * np.linalg.norm(q))
        top = np.lexsort((ids, -sims))[:k]
        assert [nb.unit_id for nb in approx] == list(ids[top])
        for a, e in zip(approx, sims[top]):
            assert a.similarity == pytest.approx(e, abs=1e-12)
        hits += len({nb.unit_id for nb in approx} & set(ids[top]))
    elapsed = time.perf_counter() - start
    recall = hits / (probes * k)
    assert recall == 1.0, f"recall@10 {recall:.4f}"
    assert elapsed < 120.0, f"{elapsed:.0f}s"
    report(
        f"PASS neighbor index: top-10 equals exact search on 50k unit vectors "
        f"over {probes} probes, recall@10 {recall:.4f} "
        f"(build {built:.2f}s, queries {queried:.2f}s, total {elapsed:.1f}s)"
    )


@EXTERNAL_DATA
def test_05_reference_scores_on_annotated_data() -> None:
    dataset = load_eval_dataset(os.environ["LHA_EVAL_DATA"])
    table = load_word_vectors(os.environ["LHA_WORD_VECTORS"])

    sentences = _sentence_matrices(
        None, table, dataset.src_docs.values(), dataset.tgt_docs.values()
    )
    avg = eval_sentence_alignment(dataset, make_scorer("cosine", **sentences))
    assert avg.f1_max == pytest.approx(0.675, abs=0.03), (
        f"sentence F1max with averaged embeddings {avg.f1_max:.4f} "
        f"outside 0.675 +/- 0.03"
    )

    transport = eval_sentence_alignment(dataset, make_scorer("wmd", table=table))
    assert transport.f1_max == pytest.approx(0.726, abs=0.03), (
        f"sentence F1max with exact transport {transport.f1_max:.4f} "
        f"outside 0.726 +/- 0.03"
    )

    docs = eval_document_alignment(
        dataset, embedder=AvgEmbedder(table), n_noise=1000, seed=0
    )
    assert docs.f1_max == pytest.approx(0.66, abs=0.04), (
        f"document F1max {docs.f1_max:.4f} outside 0.66 +/- 0.04 (noise seed 0)"
    )
    report(
        f"PASS annotated-data scores: sentence F1max avg {avg.f1_max:.3f} "
        f"(target 0.675+/-0.03), transport {transport.f1_max:.3f} "
        f"(target 0.726+/-0.03), document {docs.f1_max:.3f} "
        f"(target 0.66+/-0.04, noise seed 0)"
    )


@EXTERNAL_DATA
def test_06_hierarchical_beats_flat_retrieval() -> None:
    dataset = load_eval_dataset(os.environ["LHA_EVAL_DATA"])
    table = load_word_vectors(os.environ["LHA_WORD_VECTORS"])
    # The scorers `lha eval joint --vectors` builds.
    embedder = AvgEmbedder(table)
    sent_scorer = make_scorer("cosine", **_sentence_matrices(None, table, *_all_docs(dataset)))
    rescorer = make_scorer("wmd", table=table)
    hierarchical = eval_joint(
        "lha", dataset, sent_scorer, doc_embedder=embedder,
        n_noise=1000, seed=0, rescorer=rescorer,
    )
    flat = eval_joint(
        "global", dataset, sent_scorer,
        n_noise=1000, seed=0, rescorer=rescorer,
    )
    gap = hierarchical.f1_max - flat.f1_max
    speedup = flat.wall_clock_sec / hierarchical.wall_clock_sec
    assert gap >= 0.10, f"F1max gap {gap:.3f} < 0.10"
    assert speedup >= 5.0, f"speedup {speedup:.1f}x < 5x"
    report(
        f"PASS hierarchical vs flat: F1max {hierarchical.f1_max:.3f} vs "
        f"{flat.f1_max:.3f} (gap {gap:.3f} >= 0.10), wall clock "
        f"{hierarchical.wall_clock_sec:.0f}s vs {flat.wall_clock_sec:.0f}s "
        f"({speedup:.1f}x >= 5x) under exact-transport re-scoring"
    )


def test_07_pipeline_determinism_and_resume(tmp_path: Path) -> None:
    config1 = make_workspace(tmp_path, out_name="out1")
    config2 = dataclasses.replace(config1, out_dir=str(tmp_path / "out2"))
    run_pipeline(config1)
    run_pipeline(config2)
    names = OUTPUT_FILES + ["manifest.json"]
    first = out_bytes(Path(config1.out_dir), names)
    assert first == out_bytes(Path(config2.out_dir), names)

    for intermediate in ("docs_target.lhae", "doc_pairs.tsv", "groups.jsonl"):
        (Path(config1.out_dir) / intermediate).unlink()
    run_pipeline(config1)
    assert out_bytes(Path(config1.out_dir), names) == first
    report(
        "PASS pipeline determinism: two fresh runs are byte-identical "
        "across all 10 output files, and resuming after deleting intermediates "
        "reproduces them bit-exactly"
    )


def test_08_filter_boundary_semantics(tmp_path: Path) -> None:
    policy = FilterPolicy()  # min_overlap 0.4, max_len_ratio 1.5

    # overlap exactly 0.4: two of the target's five content words covered
    assert filter_texts("alpha beta zeta eta", "alpha beta gamma delta epsilon",
                        policy) is None

    # overlap 0.399: 399 of 1000 distinct target words covered
    words = [f"tok{i:04d}" for i in range(1000)]
    below = (" ".join(words[:399] + ["filler"] * 601), " ".join(words))
    assert filter_texts(*below, policy) == "overlap"

    # length ratio exactly 1.5 kept, above it dropped
    source = " ".join(f"word{i}" for i in range(10))
    at_ratio = " ".join(f"word{i % 10}" for i in range(15))
    over_ratio = " ".join(f"word{i % 10}" for i in range(16))
    assert filter_texts(source, at_ratio, policy) is None
    assert filter_texts(source, over_ratio, policy) == "length_ratio"

    # an aligned run's survivors re-validate from the output file alone
    src_docs = {
        "s1": doc("s1", ["The cat sat on a mat.", "An apple fell down."]),
        "s2": doc("s2", ["Rain is coming soon."]),
    }
    tgt_docs = {
        "t1": doc("t1", ["The kitten sat on a mat.", "A banana fell down."]),
        "t2": doc("t2", ["The storm rain came."]),
    }
    counts: dict[str, int] = {}
    groups = list(
        align_sentences(
            [DocPair("s1", "t1", 0.9), DocPair("s2", "t2", 0.8)],
            src_docs, tgt_docs, OverlapScorer(), k=2, theta_s=0.1,
            policy=policy, drop_counts=counts,
        )
    )
    path = tmp_path / "groups.jsonl"
    write_groups(groups, path)
    reloaded = read_groups(path)
    assert reloaded == groups
    for g in reloaded:
        assert filter_texts(g.source_text, g.target_text, policy) is None
    assert counts["overlap"] >= 1  # the weather pair fails the coverage floor
    report(
        "PASS filter boundaries: coverage 0.4 kept and 0.399 dropped, length "
        "ratio 1.5 kept and above dropped, and every emitted group re-validates "
        "against the policy from the output file alone"
    )
