"""Similarity metrics: cosine, overlap, BM25, transport distances, scorers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lha.corpus import content_tokens
from lha.embeddings import (
    EmbeddingLookupError,
    EmbeddingMatrix,
    WordVectorTable,
    embed_avg,
    embed_corpus,
)
from lha.metrics import (
    Bm25Scorer,
    Bm25Stats,
    CosineScorer,
    OverlapScorer,
    RwmdScorer,
    UnembeddableSentenceError,
    WmdScorer,
    bm25,
    cosine,
    make_scorer,
    rwmd,
    to_similarity,
    unigram_overlap,
    wmd,
)
from conftest import cosine_scorer, doc, pair_score, sent
from oracles import cosine_rows_oracle, transport_cost_oracle

# random-table sentences use this pool; a few words stay out of vocabulary
_POOL = ["red", "green", "blue", "cyan", "teal", "plum", "gray", "pink"]


def random_table(rng: np.random.Generator, dim: int = 4) -> WordVectorTable:
    vectors = {w: rng.standard_normal(dim) for w in _POOL}
    return WordVectorTable(dim=dim, vectors=vectors)


def random_bag(rng: np.random.Generator, max_unique: int) -> list[str]:
    words = rng.choice(_POOL, size=rng.integers(1, max_unique + 1), replace=False)
    bag: list[str] = []
    for w in words:
        bag.extend([str(w)] * int(rng.integers(1, 4)))
    return bag


class TestCosine:
    def test_identity(self) -> None:
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_orthogonal(self) -> None:
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_vector_policy(self) -> None:
        assert cosine(np.array([0.0, 0.0]), np.array([1.0, 0.0])) == 0.0

    def test_dim_mismatch(self) -> None:
        with pytest.raises(ValueError, match="mismatch"):
            cosine(np.array([1.0]), np.array([1.0, 0.0]))

    def test_bounds_and_symmetry(self) -> None:
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.standard_normal(6)
            v = rng.standard_normal(6)
            s = cosine(u, v)
            assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12
            assert s == pytest.approx(cosine(v, u), abs=1e-15)


class TestUnigramOverlap:
    def test_direct_formula(self) -> None:
        assert unigram_overlap(["a", "b", "c"], ["b", "c", "d"]) == pytest.approx(2 / 3)

    def test_identity(self) -> None:
        assert unigram_overlap(["a", "b"], ["a", "b"]) == 1.0

    def test_empty_reference(self) -> None:
        assert unigram_overlap(["a"], []) == 0.0

    def test_asymmetric(self) -> None:
        x, y = ["a", "b", "c", "d"], ["a"]
        assert unigram_overlap(x, y) == 1.0
        assert unigram_overlap(y, x) == pytest.approx(1 / 4)

    def test_duplicates_collapse(self) -> None:
        assert unigram_overlap(["a", "a"], ["a", "a", "b"]) == pytest.approx(1 / 2)


class TestBm25:
    def test_absent_terms_contribute_nothing(self) -> None:
        stats = Bm25Stats.from_documents([["x", "y"], ["y", "z"]])
        assert bm25(["q"], ["x", "y"], stats) == 0.0

    def test_hand_value(self) -> None:
        # One document, term in it, tf=1, doc length equal to the average:
        # the tf factor cancels to 1 and the score is the idf alone.
        stats = Bm25Stats.from_documents([["term"]], k1=1.2, b=0.75)
        got = bm25(["term"], ["term"], stats)
        assert got == pytest.approx(math.log(4 / 3), abs=1e-12)
        assert got == pytest.approx(0.28768, abs=5e-6)

    def test_monotone_in_tf(self) -> None:
        rng = np.random.default_rng(1)
        for _ in range(30):
            n_docs = int(rng.integers(1, 6))
            docs = [random_bag(rng, 4) for _ in range(n_docs)]
            stats = Bm25Stats.from_documents(docs)
            length = int(rng.integers(2, 9))
            prev = -1.0
            for tf in range(0, length + 1):
                doc_bag = ["red"] * tf + ["filler"] * (length - tf)
                score = bm25(["red"], doc_bag, stats)
                assert score >= prev - 1e-12
                prev = score

    def test_unseen_term_df_zero(self) -> None:
        stats = Bm25Stats.from_documents([["x"]])
        assert stats.idf("never") == pytest.approx(math.log(1 + 1.5 / 0.5))
        assert bm25(["never"], ["never"], stats) > 0.0

    def test_query_duplicates_count_once(self) -> None:
        stats = Bm25Stats.from_documents([["x", "y"]])
        assert bm25(["x", "x"], ["x"], stats) == bm25(["x"], ["x"], stats)

    def test_stats_require_documents(self) -> None:
        with pytest.raises(ValueError, match="at least one"):
            Bm25Stats.from_documents([])

    def test_stats_hand_counts(self) -> None:
        stats = Bm25Stats.from_documents([["a", "b", "a"], ["b"]])
        assert stats.doc_count == 2
        assert stats.doc_freq == {"a": 1, "b": 2}
        assert stats.avg_doc_len == 2.0


class TestWmd:
    def test_identical_sentences(self, toy_table) -> None:
        x = sent("The cat saw a dog.")
        assert wmd(x, x, toy_table) == pytest.approx(0.0, abs=1e-9)

    def test_singletons_forced_plan(self, toy_table) -> None:
        expected = float(
            np.linalg.norm(np.array(toy_table.get("cat")) - np.array(toy_table.get("apple")))
        )
        assert wmd(["cat"], ["apple"], toy_table) == pytest.approx(expected, abs=1e-12)

    def test_matches_transport_oracle(self) -> None:
        rng = np.random.default_rng(2)
        table = random_table(rng)
        from scipy.spatial.distance import cdist
        from collections import Counter

        for _ in range(100):
            x = random_bag(rng, 4)
            y = random_bag(rng, 4)
            got = wmd(x, y, table)
            cx, cy = Counter(x), Counter(y)
            xs, ys = sorted(cx), sorted(cy)
            costs = cdist(
                np.vstack([table.get(w) for w in xs]),
                np.vstack([table.get(w) for w in ys]),
            )
            expected = transport_cost_oracle([cx[w] for w in xs], [cy[w] for w in ys], costs)
            assert got == pytest.approx(expected, abs=1e-6)

    def test_multiplicity_weights_mass(self, toy_table) -> None:
        # Single target token forces the plan, so the cost is the weighted
        # mean of the ground distances with weights 2/3 and 1/3.
        d_cat = np.linalg.norm(np.array(toy_table.get("cat")) - np.array(toy_table.get("apple")))
        d_dog = np.linalg.norm(np.array(toy_table.get("dog")) - np.array(toy_table.get("apple")))
        expected = (2 * d_cat + d_dog) / 3
        assert wmd(["cat", "cat", "dog"], ["apple"], toy_table) == pytest.approx(
            float(expected), abs=1e-12
        )

    def test_unembeddable_raises(self, toy_table) -> None:
        with pytest.raises(UnembeddableSentenceError, match="in-vocabulary"):
            wmd(["zzz"], ["cat"], toy_table)
        with pytest.raises(UnembeddableSentenceError):
            wmd(["cat"], ["zzz"], toy_table)

    def test_symmetric(self) -> None:
        rng = np.random.default_rng(3)
        table = random_table(rng)
        for _ in range(20):
            x, y = random_bag(rng, 4), random_bag(rng, 4)
            assert wmd(x, y, table) == pytest.approx(wmd(y, x, table), abs=1e-9)

    def test_triangle_sanity(self) -> None:
        rng = np.random.default_rng(4)
        table = random_table(rng)
        for _ in range(20):
            x, y, z = (random_bag(rng, 3) for _ in range(3))
            assert wmd(x, y, table) <= wmd(x, z, table) + wmd(z, y, table) + 1e-6

    def test_scales_with_vectors(self) -> None:
        rng = np.random.default_rng(5)
        table = random_table(rng)
        scaled = WordVectorTable(
            dim=table.dim, vectors={w: 3.0 * table.get(w) for w in _POOL}
        )
        for _ in range(10):
            x, y = random_bag(rng, 4), random_bag(rng, 4)
            assert wmd(x, y, scaled) == pytest.approx(3.0 * wmd(x, y, table), rel=1e-9)

    def test_stopwords_and_punct_ignored_in_sentences(self, toy_table) -> None:
        plain = sent("cat dog")
        noisy = sent("The cat, a dog!")
        assert wmd(plain, noisy, toy_table) == pytest.approx(0.0, abs=1e-9)


class TestRwmd:
    def test_identical(self, toy_table) -> None:
        assert rwmd(["cat", "dog"], ["cat", "dog"], toy_table) == pytest.approx(0.0, abs=1e-12)

    def test_singletons_equal_wmd(self, toy_table) -> None:
        got = rwmd(["cat"], ["apple"], toy_table)
        assert got == pytest.approx(wmd(["cat"], ["apple"], toy_table), abs=1e-12)

    def test_lower_bounds_wmd(self) -> None:
        rng = np.random.default_rng(6)
        table = random_table(rng)
        for _ in range(100):
            x, y = random_bag(rng, 4), random_bag(rng, 4)
            assert rwmd(x, y, table) <= wmd(x, y, table) + 1e-9

    def test_unembeddable_raises(self, toy_table) -> None:
        with pytest.raises(UnembeddableSentenceError):
            rwmd(["zzz"], ["cat"], toy_table)


class TestToSimilarity:
    def test_zero_distance(self) -> None:
        assert to_similarity(0.0) == 1.0

    def test_unit_distance(self) -> None:
        assert to_similarity(1.0) == 0.5

    def test_negative_rejected(self) -> None:
        with pytest.raises(ValueError, match="negative"):
            to_similarity(-0.1)

    def test_reverses_distance_order(self) -> None:
        rng = np.random.default_rng(7)
        distances = list(rng.random(30) * 5)
        by_distance = sorted(range(30), key=lambda i: distances[i])
        by_similarity = sorted(range(30), key=lambda i: -to_similarity(distances[i]))
        assert by_distance == by_similarity


class TestScorers:
    def test_self_score_is_maximal(self, toy_table) -> None:
        x = sent("The cat saw a dog.")
        scorers = [
            cosine_scorer(toy_table, [x]),
            OverlapScorer(),
            WmdScorer(toy_table),
            RwmdScorer(toy_table),
        ]
        for scorer in scorers:
            assert pair_score(scorer, x, x) == pytest.approx(1.0, abs=1e-9), scorer.kind

    def test_matrix_matches_pairwise_scores(self, toy_table) -> None:
        xs = [sent(t, "x", i) for i, t in enumerate(
            ["The cat sat.", "A dog ran.", "Snow fell on 3 cats."]
        )]
        ys = [sent(t, "y", j) for j, t in enumerate(
            ["Kitten and puppy.", "Banana bread.", "Rain and storm.", "A dog."]
        )]
        stats = Bm25Stats.from_documents([content_tokens(y) for y in ys])
        scorers = [
            cosine_scorer(toy_table, xs, ys),
            OverlapScorer(),
            Bm25Scorer(stats),
            WmdScorer(toy_table),
            RwmdScorer(toy_table),
        ]
        for scorer in scorers:
            full = scorer.matrix(xs, ys)
            assert full.shape == (3, 4)
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    assert full[i, j] == pytest.approx(
                        pair_score(scorer, x, y), abs=1e-9
                    ), (scorer.kind, i, j)

    def test_transport_matrix_zeroes_unembeddable(self, toy_table) -> None:
        xs = [sent("cat"), sent("zzz qqq")]
        ys = [sent("apple")]
        matrix = WmdScorer(toy_table).matrix(xs, ys)
        assert matrix[1, 0] == 0.0
        assert matrix[0, 0] > 0.0

    def test_factory_kinds(self, toy_table) -> None:
        docs = [doc("d", ["A cat."])]
        rows = embed_corpus(docs, "sentence", toy_table)
        for kind in ("cosine", "overlap", "bm25", "wmd", "rwmd"):
            scorer = make_scorer(kind, source=rows, target=rows, table=toy_table,
                                 target_docs=docs)
            assert scorer.kind == kind

    def test_factory_validates_inputs(self, toy_table) -> None:
        with pytest.raises(ValueError, match="embeddings"):
            make_scorer("cosine")
        with pytest.raises(ValueError, match="statistics"):
            make_scorer("bm25")
        with pytest.raises(ValueError, match="word-vector"):
            make_scorer("wmd")
        with pytest.raises(ValueError, match="unknown"):
            make_scorer("levenshtein")


class TestCosineSides:
    """Rows come from the source matrix and columns from the target one,
    so both corpora may use the same sentence ids."""

    def test_each_side_reads_its_own_matrix(self) -> None:
        src = EmbeddingMatrix(["a#0", "a#1"], np.array([[1, 0], [0, 1]], dtype=np.float32))
        tgt = EmbeddingMatrix(["a#0", "a#1"], np.array([[0, 2], [3, 0]], dtype=np.float32))
        scorer = CosineScorer(src, tgt)
        xs = [sent("Cat.", doc_id="a", ordinal=0), sent("Rain.", doc_id="a", ordinal=1)]
        ys = [sent("Rain.", doc_id="a", ordinal=0), sent("Cat.", doc_id="a", ordinal=1)]
        assert np.array_equal(scorer.matrix(xs, ys), [[0.0, 1.0], [1.0, 0.0]])
        assert pair_score(scorer, xs[0], ys[1]) == pytest.approx(1.0)
        assert pair_score(scorer, xs[0], ys[0]) == pytest.approx(0.0)

    def test_dim_mismatch_rejected(self) -> None:
        src = EmbeddingMatrix(["a#0"], np.zeros((1, 2), dtype=np.float32))
        tgt = EmbeddingMatrix(["b#0"], np.zeros((1, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="dim"):
            CosineScorer(src, tgt)
        with pytest.raises(ValueError, match="dim"):
            make_scorer("cosine", source=src, target=tgt)

    def test_id_missing_on_its_own_side_raises(self) -> None:
        # a#0 has a row only in the target matrix; as a source sentence it
        # must not borrow that row
        src = EmbeddingMatrix(["b#0"], np.ones((1, 2), dtype=np.float32))
        tgt = EmbeddingMatrix(["a#0"], np.ones((1, 2), dtype=np.float32))
        scorer = CosineScorer(src, tgt)
        stray = sent("Cat.", doc_id="a", ordinal=0)
        with pytest.raises(EmbeddingLookupError, match="a#0"):
            scorer.matrix([stray], [stray])
        with pytest.raises(EmbeddingLookupError, match="a#0"):
            pair_score(scorer, stray, stray)

    def test_row_gather_matches_per_sentence_lookups(self, toy_table) -> None:
        xs = [sent(t, doc_id="d", ordinal=i)
              for i, t in enumerate(["The cat sat.", "Rain fell.", "Zzz."])]
        ys = [sent(t, doc_id="e", ordinal=i)
              for i, t in enumerate(["A kitten.", "Snow and sun."])]
        matrix = EmbeddingMatrix(
            [s.uid for s in xs + ys],
            np.vstack([embed_avg(s.tokens, toy_table) for s in xs + ys]).astype(np.float32),
        )
        scorer = CosineScorer(matrix, matrix)
        for sentences in (xs, ys, []):
            expected_rows = np.zeros((len(sentences), matrix.dim))
            for i, s in enumerate(sentences):
                expected_rows[i] = scorer.source_rows([s])[0]
            assert scorer.source_rows(sentences).tobytes() == expected_rows.tobytes()
            assert scorer.target_rows(sentences).tobytes() == expected_rows.tobytes()
        expected = np.zeros((len(xs), len(ys)))
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                expected[i, j] = cosine(matrix.row(x.uid), matrix.row(y.uid))
        assert np.allclose(scorer.matrix(xs, ys), expected, atol=1e-12)


    def test_rows_equal_a_normalisation_of_each_gathered_subset(self) -> None:
        # The scorer normalises each side once; every gathered block must be
        # bit-equal to normalising just that block, in any order, for any
        # subset, with zero rows, and when both sides hold the same uids.
        rng = np.random.default_rng(5)
        for trial in range(40):
            n, dim = int(rng.integers(1, 30)), int(rng.integers(1, 120))
            uids = [f"d{i // 3}#{i % 3}" for i in range(n)]
            rows = [rng.normal(size=(n, dim)).astype(np.float32) * 10.0 ** rng.integers(-3, 4)
                    for _ in range(2)]
            for r in rows:
                r[rng.random(n) < 0.2] = 0.0
            source = EmbeddingMatrix(uids, rows[0])
            target = source if trial % 2 else EmbeddingMatrix(uids[::-1], rows[1])
            scorer = CosineScorer(source, target)
            sentences = [sent("x", doc_id=u.split("#")[0], ordinal=int(u.split("#")[1]))
                         for u in uids]
            for _ in range(5):
                pick = rng.choice(n, size=int(rng.integers(0, 2 * n)), replace=True)
                subset = [sentences[i] for i in pick]
                got = scorer.source_rows(subset)
                assert got.dtype == np.float64
                assert got.tobytes() == cosine_rows_oracle(source, subset).tobytes()
                assert scorer.target_rows(subset).tobytes() == \
                    cosine_rows_oracle(target, subset).tobytes()

    @staticmethod
    def _shared_id_sides(rng: np.random.Generator):
        """Two corpora with the same document ids and their matrices, the
        target's rows in reverse uid order."""
        texts = [["A cat.", "A dog.", "Rain."], ["Snow.", "Sun."], ["Bread."]]
        src = [doc(f"d{i}", t) for i, t in enumerate(texts)]
        tgt = [doc(f"d{i}", t[::-1]) for i, t in enumerate(texts)]
        uids = [s.uid for d in src for s in d.sentences]
        source = EmbeddingMatrix(uids, rng.normal(size=(len(uids), 5)).astype(np.float32))
        target = EmbeddingMatrix(uids[::-1], rng.normal(size=(len(uids), 5)).astype(np.float32))
        return src, tgt, CosineScorer(source, target)

    def test_a_sentence_tuple_looks_its_rows_up_once(self, monkeypatch) -> None:
        calls: list[str] = []
        real = EmbeddingMatrix.row_index
        monkeypatch.setattr(EmbeddingMatrix, "row_index",
                            lambda self, uid: calls.append(uid) or real(self, uid))
        src, tgt, scorer = self._shared_id_sides(np.random.default_rng(0))
        for _ in range(3):
            for d in src:
                scorer.best_cells(d.sentences, [t.sentences for t in tgt])
                for t in tgt:
                    scorer.matrix(d.sentences, t.sentences)
        # One lookup per sentence and side, though both sides share uids.
        assert len(calls) == 2 * sum(len(d.sentences) for d in src)
        calls.clear()
        scorer.matrix(list(src[0].sentences), list(tgt[0].sentences))
        scorer.matrix(list(src[0].sentences), list(tgt[0].sentences))
        assert len(calls) == 4 * len(src[0].sentences)

    def test_cached_rows_equal_per_uid_rows_on_shared_ids(self) -> None:
        src, tgt, scorer = self._shared_id_sides(np.random.default_rng(1))
        fresh = self._shared_id_sides(np.random.default_rng(1))[2]
        for _ in range(2):
            for d in src:
                xs = d.sentences
                for t in [*tgt, d]:
                    got = scorer.matrix(xs, t.sentences)
                    expected = fresh.matrix(list(xs), list(t.sentences))
                    assert got.tobytes() == expected.tobytes()
                    assert scorer.target_rows(t.sentences).tobytes() == \
                        cosine_rows_oracle(fresh.target, list(t.sentences)).tobytes()
                best = scorer.best_cells(xs, [t.sentences for t in tgt])
                assert best == fresh.best_cells(list(xs), [list(t.sentences) for t in tgt])


class TestMakeScorer:
    def test_bm25_stats_from_target_docs(self) -> None:
        docs = [doc("t1", ["Cat sat.", "Dog ran."]), doc("t2", ["Cat ate."])]
        scorer = make_scorer("bm25", target_docs=docs, k1=2.0, b=0.5)
        expected = Bm25Stats.from_documents(
            [content_tokens(s.tokens) for d in docs for s in d.sentences], k1=2.0, b=0.5
        )
        assert scorer.stats == expected
