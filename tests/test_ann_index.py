"""Exact cosine index and its block form against the plain-loop reference."""

from __future__ import annotations

import numpy as np
import pytest

from lha import ann_index
from lha.ann_index import AnnIndex, build_index, id_ranks, top_k
from lha.doc_align import align_documents
from lha.embeddings import EmbeddingFormatError, EmbeddingMatrix
from oracles import knn_oracle, query_block_oracle, top_by_similarity_oracle


def unit_matrix(n: int, dim: int, seed: int, prefix: str = "u") -> EmbeddingMatrix:
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, dim))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    ids = [f"{prefix}{i:05d}" for i in range(n)]
    return EmbeddingMatrix(ids, rows.astype(np.float32), unit_normalized=True)


def tied_matrix(n: int, dim: int, seed: int, zero_every: int = 7) -> EmbeddingMatrix:
    """Small-integer rows: many exact ties and exact arithmetic, so every
    summation order gives the same similarities. Ids run opposite to row
    positions, and every ``zero_every``-th row is all zero."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(-2, 3, size=(n, dim)).astype(np.float32)
    rows[::zero_every] = 0.0
    ids = [f"r{n - i:05d}" for i in range(n)]
    return EmbeddingMatrix(ids, rows)


def as_pairs(neighbors) -> list[tuple[str, float]]:
    return [(nb.unit_id, nb.similarity) for nb in neighbors]


class TestBuild:
    def test_single_row(self) -> None:
        matrix = EmbeddingMatrix(["only"], np.array([[1.0, 0.0]], dtype=np.float32))
        index = build_index(matrix)
        assert index.size == 1
        got = index.query(np.array([0.3, 0.7]), k=5)
        assert [n.unit_id for n in got] == ["only"]

    def test_empty_matrix_rejected(self) -> None:
        matrix = EmbeddingMatrix([], np.zeros((0, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="empty"):
            build_index(matrix)

    def test_zero_rows_never_returned(self) -> None:
        rows = np.vstack([np.eye(3), np.zeros((2, 3))]).astype(np.float32)
        matrix = EmbeddingMatrix(["a", "b", "c", "z1", "z2"], rows)
        index = build_index(matrix)
        got = index.query(np.array([1.0, 1.0, 1.0]), k=10)
        assert {n.unit_id for n in got} == {"a", "b", "c"}

    def test_all_zero_rows_return_nothing(self) -> None:
        matrix = EmbeddingMatrix(["z1", "z2"], np.zeros((2, 3), dtype=np.float32))
        index = build_index(matrix)
        assert index.size == 0
        assert index.query(np.ones(3), k=3) == []


class TestQuery:
    def test_self_retrieval(self) -> None:
        matrix = unit_matrix(300, 8, seed=3)
        index = build_index(matrix)
        for i in (0, 17, 299):
            got = index.query(matrix.rows[i], k=1)
            assert got[0].unit_id == matrix.unit_ids[i]
            assert got[0].similarity == pytest.approx(1.0, abs=1e-6)

    def test_k_larger_than_size(self) -> None:
        matrix = unit_matrix(10, 4, seed=4)
        index = build_index(matrix)
        got = index.query(np.ones(4), k=50)
        assert len(got) == 10

    def test_k_zero_or_negative(self) -> None:
        matrix = unit_matrix(10, 4, seed=4)
        index = build_index(matrix)
        assert index.query(np.ones(4), k=0) == []
        assert index.query(np.ones(4), k=-2) == []
        assert index.query_block(np.ones((3, 4)), k=0) == [[], [], []]

    def test_dim_mismatch(self) -> None:
        matrix = unit_matrix(10, 4, seed=5)
        index = build_index(matrix)
        with pytest.raises(ValueError, match="dim"):
            index.query(np.ones(3), k=1)
        with pytest.raises(ValueError, match="dim"):
            index.query_block(np.ones((2, 3)), k=1)

    def test_sorted_descending_no_duplicates(self) -> None:
        matrix = unit_matrix(400, 8, seed=6)
        index = build_index(matrix)
        rng = np.random.default_rng(7)
        for _ in range(10):
            got = index.query(rng.standard_normal(8), k=20)
            sims = [n.similarity for n in got]
            assert sims == sorted(sims, reverse=True)
            ids = [n.unit_id for n in got]
            assert len(ids) == len(set(ids))

    def test_similarities_are_true_cosine(self) -> None:
        matrix = unit_matrix(400, 8, seed=8)
        index = build_index(matrix)
        rng = np.random.default_rng(9)
        probe = rng.standard_normal(8)
        rows64 = matrix.rows.astype(np.float64)
        for nb in index.query(probe, k=15):
            row = rows64[matrix.row_index(nb.unit_id)]
            true = float(row @ probe / (np.linalg.norm(row) * np.linalg.norm(probe)))
            assert nb.similarity == pytest.approx(true, abs=1e-12)

    def test_monotone_k(self) -> None:
        matrix = unit_matrix(600, 8, seed=10)
        index = build_index(matrix)
        rng = np.random.default_rng(11)
        for _ in range(10):
            probe = rng.standard_normal(8)
            full = index.query(probe, k=20)
            for j in (1, 5, 13):
                assert index.query(probe, k=j) == full[:j]

    def test_zero_query_scores_zero(self) -> None:
        matrix = unit_matrix(20, 4, seed=12)
        index = build_index(matrix)
        got = index.query(np.zeros(4), k=3)
        assert [n.similarity for n in got] == [0.0, 0.0, 0.0]
        assert [n.unit_id for n in got] == sorted(matrix.unit_ids)[:3]

    def test_matches_exact_knn(self) -> None:
        matrix = unit_matrix(500, 8, seed=13)
        index = build_index(matrix)
        rng = np.random.default_rng(14)
        for _ in range(20):
            probe = rng.standard_normal(8)
            got = index.query(probe, k=10)
            expected = knn_oracle(matrix.unit_ids, matrix.rows, probe, 10)
            assert [n.unit_id for n in got] == [uid for uid, _ in expected]
            for g, (_, sim) in zip(got, expected):
                assert g.similarity == pytest.approx(sim, abs=1e-12)


class TestExactness:
    """The index, its block form and align_documents against the plain-loop
    reference, on fixtures with ties, zero rows, k beyond the index size and
    more queries than one block holds."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [1, 3, 60, 500])
    def test_query_and_block_equal_references_with_ties(self, seed, k) -> None:
        matrix = tied_matrix(90, 4, seed=seed)
        index = build_index(matrix)
        queries = tied_matrix(150, 4, seed=seed + 100, zero_every=11).rows
        blocked = index.query_block(queries, k)
        assert len(blocked) == len(queries)
        for q, block_result in zip(queries, blocked):
            expected = knn_oracle(matrix.unit_ids, matrix.rows, q, k)
            assert as_pairs(block_result) == expected
            assert as_pairs(index.query(q, k)) == expected

    def test_block_form_on_float_rows(self) -> None:
        matrix = unit_matrix(700, 16, seed=15)
        index = build_index(matrix)
        queries = np.random.default_rng(16).standard_normal((130, 16))
        for q, got in zip(queries, index.query_block(queries, 7)):
            expected = knn_oracle(matrix.unit_ids, matrix.rows, q, 7)
            assert [n.unit_id for n in got] == [uid for uid, _ in expected]
            for nb, (_, sim) in zip(got, expected):
                assert nb.similarity == pytest.approx(sim, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 4, 200])
    def test_align_documents_equals_exact_knn(self, k) -> None:
        tgt = tied_matrix(80, 4, seed=20)
        src_rows = tied_matrix(150, 4, seed=21, zero_every=9).rows
        src = EmbeddingMatrix([f"s{i:03d}" for i in range(150)], src_rows)
        theta_d = 0.2
        pairs = align_documents(src, build_index(tgt), k, theta_d)
        expected = []
        for uid, row in zip(src.unit_ids, src_rows):
            if not row.any():
                continue
            expected.extend(
                (uid, tgt_id, sim)
                for tgt_id, sim in knn_oracle(tgt.unit_ids, tgt.rows, row, k)
                if sim >= theta_d
            )
        expected.sort(key=lambda p: (p[0], -p[2], p[1]))
        assert [(p.source_id, p.target_id, p.similarity) for p in pairs] == expected


class TestIdenticalRows:
    def test_float_copies_tie_and_break_by_id(self) -> None:
        # A matrix product's last bits depend on a row's position, so the two
        # copies of a row can score one ulp apart; here that happens when a
        # copy sits in the product's last few rows. Ids run opposite to
        # positions, so position order and id order disagree.
        rng = np.random.default_rng(0)
        ids = [f"t{299 - i:04d}" for i in range(300)]
        for _ in range(200):
            rows = rng.standard_normal((300, 100)).astype(np.float32)
            a, b = rng.choice(300, size=2, replace=False)
            rows[b] = rows[a]
            index = AnnIndex(ids, rows)
            queries = rows[a] + 0.5 * rng.standard_normal((64, 100))
            both = sorted([ids[a], ids[b]])
            top1, top2 = index.query_block(queries, 1), index.query_block(queries, 2)
            for one, two in zip(top1, top2):
                assert [nb.unit_id for nb in one] == both[:1]
                assert [nb.unit_id for nb in two] == both
                assert two[0].similarity == two[1].similarity


def copied_rows(rng, n: int, dim: int) -> tuple[list[str], np.ndarray]:
    """float32 rows with float copies of one another, near ties (one
    component one float32 ulp apart) and zero rows, under ids whose order
    is not the row order."""
    rows = rng.standard_normal((n, dim)).astype(np.float32)
    for _ in range(n // 3):
        a, b = rng.choice(n, size=2, replace=False)
        rows[b] = rows[a]
        if rng.random() < 0.3:
            rows[b, 0] = np.nextafter(rows[b, 0], np.float32(np.inf))
    rows[rng.random(n) < 0.1] = 0.0
    ids = [f"x{v:04d}" for v in rng.permutation(n)]
    return ids, rows


def bits(result) -> list[list[tuple[str, str]]]:
    return [[(uid, float(sim).hex()) for uid, sim in row] for row in result]


class TestBlockKernel:
    """``query_block`` and ``top_k`` against one query at a time, bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_query_block_matches_per_row_path(self, seed, monkeypatch) -> None:
        monkeypatch.setattr(ann_index, "_RESCORE", (1, 7, 4096)[seed % 3])
        rng = np.random.default_rng(seed)
        n, dim = int(rng.integers(1, 40)), int(rng.choice([3, 50]))
        ids, rows = copied_rows(rng, n, dim)
        index = AnnIndex(ids, rows)
        queries = np.vstack([
            rows[rng.integers(0, n, size=10)],
            rows[rng.integers(0, n, size=10)] + 0.3 * rng.standard_normal((10, dim)),
            np.zeros((2, dim)),
            rng.standard_normal((40, dim)),
        ])
        for k in (0, 1, 2, 5, n - 1, n, n + 3):
            expected = query_block_oracle(ids, rows, queries, k)
            got = [as_pairs(r) for r in index.query_block(queries, k)]
            assert bits(got) == bits(expected), k

    def test_unit_rows_without_denominators(self) -> None:
        # The form `eval joint --mode global` uses: unit float64 rows, no
        # division, ties broken by the ids' ranks.
        rng = np.random.default_rng(3)
        for _ in range(20):
            ids, rows = copied_rows(rng, 60, 20)
            unit = rows.astype(np.float64)
            unit /= np.maximum(np.linalg.norm(unit, axis=1), 1e-300)[:, None]
            vs = np.vstack([unit[:8], rng.standard_normal((8, 20))])
            sims = vs @ unit.T
            for k in (1, 4, 60, 70):
                qi, cj, got = top_k(sims, k, unit, vs, id_ranks(ids))
                expected = []
                for q in range(len(vs)):
                    top, top_sims = top_by_similarity_oracle(
                        np.array(ids, dtype=np.str_), sims[q], k, unit, vs[q])
                    expected += [(q, int(j), float(s).hex()) for j, s in zip(top, top_sims)]
                assert [(q, j, s.hex()) for q, j, s in zip(qi, cj, got)] == expected

    def test_id_ranks_keep_equal_ids_in_order(self) -> None:
        assert id_ranks(["b", "a", "b", "a"]).tolist() == [2, 0, 3, 1]
        assert id_ranks([]).tolist() == []


class TestExactKnn:
    """One query of the index on small unnormalised fixtures."""

    def test_matches_plain_loop_oracle(self) -> None:
        rng = np.random.default_rng(15)
        rows = rng.standard_normal((80, 5)).astype(np.float32)
        rows[11] = 0.0
        ids = [f"n{i:03d}" for i in range(80)]
        index = build_index(EmbeddingMatrix(ids, rows))
        for _ in range(25):
            probe = rng.standard_normal(5)
            got = index.query(probe, 7)
            expected = knn_oracle(ids, rows, probe, 7)
            assert [n.unit_id for n in got] == [uid for uid, _ in expected]
            for nb, (_, sim) in zip(got, expected):
                assert nb.similarity == pytest.approx(sim, abs=1e-12)

    def test_orthonormal_rows(self) -> None:
        index = build_index(EmbeddingMatrix(["e0", "e1", "e2"], np.eye(3, dtype=np.float32)))
        got = index.query(np.array([0.0, 1.0, 0.0]), 3)
        assert got[0].unit_id == "e1" and got[0].similarity == pytest.approx(1.0)
        assert {n.similarity for n in got[1:]} == {0.0}

    def test_ties_break_by_id(self) -> None:
        rows = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.float32)
        index = build_index(EmbeddingMatrix(["bb", "aa", "cc"], rows))
        got = index.query(np.array([1.0, 0.0]), 2)
        assert [n.unit_id for n in got] == ["aa", "bb"]


class TestPersistence:
    def test_round_trip_preserves_answers(self, tmp_path) -> None:
        matrix = unit_matrix(300, 8, seed=16)
        matrix.rows[5] = 0.0
        index = build_index(matrix)
        path = tmp_path / "x.lhai"
        index.save(path)
        loaded = AnnIndex.load(path)
        assert loaded.unit_ids == index.unit_ids
        assert matrix.unit_ids[5] not in loaded.unit_ids
        rng = np.random.default_rng(17)
        for _ in range(15):
            probe = rng.standard_normal(8)
            assert loaded.query(probe, 8) == index.query(probe, 8)

    def test_save_is_deterministic(self, tmp_path) -> None:
        matrix = unit_matrix(50, 4, seed=18)
        index = build_index(matrix)
        index.save(tmp_path / "one.lhai")
        index.save(tmp_path / "two.lhai")
        assert (tmp_path / "one.lhai").read_bytes() == (tmp_path / "two.lhai").read_bytes()

    def test_wrong_magic(self, tmp_path) -> None:
        path = tmp_path / "x.lhai"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(EmbeddingFormatError, match="magic"):
            AnnIndex.load(path)

    def test_forest_era_file_fails_loudly(self, tmp_path) -> None:
        # The tree-forest format began with magic LHAI and a u16 version 1.
        path = tmp_path / "x.lhai"
        path.write_bytes(b"LHAI\x01\x00" + bytes(40))
        with pytest.raises(EmbeddingFormatError, match="magic"):
            AnnIndex.load(path)

    def test_truncation(self, tmp_path) -> None:
        matrix = unit_matrix(50, 4, seed=19)
        index = build_index(matrix)
        path = tmp_path / "x.lhai"
        index.save(path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(EmbeddingFormatError, match="truncated"):
            AnnIndex.load(path)
