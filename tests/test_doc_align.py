"""Document-level alignment and its TSV persistence."""

from __future__ import annotations

import numpy as np
import pytest

import lha.doc_align
from lha.ann_index import build_index
from lha.doc_align import DocPair, align_documents, read_doc_pairs, write_doc_pairs
from lha.embeddings import EmbeddingMatrix


def unit_rows(n: int, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, dim))
    return (rows / np.linalg.norm(rows, axis=1)[:, None]).astype(np.float32)


def matrices(seed: int = 0, n: int = 40, dim: int = 8):
    src = EmbeddingMatrix(
        [f"s{i:03d}" for i in range(n)], unit_rows(n, dim, seed), unit_normalized=True
    )
    tgt = EmbeddingMatrix(
        [f"t{i:03d}" for i in range(n)], unit_rows(n, dim, seed + 1), unit_normalized=True
    )
    return src, tgt


def tied_matrices(seed: int, n: int = 30):
    """Source and target ids that are the same strings in two shuffled
    orders, rows drawn with repetition from five directions (so
    similarities tie) and one all-zero source row."""
    rng = np.random.default_rng(seed)
    base = unit_rows(5, 6, seed)
    ids = [f"d{i:02d}" for i in range(n)]
    src_rows = base[rng.integers(0, 5, size=n)]
    src_rows[int(rng.integers(0, n))] = 0.0
    src = EmbeddingMatrix(list(rng.permutation(ids)), src_rows)
    tgt = EmbeddingMatrix(list(rng.permutation(ids)), base[rng.integers(0, 5, size=n)])
    return src, tgt


def by_source_then_similarity(pairs: list[DocPair]) -> list[DocPair]:
    return sorted(pairs, key=lambda p: (p.source_id, -p.similarity, p.target_id))


class TestAlignDocuments:
    def test_threshold_above_one_empties_output(self) -> None:
        src, tgt = matrices()
        index = build_index(tgt)
        assert align_documents(src, index, k=5, theta_d=1.0 + 1e-9) == []

    def test_self_alignment(self) -> None:
        src, _ = matrices()
        both = EmbeddingMatrix(list(src.unit_ids), src.rows.copy(), unit_normalized=True)
        index = build_index(both)
        pairs = align_documents(src, index, k=1, theta_d=0.0)
        assert len(pairs) == src.count
        for p in pairs:
            assert p.source_id == p.target_id
            assert p.similarity == pytest.approx(1.0, abs=1e-6)

    def test_at_most_k_per_source_grouped_and_sorted(self) -> None:
        src, tgt = matrices(seed=2)
        index = build_index(tgt)
        pairs = align_documents(src, index, k=3, theta_d=-1.0)
        per_source: dict[str, list[DocPair]] = {}
        for p in pairs:
            per_source.setdefault(p.source_id, []).append(p)
        assert all(len(v) <= 3 for v in per_source.values())
        assert pairs == sorted(
            pairs, key=lambda p: (p.source_id, -p.similarity, p.target_id)
        )

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k,theta_d", [(1, -1.0), (3, 0.2), (7, -1.0), (40, -1.0)])
    def test_tied_pairs_come_out_sorted(self, seed, k, theta_d) -> None:
        src, tgt = tied_matrices(seed)
        pairs = align_documents(src, build_index(tgt), k=k, theta_d=theta_d)
        assert pairs == by_source_then_similarity(pairs)
        assert len({p.source_id for p in pairs}) == src.count - 1

    @pytest.mark.parametrize("seed", range(3))
    def test_block_size_does_not_change_the_pairs(self, monkeypatch, seed) -> None:
        src, tgt = tied_matrices(seed, n=50)
        index = build_index(tgt)
        default = align_documents(src, index, k=4, theta_d=-1.0)
        monkeypatch.setattr(lha.doc_align, "_MIN_ROWS", 1)
        for rows in (1, 2, 17, 10**6):  # 1-row, 2-row, middle, one block
            monkeypatch.setattr(lha.doc_align, "_BLOCK_CELLS", rows * index.size)
            assert align_documents(src, index, k=4, theta_d=-1.0) == default, rows

    @pytest.mark.parametrize("n_targets,rows", [(50, 2**17 // 50), (3000, 64)])
    def test_blocks_hold_about_the_cell_budget(self, monkeypatch, n_targets, rows) -> None:
        src = EmbeddingMatrix([f"s{i}" for i in range(3000)], unit_rows(3000, 4, 0))
        tgt = EmbeddingMatrix([f"t{i}" for i in range(n_targets)], unit_rows(n_targets, 4, 1))
        index = build_index(tgt)
        sizes: list[int] = []
        real_query_block = type(index).query_block

        def recording_query_block(self, vs, k):
            sizes.append(len(vs))
            return real_query_block(self, vs, k)

        monkeypatch.setattr(type(index), "query_block", recording_query_block)
        align_documents(src, index, k=2, theta_d=0.0)
        assert sizes == [rows] * (3000 // rows) + [3000 % rows] * (3000 % rows > 0)

    def test_threshold_monotonicity(self) -> None:
        src, tgt = matrices(seed=3)
        index = build_index(tgt)
        low = {(p.source_id, p.target_id) for p in align_documents(src, index, 5, 0.1)}
        high = {(p.source_id, p.target_id) for p in align_documents(src, index, 5, 0.3)}
        assert high <= low

    def test_k_monotonicity_per_source_prefix(self) -> None:
        src, tgt = matrices(seed=4)
        index = build_index(tgt)
        small = align_documents(src, index, k=2, theta_d=-1.0)
        large = align_documents(src, index, k=5, theta_d=-1.0)

        def grouped(pairs):
            out: dict[str, list[tuple[str, float]]] = {}
            for p in pairs:
                out.setdefault(p.source_id, []).append((p.target_id, p.similarity))
            return out

        big = grouped(large)
        for source_id, hits in grouped(small).items():
            assert hits == big[source_id][: len(hits)]

    def test_similarities_are_fresh_cosines(self) -> None:
        src, tgt = matrices(seed=5)
        index = build_index(tgt)
        pairs = align_documents(src, index, k=4, theta_d=0.0)
        assert pairs
        s64 = src.rows.astype(np.float64)
        t64 = tgt.rows.astype(np.float64)
        src_pos = {uid: i for i, uid in enumerate(src.unit_ids)}
        tgt_pos = {uid: i for i, uid in enumerate(tgt.unit_ids)}
        for p in pairs:
            u = s64[src_pos[p.source_id]]
            v = t64[tgt_pos[p.target_id]]
            true = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
            assert p.similarity == pytest.approx(true, abs=1e-6)

    def test_zero_source_rows_skipped(self) -> None:
        rows = unit_rows(5, 4, seed=6)
        rows[2] = 0.0
        src = EmbeddingMatrix([f"s{i}" for i in range(5)], rows)
        tgt = EmbeddingMatrix(["t0", "t1"], unit_rows(2, 4, seed=7), unit_normalized=True)
        index = build_index(tgt)
        pairs = align_documents(src, index, k=1, theta_d=-1.0)
        assert {p.source_id for p in pairs} == {"s0", "s1", "s3", "s4"}

    def test_dim_mismatch(self) -> None:
        src, _ = matrices(seed=8, dim=8)
        _, tgt = matrices(seed=9, dim=16)
        index = build_index(tgt)
        with pytest.raises(ValueError, match="dim"):
            align_documents(src, index, k=1, theta_d=0.0)

    def test_k_must_be_positive(self) -> None:
        src, tgt = matrices(seed=10)
        index = build_index(tgt)
        with pytest.raises(ValueError, match="k"):
            align_documents(src, index, k=0, theta_d=0.0)


class TestTsv:
    def test_round_trip(self, tmp_path) -> None:
        pairs = [
            DocPair("s1", "t9", 0.9375),
            DocPair("s2", "t3", 0.5),
        ]
        path = tmp_path / "pairs.tsv"
        assert write_doc_pairs(pairs, path) == 2
        assert read_doc_pairs(path) == pairs

    def test_format_is_fixed_precision(self, tmp_path) -> None:
        path = tmp_path / "pairs.tsv"
        write_doc_pairs([DocPair("a", "b", 0.123456789)], path)
        assert path.read_text(encoding="utf-8") == "a\tb\t0.123457\n"

    def test_field_count_error_names_line(self, tmp_path) -> None:
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\t0.5\nbroken line\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            read_doc_pairs(path)

    def test_unparsable_similarity(self, tmp_path) -> None:
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\tnot-a-number\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unparsable"):
            read_doc_pairs(path)

    def test_blank_lines_skipped(self, tmp_path) -> None:
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\t0.5\n\n", encoding="utf-8")
        assert len(read_doc_pairs(path)) == 1
