"""Sentence-stage alignment: similarity matrices, pair extraction, merging,
post-filters, and the end-to-end generator."""

from __future__ import annotations

import json
import logging
import random
from collections import Counter

import numpy as np
import pytest

from lha.corpus import Document, default_stopwords
from lha.doc_align import DocPair
from lha.metrics import OverlapScorer, Scorer
from lha.sent_align import (
    AlignedGroup,
    FilterPolicy,
    align_sentences,
    extract_nn_pairs,
    load_exclusion_set,
    merge_components,
    merge_groups,
    normalize_pair_key,
    read_groups,
    sentence_sim_matrix,
    write_groups,
    write_groups_tsv,
)
from conftest import cosine_scorer, doc, filter_texts, pair_score
from oracles import align_sentences_oracle, components_oracle


def group_of(source_text: str, target_text: str, score: float = 0.9) -> AlignedGroup:
    return AlignedGroup(
        source_doc="s",
        target_doc="t",
        source_ids=("s#0",),
        target_ids=("t#0",),
        source_text=source_text,
        target_text=target_text,
        score=score,
    )


class TestSentenceSimMatrix:
    def test_identical_docs_have_unit_diagonal(self, toy_table) -> None:
        d = doc("d1", ["The cat sat.", "An apple fell.", "Rain is coming."])
        matrix = sentence_sim_matrix(d, d, cosine_scorer(toy_table, [d]))
        assert np.allclose(np.diag(matrix), 1.0, atol=1e-6)

    def test_shape(self, toy_table) -> None:
        src = doc("a", ["The cat.", "An apple.", "A storm."])
        tgt = doc("b", ["A dog.", "Some bread."])
        matrix = sentence_sim_matrix(src, tgt, cosine_scorer(toy_table, [src], [tgt]))
        assert matrix.shape == (3, 2)
        assert tuple(s.uid for s in src.sentences) == ("a#0", "a#1", "a#2")
        assert tuple(s.uid for s in tgt.sentences) == ("b#0", "b#1")

    def test_entries_match_standalone_scorer(self, toy_table) -> None:
        src = doc("a", ["The cat sat.", "An apple fell.", "Rain is near.", "A puppy!"])
        tgt = doc("b", ["Kitten plays.", "Banana bread.", "Snow and storm."])
        scorer = cosine_scorer(toy_table, [src], [tgt])
        matrix = sentence_sim_matrix(src, tgt, scorer)
        rng = np.random.default_rng(0)
        for _ in range(5):
            i = int(rng.integers(4))
            j = int(rng.integers(3))
            expected = pair_score(scorer, src.sentences[i], tgt.sentences[j])
            assert matrix[i, j] == pytest.approx(expected, abs=1e-6)

    def test_empty_document_rejected(self, toy_table) -> None:
        src = doc("a", ["The cat."])
        empty = doc("b", [])
        scorer = cosine_scorer(toy_table, [src])
        with pytest.raises(ValueError, match="empty document"):
            sentence_sim_matrix(src, empty, scorer)
        with pytest.raises(ValueError, match="empty document"):
            sentence_sim_matrix(empty, src, scorer)

    def test_shape_mismatch_rejected(self) -> None:
        class WrongShape(Scorer):
            def matrix(self, xs, ys):
                return np.zeros((2, 2))

        with pytest.raises(ValueError, match="shape"):
            sentence_sim_matrix(doc("a", ["A."]), doc("b", ["B.", "C."]), WrongShape())


class TestExtractNnPairs:
    def test_count_bound_at_k1(self) -> None:
        rng = np.random.default_rng(1)
        values = rng.random((6, 4))
        pairs = extract_nn_pairs(values, k=1, theta_s=0.0)
        assert len(pairs) <= 6 + 4

    def test_threshold_above_max_empties(self) -> None:
        rng = np.random.default_rng(2)
        values = rng.random((5, 5))
        assert extract_nn_pairs(values, k=2, theta_s=float(values.max()) + 0.1) == []

    def test_matches_exhaustive_enumeration(self) -> None:
        rng = np.random.default_rng(3)
        for _ in range(50):
            values = rng.random((4, 4))
            got = extract_nn_pairs(values, k=2, theta_s=0.0)
            expected: set[tuple[int, int]] = set()
            for i in range(4):
                best = sorted(range(4), key=lambda j: (-values[i, j], j))[:2]
                expected.update((i, j) for j in best)
            for j in range(4):
                best = sorted(range(4), key=lambda i: (-values[i, j], i))[:2]
                expected.update((i, j) for i in best)
            assert {(i, j) for i, j, _ in got} == expected
            for i, j, sim in got:
                assert sim == values[i, j]

    def test_theta_monotone_shrinks_pairs(self) -> None:
        rng = np.random.default_rng(4)
        values = rng.random((8, 8))
        cuts = [0.0, 0.3, 0.6, 0.9]
        sets = [
            {(i, j) for i, j, _ in extract_nn_pairs(values, k=3, theta_s=t)}
            for t in cuts
        ]
        for smaller, larger in zip(sets[1:], sets):
            assert smaller <= larger

    def test_carries_matrix_values(self, toy_table) -> None:
        src = doc("a", ["The cat.", "An apple."])
        tgt = doc("b", ["A kitten.", "Some bread."])
        matrix = sentence_sim_matrix(src, tgt, cosine_scorer(toy_table, [src], [tgt]))
        for i, j, sim in extract_nn_pairs(matrix, k=1, theta_s=0.0):
            assert sim == matrix[i, j]

    def test_k_validated(self) -> None:
        with pytest.raises(ValueError, match="k"):
            extract_nn_pairs(np.zeros((2, 2)), k=0, theta_s=0.0)


class TestMergeComponents:
    def test_overlapping_sets_merge_to_one_group(self) -> None:
        # source i matched to targets {j,k,l}; target j also matched source e
        i, e = 1, 0
        j, k, l = 0, 1, 2
        pairs = [(i, j), (i, k), (i, l), (e, j)]
        assert merge_components(pairs) == [((e, i), (j, k, l))]

    def test_disjoint_pairs_stay_singletons(self) -> None:
        assert merge_components([(0, 0), (1, 1)]) == [((0,), (0,)), ((1,), (1,))]

    def test_one_to_one_under_unique_best(self) -> None:
        pairs = [(0, 2), (1, 0), (2, 1)]
        comps = merge_components(pairs)
        assert all(len(s) == 1 and len(t) == 1 for s, t in comps)

    def test_matches_bfs_oracle(self) -> None:
        rng = np.random.default_rng(5)
        for _ in range(100):
            n_pairs = int(rng.integers(1, 15))
            pairs = [
                (int(rng.integers(0, 6)), int(rng.integers(0, 6)))
                for _ in range(n_pairs)
            ]
            got = set(merge_components(pairs))
            assert got == components_oracle(pairs)

    def test_disjoint_sides(self) -> None:
        rng = np.random.default_rng(6)
        for _ in range(30):
            pairs = [
                (int(rng.integers(0, 5)), int(rng.integers(0, 5)))
                for _ in range(int(rng.integers(1, 12)))
            ]
            comps = merge_components(pairs)
            all_src = [i for srcs, _ in comps for i in srcs]
            all_tgt = [j for _, tgts in comps for j in tgts]
            assert len(all_src) == len(set(all_src))
            assert len(all_tgt) == len(set(all_tgt))

    def test_restriction_idempotence(self) -> None:
        rng = np.random.default_rng(7)
        for _ in range(30):
            pairs = [
                (int(rng.integers(0, 5)), int(rng.integers(0, 5)))
                for _ in range(int(rng.integers(1, 12)))
            ]
            comps = merge_components(pairs)
            for srcs, tgts in comps:
                sub = [p for p in pairs if p[0] in srcs]
                assert merge_components(sub) == [(srcs, tgts)]


class TestMergeGroups:
    def test_group_fields(self, toy_table) -> None:
        src = doc("a", ["The cat sat.", "An apple fell."])
        tgt = doc("b", ["A kitten sat.", "Banana bread.", "Fresh bread."])
        pairs = [(0, 0, 0.95), (1, 1, 0.8), (1, 2, 0.85)]
        merged = merge_groups(pairs, src, tgt)
        assert [(srcs, tgts) for srcs, tgts, _ in merged] == [((0,), (0,)), ((1,), (1, 2))]
        groups = [g for _, _, g in merged]
        assert len(groups) == 2
        pets, food = groups
        assert pets.source_ids == ("a#0",) and pets.target_ids == ("b#0",)
        assert pets.score == pytest.approx(0.95)
        assert food.source_ids == ("a#1",)
        assert food.target_ids == ("b#1", "b#2")
        assert food.source_text == "An apple fell."
        assert food.target_text == "Banana bread. Fresh bread."
        assert food.score == pytest.approx(0.85)

    def test_score_is_max_member_pair(self, toy_table) -> None:
        src = doc("a", ["One.", "Two."])
        tgt = doc("b", ["Eins.", "Zwei."])
        pairs = [(0, 0, 0.7), (0, 1, 0.9), (1, 1, 0.6)]
        ((_, _, group),) = merge_groups(pairs, src, tgt)
        assert group.score == pytest.approx(0.9)

    def test_sides_in_document_order(self) -> None:
        src = doc("a", ["First.", "Second.", "Third."])
        tgt = doc("b", ["Uno.", "Dos."])
        pairs = [(2, 0, 0.5), (0, 0, 0.6), (0, 1, 0.7)]
        ((srcs, tgts, group),) = merge_groups(pairs, src, tgt)
        assert (srcs, tgts) == ((0, 2), (0, 1))
        assert group.source_text == "First. Third."
        assert group.target_text == "Uno. Dos."


class TestFilters:
    def test_identical_text_kept(self) -> None:
        assert filter_texts("Plain words here.", "Plain words here.", FilterPolicy()) is None

    def test_length_ratio_boundary(self) -> None:
        source = " ".join(f"word{i}" for i in range(10))
        kept_target = " ".join(f"word{i % 10}" for i in range(15))
        dropped_target = " ".join(f"word{i % 10}" for i in range(16))
        assert filter_texts(source, kept_target, FilterPolicy()) is None
        assert filter_texts(source, dropped_target, FilterPolicy()) == "length_ratio"

    def test_overlap_boundary_exact_minimum_kept(self) -> None:
        # target has 5 distinct content words, source covers 2: overlap 0.4
        source = "alpha beta zeta eta"
        target = "alpha beta gamma delta epsilon"
        assert filter_texts(source, target, FilterPolicy()) is None

    def test_overlap_just_below_minimum_dropped(self) -> None:
        words = [f"tok{i:04d}" for i in range(1000)]
        target = " ".join(words)
        source = " ".join(words[:399] + ["unrelated"] * 601)
        assert filter_texts(source, target, FilterPolicy()) == "overlap"

    def test_exclusion_set(self) -> None:
        policy = FilterPolicy(
            exclusion_set=frozenset({normalize_pair_key("Held OUT.", "Held  out.")})
        )
        assert filter_texts("Held out.", "Held out.", policy) == "excluded"
        assert filter_texts("Kept in.", "Kept in.", policy) is None

    def test_policy_validation(self) -> None:
        with pytest.raises(ValueError, match="min_overlap"):
            FilterPolicy(min_overlap=1.2)
        with pytest.raises(ValueError, match="max_len_ratio"):
            FilterPolicy(max_len_ratio=0.0)
        with pytest.raises(ValueError, match="stage"):
            FilterPolicy(stage="later")

    @pytest.mark.parametrize("field", ["min_overlap", "max_len_ratio"])
    def test_policy_refuses_nan(self, field) -> None:
        # A NaN ratio or overlap would compare false everywhere and drop nothing.
        with pytest.raises(ValueError, match=field):
            FilterPolicy(**{field: float("nan")})

    def test_normalize_pair_key(self) -> None:
        assert normalize_pair_key(" A  B ", "c\td") == ("a b", "c d")

    def test_load_exclusion_set(self, tmp_path) -> None:
        path = tmp_path / "exclude.tsv"
        path.write_text("Source ONE.\tTarget one.\n\nS2\tT2\n", encoding="utf-8")
        keys = load_exclusion_set(path)
        assert ("source one.", "target one.") in keys
        assert len(keys) == 2

    def test_load_exclusion_set_rejects_bad_line(self, tmp_path) -> None:
        path = tmp_path / "exclude.tsv"
        path.write_text("only-one-field\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            load_exclusion_set(path)


def pet_food_corpora(toy_table):
    src_docs = {
        "s1": doc("s1", ["The cat sat on a mat.", "An apple fell down."]),
        "s2": doc("s2", ["A storm is coming soon."]),
    }
    tgt_docs = {
        "t1": doc("t1", ["The kitten sat on a mat.", "A banana fell down."]),
        "t2": doc("t2", ["The snow storm is coming."]),
    }
    scorer = cosine_scorer(toy_table, src_docs.values(), tgt_docs.values())
    return src_docs, tgt_docs, scorer


class TestAlignSentences:
    def test_empty_doc_pairs(self, toy_table) -> None:
        src_docs, tgt_docs, scorer = pet_food_corpora(toy_table)
        got = list(align_sentences([], src_docs, tgt_docs, scorer, k=1, theta_s=0.5))
        assert got == []

    def test_end_to_end_groups(self, toy_table) -> None:
        src_docs, tgt_docs, scorer = pet_food_corpora(toy_table)
        doc_pairs = [DocPair("s1", "t1", 0.9), DocPair("s2", "t2", 0.8)]
        policy = FilterPolicy(min_overlap=0.0)
        groups = list(
            align_sentences(
                doc_pairs, src_docs, tgt_docs, scorer, k=1, theta_s=0.5, policy=policy
            )
        )
        texts = {(g.source_text, g.target_text) for g in groups}
        assert ("The cat sat on a mat.", "The kitten sat on a mat.") in texts
        assert ("An apple fell down.", "A banana fell down.") in texts
        assert ("A storm is coming soon.", "The snow storm is coming.") in texts

    def test_missing_document_logged_and_skipped(self, toy_table, caplog) -> None:
        src_docs, tgt_docs, scorer = pet_food_corpora(toy_table)
        doc_pairs = [DocPair("s1", "missing", 0.9), DocPair("s2", "t2", 0.8)]
        counts: dict[str, int] = {}
        with caplog.at_level(logging.WARNING):
            groups = list(
                align_sentences(
                    doc_pairs, src_docs, tgt_docs, scorer, k=1, theta_s=0.5,
                    policy=FilterPolicy(min_overlap=0.0), drop_counts=counts,
                )
            )
        assert counts["missing_doc"] == 1
        assert any("missing" in rec.message for rec in caplog.records)
        assert groups

    def test_global_dedup_on_text(self, toy_table) -> None:
        base = ["The cat sat on a mat."]
        src_docs = {"s1": doc("s1", base), "s2": doc("s2", base)}
        tgt_docs = {"t1": doc("t1", ["The kitten sat on a mat."])}
        scorer = cosine_scorer(toy_table, src_docs.values(), tgt_docs.values())
        doc_pairs = [DocPair("s1", "t1", 0.9), DocPair("s2", "t1", 0.9)]
        counts: dict[str, int] = {}
        groups = list(
            align_sentences(
                doc_pairs, src_docs, tgt_docs, scorer, k=1, theta_s=0.5,
                policy=FilterPolicy(min_overlap=0.0), drop_counts=counts,
            )
        )
        assert len(groups) == 1
        assert counts["duplicate"] == 1

    def test_drop_counts_track_filters(self, toy_table) -> None:
        src_docs = {"s1": doc("s1", ["The cat sat on a mat."])}
        tgt_docs = {"t1": doc("t1", ["The kitten sat on a mat."])}
        scorer = cosine_scorer(toy_table, src_docs.values(), tgt_docs.values())
        counts: dict[str, int] = {}
        policy = FilterPolicy(
            exclusion_set=frozenset(
                {normalize_pair_key("The cat sat on a mat.", "The kitten sat on a mat.")}
            )
        )
        groups = list(
            align_sentences(
                [DocPair("s1", "t1", 0.9)], src_docs, tgt_docs, scorer,
                k=1, theta_s=0.5, policy=policy, drop_counts=counts,
            )
        )
        assert groups == []
        assert counts["excluded"] == 1
        assert counts["raw_pairs"] >= 1
        assert counts["merged_groups"] >= 1

    def test_pair_stage_filters_before_merge(self, toy_table) -> None:
        # Under "pair" staging each pair is vetted alone, so a weak pair is
        # dropped before it can merge two strong pairs into one group.
        src_docs = {"s1": doc("s1", ["The cat sat on a mat.", "An apple fell down."])}
        tgt_docs = {"t1": doc("t1", ["The cat sat on a rug.", "An apple fell over."])}
        scorer = OverlapScorer()
        pair_policy = FilterPolicy(min_overlap=0.5, stage="pair")
        counts: dict[str, int] = {}
        groups = list(
            align_sentences(
                [DocPair("s1", "t1", 0.9)], src_docs, tgt_docs, scorer,
                k=2, theta_s=0.1, policy=pair_policy, drop_counts=counts,
            )
        )
        for g in groups:
            assert len(g.source_ids) == 1 and len(g.target_ids) == 1


# Content words, stopwords, numbers, punctuation and non-ASCII words, so that
# overlaps such as 1/3 and 1/2 and length ratios such as 1.5 occur exactly.
_WORDS = (
    "cat dog sun rain tree boat milk bread café naïve "
    "the a of and is 3 42 3rd , . ! ? 's"
).split()


def _random_doc(rng: random.Random, doc_id: str) -> Document:
    texts = []
    for _ in range(rng.randint(1, 5)):
        words = [rng.choice(_WORDS) for _ in range(rng.randint(1, 6))]
        glue = rng.choice([" "] * 6 + ["\n", "\t", "  "])
        texts.append(glue.join(words).capitalize())
    return doc(doc_id, texts)


class TestTextOracle:
    """The filter and the token totals read each member sentence's parsed
    tokens; they must decide and count as the rule applied to each group's
    text, re-tokenised, does."""

    POLICIES = [
        dict(min_overlap=0.5, max_len_ratio=1.5),
        dict(min_overlap=0.0, max_len_ratio=1.0),
        dict(min_overlap=1.0, max_len_ratio=2.0),
        dict(min_overlap=1 / 3, max_len_ratio=0.5),
        dict(min_overlap=0.4, max_len_ratio=1.5, exclusion=True),
    ]

    def corpora(self, seed: int):
        rng = random.Random(seed)
        src_docs = {f"s{n}": _random_doc(rng, f"s{n}") for n in range(5)}
        # A copy of s0, so its groups come again as duplicates.
        src_docs["s5"] = doc("s5", [s.text for s in src_docs["s0"].sentences])
        tgt_docs = {f"t{n}": _random_doc(rng, f"t{n}") for n in range(6)}
        doc_pairs = [DocPair(s, t, 0.9) for s in src_docs for t in tgt_docs]
        doc_pairs.append(DocPair("s0", "missing", 0.9))
        return src_docs, tgt_docs, doc_pairs

    def exclusion_for(self, src_docs, tgt_docs, doc_pairs) -> frozenset:
        """Every third group of an unfiltered run, in another case and spacing."""
        groups = align_sentences(
            doc_pairs, src_docs, tgt_docs, OverlapScorer(), k=2, theta_s=0.0,
            policy=FilterPolicy(min_overlap=0.0, max_len_ratio=100.0),
        )
        return frozenset(
            normalize_pair_key(g.source_text.upper(), "  " + g.target_text)
            for g in list(groups)[::3]
        )

    def test_groups_and_counts_match_text_oracle(self) -> None:
        stopwords = default_stopwords()
        boundary: Counter = Counter()
        reasons: Counter = Counter()
        for seed in range(8):
            src_docs, tgt_docs, doc_pairs = self.corpora(seed)
            exclusion = self.exclusion_for(src_docs, tgt_docs, doc_pairs)
            for spec in self.POLICIES:
                for stage in ("group", "pair"):
                    policy = FilterPolicy(
                        min_overlap=spec["min_overlap"],
                        max_len_ratio=spec["max_len_ratio"],
                        exclusion_set=exclusion if spec.get("exclusion") else frozenset(),
                        stage=stage,
                    )
                    for theta_s in (0.0, 0.3):
                        args = (doc_pairs, src_docs, tgt_docs, OverlapScorer(), 2, theta_s)
                        counts: dict[str, int] = {}
                        groups = list(align_sentences(
                            *args, policy=policy, drop_counts=counts
                        ))
                        expected, expected_counts = align_sentences_oracle(
                            *args, policy, stopwords, boundary
                        )
                        assert groups == expected, (seed, spec, stage, theta_s)
                        assert counts == expected_counts, (seed, spec, stage, theta_s)
                        reasons.update({k: counts[k] for k in (
                            "overlap", "length_ratio", "excluded", "duplicate"
                        )})
        # The fixtures reach both bounds exactly and every drop reason.
        assert boundary["overlap"] > 0 and boundary["length_ratio"] > 0, boundary
        assert all(reasons[k] > 0 for k in (
            "overlap", "length_ratio", "excluded", "duplicate"
        )), reasons


class TestGroupIo:
    def test_jsonl_round_trip_and_field_names(self, tmp_path) -> None:
        groups = [
            AlignedGroup(
                source_doc="s1",
                target_doc="t1",
                source_ids=("s1#0", "s1#2"),
                target_ids=("t1#1",),
                source_text="A b. C d.",
                target_text="E f.",
                score=0.875,
            )
        ]
        path = tmp_path / "groups.jsonl"
        assert write_groups(groups, path) == 1
        assert read_groups(path) == groups
        record = json.loads(path.read_text(encoding="utf-8"))
        assert set(record) == {
            "source_doc", "target_doc", "source_ids", "target_ids",
            "source_text", "target_text", "score",
        }

    def test_write_is_deterministic(self, tmp_path) -> None:
        groups = [group_of("A b.", "C d.")]
        write_groups(groups, tmp_path / "one.jsonl")
        write_groups(groups, tmp_path / "two.jsonl")
        assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "two.jsonl").read_bytes()

    def test_tsv_export(self, tmp_path) -> None:
        groups = [group_of("A b.", "C d."), group_of("E f.", "G h.")]
        path = tmp_path / "groups.tsv"
        assert write_groups_tsv(groups, path) == 2
        assert path.read_text(encoding="utf-8") == "A b.\tC d.\nE f.\tG h.\n"

    def test_tsv_keeps_one_line_per_group(self, tmp_path) -> None:
        groups = [group_of("The dog\nran home.", "A puppy\tran\r home.")]
        path = tmp_path / "groups.tsv"
        write_groups_tsv(groups, path)
        assert path.read_bytes() == b"The dog ran home.\tA puppy ran  home.\n"

    def test_filter_soundness_recheckable_from_file(self, tmp_path, toy_table) -> None:
        src_docs, tgt_docs, scorer = pet_food_corpora(toy_table)
        doc_pairs = [DocPair("s1", "t1", 0.9), DocPair("s2", "t2", 0.8)]
        policy = FilterPolicy(min_overlap=0.3, max_len_ratio=1.5)
        groups = list(
            align_sentences(
                doc_pairs, src_docs, tgt_docs, scorer, k=1, theta_s=0.4, policy=policy
            )
        )
        path = tmp_path / "groups.jsonl"
        write_groups(groups, path)
        for g in read_groups(path):
            assert filter_texts(g.source_text, g.target_text, policy) is None
