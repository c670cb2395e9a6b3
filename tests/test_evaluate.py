"""Gold labels, the F1max threshold sweep, and the three evaluation
protocols on a hand-built topical corpus."""

from __future__ import annotations

import json

import numpy as np
import pytest

from lha.corpus import InputError, content_tokens, load_corpus
from lha.embeddings import EmbeddingMatrix, embed_corpus
from lha.evaluate import (
    LABELS,
    EvalDataset,
    EvalReport,
    GoldPair,
    IncompleteDatasetError,
    _doc_sim_matrix,
    _rescore,
    eval_document_alignment,
    eval_joint,
    eval_sentence_alignment,
    f1max_sweep,
    gold_from_tsv,
    load_eval_dataset,
    load_gold_pairs,
    normalize_label,
    save_gold_pairs,
)
from lha.metrics import (
    Bm25Scorer,
    Bm25Stats,
    CosineScorer,
    OverlapScorer,
    RwmdScorer,
    WmdScorer,
)
from conftest import cosine_scorer, doc, pair_score, write_jsonl
from oracles import f1_sweep_oracle


class TestLabels:
    def test_aliases_normalize(self) -> None:
        assert normalize_label("Good") == "good"
        assert normalize_label("good partial") == "good_partial"
        assert normalize_label("GoodPartial") == "good_partial"
        assert normalize_label("non-valid") == "nonvalid"
        assert normalize_label("NON_VALID") == "nonvalid"
        assert normalize_label("bad") == "nonvalid"

    def test_unknown_label_rejected(self) -> None:
        with pytest.raises(ValueError, match="unrecognized"):
            normalize_label("excellent")

    def test_gold_pair_validates_label(self) -> None:
        with pytest.raises(ValueError, match="label"):
            GoldPair("a", "b", "excellent")
        assert GoldPair("a", "b", "good").label in LABELS


class TestGoldIo:
    def test_round_trip(self, tmp_path) -> None:
        pairs = [
            GoldPair("s1#0", "t1#0", "good"),
            GoldPair("s1#1", "t1#1", "good_partial"),
        ]
        path = tmp_path / "gold.jsonl"
        assert save_gold_pairs(pairs, path) == 2
        assert load_gold_pairs(path) == pairs

    def test_load_normalizes_labels(self, tmp_path) -> None:
        path = tmp_path / "gold.jsonl"
        path.write_text(
            json.dumps({"source_key": "a", "target_key": "b", "label": "Good Partial"})
            + "\n",
            encoding="utf-8",
        )
        assert load_gold_pairs(path)[0].label == "good_partial"

    def test_load_reports_bad_line(self, tmp_path) -> None:
        path = tmp_path / "gold.jsonl"
        path.write_text('{"source_key": "a"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            load_gold_pairs(path)

    @pytest.mark.parametrize("line, reason", [
        ('["a", "b", "good"]', "record is not an object"),
        ('{"source_key": "a", "target_key": "b", "label": 1}',
         "unrecognized gold label '1'"),
        ('{"source_key": "a", "target_key": "b", "label": "great"}',
         "unrecognized gold label 'great'"),
    ])
    def test_load_names_file_and_line(self, tmp_path, line, reason) -> None:
        path = tmp_path / "gold.jsonl"
        path.write_text(f'{{"source_key": "a", "target_key": "b", "label": "good"}}\n{line}\n',
                        encoding="utf-8")
        with pytest.raises(InputError) as exc:
            load_gold_pairs(path)
        assert str(exc.value) == f"{path}: line 2: {reason}"

    def test_from_tsv_defaults(self, tmp_path) -> None:
        path = tmp_path / "gold.tsv"
        path.write_text("s1#0\tt1#0\tGood\ns1#1\tt1#1\tnon-valid\n", encoding="utf-8")
        pairs = gold_from_tsv(path)
        assert pairs == [
            GoldPair("s1#0", "t1#0", "good"),
            GoldPair("s1#1", "t1#1", "nonvalid"),
        ]

    def test_from_tsv_custom_columns(self, tmp_path) -> None:
        path = tmp_path / "gold.csv"
        path.write_text(
            "label,tgt,src\ngood,t1#0,s1#0\npartial,t1#1,s1#1\n", encoding="utf-8"
        )
        pairs = gold_from_tsv(
            path, source_col=2, target_col=1, label_col=0,
            delimiter=",", skip_header=True,
        )
        assert pairs[0] == GoldPair("s1#0", "t1#0", "good")
        assert pairs[1].label == "partial"

    def test_from_tsv_short_line(self, tmp_path) -> None:
        path = tmp_path / "gold.tsv"
        path.write_text("a\tb\tgood\na\tb\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            gold_from_tsv(path)

    def test_from_tsv_bad_label_names_line(self, tmp_path) -> None:
        path = tmp_path / "gold.tsv"
        path.write_text("a\tb\tshiny\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            gold_from_tsv(path)


class TestF1Sweep:
    def test_perfect_separation(self) -> None:
        scored = {("a", "x"): 0.9, ("b", "y"): 0.8, ("c", "z"): 0.1}
        report = f1max_sweep(scored, {("a", "x"), ("b", "y")})
        assert report.f1_max == 1.0
        assert report.best_threshold == 0.8
        assert report.precision_at_max == 1.0
        assert report.recall_at_max == 1.0
        assert report.retrieved_at_max == 2
        assert report.scored_pairs == 3

    def test_unscored_gold_counts_as_miss(self) -> None:
        report = f1max_sweep({("a", "x"): 0.9}, {("a", "x"), ("never", "scored")})
        assert report.recall_at_max == 0.5
        assert report.f1_max == pytest.approx(2 / 3)

    def test_tie_prefers_higher_threshold(self) -> None:
        # cut 0.9: tp=1 of 1 retrieved; cut 0.8: tp=2 of 4 -> same F1 of 2/3
        scored = {("g1", "t"): 0.9, ("n1", "t"): 0.8, ("n2", "t"): 0.8,
                  ("g2", "t"): 0.8}
        report = f1max_sweep(scored, {("g1", "t"), ("g2", "t")})
        assert report.f1_max == pytest.approx(2 / 3)
        assert report.best_threshold == 0.9
        assert report.retrieved_at_max == 1

    def test_empty_scored(self) -> None:
        report = f1max_sweep({}, {("a", "x")})
        assert report.f1_max == 0.0
        assert report.best_threshold is None
        assert report.scored_pairs == 0
        assert report.positives_total == 1

    def test_empty_gold_rejected(self) -> None:
        with pytest.raises(ValueError, match="gold"):
            f1max_sweep({("a", "x"): 0.5}, set())

    def test_duplicate_pair_rejected(self) -> None:
        items = [(("a", "x"), 0.5), (("a", "x"), 0.6)]
        with pytest.raises(ValueError, match="duplicate"):
            f1max_sweep(items, {("a", "x")})

    def test_nan_score_rejected(self) -> None:
        with pytest.raises(ValueError, match="NaN"):
            f1max_sweep({("a", "x"): float("nan")}, {("a", "x")})

    def test_mapping_and_items_agree(self) -> None:
        scored = {("a", "x"): 0.9, ("b", "y"): 0.3}
        gold = {("a", "x")}
        assert f1max_sweep(scored, gold) == f1max_sweep(list(scored.items()), gold)

    def test_matches_exhaustive_oracle(self) -> None:
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            scored = {
                (f"s{i}", f"t{i}"): float(rng.integers(0, 5)) / 4.0
                for i in range(n)
            }
            gold = {k for k in scored if rng.random() < 0.4}
            for extra in range(int(rng.integers(0, 3))):
                gold.add((f"unscored{extra}", "x"))
            if not gold:
                gold.add(("unscored", "x"))
            report = f1max_sweep(scored, gold)
            f1, precision, recall, cut, retrieved, _tp = f1_sweep_oracle(scored, gold)
            assert report.f1_max == float(f1)
            assert report.precision_at_max == float(precision)
            assert report.recall_at_max == float(recall)
            assert report.best_threshold == cut
            assert report.retrieved_at_max == retrieved
            p, r = report.precision_at_max, report.recall_at_max
            if p + r > 0:
                assert report.f1_max == pytest.approx(2 * p * r / (p + r), rel=1e-12)


class TestEvalReport:
    def test_to_dict_excludes_timing_by_default(self) -> None:
        report = f1max_sweep({("a", "x"): 0.9}, {("a", "x")})
        assert "wall_clock_sec" not in report.to_dict()
        assert "wall_clock_sec" in report.to_dict(include_timing=True)
        assert "throughput_units_per_sec" in report.to_dict(include_timing=True)

    def test_to_json_deterministic(self) -> None:
        report = f1max_sweep({("a", "x"): 0.9}, {("a", "x")})
        assert report.to_json() == report.to_json()
        assert json.loads(report.to_json())["f1_max"] == 1.0

    def test_table_shows_tp_percent(self) -> None:
        report = f1max_sweep({("a", "x"): 0.9, ("b", "y"): 0.1}, {("a", "x")})
        text = report.table()
        assert "F1max" in text
        assert "TP%" in text
        assert "100.0%" in text

    def test_table_without_threshold(self) -> None:
        report = EvalReport(
            f1_max=0.0, precision_at_max=0.0, recall_at_max=0.0,
            best_threshold=None, positives_total=3, retrieved_at_max=0,
        )
        assert "n/a" in report.table()


def topical_dataset(pure_weather_pair: bool = False) -> EvalDataset:
    """Two gold article pairs (pets+food, weather) plus one out-of-vocabulary
    noise article per side."""
    t2_text = "The storm rain came." if pure_weather_pair else "The storm cat came."
    src_docs = {
        "s1": doc("s1", ["The cat sat.", "An apple fell."]),
        "s2": doc("s2", ["Rain is coming."]),
    }
    tgt_docs = {
        "t1": doc("t1", ["A kitten sat.", "A banana fell."]),
        "t2": doc("t2", [t2_text]),
    }
    gold_pairs = [
        GoldPair("s1#0", "t1#0", "good"),
        GoldPair("s1#1", "t1#1", "good"),
        GoldPair("s2#0", "t2#0", "good_partial"),
    ]
    return EvalDataset(
        src_docs=src_docs,
        tgt_docs=tgt_docs,
        gold_doc_pairs=[("s1", "t1"), ("s2", "t2")],
        gold_pairs=gold_pairs,
        noise_src=[doc("ns1", ["Xyzzy plugh."])],
        noise_tgt=[doc("nt1", ["Qwerty asdf."])],
    )


def dataset_scorer(table, dataset: EvalDataset) -> CosineScorer:
    """The cosine scorer over every sentence of the dataset, noise included."""
    return cosine_scorer(
        table,
        [*dataset.src_docs.values(), *dataset.noise_src],
        [*dataset.tgt_docs.values(), *dataset.noise_tgt],
    )


class TestSentenceProtocol:
    def test_good_labels_separate_cleanly(self, toy_table) -> None:
        dataset = topical_dataset()
        report = eval_sentence_alignment(dataset, dataset_scorer(toy_table, dataset))
        assert report.f1_max == 1.0
        assert report.recall_at_max == 1.0
        assert report.positives_total == 2
        # 2x2 grid for the first doc pair plus 1x1 for the second
        assert report.scored_pairs == 5
        assert report.details["protocol"] == "sentence"
        assert report.details["scorer"] == "cosine"

    def test_positive_labels_widen_gold(self, toy_table) -> None:
        dataset = topical_dataset()
        report = eval_sentence_alignment(
            dataset, dataset_scorer(toy_table, dataset),
            positive_labels=("good", "good_partial"),
        )
        assert report.positives_total == 3
        assert report.f1_max == 1.0
        # the weather pair scores ~0.65, so the maximizing cut drops to it
        assert report.best_threshold == pytest.approx(0.6536, abs=1e-3)

    def test_positive_labels_no_gold_pair_carries(self, toy_table) -> None:
        dataset = topical_dataset()
        with pytest.raises(InputError, match="no gold pair is labelled nonvalid or partial"):
            eval_sentence_alignment(dataset, dataset_scorer(toy_table, dataset),
                                    positive_labels=("partial", "nonvalid"))

    def test_unknown_doc_pair_rejected(self, toy_table) -> None:
        dataset = topical_dataset()
        dataset.gold_doc_pairs.append(("s1", "missing"))
        with pytest.raises(KeyError, match="missing"):
            eval_sentence_alignment(dataset, dataset_scorer(toy_table, dataset))

    def test_timing_recorded(self, toy_table) -> None:
        dataset = topical_dataset()
        report = eval_sentence_alignment(dataset, dataset_scorer(toy_table, dataset))
        assert report.wall_clock_sec > 0.0
        assert report.throughput_units_per_sec > 0.0


class TestDocumentProtocol:
    def test_embedding_route(self, toy_table) -> None:
        dataset = topical_dataset()
        report = eval_document_alignment(
            dataset, embedder=toy_table, n_noise=1, seed=0
        )
        assert report.f1_max == 1.0
        assert report.retrieved_at_max == 2
        # 3 sources x 3 targets once one noise article joins each side
        assert report.scored_pairs == 9
        assert report.details["protocol"] == "document"
        assert report.details["noise_per_side"] == 1

    def test_word_count_route(self, toy_table) -> None:
        # Content-word coverage: the pets+food pair shares sat/fell (2 of 4
        # target words), the weather pair shares rain (1 of 3), and the best
        # cross pair shares nothing, so the sweep lands on the weather pair.
        dataset = topical_dataset(pure_weather_pair=True)
        report = eval_document_alignment(dataset, scorer=OverlapScorer(), n_noise=1)
        assert report.f1_max == 1.0
        assert report.best_threshold == pytest.approx(1 / 3)
        assert report.details["scorer"] == "overlap"

    def test_exactly_one_scoring_route(self, toy_table) -> None:
        dataset = topical_dataset()
        with pytest.raises(ValueError, match="exactly one"):
            eval_document_alignment(
                dataset, embedder=toy_table, scorer=OverlapScorer(),
                n_noise=1,
            )
        with pytest.raises(ValueError, match="exactly one"):
            eval_document_alignment(dataset, n_noise=1)

    def test_scorer_route_scores_whole_documents(self, toy_table) -> None:
        # The noise articles have no in-vocabulary token: their transport
        # cells are 0.
        dataset = topical_dataset()
        src_list = [*dataset.src_docs.values(), *dataset.noise_src]
        tgt_list = [*dataset.tgt_docs.values(), *dataset.noise_tgt]
        stats = Bm25Stats.from_documents(content_tokens(d.tokens()) for d in tgt_list)
        for scorer in (OverlapScorer(), Bm25Scorer(stats), WmdScorer(toy_table),
                       RwmdScorer(toy_table)):
            sims = _doc_sim_matrix(src_list, tgt_list, None, scorer)
            assert sims.shape == (3, 3)
            for i, s in enumerate(src_list):
                for j, t in enumerate(tgt_list):
                    expected = pair_score(
                        scorer, content_tokens(s.tokens()), content_tokens(t.tokens())
                    )
                    assert sims[i, j] == expected, (scorer.kind, s.doc_id, t.doc_id)
            assert sims[0, 0] > 0.0

    def test_scorer_route_refuses_cosine(self, toy_table) -> None:
        dataset = topical_dataset()
        with pytest.raises(ValueError, match="embedder="):
            eval_document_alignment(
                dataset, scorer=dataset_scorer(toy_table, dataset), n_noise=1,
            )

    def test_noise_pool_too_small(self, toy_table) -> None:
        dataset = topical_dataset()
        with pytest.raises(ValueError, match="noise pool"):
            eval_document_alignment(
                dataset, embedder=toy_table, n_noise=5
            )


class TestJointProtocol:
    def test_lha_mode(self, toy_table) -> None:
        dataset = topical_dataset()
        report = eval_joint(
            "lha", dataset, dataset_scorer(toy_table, dataset),
            doc_embedder=toy_table, k_doc=2, theta_d=0.6, n_noise=1, seed=0,
        )
        assert report.f1_max == 1.0
        assert report.details["mode"] == "lha"
        assert report.details["doc_pairs"] == 2
        assert report.details["candidates"] == 5

    def test_global_mode(self, toy_table) -> None:
        dataset = topical_dataset()
        report = eval_joint(
            "global", dataset, dataset_scorer(toy_table, dataset), n_noise=1, seed=0,
        )
        assert report.f1_max == 1.0
        assert report.details["mode"] == "global"
        # every source sentence scores against every target sentence
        assert report.details["candidates"] == 16
        assert report.details["global_top"] == 4

    def test_rescoring_caps_candidates(self, toy_table) -> None:
        dataset = topical_dataset()
        scorer = dataset_scorer(toy_table, dataset)
        report = eval_joint(
            "lha", dataset, scorer, doc_embedder=toy_table,
            k_doc=2, theta_d=0.6, n_noise=1, seed=0,
            rescorer=scorer, rescore_top=1,
        )
        assert report.details["rescored"] == 3
        assert report.details["rescored"] <= report.details["candidates"]
        assert report.f1_max == 1.0

    def test_rescore_equals_per_pair_transport(self, toy_table) -> None:
        # t#1 has no in-vocabulary token and scores 0; the candidate scores
        # tie, so the top 3 per source also exercise the tie-break by uid.
        src = doc("s", ["The cat sat.", "Rain and snow."]).sentences
        tgt = doc("t", ["A kitten.", "Xyzzy plugh.", "Storm and sun.", "Bread."]).sentences
        rng = np.random.default_rng(0)
        scored = {
            (x.uid, y.uid): float(rng.integers(3)) for x in src for y in tgt
        }
        for rescorer in (WmdScorer(toy_table), RwmdScorer(toy_table)):
            out = _rescore(
                scored, {x.uid: x for x in src}, {y.uid: y for y in tgt}, rescorer, 3
            )
            expected_keys = []
            for x in src:
                ranked = sorted(tgt, key=lambda y: (-scored[(x.uid, y.uid)], y.uid))
                expected_keys += [(x.uid, y.uid) for y in ranked[:3]]
            assert list(out) == expected_keys
            by_uid = {y.uid: y for y in (*src, *tgt)}
            for (s_uid, t_uid), value in out.items():
                assert value == pair_score(rescorer, by_uid[s_uid], by_uid[t_uid])
            unembeddable = [k for k in out if k[1] == "t#1"]
            assert unembeddable and all(out[k] == 0.0 for k in unembeddable)

    def test_mode_validated(self, toy_table) -> None:
        dataset = topical_dataset()
        with pytest.raises(ValueError, match="mode"):
            eval_joint("both", dataset, dataset_scorer(toy_table, dataset))

    def test_global_needs_embedding_scorer(self, toy_table) -> None:
        with pytest.raises(ValueError, match="cosine"):
            eval_joint("global", topical_dataset(), OverlapScorer(), n_noise=1)

    def test_lha_needs_doc_embedder(self, toy_table) -> None:
        dataset = topical_dataset()
        with pytest.raises(ValueError, match="embedder"):
            eval_joint("lha", dataset, dataset_scorer(toy_table, dataset), n_noise=1)


class TestLoadEvalDataset:
    def write_dataset(self, root) -> None:
        write_jsonl(root / "source_docs.jsonl", [
            {"id": "s1", "sentences": ["The cat sat.", "An apple fell."]},
            {"id": "s2", "sentences": ["Rain is coming."]},
        ])
        write_jsonl(root / "target_docs.jsonl", [
            {"id": "t1", "sentences": ["A kitten sat.", "A banana fell."]},
            {"id": "t2", "sentences": ["The storm cat came."]},
        ])
        (root / "doc_pairs.tsv").write_text("s1\tt1\n\ns2\tt2\n", encoding="utf-8")
        write_jsonl(root / "gold_pairs.jsonl", [
            {"source_key": "s1#0", "target_key": "t1#0", "label": "Good"},
            {"source_key": "s2#0", "target_key": "t2#0", "label": "good partial"},
        ])
        write_jsonl(root / "noise_source_docs.jsonl",
                    [{"id": "ns1", "sentences": ["Xyzzy plugh."]}])
        write_jsonl(root / "noise_target_docs.jsonl",
                    [{"id": "nt1", "sentences": ["Qwerty asdf."]}])

    def test_loads_complete_directory(self, tmp_path, toy_table) -> None:
        self.write_dataset(tmp_path)
        dataset = load_eval_dataset(tmp_path)
        assert set(dataset.src_docs) == {"s1", "s2"}
        assert set(dataset.tgt_docs) == {"t1", "t2"}
        assert dataset.gold_doc_pairs == [("s1", "t1"), ("s2", "t2")]
        assert [g.label for g in dataset.gold_pairs] == ["good", "good_partial"]
        assert len(dataset.noise_src) == 1 and len(dataset.noise_tgt) == 1
        report = eval_sentence_alignment(dataset, dataset_scorer(toy_table, dataset))
        assert report.f1_max == 1.0

    def test_four_corpora_share_tokens(self, tmp_path) -> None:
        self.write_dataset(tmp_path)
        dataset = load_eval_dataset(tmp_path)
        parts = {
            "src": list(dataset.src_docs.values()),
            "tgt": list(dataset.tgt_docs.values()),
            "noise_src": dataset.noise_src,
            "noise_tgt": dataset.noise_tgt,
        }
        files = {"src": "source_docs", "tgt": "target_docs",
                 "noise_src": "noise_source_docs", "noise_tgt": "noise_target_docs"}
        for tag, docs in parts.items():
            assert docs == list(load_corpus(tmp_path / f"{files[tag]}.jsonl", tag)), tag
        periods = {
            tag: [t for d in docs for t in d.tokens() if t.surface == "."]
            for tag, docs in parts.items()
        }
        first = periods["src"][0]
        assert all(periods.values())
        assert all(t is first for ts in periods.values() for t in ts)

    def test_missing_files_named(self, tmp_path) -> None:
        self.write_dataset(tmp_path)
        (tmp_path / "gold_pairs.jsonl").unlink()
        with pytest.raises(FileNotFoundError, match="gold_pairs.jsonl"):
            load_eval_dataset(tmp_path)

    def test_missing_files_are_an_input_error(self, tmp_path) -> None:
        self.write_dataset(tmp_path)
        (tmp_path / "gold_pairs.jsonl").unlink()
        (tmp_path / "noise_target_docs.jsonl").unlink()
        with pytest.raises(IncompleteDatasetError) as info:
            load_eval_dataset(tmp_path)
        assert isinstance(info.value, InputError) and isinstance(info.value, FileNotFoundError)
        assert str(info.value).startswith(
            f"evaluation dataset incomplete at {tmp_path}: "
            "missing gold_pairs.jsonl, noise_target_docs.jsonl. ")

    @pytest.mark.parametrize("pairs, message", [
        ("s1\tt1\ns9\tt2\n", "line 2: document 's9' is not in source_docs.jsonl"),
        ("s1\tt9\n", "line 1: document 't9' is not in target_docs.jsonl"),
        ("s1\ts1\n", "line 1: document 's1' is not in target_docs.jsonl"),
    ])
    def test_doc_pair_ids_are_documents_of_their_side(self, tmp_path, pairs, message) -> None:
        self.write_dataset(tmp_path)
        (tmp_path / "doc_pairs.tsv").write_text(pairs, encoding="utf-8")
        with pytest.raises(InputError) as info:
            load_eval_dataset(tmp_path)
        assert str(info.value) == f"{tmp_path / 'doc_pairs.tsv'}: {message}"

    def test_bad_doc_pairs_line(self, tmp_path) -> None:
        self.write_dataset(tmp_path)
        (tmp_path / "doc_pairs.tsv").write_text("only-one-id\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            load_eval_dataset(tmp_path)

    def test_bad_doc_pairs_line_names_the_file(self, tmp_path) -> None:
        self.write_dataset(tmp_path)
        (tmp_path / "doc_pairs.tsv").write_text("s1\tt1\nonly-one-id\n", encoding="utf-8")
        with pytest.raises(InputError) as exc:
            load_eval_dataset(tmp_path)
        assert str(exc.value) == (
            f"{tmp_path / 'doc_pairs.tsv'}: line 2: expected 2 tab-separated ids"
        )


def shared_id_dataset(target_id: str) -> EvalDataset:
    """One gold article pair whose sides may share the id "A". Each target
    sentence differs from the source sentence of the same ordinal."""
    src = doc("A", ["The cat sat.", "An apple fell."])
    tgt = doc(target_id, ["A banana fell.", "A kitten sat."])
    return EvalDataset(
        src_docs={"A": src},
        tgt_docs={target_id: tgt},
        gold_doc_pairs=[("A", target_id)],
        gold_pairs=[
            GoldPair("A#0", f"{target_id}#1", "good"),
            GoldPair("A#1", f"{target_id}#0", "good"),
        ],
        noise_src=[doc("ns1", ["Rain is coming."])],
        noise_tgt=[doc("nt1", ["The storm rain came."])],
    )


class TestJointSharedIds:
    """A source and a target sentence with the same uid stay apart."""

    def test_rescore_reads_each_side(self, toy_table) -> None:
        reports = []
        for target_id in ("A", "B"):
            dataset = shared_id_dataset(target_id)
            reports.append(eval_joint(
                "lha", dataset, dataset_scorer(toy_table, dataset),
                doc_embedder=toy_table, k_doc=1, theta_d=0.5, n_noise=1,
                rescorer=WmdScorer(toy_table), rescore_top=1,
            ).to_dict())
        assert reports[0] == reports[1]
        assert reports[0]["recall_at_max"] == 1.0
        assert reports[0]["details"]["rescored"] == 3  # A#0, A#1 and the noise sentence

    def test_global_mode_embeds_targets_with_target_embedder(self, toy_table) -> None:
        dataset = shared_id_dataset("A")
        src_docs = [*dataset.src_docs.values(), *dataset.noise_src]
        tgt_docs = [*dataset.tgt_docs.values(), *dataset.noise_tgt]
        scorer = CosineScorer(
            embed_corpus(src_docs, "sentence", toy_table),
            embed_corpus(tgt_docs, "sentence", toy_table),
        )
        shared = eval_joint("global", dataset, scorer, n_noise=1, global_top=1)
        # with distinct ids one matrix can hold both sides
        renamed_dataset = shared_id_dataset("B")
        both = embed_corpus(
            [*renamed_dataset.src_docs.values(), *renamed_dataset.noise_src,
             *renamed_dataset.tgt_docs.values(), *renamed_dataset.noise_tgt],
            "sentence", toy_table,
        )
        renamed = eval_joint(
            "global", renamed_dataset, CosineScorer(both, both), n_noise=1, global_top=1
        )
        assert shared.to_dict() == renamed.to_dict()
        assert shared.recall_at_max == 1.0


def test_global_mode_breaks_boundary_ties_by_target_id() -> None:
    # A zero-vector source sentence ties with all 100 targets at 0. The
    # targets' ids run opposite to their positions, so only the id
    # tie-break keeps t000-t049.
    tgt_ids = [f"t{i:03d}" for i in reversed(range(100))]
    rows = np.random.default_rng(0).random((100, 4)) + 0.1
    scorer = CosineScorer(
        EmbeddingMatrix(["A#0"], np.zeros((1, 4), dtype=np.float32)),
        EmbeddingMatrix([f"{t}#0" for t in tgt_ids], rows),
    )
    dataset = EvalDataset(
        src_docs={"A": doc("A", ["The cat sat."])},
        tgt_docs={t: doc(t, ["A kitten sat."]) for t in tgt_ids},
        gold_doc_pairs=[("A", t) for t in tgt_ids],
        gold_pairs=[GoldPair("A#0", f"t{i:03d}#0", "good") for i in range(50)],
        noise_src=[],
        noise_tgt=[],
    )
    report = eval_joint("global", dataset, scorer, n_noise=0, global_top=50)
    assert report.details["candidates"] == 50
    assert report.recall_at_max == 1.0
