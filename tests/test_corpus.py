"""Corpus loading, sentence splitting, tokenization."""

from __future__ import annotations

import json
import random

import pytest

from lha.corpus import (
    CorpusError,
    CorpusSchema,
    DuplicateDocumentError,
    content_tokens,
    corpus_index,
    default_abbreviations,
    default_stopwords,
    load_corpus,
    parse_uid,
    save_corpus,
    sentence_uid,
    split_sentences,
    tokenize,
)
from conftest import doc, write_jsonl


class TestSplitSentences:
    def test_two_terminal_periods(self) -> None:
        assert split_sentences("A b. C d.") == ["A b.", "C d."]

    def test_abbreviation_blocks_split(self) -> None:
        assert "dr" in default_abbreviations()
        assert split_sentences("Dr. Smith arrived.") == ["Dr. Smith arrived."]

    def test_empty(self) -> None:
        assert split_sentences("") == []

    def test_whitespace_only(self) -> None:
        assert split_sentences("   \n ") == []

    def test_single_initial_blocks_split(self) -> None:
        assert split_sentences("J. Smith spoke first.") == ["J. Smith spoke first."]

    def test_question_and_exclamation(self) -> None:
        assert split_sentences("Really? Yes! Done.") == ["Really?", "Yes!", "Done."]

    def test_closing_quote_stays_with_sentence(self) -> None:
        got = split_sentences('He said "Go." Then he left.')
        assert got == ['He said "Go."', "Then he left."]

    def test_no_split_without_following_space(self) -> None:
        assert split_sentences("See example.Com for more.") == [
            "See example.Com for more."
        ]

    def test_no_split_before_lowercase(self) -> None:
        assert split_sentences("It works. really it does.") == [
            "It works. really it does."
        ]

    def test_digit_opens_sentence(self) -> None:
        assert split_sentences("Count them. 3 cats sat.") == ["Count them.", "3 cats sat."]

    def test_ellipsis_is_one_terminal_run(self) -> None:
        assert split_sentences("Wait... Now go.") == ["Wait...", "Now go."]

    @pytest.mark.parametrize(
        "text",
        [
            "A b. C d.",
            "Dr. Smith arrived. He sat down.",
            'He said "Go." Then he left.',
            "One two three. Four five? Six!",
            "The U.S. team won. Next match is Monday.",
        ],
    )
    def test_reconstruction_modulo_whitespace(self, text: str) -> None:
        pieces = split_sentences(text)
        assert "".join(" ".join(pieces).split()) == "".join(text.split())


class TestTokenize:
    def test_flags(self) -> None:
        tokens = tokenize("The cat sat 3 times.")
        by_surface = {t.surface: t for t in tokens}
        assert by_surface["The"].is_stopword and by_surface["The"].normalized == "the"
        assert not by_surface["cat"].is_stopword
        assert by_surface["3"].is_number and not by_surface["3"].is_punct
        assert by_surface["."].is_punct and not by_surface["."].is_number

    def test_punctuation_split_from_words(self) -> None:
        assert [t.surface for t in tokenize("don't stop!")] == [
            "don", "'", "t", "stop", "!",
        ]

    def test_mixed_alnum_is_not_number(self) -> None:
        (token,) = tokenize("3rd")
        assert not token.is_number and not token.is_punct

    @pytest.mark.parametrize(
        "text",
        ["The cat sat.", "Dr. Smith, 3 dogs!", "don't 3.14 stop", "ÀPPLE pie"],
    )
    def test_retokenizing_normalized_stream_is_stable(self, text: str) -> None:
        first = [t.normalized for t in tokenize(text)]
        again = [t.normalized for t in tokenize(" ".join(first))]
        assert again == first


# Characters the joined-text property must hold for: ASCII and non-ASCII
# letters, digits, underscores, punctuation, quotes, a combining accent and
# whitespace of every kind that can sit inside a pre-split sentence.
_JOIN_ALPHABET = (
    "abcXYZ019_" "éßЖ中ٳ" ".,;:!?-()[]'\"“”‘’«»…" "\u0301" "  \t\n\r\u00a0\u2003"
)


def _random_text(rng: random.Random) -> str:
    return "".join(rng.choice(_JOIN_ALPHABET) for _ in range(rng.randint(0, 14)))


class TestJoinedTextTokens:
    """A group's text is its members' texts joined by single spaces; the
    filter and the summary read the members' own tokens instead of
    tokenising that text again, which must give the same tokens."""

    def test_random_texts(self) -> None:
        rng = random.Random(0)
        checked = 0
        for _ in range(3000):
            texts = [_random_text(rng).strip() for _ in range(rng.randint(1, 4))]
            texts = [t for t in texts if t]
            if not texts:
                continue
            joined = tokenize(" ".join(texts))
            assert joined == tuple(t for text in texts for t in tokenize(text)), texts
            checked += 1
        assert checked > 2500

    def test_parsed_sentences_of_a_corpus(self, tmp_path) -> None:
        rng = random.Random(1)
        records = []
        for n in range(60):
            sentences = [_random_text(rng) + rng.choice("abc") for _ in range(4)]
            records.append({"id": f"p{n}", "sentences": sentences})
            records.append({"id": f"r{n}", "text": ". ".join(sentences) + "."})
        path = write_jsonl(tmp_path / "c.jsonl", records)
        stopwords = default_stopwords()
        spans = 0
        for document in load_corpus(path):
            members = document.sentences
            for start in range(len(members)):
                for end in range(start + 1, min(start + 4, len(members)) + 1):
                    span = members[start:end]
                    text = " ".join(s.text for s in span)
                    assert tokenize(text, stopwords) == tuple(
                        t for s in span for t in s.tokens
                    ), text
                    spans += 1
        assert spans > 500


class TestContentTokens:
    def test_stopword_and_punct_removed(self) -> None:
        assert content_tokens(tokenize("The cat sat.")) == ["cat", "sat"]

    def test_all_filtered(self) -> None:
        assert content_tokens(tokenize("3 .")) == []

    def test_multiplicity_preserved(self) -> None:
        assert content_tokens(tokenize("cat cat")) == ["cat", "cat"]

    def test_subset_of_normalized(self) -> None:
        tokens = tokenize("The 3 cats sat on the mat, twice.")
        content = content_tokens(tokens)
        normalized = [t.normalized for t in tokens]
        for word in set(content):
            assert content.count(word) <= normalized.count(word)


class TestLoadCorpus:
    def test_presplit_passthrough(self, tmp_path) -> None:
        path = write_jsonl(
            tmp_path / "c.jsonl", [{"id": "d1", "sentences": ["A b.", "C d."]}]
        )
        (document,) = list(load_corpus(path, dataset_tag="src"))
        assert document.doc_id == "d1"
        assert document.dataset_tag == "src"
        assert [s.text for s in document.sentences] == ["A b.", "C d."]
        assert [s.ordinal for s in document.sentences] == [0, 1]

    def test_raw_text_is_split(self, tmp_path) -> None:
        path = write_jsonl(tmp_path / "c.jsonl", [{"id": "d1", "text": "A b. C d."}])
        (document,) = list(load_corpus(path))
        assert [s.text for s in document.sentences] == ["A b.", "C d."]

    def test_empty_text_rejected(self, tmp_path) -> None:
        path = write_jsonl(tmp_path / "c.jsonl", [{"id": "d1", "text": ""}])
        with pytest.raises(CorpusError, match="empty document"):
            list(load_corpus(path))

    def test_duplicate_id_rejected(self, tmp_path) -> None:
        path = write_jsonl(
            tmp_path / "c.jsonl",
            [{"id": "d1", "text": "A."}, {"id": "d1", "text": "B."}],
        )
        with pytest.raises(DuplicateDocumentError, match="'d1'") as exc:
            list(load_corpus(path))
        assert exc.value.line == 2

    @pytest.mark.parametrize("doc_id", ["a\tx", "a\nx", "a\rx", "\t"])
    def test_id_with_tab_or_line_break_rejected(self, tmp_path, doc_id) -> None:
        # Ids are fields of tab-separated, line-based outputs (doc_pairs.tsv).
        path = write_jsonl(
            tmp_path / "c.jsonl", [{"id": "d1", "text": "A."}, {"id": doc_id, "text": "B."}]
        )
        with pytest.raises(CorpusError, match="tab or line break") as exc:
            list(load_corpus(path))
        assert exc.value.line == 2

    def test_invalid_json_reports_line(self, tmp_path) -> None:
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "d1", "text": "A."}\n{nope\n', encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            list(load_corpus(path))

    def test_missing_id_rejected(self, tmp_path) -> None:
        path = write_jsonl(tmp_path / "c.jsonl", [{"text": "A."}])
        with pytest.raises(CorpusError, match="'id'"):
            list(load_corpus(path))

    def test_integer_id_accepted(self, tmp_path) -> None:
        path = write_jsonl(tmp_path / "c.jsonl", [{"id": 7, "text": "A."}])
        (document,) = list(load_corpus(path))
        assert document.doc_id == "7"

    def test_boolean_id_rejected(self, tmp_path) -> None:
        path = write_jsonl(tmp_path / "c.jsonl", [{"id": True, "text": "A."}])
        with pytest.raises(CorpusError, match="string or integer"):
            list(load_corpus(path))

    def test_blank_lines_skipped(self, tmp_path) -> None:
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "d1", "text": "A."}\n\n{"id": "d2", "text": "B."}\n',
            encoding="utf-8",
        )
        assert [d.doc_id for d in load_corpus(path)] == ["d1", "d2"]

    def test_empty_presplit_sentence_rejected(self, tmp_path) -> None:
        path = write_jsonl(
            tmp_path / "c.jsonl", [{"id": "d1", "sentences": ["A.", "  "]}]
        )
        with pytest.raises(CorpusError, match="empty sentence"):
            list(load_corpus(path))

    def test_title_kept(self, tmp_path) -> None:
        path = write_jsonl(
            tmp_path / "c.jsonl", [{"id": "d1", "title": "T", "text": "A."}]
        )
        (document,) = list(load_corpus(path))
        assert document.title == "T"

    def test_non_string_title_rejected(self, tmp_path) -> None:
        path = write_jsonl(tmp_path / "c.jsonl", [{"id": "d1", "title": 3, "text": "A."}])
        with pytest.raises(CorpusError, match="title"):
            list(load_corpus(path))

    def test_custom_schema(self, tmp_path) -> None:
        path = write_jsonl(
            tmp_path / "c.jsonl", [{"pageid": "p1", "body": "A b. C d."}]
        )
        schema = CorpusSchema(id_field="pageid", text_field="body")
        (document,) = list(load_corpus(path, schema=schema))
        assert document.doc_id == "p1"
        assert len(document.sentences) == 2

    def test_sentences_retokenize_exactly(self, tmp_path) -> None:
        path = write_jsonl(
            tmp_path / "c.jsonl", [{"id": "d1", "text": "The cat sat. Dogs ran!"}]
        )
        stopwords = default_stopwords()
        for document in load_corpus(path):
            for sentence in document.sentences:
                assert sentence.tokens == tokenize(sentence.text, stopwords)


class TestRoundTrip:
    def test_save_then_load_preserves_everything(self, tmp_path) -> None:
        docs = [
            doc("d1", ["A b.", "C d."], title="First"),
            doc("d2", ["The cat sat."], title=None),
        ]
        path = tmp_path / "out.jsonl"
        assert save_corpus(docs, path) == 2
        reloaded = list(load_corpus(path, dataset_tag="source"))
        assert reloaded == docs

    def test_saved_file_is_presplit(self, tmp_path) -> None:
        path = tmp_path / "out.jsonl"
        save_corpus([doc("d1", ["A b.", "C d."])], path)
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["sentences"] == ["A b.", "C d."]


class TestUids:
    def test_round_trip(self) -> None:
        assert parse_uid(sentence_uid("d1", 3)) == ("d1", 3)

    def test_doc_id_may_contain_separator(self) -> None:
        assert parse_uid(sentence_uid("a#b", 2)) == ("a#b", 2)

    def test_rejects_plain_id(self) -> None:
        with pytest.raises(ValueError, match="uid"):
            parse_uid("d1")


def test_corpus_index_keys_in_order() -> None:
    docs = [doc("d2", ["A."]), doc("d1", ["B."])]
    assert list(corpus_index(docs)) == ["d2", "d1"]
