"""Corpus loading, sentence splitting, tokenization."""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

import lha.corpus
from lha.corpus import (
    Token,
    Sentence,
    CorpusError,
    CorpusSchema,
    DuplicateDocumentError,
    InputError,
    content_tokens,
    corpus_index,
    default_abbreviations,
    default_stopwords,
    load_abbreviations,
    load_corpus,
    load_stopwords,
    parse_uid,
    save_corpus,
    sentence_uid,
    split_sentences,
    tokenize,
)
from conftest import doc, write_jsonl
from oracles import split_sentences_oracle, token_oracle


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

    def test_matches_whole_text_look_behind_oracle(self) -> None:
        # The look-behind searches a window before each period and widens
        # it while the word found starts at its edge; that must find the
        # word a search over the whole text before the period finds.
        atoms = ["Dr.", "st.", "U.S.", "J.", "A.B.C.", "e.g.", "Mr.", "No.", "the",
                 "cat", "Sat", "ran.", "Ünter.", "é.", "3.5", "7.", "!", "?", "...",
                 '"', "”", ")", "(", "'", "x" * 31, "y" * 33 + ".", "W." * 40, "_.",
                 "a" * 40 + ".", "a" * 70 + ".", "A" * 90 + ".",
                 "\n", "\n\n", "", " "]
        rng = random.Random(7)
        for _ in range(4000):
            text = "".join(rng.choice(atoms) + rng.choice(["", " ", " ", "\n"])
                           for _ in range(rng.randint(0, 30)))
            for abbreviations in (None, frozenset({"u.s", "st", "e.g", "a" * 40})):
                assert split_sentences(text, abbreviations) == \
                    split_sentences_oracle(text, abbreviations), text

    def test_long_text_with_an_abbreviation_run(self) -> None:
        text = "Word. " * 5000 + "U.S. " * 500 + "End."
        pieces = split_sentences(text)
        assert len(pieces) == 5001
        assert pieces[-1] == "U.S. " * 499 + "U.S. End."


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


class TestTokenMemo:
    """A corpus file shares one Token per surface form under its own stopword
    set; tokens still compare by value."""

    def test_one_token_per_form_within_a_file(self, tmp_path) -> None:
        path = write_jsonl(tmp_path / "c.jsonl", [
            {"id": "a", "sentences": ["The cat.", "A cat sat."]},
            {"id": "b", "sentences": ["cat"]},
        ])
        cats = [
            t for d in load_corpus(path) for s in d.sentences
            for t in s.tokens if t.surface == "cat"
        ]
        assert len(cats) == 3 and all(t is cats[0] for t in cats)
        assert cats[0] == Token("cat", "cat", False, False, False)

    def test_custom_stopwords_never_reuse_default_tokens(self, tmp_path) -> None:
        path = write_jsonl(tmp_path / "c.jsonl", [{"id": "a", "sentences": ["The cat"]}])
        (default,) = load_corpus(path)
        (custom,) = load_corpus(path, stopwords=frozenset({"cat"}))
        assert [t.is_stopword for t in default.sentences[0].tokens] == [True, False]
        assert [t.is_stopword for t in custom.sentences[0].tokens] == [False, True]

    def test_tokens_compare_by_value(self) -> None:
        (shared,) = tokenize("cat")
        assert shared == tokenize("cat")[0]
        assert tokenize("Cat")[0] != shared
        assert tokenize("cat", frozenset({"dog"}))[0] == shared

    def test_memo_changes_no_token(self, tmp_path) -> None:
        rng = random.Random(7)
        words = ["The", "the", "THE", "cat", "Cat", "3", "3rd", "of", "Of", "éß", "中"]
        records = [
            {"id": f"d{n}", "sentences": [
                " ".join(rng.choice(words) if rng.random() < 0.6 else _random_text(rng)
                         for _ in range(rng.randint(0, 12))) + " x"
                for _ in range(rng.randint(1, 4))
            ]}
            for n in range(500)
        ]
        path = write_jsonl(tmp_path / "c.jsonl", records)
        for stops in (frozenset({"the", "cat"}), frozenset(), default_stopwords()):
            for document in load_corpus(path, stopwords=stops):
                for s in document.sentences:
                    assert s.tokens == tuple(
                        token_oracle(surface, stops)
                        for surface in lha.corpus._TOKEN_RE.findall(s.text)
                    ), s.text

    def test_token_matches_oracle_on_random_unicode(self) -> None:
        # Titlecase, modifier letters, superscripts, vulgar fractions, Arabic
        # digits, the underscore, a combining accent, CJK and emoji, beside
        # plain letters and digits and code points drawn from the whole range.
        special = ["ǅ", "ʰ", "²", "½", "٣", "_", "e\u0301", "中", "文", "😀", "👍🏽",
                   "a", "Z", "ß", "İ", "7", "-", ".", "'", "Ⅻ", "ª", "\u00ad"]
        rng = random.Random(13)
        stops = frozenset({"a", "ǆ", "e\u0301", "i\u0307"})
        surfaces = ["", *special]
        for _ in range(20000):
            parts = []
            for _ in range(rng.randint(1, 6)):
                roll = rng.random()
                if roll < 0.5:
                    parts.append(rng.choice(special))
                elif roll < 0.8:
                    parts.append(chr(rng.randrange(0x20, 0x3000)))
                else:
                    parts.append(chr(rng.randrange(0x3000, 0x110000)))
            surfaces.append("".join(parts))
        surfaces += ["abc123", "123abc", "a1", "1a", "½x", "x²", "٣٤", "ǅ1", "__", "_1"]
        kinds = set()
        for surface in surfaces:
            got = lha.corpus._token(surface, stops)
            want = token_oracle(surface, stops)
            for name in ("surface", "normalized", "is_punct", "is_number", "is_stopword"):
                assert getattr(got, name) == getattr(want, name), (surface, name)
            kinds.add((want.is_punct, want.is_number, want.is_stopword, surface.isalpha()))
        # Every flag combination the rules allow turned up, letters-only included.
        assert kinds >= {
            (True, False, False, False), (False, True, False, False),
            (False, False, False, False), (False, False, False, True),
            (False, False, True, True),
        }

    def test_two_files_share_one_memo(self, tmp_path) -> None:
        source = write_jsonl(tmp_path / "s.jsonl", [
            {"id": "a", "sentences": ["The cat sat.", "A cat ran 3 km!"]},
            {"id": "b", "text": "Dogs bark. The cat sat on it."},
        ])
        target = write_jsonl(tmp_path / "t.jsonl", [
            {"id": "a", "sentences": ["A kitten sat.", "The cat ran."]},
            {"id": "c", "sentences": ["Dogs, 3 of them."]},
        ])
        stops = frozenset({"the", "cat"})
        memo: dict[str, Token] = {}
        shared = [list(load_corpus(p, tag, stopwords=stops, memo=memo))
                  for p, tag in ((source, "src"), (target, "tgt"))]
        separate = [list(load_corpus(p, tag, stopwords=stops))
                    for p, tag in ((source, "src"), (target, "tgt"))]
        assert shared == separate
        by_surface: dict[str, list[Token]] = {}
        for docs in shared:
            for d in docs:
                for t in d.tokens():
                    by_surface.setdefault(t.surface, []).append(t)
        assert set(memo) == set(by_surface)
        for surface, tokens in by_surface.items():
            assert all(t is memo[surface] for t in tokens), surface
        source_forms = {t.surface for d in shared[0] for t in d.tokens()}
        target_forms = {t.surface for d in shared[1] for t in d.tokens()}
        assert {"The", "cat", "sat", ".", "3", "Dogs"} <= source_forms & target_forms
        assert memo["cat"].is_stopword and not memo["Dogs"].is_stopword



# Every character str.isspace() accepts, the ones str.split() splits on.
_SPACES = "".join(ch for ch in map(chr, range(0x110000)) if ch.isspace())


class TestMemoFirstTokenize:
    """``_tokenize`` splits on whitespace first, runs the regex only on chunks
    that are not all alphanumeric, looks tokens up in the memo before building
    any, and builds new ones field by field; none of that may change a token."""

    # Letters, digits of several scripts, the underscore, combining marks,
    # punctuation and symbols.
    PIECES = [
        "a", "Z", "é", "ß", "Ж", "中", "ǅ", "_", "__", "a_b", "7", "٣", "७", "²",
        "½", "Ⅻ", "\u0301", "\u0308", "e\u0301", "\u093f", ".", ",", "!?", "...", "—", "'",
        "“", "€", "😀", "-", "\u00ad", "(", ")",
    ]

    def random_text(self, rng: random.Random) -> str:
        parts = []
        for _ in range(rng.randint(0, 12)):
            roll = rng.random()
            if roll < 0.35:
                parts.append(rng.choice(_SPACES) * rng.randint(1, 2))
            elif roll < 0.5:
                parts.append(rng.choice(".,;:!?-'\"()") * rng.randint(1, 4))
            elif roll < 0.9:
                parts.append(rng.choice(self.PIECES))
            else:
                parts.append(chr(rng.randrange(0x20, 0x3000)))
        return "".join(parts)

    def test_matches_findall_on_random_text(self) -> None:
        rng = random.Random(19)
        stops = frozenset({"a", "é", "_"})
        memo: dict[str, Token] = {}
        hits = 0
        for _ in range(20000):
            text = self.random_text(rng)
            surfaces = lha.corpus._TOKEN_RE.findall(text)
            hits += bool(surfaces) and all(s in memo for s in surfaces)
            expected = tuple(token_oracle(s, stops) for s in surfaces)
            assert lha.corpus._tokenize(text, stops, memo) == expected, repr(text)
            assert tokenize(text, stops) == expected, repr(text)
        # Both the all-hit and the building path were taken.
        assert 1000 < hits < 19000, hits
        assert len(_SPACES) > 20

    def test_every_space_separates(self) -> None:
        for space in _SPACES:
            text = f"a{space}b_c{space}{space}3.{space}"
            surfaces = [t.surface for t in tokenize(text)]
            assert surfaces == ["a", "b_c", "3", "."], repr(space)

    def test_built_tokens_equal_constructed_ones(self) -> None:
        stops = frozenset({"the"})
        for surface in ["The", "cat", "3", "3rd", ".", "½", "e\u0301", "_", "中"]:
            built = lha.corpus._token(surface, stops)
            made = token_oracle(surface, stops)
            assert type(built) is Token
            assert built == made and hash(built) == hash(made)
            assert repr(built) == repr(made)
            assert dataclasses.astuple(built) == dataclasses.astuple(made)
            assert {built: 1}[made] == 1

    def test_built_tokens_refuse_assignment(self) -> None:
        built = lha.corpus._token("cat", frozenset())
        made = Token("cat", "cat", False, False, False)
        for change in (
            lambda t: setattr(t, "surface", "dog"),
            lambda t: setattr(t, "extra", 1),
            lambda t: delattr(t, "normalized"),
        ):
            errors = []
            for token in (built, made):
                with pytest.raises(Exception) as info:
                    change(token)
                errors.append((type(info.value), str(info.value)))
            assert errors[0] == errors[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.surface = "dog"
        assert built == made

class TestSentenceUid:
    """A sentence's uid is stored at construction and takes no part in
    equality, hashing or repr."""

    def make(self, doc_id: str = "d#1", ordinal: int = 2) -> Sentence:
        return Sentence(doc_id, ordinal, "A cat.", tokenize("A cat."))

    def test_equals_sentence_uid(self) -> None:
        for doc_id, ordinal in (("d1", 0), ("d#1", 2), ("7", 12)):
            assert self.make(doc_id, ordinal).uid == sentence_uid(doc_id, ordinal)

    def test_not_compared_or_hashed(self) -> None:
        a, b = self.make(), self.make()
        object.__setattr__(b, "uid", "other#9")
        assert b.uid == "other#9"
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_repr_unchanged(self) -> None:
        s = self.make()
        assert repr(s) == (
            f"Sentence(doc_id='d#1', ordinal=2, text='A cat.', tokens={s.tokens!r})"
        )

    def test_replace_rebuilds_uid(self) -> None:
        moved = dataclasses.replace(self.make(), ordinal=3)
        assert moved.uid.endswith("#3")
        assert moved.uid == sentence_uid("d#1", 3)


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

    def test_not_utf8_names_the_file(self, tmp_path) -> None:
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"id": "d1", "text": "A."}\n{"id": "d2", "text": "\xff"}\n')
        with pytest.raises(InputError) as exc:
            list(load_corpus(path))
        assert str(exc.value) == f"{path}: not UTF-8 (invalid start byte)"

    @pytest.mark.parametrize("load", [load_stopwords, load_abbreviations])
    def test_word_list_not_utf8_names_the_file(self, tmp_path, load) -> None:
        path = tmp_path / "words.txt"
        path.write_bytes(b"the\n\xff\n")
        with pytest.raises(InputError) as exc:
            load(path)
        assert str(exc.value).startswith(f"{path}: not UTF-8")

    @pytest.mark.parametrize("record, error", [
        ({"id": "d1", "text": 5}, CorpusError),
        ({"id": "d0", "text": "B."}, DuplicateDocumentError),
    ])
    def test_errors_name_the_file(self, tmp_path, record, error) -> None:
        path = write_jsonl(tmp_path / "c.jsonl", [{"id": "d0", "text": "A."}, record])
        with pytest.raises(error) as exc:
            list(load_corpus(path))
        assert str(exc.value).startswith(f"{path}: line 2: ")
        assert type(exc.value) is error and exc.value.line == 2

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
