"""Corpus ingestion: JSONL documents, sentence splitting, tokenization.

A corpus is a JSONL file with one document per line. Each record carries an
``id``, an optional ``title``, and either raw ``text`` (split into sentences
here) or a pre-split ``sentences`` array. Documents and sentences are frozen
after construction so downstream stages can share them freely.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping

__all__ = [
    "CorpusError",
    "DuplicateDocumentError",
    "Token",
    "Sentence",
    "Document",
    "CorpusSchema",
    "load_stopwords",
    "load_abbreviations",
    "tokenize",
    "split_sentences",
    "content_tokens",
    "sentence_uid",
    "parse_uid",
    "load_corpus",
    "save_corpus",
    "corpus_index",
]

# Words, or single non-space punctuation characters.
_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)
# Runs of sentence-terminal punctuation.
_TERMINAL_RE = re.compile(r"[.!?]+")
# Closing quotes/brackets that may trail the terminal run.
_CLOSERS = "\"'”’)]"
# Characters that may open the next sentence (after required whitespace).
_OPENER_RE = re.compile(r"[\"'“‘(\[]*[A-Z0-9]")
# The word immediately before a period, dots allowed inside (e.g. "U.S").
_PRE_WORD_RE = re.compile(r"([\w.]+)$", re.UNICODE)


class CorpusError(ValueError):
    """Malformed corpus input. Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateDocumentError(CorpusError):
    pass


def _read_word_list(path: Path | None, default_resource: str) -> frozenset[str]:
    if path is None:
        text = resources.files("lha.data").joinpath(default_resource).read_text("utf-8")
    else:
        text = Path(path).read_text("utf-8")
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line.lower())
    return frozenset(words)


def load_stopwords(path: Path | str | None = None) -> frozenset[str]:
    """Load a stopword list (one word per line), defaulting to the bundled English list."""
    return _read_word_list(Path(path) if path else None, "stopwords_en.txt")


def load_abbreviations(path: Path | str | None = None) -> frozenset[str]:
    """Load sentence-splitter abbreviations, defaulting to the bundled English list."""
    return _read_word_list(Path(path) if path else None, "abbreviations_en.txt")


_DEFAULT_STOPWORDS: frozenset[str] | None = None
_DEFAULT_ABBREVIATIONS: frozenset[str] | None = None


def default_stopwords() -> frozenset[str]:
    global _DEFAULT_STOPWORDS
    if _DEFAULT_STOPWORDS is None:
        _DEFAULT_STOPWORDS = load_stopwords()
    return _DEFAULT_STOPWORDS


def default_abbreviations() -> frozenset[str]:
    global _DEFAULT_ABBREVIATIONS
    if _DEFAULT_ABBREVIATIONS is None:
        _DEFAULT_ABBREVIATIONS = load_abbreviations()
    return _DEFAULT_ABBREVIATIONS


@dataclass(frozen=True, slots=True)
class Token:
    """A surface token with its lowercase form and filter flags."""

    surface: str
    normalized: str
    is_punct: bool
    is_number: bool
    is_stopword: bool


@dataclass(frozen=True, slots=True)
class Sentence:
    doc_id: str
    ordinal: int
    text: str
    tokens: tuple[Token, ...]

    @property
    def uid(self) -> str:
        return sentence_uid(self.doc_id, self.ordinal)


@dataclass(frozen=True, slots=True)
class Document:
    doc_id: str
    dataset_tag: str
    sentences: tuple[Sentence, ...]
    title: str | None = None

    def tokens(self) -> list[Token]:
        """All tokens of the document, in sentence order."""
        out: list[Token] = []
        for s in self.sentences:
            out.extend(s.tokens)
        return out


@dataclass(frozen=True)
class CorpusSchema:
    """Field names for JSONL corpus records; override to adapt foreign files."""

    id_field: str = "id"
    text_field: str = "text"
    sentences_field: str = "sentences"
    title_field: str = "title"


DEFAULT_SCHEMA = CorpusSchema()


def sentence_uid(doc_id: str, ordinal: int) -> str:
    return f"{doc_id}#{ordinal}"


def parse_uid(uid: str) -> tuple[str, int]:
    doc_id, sep, ordinal = uid.rpartition("#")
    if not sep or not ordinal.isdigit():
        raise ValueError(f"not a sentence uid: {uid!r}")
    return doc_id, int(ordinal)


def tokenize(text: str, stopwords: frozenset[str] | None = None) -> tuple[Token, ...]:
    """Split text into word and punctuation tokens with filter flags.

    A token is punctuation when it has no alphanumeric character, and a
    number when it has a digit but no letter. Stopword membership is tested
    on the lowercase form.
    """
    if stopwords is None:
        stopwords = default_stopwords()
    out = []
    for surface in _TOKEN_RE.findall(text):
        normalized = surface.lower()
        is_punct = not any(ch.isalnum() for ch in surface)
        is_number = (not is_punct) and not any(ch.isalpha() for ch in surface)
        out.append(
            Token(
                surface=surface,
                normalized=normalized,
                is_punct=is_punct,
                is_number=is_number,
                is_stopword=normalized in stopwords,
            )
        )
    return tuple(out)


def content_tokens(unit: Sentence | Iterable[Token]) -> list[str]:
    """Normalized tokens with punctuation, numbers and stopwords removed.

    Returns a list, not a set: callers that need multiplicity (BM25, the
    transport distances) keep it, set-based callers collapse it themselves.
    """
    tokens = unit.tokens if isinstance(unit, Sentence) else unit
    return [
        t.normalized
        for t in tokens
        if not (t.is_punct or t.is_number or t.is_stopword)
    ]


def split_sentences(text: str, abbreviations: frozenset[str] | None = None) -> list[str]:
    """Split raw text into sentences on terminal punctuation.

    A split happens after a run of ``.!?`` (plus any closing quotes or
    brackets) when whitespace and an upper-case/digit opener follow. Periods
    do not split after a known abbreviation or a single initial ("J. Smith").
    Joining the returned pieces reconstructs the input modulo whitespace.
    """
    if abbreviations is None:
        abbreviations = default_abbreviations()
    breaks: list[int] = []
    for m in _TERMINAL_RE.finditer(text):
        end = m.end()
        while end < len(text) and text[end] in _CLOSERS:
            end += 1
        # Require whitespace, then a plausible sentence opener.
        k = end
        while k < len(text) and text[k].isspace():
            k += 1
        if k == end or k == len(text):
            continue
        if not _OPENER_RE.match(text, k):
            continue
        if "." in m.group():
            before = _PRE_WORD_RE.search(text, 0, m.start())
            if before is not None:
                word = before.group(1).rstrip(".")
                if word.lower() in abbreviations:
                    continue
                if len(word) == 1 and word.isalpha() and word.isupper():
                    continue
        breaks.append(end)
    pieces = []
    start = 0
    for b in breaks + [len(text)]:
        piece = text[start:b].strip()
        if piece:
            pieces.append(piece)
        start = b
    return pieces


def _record_sentences(
    record: Mapping,
    doc_id: str,
    schema: CorpusSchema,
    stopwords: frozenset[str],
    abbreviations: frozenset[str],
    line: int,
) -> tuple[Sentence, ...]:
    if schema.sentences_field in record:
        raw = record[schema.sentences_field]
        if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
            raise CorpusError(
                f"document {doc_id!r}: {schema.sentences_field!r} must be a list of strings",
                line,
            )
        texts = [s.strip() for s in raw]
        if any(not t for t in texts):
            raise CorpusError(f"document {doc_id!r} has an empty sentence", line)
    elif schema.text_field in record:
        raw = record[schema.text_field]
        if not isinstance(raw, str):
            raise CorpusError(
                f"document {doc_id!r}: {schema.text_field!r} must be a string", line
            )
        texts = split_sentences(raw, abbreviations)
    else:
        raise CorpusError(
            f"document {doc_id!r} has neither {schema.text_field!r} nor "
            f"{schema.sentences_field!r}",
            line,
        )
    if not texts:
        raise CorpusError(f"empty document {doc_id!r}", line)
    return tuple(
        Sentence(doc_id=doc_id, ordinal=i, text=t, tokens=tokenize(t, stopwords))
        for i, t in enumerate(texts)
    )


def load_corpus(
    path: Path | str,
    dataset_tag: str = "",
    schema: CorpusSchema | None = None,
    stopwords: frozenset[str] | None = None,
    abbreviations: frozenset[str] | None = None,
) -> Iterator[Document]:
    """Stream documents from a JSONL file.

    Yields one ``Document`` per non-blank line; the file is never fully
    buffered. Malformed records and duplicate ids raise with the 1-based
    line number.
    """
    schema = schema or DEFAULT_SCHEMA
    if stopwords is None:
        stopwords = default_stopwords()
    if abbreviations is None:
        abbreviations = default_abbreviations()
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise CorpusError(f"invalid JSON: {e.msg}", line_no) from e
            if not isinstance(record, dict):
                raise CorpusError("record is not an object", line_no)
            if schema.id_field not in record:
                raise CorpusError(f"record has no {schema.id_field!r}", line_no)
            raw_id = record[schema.id_field]
            if not isinstance(raw_id, (str, int)) or isinstance(raw_id, bool):
                raise CorpusError(f"document id must be a string or integer", line_no)
            doc_id = str(raw_id)
            if not doc_id:
                raise CorpusError("document id is empty", line_no)
            if any(ch in doc_id for ch in "\t\n\r"):
                # Ids are written as fields of tab-separated, line-based files.
                raise CorpusError(
                    f"document id {doc_id!r} contains a tab or line break", line_no
                )
            if doc_id in seen:
                raise DuplicateDocumentError(f"duplicate document id {doc_id!r}", line_no)
            seen.add(doc_id)
            title = record.get(schema.title_field)
            if title is not None and not isinstance(title, str):
                raise CorpusError(f"document {doc_id!r}: title must be a string", line_no)
            sentences = _record_sentences(
                record, doc_id, schema, stopwords, abbreviations, line_no
            )
            yield Document(
                doc_id=doc_id, dataset_tag=dataset_tag, sentences=sentences, title=title
            )


def save_corpus(docs: Iterable[Document], path: Path | str) -> int:
    """Write documents as JSONL with pre-split sentences. Returns the count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            record: dict = {"id": doc.doc_id}
            if doc.title is not None:
                record["title"] = doc.title
            record["sentences"] = [s.text for s in doc.sentences]
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True))
            fh.write("\n")
            n += 1
    return n


def corpus_index(docs: Iterable[Document]) -> dict[str, Document]:
    """Materialize a corpus into an id-keyed mapping (insertion ordered)."""
    return {doc.doc_id: doc for doc in docs}
