"""Corpus ingestion: JSONL documents, sentence splitting, tokenization.

A corpus is a JSONL file with one document per line. Each record carries an
``id``, an optional ``title``, and either raw ``text`` (split into sentences
here) or a pre-split ``sentences`` array. Documents and sentences are frozen
after construction so downstream stages can share them freely.
"""

from __future__ import annotations

import contextlib
import functools
import json
import re
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping

__all__ = [
    "InputError",
    "naming",
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
# How many characters before a period _word_before searches first.
_PRE_WORD_WINDOW = 32


class InputError(ValueError):
    """Malformed user input: a file, or a value read from one. Carries a
    1-based line number when known, and the message without it in
    ``reason``. The command line reports it as a usage error."""

    def __init__(self, reason: str, line: int | None = None):
        super().__init__(reason if line is None else f"line {line}: {reason}")
        self.reason = reason
        self.line = line


@contextlib.contextmanager
def naming(path: Path | str) -> Iterator[None]:
    """Prefix ``path: `` to the message of an ``InputError`` raised inside,
    keeping its type, line and traceback; text that is not UTF-8 raises one
    too."""
    try:
        yield
    except InputError as e:
        e.args = (f"{path}: {e}",)
        raise
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 ({e.reason})") from e


class CorpusError(InputError):
    """Malformed corpus input."""


class DuplicateDocumentError(CorpusError):
    pass


def _read_word_list(path: Path | None, default_resource: str) -> frozenset[str]:
    if path is None:
        text = resources.files("lha.data").joinpath(default_resource).read_text("utf-8")
    else:
        with naming(path):
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


@functools.cache
def default_stopwords() -> frozenset[str]:
    return load_stopwords()


@functools.cache
def default_abbreviations() -> frozenset[str]:
    return load_abbreviations()


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
    # Built once per sentence; outside equality, hashing and repr.
    uid: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "uid", sentence_uid(self.doc_id, self.ordinal))


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


# Setting a field through its slot skips the five object.__setattr__ calls
# of the frozen dataclass's __init__; _token builds each new Token this way.
_SET_TOKEN_FIELDS = tuple(getattr(Token, f.name).__set__ for f in fields(Token))


def _token(surface: str, stopwords: frozenset[str]) -> Token:
    normalized = surface.lower()
    if surface.isalpha():
        # Every character is a letter, so some is alphanumeric and some alphabetic.
        is_punct = is_number = False
    else:
        is_punct = not any(map(str.isalnum, surface))
        is_number = (not is_punct) and not any(map(str.isalpha, surface))
    token = object.__new__(Token)
    set_surface, set_normalized, set_punct, set_number, set_stopword = _SET_TOKEN_FIELDS
    set_surface(token, surface)
    set_normalized(token, normalized)
    set_punct(token, is_punct)
    set_number(token, is_number)
    set_stopword(token, normalized in stopwords)
    return token


def tokenize(text: str, stopwords: frozenset[str] | None = None) -> tuple[Token, ...]:
    """Split text into word and punctuation tokens with filter flags.

    A token is punctuation when it has no alphanumeric character, and a
    number when it has a digit but no letter. Stopword membership is tested
    on the lowercase form.
    """
    if stopwords is None:
        stopwords = default_stopwords()
    return _tokenize(text, stopwords, {})


def _tokenize(
    text: str, stopwords: frozenset[str], memo: dict[str, Token]
) -> tuple[Token, ...]:
    """``tokenize``, sharing one Token per surface form through ``memo``.

    Tokens are immutable, so one instance serves every occurrence of a form,
    in every corpus parsed through the memo: a run passes one memo for both
    of its corpora. A memo must only ever be filled under one stopword set.
    """
    # \w is str.isalnum() or "_" and \s is str.isspace(), where str.split()
    # splits: an alphanumeric chunk is one token, the others need the regex.
    surfaces: list[str] = []
    for chunk in text.split():
        if chunk.isalnum():
            surfaces.append(chunk)
        else:
            surfaces += _TOKEN_RE.findall(chunk)
    tokens = tuple(map(memo.get, surfaces))
    if all(tokens):  # a Token is always true, a miss None
        return tokens
    for surface in surfaces:
        if surface not in memo:
            memo[surface] = _token(surface, stopwords)
    return tuple(map(memo.__getitem__, surfaces))


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


def _word_before(text: str, end: int) -> re.Match | None:
    """``_PRE_WORD_RE.search(text, 0, end)``, found in a window before ``end``.

    The window doubles while the match starts at its left edge, where the
    word may go on to the left, so each search reads about the word's length
    instead of the whole text before it.
    """
    width = _PRE_WORD_WINDOW
    while True:
        lo = max(0, end - width)
        match = _PRE_WORD_RE.search(text, lo, end)
        if match is None or match.start() > lo or lo == 0:
            return match
        width *= 2


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
            before = _word_before(text, m.start())
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
    memo: dict[str, Token],
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
        Sentence(doc_id=doc_id, ordinal=i, text=t, tokens=_tokenize(t, stopwords, memo))
        for i, t in enumerate(texts)
    )


def load_corpus(
    path: Path | str,
    dataset_tag: str = "",
    schema: CorpusSchema | None = None,
    stopwords: frozenset[str] | None = None,
    abbreviations: frozenset[str] | None = None,
    memo: dict[str, Token] | None = None,
) -> Iterator[Document]:
    """Stream documents from a JSONL file.

    Yields one ``Document`` per non-blank line; the file is never fully
    buffered. Malformed records and duplicate ids raise a ``CorpusError``
    naming the file and the 1-based line number; text that is not UTF-8 an
    ``InputError`` naming the file.

    Every occurrence of a surface form gets one shared ``Token``, kept in
    ``memo`` (surface -> Token; a fresh one per file when not given). Pass
    one memo to the loads of a run's two corpora to share tokens between
    them, always under the same stopword set: a memo's tokens carry the
    stopword flags they were first built with.
    """
    schema = schema or DEFAULT_SCHEMA
    if stopwords is None:
        stopwords = default_stopwords()
    if abbreviations is None:
        abbreviations = default_abbreviations()
    seen: set[str] = set()
    if memo is None:
        memo = {}
    with naming(path), open(path, "r", encoding="utf-8") as fh:
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
                record, doc_id, schema, stopwords, abbreviations, memo, line_no
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
