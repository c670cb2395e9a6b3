"""Unit embeddings: word-vector averaging, precomputed matrices, binary IO.

Units are documents or sentences. Sentence unit ids take the form
``docid#ordinal``; document unit ids are the document ids themselves.
Rows are stored float32; all similarity math downstream casts to float64.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Iterable, Sequence

import numpy as np

from .corpus import Document, Sentence, Token

__all__ = [
    "EmbeddingFormatError",
    "EmbeddingLookupError",
    "WordVectorTable",
    "load_word_vectors",
    "EmbeddingMatrix",
    "unit_rows",
    "save_embeddings",
    "load_embeddings",
    "embed_avg",
    "AvgEmbedder",
    "PrecomputedEmbedder",
    "check_sentence_rows",
    "embed_corpus",
]

_MAGIC = b"LHAE"
_VERSION = 1
_FLAG_UNIT_NORMALIZED = 0x01
_HEADER = struct.Struct("<4sHBQI")  # magic, version, flags, count, dim
_ID_LEN = struct.Struct("<I")


class EmbeddingFormatError(ValueError):
    """Malformed word-vector or embedding file."""


class EmbeddingLookupError(KeyError):
    """A requested unit id has no row in a precomputed matrix."""

    __str__ = Exception.__str__  # the message unquoted, unlike KeyError's


class WordVectorTable:
    """Lowercased token -> float64 vector, loaded from a textual vector file."""

    def __init__(self, dim: int, vectors: dict[str, np.ndarray]):
        self.dim = dim
        self._vectors = vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, token: str) -> bool:
        return token in self._vectors

    def get(self, token: str) -> np.ndarray | None:
        return self._vectors.get(token)


def load_word_vectors(path: Path | str) -> WordVectorTable:
    """Parse a textual word-vector file: header ``count dim``, then one
    ``token v1 .. vdim`` line per word.

    Tokens are lowercased; the first occurrence of a token wins. Lines whose
    component count does not match the header dimension, or whose components
    do not parse as floats, raise with the 1-based line number.
    """
    vectors: dict[str, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise EmbeddingFormatError(
                f"line 1: expected header 'count dim', got {header.strip()!r}"
            )
        try:
            _count, dim = int(parts[0]), int(parts[1])
        except ValueError as e:
            raise EmbeddingFormatError(
                f"line 1: expected header 'count dim', got {header.strip()!r}"
            ) from e
        if dim <= 0:
            raise EmbeddingFormatError(f"line 1: dimension must be positive, got {dim}")
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != dim + 1:
                raise EmbeddingFormatError(
                    f"line {line_no}: expected {dim} components, got {len(fields) - 1}"
                )
            token = fields[0].lower()
            try:
                vec = np.array([float(x) for x in fields[1:]], dtype=np.float64)
            except ValueError as e:
                raise EmbeddingFormatError(
                    f"line {line_no}: unparsable vector component"
                ) from e
            if not np.all(np.isfinite(vec)):
                raise EmbeddingFormatError(
                    f"line {line_no}: non-finite vector component"
                )
            if token not in vectors:
                vectors[token] = vec
    return WordVectorTable(dim=dim, vectors=vectors)


@dataclass
class EmbeddingMatrix:
    """Unit ids plus a float32 row matrix, optionally unit-normalized."""

    unit_ids: list[str]
    rows: np.ndarray
    unit_normalized: bool = False
    _id_to_row: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.rows = np.ascontiguousarray(self.rows, dtype=np.float32)
        if self.rows.ndim != 2:
            raise ValueError("rows must be a 2-d array")
        if len(self.unit_ids) != self.rows.shape[0]:
            raise ValueError(
                f"{len(self.unit_ids)} ids but {self.rows.shape[0]} rows"
            )
        self._id_to_row = {}
        for i, uid in enumerate(self.unit_ids):
            if uid in self._id_to_row:
                raise ValueError(f"duplicate unit id {uid!r}")
            self._id_to_row[uid] = i

    @property
    def count(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def __contains__(self, unit_id: str) -> bool:
        return unit_id in self._id_to_row

    def row_index(self, unit_id: str) -> int:
        try:
            return self._id_to_row[unit_id]
        except KeyError:
            raise EmbeddingLookupError(f"no embedding row for unit id {unit_id!r}")

    def row(self, unit_id: str) -> np.ndarray:
        return self.rows[self.row_index(unit_id)]

    def normalized(self) -> "EmbeddingMatrix":
        """L2-normalize every row; all-zero rows stay zero."""
        if self.unit_normalized:
            return self
        out = unit_rows(self.rows.astype(np.float64)).astype(np.float32)
        return EmbeddingMatrix(list(self.unit_ids), out, unit_normalized=True)


def unit_rows(rows: np.ndarray) -> np.ndarray:
    """L2-normalize float64 rows; all-zero rows stay zero."""
    norms = np.linalg.norm(rows, axis=1)
    return rows / np.where(norms > 0.0, norms, 1.0)[:, None]


def save_embeddings(matrix: EmbeddingMatrix, path: Path | str) -> None:
    """Write the binary embedding format (see load_embeddings)."""
    flags = _FLAG_UNIT_NORMALIZED if matrix.unit_normalized else 0
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, flags, matrix.count, matrix.dim))
        for uid in matrix.unit_ids:
            encoded = uid.encode("utf-8")
            fh.write(_ID_LEN.pack(len(encoded)))
            fh.write(encoded)
        rows = np.ascontiguousarray(matrix.rows, dtype="<f4")
        fh.write(rows.tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise EmbeddingFormatError(
            f"truncated file: expected {n} bytes for {what}, got {len(data)}"
        )
    return data


def load_embeddings(path: Path | str) -> EmbeddingMatrix:
    """Read the binary embedding format.

    Layout, all little-endian: magic ``LHAE``, u16 version, u8 flags (bit 0 =
    unit-normalized), u64 count, u32 dim, then ``count`` ids (u32 byte length
    + UTF-8 bytes), then ``count * dim`` float32 row values. A row holding a
    NaN or an infinity is rejected.
    """
    with open(path, "rb") as fh:
        header = _read_exact(fh, _HEADER.size, "header")
        magic, version, flags, count, dim = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise EmbeddingFormatError(
                f"bad magic {magic!r}, expected {_MAGIC!r}"
            )
        if version != _VERSION:
            raise EmbeddingFormatError(f"unsupported version {version}")
        unit_ids = []
        for i in range(count):
            (id_len,) = _ID_LEN.unpack(_read_exact(fh, _ID_LEN.size, f"id {i} length"))
            unit_ids.append(_read_exact(fh, id_len, f"id {i}").decode("utf-8"))
        row_bytes = _read_exact(fh, count * dim * 4, "rows")
        trailing = fh.read(1)
        if trailing:
            raise EmbeddingFormatError("trailing bytes after rows")
    rows = np.frombuffer(row_bytes, dtype="<f4").reshape(count, dim)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise EmbeddingFormatError(
            f"non-finite value in the row of unit id {unit_ids[bad[0]]!r}"
        )
    return EmbeddingMatrix(
        unit_ids, rows.copy(), unit_normalized=bool(flags & _FLAG_UNIT_NORMALIZED)
    )


def embed_avg(
    tokens: Sequence[Token] | Sequence[str], table: WordVectorTable
) -> np.ndarray:
    """Arithmetic mean of the vectors of in-vocabulary normalized tokens.

    Out-of-vocabulary tokens are skipped; if nothing is in vocabulary the
    zero vector is returned.
    """
    found = []
    for t in tokens:
        word = t.normalized if isinstance(t, Token) else str(t).lower()
        vec = table.get(word)
        if vec is not None:
            found.append(vec)
    if not found:
        return np.zeros(table.dim, dtype=np.float64)
    return np.mean(found, axis=0)


class AvgEmbedder:
    """Embeds a unit as the average of its word vectors."""

    def __init__(self, table: WordVectorTable):
        self.table = table

    @property
    def dim(self) -> int:
        return self.table.dim

    def sentence_vector(self, sentence: Sentence) -> np.ndarray:
        return embed_avg(sentence.tokens, self.table)

    def document_vector(self, doc: Document) -> np.ndarray:
        return embed_avg(doc.tokens(), self.table)


class PrecomputedEmbedder:
    """Looks units up in an existing matrix keyed by unit id."""

    def __init__(self, matrix: EmbeddingMatrix):
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.matrix.dim

    def sentence_vector(self, sentence: Sentence) -> np.ndarray:
        return self.matrix.row(sentence.uid).astype(np.float64)

    def document_vector(self, doc: Document) -> np.ndarray:
        return self.matrix.row(doc.doc_id).astype(np.float64)


def check_sentence_rows(
    matrix: EmbeddingMatrix, doc_ids: Collection[str], sentence_ids: Collection[str]
) -> None:
    """Reject a row ``doc#n`` of a document in ``doc_ids`` that is not one of
    ``sentence_ids``, the uids the corpus split produced: the matrix was made
    from another split, and its rows would be read for other sentences."""
    for uid in matrix.unit_ids:
        doc_id, _, ordinal = uid.rpartition("#")
        if ordinal.isdigit() and doc_id in doc_ids and uid not in sentence_ids:
            raise ValueError(
                f"sentence embedding row {uid!r} is not a sentence of document "
                f"{doc_id!r} as the corpus is split"
            )


def embed_corpus(
    docs: Iterable[Document],
    level: str,
    embedder: AvgEmbedder | PrecomputedEmbedder,
) -> EmbeddingMatrix:
    """Embed every unit of a corpus into one L2-normalized matrix (zero rows
    stay zero), in corpus order.

    ``level`` is ``"document"`` or ``"sentence"``. Precomputed sentence
    embeddings must match the corpus split (see ``check_sentence_rows``).
    """
    if level not in ("document", "sentence"):
        raise ValueError(f"level must be 'document' or 'sentence', got {level!r}")
    unit_ids: list[str] = []
    doc_ids: list[str] = []

    def vectors():
        for doc in docs:
            doc_ids.append(doc.doc_id)
            if level == "document":
                unit_ids.append(doc.doc_id)
                yield embedder.document_vector(doc)
            else:
                for sentence in doc.sentences:
                    unit_ids.append(sentence.uid)
                    yield embedder.sentence_vector(sentence)

    # Each vector is cast to float32 as it is made, so no float64 copy of
    # the whole corpus is ever held.
    rows = np.fromiter(vectors(), dtype=np.dtype((np.float32, embedder.dim)))
    if level == "sentence" and isinstance(embedder, PrecomputedEmbedder):
        check_sentence_rows(embedder.matrix, set(doc_ids), set(unit_ids))
    return EmbeddingMatrix(unit_ids, rows).normalized()
