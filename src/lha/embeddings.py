"""Unit embeddings: word-vector averaging, precomputed matrices, binary IO.

Units are documents or sentences. Sentence unit ids take the form
``docid#ordinal``; document unit ids are the document ids themselves.
Rows are stored float32; all similarity math downstream casts to float64.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import signal
import stat
import struct
import warnings
from dataclasses import dataclass, field
from itertools import islice, repeat
from pathlib import Path
from typing import BinaryIO, Collection, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .corpus import Document, Token

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
    """Malformed word-vector or embedding file. Carries a 1-based line number
    when known, and the message without it in ``reason``."""

    def __init__(self, reason: str, line: int | None = None):
        super().__init__(reason if line is None else f"line {line}: {reason}")
        self.reason = reason
        self.line = line


class EmbeddingLookupError(KeyError):
    """A requested unit id has no row in a precomputed matrix."""

    __str__ = Exception.__str__  # the message unquoted, unlike KeyError's


class WordVectorTable:
    """Lowercased token -> float64 vector: one row of one matrix per token."""

    def __init__(self, dim: int, vectors: Mapping[str, Sequence[float]]):
        self.dim = dim
        self._rows = np.array(list(vectors.values()), dtype=np.float64).reshape(-1, dim)
        self._index = {token: i for i, token in enumerate(vectors)}

    @classmethod
    def from_rows(cls, tokens: Sequence[str], rows: np.ndarray) -> "WordVectorTable":
        """``rows[i]`` is the vector of ``tokens[i]``; a token's first row wins."""
        index: dict[str, int] = {}
        for i, token in enumerate(tokens):
            index.setdefault(token, i)
        return cls._of(index, rows)

    @classmethod
    def _of(cls, index: dict[str, int], rows: np.ndarray) -> "WordVectorTable":
        table = cls.__new__(cls)
        table.dim = rows.shape[1]
        table._rows = rows
        table._index = index
        return table

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def get(self, token: str) -> np.ndarray | None:
        i = self._index.get(token)
        return None if i is None else self._rows[i]

    @property
    def rows(self) -> np.ndarray:
        """The vectors as one float64 matrix, indexed by ``row_indices``."""
        return self._rows

    def row_indices(self, tokens: Sequence[str]) -> np.ndarray:
        """The row of each token in ``rows``; every token must be in the table."""
        return np.array([self._index[t] for t in tokens], dtype=np.intp)


def _read_header(fh: TextIO) -> tuple[int, int]:
    """The count and the dimension from the header line ``count dim``."""
    header = fh.readline()
    try:
        count, dim = map(int, header.split())
    except ValueError as e:
        raise EmbeddingFormatError(
            f"expected header 'count dim', got {header.strip()!r}", 1
        ) from e
    if dim <= 0:
        raise EmbeddingFormatError(f"dimension must be positive, got {dim}", 1)
    return count, dim


def _parse_lines(lines: Sequence[str], first: int, dim: int) -> tuple[list[str], np.ndarray]:
    """The lowercased tokens and the rows of the vector lines ``lines``, the
    first of which is line ``first`` of the file, parsed one line at a time,
    in file order."""
    tokens: list[str] = []

    def vectors() -> Iterator[np.ndarray]:
        for line_no, line in enumerate(lines, start=first):
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != dim + 1:
                raise EmbeddingFormatError(
                    f"expected {dim} components, got {len(fields) - 1}", line_no
                )
            try:
                vec = np.array([float(x) for x in fields[1:]], dtype=np.float64)
            except ValueError as e:
                raise EmbeddingFormatError("unparsable vector component", line_no) from e
            if not np.all(np.isfinite(vec)):
                raise EmbeddingFormatError("non-finite vector component", line_no)
            tokens.append(fields[0].lower())
            yield vec

    rows = np.fromiter(vectors(), dtype=np.dtype((np.float64, dim)))
    return tokens, rows


def _parse_chunk(lines: Sequence[str], first: int, dim: int) -> tuple[list[str], np.ndarray]:
    """``_parse_lines``, by numpy's C reader where it accepts the lines.

    The reader parses well-formed lines in one pass, column 0 through
    ``token``. Lines it refuses, or reads with another column count or a
    non-finite value, are parsed again one at a time, so the per-line rules
    alone decide what is accepted and what is raised.
    """
    tokens: list[str] = []

    def token(field: str) -> float:
        tokens.append(field.lower())
        return 0.0

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # blank lines alone warn
            # encoding=None hands the converter str on numpy 1.x too.
            rows = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2,
                              converters={0: token}, encoding=None)
    except ValueError:
        rows = None
    if rows is not None and rows.shape[1] == dim + 1 and np.isfinite(rows).all():
        return tokens, rows[:, 1:]
    return _parse_lines(lines, first, dim)


# Vector lines parsed per call of numpy's reader, and rows per read of a
# worker's result.
_LINES = 512
# The fewest bytes a range holds, so that a small file is parsed by this
# process alone: a worker costs a fork, a pipe and a reap (about 5 ms on a
# tiny file) however little it parses.
_MIN_RANGE = 1 << 22


class _ByteRange(io.RawIOBase):
    """Bytes ``start`` to ``end`` of the open file ``fd``, by ``os.pread``,
    which neither reads nor moves the file offset forked readers share."""

    def __init__(self, fd: int, start: int, end: int):
        self._fd, self._pos, self._end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self._fd, min(len(buffer), self._end - self._pos), self._pos)
        buffer[: len(data)] = data
        self._pos += len(data)
        return len(data)


def _text(fd: int, start: int, end: int | None) -> TextIO:
    """Bytes ``start`` to ``end`` of the open file ``fd`` read as
    ``open(path, encoding="utf-8")`` reads them: UTF-8, universal newlines.
    With ``end`` None, ``fd`` itself from where it stands (a pipe, say)."""
    if end is None:
        return open(fd, encoding="utf-8", closefd=False)
    return io.TextIOWrapper(io.BufferedReader(_ByteRange(fd, start, end)), encoding="utf-8")


def _cpus() -> list[int]:
    """The CPUs this process may run on, one per byte range of the file;
    none where it cannot fork a worker."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return []
    return sorted(os.sched_getaffinity(0))


def _pin(cpu: int) -> None:
    """Run this process on ``cpu`` alone. Unpinned, the kernel may keep a
    forked worker on its parent's CPU, where the two take turns instead of
    running side by side. Pinning only speeds the load up, so a CPU that
    cannot be had (gone offline, say) is no error."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, {cpu})


def _ends(fd: int, size: int, n: int) -> list[int]:
    """The end offsets of at most ``n`` byte ranges of about equal size that
    cover the file's ``size`` bytes. Each but the last falls just after a
    ``b"\\n"``, so no line ending, UTF-8 character or line, the header
    included, straddles two ranges."""

    def line_end(pos: int) -> int:
        while pos < size and (block := os.pread(fd, min(1 << 16, size - pos), pos)):
            i = block.find(b"\n")
            if i >= 0:
                return pos + i + 1
            pos += len(block)
        return size

    return sorted({size, *(line_end(k * size // n) for k in range(1, n))})


def _keep(index: dict[str, int], rows: np.ndarray, tokens: Sequence[str],
          vectors: np.ndarray, wanted: set[str] | None) -> np.ndarray:
    """Index the tokens new to ``index`` and in ``wanted`` (None: every
    token), in order, and put their ``vectors`` in ``rows``: the rows, grown
    when they are full."""
    n = len(index)
    keep = []
    for i, token in enumerate(tokens):
        if token not in index and (wanted is None or token in wanted):
            index[token] = n + len(keep)
            keep.append(i)
    if n + len(keep) > len(rows):  # a low header count, or a pipe
        rows = np.concatenate([rows[:n], np.empty((len(rows) + len(keep), rows.shape[1]))])
    rows[n : len(index)] = vectors[keep]
    return rows


def _parse_range(fh: TextIO, first: int, dim: int, wanted: set[str] | None,
                 index: dict[str, int], rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Parse the vector lines of ``fh``, the first of which is line
    ``first``, ``_LINES`` at a time into ``index`` and ``rows``: the rows
    and the number of the last line read."""
    while lines := list(islice(fh, _LINES)):
        tokens, vectors = _parse_chunk(lines, first, dim)
        first += len(lines)
        rows = _keep(index, rows, tokens, vectors, wanted)
    return rows, first - 1


def _fork(fd: int, start: int, end: int, dim: int, wanted: set[str] | None,
          cpu: int) -> tuple[int, BinaryIO]:
    """Fork a worker that parses bytes ``start`` to ``end`` of ``fd`` on
    ``cpu``, numbering its lines from 1: its pid, and the pipe it sends back
    either an exception, or its tokens in order of first occurrence and its
    line count, then their rows."""
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that forking a threaded process (numpy's BLAS
            # pool) may deadlock the child. This child only parses text, which
            # calls no BLAS and takes no lock another thread may hold, and it
            # leaves by os._exit.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, open(r, "rb")
    status = 1
    try:
        os.close(r)
        _pin(cpu)
        most = (end - start) // (2 * dim + 1)
        rows = np.empty((most if wanted is None else min(most, len(wanted)), dim))
        index: dict[str, int] = {}
        with open(w, "wb") as out:
            try:
                rows, lines = _parse_range(_text(fd, start, end), 1, dim, wanted, index, rows)
            except Exception as e:
                pickle.dump(e, out)
            else:
                pickle.dump((list(index), lines), out)
                out.write(rows[: len(index)].data)
        status = 0
    finally:
        os._exit(status)


def _merge(inp: BinaryIO, index: dict[str, int], rows: np.ndarray,
           offset: int) -> tuple[np.ndarray, int]:
    """Read a worker's result from ``inp`` into ``index`` and ``rows``,
    ``_LINES`` rows at a time; its lines follow line ``offset``. The rows
    and the number of its last line in the file, or the worker's error,
    renumbered by ``offset``."""
    result = pickle.load(inp)
    if isinstance(result, EmbeddingFormatError):
        raise EmbeddingFormatError(result.reason, result.line + offset)
    if isinstance(result, BaseException):
        raise result
    tokens, lines = result
    buffer = np.empty((_LINES, rows.shape[1]))
    for lo in range(0, len(tokens), _LINES):
        chunk = buffer[: len(tokens) - lo]
        if inp.readinto(memoryview(chunk).cast("B")) != chunk.nbytes:
            raise EOFError("a worker's rows ended early")
        rows = _keep(index, rows, tokens[lo : lo + _LINES], chunk, None)
    return rows, offset + lines


def load_word_vectors(
    path: Path | str, vocabulary: Collection[str] | None = None
) -> WordVectorTable:
    """Parse a textual word-vector file: header ``count dim``, then one
    ``token v1 .. vdim`` line per word.

    Fields are separated by whitespace (``str.split``); blank lines are
    skipped and ``#`` is an ordinary character. Tokens are lowercased; the
    first occurrence of a token wins. A line whose component count does not
    match the header dimension, or whose components do not parse as finite
    floats, raises ``path: line N: ...``, the first such line of the file.

    With ``vocabulary``, the table holds only the rows of its words, in file
    order; every line is still parsed and checked. Lines are read
    ``_LINES`` at a time, so no more than one such chunk is held beside the
    rows kept.

    A regular file is cut into byte ranges, one per allowed CPU and each at
    least ``_MIN_RANGE`` bytes. This process parses the first, header
    included; a forked worker pinned to a CPU of its own parses each of the
    others, and their rows are read back in file order, the first occurrence
    of a token winning across ranges. No worker outlives the call.
    """
    wanted = None if vocabulary is None else set(vocabulary)
    try:
        with open(path, "rb", buffering=0) as raw:
            return _load(path, raw.fileno(), wanted)
    except EmbeddingFormatError as e:
        e.args = (f"{path}: {e}",)  # the type, line and traceback stay
        raise


def _load(path: Path | str, fd: int, wanted: set[str] | None) -> WordVectorTable:
    st = os.fstat(fd)
    cpus = _cpus()
    ends: list[int | None] = [None]  # a pipe is read as it comes, by this process alone
    if stat.S_ISREG(st.st_mode):
        ends = _ends(fd, st.st_size, min(len(cpus), st.st_size // _MIN_RANGE))
    fh = _text(fd, 0, ends[0])
    count, dim = _read_header(fh)
    # Sized by the vocabulary, else by the header's count, which is not
    # checked: a vector line holds at least 2 * dim + 1 characters, so the
    # file's size bounds the rows too. Rows past those kept are never
    # written, so their pages are never touched.
    most = st.st_size // (2 * dim + 1)
    rows = np.empty((min(most, max(count, 0) if wanted is None else len(wanted)), dim))
    index: dict[str, int] = {}
    mask = os.sched_getaffinity(0) if len(ends) > 1 else None
    workers: list[tuple[int, BinaryIO, int, int]] = []
    try:
        for cpu, start, end in zip(cpus[1:], ends, ends[1:]):
            workers.append((*_fork(fd, start, end, dim, wanted, cpu), start, end))
        if workers:
            _pin(cpus[0])
        rows, lines = _parse_range(fh, 2, dim, wanted, index, rows)
        for _, inp, start, end in workers:
            try:
                rows, lines = _merge(inp, index, rows, lines)
            except (EOFError, pickle.UnpicklingError) as e:
                raise RuntimeError(
                    f"{path}: the worker parsing bytes {start} to {end} "
                    "ended without a result"
                ) from e
    except BaseException:
        for pid, *_ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, inp, *_ in workers:
            inp.close()
            os.waitpid(pid, 0)
        if mask is not None:
            os.sched_setaffinity(0, mask)
    return WordVectorTable._of(index, rows[: len(index)])


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


# Units averaged per array pass.
_CHUNK = 1024


def _avg_rows(
    units: Sequence[Sequence[Token] | Sequence[str]], table: WordVectorTable
) -> np.ndarray:
    """The float64 mean vector of each unit's in-vocabulary tokens, one row
    per unit; a unit with none gets the zero row.

    Rows are summed by position from +0.0: pass ``p`` adds the ``p``-th
    in-vocabulary row of every unit that has one. That is the order
    ``np.mean(rows, axis=0)`` sums a unit's rows in, so each row is bit-equal
    to that per-unit mean (``np.add.reduceat`` sums in another order).
    """
    lookup = table._index.get
    words = [
        t.normalized if isinstance(t, Token) else str(t).lower()
        for unit in units for t in unit
    ]
    flat = np.fromiter(map(lookup, words, repeat(-1)), dtype=np.intp, count=len(words))
    owner = np.repeat(np.arange(len(units)), [len(unit) for unit in units])
    found = flat >= 0
    idx, owner = flat[found], owner[found]
    counts = np.bincount(owner, minlength=len(units))
    start = np.cumsum(counts) - counts
    if table.dim == 1:  # numpy sums one column pairwise, not row by row
        return np.array([np.mean(table._rows[idx[a : a + c]], axis=0) if c else [0.0]
                         for a, c in zip(start.tolist(), counts.tolist())]).reshape(-1, 1)
    # Longest units first, so the units still summing at pass p are a prefix.
    order = np.argsort(-counts, kind="stable")
    start = start[order]
    live = np.searchsorted(-counts[order], -np.arange(counts.max(initial=0)))
    acc = np.zeros((len(units), table.dim))
    for p, n in enumerate(live.tolist()):
        acc[:n] += table._rows[idx[start[:n] + p]]
    out = np.empty_like(acc)
    out[order] = acc / np.maximum(counts[order], 1)[:, None]
    return out


def embed_avg(
    tokens: Sequence[Token] | Sequence[str], table: WordVectorTable
) -> np.ndarray:
    """Arithmetic mean of the vectors of in-vocabulary normalized tokens.

    Out-of-vocabulary tokens are skipped; if nothing is in vocabulary the
    zero vector is returned.
    """
    return _avg_rows([tokens], table)[0]


class AvgEmbedder:
    """Embeds a unit as the average of its word vectors."""

    def __init__(self, table: WordVectorTable):
        self.table = table

    @property
    def dim(self) -> int:
        return self.table.dim


class PrecomputedEmbedder:
    """Looks units up in an existing matrix keyed by unit id."""

    def __init__(self, matrix: EmbeddingMatrix):
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.matrix.dim


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
    docs = list(docs)
    if level == "document":
        unit_ids = [doc.doc_id for doc in docs]
        units: Iterator = (doc.tokens() for doc in docs)
    else:
        unit_ids = [s.uid for doc in docs for s in doc.sentences]
        units = (s.tokens for doc in docs for s in doc.sentences)
    if isinstance(embedder, PrecomputedEmbedder):
        matrix = embedder.matrix
        rows = matrix.rows[[matrix.row_index(uid) for uid in unit_ids]]
        if level == "sentence":
            check_sentence_rows(matrix, {doc.doc_id for doc in docs}, set(unit_ids))
    else:
        # Averaged a chunk at a time into float32, so no float64 copy of the
        # whole corpus is ever held.
        rows = np.empty((len(unit_ids), embedder.dim), dtype=np.float32)
        for lo in range(0, len(unit_ids), _CHUNK):
            chunk = list(islice(units, _CHUNK))
            rows[lo : lo + len(chunk)] = _avg_rows(chunk, embedder.table)
    return EmbeddingMatrix(unit_ids, rows).normalized()
