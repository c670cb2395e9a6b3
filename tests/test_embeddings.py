"""Word vectors, averaged embeddings, the binary matrix format."""

from __future__ import annotations

import bisect
import contextlib
import os
import signal
import threading

import numpy as np
import pytest

from lha import embeddings
from lha.corpus import Document, Sentence, Token, tokenize
from lha.embeddings import (
    AvgEmbedder,
    EmbeddingFormatError,
    EmbeddingLookupError,
    EmbeddingMatrix,
    PrecomputedEmbedder,
    WordVectorTable,
    embed_avg,
    embed_corpus,
    load_embeddings,
    load_word_vectors,
    save_embeddings,
)
from conftest import doc, write_vectors
from oracles import embed_avg_oracle, whole_file_loader_oracle, word_vectors_oracle


_ALLOWED_CPUS = embeddings._cpus
_MASK = os.sched_getaffinity(0)


def _cut_into(monkeypatch, n: int) -> list[int]:
    """Make ``load_word_vectors`` cut any file into ``n`` byte ranges (fewer
    when it has too few lines), as with ``n`` allowed CPUs, and return
    those CPUs: the runner's own, reused when it has fewer."""
    real = sorted(os.sched_getaffinity(0))
    cpus = [real[i % len(real)] for i in range(n)]
    monkeypatch.setattr(embeddings, "_cpus", lambda: cpus)
    monkeypatch.setattr(embeddings, "_MIN_RANGE", 1)
    return cpus


@pytest.fixture(autouse=True)
def ranges(monkeypatch) -> int:
    """Vector files are read as one range by this process, as on a runner
    with one CPU; the ``*Split`` classes override this to fork workers."""
    _cut_into(monkeypatch, 1)
    return 1


class _Split:
    """Runs a class's tests on files cut into 2 and into 3 byte ranges: this
    process parses the first, forked workers the others."""

    @pytest.fixture(params=[2, 3], ids=["2cpus", "3cpus"])
    def ranges(self, request, monkeypatch) -> int:
        _cut_into(monkeypatch, request.param)
        return request.param


class TestLoadWordVectors:
    def test_direct_parse(self, tmp_path) -> None:
        path = tmp_path / "v.txt"
        path.write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
        table = load_word_vectors(path)
        assert table.dim == 3
        assert len(table) == 2
        assert np.array_equal(table.get("a"), [1.0, 0.0, 0.0])

    def test_component_count_mismatch(self, tmp_path) -> None:
        path = tmp_path / "v.txt"
        path.write_text("1 3\na 1 0\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="expected 3 components, got 2"):
            load_word_vectors(path)

    def test_unparsable_float(self, tmp_path) -> None:
        path = tmp_path / "v.txt"
        path.write_text("1 2\na 1 x\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            load_word_vectors(path)

    def test_first_occurrence_wins(self, tmp_path) -> None:
        path = tmp_path / "v.txt"
        path.write_text("2 2\nA 1 0\na 0 1\n", encoding="utf-8")
        table = load_word_vectors(path)
        assert len(table) == 1
        assert np.array_equal(table.get("a"), [1.0, 0.0])

    def test_non_finite_rejected(self, tmp_path) -> None:
        path = tmp_path / "v.txt"
        path.write_text("1 2\na 1 inf\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="non-finite"):
            load_word_vectors(path)

    def test_bad_header(self, tmp_path) -> None:
        path = tmp_path / "v.txt"
        path.write_text("hello\na 1 0\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="line 1"):
            load_word_vectors(path)

    @pytest.mark.parametrize("body, message", [
        ("b 3 4 5\n", "line 2: expected 2 components, got 3"),
        ("a 1 2\n\nb 3 nan\n", "line 4: non-finite vector component"),
        ("a 1 2\nb 1e400 0\n", "line 3: non-finite vector component"),
    ])
    def test_errors_name_the_line(self, tmp_path, body, message) -> None:
        path = tmp_path / "v.txt"
        path.write_text("2 2\n" + body, encoding="utf-8")
        with pytest.raises(EmbeddingFormatError) as info:
            load_word_vectors(path)
        assert str(info.value) == f"{path}: {message}"

    def test_hash_is_a_token_and_python_floats_parse(self, tmp_path) -> None:
        path = tmp_path / "v.txt"
        path.write_bytes("3 2\r\n# 1 2\r\n \t\r\n#a\t1_0 -0\r\nb \u0661 1e-320\r\n".encode())
        table = load_word_vectors(path)
        assert len(table) == 3
        assert table.get("#").tolist() == [1.0, 2.0]
        assert table.get("#a").tobytes() == np.array([10.0, -0.0]).tobytes()
        assert table.get("b").tolist() == [1.0, 1e-320]


# Pieces of the fuzzed word-vector files: every separator is whitespace to
# str.split, and the components include what only float() parses.
_SEPARATORS = (" ", " ", " ", "\t", "  ", "\u00a0", "\u2009", "\x1c", "\u3000", "\x85")
_BLANKS = ("", " ", "\t", "\u00a0 ", "\x0b")
_ENDINGS = ("\n", "\n", "\r\n", "\r")
_TOKENS = ("a", "A", "b", "B", "the", "The", "#", "#x", "nan", "inf", "ä", "Ä", "x#")
_ODD_COMPONENTS = ("nan", "inf", "-inf", "1e400", "1e-320", "-0", "1_0", "\u0661",
                   "NaN", "0x1", "1d2", "+.5", "1e", "_1", "١٢")
_BAD_HEADERS = ("", "5", "x 2", "5 0", "5 -1", "5 2 1", "5 2.5", "five two")


def _fuzzed_vector_file(rng: np.random.Generator) -> str:
    """A small word-vector file: clean, or with a few odd lines or fields."""
    dim = int(rng.integers(1, 4))
    odd = rng.random() < 0.5  # else only well-formed lines
    pick = lambda seq: seq[int(rng.integers(len(seq)))]  # noqa: E731
    header = f"{int(rng.integers(0, 9))} {dim}"
    if odd and rng.random() < 0.1:
        header = pick(_BAD_HEADERS)
    text = header + pick(_ENDINGS)
    for _ in range(int(rng.integers(0, 8))):
        if rng.random() < 0.15:
            text += pick(_BLANKS) + pick(_ENDINGS)
            continue
        n = dim
        if odd and rng.random() < 0.1:
            n += pick((-1, 1, 2))
        fields = [pick(_TOKENS)]
        for _ in range(max(n, 0)):
            if odd and rng.random() < 0.08:
                fields.append(pick(_ODD_COMPONENTS))
            else:
                fields.append(f"{rng.normal():.{int(rng.integers(1, 18))}g}")
        line = fields[0]
        for field in fields[1:]:
            line += pick(_SEPARATORS) + field
        if rng.random() < 0.2:
            line = pick(_SEPARATORS) + line + pick(_SEPARATORS)
        text += line + pick(_ENDINGS)
    return text


def test_load_word_vectors_matches_the_per_line_parser(tmp_path) -> None:
    """On seeded random files, the table holds the per-line parser's vectors
    bit for bit, or both raise the same message."""
    rng = np.random.default_rng(2024)
    path = tmp_path / "v.vec"
    outcomes = {"table": 0, "error": 0}
    for _ in range(600):
        path.write_bytes(_fuzzed_vector_file(rng).encode("utf-8"))
        try:
            dim, expected = word_vectors_oracle(path)
        except EmbeddingFormatError as e:
            with pytest.raises(EmbeddingFormatError) as info:
                load_word_vectors(path)
            assert str(info.value) == f"{path}: {e}", path.read_bytes()
            outcomes["error"] += 1
            continue
        table = load_word_vectors(path)
        assert (table.dim, len(table)) == (dim, len(expected)), path.read_bytes()
        for token, vec in expected.items():
            assert table.get(token).tobytes() == vec.tobytes(), path.read_bytes()
        outcomes["table"] += 1
    assert min(outcomes.values()) > 100, outcomes


def assert_restricted(table: WordVectorTable, whole: WordVectorTable, vocabulary) -> None:
    """``table`` is ``whole`` cut to the words of ``vocabulary`` (None: every
    word): those words in file order, each with its first line's row."""
    words = [w for w in whole._index if vocabulary is None or w in vocabulary]
    expected = whole.rows[np.array([whole._index[w] for w in words], dtype=np.intp)]
    assert table.dim == whole.dim
    assert list(table._index.items()) == [(w, i) for i, w in enumerate(words)]
    assert (table.rows.dtype, table.rows.shape) == (np.float64, expected.shape)
    assert table.rows.tobytes() == expected.tobytes()


# Case variants of a few words, so one word often comes again in another case.
_WORDS = ("the", "The", "THE", "cat", "Cat", "sat", "ä", "Ä", "#", "x#", "nan", "inf")
_BLANK_LINES = ("\n", " \n", "\t\n", "\u00a0\n")


def _vector_body(rng: np.random.Generator, n: int, dim: int) -> list[str]:
    """About ``n`` vector lines, with runs of blank lines among them."""
    lines: list[str] = []
    while len(lines) < n:
        if rng.random() < 0.1:
            lines += [_BLANK_LINES[int(rng.integers(4))]] * int(rng.integers(1, 6))
            continue
        word = _WORDS[int(rng.integers(len(_WORDS)))]
        if rng.random() < 0.5:
            word = f"{word}{int(rng.integers(40))}"
        values = rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4)
        values[rng.random(dim) < 0.1] = -0.0
        lines.append(" ".join([word, *(repr(float(v)) for v in values)]) + "\n")
    return lines


def _vocabularies(rng: np.random.Generator, path) -> list:
    """None, and vocabularies that are empty, absent from the file, all of
    its words, some of them, and all of them in upper case."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        words = {line.split()[0].lower() for line in fh if line.split()}
    some = {w for w in sorted(words) if rng.random() < 0.4}
    return [None, set(), {"zzz", "qqq0"}, set(words), some | {"absent"},
            {w.upper() for w in words}]


# Lines per chunk: one, two, and the default (None).
_CHUNKS = (1, 2, None)


class TestVocabularyLoad:
    """The loader read a chunk at a time, with or without a vocabulary,
    against the whole-file read that keeps every row."""

    # Seeded and fuzzed files checked.
    seeded, fuzzed = 40, 150

    @pytest.fixture(params=_CHUNKS, ids=["1", "2", "default"])
    def chunk(self, request, monkeypatch) -> int:
        if request.param is not None:
            monkeypatch.setattr(embeddings, "_LINES", request.param)
        return embeddings._LINES

    def check(self, path, vocabularies) -> bool:
        """Each vocabulary's table is the whole read cut to it, or each load
        raises the whole read's message; whether the file loads."""
        try:
            whole = whole_file_loader_oracle(path)
        except EmbeddingFormatError as e:
            for vocabulary in vocabularies:
                with pytest.raises(EmbeddingFormatError) as info:
                    load_word_vectors(path, vocabulary)
                assert str(info.value) == f"{path}: {e}", path.read_bytes()
            return False
        for vocabulary in vocabularies:
            assert_restricted(load_word_vectors(path, vocabulary), whole, vocabulary)
        return True

    def test_seeded_files(self, tmp_path, chunk) -> None:
        rng = np.random.default_rng(15)
        path = tmp_path / "v.vec"
        for _ in range(self.seeded):
            dim = int(rng.integers(1, 5))
            n = int(rng.integers(0, 5 * chunk + 3))
            path.write_text(f"{n} {dim}\n" + "".join(_vector_body(rng, n, dim)), "utf-8")
            assert self.check(path, _vocabularies(rng, path))

    def test_fuzzed_files(self, tmp_path, chunk) -> None:
        # Odd separators and components that only the per-line rules take,
        # or that fail them, in some chunks of a file and not in others.
        rng = np.random.default_rng(16)
        path = tmp_path / "v.vec"
        tables = 0
        for _ in range(self.fuzzed):
            path.write_bytes(_fuzzed_vector_file(rng).encode("utf-8"))
            tables += self.check(path, _vocabularies(rng, path))
        assert min(tables, self.fuzzed - tables) > self.fuzzed * 2 // 15, tables

    @pytest.mark.parametrize("first, second", [("Word", "word"), ("word", "WORD")])
    def test_first_case_variant_wins_across_a_boundary(
        self, tmp_path, chunk, first, second
    ) -> None:
        # Lines 2 .. chunk + 1 are the first chunk: its last line and the
        # next chunk's first line are variants of one word.
        body = [f"w{i} {i} 0\n" for i in range(chunk - 1)]
        body += [f"{first} 1 2\n", f"{second} 3 4\n", "x 5 6\n"]
        path = tmp_path / "v.vec"
        path.write_text("3 2\n" + "".join(body), encoding="utf-8")
        table = load_word_vectors(path, {"word", "x"})
        assert table.get("word").tolist() == [1.0, 2.0]
        assert list(table._index) == ["word", "x"]
        self.check(path, [None, {"word"}, {"word", "x"}, {"x"}])

    def test_blank_only_chunks(self, tmp_path, chunk) -> None:
        blanks = [" \n"] * (2 * chunk + 1)
        body = ["a 1\n", *blanks, "B 2\n", *blanks, *blanks, "b 3\n", *blanks]
        path = tmp_path / "v.vec"
        path.write_text("3 1\n" + "".join(body), encoding="utf-8")
        assert load_word_vectors(path, {"b"}).get("b").tolist() == [2.0]
        self.check(path, [None, set(), {"a"}, {"b"}, {"a", "b"}])

    @pytest.mark.parametrize("count", [0, 2, 10**15, -3])
    def test_header_count_only_sizes_the_rows(self, tmp_path, chunk, count) -> None:
        lines = "".join(f"w{i} {i} -{i}\n" for i in range(2 * chunk + 3))
        path = tmp_path / "v.vec"
        path.write_text(f"{count} 2\n{lines}", encoding="utf-8")
        self.check(path, [None, {"w0", "w1"}])
        assert len(load_word_vectors(path)) == 2 * chunk + 3

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe(self, tmp_path, chunk) -> None:
        # A pipe's size reads 0, so its rows are sized as they come.
        text = "2 2\n" + "".join(f"W{i} {i} 0.5\n" for i in range(3 * chunk + 1))
        (tmp_path / "v.vec").write_text(text, encoding="utf-8")
        whole = whole_file_loader_oracle(tmp_path / "v.vec")
        os.mkfifo(tmp_path / "v.pipe")
        for vocabulary in (None, {"w1", "w3"}):
            writer = threading.Thread(target=(tmp_path / "v.pipe").write_text, args=(text,))
            writer.start()
            assert_restricted(load_word_vectors(tmp_path / "v.pipe", vocabulary), whole, vocabulary)
            writer.join()

    @pytest.mark.parametrize("bad, message", [
        ("bad 1 2 3", "expected 2 components, got 3"),
        ("bad 1 x", "unparsable vector component"),
        ("bad nan 1", "non-finite vector component"),
        ("bad 1 1e400", "non-finite vector component"),
    ])
    @pytest.mark.parametrize("where", ["kept", "dropped", "last"])
    def test_bad_line_raises_the_old_message(
        self, tmp_path, chunk, bad, message, where
    ) -> None:
        good = [f"w{i} {i} 1\n" for i in range(3 * chunk + 2)]
        at = len(good) if where == "last" else chunk + 1
        lines = good[:at] + [bad + "\n"] + good[at:]
        path = tmp_path / "v.vec"
        path.write_text(f"{len(lines)} 2\n" + "".join(lines), encoding="utf-8")
        vocabulary = {"w0", "bad"} if where != "dropped" else {"w0"}
        for vocab in (vocabulary, None, set()):
            with pytest.raises(EmbeddingFormatError) as info:
                load_word_vectors(path, vocab)
            assert str(info.value) == f"{path}: line {at + 2}: {message}"
        self.check(path, [vocabulary])


class TestLoadWordVectorsSplit(_Split, TestLoadWordVectors):
    pass


def _numbered_lines(n: int) -> list[str]:
    """``n`` vector lines of one length, so that putting another line of that
    length in place of one moves no cut of the file."""
    return [f"w{i:03d} {i % 10}.5 0\n" for i in range(n)]


def _line_ranges(path, n: int) -> list[int]:
    """The byte range of each line of ``path`` (``\\n`` endings only), the
    header first, when the file is cut into ``n`` ranges."""
    data = path.read_bytes()
    with open(path, "rb") as fh:
        ends = embeddings._ends(fh.fileno(), len(data), n)
    starts = [0, *(i + 1 for i in range(len(data) - 1) if data[i] == ord("\n"))]
    return [bisect.bisect_right(ends, start) for start in starts]


class TestVocabularyLoadSplit(_Split, TestVocabularyLoad):
    """``TestVocabularyLoad`` on files cut into byte ranges, and what only a
    cut can show. Every worker forks, so fewer files are checked, and two
    lines a chunk, so that the rows of a worker are read back in pieces."""

    seeded, fuzzed = 20, 60

    @pytest.fixture
    def chunk(self, monkeypatch) -> int:
        monkeypatch.setattr(embeddings, "_LINES", 2)
        return 2

    def write_with(self, path, ranges: int, lines: dict[int, str]) -> list[int]:
        """Write 60 numbered lines with ``lines[r]`` put in the middle of
        range ``r`` (-1: the last); the line numbers of the lines put in."""
        body = _numbered_lines(60)
        path.write_text(f"{len(body)} 2\n" + "".join(body), encoding="utf-8")
        of = _line_ranges(path, ranges)
        assert sorted(set(of)) == list(range(ranges))
        put = []
        for r, line in lines.items():
            at = [i for i, o in enumerate(of) if o == r % ranges]
            put.append(at[len(at) // 2])
            body[put[-1] - 1] = line
        path.write_text(f"{len(body)} 2\n" + "".join(body), encoding="utf-8")
        assert _line_ranges(path, ranges) == of
        return [i + 1 for i in put]

    @pytest.mark.parametrize("variants", [("Word", "word", "WORD"), ("WORD", "Word", "word")])
    def test_first_case_variant_wins_across_ranges(
        self, tmp_path, chunk, ranges, variants
    ) -> None:
        path = tmp_path / "v.vec"
        lines = {r: f"{variants[r]} {r + 1}.0 0\n" for r in range(ranges)}
        self.write_with(path, ranges, lines)
        table = load_word_vectors(path, {"word", "w000"})
        assert table.get("word").tolist() == [1.0, 0.0]
        self.check(path, [None, set(), {"word"}, {"word", "w059"}, {"WORD"}])

    @pytest.mark.parametrize("bad, message", [
        ("nan 0", "non-finite vector component"),
        ("x.5 0", "unparsable vector component"),
        ("1 2 3", "expected 2 components, got 3"),
    ])
    @pytest.mark.parametrize("where", [(0,), (-1,), (0, -1), (1, -1)],
                             ids=["first", "last", "first+last", "second+last"])
    def test_earliest_bad_line_wins(self, tmp_path, chunk, ranges, bad, message, where) -> None:
        path = tmp_path / "v.vec"
        at = self.write_with(path, ranges, {r: f"bad0 {bad}\n" for r in where})
        for vocabulary in (None, set(), {"w001", "bad0"}):
            with pytest.raises(EmbeddingFormatError) as info:
                load_word_vectors(path, vocabulary)
            assert str(info.value) == f"{path}: line {min(at)}: {message}"
        self.check(path, [{"w001"}])


class TestWorkers:
    """No worker outlives a load and this process's CPU mask is restored,
    whether the load succeeds, fails, is interrupted or loses a worker."""

    @pytest.fixture(autouse=True)
    def ranges(self, monkeypatch) -> list[int]:
        return _cut_into(monkeypatch, 3)

    @pytest.fixture
    def path(self, tmp_path):
        body = _numbered_lines(60)
        path = tmp_path / "v.vec"
        path.write_text(f"{len(body)} 2\n" + "".join(body), encoding="utf-8")
        return path

    @contextlib.contextmanager
    def leaves_no_trace(self):
        """Fail a load that takes more than 30 s; then check that no child
        is left and the CPU mask is what it was before any test loaded."""
        def hung(signum, frame):
            raise TimeoutError("the load hung")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert os.sched_getaffinity(0) == _MASK

    def test_good_load(self, path, ranges, monkeypatch) -> None:
        pinned = []
        merge = embeddings._merge

        def merging(*args):
            pinned.append(os.sched_getaffinity(0))
            return merge(*args)

        monkeypatch.setattr(embeddings, "_merge", merging)
        with self.leaves_no_trace():
            table = load_word_vectors(path)
        assert list(table._index) == [f"w{i:03d}" for i in range(60)]
        assert pinned == [{ranges[0]}] * 2

    @pytest.mark.parametrize("line", [3, 60])  # in the first range, in the last
    def test_failing_load(self, path, line) -> None:
        body = path.read_text(encoding="utf-8").splitlines(keepends=True)
        body[line - 1] = "bad0 nan 0\n"
        path.write_text("".join(body), encoding="utf-8")
        with self.leaves_no_trace(), pytest.raises(EmbeddingFormatError) as info:
            load_word_vectors(path)
        assert str(info.value) == f"{path}: line {line}: non-finite vector component"

    def test_interrupted_load(self, path, monkeypatch) -> None:
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(embeddings, "_merge", interrupted)
        with self.leaves_no_trace(), pytest.raises(KeyboardInterrupt):
            load_word_vectors(path)

    def test_killed_worker(self, path, monkeypatch) -> None:
        parent, parse = os.getpid(), embeddings._parse_range

        def dying(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return parse(*args)

        monkeypatch.setattr(embeddings, "_parse_range", dying)
        with self.leaves_no_trace(), pytest.raises(RuntimeError) as info:
            load_word_vectors(path)
        assert str(info.value).startswith(f"{path}: the worker parsing bytes ")

    @pytest.mark.parametrize("case", ["one cpu", "small file", "no fork"])
    def test_one_range_forks_nothing(self, path, monkeypatch, case) -> None:
        monkeypatch.setattr(embeddings, "_fork", None)  # calling it would raise
        if case == "one cpu":
            _cut_into(monkeypatch, 1)
        elif case == "small file":
            monkeypatch.setattr(embeddings, "_MIN_RANGE", path.stat().st_size // 2 + 1)
        else:
            monkeypatch.setattr(embeddings, "_cpus", _ALLOWED_CPUS)
            monkeypatch.delattr(os, "fork")
        with self.leaves_no_trace():
            assert len(load_word_vectors(path)) == 60


class TestEmbedAvg:
    def test_singleton_mean(self, tmp_path) -> None:
        table = load_word_vectors(write_vectors(tmp_path / "v.txt", {"a": [1, 0]}))
        assert np.allclose(embed_avg(["a"], table), [1.0, 0.0])

    def test_two_point_mean(self, tmp_path) -> None:
        table = load_word_vectors(
            write_vectors(tmp_path / "v.txt", {"a": [1, 0], "b": [0, 1]})
        )
        assert np.allclose(embed_avg(["a", "b"], table), [0.5, 0.5])

    def test_all_oov_gives_zero(self, toy_table) -> None:
        vec = embed_avg(["zzz", "qqq"], toy_table)
        assert np.array_equal(vec, np.zeros(3))

    def test_oov_tokens_skipped(self, toy_table) -> None:
        with_oov = embed_avg(["cat", "zzz"], toy_table)
        without = embed_avg(["cat"], toy_table)
        assert np.allclose(with_oov, without)

    def test_accepts_tokens_and_lowercases(self, toy_table) -> None:
        tokens = tokenize("Cat DOG")
        assert np.allclose(embed_avg(tokens, toy_table), embed_avg(["cat", "dog"], toy_table))

    def test_permutation_invariant(self, toy_table) -> None:
        words = ["cat", "dog", "apple", "rain", "cat"]
        rng = np.random.default_rng(3)
        base = embed_avg(words, toy_table)
        for _ in range(10):
            shuffled = list(rng.permutation(words))
            assert np.allclose(embed_avg(shuffled, toy_table), base)


def random_table(rng, dim: int) -> tuple[WordVectorTable, list[str]]:
    """Rows of mixed magnitudes with about a fifth of their components
    -0.0; read from a strided view, as the file loader's rows are."""
    words = [f"w{i}" for i in range(int(rng.integers(1, 60)))]
    rows = rng.standard_normal((len(words), dim + 1))
    rows *= 10.0 ** rng.integers(-3, 4, size=(len(words), 1))
    rows[rng.random(rows.shape) < 0.2] = -0.0
    return WordVectorTable.from_rows(words, rows[:, 1:]), words


def random_docs(rng, words: list[str], n_sentences: int, long_every: int = 0) -> list[Document]:
    """Documents holding ``n_sentences`` sentences in all: empty, OOV-only,
    one-token and longer ones, in mixed case; with ``long_every``, every
    such sentence holds over 1,100 tokens."""
    pool = [*words, *(w.upper() for w in words), "oov", "Zzz"]
    docs, ordinal, sentences = [], 0, []
    for i in range(n_sentences):
        length = int(rng.choice([0, 1, 1, 2, 3, 8, 30]))
        if long_every and i % long_every == 0:
            length = 1_100 + int(rng.integers(0, 50))
        if rng.random() < 0.1:
            surfaces = ["oov"] * length
        else:
            surfaces = [str(w) for w in rng.choice(pool, size=length)]
        tokens = tuple(Token(w, w.lower(), False, False, False) for w in surfaces)
        doc_id = f"d{len(docs)}"
        sentences.append(Sentence(doc_id, ordinal, " ".join(surfaces), tokens))
        ordinal += 1
        if rng.random() < 0.3 or i == n_sentences - 1:
            docs.append(Document(doc_id, "source", tuple(sentences)))
            ordinal, sentences = 0, []
    return docs


def expected_rows(docs: list[Document], level: str, table) -> np.ndarray:
    """The rows ``embed_corpus`` wrote before the array pass: one per-unit
    mean, cast to float32, then normalized."""
    units = [d.tokens() for d in docs] if level == "document" else [
        s.tokens for d in docs for s in d.sentences]
    means = np.array([embed_avg_oracle(u, table) for u in units], dtype=np.float32)
    ids = [str(i) for i in range(len(units))]
    return EmbeddingMatrix(ids, means.reshape(len(units), table.dim)).normalized().rows


class TestAverageKernel:
    """The array pass against one ``np.mean`` per unit, compared bit for bit."""

    def test_random_corpora_match_per_unit_mean(self, monkeypatch) -> None:
        rng = np.random.default_rng(12)
        for trial in range(300):
            monkeypatch.setattr(embeddings, "_CHUNK", int(rng.choice([1, 2, 5, 1024])))
            table, words = random_table(rng, dim=int(rng.choice([1, 2, 3, 8, 50])))
            docs = random_docs(rng, words, int(rng.integers(0, 40)))
            units = [s.tokens for d in docs for s in d.sentences]
            means = np.array([embed_avg_oracle(u, table) for u in units])
            got = embeddings._avg_rows(units, table)
            assert got.tobytes() == means.reshape(got.shape).tobytes(), trial
            for level in ("document", "sentence"):
                matrix = embed_corpus(docs, level, AvgEmbedder(table))
                assert matrix.rows.tobytes() == expected_rows(docs, level, table).tobytes()

    @pytest.mark.parametrize("n", [1024, 1025])
    def test_chunk_edges_and_units_longer_than_a_chunk(self, n) -> None:
        assert embeddings._CHUNK == 1024
        rng = np.random.default_rng(n)
        table, words = random_table(rng, dim=20)
        docs = random_docs(rng, words, n, long_every=300)
        assert sum(len(d.sentences) for d in docs) == n
        for level in ("document", "sentence"):
            matrix = embed_corpus(docs, level, AvgEmbedder(table))
            assert matrix.rows.tobytes() == expected_rows(docs, level, table).tobytes()

    def test_embed_avg_is_the_one_unit_mean(self) -> None:
        rng = np.random.default_rng(5)
        for _ in range(50):
            table, words = random_table(rng, dim=int(rng.choice([1, 4, 30])))
            tokens = [str(w) for w in rng.choice([*words, "W0", "oov"], size=rng.integers(0, 12))]
            assert embed_avg(tokens, table).tobytes() == embed_avg_oracle(tokens, table).tobytes()

    def test_negative_zero_components_average_to_positive_zero(self) -> None:
        table = WordVectorTable(2, {"a": [-0.0, 1.0], "b": [-0.0, -0.0]})
        for tokens in (["a"], ["b"], ["a", "b"]):
            assert np.signbit(embed_avg(tokens, table)).tolist() == [False, False]


class TestEmbeddingMatrix:
    def test_duplicate_ids_rejected(self) -> None:
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingMatrix(["a", "a"], np.zeros((2, 2), dtype=np.float32))

    def test_shape_mismatch_rejected(self) -> None:
        with pytest.raises(ValueError, match="ids"):
            EmbeddingMatrix(["a"], np.zeros((2, 2), dtype=np.float32))

    def test_row_lookup(self) -> None:
        matrix = EmbeddingMatrix(["a", "b"], np.array([[1, 0], [0, 1]], dtype=np.float32))
        assert np.array_equal(matrix.row("b"), [0.0, 1.0])
        assert "a" in matrix and "c" not in matrix

    def test_missing_id_raises(self) -> None:
        matrix = EmbeddingMatrix(["a"], np.zeros((1, 2), dtype=np.float32))
        with pytest.raises(EmbeddingLookupError, match="'nope'"):
            matrix.row("nope")

    def test_normalized_rows_are_unit(self) -> None:
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((20, 4)).astype(np.float32)
        rows[7] = 0.0
        matrix = EmbeddingMatrix([f"u{i}" for i in range(20)], rows)
        normed = matrix.normalized()
        norms = np.linalg.norm(normed.rows.astype(np.float64), axis=1)
        assert np.all(np.abs(norms[np.arange(20) != 7] - 1.0) < 1e-6)
        assert norms[7] == 0.0

    def test_normalize_idempotent(self) -> None:
        rng = np.random.default_rng(6)
        matrix = EmbeddingMatrix(
            ["a", "b"], rng.standard_normal((2, 3)).astype(np.float32)
        )
        once = matrix.normalized()
        twice = once.normalized()
        assert np.array_equal(once.rows, twice.rows)
        assert twice.unit_normalized


class TestBinaryFormat:
    def test_round_trip_bit_exact(self, tmp_path) -> None:
        rng = np.random.default_rng(11)
        matrix = EmbeddingMatrix(
            ["d1", "d2#0", "naïve", "漢字"],
            rng.standard_normal((4, 5)).astype(np.float32),
            unit_normalized=True,
        )
        path = tmp_path / "m.lhae"
        save_embeddings(matrix, path)
        loaded = load_embeddings(path)
        assert loaded.unit_ids == matrix.unit_ids
        assert loaded.unit_normalized
        assert loaded.rows.tobytes() == matrix.rows.tobytes()

    def test_save_is_deterministic(self, tmp_path) -> None:
        matrix = EmbeddingMatrix(["a", "b"], np.eye(2, dtype=np.float32))
        save_embeddings(matrix, tmp_path / "one.lhae")
        save_embeddings(matrix, tmp_path / "two.lhae")
        assert (tmp_path / "one.lhae").read_bytes() == (tmp_path / "two.lhae").read_bytes()

    def test_wrong_magic(self, tmp_path) -> None:
        path = tmp_path / "m.lhae"
        path.write_bytes(b"WHAT" + b"\x00" * 30)
        with pytest.raises(EmbeddingFormatError, match="magic"):
            load_embeddings(path)

    def test_truncated_mid_row(self, tmp_path) -> None:
        matrix = EmbeddingMatrix(["a", "b"], np.eye(2, dtype=np.float32))
        path = tmp_path / "m.lhae"
        save_embeddings(matrix, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-6])
        with pytest.raises(EmbeddingFormatError, match="expected .* got"):
            load_embeddings(path)

    def test_trailing_bytes_rejected(self, tmp_path) -> None:
        matrix = EmbeddingMatrix(["a"], np.zeros((1, 2), dtype=np.float32))
        path = tmp_path / "m.lhae"
        save_embeddings(matrix, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(EmbeddingFormatError, match="trailing"):
            load_embeddings(path)

    def test_unsupported_version(self, tmp_path) -> None:
        matrix = EmbeddingMatrix(["a"], np.zeros((1, 2), dtype=np.float32))
        path = tmp_path / "m.lhae"
        save_embeddings(matrix, path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(EmbeddingFormatError, match="version 99"):
            load_embeddings(path)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, tmp_path, bad) -> None:
        rows = np.zeros((3, 2), dtype=np.float32)
        rows[1, 1] = bad
        path = tmp_path / "m.lhae"
        save_embeddings(EmbeddingMatrix(["a", "b#0", "c"], rows), path)
        with pytest.raises(EmbeddingFormatError, match="non-finite.*'b#0'"):
            load_embeddings(path)


class TestEmbedCorpus:
    def test_sentence_level_ids_in_corpus_order(self, toy_table) -> None:
        docs = [
            doc("d1", ["A cat.", "A dog.", "Rain came."]),
            doc("d2", ["Apple pie.", "Snow fell."]),
        ]
        matrix = embed_corpus(docs, level="sentence", embedder=AvgEmbedder(toy_table))
        assert matrix.unit_ids == ["d1#0", "d1#1", "d1#2", "d2#0", "d2#1"]
        assert matrix.count == 5

    def test_single_sentence_doc_row_equals_sentence_row(self, toy_table) -> None:
        docs = [doc("d1", ["The cat sat."])]
        embedder = AvgEmbedder(toy_table)
        doc_matrix = embed_corpus(docs, level="document", embedder=embedder)
        sent_matrix = embed_corpus(docs, level="sentence", embedder=embedder)
        assert np.array_equal(doc_matrix.rows[0], sent_matrix.rows[0])

    def test_avg_rows_match_scripted_mean(self, toy_vectors_file, tmp_path) -> None:
        # Independent recomputation: parse the vector file with plain string
        # splitting and average in-vocabulary lowercased word tokens by hand.
        raw: dict[str, list[float]] = {}
        lines = toy_vectors_file.read_text(encoding="utf-8").splitlines()
        for line in lines[1:]:
            fields = line.split()
            raw.setdefault(fields[0].lower(), [float(x) for x in fields[1:]])

        texts = ["The cat saw a dog.", "Apple and banana bread.", "Storm then sun!"]
        docs = [doc("d1", texts)]
        from lha.embeddings import load_word_vectors

        table = load_word_vectors(toy_vectors_file)
        matrix = embed_corpus(docs, level="sentence", embedder=AvgEmbedder(table))

        import re

        for i, text in enumerate(texts):
            words = [w.lower() for w in re.findall(r"\w+", text)]
            hits = [raw[w] for w in words if w in raw]
            expected = np.array(hits, dtype=np.float64).mean(axis=0)
            expected /= np.linalg.norm(expected)
            assert np.allclose(matrix.rows[i], expected, atol=1e-6), text

    def test_document_level_uses_concatenated_tokens(self, toy_table) -> None:
        docs = [doc("d1", ["The cat.", "A dog!"])]
        matrix = embed_corpus(docs, level="document", embedder=AvgEmbedder(toy_table))
        expected = embed_avg(["cat", "dog"], toy_table)
        expected /= np.linalg.norm(expected)
        assert np.allclose(matrix.rows[0], expected, atol=1e-6)

    def test_normalize_flag(self, toy_table) -> None:
        docs = [doc("d1", ["The cat sat."]), doc("d2", ["Apple bread."])]
        matrix = embed_corpus(docs, level="document", embedder=AvgEmbedder(toy_table))
        norms = np.linalg.norm(matrix.rows.astype(np.float64), axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-6)
        assert matrix.unit_normalized

    def test_unknown_level_rejected(self, toy_table) -> None:
        with pytest.raises(ValueError, match="level"):
            embed_corpus([doc("d1", ["A."])], level="paragraph", embedder=AvgEmbedder(toy_table))

    def test_precomputed_missing_id_names_it(self, toy_table) -> None:
        source = EmbeddingMatrix(["d1#0"], np.ones((1, 3), dtype=np.float32))
        docs = [doc("d1", ["A cat.", "A dog."])]
        with pytest.raises(EmbeddingLookupError, match="d1#1"):
            embed_corpus(docs, level="sentence", embedder=PrecomputedEmbedder(source))

    def test_precomputed_passthrough(self) -> None:
        rows = np.array([[1, 2], [3, 4]], dtype=np.float32)
        source = EmbeddingMatrix(["d1#0", "d1#1"], rows)
        docs = [doc("d1", ["A.", "B."])]
        matrix = embed_corpus(docs, level="sentence", embedder=PrecomputedEmbedder(source))
        expected = rows / np.linalg.norm(rows.astype(np.float64), axis=1)[:, None]
        assert np.array_equal(matrix.rows, expected.astype(np.float32))
