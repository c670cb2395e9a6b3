"""Seeded generator of comparable corpora with a planted sentence alignment.

The source side reads like Wikipedia and the target side like Simple
Wikipedia. Each matched target document is a lightly edited subset of one
source document's sentences; both sides also hold unmatched distractor
documents. About half the matched target documents reuse their source
counterpart's id, as English and Simple Wikipedia articles do.

Words are pseudo-words grouped into topics. A word's vector is a shared topic
direction plus a larger private part, so documents of one topic retrieve each
other while unrelated sentences of one topic still score well below a planted
pair. The planted alignment is returned to the caller and never written
where the program under test reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIM = 100
VOCAB = 20_000

# Every entry is on the bundled English stop list, so the scorers' content
# filters drop them while averaged embeddings still see them.
FUNCTION_WORDS = (
    "the", "of", "and", "in", "a", "to", "is", "was", "for", "on", "with", "as",
    "by", "it", "that", "from", "at", "an", "which", "its", "are", "were", "be",
    "has", "had", "this", "their", "into", "after", "during", "between", "most",
)
PUNCT_WORDS = (".", ",", '"', "(", ")")
# Abbreviations and initials that sit inside a sentence, so the splitter must
# not break after their period.
TITLES = ("Dr.", "St.", "Mt.", "Prof.", "Gen.", "J.", "R.")
_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
_FINALS = "kxz"
_OPEN, _CLOSE = "\x01", "\x02"


@dataclass(frozen=True)
class Shape:
    """Sizes of one generated workload."""

    source_docs: int
    matched: int
    target_distractors: int
    sentences: tuple[int, int]
    words: tuple[int, int]
    topics: int
    topic_weight: float
    on_topic: float


@dataclass
class Corpora:
    source: list[dict]
    target: list[dict]
    # (source doc, source ordinal, target doc, target ordinal)
    planted_sents: list[tuple[str, int, str, int]]
    planted_docs: list[tuple[str, str]]


def _pseudo_words(rng: np.random.Generator, n: int) -> list[str]:
    # Consonant-vowel syllables plus a final k/x/z: no English stop word or
    # abbreviation has that shape.
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    words: dict[str, None] = {}
    while len(words) < n:
        k = int(rng.integers(2, 4))
        word = "".join(syllables[i] for i in rng.integers(0, len(syllables), k))
        words.setdefault(word + _FINALS[int(rng.integers(0, len(_FINALS)))])
    return list(words)


def _unit_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    rows = rng.standard_normal((n, DIM))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class _Writer:
    """Draws sentences and documents for one workload."""

    def __init__(self, rng: np.random.Generator, shape: Shape):
        self.rng = rng
        self.shape = shape
        n_content = VOCAB - len(FUNCTION_WORDS) - len(PUNCT_WORDS)
        self.words = _pseudo_words(rng, n_content)
        self.topic_of = rng.integers(0, shape.topics, n_content)
        self.by_topic = [np.flatnonzero(self.topic_of == t) for t in range(shape.topics)]
        centres = _unit_rows(rng, shape.topics)
        w = shape.topic_weight
        self.vectors = w * centres[self.topic_of] + np.sqrt(1 - w * w) * _unit_rows(
            rng, n_content
        )
        self.used_ids: set[str] = set()

    def word(self, topic: int) -> str:
        rng = self.rng
        if rng.random() < self.shape.on_topic:
            pool = self.by_topic[topic]
            return self.words[pool[int(rng.integers(0, len(pool)))]]
        return self.words[int(rng.integers(0, len(self.words)))]

    def doc_id(self, topic: int) -> str:
        while True:
            doc_id = "_".join(self.word(topic).capitalize() for _ in range(2))
            if doc_id not in self.used_ids:
                self.used_ids.add(doc_id)
                return doc_id

    def sentence(self, topic: int) -> list[str]:
        """Tokens of one sentence; content words are lowercase pseudo-words."""
        rng = self.rng
        lo, hi = self.shape.words
        n = int(rng.integers(lo, hi + 1))
        tokens: list[str] = []
        for i in range(n):
            if i and rng.random() < 0.5:
                tokens.append(FUNCTION_WORDS[int(rng.integers(0, len(FUNCTION_WORDS)))])
            tokens.append(self.word(topic))
        roll = rng.random()
        if roll < 0.15:
            title = TITLES[int(rng.integers(0, len(TITLES)))]
            at = int(rng.integers(1, len(tokens)))
            tokens[at:at] = ["by", f"{title} {self.word(topic).capitalize()}"]
        elif roll < 0.25:
            at = int(rng.integers(1, len(tokens)))
            tokens[at:at] = ["(", f"born {int(rng.integers(1800, 2000))}", ")"]
        elif roll < 0.32:
            tokens[1:1] = ["in", f"{int(rng.integers(1, 99))}.{int(rng.integers(0, 10))}"]
        roll = rng.random()
        if roll < 0.08:
            tokens[len(tokens) // 2 : len(tokens) // 2] = ["said", _OPEN]
            tokens += [".", _CLOSE]
            return tokens
        if roll < 0.14:
            tokens = [_OPEN, tokens[0], _CLOSE] + tokens[1:]
        return tokens + ["."]

    def edit(self, tokens: list[str], topic: int) -> list[str]:
        """A light Simple-Wikipedia-style edit: drop or swap a content word,
        drop a parenthetical."""
        out = list(tokens)
        if "(" in out and self.rng.random() < 0.5:
            at = out.index("(")
            del out[at : at + 3]
        content = [i for i, t in enumerate(out) if _is_content(t)]
        if len(content) > 4 and self.rng.random() < 0.5:
            del out[content[int(self.rng.integers(1, len(content)))]]
            content = [i for i, t in enumerate(out) if _is_content(t)]
        if self.rng.random() < 0.5:
            out[content[int(self.rng.integers(1, len(content)))]] = self.word(topic)
        return out

    def split(self, tokens: list[str]) -> list[list[str]] | None:
        """Split a plain sentence into two, as simplification often does."""
        if tokens[-1] != "." or _OPEN in tokens or "(" in tokens:
            return None
        content = [i for i, t in enumerate(tokens) if _is_content(t)]
        if len(content) < 8:
            return None
        cut = content[len(content) // 2]
        return [tokens[:cut] + ["."], ["this", "was"] + tokens[cut:]]


def _is_content(token: str) -> bool:
    return token.isalpha() and token.islower() and token not in FUNCTION_WORDS


def render(tokens: list[str]) -> str:
    """Join tokens into sentence text, capitalising the first word."""
    text = ""
    glue = False
    for t in tokens:
        if t == _OPEN:
            text += (" " if text else "") + '"'
            glue = True
            continue
        if t in (".", ",", ")", _CLOSE):
            text += '"' if t == _CLOSE else t
        elif glue or not text:
            text += t
        else:
            text += " " + t
        glue = t == "("
    at = 1 if text.startswith('"') else 0
    return text[:at] + text[at].upper() + text[at + 1 :]


def generate(seed: int, shape: Shape) -> tuple[Corpora, _Writer]:
    """Draw both corpora and the planted alignment for one seed."""
    rng = np.random.default_rng(seed)
    w = _Writer(rng, shape)
    lo, hi = shape.sentences
    source: list[dict] = []
    target: list[dict] = []
    planted_sents: list[tuple[str, int, str, int]] = []
    planted_docs: list[tuple[str, str]] = []
    # Topics are dealt round-robin, document lengths are a shuffled fixed
    # multiset and each matched document keeps a fixed share of its
    # sentences, so the work per run varies little with the seed.
    lengths = rng.permutation(np.resize(np.arange(lo, hi + 1), shape.source_docs))
    for d in range(shape.source_docs):
        topic = d % shape.topics
        src_id = w.doc_id(topic)
        sents = [w.sentence(topic) for _ in range(int(lengths[d]))]
        source.append({"id": src_id, "title": src_id.replace("_", " "),
                       "sentences": [render(s) for s in sents]})
        if d >= shape.matched:
            continue
        # Every other matched target reuses its source's id, as English and
        # Simple Wikipedia articles often do; ids that hide a cross-corpus id
        # collision would make the benchmark blind to it.
        tgt_id = src_id if d % 2 == 0 else w.doc_id(topic)
        tgt_sents: list[str] = []
        kept = set(rng.choice(len(sents), max(1, round(0.7 * len(sents))), replace=False))
        for i, s in enumerate(sents):
            if i not in kept:
                continue
            edited = w.edit(s, topic)
            parts = (w.split(edited) if rng.random() < 0.1 else None) or [edited]
            for part in parts:
                planted_sents.append((src_id, i, tgt_id, len(tgt_sents)))
                tgt_sents.append(render(part))
            if rng.random() < 0.1:
                tgt_sents.append(render(w.sentence(topic)))
        target.append({"id": tgt_id, "sentences": tgt_sents})
        planted_docs.append((src_id, tgt_id))
    for d in range(shape.target_distractors):
        topic = d % shape.topics
        target.append({"id": w.doc_id(topic), "sentences": [
            render(w.sentence(topic)) for _ in range(int(lengths[d]))]})
    rng.shuffle(source)
    rng.shuffle(target)
    return Corpora(source, target, planted_sents, planted_docs), w


def write_inputs(corpora: Corpora, writer: _Writer, out: Path) -> None:
    """Write the program's inputs: raw-text JSONL on both sides and a .vec file."""
    out.mkdir(parents=True, exist_ok=True)
    for name, docs in (("source.jsonl", corpora.source), ("target.jsonl", corpora.target)):
        with open(out / name, "w", encoding="utf-8") as fh:
            for doc in docs:
                record = {k: v for k, v in doc.items() if k != "sentences"}
                record["text"] = " ".join(doc["sentences"])
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    rng = writer.rng
    small = 0.3 * _unit_rows(rng, len(FUNCTION_WORDS) + len(PUNCT_WORDS))
    rows = np.vstack([small, writer.vectors])
    words = list(FUNCTION_WORDS) + list(PUNCT_WORDS) + writer.words
    with open(out / "vectors.vec", "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {DIM}\n")
        for word, row in zip(words, rows):
            fh.write(word + " " + " ".join(f"{x:.4f}" for x in row) + "\n")
