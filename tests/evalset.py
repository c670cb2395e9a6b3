"""A generated evaluation set: the six files ``load_eval_dataset`` reads,
built from one seed of the benchmark's corpus generator.

``perfbench/gen.py`` plants a document and a sentence alignment among
distractor documents; it is imported by path, never edited. From its output:

- the planted document pairs are the gold article pairs (``doc_pairs.tsv``);
- planted sentence pairs are labelled good, and every other sentence pair of
  a planted document pair (same topic, not planted) nonvalid;
- the unplanted documents whose topic no planted document has are the noise
  pools, so no noise article is a near-duplicate of a gold one;
- target ids carry a prefix of their own, since the generator lets matched
  documents share ids and a one-matrix eval flag refuses shared ids.

The word-vector file holds the words of the set only, with the values the
generator's own ``write_inputs`` would write for them.
"""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from collections import Counter
from pathlib import Path

GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
TARGET_PREFIX = "T-"


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


gen = _load_gen()

# Every source document has a topic of its own. The first 40 are planted;
# the other 60, and the 60 target distractors past the first 40 (distractor
# d has topic d), are the noise. A topic has about ten words and nine words
# in ten are on topic, so the unplanted sentence pairs of a planted document
# pair share many words and no scorer separates the classes.
SHAPE = gen.Shape(source_docs=100, matched=40, target_distractors=100,
                  sentences=(3, 6), words=(6, 10), topics=2000,
                  topic_weight=0.6, on_topic=0.9)

_WORD = re.compile(r"[a-z]+")


def write_eval_set(out: Path, seed: int = 1) -> tuple[Path, Path]:
    """Write the set of ``seed`` under ``out``: its data directory and its
    ``.vec`` file."""
    corpora, writer = gen.generate(seed, SHAPE)
    topic_of = dict(zip(writer.words, writer.topic_of.tolist()))

    def topic(doc: dict) -> int:
        """The topic most of the document's words are drawn from."""
        words = (w for s in doc["sentences"] for w in _WORD.findall(s.lower()))
        return Counter(topic_of[w] for w in words if w in topic_of).most_common(1)[0][0]

    src = {d["id"]: d for d in corpora.source}
    tgt = {TARGET_PREFIX + d["id"]: d for d in corpora.target}
    pairs = [(s, TARGET_PREFIX + t) for s, t in corpora.planted_docs]
    planted = {s for s, _ in pairs} | {t for _, t in pairs}
    gold_topics = {topic(src[s]) for s, _ in pairs}
    noise = [{i: d for i, d in side.items() if i not in planted and topic(d) not in gold_topics}
             for side in (src, tgt)]

    good = {(f"{s}#{i}", f"{TARGET_PREFIX}{t}#{j}") for s, i, t, j in corpora.planted_sents}
    gold = [
        {"source_key": key[0], "target_key": key[1],
         "label": "good" if key in good else "nonvalid"}
        for s, t in pairs
        for key in ((f"{s}#{i}", f"{t}#{j}") for i in range(len(src[s]["sentences"]))
                    for j in range(len(tgt[t]["sentences"])))
    ]

    data = out / "data"
    data.mkdir(parents=True)
    files = {
        "source_docs.jsonl": [(s, src[s]) for s, _ in pairs],
        "target_docs.jsonl": [(t, tgt[t]) for _, t in pairs],
        "noise_source_docs.jsonl": list(noise[0].items()),
        "noise_target_docs.jsonl": list(noise[1].items()),
    }
    for name, docs in files.items():
        (data / name).write_text("".join(
            json.dumps({"id": i, "sentences": d["sentences"]}) + "\n" for i, d in docs
        ), encoding="utf-8")
    (data / "doc_pairs.tsv").write_text("".join(f"{s}\t{t}\n" for s, t in pairs),
                                        encoding="utf-8")
    (data / "gold_pairs.jsonl").write_text("".join(json.dumps(g) + "\n" for g in gold),
                                           encoding="utf-8")

    # write_inputs' rows: function words and punctuation are drawn after the
    # corpora, then every content word has its row from the generator.
    special = list(gen.FUNCTION_WORDS) + list(gen.PUNCT_WORDS)
    rows = dict(zip(special, 0.3 * gen._unit_rows(writer.rng, len(special))))
    used = {w for docs in files.values() for _, d in docs
            for s in d["sentences"] for w in _WORD.findall(s.lower())}
    rows.update((w, v) for w, v in zip(writer.words, writer.vectors) if w in used)
    vectors = out / "vectors.vec"
    with open(vectors, "w", encoding="utf-8") as fh:
        fh.write(f"{len(rows)} {gen.DIM}\n")
        for word, row in rows.items():
            fh.write(word + " " + " ".join(f"{x:.4f}" for x in row) + "\n")
    return data, vectors
