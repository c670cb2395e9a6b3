"""Benchmark of the lha pipeline on seeded comparable corpora.

    python3 perfbench/run.py --workload wiki-cosine --seed 1 --seconds 55 --trace 0

Set-up (untimed) generates the workload's corpora and word vectors from the
seed, checks that the program's sentence splitter recovers the generated
sentences, and for ``wiki-resweep`` builds the warm output directory. The
timed phase then repeats one ``run_pipeline`` call per fresh process until
``--seconds`` have passed, checks every repetition's outputs and scores them
against the planted alignment. Each repetition's timings are scaled to the
nominal speed of the reference job in probe.py, which it times just before
its pipeline call; the wall times are printed beside them. ``--trace 1``
alternates traced and untraced repetitions and reports the per-layer table
instead.

A human-readable table goes to stdout; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1
when any repetition fails. ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Documents sized like short Wikipedia articles; enough of them that document
# retrieval is a material share of the run.
WIKI = gen.Shape(source_docs=500, matched=375, target_distractors=125,
                 sentences=(4, 9), words=(7, 13), topics=60,
                 topic_weight=0.3, on_topic=0.7)
# A few dozen short documents from few topics, so each source document
# retrieves several targets and transport LPs dominate the run.
WMD = gen.Shape(source_docs=24, matched=18, target_distractors=6,
                sentences=(3, 3), words=(5, 7), topics=4,
                topic_weight=0.45, on_topic=0.9)


@dataclass(frozen=True)
class Workload:
    shape: gen.Shape
    # Overrides of the timed run's config. With ``warm``, a run with the
    # default config is made in set-up and its output directory restored
    # before every repetition.
    config: dict = field(default_factory=dict)
    warm: bool = False


WORKLOADS = {
    "wiki-cosine": Workload(WIKI),
    "wiki-resweep": Workload(WIKI, {"theta_s": 0.7}, warm=True),
    # theta_s sits between the generator's planted and distractor WMD
    # similarity ranges.
    "wmd-exact": Workload(WMD, {"scorer": "wmd", "theta_s": 0.6}),
}

OUTPUTS = ("groups.jsonl", "doc_pairs.tsv", "manifest.json")
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sent_pairs_per_s": "1/s",
    "planted_recall": "ratio",
    "planted_precision": "ratio",
}
STAGES = ("embed_docs_src", "embed_docs_tgt", "index_docs", "align_docs",
          "embed_sents_src", "embed_sents_tgt", "align_sents", "summary")
PER_LAYER = {
    "corpus.load_corpus.calls": "count",
    "corpus.load_corpus.self_s": "s",
    "corpus.docs_parsed": "count",
    "corpus.tokenize.calls": "count",
    "corpus.tokenize.self_s": "s",
    "embeddings.load_word_vectors.s": "s",
    "embeddings.embed_corpus.document.self_s": "s",
    "embeddings.embed_corpus.sentence.self_s": "s",
    "embeddings.load_embeddings.calls": "count",
    "embeddings.io_s": "s",
    "ann_index.build_index.s": "s",
    "ann_index.io_s": "s",
    "ann_index.query.calls": "count",
    "ann_index.query.ms_per_query": "ms",
    "ann_index.exact_agreement": "ratio",
    "doc_align.align_documents.self_s": "s",
    "doc_align.doc_pairs": "count",
    "doc_align.planted_doc_recall": "ratio",
    "sent_align.align_sentences.self_s": "s",
    "sent_align.sentence_sim_matrix.calls": "count",
    "sent_align.extract_nn_pairs.s": "s",
    "sent_align.merge_groups.s": "s",
    "sent_align.filter_reason.calls": "count",
    "sent_align.filter_reason.s": "s",
    "sent_align.write_s": "s",
    "sent_align.raw_pairs": "count",
    "sent_align.merged_groups": "count",
    "sent_align.groups_out": "count",
    "sent_align.kept_ratio": "ratio",
    "metrics.matrix.cosine.s": "s",
    "metrics.matrix.wmd.s": "s",
    "metrics.cells": "count",
    "metrics.cells_per_s": "1/s",
    "metrics.linprog.calls": "count",
    "metrics.linprog.s": "s",
    "metrics.lp_share": "ratio",
    **{f"pipeline.stage.{name}.s": "s" for name in STAGES},
    "pipeline.cached_stages": "count",
    "pipeline.run_pipeline.self_s": "s",
    "pipeline.trace_overhead_s": "s",
}


class Inputs:
    """One workload's generated inputs and what the bench knows about them."""

    def __init__(self, work: Path, workload: Workload, seed: int):
        data, writer = gen.generate(seed, workload.shape)
        gen.write_inputs(data, writer, work)
        self.work = work
        self.source = {d["id"]: d["sentences"] for d in data.source}
        self.target = {d["id"]: d["sentences"] for d in data.target}
        self.planted = {(f"{s}#{i}", f"{t}#{j}") for s, i, t, j in data.planted_sents}
        self.planted_docs = set(data.planted_docs)
        base = {
            "source_corpus": str(work / "source.jsonl"),
            "target_corpus": str(work / "target.jsonl"),
            "word_vectors": str(work / "vectors.vec"),
            "out_dir": str(work / "out"),
        }
        self.config = {**base, **workload.config}
        self.warm = {**base, "out_dir": str(work / "warm")} if workload.warm else None

    def split_problem(self) -> str | None:
        """The program must split each text into the generated sentences,
        or sentence ids would not mean what the planted alignment says."""
        from lha.corpus import load_corpus

        for name, docs in (("source.jsonl", self.source), ("target.jsonl", self.target)):
            for doc in load_corpus(self.work / name):
                if [s.text for s in doc.sentences] != docs[doc.doc_id]:
                    return f"{name}: the splitter disagrees on document {doc.doc_id!r}"
        return None


def run_child(config: dict, config_path: Path, trace: bool, result_path: Path) -> dict:
    config_path.write_text(json.dumps(config), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    launch = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "rep.py"), str(config_path), repr(launch),
         "1" if trace else "0", str(result_path)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_lhae(path: Path) -> tuple[list[str], np.ndarray]:
    """Ids and rows of an ``.lhae`` file (layout in lha.embeddings), read
    without the program's own loader, whose output this check is about."""
    data = path.read_bytes()
    count, dim = int.from_bytes(data[7:15], "little"), int.from_bytes(data[15:19], "little")
    ids, at = [], 19
    for _ in range(count):
        n = int.from_bytes(data[at:at + 4], "little")
        ids.append(data[at + 4:at + 4 + n].decode("utf-8"))
        at += 4 + n
    rows = np.frombuffer(data, dtype="<f4", count=count * dim, offset=at)
    return ids, rows.reshape(count, dim).astype(np.float64)


def exact_agreement(out: Path, doc_pairs: dict[str, set[str]], k: int, theta_d: float) -> float:
    """Share of source documents whose retrieved targets equal the exact
    cosine top-k (ties by target id) above theta_d."""
    src_ids, src = read_lhae(out / "docs_source.lhae")
    tgt_ids, tgt = read_lhae(out / "docs_target.lhae")
    src_norm, tgt_norm = np.linalg.norm(src, axis=1), np.linalg.norm(tgt, axis=1)
    keep = np.flatnonzero(tgt_norm > 0)
    sims = (src @ tgt[keep].T) / np.outer(np.where(src_norm > 0, src_norm, 1), tgt_norm[keep])
    rank_of_id = np.argsort(np.argsort(np.array(tgt_ids)[keep]))
    agree = total = 0
    for i, sid in enumerate(src_ids):
        if src_norm[i] == 0:
            continue
        top = np.lexsort((rank_of_id, -sims[i]))[:k]
        exact = {tgt_ids[keep[j]] for j in top if sims[i, j] >= theta_d}
        agree += exact == doc_pairs.get(sid, set())
        total += 1
    return agree / total if total else 0.0


def check_and_score(inputs: Inputs, config: dict) -> tuple[list[str], dict, dict]:
    """Output checks, planted-alignment scores and the outputs' digests."""
    out = Path(config["out_dir"])
    problems: list[str] = []
    theta_s = config.get("theta_s", 0.65)
    sides = (("source", inputs.source), ("target", inputs.target))
    covered: set[tuple[str, str]] = set()
    with_planted = n_groups = 0
    groups = (out / "groups.jsonl").read_text("utf-8").splitlines()
    for line_no, line in enumerate(groups, 1):
        g = json.loads(line)
        n_groups += 1
        for side, docs in sides:
            sents = docs.get(g[f"{side}_doc"])
            texts = []
            for uid in g[f"{side}_ids"]:
                doc_id, _, ordinal = uid.rpartition("#")
                if sents is None or doc_id != g[f"{side}_doc"] or not ordinal.isdigit() \
                        or int(ordinal) >= len(sents):
                    problems.append(f"groups.jsonl:{line_no}: no {side} sentence {uid!r}")
                    break
                texts.append(sents[int(ordinal)])
            else:
                if " ".join(texts) != g[f"{side}_text"]:
                    problems.append(f"groups.jsonl:{line_no}: {side} text does not match ids")
        if not g["score"] >= theta_s:
            problems.append(f"groups.jsonl:{line_no}: score {g['score']} < theta_s {theta_s}")
        hits = {(s, t) for s in g["source_ids"] for t in g["target_ids"]} & inputs.planted
        covered |= hits
        with_planted += bool(hits)
    doc_pairs: dict[str, set[str]] = {}
    candidates = 0
    for line in (out / "doc_pairs.tsv").read_text("utf-8").splitlines():
        s, t, _ = line.split("\t")
        if s not in inputs.source or t not in inputs.target:
            problems.append(f"doc_pairs.tsv: unknown document in {s!r}, {t!r}")
            continue
        doc_pairs.setdefault(s, set()).add(t)
        candidates += len(inputs.source[s]) * len(inputs.target[t])
    stats = json.loads((out / "align_stats.json").read_text("utf-8"))
    n_pairs = sum(len(ts) for ts in doc_pairs.values())
    scores = {
        "candidates": candidates,
        "planted_recall": len(covered) / len(inputs.planted),
        "planted_precision": with_planted / n_groups if n_groups else 0.0,
        "doc_align.doc_pairs": n_pairs,
        "doc_align.planted_doc_recall": sum(
            t in doc_pairs.get(s, ()) for s, t in inputs.planted_docs
        ) / len(inputs.planted_docs),
        "ann_index.exact_agreement": exact_agreement(
            out, doc_pairs, config.get("k_doc", 5), config.get("theta_d", 0.5)),
        "sent_align.raw_pairs": stats["raw_sentence_pairs"],
        "sent_align.merged_groups": stats["merged_groups"],
        "sent_align.groups_out": stats["groups"],
        "sent_align.kept_ratio": stats["groups"] / stats["merged_groups"]
        if stats["merged_groups"] else 0.0,
    }
    digests = {name: sha256(out / name) for name in OUTPUTS}
    return problems, scores, digests


def layer_metrics(r: dict, scores: dict) -> dict[str, float]:
    """Per-layer values of one traced repetition."""
    calls, secs, self_s, counts = r["calls"], r["seconds"], r["self_seconds"], r["counts"]
    g = lambda d, k: d.get(k, 0)  # noqa: E731
    matrix_s = g(secs, "metrics.matrix.cosine") + g(secs, "metrics.matrix.wmd")
    cells = g(counts, "metrics.cells")
    queries = g(calls, "ann_index.query")
    out = {
        "corpus.load_corpus.calls": g(calls, "corpus.load_corpus"),
        "corpus.load_corpus.self_s": g(self_s, "corpus.load_corpus"),
        "corpus.docs_parsed": g(counts, "corpus.load_corpus.items"),
        "corpus.tokenize.calls": g(calls, "corpus.tokenize"),
        "corpus.tokenize.self_s": g(self_s, "corpus.tokenize"),
        "embeddings.load_word_vectors.s": g(secs, "embeddings.load_word_vectors"),
        "embeddings.embed_corpus.document.self_s": g(self_s, "embeddings.embed_corpus.document"),
        "embeddings.embed_corpus.sentence.self_s": g(self_s, "embeddings.embed_corpus.sentence"),
        "embeddings.load_embeddings.calls": g(calls, "embeddings.load_embeddings"),
        "embeddings.io_s": g(secs, "embeddings.load_embeddings") + g(secs, "embeddings.save_embeddings"),
        "ann_index.build_index.s": g(secs, "ann_index.build_index"),
        "ann_index.io_s": g(secs, "ann_index.save") + g(secs, "ann_index.load"),
        "ann_index.query.calls": queries,
        "ann_index.query.ms_per_query": 1000 * g(secs, "ann_index.query") / queries if queries else 0.0,
        "doc_align.align_documents.self_s": g(self_s, "doc_align.align_documents"),
        "sent_align.align_sentences.self_s": g(self_s, "sent_align.align_sentences"),
        "sent_align.sentence_sim_matrix.calls": g(calls, "sent_align.sentence_sim_matrix"),
        "sent_align.extract_nn_pairs.s": g(secs, "sent_align.extract_nn_pairs"),
        "sent_align.merge_groups.s": g(secs, "sent_align.merge_groups"),
        "sent_align.filter_reason.calls": g(calls, "sent_align.filter_reason"),
        "sent_align.filter_reason.s": g(secs, "sent_align.filter_reason"),
        "sent_align.write_s": g(secs, "sent_align.write_groups") + g(secs, "sent_align.write_groups_tsv"),
        "metrics.matrix.cosine.s": g(secs, "metrics.matrix.cosine"),
        "metrics.matrix.wmd.s": g(secs, "metrics.matrix.wmd"),
        "metrics.cells": cells,
        "metrics.cells_per_s": cells / matrix_s if matrix_s else 0.0,
        "metrics.linprog.calls": g(calls, "metrics.linprog"),
        "metrics.linprog.s": g(secs, "metrics.linprog"),
        "metrics.lp_share": g(calls, "metrics.linprog") / cells if cells else 0.0,
        **{f"pipeline.stage.{n}.s": g(r["stages"], n) for n in STAGES},
        "pipeline.cached_stages": len(r["cached_stages"]),
        "pipeline.run_pipeline.self_s": g(self_s, "pipeline.run_pipeline"),
    }
    out.update((k, v) for k, v in scores.items() if k in PER_LAYER)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    work = WORK / f"{name}-{seed}-{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = Inputs(work, workload, seed)
    result = {"workload": name, "seed": seed, "trace": trace, "digests": None,
              "metrics": {}, "samples": {}}
    problem = inputs.split_problem()
    if problem is None and inputs.warm is not None:
        try:
            run_child(inputs.warm, work / "warm.json", False, work / "warm-result.json")
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            problem = f"warm run: {e}"
    if problem is not None:
        return {**result, "attempted": 1, "failed": 1, "failures": [problem], "failed_ratio": 1.0}

    out = Path(inputs.config["out_dir"])
    samples: dict[str, list[float]] = {}
    traced: list[dict] = []
    untraced_run_s: list[float] = []
    failures: list[str] = []
    digests: dict | None = None
    durations: list[float] = []
    attempted = 0
    min_reps = 4 if trace else 3
    start = time.monotonic()
    while True:
        rep_start = time.monotonic()
        traced_rep = trace and attempted % 2 == 1
        attempted += 1
        shutil.rmtree(out, ignore_errors=True)
        if inputs.warm is not None:
            shutil.copytree(inputs.warm["out_dir"], out)
        try:
            r = run_child(inputs.config, work / "config.json", traced_rep, work / "result.json")
            problems, scores, rep_digests = check_and_score(inputs, inputs.config)
        except (RuntimeError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
            problems, r = [f"{type(e).__name__}: {e}"], None
        if r is not None and digests is None:
            digests = rep_digests
        elif r is not None and rep_digests != digests:
            problems.append("outputs differ from the first repetition: " + ", ".join(
                k for k in OUTPUTS if rep_digests[k] != digests[k]))
        if problems:
            failures.append(f"repetition {attempted}: " + "; ".join(problems[:5]))
        elif traced_rep:
            traced.append({"run_s": r["run_s"], **layer_metrics(r, scores)})
            (work / "spans.json").write_text(json.dumps(r["spans"]), encoding="utf-8")
        else:
            untraced_run_s.append(r["run_s"])
            # Scaled to the probe's nominal speed: a repetition that ran in
            # a slow phase of the machine ran its probe slower by the same share.
            speed = probe.NOMINAL_S / r["probe_s"]
            for metric, value in (
                ("run_s", r["run_s"] * speed),
                ("setup_s", r["setup_s"] * speed),
                ("peak_rss_mb", r["peak_rss_mb"]),
                ("sent_pairs_per_s", scores["candidates"] / (r["run_s"] * speed)),
                ("planted_recall", scores["planted_recall"]),
                ("planted_precision", scores["planted_precision"]),
                ("wall_run_s", r["run_s"]),
                ("wall_setup_s", r["setup_s"]),
                ("probe_s", r["probe_s"]),
            ):
                samples.setdefault(metric, []).append(value)
        durations.append(time.monotonic() - rep_start)
        now = time.monotonic()
        if attempted >= min_reps and now + statistics.median(durations) > start + seconds:
            break
    shutil.rmtree(out, ignore_errors=True)

    metrics: dict[str, dict] = {}
    # Wall times and the probe, printed beside the scaled timings.
    extra: dict[str, dict] = {}
    if trace and traced and untraced_run_s:
        layer = {k: statistics.median(t[k] for t in traced) for k in PER_LAYER if k in traced[0]}
        layer["pipeline.trace_overhead_s"] = (
            statistics.median(t["run_s"] for t in traced) - statistics.median(untraced_run_s))
        metrics = {k: {"value": layer[k], "unit": PER_LAYER[k], "n": len(traced)} for k in PER_LAYER}
    elif not trace and samples:
        units = {**END_TO_END, "wall_run_s": "s", "wall_setup_s": "s", "probe_s": "s"}
        for k, unit in units.items():
            q1, med, q3 = quartiles(samples[k])
            (metrics if k in END_TO_END else extra)[k] = {
                "value": med, "unit": unit, "n": len(samples[k]), "q1": q1, "q3": q3}
    return {**result, "attempted": attempted, "failed": len(failures), "failures": failures,
            "failed_ratio": len(failures) / attempted, "digests": digests,
            "metrics": metrics, "extra": extra, "samples": samples}


def print_table(result: dict) -> None:
    print(f"== {result['workload']} seed={result['seed']} trace={int(result['trace'])} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"failed_ratio={result['failed_ratio']:.3f}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(f"  {'metric':44} {'unit':6} {'n':>3} {'median':>14} {'spread':>8}")
    for name, m in {**result["metrics"], **result.get("extra", {})}.items():
        spread = ""
        if "q1" in m and m["value"]:
            spread = f"{(m['q3'] - m['q1']) / abs(m['value']):8.4f}"
        print(f"  {name:44} {m['unit']:6} {m['n']:3d} {m['value']:14.6g} {spread:>8}")
    if result["digests"]:
        for k, v in result["digests"].items():
            print(f"  sha256 {k:14} {v}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full results here as JSON")
    args = parser.parse_args()
    if not (SRC / "lha" / "pipeline.py").is_file():
        print(f"error: no lha sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for result in results:
        print_table(result)
    if args.out:
        args.out.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    failed = sum(r["failed"] for r in results)
    prefix = (lambda r: "") if len(results) == 1 else (lambda r: r["workload"] + ".")
    final = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": {prefix(r) + k: {"value": m["value"], "unit": m["unit"]}
                    for r in results for k, m in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
