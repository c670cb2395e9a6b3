"""The output files the benchmark reads must be written by a pipeline run.

``perfbench/run.py`` checks and digests the files in its ``OUTPUTS`` tuple
and reads counts from ``align_stats.json`` in every repetition. A change
that stopped writing one of them would only show as failed benchmark
repetitions; this test makes it show here. ``run.py`` is read as text,
never imported or run.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

from lha.pipeline import run_pipeline
from test_pipeline import make_workspace

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def bench_outputs() -> tuple[str, ...]:
    """The literal value of ``OUTPUTS`` in run.py."""
    for node in ast.parse(RUN.read_text("utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "OUTPUTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("run.py defines no OUTPUTS")


def test_outputs_the_benchmark_reads_exist(tmp_path) -> None:
    config = make_workspace(tmp_path)
    run_pipeline(config)
    out_dir = Path(config.out_dir)
    outputs = bench_outputs()
    assert {"groups.jsonl", "doc_pairs.tsv", "manifest.json"} <= set(outputs)
    for name in outputs:
        assert (out_dir / name).is_file(), name

    stats = json.loads((out_dir / "align_stats.json").read_text("utf-8"))
    read_keys = set(re.findall(r'stats\["(\w+)"\]', RUN.read_text("utf-8")))
    assert {"raw_sentence_pairs", "merged_groups", "groups"} <= read_keys
    for key in read_keys:
        assert isinstance(stats[key], int), key
