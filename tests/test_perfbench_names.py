"""The names the benchmark's tracer patches must exist in the program.

``perfbench/spans.py`` wraps functions, generators and methods of ``lha`` by
name, from outside ``src/``. A rename there would only show as failed
benchmark repetitions; this test makes it show here. The module is imported
and read, never installed.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import inspect
import json
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import lha.pipeline
import lha.sent_align
from conftest import child_env
from test_pipeline import make_workspace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patched_functions_exist(spans) -> None:
    for module, attr, _ in (*spans._FUNCTIONS, *spans._GENERATORS):
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    for attr, _ in spans.SETUP_LOADS:
        assert callable(getattr(lha.pipeline, attr, None)), f"lha.pipeline.{attr}"
    assert callable(lha.pipeline.embed_corpus)


def test_patched_generators_are_generators(spans) -> None:
    for module, attr, _ in spans._GENERATORS:
        assert inspect.isgeneratorfunction(getattr(module, attr)), attr


def test_index_methods(spans) -> None:
    index = spans.AnnIndex
    assert callable(index.query) and callable(index.save)
    assert isinstance(inspect.getattr_static(index, "load"), classmethod)


def test_scorer_matrix_and_kind(spans) -> None:
    for cls in (spans.CosineScorer, spans.WmdScorer):
        assert callable(cls.matrix), cls.__name__
        assert isinstance(cls.kind, str), cls.__name__


def test_cosine_run_calls_the_traced_sentence_layers(spans, tmp_path, monkeypatch) -> None:
    """The tracer times the sentence stage's layers by patching their names
    in ``lha.sent_align``; a cosine run must call each through those names,
    or traced runs stop showing it."""
    names = {attr for module, attr, _ in spans._FUNCTIONS
             if module is lha.sent_align and attr != "tokenize"}
    assert names == {"sentence_sim_matrix", "extract_nn_pairs", "merge_groups",
                     "filter_reason"}
    calls: Counter = Counter()
    for name in names:
        def counted(*args, _fn=getattr(lha.sent_align, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(lha.sent_align, name, counted)
    config = make_workspace(tmp_path)
    assert config.scorer == "cosine"
    lha.pipeline.run_pipeline(config)
    assert set(calls) == names and all(calls.values()), calls


def test_traced_repetition_runs_the_wmd_stage(tmp_path) -> None:
    """One traced benchmark repetition of a ``scorer=wmd`` run: the tracer
    wraps ``WmdScorer.matrix`` as ``matrix(xs, ys)``, so the run must score
    through that signature, and the gate leaves fewer LPs than cells."""
    config = dataclasses.replace(make_workspace(tmp_path), scorer="wmd")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dataclasses.asdict(config)), encoding="utf-8")
    result_path = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "rep.py"), str(config_path),
         str(time.monotonic()), "1", str(result_path)],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text(encoding="utf-8"))
    cells = result["counts"]["metrics.cells"]
    assert result["calls"]["metrics.matrix.wmd"] > 0
    assert result["calls"].get("metrics.linprog", 0) < cells
