"""The names the benchmark's tracer patches must exist in the program.

``perfbench/spans.py`` wraps functions, generators and methods of ``lha`` by
name, from outside ``src/``. A rename there would only show as failed
benchmark repetitions; this test makes it show here. The module is imported
and read, never installed.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

import pytest

import lha.pipeline

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
