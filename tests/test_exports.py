"""Every name in the ``__all__`` of an ``lha`` module resolves, so a deleted
function or class cannot leave a stale export behind."""

from __future__ import annotations

import importlib

import pytest

MODULES = [
    "lha",
    "lha.ann_index",
    "lha.corpus",
    "lha.doc_align",
    "lha.embeddings",
    "lha.evaluate",
    "lha.metrics",
    "lha.pipeline",
    "lha.sent_align",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name) -> None:
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
