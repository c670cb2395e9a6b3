"""Every name in the ``__all__`` of an ``lha`` module resolves, so a deleted
function or class cannot leave a stale export behind; and no module imports
a name it never uses, unless it says why."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

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


SRC = Path(__file__).resolve().parent.parent / "src" / "lha"


def _unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name ``path`` imports and never uses: no load of
    it, no attribute read through it, and not in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {
        elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append((node.lineno, name))
    return unused


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path) -> None:
    # An import kept on purpose says so: "# noqa: F401" on its line, and a
    # comment on the line above that gives the reason.
    lines = path.read_text(encoding="utf-8").splitlines()
    unexplained = [
        (line, name) for line, name in _unused_imports(path)
        if not (lines[line - 1].endswith("# noqa: F401")
                and lines[line - 2].lstrip().startswith("#"))
    ]
    assert unexplained == []
