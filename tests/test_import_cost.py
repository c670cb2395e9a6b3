"""No command or run imports scipy, and a run maps one OpenBLAS library.

Transport LPs are solved by ``lha.metrics`` itself and ground costs come
from its own distance kernel, so scipy is needed only by the test suite.
Each case runs in a fresh interpreter and reads its ``sys.modules`` and
memory maps at the end. ``lha.metrics.linprog`` still resolves, lazily,
because the benchmark's tracer patches that name.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env, write_jsonl
from test_pipeline import make_workspace

_PRELUDE = """
import sys
import lha.metrics
real_plan = lha.metrics._transport_plan
lps = []
lha.metrics._transport_plan = lambda *args: lps.append(1) or real_plan(*args)
"""

_EPILOGUE = """
import os
with open("/proc/self/maps") as fh:
    fields = [line.split(maxsplit=5) for line in fh]
print(json.dumps({
    "lps": len(lps),
    "scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
    "openblas": sorted({f[5].strip() for f in fields
                        if len(f) == 6 and "openblas" in os.path.basename(f[5])}),
}))
"""


def _run(body: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", "import json\n" + _PRELUDE + body + _EPILOGUE],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _config(tmp_path: Path, **changes) -> str:
    config = dataclasses.replace(make_workspace(tmp_path), **changes)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dataclasses.asdict(config)), encoding="utf-8")
    return str(path)


def test_importing_the_cli_leaves_out_scipy() -> None:
    assert _run("import lha.cli\nimport lha.pipeline\n")["scipy"] == []


def test_validate_leaves_out_scipy(tmp_path) -> None:
    body = (
        "from lha.cli import main\n"
        f"try:\n    main(['validate', '--config', {_config(tmp_path)!r}])\n"
        "except SystemExit as stop:\n    assert not stop.code\n"
    )
    assert _run(body)["scipy"] == []


@pytest.mark.parametrize("scorer", ["cosine", "rwmd", "wmd"])
def test_a_run_leaves_out_scipy(tmp_path, scorer) -> None:
    path = _config(tmp_path, scorer=scorer)
    # Two in-vocabulary words a side, so the wmd run solves LPs.
    write_jsonl(tmp_path / "source.jsonl", [
        {"id": "s1", "sentences": ["The cat and dog sat.", "An apple fell."]},
    ])
    write_jsonl(tmp_path / "target.jsonl", [
        {"id": "t1", "sentences": ["A kitten and puppy sat.", "A banana fell."]},
    ])
    body = (
        "from lha.pipeline import PipelineConfig, run_pipeline\n"
        f"with open({path!r}) as fh:\n"
        "    run_pipeline(PipelineConfig(**json.load(fh)))\n"
    )
    result = _run(body)
    assert result["scipy"] == []
    assert (result["lps"] > 0) == (scorer == "wmd")
    if scorer == "cosine":
        # numpy's own OpenBLAS at most: one thread pool, not two.
        assert len(result["openblas"]) <= 1, result["openblas"]


def test_linprog_resolves_lazily() -> None:
    body = (
        "import scipy.optimize\n"
        "assert getattr(lha.metrics, 'linprog') is scipy.optimize.linprog\n"
        "try:\n    lha.metrics.milp\nexcept AttributeError:\n    pass\n"
        "else:\n    raise AssertionError('milp resolved')\n"
    )
    assert "scipy.optimize" in _run(body)["scipy"]
