"""Every script in demos/ and every Python block of README.md runs to the end."""

from __future__ import annotations

import ast
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S
)


def test_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    # demos that write files (07_map.py) write them under the working directory
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out


def stated_values(block: str) -> list[tuple[str, object]]:
    """The (expression, value) pairs a block states as `expression  # value`."""
    stated = []
    for line in block.splitlines():
        code, sep, comment = line.partition("#")
        if not sep or not code.strip():
            continue
        try:
            ast.parse(code.strip(), mode="eval")
            value = ast.literal_eval(comment.strip())
        except (SyntaxError, ValueError):
            continue
        stated.append((code.strip(), value))
    return stated


def test_readme_quick_start_states_its_values():
    assert stated_values(README_BLOCKS[0]) == [
        ("out.value", 1),
        ("out.candidate_matching", (1, 0, 2)),
        ("out.voter_matching", (2, 0, 1)),
    ]


@pytest.mark.parametrize(
    "block", README_BLOCKS, ids=[f"readme-{i}" for i in range(1, len(README_BLOCKS) + 1)]
)
def test_readme_block_runs(block, tmp_path, monkeypatch):
    # the mapping block writes map.svg under the working directory
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    for expression, value in stated_values(block):
        assert eval(expression, namespace) == value, expression
