"""Every ``python`` block of README.md runs, so that no example can rot."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks() -> "list[pytest.param]":
    """One ``(source, first line)`` param per fenced ``python`` block, named
    after the section it sits in."""
    text = README.read_text()
    params, seen = [], {}
    for match in re.finditer(r"^```python\n(.*?)^```", text, flags=re.M | re.S):
        heading = re.findall(r"^#+ (.+)$", text[: match.start()], flags=re.M)[-1]
        name = re.sub(r"[^a-z0-9]+", "-", heading.lower()).strip("-")
        seen[name] = seen.get(name, 0) + 1
        if seen[name] > 1:
            name += f"-{seen[name]}"
        params.append(pytest.param(match.group(1), text.count("\n", 0, match.start(1)), id=name))
    return params


BLOCKS = _blocks()


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 5


@pytest.mark.parametrize("source, offset", BLOCKS)
def test_readme_block_runs(source, offset):
    # Leading newlines make a traceback point at the README's own line.
    exec(compile("\n" * offset + source, str(README), "exec"), {"__name__": "readme_example"})
