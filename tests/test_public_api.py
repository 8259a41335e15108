"""The packages export README's "Public API" table and nothing else.

``repro.runtime`` and ``repro.core`` re-export exactly the names of that
table, in its order, the way ``tests/runtime/test_config.py`` keeps
``ENV_VARS`` in step with README's environment table.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

import repro.core
import repro.runtime

README = Path(__file__).resolve().parents[1] / "README.md"


def documented(package: str) -> "list[str]":
    """The names column of the Public API rows for ``package``, in order."""
    names: "list[str]" = []
    in_table = False
    for line in README.read_text().splitlines():
        if line.startswith("## "):
            in_table = line == "## Public API"
        elif in_table and line.startswith(f"| `{package}` |"):
            names += re.findall(r"`([^`]+)`", line.split("|")[2])
    return names


@pytest.mark.parametrize("package", [repro.runtime, repro.core], ids=lambda module: module.__name__)
def test_all_is_readmes_table(package):
    assert list(package.__all__) == documented(package.__name__)
    for name in package.__all__:
        assert hasattr(package, name), name


@pytest.mark.parametrize("package", [repro.runtime, repro.core], ids=lambda module: module.__name__)
def test_nothing_else_is_re_exported(package):
    """Beyond ``__all__`` the package root holds only its submodules."""
    extra = [
        name
        for name, value in vars(package).items()
        if not name.startswith("_") and not inspect.ismodule(value) and name not in package.__all__
    ]
    assert extra == []
