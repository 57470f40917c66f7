"""Source checks that a linter would make: no top-level import goes unused.

A name imported only so that another module can find it here (the tracer in
perfbench/ wraps some names where callers look them up) carries ``# noqa: F401``
on its import line, as a linter would expect.
"""

import ast
from pathlib import Path

import pytest

import sentpop

PACKAGE = Path(sentpop.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """The names that a top-level import of ``source`` binds and nothing in it reads.

    ``from __future__`` imports and imports whose lines carry ``# noqa: F401`` are
    left out. A name counts as read wherever it appears as a name, annotations
    included.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in read:
                unused.append(name)
    return unused


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_top_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_finds_an_unused_import_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import re as regex\n"
        "from collections.abc import (\n"
        "    Iterable,\n"
        "    Iterator,\n"
        ")\n"
        "from json import dumps  # noqa: F401\n"
        "def f(x: Iterator[int]) -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["regex", "Iterable"]
