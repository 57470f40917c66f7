"""Source checks that a linter would make: no top-level import goes unused, and
only the ``sentpop`` command ends its process.

A name imported only so that another module can find it here (the tracer in
perfbench/ wraps some names where callers look them up) carries ``# noqa: F401``
on its import line, as a linter would expect.
"""

import ast
import importlib
from pathlib import Path

import pytest

import sentpop
import sentpop.cli

PACKAGE = Path(sentpop.__file__).resolve().parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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


_EXITS = {("os", "_exit"), ("sys", "exit")}


def _scope(top: ast.stmt) -> str:
    """The name of a top-level def or class, ``__main__`` for the ``if __name__ ==
    "__main__":`` block, else ``<module>``."""
    if isinstance(top, ast.If) and ast.unparse(top.test) == "__name__ == '__main__'":
        return "__main__"
    return getattr(top, "name", "<module>")


def process_exits(source: str) -> list[tuple[str, str]]:
    """(top-level scope, what) of each place in ``source`` that can end the process:
    ``os._exit`` and ``sys.exit``, as attributes or imported by name, and
    ``SystemExit``."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if (node.value.id, node.attr) in _EXITS:
                    found.append((_scope(top), f"{node.value.id}.{node.attr}"))
            elif isinstance(node, ast.ImportFrom):
                found.extend((_scope(top), f"{node.module}.{alias.name}")
                             for alias in node.names if (node.module, alias.name) in _EXITS)
            elif isinstance(node, ast.Name) and node.id == "SystemExit":
                found.append((_scope(top), "SystemExit"))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_only_the_cli_entry_ends_the_process(path):
    # a library call must never end the process of the caller that imported it
    allowed = {"entry", "__main__"} if path.name == "cli.py" else set()
    exits = process_exits(path.read_text(encoding="utf-8"))
    assert [site for site in exits if site[0] not in allowed] == []


def test_the_cli_entry_is_where_the_process_ends():
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert sorted(process_exits(source)) == [("entry", "os._exit"), ("entry", "sys.exit")]
    main_block = [top for top in ast.parse(source).body if _scope(top) == "__main__"]
    assert [ast.unparse(node) for node in main_block[0].body] == ["entry()"]


def test_the_exit_guard_finds_every_spelling():
    source = (
        "import os\n"
        "import sys\n"
        "from os import _exit, getcwd\n"
        "def stage():\n"
        "    sys.exit(1)\n"
        "class Runner:\n"
        "    def stop(self):\n"
        "        raise SystemExit(2)\n"
        "os._exit(0)\n"
        "sys.exitfunc = None\n"
        'if __name__ == "__main__":\n'
        "    sys.exit(stage())\n"
    )
    assert process_exits(source) == [
        ("<module>", "os._exit"), ("stage", "sys.exit"), ("Runner", "SystemExit"),
        ("<module>", "os._exit"), ("__main__", "sys.exit"),
    ]


def test_the_installed_command_is_the_cli_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"sentpop": "sentpop.cli:entry"}
    module, _, name = scripts["sentpop"].partition(":")
    assert getattr(importlib.import_module(module), name) is sentpop.cli.entry
