"""Every name a crossopt module imports is used in that module.

A name that is imported only to be read from outside (a re-export)
carries ``# noqa: F401`` on its import line.  The package's
``__init__.py`` re-exports by design and is not checked.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crossopt"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of every imported name that no expression reads,
    leaving out import lines marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_and_marked_imports_are_told_apart():
    source = (
        "import os\n"
        "from json import dumps, loads\n"
        "from sys import (\n"
        "    argv,  # noqa: F401\n"
        "    path,\n"
        ")\n"
        "def f():\n"
        "    from math import pi\n"
        "    return loads(os.sep)\n"
    )
    assert unused_imports(source) == [(2, "dumps"), (5, "path"), (8, "pi")]
