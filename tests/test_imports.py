"""Every name a crossopt module imports is used in that module, every
function, class and method it defines is referenced, and only the one
writer, ``instances.write_text``, opens a file for writing.

A name that is imported only to be read from outside (a re-export)
carries ``# noqa: F401`` on its import line.  The package's
``__init__.py`` re-exports by design and is not checked for imports,
nor does its re-export count as a reference.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crossopt"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the benchmark calls into the package; it is read here, never changed
PERFBENCH = sorted((PACKAGE.parent.parent / "perfbench").glob("*.py"))


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


def definitions(tree):
    """Every top-level function and class of a module tree, and every
    method of such a class other than a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield sub


def references(tree):
    """Counter of the names tree reads as a Name, an Attribute or an
    import."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in node.names)
    return found


def unreferenced(modules, readers):
    """(module, name) of every definition in the sources modules ({name:
    source}) that no module and no reader source references, leaving
    out references inside the definition itself."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    total = Counter()
    for tree in [*trees.values(), *(ast.parse(source) for source in readers)]:
        total.update(references(tree))
    return [
        (name, node.name)
        for name, tree in trees.items()
        for node in definitions(tree)
        if total[node.name] == references(node)[node.name]
    ]


def test_every_definition_is_referenced():
    modules = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    readers = [path.read_text(encoding="utf-8") for path in PERFBENCH]
    assert unreferenced(modules, readers) == []


def test_unreferenced_definitions_are_found():
    modules = {
        "a.py": (
            "def used():\n"
            "    return helper\n"
            "def helper():\n"
            "    return helper()\n"
            "def lonely():\n"
            "    return lonely()\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self.opened()\n"
            "    def opened(self):\n"
            "        pass\n"
            "    def closed(self):\n"
            "        pass\n"
            "    def read(self):\n"
            "        pass\n"
        ),
        "b.py": "from a import used\nused()\n",
    }
    readers = ["import a\na.Box().read()\n"]
    assert unreferenced(modules, readers) == [("a.py", "lonely"), ("a.py", "closed")]


# the one function of the package that opens a file for writing
WRITER = ("instances.py", "write_text")
WRITE_FLAGS = {"O_WRONLY", "O_RDWR"}


def write_opens(source):
    """(line, enclosing function) of every call that opens a file for
    writing: open() with a mode holding w, a, x or +, or one that is not
    a string literal, and os.open() with O_WRONLY or O_RDWR among its
    flags."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and _opens_for_writing(node):
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def _opens_for_writing(call):
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = call.args[1] if len(call.args) > 1 else None
        for kw in call.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if mode is None:
            return False
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            return True
        return any(c in mode.value for c in "wax+")
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "open"
        and isinstance(func.value, ast.Name)
        and func.value.id == "os"
    ):
        flags = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "flags"]
        names = {
            n.attr if isinstance(n, ast.Attribute) else n.id
            for arg in flags
            for n in ast.walk(arg)
            if isinstance(n, (ast.Attribute, ast.Name))
        }
        return bool(names & WRITE_FLAGS)
    return False


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_writer_opens_files_for_writing(path):
    opens = write_opens(path.read_text(encoding="utf-8"))
    assert [site for site in opens if (path.name, site[1]) != WRITER] == []


def test_the_writer_is_found():
    source = (PACKAGE / WRITER[0]).read_text(encoding="utf-8")
    assert [function for _, function in write_opens(source)] == [WRITER[1]]


def test_write_opens_tell_reads_from_writes():
    source = (
        "import os\n"
        "def f(path, mode):\n"
        "    open(path)\n"
        "    open(path, 'r', encoding='utf-8')\n"
        "    open(path, 'w')\n"
        "    open(path, mode='a')\n"
        "    open(path, mode)\n"
        "    os.open(path, os.O_RDONLY)\n"
        "    os.open(path, os.O_WRONLY | os.O_CREAT)\n"
        "    os.open(path, flags=os.O_RDWR)\n"
        "open(__file__, 'rb+')\n"
    )
    assert write_opens(source) == [
        (5, "f"), (6, "f"), (7, "f"), (9, "f"), (10, "f"), (11, None)
    ]
