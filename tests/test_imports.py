"""Every name a crossopt module imports is used in that module, every
function, class, method and module-level constant it defines is
referenced, every field a class body declares is read as an attribute,
only the one writer, ``instances.write_text``, opens a file for
writing, only the one reader, ``instances.parse_json``, parses JSON,
only the three step rules build LP rows, and no function stores into
state held by a module-level name.

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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def dunder(name):
    return name.startswith("__") and name.endswith("__")


def target_leaves(target):
    """The names, subscripts and attributes an assignment or del target
    is made of, tuples unpacked."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return [leaf for elt in target.elts for leaf in target_leaves(elt)]
    if isinstance(target, ast.Starred):
        return target_leaves(target.value)
    return [target]


def bound_names(target):
    """The names an assignment target binds."""
    return [leaf.id for leaf in target_leaves(target) if isinstance(leaf, ast.Name)]


def module_bindings(node):
    """The names a module-level statement binds by assignment, import,
    def or class."""
    if isinstance(node, ast.Assign):
        return [name for target in node.targets for name in bound_names(target)]
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        return bound_names(node.target)
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
        return [node.name]
    return []


def definitions(tree):
    """(name, node, method) of every top-level function and class of a
    module tree, every method of such a class other than a dunder (with
    method true), and every module-level constant (a name a top-level
    assignment binds) other than a dunder."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name, node, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in module_bindings(node):
                if not dunder(name):
                    yield name, node, False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, FUNCTIONS) and not dunder(sub.name):
                    yield sub.name, sub, True


def references(tree):
    """Counters (names, attributes) of what tree reads: ``attributes``
    counts the names it reads as an Attribute (``obj.name``), and
    ``names`` the names it reads as a Name or an import, or names as the
    function a benchmark Boundary(span, module, attr) wraps:
    perfbench/tracing.py looks that function up by its name, and
    tests/test_perfbench_boundaries.py requires it to exist.

    The Boundary rule is temporary. Only `enumerate_spanning_trees` needs
    it: src/ no longer calls it, and the `brute.tree_enum` boundary still
    names it. Once that boundary wraps `block_spanning_trees` and the
    enumerator moves to tests/, drop the rule unless another boundary
    then needs it."""
    found, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in node.names)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Boundary"
            and len(node.args) >= 3
            and isinstance(node.args[2], ast.Constant)
        ):
            found[node.args[2].value] += 1
    return found, attributes


def read_count(refs, name, method):
    """How often the references refs, a (names, attributes) pair, read
    name: a method or property is read only as an attribute, any other
    definition also as a name."""
    names, attributes = refs
    return attributes[name] + (0 if method else names[name])


def unreferenced(modules, readers):
    """(module, name) of every definition in the sources modules ({name:
    source}) that no module and no reader source references, leaving
    out references inside the definition itself."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    total = Counter(), Counter()
    for tree in [*trees.values(), *(ast.parse(source) for source in readers)]:
        for counter, found in zip(total, references(tree)):
            counter.update(found)
    return [
        (name, defined)
        for name, tree in trees.items()
        for defined, node, method in definitions(tree)
        if read_count(total, defined, method)
        == read_count(references(node), defined, method)
    ]


def test_every_definition_is_referenced():
    modules = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    readers = [path.read_text(encoding="utf-8") for path in PERFBENCH]
    assert unreferenced(modules, readers) == []


def test_unreferenced_definitions_are_found():
    modules = {
        "a.py": (
            "__all__ = ['used']\n"
            "LIMIT = 3\n"
            "SPARE = 4\n"
            "LOW, HIGH = 0, 1\n"
            "def used(closed=None):\n"
            "    return helper, LIMIT, HIGH, closed\n"
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
    readers = ["import a\na.Box().read()\na.LOW\n"]
    assert unreferenced(modules, readers) == [
        ("a.py", "SPARE"), ("a.py", "lonely"), ("a.py", "closed")
    ]


def test_benchmark_boundaries_are_references():
    modules = {"a.py": "def wrapped():\n    pass\ndef lonely():\n    pass\n"}
    readers = ['Boundary("a.wrapped", "a", "wrapped")\nBoundary("a.other", "a")\n']
    assert unreferenced(modules, readers) == [("a.py", "lonely")]


def declared_fields(tree):
    """(class, field) of every annotated field in a class body of tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    yield node.name, sub.target.id


def unread_fields(modules, readers):
    """(module, class, field) of every annotated class-body field in the
    sources modules ({name: source}) that no module and no reader source
    reads as an attribute (``obj.field`` in a load)."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read = {
        node.attr
        for tree in [*trees.values(), *(ast.parse(source) for source in readers)]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        (name, cls, field)
        for name, tree in trees.items()
        for cls, field in declared_fields(tree)
        if field not in read
    ]


def test_every_declared_field_is_read():
    sources = sorted(PACKAGE.glob("*.py"))
    modules = {path.name: path.read_text(encoding="utf-8") for path in sources}
    readers = [path.read_text(encoding="utf-8") for path in PERFBENCH]
    assert unread_fields(modules, readers) == []


def test_unread_fields_are_found():
    modules = {
        "a.py": (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Point:\n"
            "    x: int\n"
            "    y: int\n"
            "    label: str = ''\n"
            "    kind = 'plain'\n"
            "def name(p):\n"
            "    p.label = 'seen'\n"
            "    return p.x\n"
        ),
    }
    # y is read only by the reader, label only written, kind not annotated
    readers = ["def f(p):\n    return p.y\n"]
    assert unread_fields(modules, readers) == [("a.py", "Point", "label")]


# the one function of the package that opens a file for writing
WRITER = ("instances.py", "write_text")
WRITE_FLAGS = {"O_WRONLY", "O_RDWR"}


def calls_where(tree, test):
    """(line, enclosing function) of every call node in tree that
    test(call) accepts."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and test(node):
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def write_opens(source):
    """(line, enclosing function) of every call that opens a file for
    writing: open() with a mode holding w, a, x or +, or one that is not
    a string literal, and os.open() with O_WRONLY or O_RDWR among its
    flags."""
    return calls_where(ast.parse(source), _opens_for_writing)


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


# the one function of the package that parses JSON
READER = ("instances.py", "parse_json")
JSON_PARSERS = {"load", "loads"}


def json_parses(source):
    """(line, enclosing function) of every call of json.load or
    json.loads, by attribute or by a name imported from json."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "json"
        for alias in node.names
        if alias.name in JSON_PARSERS
    }

    def parses(call):
        func = call.func
        if isinstance(func, ast.Name):
            return func.id in imported
        return (
            isinstance(func, ast.Attribute)
            and func.attr in JSON_PARSERS
            and isinstance(func.value, ast.Name)
            and func.value.id == "json"
        )

    return calls_where(tree, parses)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_reader_parses_json(path):
    parses = json_parses(path.read_text(encoding="utf-8"))
    assert [site for site in parses if (path.name, site[1]) != READER] == []


def test_the_reader_is_found():
    source = (PACKAGE / READER[0]).read_text(encoding="utf-8")
    assert [function for _, function in json_parses(source)] == [READER[1]]


def test_json_parses_are_found():
    source = (
        "import json\n"
        "from json import loads as parse, dumps\n"
        "def f(fh, text):\n"
        "    json.load(fh)\n"
        "    json.dumps(text)\n"
        "    parse(text)\n"
        "    dumps(text)\n"
        "    text.loads()\n"
        "json.loads('1')\n"
    )
    assert json_parses(source) == [(4, "f"), (6, "f"), (9, None)]


# the modules that build simplex.Row values: each step rule's state
# builds its own residual LP's rows
ROW_BUILDERS = {"mcst.py", "intersection.py", "lattice.py"}


def row_builds(source):
    """(line, enclosing function) of every call of Row or simplex.Row."""

    def builds(call):
        func = call.func
        if isinstance(func, ast.Name):
            return func.id == "Row"
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "Row"
            and isinstance(func.value, ast.Name)
            and func.value.id == "simplex"
        )

    return calls_where(ast.parse(source), builds)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_step_rules_build_rows(path):
    builds = row_builds(path.read_text(encoding="utf-8"))
    assert path.name in ROW_BUILDERS or builds == []
    assert path.name not in ROW_BUILDERS or builds


def test_row_builds_are_found():
    source = (
        "from . import simplex\n"
        "from .simplex import Row\n"
        "def f(mask):\n"
        "    Row(mask, '<=', 1, None)\n"
        "    simplex.Row(mask, '<=', 1, None)\n"
        "    Rows(mask)\n"
        "    return Row\n"
        "simplex.Row._make((0, '<=', 1, None))\n"
        "Row(0, '==', 1, None)\n"
    )
    assert row_builds(source) == [(4, "f"), (5, "f"), (9, None)]


STORES = (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)


def root_name(target):
    """The name a subscript or attribute chain starts from; None for a
    bare name or a chain from another expression."""
    if not isinstance(target, (ast.Subscript, ast.Attribute)):
        return None
    while isinstance(target, (ast.Subscript, ast.Attribute)):
        target = target.value
    return target.id if isinstance(target, ast.Name) else None


def function_locals(fn):
    """The names fn and the functions nested in it bind for themselves:
    parameters, and names they assign, import or define, less the names
    they declare global."""
    names, declared = set(), set()
    for node in ast.walk(fn):
        if isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
        elif node is not fn and isinstance(
            node, (ast.Import, ast.ImportFrom, *FUNCTIONS, ast.ClassDef)
        ):
            names.update(module_bindings(node))
    return names - declared


def global_stores(source):
    """(line, enclosing function) of every assignment, augmented
    assignment or del in a function that stores into a subscript or an
    attribute of a module-level name: one the module binds by
    assignment, import, def or class, and the function does not bind
    for itself."""
    tree = ast.parse(source)
    module_names = {name for node in tree.body for name in module_bindings(node)}
    found = []

    def visit(node, function, local):
        if isinstance(node, FUNCTIONS):
            function = node.name
            if local is None:
                local = function_locals(node)
        if local is not None and isinstance(node, STORES):
            targets = node.targets if hasattr(node, "targets") else [node.target]
            for target in targets:
                for leaf in target_leaves(target):
                    name = root_name(leaf)
                    if name in module_names and name not in local:
                        found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function, local)

    visit(tree, None, None)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_stores_into_module_state(path):
    assert global_stores(path.read_text(encoding="utf-8")) == []


def test_global_stores_are_found():
    source = (
        "import os\n"
        "from collections import Counter\n"
        "COUNTS = Counter()\n"
        "class Box:\n"
        "    size = 0\n"
        "    def grow(self):\n"
        "        self.size += 1\n"
        "        Box.size += 1\n"
        "def f(key, LIMITS):\n"
        "    COUNTS[key] += 1\n"
        "    LIMITS[key] = 1\n"
        "    os.environ['KEY'] = key\n"
        "    del COUNTS[key]\n"
        "    first, COUNTS.last = 1, 2\n"
        "    def g():\n"
        "        COUNTS['g'] = 1\n"
        "    seen = {}\n"
        "    seen[key] = 1\n"
        "    return g\n"
        "def h():\n"
        "    COUNTS = Counter()\n"
        "    COUNTS['h'] = 1\n"
        "def k():\n"
        "    global COUNTS\n"
        "    COUNTS = Counter()\n"
        "    COUNTS['k']: int = 1\n"
        "COUNTS['module'] = 1\n"
    )
    # self, the parameter LIMITS, seen and h's own COUNTS are local; the
    # last store is not in a function
    assert global_stores(source) == [
        (8, "grow"), (10, "f"), (12, "f"), (13, "f"), (14, "f"), (16, "g"), (26, "k")
    ]
