"""Static checks of the package source.

A function local that is assigned and never read is either dead code or a
value computed and then forgotten; symtable finds both without running the
code.  A definition that no command reaches from `cli.main` is code that
only a test or nothing runs: it is deleted, or kept on purpose in
LIBRARY_API with its reason.  An imported name the module never reads is
an import left behind.
"""

import ast
import pathlib
import symtable
from collections import defaultdict

import pytest

import edsbt

SOURCES = sorted(pathlib.Path(edsbt.__file__).parent.glob("*.py"))
# definitions no command reaches that the package keeps, by "module.name"
# or "module.Class.method", with why each stays
LIBRARY_API = {
    "backlund.quasilinear_fg": "acceptance criterion 8: f and g of quasilinear data in closed form",
    "backlund.normalize_first_order": "acceptance criterion 8: the point normalization of u_x = F",
    "backlund.check_integrable_extension": "acceptance criterion 3 and the README library example",
    "propagate.wavelike_residual": "acceptance criterion 5 and the README library example",
    "propagate.read_field_csv": "reads a field CSV back; the benchmark's CSV oracle uses it",
    "propagate.Grid.mesh": "the benchmark's CSV oracle evaluates the closed form on it",
    "propagate.write_field_csv": "README library API: writes a Field as the commands do",
    "expr.atan": "completes the library's function constructors, one per parser function",
}


def _free_below(table) -> set:
    """The names read by the functions nested in `table`, at any depth."""
    names = set()
    for child in table.get_children():
        names |= {s.get_name() for s in child.get_symbols() if s.is_free()}
        names |= _free_below(child)
    return names


def unread_locals(table, where=()):
    """(qualified function name, local) for each local of each function in
    `table` that is assigned and read neither there nor by a nested
    function; names starting with "_" are meant to go unread."""
    found = []
    for child in table.get_children():
        path = (*where, child.get_name())
        if child.get_type() == "function":
            read_below = _free_below(child)
            for s in child.get_symbols():
                name = s.get_name()
                if (s.is_assigned() and s.is_local() and not s.is_referenced()
                        and not s.is_parameter() and name not in read_below
                        and not name.startswith("_")):
                    found.append((".".join(path), name))
        found += unread_locals(child, path)
    return found


def test_sources_found():
    assert {p.stem for p in SOURCES} >= {"backlund", "cli", "expr", "forms", "monge_ampere",
                                          "propagate"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_local_assigned_and_never_read(path):
    table = symtable.symtable(path.read_text(), str(path), "exec")
    assert unread_locals(table, (path.stem,)) == []


def test_an_unread_local_is_found():
    source = (
        "def f(a, _b):\n"
        "    x, y = a, 1\n"  # y is never read
        "    z = 2\n"
        "    _w = 3\n"
        "    def g():\n"
        "        return z\n"  # z is read by the nested function
        "    return x + g()\n"
    )
    assert unread_locals(symtable.symtable(source, "<f>", "exec")) == [("f", "y")]


def _bound_names(target) -> list:
    """The names an assignment target binds: `a`, `a, *b`; not `a[i]` or `a.b`."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in _bound_names(elt)]
    if isinstance(target, ast.Starred):
        return _bound_names(target.value)
    return []


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _mentions(*nodes) -> set:
    """Every name and attribute name read or written anywhere in `nodes`."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for node in nodes for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def call_graph(sources: dict):
    """By-name call graph of `sources` (module name -> text): a dict from
    each definition ("module.name", "module.Class.method") to the names it
    mentions, and the names the module-level statements that define
    nothing mention.  A definition is a top-level function, class or
    assigned name (dunders such as __all__ are read by Python itself) or a
    method; a class mentions its bases, decorators, class-level statements
    and, by qualified name, its dunder methods, which Python calls."""
    graph, statements = {}, set()
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                graph[f"{module}.{node.name}"] = _mentions(node)
            elif isinstance(node, ast.ClassDef):
                cls = f"{module}.{node.name}"
                methods = [s for s in node.body
                           if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
                graph[cls] = _mentions(*node.bases, *node.keywords, *node.decorator_list,
                                       *(s for s in node.body if s not in methods))
                for method in methods:
                    graph[f"{cls}.{method.name}"] = _mentions(method)
                    if _is_dunder(method.name):
                        graph[cls].add(f"{cls}.{method.name}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            else:
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, ast.AnnAssign) else [])
                names = [n for t in targets for n in _bound_names(t) if not _is_dunder(n)]
                for name in names:
                    graph[f"{module}.{name}"] = _mentions(node.value) if node.value else set()
                if not names:  # `TABLE[k] = v`, an `if`, an expression: it runs at import
                    statements |= _mentions(node)
    return graph, statements


def unreached(sources: dict, roots) -> list:
    """The definitions of `sources` (see call_graph) that no path reaches
    from `roots` or from a module-level statement, in source order.  A name
    reaches every definition of that name, in any module or class."""
    graph, statements = call_graph(sources)
    by_name = defaultdict(list)
    for qualified in graph:
        by_name[qualified.rsplit(".", 1)[1]].append(qualified)
    reached, todo = set(), [*roots, *(q for name in statements for q in by_name[name])]
    while todo:
        qualified = todo.pop()
        if qualified not in reached:
            reached.add(qualified)
            for name in graph[qualified]:
                todo += [name] if name in graph else by_name[name]
    return [qualified for qualified in graph if qualified not in reached]


def test_every_definition_is_reached_from_main_or_library_api():
    assert unreached({path.stem: path.read_text() for path in SOURCES},
                     ["cli.main", *LIBRARY_API]) == []


def test_library_api_names_existing_definitions():
    graph, _ = call_graph({path.stem: path.read_text() for path in SOURCES})
    assert [name for name in LIBRARY_API if name not in graph] == []
    assert all(reason.strip() for reason in LIBRARY_API.values())


def test_an_unreached_definition_is_found():
    source = (
        "import functools\n"
        "def main():\n"
        "    return used() + Called().total\n"
        "def used():\n"
        "    return 1\n"
        "def recursive(n):\n"  # names itself only
        "    return recursive(n - 1) if n else only_from_recursive()\n"
        "def only_from_recursive():\n"  # named, but only by unreached code
        "    return 0\n"
        "@functools.cache\n"
        "def cached():\n"
        "    return 2\n"
        "class Called:\n"
        "    def __init__(self):\n"  # a reached class reaches its dunders
        "        self.total = 3\n"
        "    def helper(self):\n"
        "        return 4\n"
    )
    other = "def kept():\n    return main()\n"  # another module's root reaches main
    assert unreached({"m": source}, ["m.main"]) == [
        "m.recursive", "m.only_from_recursive", "m.cached", "m.Called.helper"]
    assert unreached({"m": source, "lib": other}, ["lib.kept", "m.cached"]) == [
        "m.recursive", "m.only_from_recursive", "m.Called.helper"]


def test_an_unread_constant_is_found():
    source = (
        "import math\n"
        "__all__ = []\n"  # read by Python itself
        "READ = 1\n"
        "UNREAD = 2\n"
        "FIRST, _SECOND = READ, 3\n"  # _SECOND is never read
        "TABLE: dict = {}\n"
        "TABLE['k'] = math.pi\n"  # binds no name, runs at import and reads TABLE
        "LOOKED_UP = 4\n"
        "def main():\n"
        "    return FIRST + LOOKED_UP\n"
    )
    assert unreached({"m": source}, ["m.main"]) == ["m.UNREAD", "m._SECOND"]


def unread_imports(source: str) -> list:
    """The names `source` imports (anywhere, `from __future__` aside) and
    never reads, in the order they are imported."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_an_unread_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"  # binds os, never read
        "from typing import Optional, Sequence\n"  # Sequence is never read
        "def f(x: Optional[int]):\n"  # an annotation reads its names
        "    from json import dumps as _dumps\n"
        "    return math.pi, _dumps\n"
    )
    assert unread_imports(source) == ["os", "Sequence"]
