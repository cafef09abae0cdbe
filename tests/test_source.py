"""Static checks of the package source.

A function local that is assigned and never read is either dead code or a
value computed and then forgotten; symtable finds both without running the
code.  A top-level function, class or assigned name whose name appears
nowhere but in its own definition is a helper nothing calls or a
constant nothing reads.
"""

import ast
import pathlib
import re
import symtable

import pytest

import edsbt

SOURCES = sorted(pathlib.Path(edsbt.__file__).parent.glob("*.py"))
# where a name of the package counts as used: the package, its tests and its benchmark
ROOT = pathlib.Path(__file__).resolve().parents[1]
READERS = sorted(path for tree in ("src", "tests", "perfbench")
                 for path in (ROOT / tree).rglob("*.py"))


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


def _defined_names(node) -> list:
    """The names a top-level statement defines; dunders such as __all__
    are read by Python itself."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        names = [name for target in node.targets for name in _bound_names(target)]
    elif isinstance(node, ast.AnnAssign):
        names = _bound_names(node.target)
    else:
        return []
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def unnamed_definitions(module: str, source: str, others: str) -> list:
    """(module, name) for each top-level function, class or assigned name
    of `source` that appears neither in `others` nor in `source` outside
    its own definition (decorators included)."""
    lines = source.splitlines()
    found = []
    for node in ast.parse(source).body:
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        rest = "\n".join(lines[:first - 1] + lines[node.end_lineno:])
        for name in _defined_names(node):
            named = re.compile(rf"\b{re.escape(name)}\b")
            if not (named.search(rest) or named.search(others)):
                found.append((module, name))
    return found


def test_readers_found():
    assert {p.parent.name for p in READERS} >= {"edsbt", "tests", "perfbench"}


def test_every_top_level_definition_is_named_elsewhere():
    texts = {path: path.read_text() for path in READERS}
    found = []
    for path in SOURCES:
        others = "\n".join(text for other, text in texts.items() if other != path.resolve())
        found += unnamed_definitions(path.stem, path.read_text(), others)
    assert found == []


def test_an_unnamed_definition_is_found():
    source = (
        "import functools\n"
        "def used():\n"
        "    return 1\n"
        "def recursive(n):\n"  # names itself only
        "    return recursive(n - 1) if n else used()\n"
        "@functools.cache\n"
        "def cached():\n"
        "    return 2\n"
        "class Called:\n"
        "    pass\n"
    )
    assert unnamed_definitions("m", source, "Called()") == [("m", "recursive"), ("m", "cached")]


def test_an_unread_constant_is_found():
    source = (
        "import math\n"
        "__all__ = []\n"  # read by Python itself
        "READ = 1\n"
        "UNREAD = 2\n"
        "FIRST, _SECOND = READ, 3\n"  # _SECOND is never read
        "TABLE: dict = {}\n"
        "TABLE['k'] = math.pi\n"  # binds no name, and reads TABLE
        "LOOKED_UP = 4\n"
    )
    assert unnamed_definitions("m", source, "FIRST LOOKED_UP") == [("m", "UNREAD"),
                                                                   ("m", "_SECOND")]
