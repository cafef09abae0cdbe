"""Static checks of the package source.

A function local that is assigned and never read is either dead code or a
value computed and then forgotten; symtable finds both without running the
code.
"""

import pathlib
import symtable

import pytest

import edsbt

SOURCES = sorted(pathlib.Path(edsbt.__file__).parent.glob("*.py"))


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
