"""Every function, class and method defined under ``src/repro`` has a
caller outside the tests.

A name referenced nowhere in ``src/``, ``benchmarks/``, ``examples/``
or ``scripts/`` has no caller: it is dead code, and this test fails
until it is deleted (or given a caller). Tests are not callers: code
that only a test runs is not part of the program. References are read
from the syntax tree, not from the text: a ``Name``, an ``Attribute``,
a keyword argument or a string constant that is one identifier
(``getattr(obj, "name")``, ``json_properties``) counts; a comment, a
docstring, an import or an ``__all__`` entry does not, because none of
them calls anything. A method (a def in a class body) is reached only
through an attribute, a keyword or a string, so a bare ``Name`` never
counts for it: a local variable that shares its name does not hide it.
A method whose name another method shares still hides behind that
name; check those by hand.

Dunder methods (``__init__``, ``__repr__``, ...) are called by the
language, never by name, so they are not checked.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "benchmarks", "examples", "scripts")

#: Names kept without a non-test caller, each with its reason.
ALLOWLIST = {
    "do_GET": "http.server.BaseHTTPRequestHandler dispatches GET to it by name",
    "do_POST": "http.server.BaseHTTPRequestHandler dispatches POST to it by name",
    "log_message": "http.server.BaseHTTPRequestHandler logs through it by name",
    "assess_to_ci": "the paper's §4.2.4 rounds-to-a-CI-width; ROADMAP item 1 gates it",
    "IndaasComparator": "the INDaaS baseline; ROADMAP item 14 replaces or deletes it",
    "select_most_independent": "the INDaaS ranking; ROADMAP item 14 decides it",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions_in(tree: ast.AST, file: str) -> list[tuple[str, str, int, bool]]:
    """(name, file, line, is_method) of every def and class in ``tree``."""
    found = []
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                is_method = isinstance(node, ast.ClassDef) and not isinstance(
                    child, ast.ClassDef
                )
                found.append((child.name, file, child.lineno, is_method))
    return found


def _definitions() -> list[tuple[str, str, int, bool]]:
    """:func:`_definitions_in` over every module of the package."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(_definitions_in(tree, str(path.relative_to(ROOT))))
    return found


def _is_export_list(node: ast.AST) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _ignored(tree: ast.AST) -> set[int]:
    """Ids of the nodes that never count: docstrings and everything in
    an ``__all__`` assignment."""
    ignored = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                ignored.add(id(first.value))
        elif _is_export_list(node):
            ignored.update(id(inner) for inner in ast.walk(node))
    return ignored


def _references(source: str) -> tuple[Counter, Counter]:
    """How often ``source`` references each name (see the module doc):
    every reference, and those through an attribute, keyword or string,
    the only ones that reach a method."""
    tree = ast.parse(source)
    ignored = _ignored(tree)
    counts: Counter = Counter()
    members: Counter = Counter()
    for node in ast.walk(tree):
        if id(node) in ignored:
            continue
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            members[node.attr] += 1
        elif isinstance(node, ast.keyword) and node.arg is not None:
            members[node.arg] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _IDENTIFIER.fullmatch(node.value):
                members[node.value] += 1
    counts.update(members)
    return counts, members


def _identifier_counts() -> tuple[Counter, Counter]:
    counts: Counter = Counter()
    members: Counter = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            found, found_members = _references(path.read_text(encoding="utf-8"))
            counts.update(found)
            members.update(found_members)
    return counts, members


def _unreferenced(definitions, counts: Counter, members: Counter) -> list[str]:
    """``file:line: name`` of every definition nothing references, dunders
    and the allowlist aside."""
    return sorted(
        f"{file}:{line}: {name}"
        for name, file, line, is_method in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and name not in ALLOWLIST
        and not (members if is_method else counts)[name]
    )


def test_every_definition_is_referenced():
    dead = _unreferenced(_definitions(), *_identifier_counts())
    assert not dead, "no caller outside the tests:\n" + "\n".join(dead)


def test_the_allowlist_is_still_needed():
    """An allowlisted name that is no longer defined, or that has gained
    a caller, leaves the list: it can only shrink."""
    definitions = [d for d in _definitions() if d[0] in ALLOWLIST]
    counts, members = _identifier_counts()
    called = {
        name
        for name, _, _, is_method in definitions
        if (members if is_method else counts)[name]
    }
    defined = {name for name, _, _, _ in definitions}
    stale = sorted(name for name in ALLOWLIST if name not in defined or name in called)
    assert not stale, f"allowlisted but undefined or called: {stale}"


def test_the_scan_sees_the_package():
    """Guard against a vacuous pass: the walk finds the package's
    definitions and their references, and an import, an ``__all__``
    entry, a docstring or a comment is not a reference; nor is a bare
    name a reference to a method."""
    definitions = _definitions()
    names = {name for name, _, _, _ in definitions}
    assert len(definitions) > 500
    assert {"ReliabilityAssessor", "DeploymentSearch", "do_GET"} <= names
    assert _identifier_counts()[0]["ReliabilityAssessor"] > 1
    source = (
        "from a import b\n"
        "import c\n"
        "__all__ = ['d']\n"
        "def e():\n"
        "    'f'\n"
        "    return g.h(i=j, k='l')  # m\n"
        "n = ('o', 'p q')\n"
    )
    counts, members = _references(source)
    assert set(counts) == {"g", "h", "i", "j", "k", "l", "n", "o"}
    assert set(members) == {"h", "i", "k", "l", "o"}
    source = (
        "class A:\n"
        "    def q(self):\n"
        "        def inner(): pass\n"
        "        return inner\n"
        "    def r(self): pass\n"
        "    def s(self): pass\n"
        "    class B: pass\n"
        "def t(): pass\n"
        "q = r = B = t = 1\n"
        "A().s()\n"
    )
    found = _definitions_in(ast.parse(source), "x.py")
    assert {(name, is_method) for name, _, _, is_method in found} == {
        ("A", False),
        ("q", True),
        ("inner", False),
        ("r", True),
        ("s", True),
        ("B", False),
        ("t", False),
    }
    assert _unreferenced(found, *_references(source)) == ["x.py:2: q", "x.py:5: r"]
