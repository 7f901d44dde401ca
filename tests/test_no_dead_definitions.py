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
them calls anything. A method whose name another definition or a
variable shares still hides behind that name; check those by hand.

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


def _definitions() -> list[tuple[str, str, int]]:
    """(name, file, line) of every def and class under the package."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((node.name, str(path.relative_to(ROOT)), node.lineno))
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


def _references(source: str) -> Counter:
    """How often ``source`` references each name (see the module doc)."""
    tree = ast.parse(source)
    ignored = _ignored(tree)
    counts: Counter = Counter()
    for node in ast.walk(tree):
        if id(node) in ignored:
            continue
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.keyword) and node.arg is not None:
            counts[node.arg] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _IDENTIFIER.fullmatch(node.value):
                counts[node.value] += 1
    return counts


def _identifier_counts() -> Counter:
    counts: Counter = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            counts.update(_references(path.read_text(encoding="utf-8")))
    return counts


def test_every_definition_is_referenced():
    definitions = _definitions()
    counts = _identifier_counts()
    dead = sorted(
        f"{file}:{line}: {name}"
        for name, file, line in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and name not in ALLOWLIST
        and not counts[name]
    )
    assert not dead, "no caller outside the tests:\n" + "\n".join(dead)


def test_the_allowlist_is_still_needed():
    """An allowlisted name that is no longer defined, or that has gained
    a caller, leaves the list: it can only shrink."""
    defined = {name for name, _, _ in _definitions()}
    counts = _identifier_counts()
    stale = sorted(
        name for name in ALLOWLIST if name not in defined or counts[name]
    )
    assert not stale, f"allowlisted but undefined or called: {stale}"


def test_the_scan_sees_the_package():
    """Guard against a vacuous pass: the walk finds the package's
    definitions and their references, and an import, an ``__all__``
    entry, a docstring or a comment is not a reference."""
    definitions = _definitions()
    names = {name for name, _, _ in definitions}
    assert len(definitions) > 500
    assert {"ReliabilityAssessor", "DeploymentSearch", "do_GET"} <= names
    assert _identifier_counts()["ReliabilityAssessor"] > 1
    source = (
        "from a import b\n"
        "import c\n"
        "__all__ = ['d']\n"
        "def e():\n"
        "    'f'\n"
        "    return g.h(i=j, k='l')  # m\n"
        "n = ('o', 'p q')\n"
    )
    assert set(_references(source)) == {"g", "h", "i", "j", "k", "l", "n", "o"}
