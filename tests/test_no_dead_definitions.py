"""Every function, class and method defined under ``src/repro`` has a
caller outside the tests.

A name that appears nowhere else in ``src/``, ``benchmarks/``,
``examples/`` or ``scripts/`` has no caller: it is dead code, and this
test fails until it is deleted (or given a caller). Tests are not
callers: code that only a test runs is not part of the program. Under
``src/``, import statements and ``__all__`` lists do not count either,
because re-exporting a name does not call it. The check counts
identifier tokens everywhere else, so a reference from a benchmark, an
example or a docstring keeps a name alive; it errs on the side of
keeping code.

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


def _without_imports_and_exports(source: str) -> str:
    """``source`` with the lines of every import statement and every
    ``__all__`` assignment blanked."""
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or _is_export_list(node):
            for index in range(node.lineno - 1, node.end_lineno):
                lines[index] = ""
    return "\n".join(lines)


def _identifier_counts() -> Counter:
    counts: Counter = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            if top == "src":
                text = _without_imports_and_exports(text)
            counts.update(_IDENTIFIER.findall(text))
    return counts


def test_every_definition_is_referenced():
    definitions = _definitions()
    defined = Counter(name for name, _, _ in definitions)
    counts = _identifier_counts()
    dead = sorted(
        f"{file}:{line}: {name}"
        for name, file, line in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and name not in ALLOWLIST
        and counts[name] <= defined[name]
    )
    assert not dead, "no caller outside the tests:\n" + "\n".join(dead)


def test_the_allowlist_is_still_needed():
    """An allowlisted name that is no longer defined, or that has gained
    a caller, leaves the list: it can only shrink."""
    defined = Counter(name for name, _, _ in _definitions())
    counts = _identifier_counts()
    stale = sorted(
        name
        for name in ALLOWLIST
        if defined[name] == 0 or counts[name] > defined[name]
    )
    assert not stale, f"allowlisted but undefined or called: {stale}"


def test_the_scan_sees_the_package():
    """Guard against a vacuous pass: the walk finds the package's
    definitions, a definition's own name is counted, and an import or
    an ``__all__`` entry is not."""
    definitions = _definitions()
    names = {name for name, _, _ in definitions}
    assert len(definitions) > 500
    assert {"ReliabilityAssessor", "DeploymentSearch", "do_GET"} <= names
    assert _identifier_counts()["ReliabilityAssessor"] > 1
    blanked = _without_imports_and_exports(
        "from a import (\n    b,\n    c,\n)\nimport d\n__all__ = [\n    'e',\n]\nf(b)\n"
    )
    assert _IDENTIFIER.findall(blanked) == ["f", "b"]
