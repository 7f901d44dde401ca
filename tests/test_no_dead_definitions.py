"""Every function, class and method defined under ``src/repro`` is named
somewhere besides its own definition.

A name that appears nowhere else in ``src/``, ``tests/``, ``benchmarks/``,
``examples/`` or ``scripts/`` has no caller: it is dead code, and this
test fails until it is deleted (or given a caller). The check counts
identifier tokens, so a reference from a test, a benchmark or a
docstring keeps a name alive; it errs on the side of keeping code.

Dunder methods (``__init__``, ``__repr__``, ...) are called by the
language, never by name, so they are not checked. The allowlist holds
only the ``http.server`` hooks the standard library calls by name.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "tests", "benchmarks", "examples", "scripts")

#: Methods that ``http.server.BaseHTTPRequestHandler`` dispatches to.
ALLOWLIST = frozenset({"do_GET", "do_POST", "log_message"})

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


def _identifier_counts() -> Counter:
    counts: Counter = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            counts.update(_IDENTIFIER.findall(path.read_text(encoding="utf-8")))
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
    assert not dead, "defined but never referenced:\n" + "\n".join(dead)


def test_the_scan_sees_the_package():
    """Guard against a vacuous pass: the walk finds the package's
    definitions, and a definition's own name is counted."""
    definitions = _definitions()
    names = {name for name, _, _ in definitions}
    assert len(definitions) > 500
    assert {"ReliabilityAssessor", "DeploymentSearch", "do_GET"} <= names
    assert _identifier_counts()["ReliabilityAssessor"] > 1
