"""Every ``path.py::Name[.attr]`` that DESIGN.md cites still resolves.

A path starting ``tests/`` is read from the repository root, any other
from ``src/repro``. The name is looked up in the file's AST: a module
level def, class or assignment, then a def, class or assignment in that
class body for each further dotted part.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CITATION = re.compile(r"([\w/]+\.py)::([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)")


def _citations() -> list[tuple[str, str]]:
    return sorted(set(CITATION.findall((ROOT / "DESIGN.md").read_text())))


def _defined(body: list[ast.stmt], name: str) -> ast.stmt | None:
    for node in body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name:
                return node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                return node
    return None


def test_design_cites_something():
    assert _citations()


@pytest.mark.parametrize(
    "path, dotted", _citations(), ids=[f"{p}::{d}" for p, d in _citations()]
)
def test_citation_resolves(path, dotted):
    file = ROOT / path if path.startswith("tests/") else ROOT / "src" / "repro" / path
    assert file.is_file(), f"DESIGN.md cites {path}, which does not exist"
    node: ast.stmt = ast.parse(file.read_text(), filename=str(file))
    for part in dotted.split("."):
        node = _defined(getattr(node, "body", []), part)
        assert node is not None, f"DESIGN.md cites {path}::{dotted}: no {part!r}"
