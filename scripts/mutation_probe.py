"""Mutation probe: can a module's tests see a wrong answer?

One mutant at a time is made inside the function bodies of a module under
``src/repro`` and run against that module's test list (``TESTS``) with
``-x`` and a fixed hypothesis seed. A run that fails, or outlives its
timeout, kills the mutant. Operators: ``<``/``<=``, ``>``/``>=``,
``==``/``!=``, ``+``/``-``, ``*``/``/``, ``&``/``|`` (augmented
assignments included), ``and``/``or``, and an int constant + 1.
Annotations, docstrings and ``__repr__`` are never mutated.

A survivor needs one of three fates: a test that kills it, deletion of
the code it mutated, or an entry in ``EQUIVALENT`` that says why no test
can tell it from the original. Like the dead-code allowlist, that list
can only shrink.

Mutants run in a scratch copy of ``src/`` and ``tests/`` (under
``$TMPDIR``), never in the checkout. The rows of the probed modules
replace their earlier rows in ``benchmarks/results/mutation.json``;
other modules' rows are kept.

    python scripts/mutation_probe.py sampling/dagger.py sampling/statistics.py

Every module in ``TESTS`` is probed by CI's weekly ``Mutation probe`` job.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "benchmarks" / "results" / "mutation.json"

#: Module (relative to ``src/repro``) -> the tests its mutants run against.
TESTS = {
    "sampling/dagger.py": [
        "tests/test_dagger.py",
        "tests/test_kernel.py::TestPackedEdgeCases",
        "tests/test_kernel.py::TestSamplerFastPaths",
        "tests/test_incremental.py",
        "tests/test_cancellation.py",
    ],
    "sampling/statistics.py": [
        "tests/test_statistics.py",
        "tests/test_calibration.py",
        "tests/test_runtime.py",
    ],
    "sampling/montecarlo.py": [
        "tests/test_montecarlo.py",
        "tests/test_kernel.py::TestSamplerFastPaths",
        "tests/test_calibration.py",
    ],
    "kernel/exact.py": ["tests/test_analytic.py", "tests/test_calibration.py"],
    "core/analytic.py": [
        "tests/test_analytic.py",
        "tests/test_api.py",
        "tests/test_substrate.py",
    ],
    "core/risk.py": ["tests/test_risk.py"],
    "core/transforms.py": [
        "tests/test_transforms.py",
        "tests/test_substrate.py::TestSymmetryFollowsTheSubstrate",
    ],
    "core/evaluation.py": [
        "tests/test_evaluation.py",
        "tests/test_kernel.py",
        "tests/test_properties.py",
        "tests/test_risk.py",
        "tests/test_zones.py",
    ],
    "routing/generic.py": [
        "tests/test_routing.py::TestGenericEngine",
        "tests/test_routing.py::TestGenericEngineVsUnionFind",
        "tests/test_routing.py::TestGenericEngineKeepsItsPropagations",
        "tests/test_routing.py::TestRelevantLayers",
        "tests/test_zones.py",
        "tests/test_evaluation.py::TestSettleThenFixedPoint",
        "tests/test_evaluation.py::TestSettledRowsAreKept",
    ],
    "routing/fattree_fast.py": [
        "tests/test_routing.py",
        "tests/test_kernel.py",
        "tests/test_properties.py",
    ],
    "runtime/mapreduce.py": [
        "tests/test_runtime.py",
        "tests/test_chaos.py",
        "tests/test_cancellation.py::TestParallelCancellation",
    ],
    "service/journal.py": [
        "tests/test_journal.py",
        "tests/test_lifecycle.py",
        "tests/test_recovery.py",
        "tests/test_golden.py",
        "tests/test_drill.py",
    ],
    "service/redeploy.py": [
        "tests/test_redeploy.py",
        "tests/test_drill.py",
        "tests/test_golden.py",
        "tests/test_validation.py::TestOneBudgetRule",
    ],
    # The result store, with the journal it pairs with, the core that
    # writes it and the drill that checks the two agree.
    "service/store.py": [
        "tests/test_journal.py",
        "tests/test_lifecycle.py",
        "tests/test_drill.py",
    ],
    # The failure detector and restart policy, alone and in the core.
    "service/heartbeat.py": [
        "tests/test_heartbeat.py",
        "tests/test_lifecycle.py::TestFailover",
    ],
    # The core's own tests and the drill, which runs it: no fleet forks.
    "service/lifecycle.py": [
        "tests/test_fleet.py::TestHashRing",
        "tests/test_lifecycle.py::TestAdmission",
        "tests/test_lifecycle.py::TestIdempotency",
        "tests/test_lifecycle.py::TestTerminalRecords",
        "tests/test_lifecycle.py::TestOnMessage",
        "tests/test_lifecycle.py::TestFailover",
        "tests/test_lifecycle.py::TestForeignFamilies",
        "tests/test_lifecycle.py::TestSeams::test_durability_seams_exist_once_in_the_core",
        "tests/test_lifecycle.py::TestSeams::test_seams_fire_in_the_drill",
        "tests/test_lifecycle.py::TestDrillRunsProductionCode",
        "tests/test_drill.py::TestDrillEngine",
        "tests/test_drill.py::TestSeededBug",
        "tests/test_drill.py::TestDrillCli",
    ],
    # The checks every drill verdict rests on: clean campaigns, seeded
    # bugs and hand-broken durable state.
    "drill/invariants.py": ["tests/test_drill.py"],
}

#: ``(module, stripped source line, operator, occurrence)`` -> why the
#: mutant cannot be told apart from the original. ``occurrence`` counts the
#: earlier mutants of the module with the same line text and operator.
_CACHE_BOUND = "a cache's eviction threshold: one entry more before a clear changes no value"
_DEFAULT_SEGMENT = (
    "the journal's default rotation threshold (`2 << 20` or `1 << 21`: 2 MiB, not 1): "
    "where a segment rotates changes no record, and the service passes its own "
    "`ServiceConfig.journal_segment_bytes`"
)
EQUIVALENT = {
    ("sampling/dagger.py", "if not positive or rounds <= 0:", "LtE->Lt", 0):
        "at rounds == 0 the geometry has zero blocks, so zero draws: 0 either way",
    ("sampling/dagger.py", "if len(_GEOMETRY_CACHE) >= 4096:", "GtE->Gt", 0): _CACHE_BOUND,
    ("sampling/dagger.py", "if len(_GEOMETRY_CACHE) >= 4096:", "int+1", 0): _CACHE_BOUND,
    (
        "sampling/dagger.py",
        "last = min(int(ends.searchsorted(lo + CHUNK_DRAWS)) + 1, len(rows))",
        "int+1",
        0,
    ): "one more row a chunk: chunk bounds change no bit (TestOnePassDraw holds "
    "every chunk size down to one row to the per-level loop)",
    ("sampling/dagger.py", "cells = matrix.reshape(-1)", "int+1", 0):
        "numpy reads any negative size in reshape as 'the rest': -1 and -2 give "
        "the same flat view",
    ("kernel/exact.py", "refs[nid] += 1", "int+1", 1):
        "(the extra_refs count) a node in the sub-DAG already has a root or a "
        "parent reference, so one extra reference makes it shared and a second "
        "changes nothing",
    ("kernel/exact.py", "and 0.0 < probabilities[operands[nid]] < 1.0", "Lt->LtE", 1):
        "(the upper bound) no validated probability is 1, and conditioning such a "
        "leaf gives the same values: its unfired half weighs 0",
    ("kernel/exact.py", "if len(_ROWS_CACHE) >= 32:", "GtE->Gt", 0): _CACHE_BOUND,
    ("kernel/exact.py", "if len(_ROWS_CACHE) >= 32:", "int+1", 0): _CACHE_BOUND,
    ("core/analytic.py", "if len(self._closure_states) >= 1024:", "GtE->Gt", 0):
        _CACHE_BOUND,
    ("core/analytic.py", "if len(self._closure_states) >= 1024:", "int+1", 0):
        _CACHE_BOUND,
    ("core/analytic.py", "if len(self._results) >= 8192:", "GtE->Gt", 0): _CACHE_BOUND,
    ("core/analytic.py", "if len(self._results) >= 8192:", "int+1", 0): _CACHE_BOUND,
    ("core/evaluation.py", "(a, b) if a < b else (b, a)", "Lt->LtE", 0):
        "a plan places every instance on its own host, so `a` and `b` differ",
    (
        "core/evaluation.py",
        "pair = (host, src_host) if host < src_host else (src_host, host)",
        "Lt->LtE",
        0,
    ): "a plan places every instance on its own host, so the two hosts differ",
    (
        "routing/fattree_fast.py",
        "cell = [_any_of(a, b) for a, b in zip(rows[:cells], rows[cells : 2 * cells])]",
        "int+1",
        0,
    ): "`rows[cells : 3 * cells]`: zip stops with `rows[:cells]`, so the extra "
    "rows are never read",
    ("routing/fattree_fast.py", "uplinks = ids[g * radix : (g + 1) * radix]", "int+1", 0):
        "`(g + 2) * radix`: zip with `by_group[g]` reads the group's own uplinks "
        "only; a failure among the extra ids adds `_every(by_group[g])` to a part "
        "whose `core_dead[g]` already covers it",
    ("core/transforms.py", "if len(self._changes) >= MAX_CHANGES:", "GtE->Gt", 0):
        _CACHE_BOUND,
    ("core/transforms.py", "shift[key] = shift.get(key, 0) + step", "Add->Sub", 0):
        "every entry of the signed difference flips sign, and a difference is "
        "zero exactly when its negation is",
    ("core/transforms.py", "if len(table) == count or not shared:", "Or->And", 0):
        "an early exit: a discrete colouring, or one with no shared group to "
        "refine by, is a fixpoint, and the next round splits no class and "
        "breaks with the same tables and colours",
    ("runtime/mapreduce.py", "os._exit(70)  # the only command: gone, as after a SIGKILL", "int+1", 0):
        "the master learns of a dead worker from its pipe's EOF and never reads "
        "the exit status",
    ("core/transforms.py", "image = [-1] * len(order)", "int+1", 0):
        "the fill value is never read: a group is looked up only at the depth "
        "of its last member, when every member has its image",
    (
        "service/journal.py",
        "self, directory, segment_bytes: int = 1 << 20, shard: int | None = None",
        "int+1",
        0,
    ): _DEFAULT_SEGMENT,
    (
        "service/journal.py",
        "self, directory, segment_bytes: int = 1 << 20, shard: int | None = None",
        "int+1",
        1,
    ): _DEFAULT_SEGMENT,
    ("service/lifecycle.py", 'return int.from_bytes(digest[:8], "big")', "int+1", 0):
        "a ring point from 9 digest bytes instead of 8: the ninth byte only "
        "breaks ties between equal 8-byte prefixes, so every comparison, and "
        "with it every placement, is the same barring a 64-bit collision",
    (
        "service/lifecycle.py",
        "for family in sorted(families, key=lambda f: -1 if f is None else f)",
        "int+1",
        0,
    ): "-1 or -2 as the unsharded family's sort key: both sort it before "
    "every shard number, and shard numbers are never negative",
    ("service/journal.py", "and now - os.path.getmtime(path) >= ttl_seconds", "GtE->Gt", 0):
        "a segment's age is the difference of two wall-clock readings; it equals "
        "the TTL only by coincidence of floats, and at TTL 0 the clock has moved "
        "on since the file was written, so both remove it",
}

_PAIRS = [
    (ast.Lt, ast.LtE),
    (ast.Gt, ast.GtE),
    (ast.Eq, ast.NotEq),
    (ast.Add, ast.Sub),
    (ast.Mult, ast.Div),
    (ast.BitAnd, ast.BitOr),
    (ast.And, ast.Or),
]
SWAPS = {**dict(_PAIRS), **{b: a for a, b in _PAIRS}}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SKIPPED_FIELDS = {"annotation", "returns"}


def _is_docstring(node: ast.AST, parent: ast.AST | None) -> bool:
    return (
        isinstance(parent, (*_FUNCTIONS, ast.ClassDef, ast.Module))
        and bool(parent.body)
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _sites(tree: ast.AST) -> list[tuple[ast.AST, int | None, str]]:
    """Every mutation site in function bodies, in a fixed order:
    ``(node, index of the comparison operator or None, operator label)``."""
    found: list[tuple[ast.AST, int | None, str]] = []

    def visit(node: ast.AST, parent: ast.AST | None, in_function: bool) -> None:
        if isinstance(node, _FUNCTIONS):
            if node.name == "__repr__":
                return
            in_function = True
        if _is_docstring(node, parent):
            return
        if in_function:
            if isinstance(node, ast.Compare):
                for index, op in enumerate(node.ops):
                    if type(op) in SWAPS:
                        label = f"{type(op).__name__}->{SWAPS[type(op)].__name__}"
                        found.append((node, index, label))
            elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
                if type(node.op) in SWAPS:
                    swapped = SWAPS[type(node.op)].__name__
                    found.append((node, None, f"{type(node.op).__name__}->{swapped}"))
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                found.append((node, None, "int+1"))
        for field, value in ast.iter_fields(node):
            if field in _SKIPPED_FIELDS:
                continue
            children = value if isinstance(value, list) else [value]
            for child in children:
                if isinstance(child, ast.AST):
                    visit(child, node, in_function)

    visit(tree, None, False)
    return found


def _mutate(node: ast.AST, index: int | None) -> None:
    if isinstance(node, ast.Compare):
        node.ops[index] = SWAPS[type(node.ops[index])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = SWAPS[type(node.op)]()


def mutants(source: str) -> list[tuple[int, str, str, int]]:
    """``(line, operator, stripped source line, occurrence)`` of every
    mutant (see :data:`EQUIVALENT`)."""
    lines = source.splitlines()
    seen: dict[tuple[str, str], int] = {}
    found = []
    for node, _index, label in _sites(ast.parse(source)):
        text = lines[node.lineno - 1].strip()
        occurrence = seen.get((text, label), 0)
        seen[(text, label)] = occurrence + 1
        found.append((node.lineno, label, text, occurrence))
    return found


def mutant_source(source: str, number: int) -> str:
    """The module with mutant ``number`` applied (``-1``: none), unparsed."""
    tree = ast.parse(source)
    if number >= 0:
        node, index, _label = _sites(tree)[number]
        _mutate(node, index)
    return ast.unparse(tree) + "\n"


def _run(workdir: Path, tests: list[str], timeout: float) -> tuple[bool, float]:
    """``(passed, seconds)`` of one run of ``tests`` in ``workdir``."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", *tests,
    ]
    start = time.perf_counter()
    try:
        completed = subprocess.run(
            command, cwd=workdir, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        passed = completed.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.perf_counter() - start


def probe(module: str, workdir: Path) -> list[dict]:
    """One row per mutant of ``module``, run in the copy at ``workdir``."""
    tests = TESTS[module]
    target = workdir / "src" / "repro" / module
    source = target.read_text(encoding="utf-8")  # the copy's, not the checkout's
    target.write_text(mutant_source(source, -1), encoding="utf-8")
    passed, baseline = _run(workdir, tests, timeout=3600)
    if not passed:
        raise SystemExit(f"{module}: the tests fail on the unmutated module")
    rows = []
    try:
        for number, (line, operator, text, occurrence) in enumerate(mutants(source)):
            target.write_text(mutant_source(source, number), encoding="utf-8")
            passed, seconds = _run(workdir, tests, timeout=3 * baseline + 30)
            row = {
                "module": module,
                "line": line,
                "operator": operator,
                "killed": not passed,
                "seconds": round(seconds, 2),
            }
            reason = EQUIVALENT.get((module, text, operator, occurrence))
            if passed and reason:
                row["equivalent"] = reason
            rows.append(row)
            print(
                f"{module}:{line} {operator:12s} "
                f"{'killed' if not passed else 'SURVIVED'} {seconds:6.1f}s  {text}",
                flush=True,
            )
    finally:
        target.write_text(source, encoding="utf-8")
    return rows


def _summary(rows: list[dict]) -> dict:
    survivors = [row for row in rows if not row["killed"]]
    return {
        "mutants": len(rows),
        "killed": len(rows) - len(survivors),
        "survived": len(survivors),
        "equivalent": sum(1 for row in survivors if "equivalent" in row),
        "seconds": round(sum(row["seconds"] for row in rows), 1),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", choices=sorted(TESTS))
    args = parser.parse_args(argv)
    report = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {"rows": []}
    rows = [row for row in report["rows"] if row["module"] not in args.modules]
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as scratch:
        workdir = Path(scratch)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", workdir / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", workdir / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", workdir / "pyproject.toml")
        for module in args.modules:
            rows.extend(probe(module, workdir))
    modules = sorted({row["module"] for row in rows})
    report = {
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "operators": sorted({row["operator"] for row in rows}),
        "tests": {module: TESTS[module] for module in modules},
        "summary": {
            module: _summary([row for row in rows if row["module"] == module])
            for module in modules
        },
        "rows": rows,
    }
    OUTPUT.write_text(json.dumps(report, indent=1) + "\n")
    for module in modules:
        print(module, report["summary"][module])
    return 0


if __name__ == "__main__":
    sys.exit(main())
