"""Failure-drill campaign benchmark and CI gate.

Two phases, both pure CPU (the drill is a single-threaded deterministic
simulation — no processes, no sleeps, no timing sensitivity):

* **clean campaign** — the fixed-seed campaign the CI gate runs
  (``--rounds 30 --seed 7``) must finish with zero invariant
  violations, and a re-run of one round must be bit-identical
  (reproducibility is the property everything else rests on).
* **seeded bugs** — the same campaign once per
  :data:`~repro.drill.schedule.SEEDED_BUGS` entry, that bug injected,
  must fail, shrink the failing schedule to at most
  :data:`SHRUNK_EVENTS_BUDGET` events, and the written reproducer must
  replay to the same verdict twice. This is the self-test that the
  invariant checkers catch real defects, not just pass clean runs; one
  bug that survives fails the run, ``--smoke`` included.

Results land in ``BENCH_drill.json`` at the repo root; the failing
reproducers (one per bug — each should write one) stay under the
chosen ``--out`` directory so CI can upload it as an artifact.

Usage::

    python benchmarks/bench_drill.py            # 60-round campaign
    python benchmarks/bench_drill.py --smoke    # CI gate: 30 rounds

Also runnable under pytest (``pytest benchmarks/bench_drill.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile
import time

if __name__ == "__main__":  # standalone: make src/ importable without install
    _ROOT = pathlib.Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(_ROOT / "src"))
    sys.path.insert(0, str(_ROOT / "benchmarks"))

from repro.drill.engine import replay_reproducer, run_campaign, run_drill
from repro.drill.schedule import SEEDED_BUGS, random_schedule
from repro.serialization import encode

from common import ResultTable

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_PATH = _REPO_ROOT / "BENCH_drill.json"

#: The fixed-seed campaign CI gates on (mirrors the acceptance command
#: ``repro drill --rounds 30 --seed 7``).
GATE_ROUNDS = 30
GATE_SEED = 7

#: The seeded bug must shrink to at most this many schedule events.
SHRUNK_EVENTS_BUDGET = 5


def _clean_phase(rounds: int, table: ResultTable, failures: list[str]) -> dict:
    start = time.perf_counter()
    report = run_campaign(rounds=rounds, seed=GATE_SEED)
    elapsed = time.perf_counter() - start
    table.row(
        f"{'clean':<18} {report.rounds_run:>7} {report.total_faults:>7} "
        f"{report.total_crashes:>8} {report.total_submissions:>7} "
        f"{elapsed:>8.1f} {'PASS' if report.passed else 'FAIL':>8}"
    )
    if not report.passed:
        failures.append(
            f"clean campaign failed at round {report.failed_round}: "
            + "; ".join(
                f"{v.invariant}: {v.detail}"
                for v in report.failure.violations
            )
        )
    if report.rounds_run != rounds:
        failures.append(
            f"clean campaign ran {report.rounds_run}/{rounds} rounds"
        )

    # Reproducibility gate: one drill re-run from (seed, schedule) alone
    # must be bit-identical, including every counter it reports.
    import random as _random

    schedule = random_schedule(_random.Random(GATE_SEED), max_events=5)
    first = run_drill(GATE_SEED, schedule)
    second = run_drill(GATE_SEED, schedule)
    if encode(first) != encode(second):
        failures.append("drill re-run from (seed, schedule) diverged")

    return {
        "rounds": report.rounds_run,
        "passed": report.passed,
        "faults_fired": report.total_faults,
        "crashes": report.total_crashes,
        "submissions": report.total_submissions,
        "seconds": elapsed,
    }


def _bug_phase(
    bug: str, out_dir: str, table: ResultTable, failures: list[str]
) -> dict:
    start = time.perf_counter()
    report = run_campaign(
        rounds=GATE_ROUNDS,
        seed=GATE_SEED,
        bug=bug,
        out_dir=os.path.join(out_dir, bug),
    )
    elapsed = time.perf_counter() - start
    table.row(
        f"{bug:<18} {report.rounds_run:>7} {report.total_faults:>7} "
        f"{report.total_crashes:>8} {report.total_submissions:>7} "
        f"{elapsed:>8.1f} {'FAIL' if report.passed else 'CAUGHT':>8}"
    )
    if report.passed:
        failures.append(f"seeded {bug} bug survived the campaign undetected")
        return {"caught": False, "seconds": elapsed}

    violated = sorted({v.invariant for v in report.failure.violations})
    if report.shrunk_events is None:
        failures.append(f"{bug}: failing schedule was not shrunk")
    elif report.shrunk_events > SHRUNK_EVENTS_BUDGET:
        failures.append(
            f"{bug}: shrunk reproducer has {report.shrunk_events} events, "
            f"budget is {SHRUNK_EVENTS_BUDGET}"
        )
    if report.reproducer_path is None or not os.path.exists(
        report.reproducer_path
    ):
        failures.append(f"{bug}: no reproducer file was written")
        return {"caught": True, "seconds": elapsed, "violated": violated}

    first = replay_reproducer(report.reproducer_path)
    second = replay_reproducer(report.reproducer_path)
    if first.passed:
        failures.append(f"{bug}: reproducer replay did not reproduce the failure")
    if encode(first) != encode(second):
        failures.append(f"{bug}: two reproducer replays diverged")
    with open(report.reproducer_path, "r", encoding="utf-8") as handle:
        reproducer = json.load(handle)
    return {
        "caught": True,
        "violated": violated,
        "failed_round": report.failed_round,
        "original_events": report.original_events,
        "shrunk_events": report.shrunk_events,
        "shrink_runs": report.shrink_runs,
        "reproducer": report.reproducer_path,
        "reproducer_events": len(reproducer["schedule"]),
        "seconds": elapsed,
    }


def run_bench(smoke: bool = False, out_dir: str | None = None) -> int:
    rounds = GATE_ROUNDS if smoke else int(
        os.environ.get("REPRO_BENCH_DRILL_ROUNDS", 2 * GATE_ROUNDS)
    )
    table = ResultTable(
        "drill_campaign",
        f"{'phase':<18} {'rounds':>7} {'faults':>7} {'crashes':>8} "
        f"{'reqs':>7} {'sec':>8} {'verdict':>8}",
    )
    failures: list[str] = []
    if out_dir is None:
        scratch = tempfile.TemporaryDirectory(prefix="repro-bench-drill-")
        out_dir = scratch.name
    else:
        scratch = None
        os.makedirs(out_dir, exist_ok=True)
    try:
        clean = _clean_phase(rounds, table, failures)
        bugs = {
            bug: _bug_phase(bug, out_dir, table, failures)
            for bug in sorted(SEEDED_BUGS)
        }
    finally:
        if scratch is not None:
            scratch.cleanup()
    table.save()
    RESULTS_PATH.write_text(
        json.dumps(
            {
                "gate": {"rounds": rounds, "seed": GATE_SEED},
                "clean": clean,
                "bugs": bugs,
                "failures": failures,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    if failures:
        print("\n".join(f"FAIL: {f}" for f in failures))
        return 1
    print(
        f"drill OK: {clean['rounds']} clean round(s) "
        f"({clean['faults_fired']} faults, {clean['crashes']} crashes), "
        + ", ".join(
            f"{bug} caught and shrunk to {row['shrunk_events']} event(s)"
            for bug, row in bugs.items()
        )
    )
    return 0


def test_drill_smoke():
    """Pytest entry point mirroring the standalone smoke gate."""
    assert run_bench(smoke=True) == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: the fixed 30-round gate campaign",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="directory for the seeded-bug reproducers (default: temp dir)",
    )
    args = parser.parse_args(argv)
    return run_bench(smoke=args.smoke, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
