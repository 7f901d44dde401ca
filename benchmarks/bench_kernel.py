"""Compiled kernel vs interpreted assessment path.

Runs the same workloads through the interpreted pipeline
(``kernel=False``, named explicitly: the kernel is the default) and the
compiled kernel (integer component arena + bit-packed round states +
flattened fault-tree programs), verifies every per-round vector is
*bit-identical*, and records:

* ``assess`` — end-to-end sequential assessments on the Table-2 tiny
  preset at the default 10^4 rounds, with the full infrastructure
  sampled (the Table-1 semantics Fig. 7 times);
* ``search_loop`` — the incremental engine replaying a single-VM-move
  random walk with packed vs dense round states;
* ``shared_batch`` — ``score_plans`` scoring a candidate set off one
  common-random-numbers batch vs assessing each plan solo;
* ``cold_medium`` — a distinct cold 8-of-10 plan per assessment on the
  Table-2 medium preset, closure-only and with the full infrastructure
  sampled (the mode Fig. 7 times): p50 and peak RSS of each leg over 5
  interleaved repeats, a process each. Recorded, not gated.

What is gated repeats exactly: 0 mismatches everywhere, and the function
calls (Python and C, counted by ``sys.setprofile``) one pass of the
``assess`` leg makes on each side — the interpreter's dispatch overhead
is what the kernel removes, and a call count does not depend on the
runner. Seconds are recorded only.

Results land in ``BENCH_kernel.json`` at the repo root.

Usage::

    python benchmarks/bench_kernel.py            # full comparison
    python benchmarks/bench_kernel.py --smoke    # CI gate: asserts
        bit-equality and the call-count floor on the tiny preset

Also runnable under pytest (``pytest benchmarks/bench_kernel.py``).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import pathlib
import resource
import statistics
import sys
import time

import numpy as np

if __name__ == "__main__":  # standalone: make src/ importable without install
    _ROOT = pathlib.Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(_ROOT / "src"))
    sys.path.insert(0, str(_ROOT / "benchmarks"))

from common import count_calls
from repro.app.structure import ApplicationStructure
from repro.core.api import AssessmentConfig
from repro.core.assessment import ReliabilityAssessor
from repro.core.incremental import IncrementalAssessor
from repro.core.plan import DeploymentPlan
from repro.faults.inventory import build_paper_inventory
from repro.sampling.dagger import CommonRandomDaggerSampler
from repro.topology.presets import paper_topology

MASTER_SEED = 20170412
WALK_SEED = 11
#: The interpreted ``assess`` pass must make at least this many times the
#: function calls of the compiled one (measured: see BENCH_kernel.json).
CALLS_RATIO_FLOOR = 1.5

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_PATH = _REPO_ROOT / "BENCH_kernel.json"


def _substrate(scale: str):
    topology = paper_topology(scale, seed=1)
    inventory = build_paper_inventory(topology, seed=2)
    return topology, inventory


def _plans(topology, structure, count: int) -> list[DeploymentPlan]:
    rng = np.random.default_rng(WALK_SEED)
    plan = DeploymentPlan.random(topology, structure, rng=rng)
    plans = [plan]
    for _ in range(count - 1):
        plan = plan.random_neighbor(topology, rng=rng)
        plans.append(plan)
    return plans


def _both_sides(cls, topology, inventory, config):
    """``(interpreted, compiled)`` assessors of one config, each named."""
    interpreted = cls.from_config(
        topology, inventory, config.with_updates(kernel=False)
    )
    compiled = cls.from_config(topology, inventory, config.with_updates(kernel=True))
    assert interpreted.kernel is None, "interpreted leg is running the kernel"
    assert compiled.kernel is not None, "kernel disabled on a supported preset"
    return interpreted, compiled


def _mismatches(results_a, results_b) -> int:
    return sum(
        not np.array_equal(a, b) for a, b in zip(results_a, results_b, strict=True)
    )


def bench_assess(scale: str, rounds: int, repeats: int) -> dict:
    """End-to-end sequential assessments, interpreted vs kernel.

    Uses the Table-1 semantics the paper's Fig. 7 times — every component
    of the data center sampled (``sample_full_infrastructure=True``) for a
    2-of-8 application over a 12-plan search walk. The first pass checks
    bit-identity; timing is best-of-``repeats`` passes per pipeline so one
    scheduler hiccup cannot fail the gate on a noisy runner.
    """
    topology, inventory = _substrate(scale)
    structure = ApplicationStructure.k_of_n(2, 8)
    plans = _plans(topology, structure, 12)
    base = AssessmentConfig(rounds=rounds, rng=7, sample_full_infrastructure=True)

    legacy, kernel = _both_sides(ReliabilityAssessor, topology, inventory, base)

    # Warmup pass doubling as the bit-identity check: both assessors start
    # from the same rng seed, so pass one is draw-for-draw comparable.
    legacy_results = [legacy.assess(p, structure).per_round for p in plans]
    kernel_results = [kernel.assess(p, structure).per_round for p in plans]
    mismatches = _mismatches(legacy_results, kernel_results)
    legacy_calls = count_calls(lambda: [legacy.assess(p, structure) for p in plans])
    kernel_calls = count_calls(lambda: [kernel.assess(p, structure) for p in plans])

    legacy_seconds = kernel_seconds = float("inf")
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        for p in plans:
            legacy.assess(p, structure)
        legacy_seconds = min(legacy_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        for p in plans:
            kernel.assess(p, structure)
        kernel_seconds = min(kernel_seconds, time.perf_counter() - start)

    return {
        "workload": "assess",
        "scale": scale,
        "rounds": rounds,
        "assessments": len(plans),
        "timing_repeats": max(repeats, 1),
        "interpreted_seconds": legacy_seconds,
        "kernel_seconds": kernel_seconds,
        "speedup": legacy_seconds / max(kernel_seconds, 1e-12),
        "interpreted_calls": legacy_calls,
        "kernel_calls": kernel_calls,
        "calls_ratio": legacy_calls / kernel_calls,
        "mismatches": mismatches,
    }


def bench_search_loop(scale: str, rounds: int, moves: int) -> dict:
    """Incremental move walk with dense vs packed round states."""
    topology, inventory = _substrate(scale)
    structure = ApplicationStructure.k_of_n(2, 3)
    plans = _plans(topology, structure, moves + 1)
    base = AssessmentConfig(
        mode="incremental", rounds=rounds, master_seed=MASTER_SEED
    )

    dense, packed = _both_sides(IncrementalAssessor, topology, inventory, base)

    start = time.perf_counter()
    dense_results = [dense.assess(p, structure).per_round for p in plans]
    dense_seconds = time.perf_counter() - start

    start = time.perf_counter()
    packed_results = [packed.assess(p, structure).per_round for p in plans]
    packed_seconds = time.perf_counter() - start

    return {
        "workload": "search_loop",
        "scale": scale,
        "rounds": rounds,
        "moves": moves,
        "interpreted_seconds": dense_seconds,
        "kernel_seconds": packed_seconds,
        "speedup": dense_seconds / max(packed_seconds, 1e-12),
        "mismatches": _mismatches(dense_results, packed_results),
    }


def bench_shared_batch(scale: str, rounds: int, plans_count: int) -> dict:
    """score_plans off one CRN batch vs one solo assessment per plan."""
    topology, inventory = _substrate(scale)
    structure = ApplicationStructure.k_of_n(2, 3)
    plans = _plans(topology, structure, plans_count)
    config = AssessmentConfig(
        rounds=rounds,
        sampler=CommonRandomDaggerSampler(MASTER_SEED),
        kernel=True,
    )

    solo = ReliabilityAssessor.from_config(topology, inventory, config)
    start = time.perf_counter()
    solo_results = [solo.assess(p, structure).per_round for p in plans]
    solo_seconds = time.perf_counter() - start

    shared = ReliabilityAssessor.from_config(topology, inventory, config)
    start = time.perf_counter()
    shared_results = [
        r.per_round for r in shared.score_plans(plans, structure)
    ]
    shared_seconds = time.perf_counter() - start

    return {
        "workload": "shared_batch",
        "scale": scale,
        "rounds": rounds,
        "plans": plans_count,
        "interpreted_seconds": solo_seconds,
        "kernel_seconds": shared_seconds,
        "speedup": solo_seconds / max(shared_seconds, 1e-12),
        "mismatches": _mismatches(solo_results, shared_results),
    }


def _cold_leg(kernel: bool, full: bool, plans: int, rounds: int) -> dict:
    """One leg in its own process: ``plans`` cold assessments on a substrate
    built here, their p50 and the process's peak RSS."""
    topology, inventory = _substrate("medium")
    structure = ApplicationStructure.k_of_n(8, 10)
    assessor = ReliabilityAssessor.from_config(
        topology,
        inventory,
        AssessmentConfig(
            rounds=rounds, rng=7, kernel=kernel, sample_full_infrastructure=full
        ),
    )
    rng = np.random.default_rng(WALK_SEED)
    name = structure.components[0].name
    seconds, scores = [], []
    for _ in range(plans):
        picks = rng.choice(len(topology.hosts), 10, replace=False)
        plan = DeploymentPlan.single_component(
            [topology.hosts[i] for i in picks], name
        )
        start = time.perf_counter()
        result = assessor.assess(plan, structure)
        seconds.append(time.perf_counter() - start)
        scores.append(result.estimate.score)
    return {
        "p50_ms": 1e3 * statistics.median(seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "scores": scores,
    }


def bench_cold_medium(rounds: int, plans: int, repeats: int = 5) -> list[dict]:
    """Cold 8-of-10 plans on ``medium``, closure-only and full infrastructure.

    Every leg runs in its own spawned process (peak RSS is per process and
    only ever rises), legs interleaved, the first repeat a discarded
    warm-up of the host. Recorded information: nothing here is gated but
    the equality of the two legs' scores.
    """
    context = multiprocessing.get_context("spawn")
    rows = []
    for full in (False, True):
        legs = {False: [], True: []}
        for _ in range(repeats + 1):
            for kernel in (False, True):
                with context.Pool(1) as pool:
                    legs[kernel].append(
                        pool.apply(_cold_leg, (kernel, full, plans, rounds))
                    )
        row = {
            "workload": "cold_medium_full" if full else "cold_medium_closure",
            "scale": "medium",
            "rounds": rounds,
            "assessments": plans,
            "timing_repeats": repeats,
            "mismatches": sum(
                a["scores"] != b["scores"] for a, b in zip(legs[False], legs[True])
            ),
        }
        for side, kernel in (("interpreted", False), ("kernel", True)):
            timed = legs[kernel][1:]
            row[f"{side}_p50_ms"] = statistics.median(leg["p50_ms"] for leg in timed)
            row[f"{side}_peak_rss_mb"] = max(leg["peak_rss_mb"] for leg in timed)
        rows.append(row)
    return rows


def _report(row: dict) -> str:
    if "interpreted_p50_ms" in row:
        return (
            f"{row['workload']:<19} rounds={row['rounds']:<7} "
            f"interpreted={row['interpreted_p50_ms']:.1f}ms/"
            f"{row['interpreted_peak_rss_mb']:.0f}MB "
            f"kernel={row['kernel_p50_ms']:.1f}ms/{row['kernel_peak_rss_mb']:.0f}MB "
            f"mismatches={row['mismatches']}"
        )
    calls = (
        f" calls={row['interpreted_calls']}/{row['kernel_calls']}"
        if "kernel_calls" in row
        else ""
    )
    return (
        f"{row['workload']:<13} {row['scale']:<6} rounds={row['rounds']:<7} "
        f"interpreted={row['interpreted_seconds']:.3f}s "
        f"kernel={row['kernel_seconds']:.3f}s "
        f"speedup={row['speedup']:.2f}x{calls} mismatches={row['mismatches']}"
    )


def _failures(rows: list[dict]) -> list[str]:
    """Gate failures (empty = all gates met): counts, never seconds."""
    failures = [
        f"{row['workload']}: kernel diverged from the interpreted path "
        f"({row['mismatches']} mismatches)"
        for row in rows
        if row["mismatches"]
    ]
    assess = rows[0]
    if assess["calls_ratio"] < CALLS_RATIO_FLOOR:
        failures.append(
            f"assess: the interpreter makes {assess['calls_ratio']:.2f}x the "
            f"kernel's function calls, below the {CALLS_RATIO_FLOOR}x floor"
        )
    return failures


def _run(rows: list[dict]) -> int:
    for row in rows:
        print(_report(row))
    failures = _failures(rows)
    for failure in failures:
        print(f"  !! {failure}")
    payload = {
        "benchmark": "compiled assessment kernel vs interpreted path",
        "master_seed": MASTER_SEED,
        "calls_ratio_floor": CALLS_RATIO_FLOOR,
        "rows": rows,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULTS_PATH}")
    return 1 if failures else 0


def run_smoke() -> int:
    """CI gate: 0 mismatches and the call-count floor; seconds recorded."""
    code = _run(
        [
            bench_assess("tiny", rounds=10_000, repeats=6),
            bench_search_loop("tiny", rounds=2_000, moves=10),
            bench_shared_batch("tiny", rounds=2_000, plans_count=8),
            *bench_cold_medium(rounds=10_000, plans=30),
        ]
    )
    if code == 0:
        print("smoke OK: bit-identical results, call-count floor met")
    return code


def run_full(scales: list[str], rounds: int) -> int:
    rows = []
    for scale in scales:
        rows += [
            bench_assess(scale, rounds=rounds, repeats=8),
            bench_search_loop(scale, rounds=rounds, moves=30),
            bench_shared_batch(scale, rounds=rounds, plans_count=12),
        ]
    return _run(rows + bench_cold_medium(rounds=rounds, plans=100))


def test_kernel_smoke():
    """Pytest entry point mirroring the CI smoke gate."""
    assert run_smoke() == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI gate: bit-equality plus the call-count floor",
    )
    parser.add_argument(
        "--scales", default="tiny", help="comma-separated Table-2 scales"
    )
    parser.add_argument("--rounds", type=int, default=10_000)
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke()
    scales = [s.strip() for s in args.scales.split(",") if s.strip()]
    return run_full(scales, rounds=args.rounds)


if __name__ == "__main__":
    sys.exit(main())
