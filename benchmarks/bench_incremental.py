"""Incremental vs from-scratch assessment on the search hot path.

The annealing search re-assesses a neighbour plan differing by one VM
move per iteration. This bench replays the same randomized move sequence
through the from-scratch CRN assessor and the incremental engine,
verifies the per-round result lists are *bit-identical* at every step,
and reports the wall-clock speedup plus the cache hit rates that explain
it. Target: >= 3x on the Table-2 presets at the paper's default 10^4
rounds.

Usage::

    python benchmarks/bench_incremental.py            # full comparison
    python benchmarks/bench_incremental.py --smoke    # CI smoke: tiny
        preset, few moves; asserts equality + cache hit rate > 0, then
        the delta-pricing counts of a fixed-seed 25-move ``medium`` walk,
        the closure counts of 100 cold from-scratch ``tiny`` plans and
        what 20 repeated searches build on a warm ``tiny`` substrate
        (never wall-clock, so it cannot flake on loaded runners); writes
        ``BENCH_incremental.json``

Also runnable under pytest (``pytest benchmarks/bench_incremental.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np

if __name__ == "__main__":  # standalone: make src/ importable without install
    _ROOT = pathlib.Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(_ROOT / "src"))
    sys.path.insert(0, str(_ROOT / "benchmarks"))

from repro.app.structure import ApplicationStructure
from repro.core.anneal import MoveBudgetTemperatureSchedule
from repro.core.api import AssessmentConfig
from repro.core.assessment import ReliabilityAssessor
from repro.core.incremental import IncrementalAssessor
from repro.core.plan import DeploymentPlan
from repro.core.search import DeploymentSearch, SearchSpec
from repro.faults.inventory import build_paper_inventory
from repro.sampling import dagger
from repro.sampling.dagger import CommonRandomDaggerSampler
from repro.topology.presets import paper_topology
from repro.util.metrics import MetricsRegistry

MASTER_SEED = 20170412  # CoNEXT '17 submission-ish; any fixed value works
WALK_SEED = 11
RESULTS_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_incremental.json"


def _substrate(scale: str):
    topology = paper_topology(scale, seed=1)
    inventory = build_paper_inventory(topology, seed=2)
    return topology, inventory


def _move_sequence(topology, structure, moves: int) -> list[DeploymentPlan]:
    """A deterministic single-VM-move random walk, like the search takes."""
    rng = np.random.default_rng(WALK_SEED)
    plan = DeploymentPlan.random(topology, structure, rng=rng)
    plans = [plan]
    for _ in range(moves):
        plan = plan.random_neighbor(topology, rng=rng)
        plans.append(plan)
    return plans


def _assess_walk(assessor, plans, structure) -> tuple[float, list[np.ndarray]]:
    start = time.perf_counter()
    results = [assessor.assess(plan, structure).per_round for plan in plans]
    return time.perf_counter() - start, results


def run_comparison(
    scale: str, rounds: int, moves: int, k: int = 2, n: int = 3
) -> dict:
    """Replay one move sequence through both engines; verify + time."""
    topology, inventory = _substrate(scale)
    structure = ApplicationStructure.k_of_n(k, n)
    plans = _move_sequence(topology, structure, moves)

    scratch = ReliabilityAssessor.from_config(
        topology,
        inventory,
        AssessmentConfig(
            rounds=rounds, sampler=CommonRandomDaggerSampler(MASTER_SEED)
        ),
    )
    incremental = IncrementalAssessor.from_config(
        topology,
        inventory,
        AssessmentConfig(
            mode="incremental",
            rounds=rounds,
            master_seed=MASTER_SEED,
            metrics=MetricsRegistry(),
        ),
    )

    scratch_seconds, scratch_results = _assess_walk(scratch, plans, structure)
    incremental_seconds, incremental_results = _assess_walk(
        incremental, plans, structure
    )

    mismatches = sum(
        not np.array_equal(a, b)
        for a, b in zip(scratch_results, incremental_results)
    )
    metrics = incremental.metrics
    return {
        "scale": scale,
        "rounds": rounds,
        "moves": moves,
        "scratch_seconds": scratch_seconds,
        "incremental_seconds": incremental_seconds,
        "speedup": scratch_seconds / max(incremental_seconds, 1e-12),
        "mismatches": mismatches,
        "component_hit_rate": metrics.hit_rate("sample/component"),
        "subject_hit_rate": metrics.hit_rate("faulttree/subject"),
        "plan_cache_hits": metrics.counter("plan_cache/hit"),
        "metrics": metrics,
    }


def run_delta_counts(scale: str = "medium", rounds: int = 600, moves: int = 25) -> dict:
    """What a fixed-seed walk costs the incremental universe, in counts.

    Every count is a function of the walk alone — none depends on set
    order, so all repeat exactly across ``PYTHONHASHSEED`` and hosts:
    closure components seen, how many of them the positive-probability
    mask dropped without a draw, private generators constructed, shared
    closure layers the walk built (read from its counters: the kernel is
    the substrate's, shared with anything else on it), against the pods,
    edge switches and hosts the walk touched.
    """
    topology, inventory = _substrate(scale)
    structure = ApplicationStructure.k_of_n(8, 10)
    plans = _move_sequence(topology, structure, moves)
    assessor = IncrementalAssessor.from_config(
        topology,
        inventory,
        AssessmentConfig(mode="incremental", rounds=rounds, master_seed=MASTER_SEED),
    )
    generators = 0
    component_stream = dagger._component_stream

    def counted_stream(master_seed, component_id):
        nonlocal generators
        generators += 1
        return component_stream(master_seed, component_id)

    dagger._component_stream = counted_stream
    try:
        for plan in plans:
            assessor.assess(plan, structure)
    finally:
        dagger._component_stream = component_stream
    seen = set().union(*(assessor.closure_for(plan)[1] for plan in plans))
    probabilities = inventory.failure_probabilities()
    positive = sum(probabilities[cid] > 0.0 for cid in seen)
    hosts = {host for plan in plans for host in plan.hosts()}
    edges = {topology.edge_switch_of(host) for host in hosts}
    pods = {topology.edge_pod[edge] for edge in edges}
    return {
        "workload": "delta_counts",
        "scale": scale,
        "rounds": rounds,
        "moves": moves,
        "components_seen": len(seen),
        "component_misses": int(assessor.metrics.counter("sample/component/miss")),
        "dropped_by_positive_mask": len(seen) - positive,
        "positive_misses": positive,
        "generators_constructed": generators,
        "layer_builds": int(assessor.metrics.counter("closure/layer/miss")),
        "pods_touched": len(pods),
        "edges_touched": len(edges),
        "hosts_touched": len(hosts),
    }


def run_scratch_counts(scale: str = "tiny", rounds: int = 600, count: int = 100) -> dict:
    """What cold plans cost the from-scratch assessor's closure, in counts.

    ``count`` distinct random 3-host plans, each assessed once: the
    components handed to the sampler against the positive-probability
    components of each plan's string-set closure (engine elements plus
    their subjects' basic events), the ``sample/components`` counter
    against the closures' full sizes, and the shared layers built against
    the pods and edge switches touched. All repeat exactly across
    ``PYTHONHASHSEED``.
    """
    topology, inventory = _substrate(scale)
    structure = ApplicationStructure.k_of_n(2, 3)
    registry = MetricsRegistry()
    assessor = ReliabilityAssessor.from_config(
        topology, inventory, AssessmentConfig(rounds=rounds, rng=WALK_SEED, metrics=registry)
    )
    drawn = 0
    sample = assessor.sampler.sample

    def counted_sample(probabilities, *args, **kwargs):
        nonlocal drawn
        drawn += len(probabilities)
        return sample(probabilities, *args, **kwargs)

    assessor.sampler.sample = counted_sample
    try:
        seen = _assess_cold_plans(assessor, topology, structure, count)
    finally:
        del assessor.sampler.sample
    probabilities = inventory.failure_probabilities()
    closure_total = positive = 0
    for hosts in seen:
        elements = assessor.engine.relevant_elements(hosts)
        subjects = elements & topology.elements
        closure = inventory.basic_events_for(subjects) | (elements - subjects)
        closure_total += len(closure)
        positive += sum(probabilities[cid] > 0.0 for cid in closure)
    edges = {topology.edge_switch_of(host) for hosts in seen for host in hosts}
    pods = {topology.edge_pod[edge] for edge in edges}
    return {
        "workload": "scratch_cold_plans",
        "scale": scale,
        "rounds": rounds,
        "plans": count,
        "components_drawn": drawn,
        "positive_closure_components": positive,
        "components_counted": int(registry.counter("sample/components")),
        "closure_components": closure_total,
        "layer_builds": int(registry.counter("closure/layer/miss")),
        "pods_touched": len(pods),
        "edges_touched": len(edges),
    }


def _assess_cold_plans(assessor, topology, structure, count: int) -> list[tuple[str, ...]]:
    """Assess ``count`` distinct random 3-host plans once each."""
    rng = np.random.default_rng(WALK_SEED)
    seen: list[tuple[str, ...]] = []
    while len(seen) < count:
        hosts = tuple(sorted(str(h) for h in rng.choice(topology.hosts, 3, replace=False)))
        if hosts in seen:
            continue
        seen.append(hosts)
        plan = DeploymentPlan.single_component(hosts, structure.components[0].name)
        assessor.assess(plan, structure)
    return seen


def run_warm_substrate(searches: int = 20, rounds: int = 300, moves: int = 10) -> dict:
    """What repeated searches build on one substrate, in counts.

    ``searches`` fixed-seed searches on ``tiny``, then the same ones
    again. The first pass compiles subjects and builds closure layers
    into the substrate's one kernel; the second finds them all there, so
    it compiles and builds nothing. Every count repeats exactly across
    ``PYTHONHASHSEED``.
    """
    topology, inventory = _substrate("tiny")
    structure = ApplicationStructure.k_of_n(2, 3)
    row: dict = {"workload": "warm_substrate", "scale": "tiny", "rounds": rounds,
                 "searches": searches, "moves": moves}
    for label in ("first", "second"):
        registry = MetricsRegistry()
        for seed in range(searches):
            DeploymentSearch.from_config(
                topology,
                inventory,
                AssessmentConfig(rounds=rounds, rng=seed, metrics=registry),
                rng=seed + 1,
                temperature_schedule=MoveBudgetTemperatureSchedule(moves),
            ).search(SearchSpec(structure, max_seconds=3600.0, max_iterations=moves))
        for counter in ("kernel/substrate/miss", "kernel/subject/miss", "closure/layer/miss"):
            row[f"{label}_{counter.replace('/', '_')}"] = int(registry.counter(counter))
    return row


def _warm_substrate_under(hash_seed: str) -> dict:
    """:func:`run_warm_substrate` in a fresh interpreter under one hash seed."""
    here = pathlib.Path(__file__).resolve().parent
    script = (
        f"import json, sys; sys.path[:0] = [{str(here.parent / 'src')!r}, {str(here)!r}]; "
        "import bench_incremental; print(json.dumps(bench_incremental.run_warm_substrate()))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONHASHSEED=hash_seed),
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _report(row: dict) -> str:
    return (
        f"{row['scale']:<8} rounds={row['rounds']:<7} moves={row['moves']:<4} "
        f"scratch={row['scratch_seconds']:.3f}s "
        f"incremental={row['incremental_seconds']:.3f}s "
        f"speedup={row['speedup']:.2f}x "
        f"component-hits={row['component_hit_rate']:.1%} "
        f"mismatches={row['mismatches']}"
    )


def run_smoke() -> int:
    """CI gate: correctness and cache effectiveness, never wall-clock."""
    row = run_comparison("tiny", rounds=500, moves=12)
    print(_report(row))
    assert row["mismatches"] == 0, (
        "incremental assessment diverged from the from-scratch CRN path"
    )
    assert row["component_hit_rate"] > 0.0, (
        "component-state cache never hit across a move sequence"
    )
    assert row["subject_hit_rate"] > 0.0, (
        "fault-tree cache never hit across a move sequence"
    )
    counts = run_delta_counts()
    print(" ".join(f"{key}={value}" for key, value in counts.items()))
    assert counts["component_misses"] == counts["components_seen"], (
        "a closure component was folded into the universe more than once"
    )
    assert counts["generators_constructed"] == counts["positive_misses"], (
        "private generators constructed != new components that can fail"
    )
    layer_bound = 1 + counts["pods_touched"] + counts["edges_touched"]
    assert counts["layer_builds"] <= layer_bound, (
        f"{counts['layer_builds']} closure layers built, bound {layer_bound}"
    )
    scratch = run_scratch_counts()
    print(" ".join(f"{key}={value}" for key, value in scratch.items()))
    assert scratch["components_drawn"] == scratch["positive_closure_components"], (
        "the from-scratch sampler was handed components that cannot fail"
    )
    assert scratch["components_counted"] == scratch["closure_components"], (
        "sample/components no longer counts the whole closure"
    )
    layer_bound = 1 + scratch["pods_touched"] + scratch["edges_touched"]
    assert scratch["layer_builds"] <= layer_bound, (
        f"{scratch['layer_builds']} closure layers built, bound {layer_bound}"
    )
    warm = _warm_substrate_under("0")
    print(" ".join(f"{key}={value}" for key, value in warm.items()))
    assert warm == _warm_substrate_under("123"), (
        "warm-substrate counts differ across PYTHONHASHSEED"
    )
    assert warm["first_kernel_substrate_miss"] == 1, "more than one kernel built"
    assert warm["first_kernel_subject_miss"] > 0 and warm["first_closure_layer_miss"] > 0
    assert warm["second_kernel_substrate_miss"] == 0
    assert warm["second_kernel_subject_miss"] == 0, (
        "a search on a warm substrate compiled a subject again"
    )
    assert warm["second_closure_layer_miss"] == 0, (
        "a search on a warm substrate built a closure layer again"
    )
    row = {key: value for key, value in row.items() if key != "metrics"}
    payload = {
        "benchmark": "incremental engine: bit-equality and delta-pricing counts",
        "master_seed": MASTER_SEED,
        "walk_seed": WALK_SEED,
        "rows": [{"workload": "tiny_equality", **row}, counts, scratch, warm],
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULTS_PATH}")
    print("smoke OK: bit-identical results, caches exercised, deltas priced by count")
    return 0


def run_full(scales: list[str], rounds: int, moves: int) -> int:
    failed = False
    lines = []
    for scale in scales:
        row = run_comparison(scale, rounds=rounds, moves=moves)
        line = _report(row)
        lines.append(line)
        print(line)
        if row["mismatches"]:
            print(f"  !! {row['mismatches']} mismatching assessments")
            failed = True
        if row["speedup"] < 3.0:
            print(f"  !! speedup {row['speedup']:.2f}x below the 3x target")
            failed = True
    results_dir = pathlib.Path(__file__).resolve().parent / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "bench_incremental.txt").write_text("\n".join(lines) + "\n")
    return 1 if failed else 0


def test_incremental_smoke():
    """Pytest entry point mirroring the CI smoke gate."""
    assert run_smoke() == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast correctness/cache gate for CI (no wall-clock assertion)",
    )
    parser.add_argument(
        "--scales", default="tiny", help="comma-separated Table-2 scales"
    )
    parser.add_argument("--rounds", type=int, default=10_000)
    parser.add_argument("--moves", type=int, default=60)
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke()
    scales = [s.strip() for s in args.scales.split(",") if s.strip()]
    return run_full(scales, rounds=args.rounds, moves=args.moves)


if __name__ == "__main__":
    sys.exit(main())
