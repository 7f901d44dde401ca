"""Batch-first search loop vs the pre-batch loop.

Reconstructs the pre-PR annealing hot loop — per-move ``random_neighbor``,
the *uncached* :meth:`SymmetryChecker.equivalent` screen and one
incremental assessment per surviving neighbour — and holds it against the
batch-first :class:`DeploymentSearch` (move descriptors, the move-keyed
:class:`BatchSymmetryFilter`, one shared-CRN ``score_plans`` call per
temperature step). Both runs share one seed, one deterministic tick clock
and the one assessment pipeline, so the B=1 trajectory must be
*bit-identical*: every trace record (temperature, candidate score,
acceptance decision, best-so-far) is compared tuple-for-tuple.

Three workloads:

* ``tiny_loop`` — the Table-2 tiny preset; gates trajectory equality and
  that the pre-batch loop makes >= 4x the function calls of the
  batch-first stack (``sys.setprofile`` counts: the stack's repeat
  exactly, the pre-batch loop's to the ~2 % its uncached symmetry screen
  varies with set order under ``PYTHONHASHSEED``); the seconds of both are
  recorded only;
* ``symmetry_walk`` — a fixed-seed 8-of-10 search on the Table-2 medium
  preset with the symmetry screen's pairs recorded; gates the screen's
  work counters (exact repeats): refinements built == distinct plans
  screened, bijection searches run == pairs with equal invariants, and
  instance assignments tried <= a committed ceiling per search run;
* ``large_walk`` — the k=48 search-benchmark preset (~27k hosts,
  :func:`~repro.topology.presets.search_benchmark_topology`) running a
  fixed move budget under the move-budget temperature schedule; gates
  that the full budget completes inside a wall-clock budget.

Results land in ``BENCH_search.json`` at the repo root.

Usage::

    python benchmarks/bench_search.py            # full comparison
    python benchmarks/bench_search.py --smoke    # CI gate: trajectory
        equality, >= 4x tiny call ratio, symmetry-screen counts, k=48
        budget completion

Also runnable under pytest (``pytest benchmarks/bench_search.py``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

if __name__ == "__main__":  # standalone: make src/ importable without install
    _ROOT = pathlib.Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(_ROOT / "src"))
    sys.path.insert(0, str(_ROOT / "benchmarks"))

from common import count_calls
from repro.app.structure import ApplicationStructure
from repro.core.anneal import (
    LinearTemperatureSchedule,
    MoveBudgetTemperatureSchedule,
    accept_neighbor,
)
from repro.core.api import AssessmentConfig
from repro.core.assessment import ReliabilityAssessor
from repro.core.incremental import IncrementalAssessor
from repro.core.objectives import ReliabilityObjective
from repro.core.plan import DeploymentPlan
from repro.core.search import DeploymentSearch, SearchSpec
from repro.core.transforms import SymmetryChecker
from repro.faults.inventory import build_paper_inventory
from repro.topology.presets import (
    SEARCH_BENCHMARK_SCALE,
    paper_topology,
    search_benchmark_topology,
)
from repro.util.metrics import MetricsRegistry
from repro.util.rng import make_rng
from repro.util.timing import Deadline

MASTER_SEED = 20170412
SEARCH_SEED = MASTER_SEED  # seeds the annealing RNG of both loops
#: Function calls the pre-batch loop must make per call of the batch-first
#: stack on ``tiny_loop`` (``sys.setprofile`` counts; measured 6.0-6.2x).
CALLS_RATIO_FLOOR = 4.0
#: Instance assignments the symmetry screen may try per bijection search
#: on ``symmetry_walk`` (10 instances a plan; measured 12.3: a symmetric
#: neighbour is mapped on or next to the first descent).
EXTENSIONS_PER_MATCH_CEILING = 20.0
#: Wall-clock budget the k=48 fixed-move-budget walk must finish inside
#: (search only; building the 27k-host substrate is reported separately).
LARGE_BUDGET_SECONDS = 240.0

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_PATH = _REPO_ROOT / "BENCH_search.json"


class _TickClock:
    """Deterministic monotonic clock: every read advances a fixed step.

    Both loops read their clock in the same sequence (one ``Deadline``
    construction, then one read per iteration), so with one of these per
    run the two trajectories see identical elapsed times — temperatures
    match bit-for-bit and timing noise cannot fake a divergence.
    """

    def __init__(self, step: float = 1e-4):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def _substrate(scale: str):
    topology = paper_topology(scale, seed=1)
    inventory = build_paper_inventory(topology, seed=2)
    return topology, inventory


def _meets(spec: SearchSpec, assessment, measure: float) -> bool:
    if assessment.score < spec.desired_reliability:
        return False
    if spec.desired_measure is not None and measure < spec.desired_measure:
        return False
    return True


def _legacy_search(
    topology, inventory, spec: SearchSpec, config: AssessmentConfig,
    search_seed: int, clock,
) -> dict:
    """The pre-batch annealing loop, reconstructed draw-for-draw.

    One ``random_neighbor`` per iteration, the uncached
    ``SymmetryChecker.equivalent`` screen, one incremental assessment
    per survivor, independent best-so-far confirmations — the
    exact loop shape (and RNG discipline) ``DeploymentSearch._run`` had
    before the batch-first rewrite, against which B=1 trajectories are
    gated bit-identical.
    """
    outer = ReliabilityAssessor.from_config(
        topology, inventory,
        config.with_updates(mode="sequential", master_seed=None),
    )
    objective = ReliabilityObjective()
    symmetry = SymmetryChecker(outer.topology, outer.dependency_model)
    rng = make_rng(search_seed)
    deadline = Deadline(spec.max_seconds, clock=clock)
    schedule = LinearTemperatureSchedule(spec.max_seconds)
    crn_master_seed = int(rng.integers(0, 2**63))
    inner = IncrementalAssessor.from_config(
        outer.topology,
        outer.dependency_model,
        AssessmentConfig(
            rounds=outer.rounds,
            engine=outer.engine,
            master_seed=crn_master_seed,
            mode="incremental",
        ),
    )

    current_plan = DeploymentPlan.random(
        outer.topology, spec.structure, rng=rng,
        forbid_shared_rack=spec.forbid_shared_rack,
    )
    current = inner.assess(current_plan, spec.structure)
    current_measure = objective.measure(current_plan, current)
    best_plan, best = current_plan, outer.assess(current_plan, spec.structure)
    plans_assessed = 2
    iterations = 0
    skipped_symmetric = 0
    trace: list[tuple] = []

    def summary(satisfied: bool) -> dict:
        return {
            "trace": trace,
            "iterations": iterations,
            "plans_assessed": plans_assessed,
            "skipped_symmetric": skipped_symmetric,
            "best_score": best.score,
            "best_hosts": sorted(best_plan.hosts()),
            "satisfied": satisfied,
            "elapsed": deadline.elapsed(),
        }

    if _meets(spec, current, current_measure):
        independent = outer.assess(current_plan, spec.structure)
        if _meets(spec, independent, objective.measure(current_plan, independent)):
            best_plan, best = current_plan, independent
            return summary(True)

    while True:
        elapsed = deadline.elapsed()
        if elapsed >= deadline.budget_seconds:
            break
        if spec.max_iterations is not None and iterations >= spec.max_iterations:
            break
        iterations += 1
        temperature = schedule.temperature(elapsed)

        neighbor_plan = current_plan.random_neighbor(outer.topology, rng=rng)
        if symmetry.equivalent(current_plan, neighbor_plan):
            skipped_symmetric += 1
            trace.append((
                iterations, elapsed, temperature,
                current.score, current.score, best.score, False, True,
            ))
            continue
        neighbor = inner.assess(neighbor_plan, spec.structure)
        plans_assessed += 1
        neighbor_measure = objective.measure(neighbor_plan, neighbor)

        if objective.prefers(neighbor_plan, neighbor, best_plan, best):
            confirmation = outer.assess(neighbor_plan, spec.structure)
            plans_assessed += 1
            if objective.prefers(neighbor_plan, confirmation, best_plan, best):
                best_plan, best = neighbor_plan, confirmation

        delta = objective.delta(current_plan, current, neighbor_plan, neighbor)
        accepted = accept_neighbor(delta, temperature, rng)
        trace.append((
            iterations, elapsed, temperature,
            neighbor.score, current.score, best.score, accepted, False,
        ))
        satisfied_candidate = _meets(spec, neighbor, neighbor_measure)
        if accepted:
            current_plan, current = neighbor_plan, neighbor
            current_measure = neighbor_measure
        if satisfied_candidate:
            independent = outer.assess(neighbor_plan, spec.structure)
            if _meets(
                spec, independent, objective.measure(neighbor_plan, independent)
            ):
                best_plan, best = neighbor_plan, independent
                return summary(True)
    return summary(False)


def _batched_search(
    topology, inventory, spec: SearchSpec, config: AssessmentConfig,
    search_seed: int, clock, batch_size: int = 1,
):
    search = DeploymentSearch.from_config(
        topology,
        inventory,
        config,
        rng=search_seed,
        keep_trace=True,
        clock=clock,
        batch_size=batch_size,
    )
    return search.search(spec)


def _record_tuple(record) -> tuple:
    return (
        record.iteration, record.elapsed_seconds, record.temperature,
        record.candidate_score, record.current_score, record.best_score,
        record.accepted, record.skipped_symmetric,
    )


def _trajectory_mismatches(legacy: dict, result) -> int:
    """Count every observable divergence between the two trajectories."""
    new_rows = [_record_tuple(r) for r in result.trace]
    old_rows = legacy["trace"]
    mismatches = abs(len(new_rows) - len(old_rows))
    mismatches += sum(a != b for a, b in zip(old_rows, new_rows))
    mismatches += legacy["iterations"] != result.iterations
    mismatches += legacy["plans_assessed"] != result.plans_assessed
    mismatches += legacy["skipped_symmetric"] != result.plans_skipped_symmetric
    mismatches += legacy["best_score"] != result.best_assessment.score
    mismatches += legacy["best_hosts"] != sorted(result.best_plan.hosts())
    mismatches += legacy["satisfied"] != result.satisfied
    return int(mismatches)


def bench_tiny_loop(rounds: int, moves: int, repeats: int) -> dict:
    """Trajectory equality and the call-count ratio on the tiny preset.

    The first pass of each loop is the bit-identity check, the second
    counts its function calls (every run retraces the same deterministic
    trajectory); the best-of-``repeats`` seconds of both are recorded, not
    gated.
    """
    topology, inventory = _substrate("tiny")
    structure = ApplicationStructure.k_of_n(2, 3)
    spec = SearchSpec(structure, max_seconds=3_600.0, max_iterations=moves)
    config = AssessmentConfig(mode="incremental", rounds=rounds, rng=5)

    def run(search):
        return search(topology, inventory, spec, config, SEARCH_SEED, _TickClock())

    legacy = run(_legacy_search)
    result = run(_batched_search)
    mismatches = _trajectory_mismatches(legacy, result)
    legacy_calls = count_calls(lambda: run(_legacy_search))
    batched_calls = count_calls(lambda: run(_batched_search))

    legacy_seconds = batched_seconds = float("inf")
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        run(_legacy_search)
        legacy_seconds = min(legacy_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        run(_batched_search)
        batched_seconds = min(batched_seconds, time.perf_counter() - start)

    return {
        "workload": "tiny_loop",
        "scale": "tiny",
        "rounds": rounds,
        "moves": moves,
        "timing_repeats": max(repeats, 1),
        "iterations": result.iterations,
        "plans_assessed": result.plans_assessed,
        "skipped_symmetric": result.plans_skipped_symmetric,
        "pre_batch_calls": legacy_calls,
        "batched_calls": batched_calls,
        "calls_ratio": legacy_calls / max(batched_calls, 1),
        "pre_batch_seconds": legacy_seconds,
        "batched_seconds": batched_seconds,
        "mismatches": mismatches,
    }


def bench_symmetry_walk(rounds: int, moves: int) -> dict:
    """The symmetry screen's work counters over a fixed-seed medium search.

    Every pair the search screens is recorded on its way into the filter,
    so what the counters must equal is computed from the pairs themselves
    (the walk stays far inside the filter's LRU, so a plan is refined
    exactly once).
    """
    topology, inventory = _substrate("medium")
    registry = MetricsRegistry()
    search = DeploymentSearch.from_config(
        topology,
        inventory,
        AssessmentConfig(mode="incremental", rounds=rounds, rng=5, metrics=registry),
        rng=SEARCH_SEED,
        clock=_TickClock(),
    )
    screen = search._symmetry_filter
    pairs = []
    decide = screen.equivalent

    def recording(plan_a, plan_b):
        pairs.append((plan_a, plan_b))
        return decide(plan_a, plan_b)

    screen.equivalent = recording
    result = search.search(
        SearchSpec(
            ApplicationStructure.k_of_n(8, 10),
            max_seconds=3_600.0,
            max_iterations=moves,
        )
    )
    counters = {
        name: int(registry.counter(f"symmetry/{name}"))
        for name in ("screened", "refined", "matched", "extensions")
    }
    pairs = [(a, b) for a, b in pairs if a.canonical_key() != b.canonical_key()]
    plans = {plan.canonical_key() for pair in pairs for plan in pair}
    equal_invariants = sum(
        screen.refinement(a).invariant == screen.refinement(b).invariant
        for a, b in pairs
    )
    return {
        "workload": "symmetry_walk",
        "scale": "medium",
        "rounds": rounds,
        "moves": moves,
        "iterations": result.iterations,
        "skipped_symmetric": result.plans_skipped_symmetric,
        "pairs_screened": len(pairs),
        "distinct_plans_screened": len(plans),
        "pairs_with_equal_invariants": equal_invariants,
        **counters,
        "extensions_per_match": counters["extensions"] / max(counters["matched"], 1),
        "extensions_per_match_ceiling": EXTENSIONS_PER_MATCH_CEILING,
    }


def _symmetry_walk_failures(row: dict) -> list[str]:
    """Which of the ``symmetry_walk`` count gates ``row`` misses."""
    failures = []
    if row["screened"] != row["pairs_screened"]:
        failures.append(
            f"{row['screened']} pairs counted, {row['pairs_screened']} screened"
        )
    if row["refined"] != row["distinct_plans_screened"]:
        failures.append(
            f"{row['refined']} refinements built for "
            f"{row['distinct_plans_screened']} distinct plans"
        )
    if row["matched"] != row["pairs_with_equal_invariants"]:
        failures.append(
            f"{row['matched']} bijection searches for "
            f"{row['pairs_with_equal_invariants']} pairs with equal invariants"
        )
    if not 0 < row["skipped_symmetric"] <= row["matched"]:
        failures.append("the walk skipped no symmetric neighbour")
    if row["extensions_per_match"] > EXTENSIONS_PER_MATCH_CEILING:
        failures.append(
            f"{row['extensions_per_match']:.1f} extensions per bijection search, "
            f"ceiling {EXTENSIONS_PER_MATCH_CEILING:.0f}"
        )
    return failures


def bench_large_walk(
    move_budget: int,
    rounds: int,
    batch_size: int,
    budget_seconds: float = LARGE_BUDGET_SECONDS,
) -> dict:
    """Fixed move budget on the k=48 preset inside a wall-clock budget.

    Runs the batch-first loop under the move-budget temperature schedule
    (host-speed-independent trajectory) with ``max_seconds`` set to the
    wall-clock budget, so a too-slow run visibly fails to consume its
    move budget instead of silently overrunning.
    """
    start = time.perf_counter()
    topology = search_benchmark_topology(seed=1)
    inventory = build_paper_inventory(topology, seed=2)
    substrate_seconds = time.perf_counter() - start

    # The serial 8-instance structure: reliability stays strictly below
    # R_desired = 1, so satisfaction never short-circuits the move budget
    # and every run consumes exactly ``move_budget`` temperature steps.
    structure = ApplicationStructure.k_of_n(8, 8)
    spec = SearchSpec(
        structure, max_seconds=budget_seconds, max_iterations=move_budget
    )
    config = AssessmentConfig(mode="incremental", rounds=rounds, rng=5)
    search = DeploymentSearch.from_config(
        topology,
        inventory,
        config,
        rng=SEARCH_SEED,
        batch_size=batch_size,
        temperature_schedule=MoveBudgetTemperatureSchedule(move_budget),
    )
    start = time.perf_counter()
    result = search.search(spec)
    search_seconds = time.perf_counter() - start

    return {
        "workload": "large_walk",
        "scale": SEARCH_BENCHMARK_SCALE,
        "hosts": len(topology.hosts),
        "rounds": rounds,
        "move_budget": move_budget,
        "batch_size": batch_size,
        "iterations": result.iterations,
        "candidates_proposed": result.candidates_proposed,
        "batches_scored": result.batches_scored,
        "plans_assessed": result.plans_assessed,
        "best_score": result.best_assessment.score,
        "substrate_seconds": substrate_seconds,
        "search_seconds": search_seconds,
        "budget_seconds": budget_seconds,
        "within_budget": search_seconds <= budget_seconds,
        "completed_budget": bool(
            result.satisfied or result.iterations >= move_budget
        ),
    }


def _report(row: dict) -> str:
    if row["workload"] == "tiny_loop":
        return (
            f"{row['workload']:<11} {row['scale']:<6} rounds={row['rounds']:<6} "
            f"moves={row['moves']:<4} calls={row['pre_batch_calls']}/"
            f"{row['batched_calls']} ({row['calls_ratio']:.2f}x) "
            f"pre-batch={row['pre_batch_seconds']:.3f}s "
            f"batched={row['batched_seconds']:.3f}s mismatches={row['mismatches']}"
        )
    if row["workload"] == "symmetry_walk":
        return (
            f"{row['workload']:<11} {row['scale']:<6} moves={row['moves']:<4} "
            f"screened={row['screened']} refined={row['refined']}/"
            f"{row['distinct_plans_screened']} plans matched={row['matched']}/"
            f"{row['pairs_with_equal_invariants']} equal invariants "
            f"skipped={row['skipped_symmetric']} extensions={row['extensions']} "
            f"({row['extensions_per_match']:.1f}/match)"
        )
    return (
        f"{row['workload']:<11} {row['scale']:<6} hosts={row['hosts']} "
        f"moves={row['iterations']}/{row['move_budget']} B={row['batch_size']} "
        f"substrate={row['substrate_seconds']:.1f}s "
        f"search={row['search_seconds']:.1f}s/"
        f"{row['budget_seconds']:.0f}s budget"
    )


def _write_results(rows: list[dict]) -> None:
    payload = {
        "benchmark": "batch-first search loop vs pre-batch loop",
        "search_seed": SEARCH_SEED,
        "calls_ratio_floor": CALLS_RATIO_FLOOR,
        "extensions_per_match_ceiling": EXTENSIONS_PER_MATCH_CEILING,
        "rows": rows,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULTS_PATH}")


def run_smoke() -> int:
    """CI gate: trajectory equality, the tiny call-ratio floor, and the
    k=48 move budget finishing inside its wall-clock budget."""
    tiny = bench_tiny_loop(rounds=2_000, moves=300, repeats=3)
    print(_report(tiny))
    assert tiny["mismatches"] == 0, (
        "B=1 batch-first trajectory diverged from the pre-batch loop"
    )
    assert tiny["calls_ratio"] >= CALLS_RATIO_FLOOR, (
        f"pre-batch loop makes {tiny['calls_ratio']:.2f}x the batch-first "
        f"stack's calls, below the {CALLS_RATIO_FLOOR:.0f}x floor"
    )
    symmetry = bench_symmetry_walk(rounds=1_000, moves=200)
    print(_report(symmetry))
    failures = _symmetry_walk_failures(symmetry)
    assert not failures, "; ".join(failures)
    large = bench_large_walk(move_budget=12, rounds=1_000, batch_size=8)
    print(_report(large))
    assert large["within_budget"] and large["completed_budget"], (
        f"k=48 walk consumed {large['iterations']}/{large['move_budget']} "
        f"moves in {large['search_seconds']:.1f}s "
        f"(budget {large['budget_seconds']:.0f}s)"
    )
    _write_results([tiny, symmetry, large])
    print(
        "smoke OK: bit-identical trajectory, call-ratio floor, symmetry-screen "
        "counts and budget met"
    )
    return 0


def run_full(rounds: int, moves: int, move_budget: int, batch_size: int) -> int:
    failed = False
    rows = [
        bench_tiny_loop(rounds=rounds, moves=moves, repeats=5),
        bench_symmetry_walk(rounds=rounds, moves=moves),
        bench_large_walk(
            move_budget=move_budget, rounds=rounds, batch_size=batch_size
        ),
    ]
    for row in rows:
        print(_report(row))
    tiny, symmetry, large = rows
    if tiny["mismatches"]:
        print(f"  !! {tiny['mismatches']} trajectory mismatches")
        failed = True
    if tiny["calls_ratio"] < CALLS_RATIO_FLOOR:
        print(
            f"  !! call ratio {tiny['calls_ratio']:.2f}x below "
            f"{CALLS_RATIO_FLOOR:.0f}x"
        )
        failed = True
    for failure in _symmetry_walk_failures(symmetry):
        print(f"  !! symmetry screen: {failure}")
        failed = True
    if not (large["within_budget"] and large["completed_budget"]):
        print("  !! k=48 walk missed its wall-clock budget")
        failed = True
    _write_results(rows)
    return 1 if failed else 0


def test_search_smoke():
    """Pytest entry point mirroring the CI smoke gate."""
    assert run_smoke() == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI gate: trajectory equality, 4x tiny call ratio, "
        "symmetry-screen counts, k=48 budget",
    )
    parser.add_argument("--rounds", type=int, default=2_000)
    parser.add_argument("--moves", type=int, default=120)
    parser.add_argument("--move-budget", type=int, default=40)
    parser.add_argument("--batch-size", type=int, default=8)
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke()
    return run_full(
        rounds=args.rounds,
        moves=args.moves,
        move_budget=args.move_budget,
        batch_size=args.batch_size,
    )


if __name__ == "__main__":
    sys.exit(main())
