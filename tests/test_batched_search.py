"""Tests for the batch-first annealing loop (repro.core.search, batch_size).

The acceptance bar of the redesign: with ``batch_size=1`` the batched
loop must retrace the pre-batch implementation *bit-for-bit* (verified
against a draw-for-draw reference reconstruction of the old loop), B>1
runs must be deterministic for a fixed seed, and the new
``SearchState`` fields must survive checkpoint/resume — including
checkpoints written before the fields existed.
"""

import sys

import pytest

from repro import serialization
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
from repro.core.search import DeploymentSearch, SearchSpec, SearchState
from repro.faults.inventory import build_paper_inventory
from repro.topology.presets import paper_topology
from repro.util.errors import ConfigurationError
from repro.util.rng import make_rng
from repro.util.timing import Deadline
from tests.graph_oracle import SurgeryGraphChecker

STRUCTURE = ApplicationStructure.k_of_n(2, 3)


class FakeClock:
    """Monotonic clock advancing ``step`` seconds per reading."""

    def __init__(self, step=0.01):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def _config(rounds=800):
    return AssessmentConfig(rounds=rounds, rng=5)


def _search(fattree4, inventory, **kwargs):
    kwargs.setdefault("rng", 42)
    kwargs.setdefault("clock", FakeClock())
    kwargs.setdefault("keep_trace", True)
    assessor = ReliabilityAssessor(fattree4, inventory, config=_config())
    return DeploymentSearch(assessor, **kwargs)


def _trace_key(records):
    return [
        (
            r.iteration, r.elapsed_seconds, r.temperature, r.candidate_score,
            r.current_score, r.best_score, r.accepted, r.skipped_symmetric,
        )
        for r in records
    ]


def _reference_search(fattree4, inventory, spec):
    """The pre-batch loop, reconstructed draw-for-draw.

    One ``random_neighbor`` per iteration, the uncached symmetry screen,
    one assessment per survivor — the exact RNG and clock discipline
    ``DeploymentSearch._run`` had before the batch-first rewrite. The
    best plan is ranked by the CRN scores and assessed once by the outer
    assessor after the loop. Seeds and clock match ``_search``'s
    defaults, so its trajectory is what ``batch_size=1`` must reproduce.
    """
    outer = ReliabilityAssessor(fattree4, inventory, config=_config())
    objective = ReliabilityObjective()
    symmetry = SurgeryGraphChecker(fattree4, outer.dependency_model)
    rng = make_rng(42)
    clock = FakeClock()
    deadline = Deadline(spec.max_seconds, clock=clock)
    schedule = LinearTemperatureSchedule(spec.max_seconds)
    crn_master_seed = int(rng.integers(0, 2**63))
    inner = IncrementalAssessor.from_config(
        fattree4,
        outer.dependency_model,
        AssessmentConfig(
            rounds=outer.rounds, master_seed=crn_master_seed, mode="incremental"
        ),
    )

    current_plan = DeploymentPlan.random(fattree4, spec.structure, rng=rng)
    current = inner.assess(current_plan, spec.structure)
    best_plan, best = current_plan, current
    iterations = 0
    trace = []

    def satisfied(assessment):
        return assessment.score >= spec.desired_reliability

    while True:
        elapsed = deadline.elapsed()
        if elapsed >= deadline.budget_seconds:
            break
        if spec.max_iterations is not None and iterations >= spec.max_iterations:
            break
        iterations += 1
        temperature = schedule.temperature(elapsed, iterations - 1)
        neighbor_plan = current_plan.random_neighbor(fattree4, rng=rng)
        if symmetry.equivalent(current_plan, neighbor_plan):
            trace.append((
                iterations, elapsed, temperature,
                current.score, current.score, best.score, False, True,
            ))
            continue
        neighbor = inner.assess(neighbor_plan, spec.structure)
        if objective.prefers(neighbor_plan, neighbor, best_plan, best):
            best_plan, best = neighbor_plan, neighbor
        delta = objective.delta(current_plan, current, neighbor_plan, neighbor)
        accepted = accept_neighbor(delta, temperature, rng)
        trace.append((
            iterations, elapsed, temperature,
            neighbor.score, current.score, best.score, accepted, False,
        ))
        satisfied_candidate = satisfied(neighbor)
        if accepted:
            current_plan, current = neighbor_plan, neighbor
        if satisfied_candidate:
            verified = outer.assess(neighbor_plan, spec.structure)
            if satisfied(verified):
                return {
                    "trace": trace, "best_plan": neighbor_plan,
                    "best_score": verified.score,
                }
    best = outer.assess(best_plan, spec.structure)
    return {"trace": trace, "best_plan": best_plan, "best_score": best.score}


class TestBatchSizeOneBitIdentity:
    def test_matches_pre_batch_reference_loop(self, fattree4, inventory):
        """batch_size=1 retraces the pre-batch loop record-for-record:
        same temperatures, candidate scores, acceptance draws and best
        plan (the spec keeps scores away from R_desired so the
        satisfaction path cannot short-circuit either loop)."""
        spec = SearchSpec(STRUCTURE, max_seconds=50.0, max_iterations=25)
        reference = _reference_search(fattree4, inventory, spec)
        result = _search(fattree4, inventory, batch_size=1).search(spec)
        assert _trace_key(result.trace) == reference["trace"]
        assert result.best_plan == reference["best_plan"]
        assert result.best_assessment.score == reference["best_score"]

    def test_batch_counters_degenerate_at_one(self, fattree4, inventory):
        spec = SearchSpec(STRUCTURE, max_seconds=50.0, max_iterations=15)
        result = _search(fattree4, inventory, batch_size=1).search(spec)
        assert result.candidates_proposed == result.iterations == 15
        assert result.batches_scored <= result.iterations


class TestSearchPathIsNetworkxFree:
    def test_medium_search_never_enters_networkx(self):
        """The search screens symmetry without a graph library — zero
        frames of ``networkx.*`` under ``DeploymentSearch.search`` — and
        still walks the trajectory the reference loop walks with the
        uncached networkx ``SurgeryGraphChecker.equivalent``."""
        topology = paper_topology("medium", seed=1)
        inventory = build_paper_inventory(topology, seed=2)
        spec = SearchSpec(
            ApplicationStructure.k_of_n(8, 10), max_seconds=50.0, max_iterations=25
        )
        search = _search(topology, inventory)
        topology.elements  # the adjacency's cached node set
        entered = []

        def profiler(frame, event, arg):
            if event == "call":
                module = frame.f_globals.get("__name__", "")
                if module.split(".")[0] == "networkx":
                    entered.append(f"{module}.{frame.f_code.co_name}")

        sys.setprofile(profiler)
        try:
            result = search.search(spec)
        finally:
            sys.setprofile(None)
        assert entered == []
        reference = _reference_search(topology, inventory, spec)
        assert _trace_key(result.trace) == reference["trace"]
        assert result.best_plan == reference["best_plan"]
        assert result.best_assessment.score == reference["best_score"]
        # Both verdicts occurred, so the screen was actually exercised.
        assert 0 < result.plans_skipped_symmetric < 25


class TestBatchedDeterminism:
    def test_fixed_seed_reproduces_trajectory(self, fattree4, inventory):
        spec = SearchSpec(STRUCTURE, max_seconds=50.0, max_iterations=15)
        a = _search(fattree4, inventory, batch_size=3).search(spec)
        b = _search(fattree4, inventory, batch_size=3).search(spec)
        assert _trace_key(a.trace) == _trace_key(b.trace)
        assert a.best_plan == b.best_plan
        assert a.best_assessment.score == b.best_assessment.score
        assert a.candidates_proposed == b.candidates_proposed
        assert a.batches_scored == b.batches_scored

    def test_exactly_b_proposals_per_step(self, fattree4, inventory):
        spec = SearchSpec(STRUCTURE, max_seconds=50.0, max_iterations=12)
        result = _search(fattree4, inventory, batch_size=4).search(spec)
        assert result.candidates_proposed == 4 * result.iterations
        assert result.batches_scored <= result.iterations
        # processed in proposal order, first accepted wins: at most one
        # accepted record per iteration, and nothing after it.
        by_iteration = {}
        for record in result.trace:
            by_iteration.setdefault(record.iteration, []).append(record)
        for records in by_iteration.values():
            accepted = [i for i, r in enumerate(records) if r.accepted]
            assert len(accepted) <= 1
            if accepted:
                assert accepted[0] == len(records) - 1

    def test_rejects_nonpositive_batch_size(self, fattree4, inventory):
        with pytest.raises(ConfigurationError):
            _search(fattree4, inventory, batch_size=0)


class TestBatchedCheckpointResume:
    def test_resume_follows_checkpointed_batch_size(
        self, fattree4, inventory, tmp_path
    ):
        """A B=3 search interrupted mid-anneal resumes bit-identically —
        even though the resuming DeploymentSearch was built with the
        default batch_size, the checkpoint's recorded batch size drives
        the resumed loop."""
        spec_full = SearchSpec(STRUCTURE, max_seconds=50.0, max_iterations=18)
        full = _search(
            fattree4, inventory, batch_size=3,
            checkpoint_path=str(tmp_path / "full.json"), checkpoint_every=4,
        ).search(spec_full)

        ckpt = str(tmp_path / "part.json")
        _search(
            fattree4, inventory, batch_size=3,
            checkpoint_path=ckpt, checkpoint_every=4,
        ).search(SearchSpec(STRUCTURE, max_seconds=50.0, max_iterations=8))
        resumed = _search(
            fattree4, inventory, checkpoint_path=ckpt, checkpoint_every=4
        ).resume(ckpt, max_iterations=18)

        # Resume replays the checkpointed elapsed offset, so elapsed (and
        # temperatures derived from it) can differ in the last float bit;
        # everything randomness-driven must match exactly.
        resume_key = lambda records: [
            (
                r.iteration, round(r.temperature, 9), r.candidate_score,
                r.current_score, r.best_score, r.accepted, r.skipped_symmetric,
            )
            for r in records
        ]
        assert resume_key(resumed.trace) == resume_key(full.trace)
        assert resumed.best_plan == full.best_plan
        assert resumed.candidates_proposed == full.candidates_proposed
        assert resumed.batches_scored == full.batches_scored

    def test_checkpoint_round_trips_batch_fields(
        self, fattree4, inventory, tmp_path
    ):
        ckpt = str(tmp_path / "state.json")
        _search(
            fattree4, inventory, batch_size=3,
            checkpoint_path=ckpt, checkpoint_every=2,
        ).search(SearchSpec(STRUCTURE, max_seconds=50.0, max_iterations=6))
        document = serialization.load(ckpt)
        assert document["batch_size"] == 3
        assert document["candidates_proposed"] == 18
        state = serialization.decode(SearchState, document)
        assert state.batch_size == 3
        assert state.candidates_proposed == 18
        assert state.batches_scored == document["batches_scored"]
        assert serialization.encode(state) == document

    def test_pre_batch_checkpoint_defaults(self, fattree4, inventory, tmp_path):
        """Checkpoints written before the batch fields existed load with
        the classic one-neighbour semantics."""
        ckpt = str(tmp_path / "state.json")
        _search(
            fattree4, inventory, checkpoint_path=ckpt, checkpoint_every=2
        ).search(SearchSpec(STRUCTURE, max_seconds=50.0, max_iterations=4))
        document = serialization.load(ckpt)
        for legacy_missing in ("batch_size", "candidates_proposed", "batches_scored"):
            document.pop(legacy_missing)
        state = serialization.decode(SearchState, document)
        assert state.batch_size == 1
        assert state.candidates_proposed == 0
        assert state.batches_scored == 0


class TestMoveBudgetScheduleInSearch:
    def test_trajectory_is_clock_speed_independent(self, fattree4, inventory):
        """Under the move-budget schedule the acceptance rule never sees
        the wall clock, so fast and slow hosts trace the same walk."""
        spec = SearchSpec(STRUCTURE, max_seconds=10_000.0, max_iterations=15)

        def run(step):
            return _search(
                fattree4, inventory,
                clock=FakeClock(step),
                temperature_schedule=MoveBudgetTemperatureSchedule(15),
            ).search(spec)

        fast, slow = run(0.001), run(7.0)
        key = lambda result: [
            (r.iteration, r.temperature, r.candidate_score, r.accepted)
            for r in result.trace
        ]
        assert key(fast) == key(slow)
        assert fast.best_plan == slow.best_plan
        assert fast.best_assessment.score == slow.best_assessment.score

    def test_temperature_follows_move_budget(self, fattree4, inventory):
        result = _search(
            fattree4, inventory,
            temperature_schedule=MoveBudgetTemperatureSchedule(5),
        ).search(SearchSpec(STRUCTURE, max_seconds=10_000.0, max_iterations=5))
        by_iteration = {r.iteration: r.temperature for r in result.trace}
        for iteration, temperature in by_iteration.items():
            assert temperature == pytest.approx(1.0 - (iteration - 1) / 5)
