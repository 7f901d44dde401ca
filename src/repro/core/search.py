"""Reliable-deployment search: the provider-side 6-step loop (§3.3.1).

Given the developer's requirements — an application structure, the desired
reliability ``R_desired`` and the search budget ``T_max`` — the provider:

1. generates a random initial plan (optionally "no two hosts in one rack");
2. assesses its reliability (§3.2);
3. evolves a neighbour by swapping one host, and discards it without
   assessment when it is symmetric to the current plan (network
   transformations) or violates resource constraints;
4. assesses the neighbour;
5. accepts it if better, or with probability ``exp(-Δ/t)`` if worse,
   using the log-odds Δ (Eq. 5) and the linear budget temperature (Eq. 6);
6. repeats until a plan satisfies the requirements (success) or ``T_max``
   elapses (the requirements cannot currently be fulfilled — the best
   plan found is still reported).

The walk scores plans under common random numbers (CRN), and the best
plan is the one the CRN scores rank first. The reported assessment of
that plan is drawn once, after the loop, independently of the walk: a
score that ranked a plan first overstates it (winner's curse), and so
does the running maximum of independent re-assessments.

Multi-objective search (§3.3.3) plugs in through the objective: pass a
:class:`~repro.core.objectives.CompositeObjective` and the loop optimises
the holistic measure instead of reliability alone.

Long provider-side searches (the paper's ``T_max`` budgets, Figs. 9/12)
must survive the provider's own failures, so the loop is *resumable*:
pass ``checkpoint_path`` and the complete annealing state — current/best
plans and assessments, counters, consumed budget, RNG states, the
common-random-numbers master seed and the acceptance trace — is
serialized every ``checkpoint_every`` iterations (atomically, so a crash
mid-write cannot corrupt it). :meth:`DeploymentSearch.resume` continues a
checkpointed search and, for a given seed and clock, reproduces the exact
trajectory the uninterrupted run would have taken: the loop reads the
clock exactly once per iteration and checkpointing itself never touches
the clock, so interrupted and uninterrupted runs see identical elapsed
times, temperatures and acceptance draws.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.app.structure import ApplicationStructure
from repro.core.anneal import LinearTemperatureSchedule, accept_neighbor
from repro.core.api import AssessmentConfig, Assessor
from repro.core.assessment import ReliabilityAssessor
from repro.core.objectives import Objective, ReliabilityObjective
from repro.core.plan import DeploymentPlan, MoveDescriptor, ZoneConstraints
from repro.core.result import AssessmentResult, SearchRecord, SearchResult
from repro.core.transforms import BatchSymmetryFilter, SymmetryChecker
from repro.util.errors import (
    ConfigurationError,
    ValidationError,
    check_positive_finite,
)
from repro.util.metrics import MetricsRegistry
from repro.util.rng import make_rng
from repro.util.timing import Deadline

#: Accepts a candidate plan; False drops it before assessment (§3.3.3's
#: "quickly discard any generated deployment plans that do not satisfy
#: resource constraints").
ResourceFilter = Callable[[DeploymentPlan], bool]

#: Field metadata: the JSON form writes ``None`` as ``null``.
_NULL = {"json_null": True}


@dataclass(frozen=True)
class SearchSpec:
    """The developer's requirements handed to the provider (§2.2).

    Attributes:
        structure: What to deploy (components, N_Ci, K_{Ci,Cj}).
        desired_reliability: ``R_desired``; the search stops successfully
            once a plan reaches it. The paper's evaluation sets 1.0 so the
            search always runs the full budget.
        max_seconds: ``T_max``, the search budget.
        forbid_shared_rack: Apply the "no hosts from the same rack"
            heuristic to the initial plan.
        desired_measure: Optional additional bar on the holistic measure
            for multi-objective searches.
        max_iterations: Optional hard cap on loop iterations (useful for
            deterministic tests; production searches are time-bounded).
        zone_constraints: Optional zone-aware placement constraints
            (multi-zone topologies): the initial plan is drawn inside the
            constrained space and every proposed move is screened at
            proposal time, so no assessment budget is spent on plans a
            zone policy forbids.
    """

    structure: ApplicationStructure
    desired_reliability: float = 1.0
    max_seconds: float = 30.0
    forbid_shared_rack: bool = False
    desired_measure: float | None = field(default=None, metadata=_NULL)
    max_iterations: int | None = field(default=None, metadata=_NULL)
    zone_constraints: ZoneConstraints | None = field(default=None, metadata=_NULL)

    def __post_init__(self) -> None:
        errors: list[tuple[str, str]] = []
        if not 0.0 <= self.desired_reliability <= 1.0:  # NaN fails it too
            errors.append(
                (
                    "desired_reliability",
                    f"must be in [0, 1], got {self.desired_reliability}",
                )
            )
        check_positive_finite("max_seconds", self.max_seconds, errors)
        if errors:
            raise ValidationError(errors)


@dataclass
class SearchState:
    """The complete annealing state between two iterations.

    Everything :meth:`DeploymentSearch.resume` needs to continue a search
    exactly where it stopped. Captured at the top of an iteration (after
    the previous iteration's mutations, before any new randomness is
    drawn) and serialized via ``repro.serialization``: plans, assessments
    (estimates only — per-round lists are reproducible from the seeds),
    counters, the consumed budget, both RNG states (numpy bit-generator
    states are plain, big, integers), the common-random-numbers master
    seed and the acceptance trace.
    """

    spec: SearchSpec
    current_plan: DeploymentPlan
    current: AssessmentResult = field(metadata={"json_name": "current_assessment"})
    current_measure: float
    best_plan: DeploymentPlan
    best: AssessmentResult = field(metadata={"json_name": "best_assessment"})
    best_measure: float
    iterations: int = 0
    plans_assessed: int = 0
    skipped_symmetric: int = 0
    skipped_resources: int = 0
    batch_size: int = 1
    candidates_proposed: int = 0
    batches_scored: int = 0
    elapsed_seconds: float = 0.0
    search_rng_state: dict | None = field(default=None, metadata=_NULL)
    assessor_rng_state: dict | None = field(default=None, metadata=_NULL)
    crn_master_seed: int | None = field(default=None, metadata=_NULL)
    trace: list[SearchRecord] = field(default_factory=list)


class DeploymentSearch:
    """Simulated-annealing search over deployment plans.

    ``checkpoint_path`` enables crash tolerance: the annealing state is
    written there every ``checkpoint_every`` iterations and whenever the
    loop stops (budget expiry, iteration cap, or ``cancel`` firing — a
    SIGTERM handler cancels it for graceful preemption). A checkpoint
    is resumed with :meth:`resume`.
    """

    def __init__(
        self,
        assessor: Assessor,
        objective: Objective | None = None,
        use_symmetry: bool = True,
        resource_filter: ResourceFilter | None = None,
        rng: int | np.random.Generator | None = None,
        keep_trace: bool = False,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 10,
        cancel=None,
        batch_size: int = 1,
        temperature_schedule=None,
    ):
        if checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        self.assessor = assessor
        self.objective = objective or ReliabilityObjective()
        self._symmetry_filter = None
        if use_symmetry:
            self._symmetry_filter = BatchSymmetryFilter(
                SymmetryChecker(assessor.topology, assessor.dependency_model),
                metrics=metrics,
            )
        #: Candidates proposed (and scored in one ``score_plans`` call) per
        #: temperature step. ``1`` reproduces the classic one-neighbour
        #: loop bit-for-bit; see :meth:`_run` for the B>1 policy.
        self.batch_size = batch_size
        #: Optional schedule object with ``temperature(elapsed, moves)``;
        #: ``None`` keeps Eq. 6's wall-clock linear schedule. Pass a
        #: :class:`~repro.core.anneal.MoveBudgetTemperatureSchedule` for
        #: host-speed-independent trajectories.
        self.temperature_schedule = temperature_schedule
        self.resource_filter = resource_filter
        self.rng = make_rng(rng)
        self.keep_trace = keep_trace
        self.metrics = metrics
        self._clock = clock
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        #: Optional :class:`~repro.util.cancel.CancellationToken`. Checked
        #: at the top of every annealing iteration (move granularity):
        #: when it fires, the loop checkpoints (if configured) and
        #: returns the best plan found so far — an anytime search result,
        #: never an exception.
        self.cancel = cancel

    @classmethod
    def from_config(
        cls,
        topology,
        dependency_model=None,
        config: AssessmentConfig | None = None,
        **search_kwargs,
    ) -> "DeploymentSearch":
        """Build a search from the unified assessment configuration.

        The *outer* assessor — which draws the reported plan's one
        independent assessment and confirms a satisfying plan, with
        randomness the walk never sees — is the sequential from-scratch
        path whatever ``config.mode`` says, and the walk itself always
        runs on the
        :class:`~repro.core.incremental.IncrementalAssessor` (see
        :meth:`_search_assessor`). Only ``mode="analytic"`` changes the
        shape: it wraps both in the
        :class:`~repro.core.analytic.AnalyticAssessor`, so candidate
        screening *and* the final assessment are exact wherever the
        closure is tractable (the hybrid exact-screen/sampled-confirm
        mode), falling back to sampling per plan elsewhere.
        """
        config = config or AssessmentConfig(mode="incremental")
        if config.mode == "analytic":
            from repro.core.analytic import AnalyticAssessor

            outer = AnalyticAssessor.from_config(
                topology, dependency_model, config.with_updates(master_seed=None)
            )
        else:
            outer = ReliabilityAssessor.from_config(
                topology,
                dependency_model,
                config.with_updates(mode="sequential", master_seed=None),
            )
        if config.metrics is not None:
            search_kwargs.setdefault("metrics", config.metrics)
        return cls(outer, **search_kwargs)

    def _search_assessor(self, master_seed: int) -> Assessor:
        """The assessor used inside one search run.

        Its assessments share per-component random streams (common random
        numbers), so comparing the current plan with a neighbour is a
        low-variance paired comparison — without them, the per-swap
        reliability gain is often smaller than the sampling noise and the
        annealing walk stalls. The winning plan is re-assessed
        independently, once, before being reported (see :meth:`_run`).

        The CRN assessor is an
        :class:`~repro.core.incremental.IncrementalAssessor`, which caches
        sampled states, closures, fault-tree results and routed plans
        across the move sequence — bit-identical to a from-scratch
        :class:`ReliabilityAssessor` over a
        :class:`~repro.sampling.dagger.CommonRandomDaggerSampler` with the
        same master seed, which is the oracle the equality tests build. It
        is configured like the outer assessor (rounds, engine), runs on the
        same substrate kernel
        (:meth:`~repro.kernel.AssessmentKernel.of`), and differs in the
        sampler alone.

        When the outer assessor is an
        :class:`~repro.core.analytic.AnalyticAssessor`, the CRN assessor
        built here becomes its new sampling fallback (``with_inner``):
        exact screening results are RNG-free, so the exact memo is
        shared between the search and the outer assessor, while
        intractable plans still ride the CRN machinery below.

        ``master_seed`` is drawn by :meth:`search` (and recorded in
        checkpoints so :meth:`resume` rebuilds the identical streams).
        """
        from repro.core.analytic import AnalyticAssessor
        from repro.core.incremental import IncrementalAssessor

        outer = self.assessor
        analytic = outer if isinstance(outer, AnalyticAssessor) else None
        if analytic is not None:
            outer = analytic.inner
        crn = IncrementalAssessor(
            outer.topology,
            outer.dependency_model,
            # The outer sampler and stream are the outer assessor's own; the
            # walk's randomness is the master seed alone, and it reports
            # into the search's registry or nowhere.
            outer.config.with_updates(
                mode="incremental",
                sampler=None,
                rng=None,
                engine=outer.engine,
                master_seed=master_seed,
                metrics=self.metrics,
            ),
        )
        if analytic is not None:
            return analytic.with_inner(crn)
        return crn

    # ------------------------------------------------------------------

    def search(
        self, spec: SearchSpec, initial_plan: DeploymentPlan | None = None
    ) -> SearchResult:
        """Run the 6-step loop and return the outcome."""
        deadline = Deadline(spec.max_seconds, clock=self._clock)
        schedule = self.temperature_schedule or LinearTemperatureSchedule(
            spec.max_seconds
        )
        crn_master_seed = int(self.rng.integers(0, 2**63))
        assessor = self._search_assessor(crn_master_seed)

        # Steps 1-2: initial plan and its assessment. An explicit initial
        # plan (incumbent re-search) is accepted even when it violates the
        # zone constraints — the proposal screen only admits moves that
        # repair violations, so the walk converges into the constrained
        # space instead of failing outright on a degraded incumbent.
        current_plan = initial_plan or DeploymentPlan.random(
            assessor.topology,
            spec.structure,
            rng=self.rng,
            forbid_shared_rack=spec.forbid_shared_rack,
            zone_constraints=spec.zone_constraints,
        )
        current = assessor.assess(current_plan, spec.structure)
        current_measure = self.objective.measure(current_plan, current)

        # Best-so-far is tracked under the walk's CRN: a candidate and the
        # best share their random streams, so "beats the best" is a paired
        # comparison. The CRN score of the winner is optimistic (winner's
        # curse), so it is never reported: `_run` assesses the best plan
        # once, independently, after the loop.
        state = SearchState(
            spec=spec,
            current_plan=current_plan,
            current=current,
            current_measure=current_measure,
            best_plan=current_plan,
            best=current,
            best_measure=current_measure,
            plans_assessed=1,
            batch_size=self.batch_size,
            crn_master_seed=crn_master_seed,
        )
        if self._satisfied(spec, current, current_measure):
            verified = self._verify_satisfaction(spec, current_plan)
            if verified is not None:
                return self._result(state, verified, True, deadline)

        return self._run(spec, state, assessor, deadline, schedule)

    def resume(
        self,
        source,
        max_seconds: float | None = None,
        max_iterations: int | None = None,
    ) -> SearchResult:
        """Continue a checkpointed search exactly where it stopped.

        ``source`` is a checkpoint file path, a decoded checkpoint dict,
        or a :class:`SearchState`. The search and assessor RNGs are
        restored from the checkpoint, so with the same seed and clock the
        resumed run retraces the trajectory the uninterrupted run would
        have taken. ``max_seconds``/``max_iterations`` optionally extend
        the budget of the resumed run (e.g. to continue a search that
        stopped on budget expiry).

        The :class:`DeploymentSearch` this is called on must be built
        against the same topology, dependency model, objective and round
        count as the original — the checkpoint records the annealing
        state, not the substrate. A checkpoint written before the
        counter-based CRN streams still decodes and resumes, on the new
        streams: it retraces the uninterrupted run only on the code that
        wrote it.
        """
        from repro import serialization

        if isinstance(source, SearchState):
            state = source
        else:
            if not isinstance(source, dict):
                source = serialization.load(source)
            state = serialization.decode(SearchState, source)
        if state.search_rng_state is None or state.assessor_rng_state is None:
            raise ConfigurationError("checkpoint is missing RNG state")
        if state.crn_master_seed is None:
            raise ConfigurationError(
                "checkpoint has no crn_master_seed: it was written by a "
                "search without common random numbers, which cannot resume"
            )

        spec = state.spec
        overrides = {}
        if max_seconds is not None:
            overrides["max_seconds"] = max_seconds
        if max_iterations is not None:
            overrides["max_iterations"] = max_iterations
        if overrides:
            spec = dataclasses.replace(spec, **overrides)
            state.spec = spec

        self.rng.bit_generator.state = state.search_rng_state
        self.assessor.rng.bit_generator.state = state.assessor_rng_state
        assessor = self._search_assessor(state.crn_master_seed)
        deadline = Deadline(
            spec.max_seconds,
            clock=self._clock,
            elapsed_offset=state.elapsed_seconds,
        )
        schedule = self.temperature_schedule or LinearTemperatureSchedule(
            spec.max_seconds
        )
        return self._run(
            spec, state, assessor, deadline, schedule,
            first_elapsed=state.elapsed_seconds,
        )

    # ------------------------------------------------------------------

    def _run(
        self,
        spec: SearchSpec,
        state: SearchState,
        assessor: Assessor,
        deadline: Deadline,
        schedule,
        first_elapsed: float | None = None,
    ) -> SearchResult:
        """Steps 3-6, batch-first: evolve neighbours until satisfied or
        out of budget.

        Each temperature step proposes ``state.batch_size`` candidate
        moves from the incumbent, screens them (resource filter, then the
        symmetry filter), scores every survivor in **one**
        :meth:`~repro.core.api.Assessor.score_plans` call, and processes
        the scored candidates in proposal order under the classic
        acceptance rule — the first accepted candidate wins the step and
        the rest of the batch is discarded unprocessed (every scored
        delta compares against the *pre-move* incumbent, so the policy is
        order-deterministic). RNG discipline, per step: the search RNG
        draws exactly the proposal draws (in proposal order), then one
        acceptance draw per processed candidate whose acceptance
        probability is below 1. The outer assessor's RNG draws only to
        confirm a satisfying plan and, once, to assess the best plan
        after the loop. With ``batch_size=1`` every draw lands where
        the classic one-neighbour loop put it, so B=1 trajectories are
        bit-identical to the pre-batch implementation.

        The clock is read exactly once per loop iteration (at the top);
        that one reading drives the expiry check, the temperature, trace
        records and checkpoints. Checkpoint writes never read the clock.
        Both properties are what make a resumed run's trajectory
        bit-identical to an uninterrupted one under a deterministic
        test clock.
        """
        while True:
            if first_elapsed is not None:
                # The elapsed reading the interrupted run took at this
                # very loop top, replayed so the resumed trajectory sees
                # the same temperature (the Deadline constructor already
                # consumed the clock tick the original reading did).
                elapsed, first_elapsed = first_elapsed, None
            else:
                elapsed = deadline.elapsed()
            state.elapsed_seconds = elapsed

            if (
                self.checkpoint_path is not None
                and state.iterations > 0
                and state.iterations % self.checkpoint_every == 0
            ):
                self._write_checkpoint(state)
            if self.cancel is not None and self.cancel.cancelled:
                # Deadline, client cancel or SIGTERM: stop between moves,
                # persist the state for a later resume, and fall through
                # to report the best-so-far (anytime search semantics).
                if self.checkpoint_path is not None:
                    self._write_checkpoint(state)
                break
            if elapsed >= deadline.budget_seconds:
                break
            if (
                spec.max_iterations is not None
                and state.iterations >= spec.max_iterations
            ):
                break
            state.iterations += 1
            temperature = schedule.temperature(elapsed, state.iterations - 1)

            # Step 3, batched: propose B moves from the incumbent (all
            # proposal draws happen here, in order), screening each as it
            # is drawn. `None` entries mark candidates the screens
            # dropped; `skipped[i]` records a symmetric drop for tracing.
            candidates: list[tuple[MoveDescriptor, DeploymentPlan] | None] = []
            skipped_symmetric: list[bool] = []
            for _ in range(state.batch_size):
                move = state.current_plan.propose_move(
                    assessor.topology,
                    rng=self.rng,
                    zone_constraints=spec.zone_constraints,
                )
                state.candidates_proposed += 1
                neighbor_plan = move.apply(state.current_plan)
                if self.resource_filter is not None and not self.resource_filter(
                    neighbor_plan
                ):
                    state.skipped_resources += 1
                    candidates.append(None)
                    skipped_symmetric.append(False)
                    continue
                if (
                    self._symmetry_filter is not None
                    and self._symmetry_filter.equivalent(
                        state.current_plan, neighbor_plan
                    )
                ):
                    # Symmetric to the current plan: same reliability,
                    # skip the assessment (Step 3's discard).
                    state.skipped_symmetric += 1
                    candidates.append(None)
                    skipped_symmetric.append(True)
                    continue
                candidates.append((move, neighbor_plan))
                skipped_symmetric.append(False)

            # Step 4, batched: one shared-CRN scoring call for every
            # survivor. Under CRN the results are bit-identical to
            # per-candidate assessments, batching only shares the work.
            survivors = [c[1] for c in candidates if c is not None]
            if survivors:
                scores = assessor.score_plans(survivors, spec.structure)
                state.batches_scored += 1
                state.plans_assessed += len(survivors)
            else:
                scores = []

            score_index = 0
            for candidate, was_symmetric in zip(candidates, skipped_symmetric):
                if candidate is None:
                    if was_symmetric and self.keep_trace:
                        state.trace.append(
                            SearchRecord(
                                iteration=state.iterations,
                                elapsed_seconds=elapsed,
                                temperature=temperature,
                                candidate_score=state.current.score,
                                current_score=state.current.score,
                                best_score=state.best.score,
                                accepted=False,
                                skipped_symmetric=True,
                            )
                        )
                    continue
                _, neighbor_plan = candidate
                neighbor = scores[score_index]
                score_index += 1
                neighbor_measure = self.objective.measure(neighbor_plan, neighbor)

                if self.objective.prefers(
                    neighbor_plan, neighbor, state.best_plan, state.best
                ):
                    state.best_plan, state.best = neighbor_plan, neighbor
                    state.best_measure = neighbor_measure

                # Step 5: accept improvements, or worse plans
                # probabilistically — always against the pre-move
                # incumbent the whole batch was proposed from.
                delta = self.objective.delta(
                    state.current_plan, state.current, neighbor_plan, neighbor
                )
                accepted = accept_neighbor(delta, temperature, self.rng)
                if self.keep_trace:
                    state.trace.append(
                        SearchRecord(
                            iteration=state.iterations,
                            elapsed_seconds=elapsed,
                            temperature=temperature,
                            candidate_score=neighbor.score,
                            current_score=state.current.score,
                            best_score=state.best.score,
                            accepted=accepted,
                        )
                    )

                # Step 6: requirements met -> report the plan. Checked
                # before the incumbent moves so the comparison base stays
                # the pre-move incumbent for every processed candidate.
                satisfied_candidate = self._satisfied(
                    spec, neighbor, neighbor_measure
                )
                if accepted:
                    state.current_plan = neighbor_plan
                    state.current = neighbor
                    state.current_measure = neighbor_measure
                if satisfied_candidate:
                    verified = self._verify_satisfaction(spec, neighbor_plan)
                    if verified is not None:
                        state.best_plan, state.best = neighbor_plan, verified
                        return self._result(state, verified, True, deadline)
                if accepted:
                    # First accepted candidate wins the temperature step;
                    # the rest of the batch is discarded unprocessed.
                    break

        # Budget exhausted (or stop requested): requirements not
        # fulfilled; report the best found. The final checkpoint, written
        # before the outer RNG draws, lets a caller resume with a bigger
        # budget. The one independent assessment takes no cancellation
        # token: a stopped search still reports a full-round estimate.
        if self.checkpoint_path is not None:
            self._write_checkpoint(state)
        best = self.assessor.assess(state.best_plan, spec.structure)
        state.plans_assessed += 1
        return self._result(state, best, False, deadline)

    # ------------------------------------------------------------------

    def _write_checkpoint(self, state: SearchState) -> None:
        """Serialize the loop state atomically. Reads no clocks."""
        from repro import serialization

        state.search_rng_state = self.rng.bit_generator.state
        state.assessor_rng_state = self.assessor.rng.bit_generator.state
        serialization.dump(
            serialization.encode(state), self.checkpoint_path, checksum=True
        )

    def _verify_satisfaction(
        self, spec: SearchSpec, plan: DeploymentPlan
    ) -> AssessmentResult | None:
        """Confirm a satisfying plan with independent randomness.

        Under common random numbers, a score that crossed ``R_desired``
        may owe the crossing to the shared seed; an independent assessment
        must agree before the search declares success. Returns the
        independent assessment, or ``None`` if satisfaction did not hold
        up (the caller keeps searching).
        """
        independent = self.assessor.assess(plan, spec.structure)
        measure = self.objective.measure(plan, independent)
        if self._satisfied(spec, independent, measure):
            return independent
        return None

    def _satisfied(
        self, spec: SearchSpec, assessment: AssessmentResult, measure: float
    ) -> bool:
        if assessment.score < spec.desired_reliability:
            return False
        if spec.desired_measure is not None and measure < spec.desired_measure:
            return False
        return True

    @staticmethod
    def _result(
        state: SearchState,
        assessment: AssessmentResult,
        satisfied: bool,
        deadline: Deadline,
    ) -> SearchResult:
        return SearchResult(
            best_plan=state.best_plan,
            best_assessment=assessment,
            satisfied=satisfied,
            elapsed_seconds=deadline.elapsed(),
            iterations=state.iterations,
            plans_assessed=state.plans_assessed,
            plans_skipped_symmetric=state.skipped_symmetric,
            trace=tuple(state.trace),
            candidates_proposed=state.candidates_proposed,
            batches_scored=state.batches_scored,
        )
