"""The analytic assessor: exact reliability where tractable, sampled elsewhere.

The third assessment backend (``AssessmentConfig(mode="analytic")``),
following the analytic-availability line of Bibartiu et al. and PCRAFT's
exact-when-tractable-else-sampled split (PAPERS.md). Instead of drawing
``rounds`` Monte Carlo samples, a plan's relevant closure is evaluated
over *every* joint failure state of its uncertain basic events:

1. The closure's uncertain events (``0 < p < 1``; links at probability 0
   and certain-failed components are folded out as constants) become the
   bits of a ``2**U`` state enumeration, laid out as bit-packed rows by
   :func:`repro.kernel.exact.enumeration_rows` — one synthetic "round"
   per state.
2. The compiled fault-tree forest and the packed route-and-check run
   **once** over the enumeration, exactly as they would over a sampled
   batch — shared power/cooling/control roots are handled by the
   enumeration itself (each shared event is one bit read by every tree
   referencing it, so the correlations of Fig. 5 are exact, not an
   independence approximation).
3. The per-state reliable/unreliable vector is weighted by each state's
   exact probability (:func:`~repro.kernel.exact.enumeration_weights`),
   giving the ground-truth reliability with a zero-width confidence
   interval (``estimate.exact``).

Tractability is a per-closure property: ``U`` grows with the plan's
hosts, pods and dependency fan-in, and beyond
``AssessmentConfig.analytic_state_bits`` the assessor *declines* —
loudly (one warning per reason, metrics counters) and gracefully (the
plan is handed to the wrapped sampling assessor, so callers always get a
valid estimate). Exact results are memoized per (plan, structure): they
are RNG-free, so a cache hit is always bit-identical to recomputation.

``score_plans`` implements the hybrid exact-screen/sampled-confirm batch
the search hot loop consumes: every candidate the exact path accepts is
screened analytically (no sampling noise, no winner's curse), and only
the declined remainder goes through the inner assessor's shared-CRN
batch. :class:`~repro.core.search.DeploymentSearch` wraps its CRN search
assessor the same way (see ``_search_assessor``), so annealing walks
screen exactly and confirm by cache hit where tractable.
"""

from __future__ import annotations

import logging
from typing import Sequence

import numpy as np

from repro.app.structure import ApplicationStructure
from repro.core.api import AssessmentConfig, AssessorBase
from repro.core.evaluation import StructureEvaluator
from repro.core.plan import DeploymentPlan
from repro.core.result import AssessmentResult
from repro.faults.dependencies import DependencyModel
from repro.kernel import AssessmentKernel
from repro.kernel.exact import ExactBudget, enumeration_rows, enumeration_weights
from repro.kernel.packed import packed_width
from repro.routing.base import RoundStates
from repro.sampling.statistics import exact_estimate
from repro.topology.base import Topology
from repro.util.timing import Stopwatch

__all__ = ["AnalyticAssessor"]

logger = logging.getLogger(__name__)


class _ClosureStates:
    """The exact state enumeration of one relevant closure.

    Shared by every plan over the same host set: the packed per-element
    failure rows over all ``2**U`` states, the exact per-state weights,
    and one long-lived :class:`RoundStates` so engine-side per-state
    caches stay warm across the plans that share the closure.
    """

    __slots__ = ("rounds", "states", "weights", "sampled_size")

    def __init__(
        self,
        rounds: int,
        states: RoundStates,
        weights: np.ndarray,
        sampled_size: int,
    ):
        self.rounds = rounds
        self.states = states
        self.weights = weights
        self.sampled_size = sampled_size


class AnalyticAssessor(AssessorBase):
    """Exact-where-tractable assessor wrapping a sampling fallback.

    Implements the full :class:`~repro.core.api.Assessor` protocol.
    ``inner`` is any sampling assessor (sequential, incremental, ...);
    plans whose closure fits the tractability budget are answered
    exactly and never touch it — crucially without consuming any of its
    randomness, so falling back for *some* plans leaves the inner
    assessor's RNG stream exactly where per-plan sampling would.
    """

    def __init__(
        self,
        inner,
        budget: ExactBudget | None = None,
        config: AssessmentConfig | None = None,
    ):
        self.inner = inner
        self.config = config or getattr(inner, "config", None)
        if budget is None and self.config is not None:
            budget = ExactBudget(state_bits=self.config.analytic_state_bits)
        self.budget = budget or ExactBudget()
        self.topology: Topology = inner.topology
        self.dependency_model: DependencyModel = inner.dependency_model
        self.rounds: int = inner.rounds
        self.engine = inner.engine
        self.metrics = inner.metrics
        self._evaluator = StructureEvaluator(self.engine)
        self.kernel = AssessmentKernel.of(self.dependency_model, self.metrics)
        self._warned: set[str] = set()
        self._closure_states: dict[frozenset[str], _ClosureStates | str] = {}
        self._results: dict[tuple, AssessmentResult] = {}
        self._validated = set()

    @classmethod
    def from_config(
        cls,
        topology: Topology,
        dependency_model: DependencyModel | None = None,
        config: AssessmentConfig | None = None,
    ) -> "AnalyticAssessor":
        """The unified-API constructor (see :mod:`repro.core.api`).

        The sampling fallback is a sequential
        :class:`~repro.core.assessment.ReliabilityAssessor` built from
        the same config; the search swaps in a CRN assessor per run via
        :meth:`with_inner`.
        """
        from repro.core.assessment import ReliabilityAssessor

        config = config or AssessmentConfig(mode="analytic")
        inner = ReliabilityAssessor.from_config(
            topology, dependency_model, config.with_updates(mode="sequential")
        )
        return cls(inner, config=config)

    def with_inner(self, inner) -> "AnalyticAssessor":
        """A sibling assessor over a different sampling fallback.

        Exact state — closure enumerations, memoized exact results — is
        *shared* with this assessor: exact values are RNG-free, so they
        are valid under any inner sampler, and sharing lets a search's
        screening hits double as the outer assessor's confirmation hits.
        """
        clone = AnalyticAssessor(inner, budget=self.budget, config=self.config)
        clone._closure_states = self._closure_states
        clone._results = self._results
        clone._warned = self._warned
        return clone

    # ------------------------------------------------------------------
    # Substrate plumbing (the Assessor attribute surface)
    # ------------------------------------------------------------------

    @property
    def rng(self):
        """The fallback assessor's generator (checkpointed by the search)."""
        return self.inner.rng

    def closure_for(self, plan: DeploymentPlan) -> tuple[set[str], set[str]]:
        """(subjects, sampled) for a plan — the inner assessor's memo."""
        return self.inner.closure_for(plan)

    def refresh_probabilities(self) -> None:
        """Re-read failure probabilities and drop every exact artifact.

        Exact results are pure functions of the probability table, so a
        probability change invalidates all of them at once.
        """
        self.inner.refresh_probabilities()
        self._closure_states.clear()
        self._results.clear()
        self.kernel = AssessmentKernel.of(self.dependency_model, self.metrics)

    # ------------------------------------------------------------------
    # Exact evaluation
    # ------------------------------------------------------------------

    def _warn(self, reason: str, detail: str) -> None:
        if self.metrics is not None:
            self.metrics.incr("analytic/declined")
        if reason not in self._warned:
            self._warned.add(reason)
            logger.warning(
                "analytic assessor declines (%s): %s; falling back to the "
                "sampling assessor",
                reason,
                detail,
            )

    def explain(self, plan: DeploymentPlan) -> str | None:
        """Why a plan's closure is intractable, or ``None`` if exact.

        Diagnostic surface for tests and operators; does all the closure
        analysis but none of the evaluation.
        """
        subjects, sampled = self.inner.closure_for(plan)
        entry = self._closure(subjects, sampled)
        return entry if isinstance(entry, str) else None

    def _closure(
        self, subjects: set[str], sampled: set[str]
    ) -> _ClosureStates | str:
        """The closure's exact enumeration, or a decline-reason string."""
        key = frozenset(subjects)
        cached = self._closure_states.get(key)
        if cached is not None:
            return cached
        kernel = self.kernel
        arena = kernel.arena
        probability_of = arena.probabilities
        index_of = arena.index_of

        # Deterministic event order: sorted component ids, exactly like
        # the sequential assessor's sorted-closure sampling order — the
        # bit assignment (and hence float summation order) is identical
        # across processes.
        uncertain: list[str] = []
        certain_failed: list[str] = []
        for cid in sorted(sampled):
            p = float(probability_of[index_of(cid)])
            if 0.0 < p < 1.0:
                uncertain.append(cid)
            elif p >= 1.0:
                certain_failed.append(cid)
        if len(uncertain) > self.budget.state_bits:
            reason = (
                f"closure has {len(uncertain)} uncertain basic events, "
                f"budget allows {self.budget.state_bits} "
                f"(2**{self.budget.state_bits} exact states)"
            )
            self._store_closure(key, reason)
            return reason

        bits = len(uncertain)
        rounds = 1 << bits
        rows = enumeration_rows(bits)
        width = packed_width(rounds)
        weights = enumeration_weights(
            [float(probability_of[index_of(cid)]) for cid in uncertain]
        )

        leaf_rows: dict[str, np.ndarray] = {
            cid: rows[i] for i, cid in enumerate(uncertain)
        }
        failed_row = np.full(width, 0xFF, dtype=np.uint8)
        failed_row.flags.writeable = False
        for cid in certain_failed:
            leaf_rows[cid] = failed_row

        failed = kernel.effective_states(subjects, sampled - subjects, leaf_rows)
        entry = _ClosureStates(
            rounds=rounds,
            states=RoundStates(rounds=rounds, failed=failed),
            weights=weights,
            sampled_size=len(sampled),
        )
        self._store_closure(key, entry)
        return entry

    def _store_closure(
        self, key: frozenset[str], entry: _ClosureStates | str
    ) -> None:
        if len(self._closure_states) >= 1024:
            self._closure_states.clear()
        self._closure_states[key] = entry

    def _exact(
        self, plan: DeploymentPlan, structure: ApplicationStructure
    ) -> AssessmentResult | None:
        """The exact assessment, or ``None`` when the closure declines."""
        key = (plan, structure.content_key())
        cached = self._results.get(key)
        if cached is not None:
            if self.metrics is not None:
                self.metrics.incr("analytic/exact_hit")
            return cached
        watch = Stopwatch()
        self._validate(plan, structure)
        subjects, sampled = self.inner.closure_for(plan)
        entry = self._closure(subjects, sampled)
        if isinstance(entry, str):
            self._warn("state-bits", entry)
            return None
        reliable = self._evaluator.evaluate(entry.states, plan, structure)
        score = float(np.dot(entry.weights, reliable))
        # The weights sum to 1 up to float rounding; keep the score a
        # probability under that last-ulp drift.
        score = min(1.0, max(0.0, score))
        result = AssessmentResult(
            plan=plan,
            estimate=exact_estimate(score),
            # No sampled rounds back an exact result; the enumerated
            # per-state outcomes are closure-shaped, not round-shaped,
            # so the result list L is empty by design.
            per_round=np.zeros(0, dtype=bool),
            sampled_components=entry.sampled_size,
            elapsed_seconds=watch.elapsed(),
        )
        if len(self._results) >= 8192:
            self._results.clear()
        self._results[key] = result
        if self.metrics is not None:
            self.metrics.incr("analytic/exact")
        return result

    # ------------------------------------------------------------------
    # Assessor protocol
    # ------------------------------------------------------------------

    def assess(
        self,
        plan: DeploymentPlan,
        structure: ApplicationStructure,
        rounds: int | None = None,
        cancel=None,
    ) -> AssessmentResult:
        """Exact assessment where tractable, inner sampling elsewhere.

        ``rounds`` only applies to the fallback: an exact result is the
        ground truth at any round count.
        """
        result = self._exact(plan, structure)
        if result is not None:
            return result
        return self.inner.assess(plan, structure, rounds=rounds, cancel=cancel)

    def score_plans(
        self,
        plans: Sequence[DeploymentPlan],
        structure: ApplicationStructure,
        rounds: int | None = None,
        cancel=None,
    ) -> list[AssessmentResult]:
        """Hybrid batch scoring: exact screen, sampled confirm.

        Tractable candidates are answered exactly; the declined
        remainder goes through the inner assessor's ``score_plans`` in
        one shared batch (under a CRN sampler that subset is
        bit-identical to per-plan assessment, so mixing exact and
        sampled entries never changes what either backend would have
        returned alone). Results come back in input order.
        """
        results: list[AssessmentResult | None] = [None] * len(plans)
        declined: list[int] = []
        for i, plan in enumerate(plans):
            exact = self._exact(plan, structure)
            if exact is not None:
                results[i] = exact
            else:
                declined.append(i)
        if declined:
            subset = [plans[i] for i in declined]
            sampled = self.inner.score_plans(
                subset, structure, rounds=rounds, cancel=cancel
            )
            for i, result in zip(declined, sampled):
                results[i] = result
        return results  # type: ignore[return-value]

    def __repr__(self) -> str:
        return (
            f"<AnalyticAssessor budget={self.budget} over "
            f"{type(self.inner).__name__}>"
        )
