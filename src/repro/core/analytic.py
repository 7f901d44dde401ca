"""The analytic assessor: exact reliability where tractable, sampled elsewhere.

The third assessment backend (``AssessmentConfig(mode="analytic")``),
following the analytic-availability line of Bibartiu et al. and PCRAFT's
exact-when-tractable-else-sampled split (PAPERS.md). Instead of drawing
``rounds`` Monte Carlo samples, a plan's relevant closure is evaluated
over *every* joint failure state of its uncertain basic events:

1. The closure's uncertain events (``p > 0``, picked from the inner
   assessor's arena masks; links at probability 0 are folded out as
   constants) become the bits of a ``2**U`` state enumeration, laid out as bit-packed rows by
   :func:`repro.kernel.exact.enumeration_rows` — one synthetic "round"
   per state.
2. The compiled fault-tree forest and the packed route-and-check run
   **once** over the enumeration, through the same
   :func:`~repro.core.evaluation.scenario_states` and
   :meth:`~repro.core.evaluation.StructureEvaluator.evaluate` a sampled
   batch goes through — shared power/cooling/control roots are handled
   by the enumeration itself (each shared event is one bit read by every
   tree referencing it, so the correlations of Fig. 5 are exact, not an
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
from repro.core.evaluation import StructureEvaluator, scenario_states
from repro.core.plan import DeploymentPlan
from repro.core.result import AssessmentResult
from repro.faults.dependencies import DependencyModel
from repro.kernel import AssessmentKernel
from repro.kernel.exact import enumeration_rows, enumeration_weights
from repro.routing.base import RoundStates
from repro.sampling.statistics import exact_estimate
from repro.topology.base import Topology
from repro.util.timing import Stopwatch

__all__ = ["AnalyticAssessor"]

logger = logging.getLogger(__name__)


class AnalyticAssessor(AssessorBase):
    """Exact-where-tractable assessor wrapping a sampling fallback.

    Implements the full :class:`~repro.core.api.Assessor` protocol.
    ``inner`` is any sampling assessor (sequential, incremental, ...);
    plans whose closure fits the tractability budget are answered
    exactly and never touch it — crucially without consuming any of its
    randomness, so falling back for *some* plans leaves the inner
    assessor's RNG stream exactly where per-plan sampling would.
    """

    def __init__(self, inner, config: AssessmentConfig):
        self.inner = inner
        self.config = config
        self.topology: Topology = inner.topology
        self.dependency_model: DependencyModel = inner.dependency_model
        self.rounds: int = inner.rounds
        self.engine = inner.engine
        self.metrics = inner.metrics
        self._evaluator = StructureEvaluator(self.engine)
        self.kernel = AssessmentKernel.of(self.dependency_model, self.metrics)
        self._warned: set[str] = set()
        # subjects mask -> (states, weights, sampled count) of the closure's
        # exact enumeration, or the reason it declines. One long-lived
        # RoundStates per closure keeps engine-side per-state caches warm
        # across the plans that share it.
        self._closure_states: dict[int, tuple[RoundStates, np.ndarray, int] | str] = {}
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
        screening hits serve the outer assessor's final assessment.
        """
        clone = AnalyticAssessor(inner, self.config)
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
        entry = self._closure(*self.inner._closure_masks(plan))
        return entry if isinstance(entry, str) else None

    def _closure(
        self, subjects: int, sampled: int
    ) -> tuple[RoundStates, np.ndarray, int] | str:
        """The closure's exact enumeration — its states, per-state weights
        and sampled component count — or a decline-reason string."""
        cached = self._closure_states.get(subjects)
        if cached is not None:
            return cached
        kernel = self.kernel
        arena = kernel.arena

        # Deterministic event order: sorted component ids, exactly like
        # the sequential assessor's sorted-closure sampling order — the
        # bit assignment (and hence float summation order) is identical
        # across processes. An event at p = 1 (only a topology reporting
        # its own table brings one) is a bit whose up states weigh 0.
        events = arena.indices_in(sampled)
        events = events[np.argsort(arena.rank[events])]
        uncertain = events[arena.probabilities[events] > 0.0]
        allowed = self.config.analytic_state_bits
        if len(uncertain) > allowed:
            reason = (
                f"closure has {len(uncertain)} uncertain basic events, "
                f"budget allows {allowed} (2**{allowed} exact states)"
            )
            self._store_closure(subjects, reason)
            return reason

        rounds = 1 << len(uncertain)
        ids = arena.ids
        rows = {
            ids[i]: row
            for i, row in zip(uncertain.tolist(), enumeration_rows(len(uncertain)))
        }
        weights = enumeration_weights(arena.probabilities[uncertain].tolist())
        entry = (
            scenario_states(kernel, subjects, rows, rounds),
            weights,
            sampled.bit_count(),
        )
        self._store_closure(subjects, entry)
        return entry

    def _store_closure(
        self, key: int, entry: tuple[RoundStates, np.ndarray, int] | str
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
        entry = self._closure(*self.inner._closure_masks(plan))
        if isinstance(entry, str):
            self._warn("state-bits", entry)
            return None
        states, weights, sampled_size = entry
        reliable = self._evaluator.evaluate(states, plan, structure)
        score = float(np.dot(weights, reliable))
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
            sampled_components=sampled_size,
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
        remainder goes through the inner assessor's ``score_plans``,
        which returns what per-plan assessment would, so mixing exact
        and sampled entries never changes what either backend would have
        returned alone. Results come back in input order.
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
        bits = self.config.analytic_state_bits
        return (
            f"<AnalyticAssessor analytic_state_bits={bits} over "
            f"{type(self.inner).__name__}>"
        )
