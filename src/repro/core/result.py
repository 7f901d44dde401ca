"""Result records returned by assessment and search."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.plan import DeploymentPlan
from repro.sampling.statistics import ReliabilityEstimate


@dataclass(frozen=True)
class PortionFailure:
    """One failed attempt at one portion of a split assessment.

    Attributes:
        portion: Index of the portion within the assessment.
        attempt: Zero-based attempt number that failed.
        kind: ``"crash"`` (worker process died), ``"timeout"`` (portion
            exceeded its per-portion deadline), ``"error"`` (the worker
            raised an exception) or ``"cancelled"`` (a token fired first).
        message: Human-readable description of the failure.
    """

    portion: int
    attempt: int
    kind: str
    message: str


@dataclass(frozen=True)
class RuntimeMetadata:
    """How a split assessment ran (§3.2.1): where its portions went and
    what went wrong.

    Attributes:
        backend: ``"process"`` (portions ran on a worker pool),
            ``"inline"`` (on the master: the service's chunked pieces,
            a platform without fork) or ``"incremental"``
            (:class:`~repro.core.incremental.IncrementalAssessor`, which
            reports its cache counters here). Documents written before
            the portion runner existed may carry ``"chunked"``.
        workers: Worker processes of the pool; 1 when the portions ran
            on the master, 0 for the incremental assessor.
        portion_seeds: The per-portion stream seeds that produced the
            estimate (the seeds actually used, including retry reseeds).
        retries: Total retry attempts across all portions.
        pool_restarts: Times the worker pool was torn down and restarted.
        recovered_inline: Portions recovered by the master running them
            inline after worker retries were exhausted.
        dropped_portions: Portions dropped in ``partial_ok`` mode, or cut
            off by cancellation.
        dropped_rounds: Sampling rounds lost with the dropped portions.
        cancelled: The assessment was stopped early by a cancellation
            token (deadline or client cancel); the estimate is an
            *anytime* result built from the portions completed by then.
        recovered: The request was replayed from the service's
            write-ahead journal after a crash; this execution is a
            re-run of work accepted by a previous process.
        failures: Per-attempt failure records (crash/timeout/error/
            cancelled).
        profile: Flattened metrics snapshot (stage timers and cache
            counters) when the assessment ran with profiling enabled;
            see :meth:`repro.util.metrics.MetricsRegistry.flat`.
    """

    backend: str
    workers: int
    portion_seeds: tuple[int, ...]
    retries: int = 0
    pool_restarts: int = 0
    recovered_inline: int = 0
    dropped_portions: int = 0
    dropped_rounds: int = 0
    cancelled: bool = False
    recovered: bool = False
    failures: tuple[PortionFailure, ...] = ()
    profile: tuple[tuple[str, float], ...] | None = None

    @property
    def portions(self) -> int:
        return len(self.portion_seeds)

    @property
    def degraded(self) -> bool:
        """Whether any requested rounds are missing from the estimate."""
        return self.dropped_portions > 0


@dataclass(frozen=True)
class AssessmentResult:
    """Outcome of assessing one deployment plan (§3.2).

    Attributes:
        plan: The assessed plan.
        estimate: Reliability score with variance and 95 % CI (Eqs. 1-3).
        per_round: The paper's result list L as a boolean vector (True =
            plan was reliable in that round).
        sampled_components: How many components had failure states
            generated (the relevant closure, incl. dependencies).
        elapsed_seconds: Wall-clock time of the assessment.
        runtime: How a split assessment ran — portion seeds, retry and
            degradation counters — when it went through
            :func:`~repro.runtime.mapreduce.run_portions` (the parallel
            assessor, the service's chunked path), or the incremental
            assessor's profile; ``None`` for one plain ``assess`` call.
    """

    plan: DeploymentPlan
    estimate: ReliabilityEstimate
    per_round: np.ndarray = field(repr=False)
    sampled_components: int
    elapsed_seconds: float
    runtime: RuntimeMetadata | None = None

    @property
    def score(self) -> float:
        """Shorthand for the estimated reliability score R."""
        return self.estimate.score

    @property
    def degraded(self) -> bool:
        """True when the estimate is built from fewer rounds than asked
        for because portions were dropped under ``partial_ok``."""
        return self.runtime is not None and self.runtime.degraded

    def to_dict(self) -> dict:
        """Stable, versioned JSON-ready encoding (schema in serialization.py).

        The raw per-round list is excluded by design — it is reproducible
        from the recorded seeds and would dominate the artifact size.
        """
        from repro import serialization

        return serialization.assessment_to_dict(self)

    @classmethod
    def from_dict(cls, document: dict) -> "AssessmentResult":
        """Decode an encoded assessment (``per_round`` comes back empty)."""
        from repro import serialization

        return serialization.assessment_from_dict(document)


@dataclass(frozen=True)
class SearchRecord:
    """One step of the annealing search (for traces and plots)."""

    iteration: int
    elapsed_seconds: float
    temperature: float
    candidate_score: float
    current_score: float
    best_score: float
    accepted: bool
    skipped_symmetric: bool = False


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a reliable-deployment search (§3.3).

    ``satisfied`` mirrors the provider protocol: True when a plan reaching
    the desired score was found within ``T_max``; otherwise the best plan
    found is still reported.
    """

    best_plan: DeploymentPlan
    best_assessment: AssessmentResult
    satisfied: bool
    elapsed_seconds: float
    iterations: int
    plans_assessed: int
    plans_skipped_symmetric: int
    trace: tuple[SearchRecord, ...] = field(default=(), repr=False)
    #: Neighbour moves proposed, including screened-out candidates
    #: (== iterations when batch_size is 1 and nothing raises).
    candidates_proposed: int = 0
    #: ``score_plans`` calls the hot loop issued (one per temperature
    #: step that had at least one screening survivor).
    batches_scored: int = 0

    @property
    def best_score(self) -> float:
        return self.best_assessment.score

    @property
    def plans_considered(self) -> int:
        """Generated plans, including those discarded via symmetry (§4.2.2)."""
        return self.plans_assessed + self.plans_skipped_symmetric
