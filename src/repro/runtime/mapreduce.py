"""Parallel route-and-check via a supervised MapReduce-style master/worker split.

§3.2.1: "A master node distributes portions of rounds to worker nodes.
Each worker node performs the route-and-check for the assigned rounds. The
master node then gathers the results from each worker node to compute the
overall reliability score."

Here the worker nodes are processes on one machine (the closest local
equivalent of the paper's distributed execution engine). Each worker
receives a (seed, rounds) portion, runs the full sample + fault-tree +
route-and-check pipeline for its rounds, and ships back its per-round
result list; the master concatenates the lists and computes the estimate —
statistically identical to a single sequential run over the union of
rounds, because portions use independent random streams.

The master is also a *supervisor*. A system that assesses reliability
should itself survive component failure, so portions are dispatched
asynchronously under a :class:`RetryPolicy`:

* a portion that exceeds its per-portion timeout is marked hung and the
  worker pool is restarted (terminating the stuck worker);
* a worker process that dies is detected by watching worker pids, the
  pool is restarted, and the lost portions are retried;
* retried portions are *reseeded deterministically* from their base seed
  and attempt number, so the estimate stays reproducible given the same
  failure pattern and every attempt is an independent, unbiased stream;
* when retries are exhausted the master degrades gracefully: by default
  it recovers the portion by running it inline (the 0-worker fallback
  backend), or — under ``partial_ok`` — returns an estimate built from
  the portions that did complete, flagged ``degraded`` with honestly
  widened error bounds.

The paper's Fig. 12 lesson reproduces naturally: for small round counts
the serialization/transmission and per-worker context setup dominate the
cheap route-and-check, so parallel execution only pays off when very high
assessment accuracy (many rounds) is required.

Implementation note: the process backend uses a fork-based
``multiprocessing.Pool``, whose workers inherit the (possibly huge)
topology copy-on-write — it is never pickled. The inherited state lives
in a registry keyed per assessor for the pool's lifetime, so workers the
pool respawns after a crash re-initialize correctly, and concurrent
assessors cannot clash. On platforms without the fork start method the
assessor degrades to the inline backend with a warning instead of
crashing.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.pool
import time
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.app.structure import ApplicationStructure
from repro.core.api import AssessmentConfig, AssessorBase, score_plans_sequentially
from repro.core.assessment import ReliabilityAssessor
from repro.core.plan import DeploymentPlan
from repro.core.result import AssessmentResult, PortionFailure, RuntimeMetadata
from repro.faults.dependencies import DependencyModel
from repro.runtime.chaos import ChaosPolicy
from repro.sampling.statistics import estimate_from_pieces
from repro.topology.base import Topology
from repro.util.errors import (
    ConfigurationError,
    DegradedResult,
    OperationCancelled,
    PortionTimeout,
    WorkerFailure,
)
from repro.util.rng import make_rng
from repro.util.timing import Stopwatch

#: Per-assessor state inherited by forked workers, keyed by a registry id.
#: An entry lives exactly as long as its assessor's pool, so workers the
#: pool respawns later (after a crash) still find their state at fork time.
_FORK_REGISTRY: dict[int, dict] = {}
_REGISTRY_IDS = itertools.count(1)

_WORKER_STATE: dict = {}


def _init_forked_worker(registry_key: int) -> None:
    """Pin the forked snapshot of the parent state inside the worker."""
    global _WORKER_STATE
    _WORKER_STATE = dict(_FORK_REGISTRY[registry_key])


def _seed_for_attempt(base_seed: int, attempt: int) -> int:
    """Deterministic stream seed for one attempt at one portion.

    Attempt 0 uses the base seed itself (so a failure-free run is
    bit-identical to the unsupervised runtime); retries derive a fresh,
    independent stream from (base seed, attempt) so a deterministic
    worker fault tied to the stream cannot recur forever and the retried
    estimate is still reproducible.
    """
    if attempt == 0:
        return int(base_seed)
    derived = np.random.SeedSequence([int(base_seed), int(attempt)])
    return int(derived.generate_state(1, dtype=np.uint64)[0] & (2**63 - 1))


def _worker_portion(args: tuple) -> tuple[np.ndarray, int]:
    """Run the route-and-check pipeline for one portion of rounds.

    The assessor is the per-worker "context" of §3.2.1 and is set up once
    per worker process, then reused across portions; only the stream seed
    and the round count change per task. Returns the per-round result
    list and the sampled-closure size so the master can aggregate real
    metadata instead of a sentinel.
    """
    portion_index, attempt, seed, rounds, plan, structure = args
    chaos: ChaosPolicy | None = _WORKER_STATE.get("chaos")
    if chaos is not None:
        chaos.execute(portion_index, attempt)
    assessor = _WORKER_STATE.get("assessor")
    if assessor is None:
        assessor = ReliabilityAssessor.from_config(
            _WORKER_STATE["topology"],
            _WORKER_STATE["model"],
            AssessmentConfig(
                rounds=rounds,
                sampler=_WORKER_STATE["sampler"],
                engine=_WORKER_STATE["engine"],
                rng=seed,
            ),
        )
        _WORKER_STATE["assessor"] = assessor
    assessor.rng = make_rng(seed)
    result = assessor.assess(plan, structure, rounds=rounds)
    return result.per_round, result.sampled_components


@dataclass(frozen=True)
class RetryPolicy:
    """How the master supervises portions (timeouts, retries, backoff).

    Attributes:
        timeout_seconds: Per-portion deadline; a portion that has not
            reported by then is treated as hung and the pool restarted.
            ``None`` disables the timeout (crashes are still detected by
            pid-watching, but a genuinely hung worker then hangs the
            assessment — set a timeout for production use).
        max_retries: Retry attempts per portion after its first failure.
        backoff_seconds: Base delay before re-dispatching failed portions.
        backoff_multiplier: Exponential growth factor per retry attempt.
        max_backoff_seconds: Cap on the backoff delay.
        jitter_fraction: Uniform ±fraction of jitter applied to each
            backoff sleep (decorrelates retry stampedes; drawn from a
            private stream so estimates stay reproducible).
        poll_interval_seconds: How often the master polls pending
            portions and checks worker liveness while waiting.
    """

    timeout_seconds: float | None = None
    max_retries: int = 2
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 2.0
    jitter_fraction: float = 0.25
    poll_interval_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigurationError(
                f"timeout must be positive or None, got {self.timeout_seconds}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        if self.backoff_seconds < 0 or self.max_backoff_seconds < 0:
            raise ConfigurationError("backoff delays must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError(
                f"backoff multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ConfigurationError(
                f"jitter fraction must be in [0, 1], got {self.jitter_fraction}"
            )
        if self.poll_interval_seconds <= 0:
            raise ConfigurationError(
                f"poll interval must be positive, got {self.poll_interval_seconds}"
            )

    def backoff_for(self, attempt: int, jitter_rng: np.random.Generator) -> float:
        """Sleep before re-dispatching a portion on its Nth retry (1-based)."""
        delay = self.backoff_seconds * self.backoff_multiplier ** max(0, attempt - 1)
        delay = min(delay, self.max_backoff_seconds)
        if self.jitter_fraction > 0.0 and delay > 0.0:
            spread = self.jitter_fraction * delay
            delay += float(jitter_rng.uniform(-spread, spread))
        return max(0.0, delay)


@dataclass
class _Portion:
    """Supervision state for one portion of rounds."""

    index: int
    rounds: int
    base_seed: int
    attempt: int = 0

    def seed(self) -> int:
        return _seed_for_attempt(self.base_seed, self.attempt)


class _PassAborted(Exception):
    """Internal: a worker death invalidated the rest of a dispatch pass."""


class _PassCancelled(Exception):
    """Internal: the caller's cancellation token fired during a pass."""


class ParallelAssessor(AssessorBase):
    """Assesses plans by fanning rounds out to supervised worker processes.

    Statistically equivalent to :class:`ReliabilityAssessor` with the same
    total round count. ``backend`` selects ``"process"`` (default; uses
    fork so the topology is shared copy-on-write) or ``"inline"`` (no
    parallelism — the master does everything; the 0-worker baseline and
    the fallback on platforms without fork).

    Fault tolerance is governed by ``retry_policy`` (see
    :class:`RetryPolicy`). ``partial_ok=True`` switches the degradation
    mode from "recover exhausted portions inline" to "return a degraded
    partial estimate with widened error bounds". ``chaos`` injects
    deterministic worker faults for tests and benchmarks (never applied
    on the inline path).
    """

    def __init__(
        self,
        topology: Topology,
        dependency_model: DependencyModel | None = None,
        config: AssessmentConfig | None = None,
    ):
        config = config or AssessmentConfig(mode="parallel")
        if config.workers < 1:
            raise ConfigurationError(
                f"need at least one worker, got {config.workers}"
            )
        if config.backend not in ("process", "inline"):
            raise ConfigurationError(f"unknown backend {config.backend!r}")
        backend = config.backend
        if backend == "process" and not self._fork_available():
            warnings.warn(
                "the 'fork' start method is unavailable on this platform; "
                "falling back to backend='inline' (no parallelism)",
                RuntimeWarning,
                stacklevel=2,
            )
            backend = "inline"
            config = config.with_updates(backend="inline")
        self.config = config
        self.topology = topology
        self.dependency_model = dependency_model or DependencyModel.empty(topology)
        self.sampler = config.sampler
        self.rounds = config.rounds
        self.workers = config.workers
        self.backend = backend
        self.retry_policy = config.retry_policy or RetryPolicy()
        self.partial_ok = config.partial_ok
        self.chaos = config.chaos
        self.rng = make_rng(config.rng)
        self.metrics = config.registry()
        self._jitter_rng = np.random.default_rng()
        self._pool: multiprocessing.pool.Pool | None = None
        self._pool_suspect = False  # a hang/crash was seen: drain may block
        self._registry_key = next(_REGISTRY_IDS)
        self._pool_restarts = 0
        if backend == "process":
            self._start_pool()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    @staticmethod
    def _fork_available() -> bool:
        return "fork" in multiprocessing.get_all_start_methods()

    def _start_pool(self) -> None:
        # The registry entry must outlive this call: multiprocessing.Pool
        # respawns dead workers on demand, and those late forks run the
        # initializer again — it has to find the state.
        _FORK_REGISTRY[self._registry_key] = dict(
            topology=self.topology,
            model=self.dependency_model,
            sampler=self.sampler,
            engine=self.config.engine,
            chaos=self.chaos,
        )
        context = multiprocessing.get_context("fork")
        self._pool = context.Pool(
            processes=self.workers,
            initializer=_init_forked_worker,
            initargs=(self._registry_key,),
        )
        self._pool_suspect = False

    def _restart_pool(self) -> None:
        """Tear down a suspect pool (hung/crashed workers) and refork."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()
        self._pool_restarts += 1
        self._start_pool()

    def close(self) -> None:
        """Shut the worker pool down.

        Drains gracefully (``close()`` + ``join()``) when the pool is
        healthy; escalates to ``terminate()`` when a hang or crash was
        observed, so a stuck worker cannot block shutdown. Idempotent.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            if self._pool_suspect:
                pool.terminate()
            else:
                pool.close()
            pool.join()
        _FORK_REGISTRY.pop(self._registry_key, None)

    def __del__(self):  # pragma: no cover - exercised indirectly
        # Abandoned assessors must not leak worker processes. Terminate
        # rather than drain: __del__ may run at interpreter shutdown where
        # a graceful join could block indefinitely.
        try:
            pool = getattr(self, "_pool", None)
            self._pool = None
            if pool is not None:
                pool.terminate()
                pool.join()
            _FORK_REGISTRY.pop(getattr(self, "_registry_key", None), None)
        except Exception:
            pass

    def __enter__(self) -> "ParallelAssessor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _live_worker_pids(self) -> frozenset[int]:
        pool = self._pool
        processes = getattr(pool, "_pool", None) or ()
        return frozenset(p.pid for p in processes if p.is_alive())

    # ------------------------------------------------------------------
    # Portioning
    # ------------------------------------------------------------------

    def _portions(self, rounds: int) -> list[int]:
        """Split ``rounds`` into one near-equal portion per worker."""
        if rounds <= 0:
            raise ConfigurationError(f"rounds must be positive, got {rounds}")
        base = rounds // self.workers
        remainder = rounds % self.workers
        portions = [base + (1 if i < remainder else 0) for i in range(self.workers)]
        return [p for p in portions if p > 0]

    # ------------------------------------------------------------------
    # Assessment
    # ------------------------------------------------------------------

    def assess(
        self,
        plan: DeploymentPlan,
        structure: ApplicationStructure,
        rounds: int | None = None,
        cancel=None,
    ) -> AssessmentResult:
        """Distribute, supervise, gather, reduce (the MapReduce of §3.2.1).

        ``cancel`` is an optional
        :class:`~repro.util.cancel.CancellationToken`. When it fires
        mid-assessment, the master stops waiting, tears down in-flight
        work (nothing keeps burning on rounds nobody will collect) and
        returns an **anytime result**: the estimate built from the
        portions completed so far, flagged ``runtime.cancelled`` and
        ``degraded``, with the confidence interval widened by the missing
        coverage — the same honest-widening path ``partial_ok`` uses.
        Only when *zero* portions completed does it raise
        :class:`~repro.util.errors.OperationCancelled`.
        """
        watch = Stopwatch()
        total_rounds = self.rounds if rounds is None else rounds
        portion_sizes = self._portions(total_rounds)
        base_seeds = [
            int(s) for s in self.rng.integers(0, 2**63, size=len(portion_sizes))
        ]
        portions = [
            _Portion(index=i, rounds=size, base_seed=seed)
            for i, (size, seed) in enumerate(zip(portion_sizes, base_seeds))
        ]

        failures: list[PortionFailure] = []
        retries = 0
        recovered_inline = 0
        restarts_before = self._pool_restarts
        cancelled: list[_Portion] = []

        if self._pool is None:
            completed, cancelled = self._inline_portions(
                portions, plan, structure, failures, cancel
            )
            exhausted: list[_Portion] = []
        else:
            completed, exhausted, cancelled, retries = self._supervise(
                portions, plan, structure, failures, cancel
            )

        dropped: list[_Portion] = list(cancelled)
        if exhausted:
            if self.partial_ok:
                dropped.extend(exhausted)
            else:
                # Graceful degradation, mode 1: the master recovers lost
                # portions itself on the inline backend (chaos-free and
                # pool-independent). A failure here is a real error in
                # the workload, not the substrate — surface it.
                for portion in exhausted:
                    try:
                        completed[portion.index] = self._inline_portion(
                            portion, plan, structure
                        )
                        recovered_inline += 1
                    except Exception as exc:
                        raise WorkerFailure(
                            f"portion {portion.index} failed in every worker "
                            f"attempt and in the inline fallback: {exc}",
                            portion=portion.index,
                            attempt=portion.attempt,
                            failures=failures,
                        ) from exc

        if not completed:
            if cancelled:
                raise OperationCancelled(
                    "assessment cancelled before any portion completed; "
                    "no anytime estimate is possible",
                    reason=cancel.reason if cancel is not None else None,
                )
            raise DegradedResult(
                f"all {len(portions)} portions were lost despite "
                f"{retries} retries; nothing to estimate from",
                failures=failures,
            )

        per_round, estimate, dropped_rounds = estimate_from_pieces(
            [completed[i][0] for i in sorted(completed)], total_rounds
        )
        sampled_components = max(completed[i][1] for i in completed)
        used_seeds = tuple(completed[i][2] for i in sorted(completed))

        runtime = RuntimeMetadata(
            backend=self.backend if self._pool is not None else "inline",
            workers=self.workers,
            portion_seeds=used_seeds,
            retries=retries,
            pool_restarts=self._pool_restarts - restarts_before,
            recovered_inline=recovered_inline,
            dropped_portions=len(dropped),
            dropped_rounds=dropped_rounds,
            cancelled=bool(cancelled),
            failures=tuple(failures),
            profile=self.metrics.flat() if self.metrics is not None else None,
        )
        return AssessmentResult(
            plan=plan,
            estimate=estimate,
            per_round=per_round,
            sampled_components=sampled_components,
            elapsed_seconds=watch.elapsed(),
            runtime=runtime,
        )

    def score_plans(
        self,
        plans: Sequence[DeploymentPlan],
        structure: ApplicationStructure,
        rounds: int | None = None,
        cancel=None,
    ) -> list[AssessmentResult]:
        """Batch scoring via the protocol's sequential fallback.

        The parallel backend already saturates the workers with one
        plan's portions, so there is no shared-batch fast path to gain;
        the method exists so the search can consume every backend through
        the same :class:`~repro.core.api.Assessor` batch interface.
        """
        if cancel is not None:
            return [
                self.assess(plan, structure, rounds=rounds, cancel=cancel)
                for plan in plans
            ]
        return score_plans_sequentially(self, plans, structure, rounds=rounds)

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------

    def _supervise(
        self,
        portions: list[_Portion],
        plan: DeploymentPlan,
        structure: ApplicationStructure,
        failures: list[PortionFailure],
        cancel=None,
    ) -> tuple[
        dict[int, tuple[np.ndarray, int, int]], list[_Portion], list[_Portion], int
    ]:
        """Dispatch portions until each completes or exhausts its retries.

        Returns ``(completed, exhausted, cancelled, retries)`` where
        ``completed`` maps portion index to ``(per_round,
        sampled_components, seed)``. A fired cancellation token ends
        supervision immediately: portions not yet gathered land in
        ``cancelled`` (never retried), and the pool is restarted so no
        orphaned worker keeps computing rounds nobody will collect.
        """
        policy = self.retry_policy
        completed: dict[int, tuple[np.ndarray, int, int]] = {}
        exhausted: list[_Portion] = []
        cancelled: list[_Portion] = []
        retries = 0
        pending = list(portions)

        while pending:
            if cancel is not None and cancel.cancelled:
                cancelled.extend(pending)
                for portion in pending:
                    self._record_failure(
                        failures, portion, "cancelled", "cancelled before dispatch"
                    )
                break
            failed_pass, cancelled_pass = self._dispatch_pass(
                pending, plan, structure, completed, failures, cancel
            )
            if cancelled_pass:
                cancelled.extend(cancelled_pass)
                # In-flight tasks were abandoned mid-pass; tear the pool
                # down so their workers stop burning CPU on dead rounds.
                self._pool_suspect = True
                self._restart_pool()
                break
            if not failed_pass:
                break
            # A hang or crash leaves the pool suspect (stuck worker still
            # holding a slot, or respawned workers mid-flight): restart it
            # before the retry pass so retries land on a clean substrate.
            # A worker that merely raised leaves the pool healthy.
            if self._pool_suspect:
                self._restart_pool()
            pending = []
            for portion in failed_pass:
                portion.attempt += 1
                if portion.attempt <= policy.max_retries:
                    retries += 1
                    pending.append(portion)
                else:
                    exhausted.append(portion)
            if pending:
                min_attempt = min(p.attempt for p in pending)
                delay = policy.backoff_for(min_attempt, self._jitter_rng)
                if delay > 0.0:
                    time.sleep(delay)
        return completed, exhausted, cancelled, retries

    def _dispatch_pass(
        self,
        pending: list[_Portion],
        plan: DeploymentPlan,
        structure: ApplicationStructure,
        completed: dict[int, tuple[np.ndarray, int, int]],
        failures: list[PortionFailure],
        cancel=None,
    ) -> tuple[list[_Portion], list[_Portion]]:
        """One async dispatch of every pending portion.

        Returns ``(failed, cancelled)``. A worker death aborts the whole
        pass: the pool is about to be restarted, which invalidates every
        result not yet gathered, so ready results are swept up and
        everything else is marked crashed. A fired cancellation token
        likewise ends the pass, but the un-gathered portions are
        *cancelled* (not retried) — whatever already finished is kept for
        the anytime estimate.
        """
        assert self._pool is not None
        pass_pids = self._live_worker_pids()
        dispatched = [
            (
                portion,
                self._pool.apply_async(
                    _worker_portion,
                    (
                        (
                            portion.index,
                            portion.attempt,
                            portion.seed(),
                            portion.rounds,
                            plan,
                            structure,
                        ),
                    ),
                ),
            )
            for portion in pending
        ]

        failed: list[_Portion] = []
        cancelled: list[_Portion] = []
        for position, (portion, async_result) in enumerate(dispatched):
            try:
                value = self._wait_portion(portion, async_result, pass_pids, cancel)
                completed[portion.index] = (value[0], value[1], portion.seed())
            except _PassCancelled:
                # Sweep results that are already in, then mark the rest
                # cancelled; nothing gets retried after a cancel.
                for later, later_result in dispatched[position:]:
                    if later_result.ready():
                        try:
                            value = later_result.get(timeout=0)
                            completed[later.index] = (
                                value[0],
                                value[1],
                                later.seed(),
                            )
                            continue
                        except Exception as exc:
                            self._record_failure(failures, later, "error", str(exc))
                            cancelled.append(later)
                            continue
                    self._record_failure(
                        failures, later, "cancelled", "cancelled while in flight"
                    )
                    cancelled.append(later)
                break
            except _PassAborted:
                self._record_failure(
                    failures, portion, "crash", "worker process died mid-pass"
                )
                failed.append(portion)
                # Sweep later results that finished before the death was
                # observed; the rest cannot be trusted to ever arrive.
                for later, later_result in dispatched[position + 1 :]:
                    if later_result.ready():
                        try:
                            value = later_result.get(timeout=0)
                            completed[later.index] = (
                                value[0],
                                value[1],
                                later.seed(),
                            )
                            continue
                        except Exception as exc:
                            self._record_failure(failures, later, "error", str(exc))
                            failed.append(later)
                            continue
                    self._record_failure(
                        failures, later, "crash", "result lost to a worker death"
                    )
                    failed.append(later)
                break
            except PortionTimeout as exc:
                self._pool_suspect = True
                self._record_failure(failures, portion, "timeout", str(exc))
                failed.append(portion)
            except Exception as exc:  # the worker raised
                self._record_failure(failures, portion, "error", str(exc))
                failed.append(portion)
        return failed, cancelled

    def _wait_portion(self, portion: _Portion, async_result, pass_pids, cancel=None):
        """Wait for one portion, polling for timeouts, deaths and cancel."""
        policy = self.retry_policy
        deadline = (
            None
            if policy.timeout_seconds is None
            else time.monotonic() + policy.timeout_seconds
        )
        while True:
            try:
                return async_result.get(timeout=policy.poll_interval_seconds)
            except multiprocessing.TimeoutError:
                pass
            if cancel is not None and cancel.cancelled:
                raise _PassCancelled()
            if pass_pids - self._live_worker_pids():
                self._pool_suspect = True
                raise _PassAborted()
            if deadline is not None and time.monotonic() >= deadline:
                raise PortionTimeout(
                    f"portion {portion.index} (attempt {portion.attempt}) exceeded "
                    f"its {policy.timeout_seconds:.3g}s timeout",
                    portion=portion.index,
                    attempt=portion.attempt,
                    timeout_seconds=policy.timeout_seconds,
                )

    @staticmethod
    def _record_failure(
        failures: list[PortionFailure], portion: _Portion, kind: str, message: str
    ) -> None:
        failures.append(
            PortionFailure(
                portion=portion.index,
                attempt=portion.attempt,
                kind=kind,
                message=message,
            )
        )

    # ------------------------------------------------------------------
    # Inline execution (the 0-worker baseline and the fallback path)
    # ------------------------------------------------------------------

    def _inline_portions(
        self,
        portions: list[_Portion],
        plan: DeploymentPlan,
        structure: ApplicationStructure,
        failures: list[PortionFailure],
        cancel=None,
    ) -> tuple[dict[int, tuple[np.ndarray, int, int]], list[_Portion]]:
        """Run portions one-by-one on the master, honouring cancellation.

        The token is checked between portions and forwarded into each
        portion's pipeline (sampler chunk granularity), so a deadline cuts
        the work off promptly even without a worker pool. A portion
        interrupted mid-pipeline yields no partial data — it and every
        later portion are returned as cancelled.
        """
        completed: dict[int, tuple[np.ndarray, int, int]] = {}
        cancelled: list[_Portion] = []
        for position, portion in enumerate(portions):
            if cancel is not None and cancel.cancelled:
                remaining = portions[position:]
                for later in remaining:
                    self._record_failure(
                        failures, later, "cancelled", "cancelled before dispatch"
                    )
                cancelled.extend(remaining)
                break
            try:
                completed[portion.index] = self._inline_portion(
                    portion, plan, structure, cancel
                )
            except OperationCancelled:
                remaining = portions[position:]
                for later in remaining:
                    self._record_failure(
                        failures, later, "cancelled", "cancelled mid-portion"
                    )
                cancelled.extend(remaining)
                break
        return completed, cancelled

    def _inline_portion(
        self,
        portion: _Portion,
        plan: DeploymentPlan,
        structure: ApplicationStructure,
        cancel=None,
    ) -> tuple[np.ndarray, int, int]:
        seed = portion.seed()
        assessor = ReliabilityAssessor.from_config(
            self.topology,
            self.dependency_model,
            AssessmentConfig(
                rounds=portion.rounds,
                sampler=self.sampler,
                engine=self.config.engine,
                rng=seed,
            ),
        )
        result = assessor.assess(plan, structure, cancel=cancel)
        return result.per_round, result.sampled_components, seed
