"""Split assessments: one portion runner, an optional supervised worker pool.

§3.2.1: "A master node distributes portions of rounds to worker nodes.
Each worker node performs the route-and-check for the assigned rounds. The
master node then gathers the results from each worker node to compute the
overall reliability score."

:func:`run_portions` is that master, written once. It draws one stream
seed per portion from the caller's generator, runs portion *i* under
``make_rng(seed_i)`` on the master itself or on a :class:`WorkerPool` of
forked processes, and reduces the completed per-round lists through
:func:`~repro.sampling.statistics.estimate_from_pieces`. Where a portion
runs never changes its bits: for one stream and one layout the master,
the pool and any mix of the two return the same ``per_round`` vector.
Its callers are the service's anytime loop
(:func:`repro.service.executor.chunked_assess`, always on the master) and
:class:`ParallelAssessor` (an even split over its pool: Fig. 12, where
parallelism pays off only at many rounds).

The pool is *supervised*, because a system that assesses reliability
should itself survive component failure. Under a :class:`RetryPolicy`, a
portion past its timeout is marked hung, a dead worker (pid-watching)
loses every result in flight, and the pool is restarted once nothing else
is in flight. Failed portions are retried, *reseeded deterministically*
from their base seed and attempt number (reproducible given the same
failure pattern, every attempt an independent stream). A portion out of
retries is rerun on the master or, under ``partial_ok``, dropped: the
estimate then comes from the portions that did complete, flagged
``degraded`` with honestly widened bounds.

The pool is a fork-based ``multiprocessing.Pool`` whose workers inherit
the master's assessor (topology, compiled kernel and all) copy-on-write
through a registry entry that lives as long as the pool, so workers it
respawns after a crash initialise correctly. Without the fork start
method :class:`ParallelAssessor` warns and forks no pool: portions run on
the master.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
import warnings
from dataclasses import dataclass, replace
from functools import partial
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
    WorkerFailure,
)
from repro.util.rng import make_rng
from repro.util.timing import Stopwatch

#: Per-pool state inherited by forked workers, keyed by a registry id.
_FORK_REGISTRY: dict[int, dict] = {}
_REGISTRY_IDS = itertools.count(1)

_WORKER_STATE: dict = {}

#: Retry backoff: a failed portion's delay grows by this factor per
#: attempt, up to a cap, with a uniform ±fraction of jitter drawn from a
#: private stream (decorrelates retry stampedes; estimates stay
#: reproducible).
BACKOFF_MULTIPLIER = 2.0
MAX_BACKOFF_SECONDS = 2.0
JITTER_FRACTION = 0.25
#: How often the master polls the portions in flight and worker liveness
#: when no result has woken it.
POLL_INTERVAL_SECONDS = 0.05


def _init_forked_worker(registry_key: int) -> None:
    """Pin the forked snapshot of the parent state inside the worker.

    The worker leaves the master's process group: a SIGTERM or SIGINT
    sent to the group (a supervisor stopping the service, Ctrl-C) would
    otherwise kill idle workers, one of them holding the pool's task-queue
    lock, and the master's drain would wait on that lock forever. The
    master stops its workers itself; ``Pool.terminate`` still signals
    each one directly.
    """
    global _WORKER_STATE
    os.setpgid(0, 0)
    _WORKER_STATE = dict(_FORK_REGISTRY[registry_key])


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def even_split(rounds: int, pieces: int) -> tuple[int, ...]:
    """``rounds`` in ``pieces`` sizes that differ by at most one, larger
    ones first."""
    base, larger = divmod(rounds, pieces)
    return (base + 1,) * larger + (base,) * (pieces - larger)


@dataclass
class _Portion:
    """One portion of rounds and the attempt it is on."""

    index: int
    rounds: int
    base_seed: int
    attempt: int = 0
    not_before: float = 0.0  # monotonic time a retry may be dispatched at

    def seed(self) -> int:
        """Attempt 0 runs on the base seed (a failure-free run is the same
        wherever it runs); a retry derives an independent stream from
        (base seed, attempt), so a fault tied to the stream cannot recur
        forever and the retried estimate is still reproducible."""
        if self.attempt == 0:
            return self.base_seed
        derived = np.random.SeedSequence([self.base_seed, self.attempt])
        return int(derived.generate_state(1, dtype=np.uint64)[0] & (2**63 - 1))


def _run_portion(assessor, portion: _Portion, plan, structure, cancel=None):
    """One portion under its own stream: ``(per_round, sampled, seed)``."""
    seed = portion.seed()
    assessor.rng = make_rng(seed)
    result = assessor.assess(plan, structure, rounds=portion.rounds, cancel=cancel)
    return result.per_round, result.sampled_components, seed


def _worker_portion(args: tuple) -> tuple[np.ndarray, int, int]:
    """A portion on a worker: the forked copy of the pool's assessor (the
    per-worker "context" of §3.2.1, set up once), after any injected fault."""
    portion, plan, structure = args
    chaos: ChaosPolicy | None = _WORKER_STATE["chaos"]
    if chaos is not None:
        chaos.execute(portion.index, portion.attempt)
    return _run_portion(_WORKER_STATE["assessor"], portion, plan, structure)


def _record(failures: list, portion: _Portion, kind: str, message: str) -> None:
    failures.append(PortionFailure(portion.index, portion.attempt, kind, message))


@dataclass(frozen=True)
class RetryPolicy:
    """How the master supervises portions (timeouts, retries, backoff).

    Attributes:
        timeout_seconds: Per-portion deadline from dispatch; a portion
            that has not reported by then is treated as hung and the pool
            restarted. ``None`` disables the timeout (crashes are still
            detected by pid-watching, but a genuinely hung worker then
            hangs the assessment — set a timeout for production use).
        max_retries: Retry attempts per portion after its first failure.
        backoff_seconds: Base delay before re-dispatching a failed portion;
            it grows by :data:`BACKOFF_MULTIPLIER` per attempt up to
            :data:`MAX_BACKOFF_SECONDS`, with :data:`JITTER_FRACTION` of
            jitter.
    """

    timeout_seconds: float | None = None
    max_retries: int = 2
    backoff_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigurationError(
                f"timeout must be positive or None, got {self.timeout_seconds}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        if self.backoff_seconds < 0:
            raise ConfigurationError(
                f"backoff_seconds must be non-negative, got {self.backoff_seconds}"
            )

    def backoff_for(self, attempt: int, jitter_rng: np.random.Generator) -> float:
        """Delay before re-dispatching a portion on its Nth retry (1-based)."""
        delay = self.backoff_seconds * BACKOFF_MULTIPLIER ** max(0, attempt - 1)
        delay = min(delay, MAX_BACKOFF_SECONDS)
        if delay > 0.0:
            spread = JITTER_FRACTION * delay
            delay += float(jitter_rng.uniform(-spread, spread))
        return max(0.0, delay)


class WorkerPool:
    """A supervised fork pool running the portions of split assessments.

    Every worker inherits ``assessor`` at fork and runs a portion on it
    exactly as :func:`run_portions` would on the master. ``partial_ok``
    tells the runner to drop a portion out of retries instead of rerunning
    it on the master; ``chaos`` injects deterministic worker faults for
    tests and benchmarks. One assessment at a time.
    """

    def __init__(
        self,
        assessor,
        workers: int,
        retry_policy: RetryPolicy | None = None,
        partial_ok: bool = False,
        chaos: ChaosPolicy | None = None,
    ):
        self.workers = workers
        self.retry_policy = retry_policy or RetryPolicy()
        self.partial_ok = partial_ok
        self.restarts = 0
        self._jitter_rng = np.random.default_rng()
        self._registry_key = next(_REGISTRY_IDS)
        _FORK_REGISTRY[self._registry_key] = {"assessor": assessor, "chaos": chaos}
        self._start()

    def _start(self) -> None:
        self._pool = multiprocessing.get_context("fork").Pool(
            processes=self.workers,
            initializer=_init_forked_worker,
            initargs=(self._registry_key,),
        )
        self._pids = self.live_worker_pids()
        self._suspect = False  # a hang/crash was seen: drain may block

    def _stop(self, terminate: bool) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate() if terminate else pool.close()
            pool.join()

    def _restart(self) -> None:
        """Tear down a suspect pool (hung/crashed workers) and refork."""
        self._stop(terminate=True)
        self.restarts += 1
        self._start()

    def close(self) -> None:
        """Drain a healthy pool; terminate one that saw a hang or crash, so
        a stuck worker cannot block shutdown. Idempotent."""
        self._stop(terminate=self._suspect)
        _FORK_REGISTRY.pop(self._registry_key, None)

    def __del__(self):  # pragma: no cover - exercised indirectly
        # Abandoned pools must not leak workers. Terminate rather than
        # drain: at interpreter shutdown a graceful join could block.
        try:
            self._suspect = True
            self.close()
        except Exception:
            pass

    def live_worker_pids(self) -> frozenset[int]:
        processes = getattr(self._pool, "_pool", None) or ()
        return frozenset(p.pid for p in processes if p.is_alive())

    def supervise(self, portions, plan, structure, cancel, failures: list):
        """Run portions until each completes, exhausts its retries or is
        cancelled: ``(completed, exhausted, cancelled, retries)``.

        One poll loop, woken by every result that lands. At most
        ``workers`` portions are in flight, so a deadline runs from the
        moment a worker takes its portion. After a hang or crash nothing
        new is dispatched until the portions in flight resolve; then the
        pool is restarted. A fired token keeps the results already in and
        cancels the rest (never retried), restarting the pool so no
        orphaned worker keeps computing rounds nobody will collect.
        """
        policy, timeout = self.retry_policy, self.retry_policy.timeout_seconds
        completed, exhausted, cancelled, retries = {}, [], [], 0
        due = list(portions)
        inflight: list[tuple[_Portion, float]] = []
        landed: dict[tuple[int, int], object] = {}  # a result or what was raised
        wake = threading.Event()

        def land(key: tuple[int, int], outcome) -> None:
            landed[key] = outcome  # on the pool's result-handler thread
            wake.set()

        def failed(portion: _Portion, kind: str, message: str) -> None:
            nonlocal retries
            _record(failures, portion, kind, message)
            portion.attempt += 1
            if portion.attempt > policy.max_retries:
                exhausted.append(portion)
                return
            retries += 1
            backoff = policy.backoff_for(portion.attempt, self._jitter_rng)
            portion.not_before = time.monotonic() + backoff
            due.append(portion)

        while True:
            wake.clear()
            stop = cancel is not None and cancel.cancelled
            died = bool(self._pids - self.live_worker_pids())
            now = time.monotonic()
            still = []
            for entry in inflight:
                portion, deadline = entry
                outcome = landed.pop((portion.index, portion.attempt), None)
                if isinstance(outcome, BaseException):  # the worker raised
                    failed(portion, "error", str(outcome))
                elif outcome is not None:
                    completed[portion.index] = outcome
                elif stop:
                    _record(failures, portion, "cancelled", "cancelled while in flight")
                    cancelled.append(portion)
                    self._suspect = True
                elif died:
                    failed(portion, "crash", "result lost to a worker death")
                elif now >= deadline:
                    self._suspect = True
                    failed(portion, "timeout", f"no result within {timeout:.3g}s")
                else:
                    still.append(entry)
            self._suspect |= died
            inflight = still
            if stop:
                for portion in due:
                    _record(failures, portion, "cancelled", "cancelled before dispatch")
                cancelled += due
                if self._suspect:
                    self._restart()
                return completed, exhausted, cancelled, retries

            if self._suspect and not inflight:
                self._restart()
            free = 0 if self._suspect else self.workers - len(inflight)
            for portion in sorted(due, key=lambda p: p.not_before)[:free]:
                if portion.not_before > now:
                    break
                due.remove(portion)
                done = partial(land, (portion.index, portion.attempt))
                self._pool.apply_async(
                    _worker_portion,
                    ((portion, plan, structure),),
                    callback=done,
                    error_callback=done,
                )
                inflight.append((portion, time.monotonic() + (timeout or float("inf"))))
            if inflight:
                wake.wait(POLL_INTERVAL_SECONDS)
            elif due:  # every due portion is backing off
                time.sleep(max(0.0, min(p.not_before for p in due) - time.monotonic()))
            else:
                return completed, exhausted, cancelled, retries


def run_portions(
    assessor,
    plan: DeploymentPlan,
    structure: ApplicationStructure,
    layout: Sequence[int],
    cancel=None,
    pool: WorkerPool | None = None,
) -> AssessmentResult:
    """One assessment cut into portions of ``layout`` rounds, reduced.

    The stream the caller hands in is ``assessor.rng``: one seed per
    portion is drawn from it (that draw is all it advances by), and
    portion *i* runs under ``make_rng(seed_i)`` on the master through
    ``assessor.assess`` or, given a ``pool``, on a worker. Portions the
    pool gives up on are rerun on the master under their retry seed,
    unless the pool is ``partial_ok``: then they are dropped.

    ``cancel`` (a :class:`~repro.util.cancel.CancellationToken`) is
    checked between portions and forwarded into each portion's sampler
    loop. When it fires, the completed portions become an **anytime
    result** flagged ``runtime.cancelled`` and ``degraded``, its interval
    widened by the missing coverage; only when *zero* portions completed
    does it raise :class:`~repro.util.errors.OperationCancelled`.
    """
    watch = Stopwatch()
    stream = assessor.rng
    seeds = stream.integers(0, 2**63, size=len(layout))
    portions = [
        _Portion(index, int(size), int(seed))
        for index, (size, seed) in enumerate(zip(layout, seeds))
    ]
    failures: list[PortionFailure] = []
    completed, exhausted, cancelled = {}, [], []
    retries = restarts = recovered = 0
    try:
        if pool is None:
            for position, portion in enumerate(portions):
                try:  # assess() checks the token before any work
                    completed[portion.index] = _run_portion(
                        assessor, portion, plan, structure, cancel
                    )
                except OperationCancelled:
                    cancelled = portions[position:]
                    for later in cancelled:
                        _record(failures, later, "cancelled", "cancelled on the master")
                    break
        else:
            restarts = pool.restarts
            completed, exhausted, cancelled, retries = pool.supervise(
                portions, plan, structure, cancel, failures
            )
            restarts = pool.restarts - restarts
            if not pool.partial_ok:
                # The master recovers what the pool lost. A failure here
                # is a real error in the workload, not the substrate.
                for portion in exhausted:
                    try:
                        completed[portion.index] = _run_portion(
                            assessor, portion, plan, structure
                        )
                    except Exception as exc:
                        raise WorkerFailure(
                            f"portion {portion.index} failed in every worker "
                            f"attempt and on the master: {exc}",
                            portion=portion.index,
                            attempt=portion.attempt,
                            failures=failures,
                        ) from exc
                recovered, exhausted = len(exhausted), []
    finally:
        assessor.rng = stream

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
    done = [completed[index] for index in sorted(completed)]
    per_round, estimate, dropped_rounds = estimate_from_pieces(
        [piece[0] for piece in done], sum(layout)
    )
    runtime = RuntimeMetadata(
        backend="inline" if pool is None else "process",
        workers=1 if pool is None else pool.workers,
        portion_seeds=tuple(piece[2] for piece in done),
        retries=retries,
        pool_restarts=restarts,
        recovered_inline=recovered,
        dropped_portions=len(cancelled) + len(exhausted),
        dropped_rounds=dropped_rounds,
        cancelled=bool(cancelled),
        failures=tuple(failures),
    )
    return AssessmentResult(
        plan=plan,
        estimate=estimate,
        per_round=per_round,
        sampled_components=max(piece[1] for piece in done),
        elapsed_seconds=watch.elapsed(),
        runtime=runtime,
    )


class ParallelAssessor(AssessorBase):
    """The runner with its pool: rounds split evenly over ``workers``.

    One master :class:`ReliabilityAssessor` is built from the config: the
    pool's workers inherit it, and the master runs on it whatever a
    platform without fork or an exhausted retry budget leaves there.
    ``config.retry_policy``, ``partial_ok`` and ``chaos`` configure the
    pool (see :class:`RetryPolicy` and :class:`WorkerPool`).
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
        self.config = config
        self.master = ReliabilityAssessor(topology, dependency_model, config)
        self.topology = topology
        self.dependency_model = self.master.dependency_model
        self.rounds = config.rounds
        self.metrics = self.master.metrics
        self.pool: WorkerPool | None = None
        if _fork_available():
            self.pool = WorkerPool(
                self.master,
                config.workers,
                retry_policy=config.retry_policy,
                partial_ok=config.partial_ok,
                chaos=config.chaos,
            )
        else:
            warnings.warn(
                "the 'fork' start method is unavailable on this platform; "
                "portions run on the master (no parallelism)",
                RuntimeWarning,
                stacklevel=2,
            )

    def close(self) -> None:
        """Shut the worker pool down (see :meth:`WorkerPool.close`)."""
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "ParallelAssessor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _portions(self, rounds: int) -> list[int]:
        """One near-equal portion per worker (fewer when rounds are few)."""
        if rounds <= 0:
            raise ConfigurationError(f"rounds must be positive, got {rounds}")
        return list(even_split(rounds, min(self.config.workers, rounds)))

    def assess(
        self,
        plan: DeploymentPlan,
        structure: ApplicationStructure,
        rounds: int | None = None,
        cancel=None,
    ) -> AssessmentResult:
        """Distribute, supervise, gather, reduce (see :func:`run_portions`)."""
        layout = self._portions(self.rounds if rounds is None else rounds)
        result = run_portions(self.master, plan, structure, layout, cancel, self.pool)
        if self.metrics is None:
            return result
        return replace(
            result, runtime=replace(result.runtime, profile=self.metrics.flat())
        )

    def score_plans(
        self,
        plans: Sequence[DeploymentPlan],
        structure: ApplicationStructure,
        rounds: int | None = None,
        cancel=None,
    ) -> list[AssessmentResult]:
        """One :meth:`assess` per plan: the pool is already saturated by one
        plan's portions, so there is no shared-batch fast path to gain."""
        return score_plans_sequentially(self, plans, structure, rounds, cancel)
