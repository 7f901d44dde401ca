"""Split assessments: one portion runner, an optional pool of forked workers.

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

A portion is a pure function of its seed, so the pool needs no
supervisor of its own (the service's shard fleet is the one): a portion
whose worker died or raised runs once more on the master under the same
seed, and a crash changes no bit of the result. If that run raises too,
its own exception fails the call. The workers are forked once, reused
across calls and inherit the master's assessor copy-on-write; a crash or
a cancel tears them down and the next call forks them again. Without
the fork start method :class:`ParallelAssessor` warns and forks no pool.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from collections import deque
from dataclasses import dataclass, replace
from typing import Sequence

from repro.app.structure import ApplicationStructure
from repro.core.api import AssessmentConfig, AssessorBase
from repro.core.assessment import ReliabilityAssessor
from repro.core.plan import DeploymentPlan
from repro.core.result import AssessmentResult, PortionFailure, RuntimeMetadata
from repro.faults.dependencies import DependencyModel
from repro.sampling.statistics import estimate_from_pieces
from repro.topology.base import Topology
from repro.util.errors import ConfigurationError, OperationCancelled
from repro.util.faultpoints import fault_hit
from repro.util.rng import make_rng
from repro.util.timing import Stopwatch


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def even_split(rounds: int, pieces: int) -> tuple[int, ...]:
    """``rounds`` in ``pieces`` sizes that differ by at most one, larger
    ones first."""
    base, larger = divmod(rounds, pieces)
    return (base + 1,) * larger + (base,) * (pieces - larger)


@dataclass(frozen=True)
class _Portion:
    """One portion of rounds and the seed of its stream."""

    index: int
    rounds: int
    seed: int


def _run_portion(assessor, portion: _Portion, plan, structure, cancel=None):
    """One portion under its own stream: ``(per_round, sampled)``."""
    assessor.rng = make_rng(portion.seed)
    result = assessor.assess(plan, structure, rounds=portion.rounds, cancel=cancel)
    return result.per_round, result.sampled_components


def _record(failures: list, portion: _Portion, kind: str, message: str) -> None:
    failures.append(PortionFailure(portion.index, 0, kind, message))


def _worker_main(assessor, conn, masters) -> None:
    """One pool worker: the portions that arrive on ``conn``, run on the
    forked copy of the master's assessor (the per-worker "context" of
    §3.2.1, set up once), until the pipe closes.

    The worker closes the master's ends of the pool's pipes it inherited,
    so it reads EOF and exits once the master is gone. It leaves the
    master's process group: a SIGTERM or SIGINT sent to the group (a
    supervisor stopping the service, Ctrl-C) reaches the master alone,
    which stops its workers itself. A fault armed at ``pool.portion`` for
    this portion's index (a worker counts its hits alone, so the index is
    the one deterministic name of a hit) ends the process.
    """
    for master in masters:
        master.close()
    os.setpgid(0, 0)
    while True:
        try:
            portion, plan, structure = conn.recv()
        except EOFError:
            return
        if fault_hit("pool.portion", occurrence=portion.index) is not None:
            os._exit(70)  # the only command: gone, as after a SIGKILL
        try:
            reply = _run_portion(assessor, portion, plan, structure)
        except Exception as exc:
            reply = f"{type(exc).__name__}: {exc}"
        conn.send(reply)


class WorkerPool:
    """Forked workers running the portions of split assessments.

    Every worker inherits ``assessor`` at fork and runs a portion on it
    exactly as :func:`run_portions` would on the master. Faults armed at
    the ``pool.portion`` seam before the pool forks reach its workers.
    One assessment at a time.
    """

    def __init__(self, assessor, workers: int):
        self.assessor = assessor
        self.workers = workers
        self._workers: list = []  # (process, the master's end of its pipe)
        self._fork()

    def _fork(self) -> None:
        context = multiprocessing.get_context("fork")
        masters = []
        for _ in range(self.workers):
            master, child = context.Pipe()
            masters.append(master)
            process = context.Process(
                target=_worker_main,
                args=(self.assessor, child, tuple(masters)),
                daemon=True,
            )
            process.start()
            child.close()
            self._workers.append((process, master))

    def close(self) -> None:
        """Stop every worker; the next :meth:`gather` forks them again.
        Idempotent."""
        workers, self._workers = self._workers, []
        for process, master in workers:
            master.close()
            process.terminate()
            process.join()

    def __del__(self):  # pragma: no cover - exercised indirectly
        try:
            self.close()
        except Exception:
            pass

    def gather(self, portions, plan, structure, cancel, failures: list):
        """Fan the portions out, one in flight per worker, and gather the
        results: ``(completed, rest)``, ``rest`` the portions, in order,
        that have none (lost with a worker, raised there, or never run
        because every worker died or the token fired).

        After a crash or a cancel with portions in flight the pool is
        torn down, so no orphan keeps computing rounds nobody will
        collect.
        """
        from multiprocessing.connection import wait  # not loaded by ``import repro``

        if not self._workers:
            self._fork()
        due, idle, busy = deque(portions), [conn for _, conn in self._workers], {}
        completed, torn = {}, False
        while due or busy:
            if cancel is not None and cancel.cancelled:
                torn = torn or bool(busy)
                break
            while due and idle:
                conn, portion = idle.pop(), due.popleft()
                try:
                    conn.send((portion, plan, structure))
                    busy[conn] = portion
                except OSError:
                    _record(failures, portion, "crash", "worker died while idle")
                    torn = True
            if not busy:
                break  # every worker is gone: the master runs the rest
            # A token has no wake-up: look at it every 50 ms.
            for conn in wait(list(busy), None if cancel is None else 0.05):
                portion = busy.pop(conn)
                try:
                    reply = conn.recv()
                except (EOFError, OSError):  # OSError: died with input unread
                    _record(failures, portion, "crash", "worker died")
                    torn = True
                    continue
                idle.append(conn)
                if isinstance(reply, str):
                    _record(failures, portion, "error", reply)
                else:
                    completed[portion.index] = reply
        if torn:
            self.close()
        return completed, [p for p in portions if p.index not in completed]


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
    ``assessor.assess`` or, given a ``pool``, on a worker. A portion the
    pool returns no result for runs on the master under the same seed.

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
    completed, rest, cancelled = {}, portions, []
    try:
        if pool is not None:
            completed, rest = pool.gather(portions, plan, structure, cancel, failures)
        for position, portion in enumerate(rest):
            try:  # assess() checks the token before any work
                completed[portion.index] = _run_portion(
                    assessor, portion, plan, structure, cancel
                )
            except OperationCancelled:
                cancelled = rest[position:]
                for later in cancelled:
                    _record(failures, later, "cancelled", "cancelled on the master")
                break
    finally:
        assessor.rng = stream

    if not completed:
        raise OperationCancelled(
            "assessment cancelled before any portion completed; "
            "no anytime estimate is possible",
            reason=cancel.reason if cancel is not None else None,
        )
    done = sorted(completed)
    per_round, estimate, dropped_rounds = estimate_from_pieces(
        [completed[index][0] for index in done], sum(layout)
    )
    runtime = RuntimeMetadata(
        backend="inline" if pool is None else "process",
        workers=1 if pool is None else pool.workers,
        portion_seeds=tuple(portions[index].seed for index in done),
        recovered_inline=0 if pool is None else len(rest) - len(cancelled),
        dropped_portions=len(cancelled),
        dropped_rounds=dropped_rounds,
        cancelled=bool(cancelled),
        failures=tuple(failures),
    )
    return AssessmentResult(
        plan=plan,
        estimate=estimate,
        per_round=per_round,
        sampled_components=max(completed[index][1] for index in done),
        elapsed_seconds=watch.elapsed(),
        runtime=runtime,
    )


class ParallelAssessor(AssessorBase):
    """The runner with its pool: rounds split evenly over ``workers``.

    One master :class:`ReliabilityAssessor` is built from the config: the
    pool's workers inherit it, and the master runs on it whatever a
    platform without fork or a lost portion leaves there.
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
            self.pool = WorkerPool(self.master, config.workers)
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
        """Distribute, gather, reduce (see :func:`run_portions`)."""
        layout = self._portions(self.rounds if rounds is None else rounds)
        result = run_portions(self.master, plan, structure, layout, cancel, self.pool)
        if self.metrics is None:
            return result
        return replace(
            result, runtime=replace(result.runtime, profile=self.metrics.flat())
        )
