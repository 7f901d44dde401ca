"""Single-process deterministic simulation of the full service stack.

The drill runs the *production* request lifecycle —
:class:`~repro.service.lifecycle.RequestLifecycle` over real
:class:`~repro.service.journal.RequestJournal` segment families and the
real :class:`~repro.service.store.ResultStore`, with its consistent hash
ring, heartbeat failure detection, restart policy, takeover and recovery
— plus the real :class:`~repro.service.redeploy.RedeploymentController`
commit point. It runs that core as the forked fleet does, over the
fleet's own worker class, :class:`~repro.service.fleet.ShardWorker`;
what it replaces is only the nondeterministic substrate (threads,
processes, pipes, wall clocks, the assessment itself), with a
discrete-event tick loop, a virtual clock and a deterministic stand-in
executor. Each tick a worker beats and takes one protocol step
(``started → compute → respond``); the supervisor's ``task`` and
``cancel`` messages reach it as :func:`~repro.service.fleet.pipe_message`
builds them, and each message it sends goes through the core's own
``on_message``, so a fault schedule addressing "the 3rd heartbeat" or
"the 7th journal append" strikes the same instant on every run: the
whole drill is a pure function of ``(seed, schedule)``.

A :class:`~repro.util.faultpoints.SimulatedCrash` raised from any seam
kills the simulated process: the core, its queues and tickets and the
controller vanish; the next tick rebuilds the service *from its durable
files alone* — the same recovery path a real restart takes. A
``power_loss`` crash additionally truncates every file with un-fsync'd
bytes back to its last durable offset before the rebuild.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.core.plan import DeploymentPlan
from repro.serialization import encode
from repro.service.executor import RequestExecutor
from repro.service.fleet import ServiceConfig, ShardWorker, pipe_message
from repro.service.lifecycle import Effect, RequestLifecycle, open_state
from repro.service.redeploy import DegradationEvent, RedeploymentController
from repro.service.requests import AssessRequest, ServiceResponse
from repro.util.errors import AdmissionRejected
from repro.util.faultpoints import (
    FaultPoints,
    SimulatedCrash,
    fault_hit,
    raise_if_crash,
)

#: Virtual seconds per tick, and the failure-detection knobs expressed
#: in virtual time. One protocol step per tick keeps interleavings wide.
TICK_SECONDS = 0.05
HEARTBEAT_INTERVAL = 0.1
HEARTBEAT_MISSES = 4
RESPAWN_BACKOFF = 0.2
RESPAWN_CAP = 1.0
QUARANTINE_RESTARTS = 4
QUARANTINE_WINDOW = 1_000.0

#: Small segments so drills exercise rotation and sealed-segment GC
#: invariants, not just a single live file.
SEGMENT_BYTES = 4096

#: After this many injected crashes the registry is disabled so a
#: pathological schedule cannot livelock the run restarting forever.
MAX_CRASHES = 20

#: The controller polls every this-many ticks.
REDEPLOY_EVERY = 7


def _plan(index: int) -> DeploymentPlan:
    return DeploymentPlan.from_mapping(
        {"app": [f"host-{index}", f"host-{index + 1}"]}
    )


INITIAL_PLAN = _plan(0)


# ----------------------------------------------------------------------
# Deterministic stand-ins for the search stack. The controller only ever
# calls refresh/assess/search; scores come from the drill's script so a
# redeploy decision is a pure function of the event sequence.
# ----------------------------------------------------------------------


class _StubEstimate:
    def __init__(self, score: float):
        self.score = score


class _StubAssessment:
    def __init__(self, score: float):
        self.estimate = _StubEstimate(score)


class _StubResult:
    def __init__(self, plan: DeploymentPlan, score: float):
        self.best_plan = plan
        self.best_assessment = _StubAssessment(score)


class _StubSearch:
    """Duck-typed ``DeploymentSearch`` driven by scripted scores."""

    def __init__(self):
        self.assessor = self
        self.topology = None
        self.score = 0.95
        self.candidate_plan = INITIAL_PLAN
        self.candidate_score = 0.95

    def refresh_probabilities(self) -> None:
        pass

    def assess(self, plan, structure) -> _StubAssessment:
        return _StubAssessment(self.score)

    def search(self, spec, initial_plan=None) -> _StubResult:
        return _StubResult(self.candidate_plan, self.candidate_score)


# ----------------------------------------------------------------------
# Workload and client-side trace
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkOp:
    """One scripted client action at a virtual tick."""

    tick: int
    action: str  # "submit" | "resubmit" | "cancel" | "degrade"
    index: int  # submission index (submit) or referenced index
    key: str | None = None


def make_workload(rng: random.Random, requests: int) -> list[WorkOp]:
    """A seeded mix of keyed/unkeyed submits, resubmits, cancels and
    degradation signals, spread over virtual time."""
    ops: list[WorkOp] = []
    tick = 1
    for index in range(requests):
        tick += rng.randint(1, 3)
        key = f"key-{index}" if rng.random() < 0.65 else None
        ops.append(WorkOp(tick, "submit", index, key))
        if key is not None and rng.random() < 0.35:
            ops.append(WorkOp(tick + rng.randint(2, 14), "resubmit", index, key))
        if key is None and rng.random() < 0.25:
            ops.append(WorkOp(tick + 1, "cancel", index))
        if rng.random() < 0.3:
            ops.append(WorkOp(tick + rng.randint(0, 4), "degrade", index))
    ops.sort(key=lambda op: (op.tick, op.action, op.index))
    return ops


@dataclass
class Submission:
    """One client-side attempt travelling through the drill."""

    seq: int
    index: int
    kind: str
    key: str | None
    request: AssessRequest
    acked: bool = False
    request_id: str | None = None
    gave_up: bool = False
    attempts: int = 0
    retry_at: int | None = None
    responses: list[dict] = field(default_factory=list)


@dataclass
class DrillTrace:
    """Client-side ground truth; survives every simulated crash."""

    submissions: list[Submission] = field(default_factory=list)
    waiters: dict[str, list[Submission]] = field(default_factory=dict)
    executions: dict[str, list[dict]] = field(default_factory=dict)
    apply_calls: list[str] = field(default_factory=list)
    crashes: int = 0
    power_losses: int = 0
    restarts: int = 0
    failovers: int = 0


# ----------------------------------------------------------------------
# Server-side state (rebuilt from durable files on every crash)
# ----------------------------------------------------------------------


class _DrillExecutor(RequestExecutor):
    """The deterministic stand-in for an assessment: the executor's own
    ``run`` (its cancelled response included) over a result that is a
    pure function of the per-request seed, which derives from the
    idempotency key (or the journaled request id) — so any
    re-execution, in any process incarnation, is bit-identical."""

    def __init__(self, seed: int, trace: DrillTrace):
        self.service_seed = seed
        self.trace = trace

    def run_assess(self, request, *, request_id: str, **_) -> ServiceResponse:
        handle = request.idempotency_key or request_id
        seed = self.seed_for("assess", handle)
        digest = hashlib.sha256(f"drill:{seed}".encode("utf-8")).hexdigest()
        result = {
            "score": int(digest[:8], 16) / 0xFFFFFFFF,
            "digest": digest[:16],
            "seed": seed,
        }
        self.trace.executions.setdefault(handle, []).append(result)
        return ServiceResponse(request_id=request_id, status="ok", result=result)


class _ServiceState:
    """Everything a simulated process holds in memory. Constructed from
    the durable directories alone — that *is* the recovery path."""

    def __init__(self, sim: "DrillSim"):
        # The production core: opening the per-shard journals truncates
        # any torn live tails, and its constructor rebuilds tickets and
        # the key table from what the families hold.
        self.core = RequestLifecycle(
            sim.config,
            sim.topology,
            *open_state(sim.config, sim.shards),
            slots=sim.shards,
            clock=sim.clock,
        )
        self.store = self.core.store
        # One simulated process per live shard: alive, hung or exited
        # (the worker's own state); a killed one is gone from here.
        self.workers: dict[int, ShardWorker] = {}

        # The real controller, recovering its commit point from disk.
        # The fresh stub answers "search finds nothing better than the
        # current substrate" until the next scripted degradation, so an
        # uninstructed poll after a restart settles (one rejected
        # decision at most) instead of re-deciding forever.
        self.stub = _StubSearch()
        self.stub.score = sim.current_score
        self.stub.candidate_score = sim.current_score
        self.stub.candidate_plan = _plan(sim.plan_counter)
        self.controller = RedeploymentController(
            search=self.stub,
            structure=None,
            state_dir=sim.redeploy_dir,
            incumbent=INITIAL_PLAN,
            min_gain=0.002,
            degradation_threshold=0.005,
            search_seconds=0.1,
            max_retries=2,
            backoff_seconds=0.0,
            apply_plan=lambda plan: sim.trace.apply_calls.append(
                plan.canonical_key()
            ),
            sleep=lambda seconds: None,
        )

    def close_handles(self) -> None:
        """Drop file handles without the graceful-close fsync — this
        process model just crashed; nothing graceful happens."""
        for journal in self.core.journals:
            with contextlib.suppress(Exception):
                journal._handle.close()


# ----------------------------------------------------------------------
# The drill itself
# ----------------------------------------------------------------------


class DrillSim:
    """One deterministic drill: seeded workload + armed fault schedule."""

    def __init__(
        self,
        seed: int,
        root: str,
        registry: FaultPoints,
        shards: int = 3,
        requests: int = 10,
        max_ticks: int = 1200,
    ):
        self.seed = seed
        self.shards = shards
        self.requests = requests
        self.max_ticks = max_ticks
        self.registry = registry
        self.journal_dir = os.path.join(root, "journal")
        self.redeploy_dir = os.path.join(root, "redeploy")
        os.makedirs(self.journal_dir, exist_ok=True)
        os.makedirs(self.redeploy_dir, exist_ok=True)
        self.config = ServiceConfig(
            journal_dir=self.journal_dir,
            journal_segment_bytes=SEGMENT_BYTES,
            heartbeat_interval_seconds=HEARTBEAT_INTERVAL,
            heartbeat_misses=HEARTBEAT_MISSES,
            respawn_backoff_seconds=RESPAWN_BACKOFF,
            respawn_backoff_cap_seconds=RESPAWN_CAP,
            quarantine_restarts=QUARANTINE_RESTARTS,
            quarantine_window_seconds=QUARANTINE_WINDOW,
        )
        # The data center recovered requests are re-validated against:
        # request ``i`` deploys onto host ``h<i>``.
        self.topology = SimpleNamespace(
            components=frozenset(f"h{index}" for index in range(requests))
        )

        self.now = 0.0  # virtual seconds
        self.trace = DrillTrace()
        self.executor = _DrillExecutor(seed, self.trace)
        self.ops = make_workload(random.Random(seed), requests)
        self.redeploy_rng = random.Random(seed ^ 0x5EED)
        self.current_score = 0.95
        self.plan_counter = 0
        self.op_cursor = 0
        self.tick = 0
        self.next_seq = 0
        self.service: _ServiceState | None = None
        self.quiesced = False
        self.fatal_error: str | None = None

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> "DrillSim":
        while self.tick < self.max_ticks and self._work_remaining():
            self.tick += 1
            self.now += TICK_SECONDS
            try:
                if self.service is None:
                    self._boot()
                raise_if_crash(
                    fault_hit("supervisor.tick", tick=self.tick),
                    "supervisor.tick",
                )
                self._client_ops()
                for _, worker in sorted(self.service.workers.items()):
                    worker.beat()
                self._monitor()
                for _, worker in sorted(self.service.workers.items()):
                    worker.step()
                if self.tick % REDEPLOY_EVERY == 0:
                    self.service.controller.step()
            except SimulatedCrash as crash:
                self._handle_crash(crash)
        self.quiesced = not self._work_remaining()
        if self.service is None:
            # Crashed on the very last permitted tick: one final rebuild
            # so the invariant checkers see a recovered system.
            with contextlib.suppress(SimulatedCrash):
                self._boot()
        self._final_fetches()
        return self

    def clock(self) -> float:
        return self.now

    def _monitor(self) -> None:
        """What the fleet's event loop does: report exited processes,
        then let the core judge the silent ones."""
        service = self.service
        for shard, worker in sorted(service.workers.items()):
            if worker.state == "exited":
                self._apply(service.core.worker_lost(shard, "process exited"))
        self._apply(service.core.tick())

    def _boot(self) -> None:
        """A process start: rebuild from disk, spawn every worker."""
        self.service = _ServiceState(self)
        self.trace.restarts += 1
        self._apply(self.service.core.start())

    def _work_remaining(self) -> bool:
        if self.op_cursor < len(self.ops):
            return True
        for sub in self.trace.submissions:
            if sub.retry_at is not None and not sub.acked and not sub.gave_up:
                return True
        service = self.service
        if service is None:
            return True
        if service.core.tickets:
            return True
        return any(
            worker.state in ("hung", "exited")
            for worker in service.workers.values()
        )

    def _handle_crash(self, crash: SimulatedCrash) -> None:
        self.trace.crashes += 1
        service, self.service = self.service, None
        if service is not None:
            service.close_handles()
        if crash.power_loss:
            self.trace.power_losses += 1
            self.registry.apply_power_loss()
        if self.trace.crashes >= MAX_CRASHES:
            self.registry.disable()

    def _apply(self, effects: list[Effect]) -> None:
        """Carry out core effects on the simulated processes: a spawned
        worker is up (and says hello) at once, a killed one is gone at
        once, ``dispatch`` and ``cancel`` reach the worker as the pipe
        messages, a resolved ticket's response reaches every client
        waiting on its id — including clients that acked it in an
        earlier incarnation. What a worker sends comes back here through
        the core's ``on_message``, as the fleet's event loop delivers it."""
        service = self.service
        for effect in effects:
            if effect.kind == "spawn":
                shard = effect.shard
                worker = service.workers[shard] = ShardWorker(
                    shard,
                    self.executor,
                    lambda message, shard=shard: self._apply(
                        service.core.on_message(shard, message)
                    ),
                    self.clock,
                )
                worker.hello()
            elif effect.kind == "kill":
                self.trace.failovers += 1
                del service.workers[effect.shard]
            elif effect.kind == "resolve":
                for sub in self.trace.waiters.get(effect.ticket.id, []):
                    sub.responses.append(encode(effect.response))
            else:  # dispatch | cancel
                service.workers[effect.shard].receive(pipe_message(effect))

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def _client_ops(self) -> None:
        while (
            self.op_cursor < len(self.ops)
            and self.ops[self.op_cursor].tick <= self.tick
        ):
            op = self.ops[self.op_cursor]
            self.op_cursor += 1
            self._apply_op(op)
        for sub in self.trace.submissions:
            if (
                sub.retry_at is not None
                and sub.retry_at <= self.tick
                and not sub.acked
                and not sub.gave_up
            ):
                sub.retry_at = None
                self._guarded_submit(sub)

    def _apply_op(self, op: WorkOp) -> None:
        if op.action in ("submit", "resubmit"):
            sub = Submission(
                seq=self.next_seq,
                index=op.index,
                kind="assess",
                key=op.key,
                request=AssessRequest(
                    hosts=(f"h{op.index}",), k=1, idempotency_key=op.key
                ),
            )
            self.next_seq += 1
            self.trace.submissions.append(sub)
            self._guarded_submit(sub)
        elif op.action == "cancel":
            self._cancel(op.index)
        elif op.action == "degrade":
            self._redeploy_degrade()

    def _guarded_submit(self, sub: Submission) -> None:
        """Submit; on a mid-admission crash apply the client retry rules
        (keyed requests re-send, unkeyed ones must not)."""
        try:
            self._submit(sub)
        except SimulatedCrash:
            if sub.key is not None and sub.attempts < 3:
                sub.retry_at = self.tick + 5
            else:
                sub.gave_up = True
            raise

    def _submit(self, sub: Submission) -> None:
        """One client call into production admission. The submission is
        acknowledged once ``admit`` returns a ticket — by then the
        write-ahead record is durable — and answered when that ticket
        resolves (at once, for a replay or a join of a finished one)."""
        sub.attempts += 1
        raise_if_crash(
            fault_hit("supervisor.admit", seq=sub.seq), "supervisor.admit"
        )
        try:
            ticket, effects = self.service.core.admit(sub.kind, sub.request)
        except AdmissionRejected as exc:
            sub.responses.append(
                {
                    "request_id": None,
                    "status": "rejected",
                    "error": {"reason": exc.reason},
                }
            )
            return
        sub.acked = True
        sub.request_id = ticket.id
        self.trace.waiters.setdefault(ticket.id, []).append(sub)
        if ticket.future.done():
            sub.responses.append(encode(ticket.future.result()))
        self._apply(effects)

    def _cancel(self, index: int) -> None:
        target = None
        for sub in self.trace.submissions:
            if sub.index == index and sub.request_id is not None:
                target = sub
        if target is not None:
            self._apply(
                self.service.core.cancel(target.request_id, "client-cancel") or []
            )

    def _final_fetches(self) -> None:
        """The client's last retry pass: keyed submissions that never saw
        a response re-fetch their key — the stored-response replay path,
        read-only so it can start no new work."""
        service = self.service
        if service is None:
            return
        for sub in self.trace.submissions:
            if not sub.acked or sub.responses or sub.key is None:
                continue
            entry = service.core.keys.get(sub.key)
            if entry is not None and entry[0] == "completed":
                stored = service.store.get(sub.key)
                if stored is not None:
                    sub.responses.append(dict(stored, replayed=True))

    # ------------------------------------------------------------------
    # Redeployment controller script
    # ------------------------------------------------------------------

    def _redeploy_degrade(self) -> None:
        service = self.service
        drop = 0.01
        gain = self.redeploy_rng.choice([0.0005, 0.008, 0.02])
        self.current_score = round(self.current_score - drop, 6)
        self.plan_counter += 1
        stub = service.stub
        stub.score = self.current_score
        stub.candidate_plan = _plan(self.plan_counter)
        stub.candidate_score = round(self.current_score + gain, 6)
        service.controller.observe(
            DegradationEvent(kind="score-drop", detail="drill degradation")
        )
        decision = service.controller.step()
        if decision is not None and decision.action == "applied":
            self.current_score = stub.candidate_score
            stub.score = self.current_score
