"""The four workloads: seeded inputs, the timed op, output checks, layer metrics.

Imported by ``worker.py`` (one fresh process per round) after it has put
``src/`` on ``sys.path``; importing this module is what ``setup.import_ms``
times. Every call below goes into a public function of ``repro``; nothing
inside ``src/`` is patched or wrapped.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlparse

from repro import serialization
from repro.app.structure import ApplicationStructure
from repro.core.anneal import MoveBudgetTemperatureSchedule
from repro.core.api import AssessmentConfig, build_assessor
from repro.core.plan import DeploymentPlan, ZoneConstraints
from repro.core.search import DeploymentSearch, SearchSpec
from repro.faults.inventory import build_paper_inventory, build_zone_inventory
from repro.service.client import HttpServiceClient
from repro.service.executor import chunked_assess
from repro.service.journal import RequestJournal
from repro.service.store import ResultStore
from repro.topology.presets import paper_topology
from repro.topology.zones import MultiZoneTopology
from repro.util.cancel import CancellationToken
from repro.util.errors import ReproError
from repro.util.metrics import MetricsRegistry

from calibration import burst
from spans import SpanRecorder, self_times
from stats import estimates_agree, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

#: What `repro serve` derives from its default ``--seed 1``; the in-process
#: workloads build their data centers from the same pair. The workload seed
#: never reaches the substrate, only the generated inputs.
TOPOLOGY_SEED = 1
INVENTORY_SEED = 2

#: Every 20th op's score is re-assessed with an independent seed.
RECHECK_EVERY = 20
RECHECK_TOLERANCE = 4.0
REFERENCE_TOLERANCE = 3.0

#: Layer metric -> the stage timer the assessors already keep.
STAGES = {
    "core.closure_ms": "closure",
    "sampling.sample_ms": "sample",
    "faults.faulttree_ms": "faulttree",
    "routing.route_and_check_ms": "route_and_check",
    "core.estimate_ms": "estimate",
}

#: What a failed op raises, whichever layer it failed in.
OP_ERRORS = (ReproError, OSError, http.client.HTTPException)


@dataclass
class Op:
    index: int
    cls: str
    payload: tuple


@dataclass
class Record:
    """One measured op: its latency, verdict and what the checks need."""

    op: Op
    seconds: float
    traced: bool
    error: str | None = None
    detail: dict = field(default_factory=dict)


@dataclass
class Block:
    traced: bool
    wall_s: float
    cpu_s: float
    records: list[Record]
    #: Reference-kernel timings taken right before and right after the block.
    kernel_ms: list[float] = field(default_factory=list)


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------


def op_rng(workload: str, seed: int, round_index: int) -> random.Random:
    """The one source of a round's inputs; a str seed hashes reproducibly."""
    return random.Random(f"{workload}:{seed}:{round_index}")


def plan_ops(rng: random.Random, hosts: list[str], size: int, count: int) -> list[Op]:
    """``count`` distinct random ``size``-host plans."""
    seen: set[tuple[str, ...]] = set()
    ops: list[Op] = []
    while len(ops) < count:
        chosen = tuple(rng.sample(hosts, size))
        if chosen not in seen:
            seen.add(chosen)
            ops.append(Op(len(ops), "assess", chosen))
    return ops


def seed_ops(rng: random.Random, count: int) -> list[Op]:
    """``count`` distinct search seeds."""
    seeds = rng.sample(range(2**31), count)
    return [Op(index, "search", (seed,)) for index, seed in enumerate(seeds)]


def mixed_ops(
    rng: random.Random, hosts: list[str], size: int, phases: list[int], prefix: str
) -> list[list[Op]]:
    """The service traffic, one op list per phase (warm-up, then blocks).

    Each phase holds exactly 60 % fresh keys, 25 % replays and 15 % unkeyed
    requests in seeded order, so two seeds differ in order and plans and not
    in mix. A replay names a key completed in an *earlier* phase: phases end
    at a barrier, so the key is in the result store and not still in flight.
    The first phase has nothing to replay and sends fresh keys instead. Keys
    are numbered in order of use, so every seed uses the same keys.
    """
    completed: list[tuple] = []
    result: list[list[Op]] = []
    index = 0
    for phase_size in phases:
        replays = round(0.25 * phase_size) if completed else 0
        unkeyed = round(0.15 * phase_size)
        classes = ["replay"] * replays + ["unkeyed"] * unkeyed
        classes += ["fresh"] * (phase_size - len(classes))
        rng.shuffle(classes)
        ops: list[Op] = []
        fresh: list[tuple] = []
        for cls in classes:
            if cls == "replay":
                payload = rng.choice(completed)
            else:
                key = f"{prefix}-{len(completed) + len(fresh)}" if cls == "fresh" else None
                payload = (tuple(rng.sample(hosts, size)), key)
                if key is not None:
                    fresh.append(payload)
            ops.append(Op(index, cls, payload))
            index += 1
        completed.extend(fresh)
        result.append(ops)
    return result


@contextmanager
def timed(layers: dict, name: str):
    """Add the enclosed wall time, in ms, to ``layers[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        layers[name] = layers.get(name, 0.0) + 1e3 * (time.perf_counter() - start)


# ----------------------------------------------------------------------
# Shared run loop and checks
# ----------------------------------------------------------------------


class Workload:
    """Shared run loop and checks; subclasses supply inputs, the op and layers."""

    name = ""
    #: Whether the system under test is the worker process itself, which is
    #: then pinned to one CPU; a server's processes go where the OS puts them.
    pinned = True
    warmup = 1
    #: Key into ``reference.json``; also the Table-2 scale where there is one.
    substrate = "medium"
    k = 8
    n = 10
    rounds = 10_000

    def __init__(self, seed: int, round_index: int, cpus: tuple = (0,)):
        self.seed = seed
        self.round_index = round_index
        #: The CPUs the system under test runs on, where the reference kernel
        #: is timed: the one this process is pinned to, for a workload that
        #: runs in it.
        self.cpus = list(cpus)
        self.rng = op_rng(self.name, seed, round_index)
        self.setup_layers: dict[str, float] = {}
        #: ``{"seconds", "kernel_ms"}``: the start of the system under test.
        self.setup_sample: dict = {}
        self.recorder = SpanRecorder()
        self.registry = MetricsRegistry()
        self.failures: list[str] = []

    # -- lifecycle ------------------------------------------------------

    def build_topology(self):
        return paper_topology(self.substrate, seed=TOPOLOGY_SEED)

    def build_inventory(self):
        return build_paper_inventory(self.topology, seed=INVENTORY_SEED)

    def build_substrate(self) -> None:
        with timed(self.setup_layers, "topology.build_ms"):
            self.topology = self.build_topology()
        with timed(self.setup_layers, "faults.inventory_build_ms"):
            self.inventory = self.build_inventory()
        self.structure = ApplicationStructure.k_of_n(self.k, self.n)

    def setup(self) -> None:
        """Build the substrate and whatever answers ops."""
        self.build_substrate()

    def started(self, spawned_at: float) -> None:
        """Called right after the first warm-up op: spawn to ready of this
        process is the set-up, and the kernel is timed right after it. (Timed
        by the parent right before the spawn as well, it ran up to 1.5x slower
        there than here a second later, in about a third of the rounds.)"""
        seconds = time.time() - spawned_at
        self.setup_sample = {"seconds": seconds, "kernel_ms": burst(self.cpus)}

    def generate_ops(self, count: int) -> list[Op]:
        """``count`` ops drawn from ``self.rng``."""
        raise NotImplementedError

    def make_ops(self, block_sizes: list[int]) -> tuple[list[Op], list[list[Op]]]:
        """(warm-up ops, measured ops per block)."""
        ops = self.generate_ops(self.warmup + sum(block_sizes))
        blocks, cursor = [], self.warmup
        for size in block_sizes:
            blocks.append(ops[cursor : cursor + size])
            cursor += size
        return ops[: self.warmup], blocks

    def run_op(self, op: Op, traced: bool) -> dict:
        """Execute one op and return what the checks need; raise one of
        ``OP_ERRORS`` when the op fails."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- measurement ----------------------------------------------------

    def cpu_seconds(self) -> float:
        return time.process_time()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def measure(self, op: Op, traced: bool, **context) -> Record:
        start = time.perf_counter()
        try:
            detail, error = self.run_op(op, traced, **context), None
        except OP_ERRORS as exc:
            detail, error = {}, f"{type(exc).__name__}: {exc}"
        return Record(op, time.perf_counter() - start, traced, error, detail)

    def run_block(self, ops: list[Op], traced: bool) -> Block:
        cpu = self.cpu_seconds()
        start = time.perf_counter()
        records = [self.measure(op, traced) for op in ops]
        wall = time.perf_counter() - start
        return Block(traced, wall, self.cpu_seconds() - cpu, records)

    # -- checks ---------------------------------------------------------

    def check(self, records: list[Record]) -> None:
        """Run after the timed window; mark failed records, fill ``failures``."""
        raise NotImplementedError

    @staticmethod
    def fail(record: Record, message: str) -> None:
        """A check failed the op; an op fails once, for its first reason."""
        record.error = record.error or message

    def plan(self, hosts) -> DeploymentPlan:
        return DeploymentPlan.single_component(
            list(hosts), self.structure.components[0].name
        )

    def independent_assessor(self, mode: str = "sequential"):
        return build_assessor(
            self.topology,
            self.inventory,
            AssessmentConfig(rounds=self.rounds, rng=self.seed + 7919, mode=mode),
        )

    def recheck(self, records: list[Record]) -> None:
        """Every 20th op's score against an independently seeded assessment."""
        assessor = self.independent_assessor()
        for record in records[::RECHECK_EVERY]:
            if record.error is not None:
                continue
            estimate = record.detail["estimate"]
            again = serialization.estimate_to_dict(
                assessor.assess(self.plan(record.detail["hosts"]), self.structure).estimate
            )
            if not estimates_agree(estimate, again, RECHECK_TOLERANCE):
                self.fail(
                    record,
                    f"op {record.op.index}: score {estimate['score']:.5f} vs "
                    f"independent {again['score']:.5f}",
                )

    def check_reference(self, assess) -> None:
        """``assess(hosts) -> estimate`` against the committed 100 000-round
        scores: a sampler may change, the answer may not."""
        with open(HERE / "reference.json", encoding="utf-8") as handle:
            plans = json.load(handle)["substrates"][self.substrate]["plans"]
        for entry in plans:
            estimate = assess(tuple(entry["hosts"]))
            if not estimates_agree(estimate, entry, REFERENCE_TOLERANCE):
                self.failures.append(
                    f"reference mismatch on {entry['hosts']}: got "
                    f"{estimate['score']:.5f}, committed {entry['score']:.5f}"
                )

    def check_reference_with(self, assessor) -> None:
        self.check_reference(
            lambda hosts: serialization.estimate_to_dict(
                assessor.assess(self.plan(hosts), self.structure).estimate
            )
        )

    # -- layers ---------------------------------------------------------

    def layers(self, records: list[Record]) -> dict[str, float]:
        """Per-layer metrics from the traced records."""
        raise NotImplementedError

    #: Layer metrics that together should account for one traced op.
    accounted = tuple(STAGES)

    def traced_op_ms(self, records: list[Record]) -> float:
        """What ``accounted`` is held against: the mean traced op latency."""
        return 1e3 * statistics.mean(record.seconds for record in records)

    def stage_layers(self, ops: int) -> dict[str, float]:
        """The assessors' own stage timers, read as-is, per traced op."""
        layers = {
            name: 1e3 * self.registry.timer_seconds(stage) / ops
            for name, stage in STAGES.items()
        }
        layers["sampling.components_per_op"] = (
            self.registry.counter("sample/components") / ops
        )
        return layers


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------


class AssessFattree(Workload):
    name = "assess_fattree"
    warmup = 20

    def setup(self) -> None:
        self.build_substrate()
        config = AssessmentConfig(rounds=self.rounds, rng=self.seed)
        self.assessor = build_assessor(self.topology, self.inventory, config)
        self.traced_assessor = build_assessor(
            self.topology, self.inventory, config.with_updates(metrics=self.registry)
        )

    def generate_ops(self, count: int) -> list[Op]:
        return plan_ops(self.rng, self.topology.hosts, self.n, count)

    def run_op(self, op: Op, traced: bool) -> dict:
        plan = self.plan(op.payload)
        if traced:
            with self.recorder.span("op", op.index):
                with self.recorder.span("core.assess", op.index):
                    result = self.traced_assessor.assess(plan, self.structure)
        else:
            result = self.assessor.assess(plan, self.structure)
        return {
            "hosts": op.payload,
            "estimate": serialization.estimate_to_dict(result.estimate),
        }

    def check(self, records: list[Record]) -> None:
        self.recheck(records)
        self.check_reference_with(self.assessor)

    def layers(self, records: list[Record]) -> dict[str, float]:
        return self.stage_layers(len(records))


class SearchFattree(Workload):
    name = "search_fattree"
    warmup = 1
    moves = 25
    forbid_shared_rack = True
    accounted = tuple(STAGES) + ("search.loop_self_ms", "search.construct_ms")
    zone_constraints: ZoneConstraints | None = None

    def generate_ops(self, count: int) -> list[Op]:
        return seed_ops(self.rng, count)

    def search(self, seed: int, metrics: MetricsRegistry | None) -> DeploymentSearch:
        """What ``service.executor.execute_search`` builds for one request,
        under a move budget so both commits walk the same number of moves."""
        return DeploymentSearch.from_config(
            self.topology,
            self.inventory,
            AssessmentConfig(
                mode="incremental", rounds=self.rounds, rng=seed, metrics=metrics
            ),
            rng=(seed + 1) % 2**63,
            temperature_schedule=MoveBudgetTemperatureSchedule(self.moves),
        )

    def spec(self) -> SearchSpec:
        return SearchSpec(
            self.structure,
            max_seconds=3600.0,
            max_iterations=self.moves,
            forbid_shared_rack=self.forbid_shared_rack,
            zone_constraints=self.zone_constraints,
        )

    def run_op(self, op: Op, traced: bool) -> dict:
        (seed,) = op.payload
        if traced:
            with self.recorder.span("op", op.index):
                with self.recorder.span("search.construct", op.index):
                    search = self.search(seed, self.registry)
                with self.recorder.span("search.search", op.index):
                    result = search.search(self.spec())
        else:
            result = self.search(seed, None).search(self.spec())
        return dict(
            hosts=tuple(result.best_plan.hosts()),
            estimate=serialization.estimate_to_dict(result.best_assessment.estimate),
            iterations=result.iterations,
            plans_assessed=result.plans_assessed,
            skipped_symmetric=result.plans_skipped_symmetric,
            proposed=result.candidates_proposed,
            satisfied=self.zone_constraints is None
            or self.zone_constraints.satisfied_by(result.best_plan, self.topology),
        )

    def check(self, records: list[Record]) -> None:
        for record in records:
            detail = record.detail
            if record.error is not None:
                continue
            if detail["iterations"] != self.moves:
                self.fail(record, f"op {record.op.index}: {detail['iterations']} moves")
            elif len(set(detail["hosts"])) != self.n:
                self.fail(record, f"op {record.op.index}: hosts not distinct")
            elif not detail["satisfied"]:
                self.fail(record, f"op {record.op.index}: zone constraints violated")
        self.recheck(records)
        # The committed plans through the layer the search scores candidates with.
        self.check_reference_with(self.independent_assessor(mode="incremental"))

    def layers(self, records: list[Record]) -> dict[str, float]:
        ops = len(records)
        layers = self.stage_layers(ops)
        seconds: dict[str, float] = {}
        for span in self.recorder.spans:
            seconds[span.name] = seconds.get(span.name, 0.0) + span.end - span.start
        registry = self.registry
        route_hits = registry.counter("route/host/hit") + registry.counter("route/pair/hit")
        route_misses = registry.counter("route/host/miss") + registry.counter(
            "route/pair/miss"
        )

        def total(key: str) -> float:
            return sum(record.detail[key] for record in records)

        layers.update(
            {
                "search.moves_per_s": total("iterations") / seconds["search.search"],
                "search.loop_self_ms": 1e3 * seconds["search.search"] / ops
                - sum(layers[name] for name in STAGES),
                "search.construct_ms": 1e3 * seconds["search.construct"] / ops,
                "search.plans_assessed_per_op": total("plans_assessed") / ops,
                "search.symmetric_skip_share": total("skipped_symmetric")
                / total("proposed"),
                "incremental.plan_cache_hit_rate": registry.hit_rate("plan_cache"),
                "incremental.closure_hit_rate": registry.hit_rate("closure/host"),
                "incremental.sample_hit_rate": registry.hit_rate("sample/component"),
                "incremental.faulttree_hit_rate": registry.hit_rate("faulttree/subject"),
                "incremental.route_hit_rate": (
                    route_hits / (route_hits + route_misses)
                    if route_hits + route_misses
                    else 0.0
                ),
            }
        )
        return layers


class SearchZones(SearchFattree):
    name = "search_zones"
    substrate = "zones"
    k = 4
    n = 5
    rounds = 500
    moves = 10
    forbid_shared_rack = False
    zone_constraints = ZoneConstraints.from_mapping(
        primary_zone="zone0", min_outside_primary=2
    )

    def build_topology(self):
        return MultiZoneTopology(zones=2, k=4, seed=TOPOLOGY_SEED)

    def build_inventory(self):
        return build_zone_inventory(self.topology, seed=INVENTORY_SEED)


# ----------------------------------------------------------------------
# The service workload
# ----------------------------------------------------------------------


def process_cpu_seconds(pids: list[int]) -> float:
    """user+sys of the given processes, from ``/proc/<pid>/stat``."""
    ticks = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def process_peak_rss_mb(pids: list[int]) -> float:
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


class ServeMixed(Workload):
    name = "serve_mixed"
    pinned = False
    clients = 2
    warmup = 40
    substrate = "small"
    k = 4
    n = 5
    chunks = 8  # ServiceConfig's default, which the server runs with
    accounted = ("executor.run_ms", "fleet.queue_wait_ms", "service.overhead_ms")

    def traced_op_ms(self, records: list[Record]) -> float:
        """Mean latency of the executed ops, which the three accounted layers
        (means too, so that they add up) split exactly."""
        return 1e3 * statistics.mean(
            record.seconds for record in records if record.op.cls != "replay"
        )

    def setup(self) -> None:
        """Start the server on a fresh journal directory: spawn to ``/readyz``
        200 is the set-up, the kernel timed right before it; right after, the
        shard workers are still busy for a tenth of a second and the kernel
        would time them, not the host."""
        OUT_DIR.mkdir(exist_ok=True)
        self.state_dir = tempfile.mkdtemp(prefix="serve-", dir=OUT_DIR)
        self.journal_dir = os.path.join(self.state_dir, "journal")
        self.log = open(os.path.join(self.state_dir, "server.log"), "wb")
        pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        kernel_ms = burst(self.cpus)
        started = time.perf_counter()
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--scale", "small", "--workers", "2",
                "--journal-dir", self.journal_dir, "--port", "0",
            ],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath))),
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
        )  # fmt: skip
        line = self.server.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = line.split()[-1]
        probe = self.client()
        while True:
            try:
                if probe.readyz().get("ready"):
                    break
            except ReproError:
                pass
            if time.perf_counter() - started > 60.0:
                raise RuntimeError("server never became ready")
            time.sleep(0.005)
        seconds = time.perf_counter() - started
        self.setup_sample = {"seconds": seconds, "kernel_ms": kernel_ms}
        self.setup_layers["fleet.ready_ms"] = 1e3 * seconds
        shards = probe.healthz()["fleet"]["shards"]
        self.pids = [self.server.pid] + [shard["pid"] for shard in shards]
        self.results_by_key: dict[str, dict] = {}
        self.executed_requests = 0
        self.lock = threading.Lock()
        # The server's data center, rebuilt here for host ids and the checks.
        self.build_substrate()

    def started(self, spawned_at: float) -> None:
        """Nothing: the set-up is the server's, sampled in ``setup``; this
        process's own start belongs to the load generator."""

    def client(self) -> HttpServiceClient:
        # One attempt: a retry would hide a failed op inside a slow one.
        return HttpServiceClient(self.url, max_attempts=1)

    def make_ops(self, block_sizes):
        phases = mixed_ops(
            self.rng,
            self.topology.hosts,
            self.n,
            [self.warmup] + block_sizes,
            # The same keys whatever the seed: which shard owns a key decides
            # how evenly the two workers are loaded, and that is not an input
            # the seed should vary.
            f"round{self.round_index}",
        )
        return phases[0], phases[1:]

    def cpu_seconds(self) -> float:
        return process_cpu_seconds(self.pids)

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.pids)

    def post(self, client: HttpServiceClient, hosts, key: str | None) -> dict:
        """One ``POST /assess``; anything but ``status: ok`` is a failed op."""
        response = client.assess(hosts, self.k, idempotency_key=key)
        if response.get("status") != "ok":
            raise ReproError(f"status {response.get('status')!r}: {response.get('error')}")
        if not response.get("replayed"):
            with self.lock:
                self.executed_requests += 1
        return response

    def run_op(self, op: Op, traced: bool, client: HttpServiceClient | None = None) -> dict:
        hosts, key = op.payload
        start = time.perf_counter()
        response = self.post(client or self.client(), hosts, key)
        end = time.perf_counter()
        replayed = bool(response.get("replayed"))
        if op.cls == "fresh":
            with self.lock:
                self.results_by_key[key] = response["result"]
        if traced:
            # The response says how long it queued and ran; as children of the
            # client call they leave the service's own overhead as self time.
            queue = 0.0 if replayed else response["queue_seconds"]
            run = 0.0 if replayed else response["elapsed_seconds"]
            parent = self.recorder.add("service.request", start, end, None, op.index)
            self.recorder.add("fleet.queue", start, start + queue, parent, op.index)
            self.recorder.add(
                "executor.run", start + queue, start + queue + run, parent, op.index
            )
        return {
            "hosts": hosts,
            "estimate": response["result"]["estimate"],
            "key": key,
            "replayed": replayed,
            # Replays are compared with the original after the window.
            "result": response["result"] if op.cls == "replay" else None,
        }

    def run_block(self, ops: list[Op], traced: bool) -> Block:
        """Two closed-loop clients share the block's ops; the block ends when
        both are idle, which is the barrier replays rely on."""
        pending = iter(ops)
        records: list[Record] = []

        def client_loop() -> None:
            client = self.client()
            while True:
                with self.lock:
                    op = next(pending, None)
                if op is None:
                    return
                record = self.measure(op, traced, client=client)
                with self.lock:
                    records.append(record)

        threads = [threading.Thread(target=client_loop) for _ in range(self.clients)]
        cpu = self.cpu_seconds()
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        if len(records) != len(ops):
            raise RuntimeError(f"a client died: {len(records)} of {len(ops)} ops recorded")
        return Block(traced, wall, self.cpu_seconds() - cpu, records)

    def check(self, records: list[Record]) -> None:
        for record in records:
            if record.error is not None or record.op.cls != "replay":
                continue
            detail = record.detail
            if not detail["replayed"]:
                self.fail(record, f"op {record.op.index}: replay without replayed: true")
            elif detail["result"] != self.results_by_key.get(detail["key"]):
                self.fail(record, f"op {record.op.index}: replayed result differs")
        self.recheck([r for r in records if r.op.cls != "replay"])
        client = self.client()
        self.check_reference(
            lambda hosts: self.post(client, hosts, None)["result"]["estimate"]
        )

    # -- layers ---------------------------------------------------------

    def layers(self, records: list[Record]) -> dict[str, float]:
        executed = {r.op.index for r in records if r.op.cls != "replay"}
        spans = self.recorder.spans
        selfs = self_times(spans)

        def p50_ms(values) -> float:
            return 1e3 * statistics.median(values)

        def of(name: str):
            return [s for s in spans if s.name == name and s.op in executed]

        def mean_ms(values) -> float:
            return 1e3 * statistics.mean(values)

        layers = {
            "executor.run_ms": mean_ms(s.end - s.start for s in of("executor.run")),
            "fleet.queue_wait_ms": mean_ms(s.end - s.start for s in of("fleet.queue")),
            "service.overhead_ms": mean_ms(selfs[s.id] for s in of("service.request")),
            "service.latency_p99_ms": 1e3 * percentile([r.seconds for r in records], 99.0),
        }
        for cls in ("fresh", "replay", "unkeyed"):
            layers[f"service.{cls}_ms"] = p50_ms(
                r.seconds for r in records if r.op.cls == cls
            )
        layers.update(self.journal_layers())
        layers.update(self.direct_layers(records[0].detail["hosts"]))
        layers["service.unattributed_ms"] = layers["service.overhead_ms"] - (
            layers["journal.appends_per_op"] * layers["journal.append_ms"]
            + layers["store.put_ms"]
            + layers["serialization.encode_ms"]
            + layers["server.roundtrip_ms"]
        )
        return layers

    def journal_layers(self) -> dict[str, float]:
        """Appends per executed request, exactly, from the live journal; and
        the cost of one append, timed on a journal of our own."""
        state = RequestJournal.scan(self.journal_dir)
        samples = []
        with RequestJournal(os.path.join(self.state_dir, "journal-probe")) as journal:
            request = {"hosts": list(self.topology.hosts[: self.n]), "k": self.k}
            for index in range(40):
                request_id = f"req-{index}"
                start = time.perf_counter()
                journal.accepted(request_id, "assess", request, f"key-{index}", "fp")
                journal.started(request_id)
                journal.completed(request_id, "ok")
                samples.append((time.perf_counter() - start) / 3.0)
        return {
            "journal.appends_per_op": state.records / self.executed_requests,
            "journal.append_ms": 1e3 * statistics.median(samples),
        }

    def direct_layers(self, hosts) -> dict[str, float]:
        """Layers timed by calling them directly with real documents."""
        client = self.client()
        response = self.post(client, hosts, "layer-probe")
        store = ResultStore(os.path.join(self.state_dir, "store-probe"))
        assessor = build_assessor(
            self.topology,
            self.inventory,
            AssessmentConfig(rounds=self.rounds, rng=self.seed, metrics=self.registry),
        )
        seconds: dict[str, list[float]] = {}

        @contextmanager
        def sample(name: str):
            start = time.perf_counter()
            yield
            seconds.setdefault(name, []).append(time.perf_counter() - start)

        repeats = 30
        for index in range(repeats):
            with sample("store.put_ms"):
                store.put(f"key-{index}", response)
            with sample("store.get_ms"):
                store.get(f"key-{index}")
            # The executor's own path, its stage timers read as-is.
            result = chunked_assess(
                assessor, self.plan(hosts), self.structure, self.rounds, self.chunks,
                CancellationToken(),
            )
            with sample("serialization.encode_ms"):
                document = dict(response, result=serialization.assessment_to_dict(result))
                body = json.dumps(document).encode("utf-8")
            with sample("server.roundtrip_ms"):
                client.readyz()
        address = urlparse(self.url)
        connection = http.client.HTTPConnection(address.hostname, address.port, timeout=60)
        try:
            for _ in range(8):
                with sample("server.keepalive_roundtrip_ms"):
                    connection.request("GET", "/readyz")
                    connection.getresponse().read()
        finally:
            connection.close()
        layers = self.stage_layers(repeats)
        layers.update({name: 1e3 * statistics.median(vals) for name, vals in seconds.items()})
        layers["serialization.response_bytes"] = float(len(body))
        return layers

    def close(self) -> None:
        """SIGTERM drains the server and its shard workers; ``run.py`` kills
        whatever is left of this process group."""
        server = getattr(self, "server", None)
        if server is None:
            return
        try:
            server.terminate()
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        finally:
            server.stdout.close()
            self.log.close()
            shutil.rmtree(self.state_dir, ignore_errors=True)


WORKLOADS = {
    cls.name: cls for cls in (ServeMixed, AssessFattree, SearchFattree, SearchZones)
}
