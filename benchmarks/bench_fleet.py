"""Fleet failover under chaos: latency, sheds, and lost/duplicated keys.

Three phases against an in-process :class:`FleetSupervisor` with real
forked shard workers:

* **baseline** — concurrent keyed clients against an undisturbed fleet.
  Yields the healthy p50/p99 and the measured per-worker throughput.
* **capacity** — feed that measured throughput to ``plan_capacity``
  (the service assessed with its own fault-tree machinery): given the
  chaos phase's kill rate and the observed failover window, how many
  workers does the planner say we need to keep serving the target rate?
* **chaos** — run the planner's recommended fleet under the same load
  while a chaos thread ``kill -9``'s a random worker on a fixed cadence.

The chaos phase is a gate, not just a report. It fails the run unless:

* every keyed request answers exactly once — zero lost, zero duplicated
  (distinct request ids == distinct keys, journal shows one terminal
  event per request);
* goodput stays at or above the planned target rate, confirming the
  ``repro capacity`` recommendation end to end;
* p50 under chaos stays within ``P50_CHAOS_MULTIPLIER`` of the healthy
  baseline and p99 under ``P99_BUDGET_SECONDS`` (the failover window is
  allowed to show up in the tail, not in the median);
* the shed rate (admission rejections per attempt) stays under
  ``SHED_RATE_BUDGET``.

Environment knobs:

``REPRO_BENCH_FLEET_SECONDS``   load duration per phase (default ``12``)
``REPRO_BENCH_FLEET_CLIENTS``   concurrent client threads (default ``4``)
``REPRO_BENCH_FLEET_ROUNDS``    sampling rounds per request (default ``2000``)
``REPRO_BENCH_FLEET_KILL_EVERY``  seconds between kills (default ``2.0``)

Usage::

    python benchmarks/bench_fleet.py            # full run
    python benchmarks/bench_fleet.py --smoke    # short CI-sized run

Also runnable under pytest (``pytest benchmarks/bench_fleet.py``).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import random
import signal
import sys
import tempfile
import threading
import time

if __name__ == "__main__":  # standalone: make src/ importable without install
    _ROOT = pathlib.Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(_ROOT / "src"))
    sys.path.insert(0, str(_ROOT / "benchmarks"))

from repro.service.capacity import plan_capacity
from repro.service.fleet import FleetSupervisor, ServiceConfig
from repro.service.journal import RequestJournal
from repro.service.requests import AssessRequest
from repro.util.errors import AdmissionRejected

from common import ResultTable

#: Gate budgets for the chaos phase.
P50_CHAOS_MULTIPLIER = 10.0
P99_BUDGET_SECONDS = 10.0
SHED_RATE_BUDGET = 0.05

#: Capacity-planning inputs shared with the chaos phase.
TARGET_UTILISATION = 0.5  # plan for half of one healthy fleet's capacity
FAILOVER_SECONDS = 1.0  # detect + respawn + replay, observed upper bound
AVAILABILITY_SLO = 0.99


def _env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


def _config(journal_dir: str, workers: int, rounds: int) -> ServiceConfig:
    return ServiceConfig(
        scale="tiny",
        seed=1,
        rounds=rounds,
        chunks=4,
        queue_capacity=64,
        fleet_workers=workers,
        journal_dir=journal_dir,
        heartbeat_interval_seconds=0.1,
        heartbeat_misses=5,
        respawn_backoff_seconds=0.1,
        respawn_backoff_cap_seconds=0.5,
    )


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return float("nan")
    index = min(
        len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1)))
    )
    return sorted_values[index]


class LoadReport:
    """Outcome of one load phase: latencies, sheds, key accounting."""

    def __init__(self):
        self.latencies: list[float] = []
        self.request_ids: dict[str, str] = {}  # key -> request id
        self.sheds = 0
        self.failures: list[str] = []
        self.duration = 0.0
        self._lock = threading.Lock()

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def throughput(self) -> float:
        return self.completed / self.duration if self.duration else 0.0

    @property
    def shed_rate(self) -> float:
        attempts = self.completed + self.sheds
        return self.sheds / attempts if attempts else 0.0

    def percentiles(self) -> tuple[float, float]:
        ordered = sorted(self.latencies)
        return _percentile(ordered, 0.50), _percentile(ordered, 0.99)


def _run_load(
    fleet: FleetSupervisor,
    seconds: float,
    clients: int,
    label: str,
) -> LoadReport:
    """Drive ``clients`` threads of keyed assessments for ``seconds``."""
    hosts = tuple(
        c for c in fleet.topology.components if c.startswith("host")
    )[:3]
    report = LoadReport()
    stop_at = time.monotonic() + seconds

    def client_loop(client_index: int) -> None:
        sequence = 0
        while time.monotonic() < stop_at:
            key = f"{label}-c{client_index}-{sequence}"
            sequence += 1
            request = AssessRequest(hosts=hosts, k=2, idempotency_key=key)
            started = time.monotonic()
            while True:  # a shed is retried: the key must answer once
                try:
                    response = fleet.assess(request, timeout=120.0)
                except AdmissionRejected:
                    with report._lock:
                        report.sheds += 1
                    time.sleep(0.05)
                    continue
                break
            elapsed = time.monotonic() - started
            with report._lock:
                if response.status != "ok":
                    report.failures.append(
                        f"{key}: status={response.status}"
                    )
                elif key in report.request_ids:
                    report.failures.append(f"{key}: answered twice")
                else:
                    report.request_ids[key] = response.request_id
                    report.latencies.append(elapsed)

    threads = [
        threading.Thread(target=client_loop, args=(i,), daemon=True)
        for i in range(clients)
    ]
    begin = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 300.0)
        if thread.is_alive():
            report.failures.append("a client thread wedged")
    report.duration = time.monotonic() - begin
    return report


def _chaos_killer(
    fleet: FleetSupervisor, stop: threading.Event, every: float
) -> list[int]:
    """SIGKILL a random alive worker every ``every`` seconds."""
    rng = random.Random(13)
    kills: list[int] = []
    while not stop.wait(every):
        alive = fleet._on_loop(
            lambda: [
                (s.shard, fleet._workers[s.shard].process.pid)
                for s in fleet._slots
                if s.state == "alive"
            ]
        )
        if len(alive) < 2:
            continue  # keep at least one survivor to fail over onto
        shard, pid = rng.choice(alive)
        os.kill(pid, signal.SIGKILL)
        kills.append(shard)
    return kills


def _verify_journal(journal_dir: str, report: LoadReport) -> list[str]:
    """Cross-check the report against the journal's lifecycle records."""
    problems = []
    state = RequestJournal.scan(journal_dir)
    for key, request_id in report.request_ids.items():
        events = [e["event"] for e in state.events.get(request_id, [])]
        if events.count("completed") != 1:
            problems.append(
                f"{key} ({request_id}): journal shows "
                f"{events.count('completed')} completions"
            )
    return problems


def run_bench(smoke: bool = False) -> int:
    seconds = _env_float("REPRO_BENCH_FLEET_SECONDS", 12.0)
    clients = int(_env_float("REPRO_BENCH_FLEET_CLIENTS", 4))
    rounds = int(_env_float("REPRO_BENCH_FLEET_ROUNDS", 2000))
    kill_every = _env_float("REPRO_BENCH_FLEET_KILL_EVERY", 2.0)
    if smoke:
        seconds = min(seconds, 6.0)

    table = ResultTable(
        "fleet_chaos",
        f"{'phase':<10} {'workers':>7} {'reqs':>6} {'rps':>8} "
        f"{'p50 (ms)':>9} {'p99 (ms)':>9} {'sheds':>6} {'kills':>6}",
    )
    failures: list[str] = []

    with tempfile.TemporaryDirectory(prefix="repro-bench-fleet-") as workdir:
        # Phase 1: healthy baseline on a 2-worker fleet.
        baseline_dir = os.path.join(workdir, "baseline")
        with FleetSupervisor(_config(baseline_dir, 2, rounds)) as fleet:
            baseline = _run_load(fleet, seconds, clients, "base")
        base_p50, base_p99 = baseline.percentiles()
        table.row(
            f"{'baseline':<10} {2:>7} {baseline.completed:>6} "
            f"{baseline.throughput:>8.1f} {base_p50 * 1e3:>9.1f} "
            f"{base_p99 * 1e3:>9.1f} {baseline.sheds:>6} {0:>6}"
        )
        failures.extend(baseline.failures)
        if baseline.completed == 0:
            failures.append("baseline completed no requests")
            print("\n".join(f"FAIL: {f}" for f in failures))
            return 1

        # Phase 2: size the chaos fleet with our own capacity planner.
        per_worker_rps = baseline.throughput / 2
        target_rps = TARGET_UTILISATION * baseline.throughput
        crash_rate_per_hour = 3600.0 / kill_every / 2  # per worker
        plan = plan_capacity(
            target_rps=target_rps,
            per_worker_rps=per_worker_rps,
            slo=AVAILABILITY_SLO,
            crash_rate_per_hour=crash_rate_per_hour,
            failover_seconds=FAILOVER_SECONDS,
            max_workers=8,
        )
        if plan.recommended_workers is None:
            failures.append(
                f"capacity planner found no fleet <= 8 workers for "
                f"target {target_rps:.1f} rps at SLO {AVAILABILITY_SLO}"
            )
            print("\n".join(f"FAIL: {f}" for f in failures))
            return 1
        workers = max(2, plan.recommended_workers)
        print(
            f"capacity: target {target_rps:.1f} rps @ "
            f"{per_worker_rps:.1f} rps/worker, crash rate "
            f"{crash_rate_per_hour:.0f}/h -> recommend --workers {workers}"
        )

        # Phase 3: the recommended fleet under kill -9 chaos.
        chaos_dir = os.path.join(workdir, "chaos")
        stop = threading.Event()
        kills: list[int] = []
        with FleetSupervisor(_config(chaos_dir, workers, rounds)) as fleet:
            killer = threading.Thread(
                target=lambda: kills.extend(
                    _chaos_killer(fleet, stop, kill_every)
                ),
                daemon=True,
            )
            killer.start()
            chaos = _run_load(fleet, seconds, clients, "chaos")
            stop.set()
            killer.join(timeout=30.0)
            failures.extend(_verify_journal(chaos_dir, chaos))
        chaos_p50, chaos_p99 = chaos.percentiles()
        table.row(
            f"{'chaos':<10} {workers:>7} {chaos.completed:>6} "
            f"{chaos.throughput:>8.1f} {chaos_p50 * 1e3:>9.1f} "
            f"{chaos_p99 * 1e3:>9.1f} {chaos.sheds:>6} {len(kills):>6}"
        )
        failures.extend(chaos.failures)

        # The gates.
        distinct = len(set(chaos.request_ids.values()))
        if distinct != len(chaos.request_ids):
            failures.append(
                f"duplicated executions: {len(chaos.request_ids)} keys "
                f"-> {distinct} request ids"
            )
        if not kills:
            failures.append("chaos phase never killed a worker")
        if chaos.throughput < target_rps:
            failures.append(
                f"goodput {chaos.throughput:.1f} rps under chaos missed "
                f"the planned target {target_rps:.1f} rps"
            )
        if chaos_p50 > base_p50 * P50_CHAOS_MULTIPLIER:
            failures.append(
                f"chaos p50 {chaos_p50 * 1e3:.1f}ms exceeds "
                f"{P50_CHAOS_MULTIPLIER}x baseline {base_p50 * 1e3:.1f}ms"
            )
        if chaos_p99 > P99_BUDGET_SECONDS:
            failures.append(
                f"chaos p99 {chaos_p99:.2f}s exceeds the "
                f"{P99_BUDGET_SECONDS}s budget"
            )
        if chaos.shed_rate > SHED_RATE_BUDGET:
            failures.append(
                f"shed rate {chaos.shed_rate:.3f} exceeds the "
                f"{SHED_RATE_BUDGET} budget"
            )

    table.save()
    if failures:
        print("\n".join(f"FAIL: {f}" for f in failures))
        return 1
    print(
        f"fleet chaos OK: {len(kills)} kill(s), "
        f"{len(chaos.request_ids)} keyed requests, zero lost, "
        f"zero duplicated, goodput {chaos.throughput:.1f} >= "
        f"{target_rps:.1f} rps"
    )
    return 0


def test_fleet_chaos_smoke():
    """Pytest entry point mirroring the standalone smoke gate."""
    assert run_bench(smoke=True) == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short CI-sized run with the same gates",
    )
    args = parser.parse_args(argv)
    return run_bench(smoke=args.smoke)


if __name__ == "__main__":
    sys.exit(main())
