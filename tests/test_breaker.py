"""Circuit breaker: state machine with a fake clock, plus service-level
trip/recovery with a chaos-rigged parallel backend."""

from __future__ import annotations

import pytest

from repro.service.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.util.errors import CircuitOpen
from repro.util.metrics import MetricsRegistry
from repro.core.api import AssessmentConfig


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def breaker(clock):
    return CircuitBreaker(
        failure_threshold=3, recovery_seconds=10.0, half_open_probes=1,
        clock=clock,
    )


class TestStateMachine:
    def test_starts_closed_and_passes_calls(self, breaker):
        assert breaker.state == CLOSED
        breaker.before_call()  # must not raise

    def test_failures_below_threshold_stay_closed(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.before_call()

    def test_success_resets_the_consecutive_count(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_threshold_trips_open_and_refuses(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == OPEN
        with pytest.raises(CircuitOpen) as excinfo:
            breaker.before_call()
        assert excinfo.value.retry_after_seconds == pytest.approx(10.0)
        clock.advance(4.0)
        with pytest.raises(CircuitOpen) as excinfo:
            breaker.before_call()
        assert excinfo.value.retry_after_seconds == pytest.approx(6.0)

    def test_recovery_window_moves_to_half_open(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == HALF_OPEN

    def test_half_open_admits_one_probe_then_refuses(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        breaker.before_call()  # the probe slot
        with pytest.raises(CircuitOpen):
            breaker.before_call()  # slots taken

    def test_probe_success_closes(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        breaker.before_call()
        breaker.record_success()
        assert breaker.state == CLOSED
        breaker.before_call()  # traffic flows again

    def test_probe_failure_reopens_for_a_fresh_window(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        breaker.before_call()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(9.9)
        with pytest.raises(CircuitOpen):
            breaker.before_call()
        clock.advance(0.1)
        assert breaker.state == HALF_OPEN

    def test_multi_probe_breaker_needs_all_probes_to_close(self, clock):
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_seconds=1.0, half_open_probes=2,
            clock=clock,
        )
        breaker.record_failure()
        clock.advance(1.0)
        breaker.before_call()
        breaker.record_success()
        assert breaker.state == HALF_OPEN  # one of two probes back
        breaker.before_call()
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_snapshot_is_json_ready(self, breaker):
        snap = breaker.snapshot()
        assert snap["state"] == CLOSED
        assert snap["failure_threshold"] == 3
        for _ in range(3):
            breaker.record_failure()
        assert breaker.snapshot()["state"] == OPEN

    def test_metrics_count_trips_and_closes(self, clock):
        registry = MetricsRegistry()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_seconds=1.0, clock=clock,
            metrics=registry,
        )
        breaker.record_failure()
        clock.advance(1.0)
        breaker.before_call()
        breaker.record_success()
        assert registry.counter("breaker/parallel/tripped") == 1
        assert registry.counter("breaker/parallel/closed") == 1

    def test_constructor_validation(self, clock):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0, clock=clock)
        with pytest.raises(ValueError):
            CircuitBreaker(recovery_seconds=0.0, clock=clock)
        with pytest.raises(ValueError):
            CircuitBreaker(half_open_probes=0, clock=clock)


class TestServiceLevelBreaker:
    """The breaker as wired into the scheduler: a chaos-rigged pool trips
    it, requests keep succeeding on the sequential fallback, and a healed
    pool closes it again via the half-open probe."""

    def test_trip_fallback_and_recovery(self, fattree4, inventory):
        from repro.core.api import AssessmentConfig
        from repro.core.assessment import ReliabilityAssessor
        from repro.runtime.chaos import ChaosPolicy
        from repro.runtime.mapreduce import RetryPolicy, WorkerPool
        from repro.service.requests import AssessRequest
        from repro.service.scheduler import AssessmentService, ServiceConfig

        config = ServiceConfig(
            scale="tiny",
            rounds=2_000,
            queue_capacity=8,
            scheduler_workers=1,
            parallel_workers=2,
            breaker_failure_threshold=2,
            breaker_recovery_seconds=0.2,
        )
        service = AssessmentService(
            config, topology=fattree4, dependency_model=inventory
        )
        service.start()
        try:
            hosts = tuple(fattree4.hosts[:3])
            request = AssessRequest(hosts=hosts, k=2, rounds=2_000)

            # Rig the pool so every portion crashes in every attempt.
            assert service._pool is not None
            assessor = ReliabilityAssessor.from_config(
                fattree4, inventory, AssessmentConfig(rounds=2_000)
            )
            service._pool.pool.close()
            service._pool.pool = WorkerPool(
                assessor,
                2,
                chaos=ChaosPolicy(
                    crash=frozenset(range(64)),
                    max_attempts=100,
                    kinds=("crash",),
                ),
                retry_policy=RetryPolicy(timeout_seconds=5.0, max_retries=1),
                partial_ok=True,
            )

            # Two failing requests trip the breaker; both still succeed via
            # the sequential fallback — the client never sees the pool die.
            for _ in range(2):
                response = service.assess(request, timeout=60.0)
                assert response.status == "ok"
                assert response.backend == "chunked-sequential"
            assert service.breaker.state == OPEN

            # While open, requests route straight to the fallback.
            response = service.assess(request, timeout=60.0)
            assert response.status == "ok"
            assert response.backend == "chunked-sequential"
            assert service.metrics.counter("service/breaker_fallbacks") >= 1

            # Heal the backend, wait out the recovery window: the next
            # request is the half-open probe, succeeds on the pool, and
            # closes the circuit.
            service._pool.pool.close()
            service._pool.pool = WorkerPool(assessor, 2, partial_ok=True)
            import time

            deadline = time.monotonic() + 5.0
            while service.breaker.state == OPEN and time.monotonic() < deadline:
                time.sleep(0.05)
            assert service.breaker.state == HALF_OPEN
            response = service.assess(request, timeout=60.0)
            assert response.status == "ok"
            assert response.backend == "parallel"
            assert service.breaker.state == CLOSED
        finally:
            service.close()


class TestHalfOpenConcurrency:
    """Probe slots under racing submissions.

    The half-open gate must admit exactly ``half_open_probes`` racing
    callers and refuse the rest — one atomic decision per caller, no
    thundering herd onto the recovering backend.
    """

    def _race(self, breaker, callers: int) -> list[str]:
        import threading

        barrier = threading.Barrier(callers)
        outcomes: list[str] = []
        lock = threading.Lock()

        def caller():
            barrier.wait()
            try:
                breaker.before_call()
            except CircuitOpen:
                with lock:
                    outcomes.append("refused")
            else:
                with lock:
                    outcomes.append("probe")

        threads = [threading.Thread(target=caller) for _ in range(callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return outcomes

    def test_racing_callers_get_exactly_the_probe_slots(self, clock):
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_seconds=1.0, half_open_probes=2,
            clock=clock,
        )
        breaker.record_failure()
        clock.advance(1.0)
        outcomes = self._race(breaker, callers=8)
        assert outcomes.count("probe") == 2
        assert outcomes.count("refused") == 6
        assert breaker.state == HALF_OPEN

    def test_all_probes_succeeding_closes_under_concurrency(self, clock):
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_seconds=1.0, half_open_probes=3,
            clock=clock,
        )
        breaker.record_failure()
        clock.advance(1.0)
        outcomes = self._race(breaker, callers=6)
        assert outcomes.count("probe") == 3
        for _ in range(3):
            breaker.record_success()
        assert breaker.state == CLOSED
        breaker.before_call()  # closed again: flows freely

    def test_one_failed_probe_reopens_despite_other_successes(self, clock):
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_seconds=1.0, half_open_probes=2,
            clock=clock,
        )
        breaker.record_failure()
        clock.advance(1.0)
        outcomes = self._race(breaker, callers=4)
        assert outcomes.count("probe") == 2
        breaker.record_success()
        breaker.record_failure()  # the second probe fails
        assert breaker.state == OPEN
        with pytest.raises(CircuitOpen):
            breaker.before_call()
