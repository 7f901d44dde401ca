"""Fault-injection tests for the supervised runtime.

Faults are armed at the ``pool.portion`` seam of
:mod:`repro.util.faultpoints` before the pool forks, addressed by
``(portion, attempt)``. The acceptance bar: with crashes and hangs
injected into at least a quarter of the portions, the supervised
assessor must still produce an estimate statistically consistent with a
fault-free run, and ``partial_ok`` must degrade honestly (flagged
result, widened bounds) instead of raising.
"""

import numpy as np
import pytest

from repro.app.structure import ApplicationStructure
from repro.core.plan import DeploymentPlan
from repro.runtime.mapreduce import ParallelAssessor, RetryPolicy
from repro.util.errors import DegradedResult, WorkerFailure
from repro.util.faultpoints import FaultCommand, FaultPoints, armed
from repro.core.api import AssessmentConfig


@pytest.fixture
def structure():
    return ApplicationStructure.k_of_n(2, 3)


@pytest.fixture
def plan(fattree4, structure):
    return DeploymentPlan.random(fattree4, structure, rng=4)


def pool_faults(attempts: int = 1, **portions_by_kind) -> FaultPoints:
    """A registry striking ``pool.portion`` with each kind on its portions'
    first ``attempts`` attempts; later retries go through."""
    registry = FaultPoints()
    for kind, portions in portions_by_kind.items():
        for portion in portions:
            for attempt in range(attempts):
                registry.add(
                    "pool.portion", FaultCommand(kind), occurrence=(portion, attempt)
                )
    return registry


class TestSupervisedRecovery:
    def test_consistent_under_crash_and_hang(
        self, fattree4, inventory, plan, structure
    ):
        """Crashes + hangs on 50% of portions: retries and pool restarts
        recover every round, and the estimate stays within sampling
        tolerance of a fault-free run on the same seed."""
        with armed(pool_faults(exit={0, 2}, hang={1})), ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=20_000, workers=4, rng=3, retry_policy=RetryPolicy(
                timeout_seconds=1.0, max_retries=2, backoff_seconds=0.01
            ))) as pa:
            chaotic = pa.assess(plan, structure)
        with ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=20_000, workers=4, rng=3)) as pa:
            healthy = pa.assess(plan, structure)
        assert chaotic.estimate.rounds == 20_000
        # Retried portions run on derived seeds: a different sample of
        # the same distribution.
        assert chaotic.score == pytest.approx(healthy.score, abs=0.015)
        assert not chaotic.degraded
        runtime = chaotic.runtime
        assert runtime.retries >= 3  # every sabotaged portion retried
        assert runtime.pool_restarts >= 1  # hang forced at least one
        assert len(runtime.failures) >= 3

    def test_hang_times_out_and_retries_on_a_fresh_pool(
        self, fattree4, inventory, plan, structure
    ):
        """A hung worker holds its slot until the deadline; the pool is
        restarted once the other portion is in, and the retry completes."""
        with armed(pool_faults(hang={1})), ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=4_000, workers=2, rng=3, retry_policy=RetryPolicy(timeout_seconds=0.5, backoff_seconds=0.01))) as pa:
            result = pa.assess(plan, structure)
        assert result.estimate.rounds == 4_000
        assert [(f.portion, f.kind) for f in result.runtime.failures] == [(1, "timeout")]
        assert result.runtime.retries == result.runtime.pool_restarts == 1

    def test_error_injection_recovers_without_restart(
        self, fattree4, inventory, plan, structure
    ):
        with armed(pool_faults(io_error={0, 1})), ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=4_000, workers=2, rng=3, retry_policy=RetryPolicy(max_retries=2, backoff_seconds=0.01))) as pa:
            result = pa.assess(plan, structure)
        assert result.estimate.rounds == 4_000
        assert result.runtime.retries == 2
        assert result.runtime.pool_restarts == 0

    def test_persistent_failure_recovers_inline(
        self, fattree4, inventory, plan, structure
    ):
        """A portion that fails on every attempt falls back to inline
        execution in the master, still completing all rounds."""
        with armed(pool_faults(10, io_error={0})), ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=2_000, workers=2, rng=3, retry_policy=RetryPolicy(max_retries=1, backoff_seconds=0.01))) as pa:
            result = pa.assess(plan, structure)
        assert result.estimate.rounds == 2_000
        assert result.runtime.recovered_inline == 1
        assert not result.degraded

    def test_partial_ok_degrades_with_widened_bounds(
        self, fattree4, inventory, plan, structure
    ):
        """partial_ok drops exhausted portions instead of recovering them:
        the result is flagged degraded and its CI honestly widened."""
        with armed(pool_faults(10, io_error={0})), ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=4_000, workers=2, rng=3, retry_policy=RetryPolicy(max_retries=1, backoff_seconds=0.01), partial_ok=True)) as pa:
            degraded = pa.assess(plan, structure)
        with ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=4_000, workers=2, rng=3)) as pa:
            healthy = pa.assess(plan, structure)
        assert degraded.degraded
        assert degraded.runtime.dropped_portions == 1
        assert degraded.per_round.size < 4_000
        assert degraded.runtime.dropped_rounds == 4_000 - degraded.per_round.size
        # Fewer rounds AND a missing-data penalty: strictly wider CI.
        assert (
            degraded.estimate.confidence_interval_width
            > healthy.estimate.confidence_interval_width
        )
        assert degraded.runtime.failures  # the drop is recorded, not hidden

    def test_all_portions_lost_raises_degraded_result(
        self, fattree4, inventory, plan, structure
    ):
        with armed(pool_faults(10, io_error={0, 1})), ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=2_000, workers=2, rng=3, retry_policy=RetryPolicy(max_retries=0), partial_ok=True)) as pa:
            # Inline recovery is off (partial_ok) and every portion fails:
            # nothing remains to estimate from.
            with pytest.raises(DegradedResult):
                pa.assess(plan, structure)

    def test_exhausted_without_partial_ok_raises_worker_failure(
        self, fattree4, inventory, plan, structure, monkeypatch
    ):
        """If even the master's inline fallback fails, the failure is
        reported as WorkerFailure with the attempt history attached."""
        with armed(pool_faults(10, io_error={0, 1})):
            pa = ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=2_000, workers=2, rng=3, retry_policy=RetryPolicy(max_retries=0)))
            monkeypatch.setattr(
                pa.master, "assess",
                lambda *a, **k: (_ for _ in ()).throw(RuntimeError("master down")),
            )
            try:
                with pytest.raises(WorkerFailure) as excinfo:
                    pa.assess(plan, structure)
                assert excinfo.value.failures
            finally:
                pa.close()

    def test_deterministic_under_chaos(self, fattree4, inventory, plan, structure):
        """Same seed + same armed faults => identical estimate, because
        retried portions reseed deterministically."""
        def run():
            with armed(pool_faults(io_error={0})), ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=4_000, workers=2, rng=3, retry_policy=RetryPolicy(max_retries=2, backoff_seconds=0.01))) as pa:
                return pa.assess(plan, structure)

        a, b = run(), run()
        assert a.score == b.score
        assert np.array_equal(a.per_round, b.per_round)
        assert a.runtime.portion_seeds == b.runtime.portion_seeds
