"""Fault-injection tests for the supervised runtime (repro.runtime.chaos).

The acceptance bar: with crashes and hangs injected into at least a
quarter of the portions, the supervised assessor must still produce an
estimate statistically consistent with a fault-free run, and
``partial_ok`` must degrade honestly (flagged result, widened bounds)
instead of raising.
"""

import numpy as np
import pytest

from repro.app.structure import ApplicationStructure
from repro.core.plan import DeploymentPlan
from repro.runtime.chaos import ChaosAction, ChaosPolicy
from repro.runtime.mapreduce import ParallelAssessor, RetryPolicy
from repro.util.errors import ConfigurationError, DegradedResult, WorkerFailure
from repro.core.api import AssessmentConfig


@pytest.fixture
def structure():
    return ApplicationStructure.k_of_n(2, 3)


@pytest.fixture
def plan(fattree4, structure):
    return DeploymentPlan.random(fattree4, structure, rng=4)


class TestChaosPolicy:
    def test_explicit_targets(self):
        policy = ChaosPolicy(crash={0}, hang={1}, error={2}, delay={3: 0.5})
        assert policy.action_for(0, 0) == ChaosAction("crash")
        assert policy.action_for(1, 0).kind == "hang"
        assert policy.action_for(2, 0).kind == "error"
        assert policy.action_for(3, 0) == ChaosAction("delay", 0.5)
        assert policy.action_for(4, 0) is None

    def test_transient_by_default(self):
        policy = ChaosPolicy(crash={0})
        assert policy.action_for(0, 0) is not None
        assert policy.action_for(0, 1) is None  # retry goes through

    def test_max_attempts_extends_sabotage(self):
        policy = ChaosPolicy(crash={0}, max_attempts=3)
        assert all(policy.action_for(0, a) is not None for a in range(3))
        assert policy.action_for(0, 3) is None

    def test_rate_mode_deterministic(self):
        policy = ChaosPolicy(rate=0.5, seed=9)
        first = [policy.action_for(i, 0) for i in range(32)]
        second = [policy.action_for(i, 0) for i in range(32)]
        assert first == second
        assert any(a is not None for a in first)
        assert any(a is None for a in first)

    def test_targeted_portions(self):
        policy = ChaosPolicy(crash={0, 2}, hang={1})
        targeted = {i for i in range(4) if policy.action_for(i, 0) is not None}
        assert targeted == {0, 1, 2}

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            ChaosPolicy(rate=1.5)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            ChaosPolicy(rate=0.5, kinds=("meteor",))

    def test_rejects_bad_max_attempts(self):
        with pytest.raises(ConfigurationError):
            ChaosPolicy(max_attempts=0)


class TestSupervisedRecovery:
    def test_consistent_under_crash_and_hang(
        self, fattree4, inventory, plan, structure
    ):
        """Crashes + hangs on 50% of portions: retries and pool restarts
        recover every round, and the estimate stays within sampling
        tolerance of a fault-free run on the same seed."""
        chaos = ChaosPolicy(crash={0, 2}, hang={1})
        assert chaos.action_for(0, 0) is not None
        with ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=20_000, workers=4, rng=3, retry_policy=RetryPolicy(
                timeout_seconds=1.0, max_retries=2, backoff_seconds=0.01
            ), chaos=chaos)) as pa:
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
        with ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=4_000, workers=2, rng=3, retry_policy=RetryPolicy(timeout_seconds=0.5, backoff_seconds=0.01), chaos=ChaosPolicy(hang={1}))) as pa:
            result = pa.assess(plan, structure)
        assert result.estimate.rounds == 4_000
        assert [(f.portion, f.kind) for f in result.runtime.failures] == [(1, "timeout")]
        assert result.runtime.retries == result.runtime.pool_restarts == 1

    def test_error_injection_recovers_without_restart(
        self, fattree4, inventory, plan, structure
    ):
        chaos = ChaosPolicy(error={0, 1})
        with ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=4_000, workers=2, rng=3, retry_policy=RetryPolicy(max_retries=2, backoff_seconds=0.01), chaos=chaos)) as pa:
            result = pa.assess(plan, structure)
        assert result.estimate.rounds == 4_000
        assert result.runtime.retries == 2
        assert result.runtime.pool_restarts == 0

    def test_persistent_failure_recovers_inline(
        self, fattree4, inventory, plan, structure
    ):
        """A portion that fails on every attempt falls back to inline
        execution in the master, still completing all rounds."""
        chaos = ChaosPolicy(error={0}, max_attempts=10)
        with ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=2_000, workers=2, rng=3, retry_policy=RetryPolicy(max_retries=1, backoff_seconds=0.01), chaos=chaos)) as pa:
            result = pa.assess(plan, structure)
        assert result.estimate.rounds == 2_000
        assert result.runtime.recovered_inline == 1
        assert not result.degraded

    def test_partial_ok_degrades_with_widened_bounds(
        self, fattree4, inventory, plan, structure
    ):
        """partial_ok drops exhausted portions instead of recovering them:
        the result is flagged degraded and its CI honestly widened."""
        chaos = ChaosPolicy(error={0}, max_attempts=10)
        with ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=4_000, workers=2, rng=3, retry_policy=RetryPolicy(max_retries=1, backoff_seconds=0.01), chaos=chaos, partial_ok=True)) as pa:
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
        chaos = ChaosPolicy(error={0, 1}, max_attempts=10)
        with ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=2_000, workers=2, rng=3, retry_policy=RetryPolicy(max_retries=0), chaos=chaos, partial_ok=True)) as pa:
            # Inline recovery is off (partial_ok) and every portion fails:
            # nothing remains to estimate from.
            with pytest.raises(DegradedResult):
                pa.assess(plan, structure)

    def test_exhausted_without_partial_ok_raises_worker_failure(
        self, fattree4, inventory, plan, structure, monkeypatch
    ):
        """If even the master's inline fallback fails, the failure is
        reported as WorkerFailure with the attempt history attached."""
        chaos = ChaosPolicy(error={0, 1}, max_attempts=10)
        pa = ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=2_000, workers=2, rng=3, retry_policy=RetryPolicy(max_retries=0), chaos=chaos))
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
        """Same seed + same chaos policy => identical estimate, because
        retried portions reseed deterministically."""
        def run():
            with ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=4_000, workers=2, rng=3, retry_policy=RetryPolicy(max_retries=2, backoff_seconds=0.01), chaos=ChaosPolicy(error={0}))) as pa:
                return pa.assess(plan, structure)

        a, b = run(), run()
        assert a.score == b.score
        assert np.array_equal(a.per_round, b.per_round)
        assert a.runtime.portion_seeds == b.runtime.portion_seeds
