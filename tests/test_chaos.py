"""Fault-injection tests for the worker pool.

``kill`` is armed at the ``pool.portion`` seam of
:mod:`repro.util.faultpoints` before the pool forks, addressed by the
portion's index: the worker dies as after a SIGKILL. A portion is a pure
function of its seed, so the master runs a lost portion once more under
the same seed and the result equals the fault-free run bit for bit.
"""

import os

import numpy as np
import pytest

from repro.app.structure import ApplicationStructure
from repro.core.api import AssessmentConfig
from repro.core.assessment import ReliabilityAssessor
from repro.core.plan import DeploymentPlan
from repro.runtime.mapreduce import ParallelAssessor
from repro.util.faultpoints import FaultCommand, FaultPoints, armed

CONFIG = AssessmentConfig(mode="parallel", rounds=8_000, workers=4, rng=3)


@pytest.fixture
def structure():
    return ApplicationStructure.k_of_n(2, 3)


@pytest.fixture
def plan(fattree4, structure):
    return DeploymentPlan.random(fattree4, structure, rng=4)


def exits(portions) -> FaultPoints:
    """A registry whose workers die at the start of these portions."""
    registry = FaultPoints()
    for portion in portions:
        registry.add("pool.portion", FaultCommand("kill"), occurrence=portion)
    return registry


def assess(fattree4, inventory, plan, structure, faults=None):
    with armed(faults or FaultPoints()), ParallelAssessor(
        fattree4, inventory, config=CONFIG
    ) as pa:
        return pa.assess(plan, structure)


def assert_same_bits(chaotic, healthy):
    assert np.array_equal(chaotic.per_round, healthy.per_round)
    assert chaotic.estimate == healthy.estimate
    assert chaotic.runtime.portion_seeds == healthy.runtime.portion_seeds
    assert chaotic.sampled_components == healthy.sampled_components
    assert not chaotic.degraded


class TestSupervisedRecovery:
    """The master recovers what a worker loses, under the same seed."""

    def test_deterministic_under_chaos(self, fattree4, inventory, plan, structure):
        healthy = assess(fattree4, inventory, plan, structure)
        chaotic = assess(fattree4, inventory, plan, structure, exits({0, 2}))
        assert_same_bits(chaotic, healthy)
        assert healthy.runtime.recovered_inline == 0
        assert chaotic.runtime.recovered_inline == 2
        assert sorted(
            (f.portion, f.attempt, f.kind) for f in chaotic.runtime.failures
        ) == [(0, 0, "crash"), (2, 0, "crash")]

    def test_persistent_failure_recovers_inline(
        self, fattree4, inventory, plan, structure
    ):
        """A crash on every portion: the master runs them all."""
        healthy = assess(fattree4, inventory, plan, structure)
        chaotic = assess(fattree4, inventory, plan, structure, exits(range(4)))
        assert_same_bits(chaotic, healthy)
        assert chaotic.runtime.recovered_inline == 4

    def test_the_pool_forks_again_after_a_crash(
        self, fattree4, inventory, plan, structure
    ):
        with armed(exits({1})):  # only the first pool's workers inherit it
            pa = ParallelAssessor(fattree4, inventory, config=CONFIG)
        with pa:
            first = pa.assess(plan, structure)
            assert pa.pool._workers == []  # torn down: no orphan left
            second = pa.assess(plan, structure)
            assert len(pa.pool._workers) == 4
        assert (first.runtime.recovered_inline, second.runtime.recovered_inline) == (1, 0)
        assert first.estimate.rounds == second.estimate.rounds == 8_000

    def test_a_master_that_raises_after_a_crash_fails_the_call(
        self, fattree4, inventory, plan, structure, monkeypatch
    ):
        """The master's own exception propagates: nothing wraps it."""
        with armed(exits({0})), ParallelAssessor(
            fattree4, inventory, config=CONFIG
        ) as pa:

            def master_down(*args, **kwargs):
                raise RuntimeError("master down")

            monkeypatch.setattr(pa.master, "assess", master_down)
            with pytest.raises(RuntimeError, match="master down"):
                pa.assess(plan, structure)

    def test_error_injection_recovers_without_restart(
        self, fattree4, inventory, plan, structure, monkeypatch
    ):
        """A worker that raises stays up; the master reruns its portion."""
        healthy = assess(fattree4, inventory, plan, structure)
        master_pid, original = os.getpid(), ReliabilityAssessor.assess

        def raises_in_workers(self, *args, **kwargs):
            if os.getpid() != master_pid:
                raise OSError("injected")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ReliabilityAssessor, "assess", raises_in_workers)
        with ParallelAssessor(fattree4, inventory, config=CONFIG) as pa:
            workers = list(pa.pool._workers)
            chaotic = pa.assess(plan, structure)
            assert pa.pool._workers == workers  # not torn down
            assert all(process.is_alive() for process, _ in workers)
        assert_same_bits(chaotic, healthy)
        assert chaotic.runtime.recovered_inline == 4
        failures = sorted(chaotic.runtime.failures, key=lambda f: f.portion)
        assert [(f.portion, f.kind, f.message) for f in failures] == [
            (portion, "error", "OSError: injected") for portion in range(4)
        ]
