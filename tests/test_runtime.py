"""Tests for the parallel MapReduce-style assessor (repro.runtime)."""

import contextlib
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.app.structure import ApplicationStructure
from repro.core.assessment import ReliabilityAssessor
from repro.core.plan import DeploymentPlan
from repro.runtime import mapreduce
from repro.routing.base import ReachabilityEngine, engine_for
from repro.runtime.mapreduce import (
    ParallelAssessor,
    WorkerPool,
    run_portions,
)
from repro.service.executor import chunked_assess
from repro.util.cancel import CancellationToken
from repro.util.errors import ConfigurationError, ValidationError
from repro.core.api import AssessmentConfig


@pytest.fixture
def structure():
    return ApplicationStructure.k_of_n(2, 3)


@pytest.fixture
def plan(fattree4, structure):
    return DeploymentPlan.random(fattree4, structure, rng=4)


class TestPortions:
    def test_even_split(self, fattree4, inventory, no_fork):
        with ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", workers=4)) as pa:
            assert pa._portions(100) == [25, 25, 25, 25]

    def test_remainder_distributed(self, fattree4, inventory, no_fork):
        with ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", workers=3)) as pa:
            assert pa._portions(10) == [4, 3, 3]

    def test_more_workers_than_rounds(self, fattree4, inventory, no_fork):
        with ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", workers=4)) as pa:
            assert pa._portions(2) == [1, 1]
            assert pa._portions(1) == [1]

    def test_one_worker_takes_every_round(self, fattree4, inventory, no_fork):
        with ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", workers=1)) as pa:
            assert pa._portions(7) == [7]

    def test_rejects_zero_workers(self, fattree4, inventory):
        with pytest.raises(ConfigurationError):
            ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", workers=0))

    def test_rejects_unknown_backend(self):
        # Nothing to pick: the pool runs the portions, or the master does
        # where the platform cannot fork.
        with pytest.raises(TypeError, match="backend"):
            AssessmentConfig(mode="parallel", backend="gpu")

    def test_rejects_zero_rounds_at_construction(self, fattree4, inventory, no_fork):
        with pytest.raises(ConfigurationError):
            ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=0))

    def test_rejects_zero_rounds_override(self, fattree4, inventory, no_fork):
        structure = ApplicationStructure.k_of_n(2, 3)
        plan = DeploymentPlan.random(fattree4, structure, rng=4)
        with ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", workers=2)) as pa:
            with pytest.raises(ConfigurationError):
                pa.assess(plan, structure, rounds=0)
            with pytest.raises(ConfigurationError):
                pa._portions(-5)


class TestInlineBackend:
    @pytest.fixture(autouse=True)
    def _inline(self, no_fork):
        pass

    def test_total_rounds_preserved(self, fattree4, inventory, plan, structure):
        with ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=1_000, workers=3, rng=1)) as pa:
            result = pa.assess(plan, structure)
        assert result.estimate.rounds == 1_000
        assert result.per_round.shape == (1_000,)

    def test_statistically_matches_sequential(self, fattree4, inventory, plan, structure):
        sequential = ReliabilityAssessor(fattree4, inventory, config=AssessmentConfig(rounds=30_000, rng=7)).assess(plan, structure)
        with ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=30_000, workers=3, rng=8)) as pa:
            parallel = pa.assess(plan, structure)
        # Two independent 30k-round estimates: sigma of difference ~ 0.002.
        assert parallel.score == pytest.approx(sequential.score, abs=0.012)

    def test_rounds_override(self, fattree4, inventory, plan, structure):
        with ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=1_000, workers=2, rng=1)) as pa:
            result = pa.assess(plan, structure, rounds=600)
        assert result.estimate.rounds == 600


class TestProcessBackend:
    def test_process_pool_roundtrip(self, fattree4, inventory, plan, structure):
        with ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=4_000, workers=2, rng=3)) as pa:
            result = pa.assess(plan, structure)
        assert result.estimate.rounds == 4_000
        assert 0.5 < result.score <= 1.0

    def test_process_matches_inline_bit_for_bit(
        self, fattree4, inventory, plan, structure, monkeypatch
    ):
        config = AssessmentConfig(mode="parallel", rounds=20_000, workers=2, rng=3)
        with ParallelAssessor(fattree4, inventory, config=config) as pa:
            proc = pa.assess(plan, structure)
        monkeypatch.setattr(mapreduce, "_fork_available", lambda: False)
        with pytest.warns(RuntimeWarning, match="fork"):
            pa = ParallelAssessor(fattree4, inventory, config=config)
        assert pa.pool is None
        inline = pa.assess(plan, structure)
        assert (proc.runtime.backend, inline.runtime.backend) == ("process", "inline")
        assert proc.runtime.portion_seeds == inline.runtime.portion_seeds
        assert np.array_equal(proc.per_round, inline.per_round)
        assert proc.estimate == inline.estimate

    def test_pool_reusable_across_assessments(self, fattree4, inventory, plan, structure):
        with ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=2_000, workers=2, rng=3)) as pa:
            first = pa.assess(plan, structure)
            second = pa.assess(plan, structure)
        assert first.estimate.rounds == second.estimate.rounds == 2_000

    def test_close_idempotent(self, fattree4, inventory):
        pa = ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", workers=2))
        pa.close()
        pa.close()

    def test_close_drains_gracefully(self, fattree4, inventory, plan, structure):
        """Every result lands before ``assess`` returns, and close() joins
        every worker process: none is leaked."""
        pa = ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=2_000, workers=2, rng=3))
        processes = [process for process, _ in pa.pool._workers]
        result = pa.assess(plan, structure)
        assert result.estimate.rounds == 2_000
        pa.close()
        assert pa.pool._workers == []
        assert not any(process.is_alive() for process in processes)

    def test_workers_leave_the_masters_process_group(
        self, fattree4, inventory, plan, structure
    ):
        """A SIGTERM to the master's group (a supervisor stopping it,
        Ctrl-C) reaches the master alone, which stops its workers itself."""
        with ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=2_000, workers=2, rng=3)) as pa:
            pa.assess(plan, structure)
            pids = [process.pid for process, _ in pa.pool._workers]
            assert len(pids) == 2
            deadline = time.monotonic() + 10.0
            while any(os.getpgid(pid) != pid for pid in pids):
                assert time.monotonic() < deadline
                time.sleep(0.01)

    def test_del_reaps_pool(self, fattree4, inventory):
        pa = ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", workers=2))
        processes = [process for process, _ in pa.pool._workers]
        pa.pool.__del__()
        assert not any(process.is_alive() for process in processes)


class _RecordingEngine(ReachabilityEngine):
    """The topology's own engine behind a call counter forked workers share."""

    def __init__(self, topology):
        super().__init__(topology)
        self.inner = engine_for(topology)
        self.calls = multiprocessing.get_context("fork").Value("i", 0)

    def _record(self):
        with self.calls.get_lock():
            self.calls.value += 1

    def external_reachable(self, states, hosts):
        self._record()
        return self.inner.external_reachable(states, hosts)

    def pairwise_reachable(self, states, pairs):
        self._record()
        return self.inner.pairwise_reachable(states, pairs)

    def relevant_layers(self, host):
        return self.inner.relevant_layers(host)


class TestConfiguredEngine:
    """``AssessmentConfig(engine=...)`` reaches every portion: on the
    master and on the forked workers, which inherit the master's assessor."""

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_portions_route_on_the_configured_engine(
        self, fattree4, inventory, plan, structure, backend, request
    ):
        if backend == "inline":
            request.getfixturevalue("no_fork")
        engine = _RecordingEngine(fattree4)
        config = AssessmentConfig(
            mode="parallel", rounds=2_000, workers=2, rng=3, engine=engine
        )
        with ParallelAssessor(fattree4, inventory, config=config) as pa:
            result = pa.assess(plan, structure)
        assert result.estimate.rounds == 2_000
        assert engine.calls.value >= result.runtime.portions == 2
        # The recorder only forwards, so the estimate is the default engine's.
        with ParallelAssessor(
            fattree4, inventory, config=config.with_updates(engine=None)
        ) as pa:
            assert pa.assess(plan, structure).score == result.score


class TestRuntimeMetadata:
    def test_metadata_populated(self, fattree4, inventory, plan, structure):
        """The result carries real runtime metadata: actual worker count,
        one real per-portion seed per portion, zeroed recovery counters."""
        with ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=4_000, workers=2, rng=3)) as pa:
            result = pa.assess(plan, structure)
        runtime = result.runtime
        assert runtime is not None
        assert runtime.backend == "process"
        assert runtime.workers == 2
        assert runtime.portions == 2
        assert len(runtime.portion_seeds) == 2
        assert len(set(runtime.portion_seeds)) == 2  # independent streams
        assert runtime.retries == 0
        assert runtime.pool_restarts == 0
        assert runtime.recovered_inline == 0
        assert runtime.dropped_rounds == 0
        assert not runtime.degraded
        assert not result.degraded
        # The aggregate closure size is a real count, not a sentinel.
        assert result.sampled_components > 0

    def test_inline_backend_also_reports_metadata(
        self, fattree4, inventory, plan, structure, no_fork
    ):
        with ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", rounds=1_000, workers=3, rng=1)) as pa:
            result = pa.assess(plan, structure)
        assert result.runtime.backend == "inline"
        assert result.runtime.portions == 3
        assert result.runtime.workers == 1
        assert result.runtime.recovered_inline == 0


class TestWorkerCount:
    @pytest.mark.parametrize("mode", ["sequential", "analytic"])
    def test_a_negative_worker_count_is_rejected_in_every_mode(self, mode):
        with pytest.raises(ValidationError) as excinfo:
            AssessmentConfig(mode=mode, workers=-1).validate()
        assert excinfo.value.fields() == ("workers",)


class TestForkFallback:
    def test_falls_back_to_inline_without_fork(
        self, fattree4, inventory, monkeypatch
    ):
        monkeypatch.setattr(mapreduce, "_fork_available", lambda: False)
        with pytest.warns(RuntimeWarning, match="fork") as record:
            pa = ParallelAssessor(fattree4, inventory, config=AssessmentConfig(mode="parallel", workers=2))
        assert record[0].filename == __file__  # blames the caller
        with pa:
            assert pa.pool is None

    def test_explicit_inline_does_not_warn(
        self, fattree4, inventory, monkeypatch, plan, structure
    ):
        """The runner without a pool forks nothing, so it has nothing to
        warn about: the service's chunked path on a platform without fork."""
        monkeypatch.setattr(mapreduce, "_fork_available", lambda: False)
        import warnings

        master = ReliabilityAssessor(fattree4, inventory, AssessmentConfig(rng=3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_portions(master, plan, structure, [600, 400])
        assert result.runtime.backend == "inline"
        assert result.estimate.rounds == 1_000


class TestOneRunner:
    """Where a portion runs never changes its bits."""

    def test_runner_with_and_without_pool_agree_bit_for_bit(
        self, fattree4, inventory, plan, structure
    ):
        layout = [700, 300, 500]
        config = AssessmentConfig(rng=11)
        master = ReliabilityAssessor(fattree4, inventory, config)
        alone = run_portions(master, plan, structure, layout)
        with contextlib.closing(WorkerPool(master, 2)) as pool:
            master.rng = np.random.default_rng(11)
            pooled = run_portions(master, plan, structure, layout, pool=pool)
        assert pooled.runtime.portion_seeds == alone.runtime.portion_seeds
        assert np.array_equal(pooled.per_round, alone.per_round)
        assert pooled.estimate == alone.estimate
        assert pooled.sampled_components == alone.sampled_components

    def test_chunked_assess_is_the_runner_over_the_chunk_layout(
        self, fattree4, inventory, plan, structure
    ):
        from repro.service.executor import MIN_CHUNK_ROUNDS, chunk_layout

        rounds = 2 * MIN_CHUNK_ROUNDS + 5
        config = AssessmentConfig(rng=5)
        chunked = chunked_assess(
            ReliabilityAssessor(fattree4, inventory, config),
            plan, structure, rounds, 8, CancellationToken(),
        )
        direct = run_portions(
            ReliabilityAssessor(fattree4, inventory, config),
            plan, structure, chunk_layout(rounds, 8),
        )
        assert chunked.runtime.portions == 2
        assert chunked.runtime.portion_seeds == direct.runtime.portion_seeds
        assert np.array_equal(chunked.per_round, direct.per_round)

    def test_the_callers_stream_advances_by_the_seed_draw_only(
        self, fattree4, inventory, plan, structure
    ):
        master = ReliabilityAssessor(fattree4, inventory, AssessmentConfig(rng=2))
        stream = master.rng
        result = run_portions(master, plan, structure, [300, 300])
        assert master.rng is stream
        expected = np.random.default_rng(2)
        seeds = expected.integers(0, 2**63, size=2)
        assert result.runtime.portion_seeds == tuple(int(seed) for seed in seeds)
        assert stream.integers(0, 2**63) == expected.integers(0, 2**63)
