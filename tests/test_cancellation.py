"""Chaos-style cancellation tests: tokens, anytime results, no orphans.

The contract under test: a fired token stops work at the next natural
boundary (sampler chunk, dispatched portion, annealing move), layers that
hold partial data return a well-formed *anytime* result with honestly
widened bounds, and no worker process keeps computing rounds nobody will
collect.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest

from repro.app.structure import ApplicationStructure
from repro.core.api import AssessmentConfig
from repro.core.assessment import ReliabilityAssessor
from repro.core.incremental import IncrementalAssessor
from repro.core.plan import DeploymentPlan
from repro.core.search import DeploymentSearch, SearchSpec
from repro.runtime.mapreduce import ParallelAssessor
from repro.sampling.dagger import (
    CommonRandomDaggerSampler,
    DaggerSampler,
    ExtendedDaggerSampler,
)
from repro.sampling.montecarlo import MonteCarloSampler
from repro.util.cancel import CancellationToken
from repro.util.errors import OperationCancelled
from repro.util.faultpoints import armed
from tests.sampling_gate import SamplingGate

STRUCTURE = ApplicationStructure.k_of_n(2, 3)


def _plan(topology):
    return DeploymentPlan.single_component(
        topology.hosts[:3], STRUCTURE.components[0].name
    )


class TestCancellationToken:
    def test_fresh_token_is_live(self):
        token = CancellationToken()
        assert not token.cancelled
        assert token.reason is None
        token.check()  # must not raise

    def test_explicit_cancel_is_sticky_and_first_reason_wins(self):
        token = CancellationToken()
        token.cancel("first")
        token.cancel("second")
        assert token.cancelled
        assert token.reason == "first"
        with pytest.raises(OperationCancelled) as excinfo:
            token.check()
        assert excinfo.value.reason == "first"

    def test_deadline_fires_with_fake_clock(self):
        now = {"t": 0.0}
        token = CancellationToken(deadline_seconds=5.0, clock=lambda: now["t"])
        assert not token.cancelled
        assert token.remaining() == pytest.approx(5.0)
        now["t"] = 5.1
        assert token.cancelled
        assert token.reason == "deadline exceeded"
        assert token.remaining() == 0.0

    def test_non_positive_deadline_fires_immediately(self):
        assert CancellationToken(deadline_seconds=0.0).cancelled
        assert CancellationToken(deadline_seconds=-1.0).cancelled

    def test_child_fires_with_parent(self):
        parent = CancellationToken()
        child = parent.child()
        assert not child.cancelled
        parent.cancel("shutdown")
        assert child.cancelled
        assert "shutdown" in child.reason

    def test_child_own_deadline_independent_of_parent(self):
        now = {"t": 0.0}
        parent = CancellationToken(clock=lambda: now["t"])
        child = parent.child(deadline_seconds=1.0)
        now["t"] = 2.0
        assert child.cancelled
        assert not parent.cancelled


class TestSamplerCancellation:
    def test_montecarlo_checks_between_chunks(self, rng):
        token = CancellationToken()
        token.cancel("stop")
        sampler = MonteCarloSampler()
        with pytest.raises(OperationCancelled):
            sampler.sample({"a": 0.5}, 100, rng, cancel=token)

    def test_uncancelled_sampling_is_unchanged(self, rng):
        sampler = MonteCarloSampler()
        batch = sampler.sample({"a": 0.5}, 100, rng, cancel=CancellationToken())
        assert batch.rounds == 100

    @pytest.mark.parametrize(
        "sampler",
        [DaggerSampler(), ExtendedDaggerSampler(), CommonRandomDaggerSampler(1)],
        ids=lambda sampler: sampler.name,
    )
    def test_every_sampler_checks_the_token(self, sampler, rng):
        token = CancellationToken()
        token.cancel("stop")
        with pytest.raises(OperationCancelled):
            sampler.sample({"a": 0.5, "b": 0.01}, 100, rng, cancel=token)


class TestSequentialCancellation:
    def test_fired_token_raises_before_work(self, fattree4, inventory):
        assessor = ReliabilityAssessor.from_config(
            fattree4, inventory, AssessmentConfig(rounds=500, rng=1)
        )
        token = CancellationToken()
        token.cancel("client gone")
        with pytest.raises(OperationCancelled):
            assessor.assess(_plan(fattree4), STRUCTURE, cancel=token)

    def test_live_token_changes_nothing(self, fattree4, inventory):
        config = AssessmentConfig(rounds=500, rng=1)
        plain = ReliabilityAssessor.from_config(fattree4, inventory, config)
        tokened = ReliabilityAssessor.from_config(fattree4, inventory, config)
        a = plain.assess(_plan(fattree4), STRUCTURE)
        b = tokened.assess(_plan(fattree4), STRUCTURE, cancel=CancellationToken())
        assert a.estimate == b.estimate

    def test_incremental_assessor_cancels(self, fattree4, inventory):
        assessor = IncrementalAssessor.from_config(
            fattree4, inventory, AssessmentConfig(rounds=500, master_seed=7)
        )
        token = CancellationToken()
        token.cancel("stop")
        with pytest.raises(OperationCancelled):
            assessor.assess(_plan(fattree4), STRUCTURE, cancel=token)

    def test_incremental_survives_mid_extension_cancel(self, fattree4, inventory):
        """An aborted cache extension must leave the caches consistent."""
        assessor = IncrementalAssessor.from_config(
            fattree4, inventory, AssessmentConfig(rounds=500, master_seed=7)
        )
        token = CancellationToken()
        token.cancel("stop")
        with pytest.raises(OperationCancelled):
            assessor.assess(_plan(fattree4), STRUCTURE, cancel=token)
        # Same plan afterwards with no token: must produce a clean result.
        result = assessor.assess(_plan(fattree4), STRUCTURE)
        assert result.estimate.rounds == 500


def _cancel_after(monkeypatch, assessor, token, pieces):
    """Fire ``token`` deterministically once ``pieces`` portions have run
    on ``assessor`` (the master of a runner without a pool)."""
    real = assessor.assess
    ran = []

    def assess(plan, structure, rounds=None, cancel=None):
        result = real(plan, structure, rounds=rounds, cancel=cancel)
        ran.append(rounds)
        if len(ran) == pieces:
            token.cancel("test: pieces done")
        return result

    monkeypatch.setattr(assessor, "assess", assess)


def _cancel_on_pool_after(pieces, token):
    """A hook that fires ``token`` once ``pieces`` portions ran on a
    one-worker pool.

    Installed before the pool forks, it counts sampling passes in the
    worker; the next portion signals and then blocks inside sampling,
    so the cancel lands while it is in flight, after exactly ``pieces``
    results reached the master (one worker runs portions in turn). Raw
    semaphores: the teardown kills the blocked worker, and a
    semaphore has no acknowledge protocol to deadlock on.
    """
    import multiprocessing
    import threading

    count = multiprocessing.Value("i", 0)
    started = multiprocessing.Semaphore(0)
    release = multiprocessing.Semaphore(0)

    def hook():
        with count.get_lock():
            count.value += 1
            blocked = count.value == pieces + 1
        if blocked:
            started.release()
            release.acquire(timeout=60.0)

    def fire():
        if started.acquire(timeout=30.0):
            token.cancel("test: pieces done")

    threading.Thread(target=fire, daemon=True).start()
    return hook, release


class TestParallelCancellation:
    def test_inline_backend_returns_anytime_partial(
        self, fattree4, inventory, monkeypatch, no_fork
    ):
        """Cancel between portions: completed portions become the estimate."""
        assessor = ParallelAssessor.from_config(
            fattree4,
            inventory,
            AssessmentConfig(mode="parallel", workers=4, rounds=400, rng=3),
        )
        token = CancellationToken()
        _cancel_after(monkeypatch, assessor.master, token, 1)
        result = assessor.assess(_plan(fattree4), STRUCTURE, cancel=token)
        runtime = result.runtime
        assert runtime.cancelled
        assert result.degraded
        assert result.estimate.rounds == 100  # portion 0 of 4
        assert runtime.dropped_portions == 3
        assert runtime.dropped_rounds == 300
        assert sum(1 for f in runtime.failures if f.kind == "cancelled") == 3

    def test_anytime_bounds_are_widened(
        self, fattree4, inventory, monkeypatch, no_fork
    ):
        assessor = ParallelAssessor.from_config(
            fattree4,
            inventory,
            AssessmentConfig(mode="parallel", workers=4, rounds=400, rng=3),
        )
        token = CancellationToken()
        _cancel_after(monkeypatch, assessor.master, token, 1)
        result = assessor.assess(_plan(fattree4), STRUCTURE, cancel=token)
        coverage = 400 / result.estimate.rounds
        raw = np.asarray(result.per_round)
        from repro.sampling.statistics import estimate_from_results

        unwidened = estimate_from_results(raw)
        assert result.estimate.variance == pytest.approx(
            unwidened.variance * coverage
        )
        assert result.estimate.confidence_interval_width == pytest.approx(
            unwidened.confidence_interval_width * math.sqrt(coverage)
        )

    @pytest.mark.parametrize("completed", [1, 2, 3])
    def test_chunked_and_inline_report_the_same_loss(
        self, fattree4, inventory, monkeypatch, completed
    ):
        """One runner, with and without a pool: the service's chunk layout,
        cancelled after the same piece, keeps the same bits, drops the same
        rounds and widens by the same coverage."""
        from repro.runtime.mapreduce import WorkerPool, run_portions
        from repro.sampling.statistics import estimate_from_results
        from repro.service.executor import (
            MIN_CHUNK_ROUNDS,
            chunk_layout,
            chunked_assess,
        )

        pieces, rounds = 4, 4 * MIN_CHUNK_ROUNDS
        plan = _plan(fattree4)
        config = AssessmentConfig(rounds=rounds, rng=3)

        token = CancellationToken()
        master = ReliabilityAssessor.from_config(fattree4, inventory, config)
        hook, release = _cancel_on_pool_after(completed, token)
        try:
            with armed(SamplingGate(hook)):  # only the forked worker keeps it
                pool = WorkerPool(master, 1)
            with contextlib.closing(pool):
                pooled = run_portions(
                    master, plan, STRUCTURE, chunk_layout(rounds, pieces),
                    token, pool,
                )
        finally:
            release.release()

        token = CancellationToken()
        master = ReliabilityAssessor.from_config(fattree4, inventory, config)
        _cancel_after(monkeypatch, master, token, completed)
        alone = chunked_assess(master, plan, STRUCTURE, rounds, pieces, token)

        assert np.array_equal(pooled.per_round, alone.per_round)
        assert pooled.runtime.portion_seeds == alone.runtime.portion_seeds
        kept = MIN_CHUNK_ROUNDS * completed
        coverage = rounds / kept
        for result in (pooled, alone):
            assert result.runtime.recovered_inline == 0  # cut off, not recovered
            assert result.runtime.cancelled
            assert result.runtime.dropped_portions == pieces - completed
            assert result.runtime.dropped_rounds == rounds - kept
            assert result.per_round.size == kept
            plain = estimate_from_results(result.per_round)
            assert plain.variance > 0.0
            assert result.estimate.variance == plain.variance * coverage
            assert result.estimate.confidence_interval_width == (
                plain.confidence_interval_width * math.sqrt(coverage)
            )

    def test_pre_fired_token_raises_not_returns(self, fattree4, inventory, no_fork):
        assessor = ParallelAssessor.from_config(
            fattree4,
            inventory,
            AssessmentConfig(mode="parallel", workers=2, rounds=200, rng=3),
        )
        token = CancellationToken()
        token.cancel("gone")
        with pytest.raises(OperationCancelled):
            assessor.assess(_plan(fattree4), STRUCTURE, cancel=token)

    def test_process_backend_cancel_leaves_no_orphan_pool(
        self, fattree4, inventory
    ):
        """Mid-sampling cancel: the pool is torn down, no worker keeps
        sampling, and the next call forks a live pool again.

        Deterministically gated: a :class:`SamplingGate` (inherited by the
        forked workers, armed before the pool forks) signals the
        moment a worker is inside a sampling pass and then blocks until
        released — so the cancel always lands mid-portion, with no
        timing-sensitive round counts or wall-clock deadlines.

        The gates are raw semaphores, not ``multiprocessing.Event``:
        the teardown SIGTERMs workers while they are blocked on the
        gate, and an Event's condition-variable ``set()`` deadlocks
        waiting for dead sleepers to acknowledge. A POSIX semaphore has
        no acknowledge protocol, so killing a blocked waiter is safe.
        """
        import multiprocessing
        import threading

        started = multiprocessing.Semaphore(0)
        release = multiprocessing.Semaphore(0)

        def hook():
            started.release()
            if release.acquire(timeout=60.0):
                release.release()  # pass the baton: later entrants fly through

        try:
            with armed(SamplingGate(hook)), ParallelAssessor.from_config(
                fattree4,
                inventory,
                AssessmentConfig(mode="parallel", workers=2, rounds=10_000, rng=3),
            ) as assessor:
                if assessor.pool is None:
                    pytest.skip("fork unavailable on this platform")
                before = [process for process, _ in assessor.pool._workers]
                token = CancellationToken()
                saw_sampling = threading.Event()

                def fire():
                    if started.acquire(timeout=30.0):
                        saw_sampling.set()
                    token.cancel("test: worker is mid-sampling")

                watcher = threading.Thread(target=fire, daemon=True)
                watcher.start()
                try:
                    result = assessor.assess(
                        _plan(fattree4), STRUCTURE, cancel=token
                    )
                    assert result.runtime.cancelled
                except OperationCancelled:
                    pass  # nothing completed before the cancel: also valid
                watcher.join(timeout=30.0)
                assert saw_sampling.is_set(), "no worker ever entered sampling"
                # Open the gate for everyone — including freshly forked
                # workers that inherited the gate — before using the pool.
                release.release()
                # The in-flight workers were torn down with the pool ...
                assert assessor.pool._workers == []
                assert not any(process.is_alive() for process in before)
                # ... and the next call forks a fresh, fully usable pool.
                follow_up = assessor.assess(_plan(fattree4), STRUCTURE, rounds=200)
                assert follow_up.estimate.rounds == 200
                after = [process for process, _ in assessor.pool._workers]
                assert len(after) == 2 and all(p.is_alive() for p in after)
                assert not {p.pid for p in before} & {p.pid for p in after}
        finally:
            release.release()


class TestSearchCancellation:
    def test_mid_anneal_cancel_returns_best_so_far(self, fattree4, inventory):
        token = CancellationToken()
        iterations = {"n": 0}

        def clock():
            # Cancel after a few loop iterations via the clock the search
            # reads once per iteration — deterministic, no sleeping.
            iterations["n"] += 1
            if iterations["n"] > 12:
                token.cancel("deadline")
            return iterations["n"] * 0.01

        search = DeploymentSearch.from_config(
            fattree4,
            inventory,
            AssessmentConfig(rounds=200, rng=5),
            rng=42,
            clock=clock,
            cancel=token,
        )
        result = search.search(
            SearchSpec(STRUCTURE, max_seconds=1_000.0, max_iterations=10_000)
        )
        assert result.iterations < 10_000
        assert result.best_plan is not None
        assert result.best_assessment.estimate.rounds == 200
        assert not result.satisfied

    def test_cancel_writes_final_checkpoint(self, fattree4, inventory, tmp_path):
        ckpt = str(tmp_path / "cancelled.json")
        token = CancellationToken()
        iterations = {"n": 0}

        def clock():
            iterations["n"] += 1
            if iterations["n"] > 12:
                token.cancel("deadline")
            return iterations["n"] * 0.01

        search = DeploymentSearch.from_config(
            fattree4,
            inventory,
            AssessmentConfig(rounds=200, rng=5),
            rng=42,
            clock=clock,
            cancel=token,
            checkpoint_path=ckpt,
            checkpoint_every=1_000_000,  # only the final write fires
        )
        search.search(
            SearchSpec(STRUCTURE, max_seconds=1_000.0, max_iterations=10_000)
        )
        from repro import serialization
        from repro.core.search import SearchState

        state = serialization.decode(SearchState, serialization.load(ckpt))
        assert state.iterations > 0
