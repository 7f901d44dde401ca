"""One compiled kernel per substrate version.

Every assessor and search on a (topology, dependency model) pair shares
the kernel :meth:`AssessmentKernel.of` returns for the substrate's
current generation: arena, compiled forest, closure layers, evaluation
orders and the symmetry screen's host-group tables. These tests hold the
sharing to its promises: a warm kernel answers exactly what a fresh
substrate answers, whatever ran on it before and in whatever order; the
four substrate-changing calls invalidate it; two threads share it
without compiling anything twice; and it stays bounded.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.app.structure import ApplicationStructure
from repro.core.analytic import AnalyticAssessor
from repro.core.anneal import MoveBudgetTemperatureSchedule
from repro.core.api import AssessmentConfig
from repro.core.assessment import ReliabilityAssessor
from repro.core.incremental import IncrementalAssessor
from repro.core.plan import DeploymentPlan
from repro.core.search import DeploymentSearch, SearchSpec
from repro.faults.component import Component, ComponentType
from repro.faults.faulttree import basic
from repro.faults.inventory import build_paper_inventory, build_zone_inventory
from repro.kernel import AssessmentKernel
from repro.kernel.compiler import CompiledForest
from repro.routing.base import engine_for
from repro.routing.fattree_fast import FatTreeReachabilityEngine
from repro.sampling.dagger import (
    CommonRandomDaggerSampler,
    DaggerSampler,
    ExtendedDaggerSampler,
)
from repro.sampling.montecarlo import MonteCarloSampler
from repro.topology.fattree import FatTreeTopology
from repro.topology.presets import paper_topology
from repro.topology.zones import MultiZoneTopology
from tests.graph_oracle import SurgeryGraphChecker
from tests.test_batched_search import FakeClock
from tests.test_cli import run_cli

MOVES = 8
STRUCTURE = ApplicationStructure.k_of_n(2, 3)


def _tiny():
    topology = paper_topology("tiny", seed=1)
    return topology, build_paper_inventory(topology, seed=2)


def _zones():
    topology = MultiZoneTopology(zones=2, k=4, seed=7)
    return topology, build_zone_inventory(topology, seed=7)


SUBSTRATES = {"tiny": _tiny, "zones": _zones}
#: One long-lived substrate each: warmed by every example that runs on it.
WARM = {name: build() for name, build in SUBSTRATES.items()}


def _search(topology, model, seed, rounds=300):
    return DeploymentSearch.from_config(
        topology,
        model,
        AssessmentConfig(rounds=rounds, rng=seed),
        rng=seed + 1,
        keep_trace=True,
        clock=FakeClock(),
        temperature_schedule=MoveBudgetTemperatureSchedule(MOVES),
    )


def _search_outcome(topology, model, seed):
    """Everything a search decides, its bits and where its streams end."""
    search = _search(topology, model, seed)
    result = search.search(SearchSpec(STRUCTURE, max_seconds=3600.0, max_iterations=MOVES))
    return (
        result.best_plan,
        result.best_assessment.per_round.tobytes(),
        result.trace,
        result.plans_assessed,
        result.plans_skipped_symmetric,
        search.rng.bit_generator.state,
        search.assessor.rng.bit_generator.state,
    )


SAMPLERS = [
    lambda: ExtendedDaggerSampler(),
    lambda: DaggerSampler(),
    lambda: MonteCarloSampler(),
    lambda: CommonRandomDaggerSampler(17),
]


def _assess_outcomes(topology, model, seed):
    """A plain assess with each of the four samplers: bits and rng state."""
    plan = DeploymentPlan.random(topology, STRUCTURE, rng=seed)
    outcomes = []
    for sampler in SAMPLERS:
        assessor = ReliabilityAssessor(
            topology, model, AssessmentConfig(rounds=257, rng=seed, sampler=sampler())
        )
        result = assessor.assess(plan, STRUCTURE)
        outcomes.append(
            (result.per_round.tobytes(), assessor.rng.bit_generator.state)
        )
    return outcomes


class TestHistoryIndependence:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        substrate=st.sampled_from(sorted(SUBSTRATES)),
        seed=st.integers(0, 2**16),
        warmup=st.permutations([101, 202, 303]),
        warm_calls=st.integers(1, 3),
    )
    def test_a_warm_kernel_answers_like_a_fresh_substrate(
        self, substrate, seed, warmup, warm_calls
    ):
        """Other searches, in any order, leave nothing a later search or
        assessment can see: same trajectory, bits and rng state as on a
        substrate built for the call alone."""
        topology, model = WARM[substrate]
        for other in warmup[:warm_calls]:
            _search_outcome(topology, model, other)
        fresh = SUBSTRATES[substrate]()
        assert _search_outcome(topology, model, seed) == _search_outcome(*fresh, seed)
        assert _assess_outcomes(topology, model, seed) == _assess_outcomes(*fresh, seed)


# ----------------------------------------------------------------------
# Invalidation
# ----------------------------------------------------------------------


def _network_override(topology, model):
    topology.override_probabilities({topology.hosts[0]: 0.02})


def _model_override(topology, model):
    model.override_probabilities({next(iter(model.dependency_components)): 0.02})


def _new_component(topology, model):
    model.add_dependency_component(
        Component("cooling/extra", ComponentType.COOLING, failure_probability=0.01)
    )


def _new_branch(topology, model):
    _new_component(topology, model)
    model.attach_branch(topology.hosts[0], basic("cooling/extra"))


MOVING_CALLS = [_network_override, _model_override, _new_component, _new_branch]


class TestGeneration:
    def _assessors(self, topology, model):
        config = AssessmentConfig(rounds=64, rng=1)
        return (
            ReliabilityAssessor(topology, model, config),
            IncrementalAssessor(topology, model, config.with_updates(mode="incremental")),
            AnalyticAssessor.from_config(topology, model, config),
        )

    def test_an_unchanged_substrate_keeps_its_kernel(self):
        topology = FatTreeTopology(4, seed=1)
        model = build_paper_inventory(topology, seed=3)
        kernel = AssessmentKernel.of(model)
        sequential, incremental, analytic = self._assessors(topology, model)
        sequential.refresh_probabilities()
        analytic.refresh_probabilities()
        for assessor in (sequential, incremental, analytic, analytic.inner):
            assert assessor.kernel is kernel
        assert AssessmentKernel.of(model) is kernel
        assert engine_for(topology) is sequential.engine is incremental.engine

    @pytest.mark.parametrize("move", MOVING_CALLS, ids=lambda f: f.__name__.strip("_"))
    def test_each_substrate_change_yields_a_new_kernel(self, move):
        topology = FatTreeTopology(4, seed=1)
        model = build_paper_inventory(topology, seed=3)
        before = AssessmentKernel.of(model)
        sequential, incremental, analytic = self._assessors(topology, model)
        move(topology, model)
        after = AssessmentKernel.of(model)
        assert after is not before and after.generation != before.generation
        (fresh,) = {a.kernel for a in self._assessors(topology, model)}
        assert fresh is after
        assert sequential.kernel is before  # until told to re-read
        sequential.refresh_probabilities()
        analytic.refresh_probabilities()
        for assessor in (sequential, analytic, analytic.inner):
            assert assessor.kernel is after
        assert incremental.kernel is before  # a search's own, for its life
        assert after.probabilities == model.failure_probabilities()


class TestSymmetryFollowsTheSubstrate:
    def test_no_stale_verdict_after_a_probability_change(self):
        """Regression: the filter's host groups carry probability classes.
        A host worn out from 0.0081 to 0.0261 (as
        ``examples/adaptive_redeployment.py`` does) is no longer symmetric
        to its rack neighbour, and the search must not skip the move that
        evacuates it."""
        topology, model = _tiny()
        search = DeploymentSearch.from_config(
            topology, model, AssessmentConfig(rounds=500, rng=1)
        )
        filt = search._symmetry_filter
        worn = DeploymentPlan.single_component(["host/0/0/0", "host/1/0/0"], "app")
        neighbour = DeploymentPlan.single_component(["host/0/0/1", "host/1/0/0"], "app")
        assert filt.equivalent(worn, neighbour)
        topology.override_probabilities({"host/0/0/0": 0.0261})
        search.assessor.refresh_probabilities()
        assert not SurgeryGraphChecker(topology, model).equivalent(worn, neighbour)
        assert not filt.equivalent(worn, neighbour)
        assert filt._kernel is search.assessor.kernel

    def test_filters_share_one_table_per_generation(self):
        topology, model = _tiny()
        first, second = (
            _search(topology, model, seed)._symmetry_filter for seed in (1, 2)
        )
        plans = [
            DeploymentPlan.single_component(hosts, "app")
            for hosts in (["host/0/0/0", "host/1/0/0"], ["host/0/1/0", "host/2/0/0"])
        ]
        first.equivalent(*plans)
        second.equivalent(*plans)
        assert first._host_groups is second._host_groups
        assert first._interned is second._interned


# ----------------------------------------------------------------------
# Concurrency and memory
# ----------------------------------------------------------------------


class TestSharedAcrossThreads:
    SEEDS = list(range(10))

    def test_two_threads_equal_the_serial_run_and_compile_once(self, monkeypatch):
        """Two threads each run five searches on one ``small`` substrate:
        every result equals the serial run's, and every subject is
        compiled into the shared forest exactly once."""
        small = paper_topology("small", seed=1)
        serial = {
            seed: _search_outcome(small, build_paper_inventory(small, seed=2), seed)
            for seed in self.SEEDS
        }

        model = build_paper_inventory(small, seed=2)
        compiled: list[str] = []
        ensure = CompiledForest.ensure_subject

        def counted(forest, subject_id, root):
            if subject_id not in forest.roots:
                compiled.append(subject_id)
            return ensure(forest, subject_id, root)

        monkeypatch.setattr(CompiledForest, "ensure_subject", counted)
        results: dict[int, tuple] = {}
        errors: list[BaseException] = []
        start = threading.Barrier(2)

        def worker(seeds):
            try:
                start.wait()
                for seed in seeds:
                    results[seed] = _search_outcome(small, model, seed)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(self.SEEDS[half::2],))
            for half in (0, 1)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert results == serial
        assert len(compiled) == len(set(compiled)) > 0
        assert set(compiled) == set(AssessmentKernel.of(model).forest.roots)


class TestBoundedMemory:
    def test_many_searches_keep_one_engine_and_bounded_layers(self):
        """200 searches on ``tiny`` keep one engine's layers, at most the
        core, every pod and every edge switch; a caller's own engine is
        dropped with its assessor."""
        topology, model = _tiny()
        for seed in range(200):
            DeploymentSearch.from_config(
                topology,
                model,
                AssessmentConfig(rounds=32, rng=seed),
                rng=seed,
                temperature_schedule=MoveBudgetTemperatureSchedule(3),
            ).search(SearchSpec(STRUCTURE, max_seconds=3600.0, max_iterations=3))
        kernel = AssessmentKernel.of(model)
        assert list(kernel._layer_memo) == [engine_for(topology)]
        pods = set(topology.edge_pod.values())
        layers = kernel._layer_memo[engine_for(topology)]
        assert len(layers) <= 1 + len(pods) + len(topology.edge_pod)

        own = ReliabilityAssessor(
            topology,
            model,
            AssessmentConfig(rounds=32, rng=1, engine=FatTreeReachabilityEngine(topology)),
        )
        own.assess(DeploymentPlan.random(topology, STRUCTURE, rng=1), STRUCTURE)
        assert len(kernel._layer_memo) == 2
        del own
        gc.collect()
        assert list(kernel._layer_memo) == [engine_for(topology)]


def test_search_profile_shows_the_kernel_counters(capsys):
    code, out, _err = run_cli(
        capsys,
        "search", "--scale", "tiny", "--k", "2", "--n", "3",
        "--seconds", "1", "--rounds", "500", "--profile",
    )
    assert code in (0, 3)
    for counter in (
        "kernel/substrate/hit",
        "kernel/substrate/miss",
        "kernel/subject/hit",
        "kernel/subject/miss",
    ):
        assert counter in out
