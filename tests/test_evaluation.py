"""Tests for structure evaluation (repro.core.evaluation).

The evaluator is checked against hand-computed semantics on controlled
failure patterns: K-of-N counting, the Fig. 6 two-tier walk-through, chain
propagation, and the greatest-fixed-point behaviour on meshed cores; and
against ``tests/percall_oracle.py::fixed_point_counts``, the fixed point
over every component that the settle step replaced, on random structures,
engines and states.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.generators import microservice_mesh, multilayer
from repro.app.structure import (
    EXTERNAL,
    ApplicationStructure,
    ComponentSpec,
    ReachabilityRequirement,
)
from repro.core.api import AssessmentConfig
from repro.core.evaluation import StructureEvaluator, active_counts, reliable
from repro.core.incremental import IncrementalAssessor
from repro.core.plan import DeploymentPlan
from repro.faults.inventory import build_paper_inventory, build_zone_inventory
from repro.routing.base import ReachabilityEngine, RoundStates, engine_for
from repro.routing.fattree_fast import FatTreeReachabilityEngine
from repro.topology.fattree import FatTreeTopology
from repro.topology.leafspine import LeafSpineTopology
from repro.topology.zones import MultiZoneTopology
from repro.util.metrics import MetricsRegistry
from tests.conftest import packed_states, unpack
from tests.percall_oracle import fixed_point_counts, int64_counts
from tests.structures import two_tier


@pytest.fixture
def engine(fattree4):
    return FatTreeReachabilityEngine(fattree4)


def _states(rounds=1, **failed_components):
    failed = {}
    for cid, rounds_failed in failed_components.items():
        cid = cid.replace("__", "/")
        vector = np.zeros(rounds, dtype=bool)
        vector[list(rounds_failed)] = True
        failed[cid] = vector
    return packed_states(rounds, failed)


class TestKofN:
    def test_all_alive_reliable(self, fattree4, engine):
        s = ApplicationStructure.k_of_n(2, 3)
        plan = DeploymentPlan.single_component(fattree4.hosts[:3], "app")
        reliable = StructureEvaluator(engine).evaluate(RoundStates(4, {}), plan, s)
        assert reliable.all()

    def test_counts_against_k(self, fattree4, engine):
        s = ApplicationStructure.k_of_n(2, 3)
        hosts = ["host/0/0/0", "host/1/0/0", "host/2/0/0"]
        plan = DeploymentPlan.single_component(hosts, "app")
        # Round 0: one host down (2 alive -> reliable).
        # Round 1: two hosts down (1 alive -> unreliable).
        states = _states(2, host__0__0__0={0, 1}, host__1__0__0={1})
        reliable = StructureEvaluator(engine).evaluate(states, plan, s)
        assert list(reliable) == [True, False]

    def test_edge_switch_failure_kills_rack(self, fattree4, engine):
        s = ApplicationStructure.k_of_n(2, 2)
        plan = DeploymentPlan.single_component(["host/0/0/0", "host/0/0/1"], "app")
        states = _states(1, edge__0__0={0})
        reliable = StructureEvaluator(engine).evaluate(states, plan, s)
        assert not reliable[0]

    def test_k_equals_n_needs_everyone(self, fattree4, engine):
        s = ApplicationStructure.k_of_n(3, 3)
        hosts = ["host/0/0/0", "host/1/0/0", "host/2/0/0"]
        plan = DeploymentPlan.single_component(hosts, "app")
        states = _states(1, host__2__0__0={0})
        assert not StructureEvaluator(engine).evaluate(states, plan, s)[0]

    def test_one_of_n_is_resilient(self, fattree4, engine):
        s = ApplicationStructure.k_of_n(1, 3)
        hosts = ["host/0/0/0", "host/1/0/0", "host/2/0/0"]
        plan = DeploymentPlan.single_component(hosts, "app")
        states = _states(1, host__0__0__0={0}, host__1__0__0={0})
        assert StructureEvaluator(engine).evaluate(states, plan, s)[0]


class TestTwoTierFig6:
    """The Fig. 6 walk-through: FE externally reachable, DB from alive FE."""

    @pytest.fixture
    def setup(self, fattree4, engine):
        structure = two_tier()  # 2 FE, 2 DB, K=1 each
        plan = DeploymentPlan.from_mapping(
            {
                "frontend": ["host/0/0/0", "host/1/0/0"],
                "database": ["host/0/1/0", "host/2/0/0"],
            }
        )
        return structure, plan, StructureEvaluator(engine)

    def test_healthy_round_reliable(self, setup):
        structure, plan, evaluator = setup
        assert evaluator.evaluate(RoundStates(1, {}), plan, structure)[0]

    def test_one_fe_one_db_suffices(self, setup):
        structure, plan, evaluator = setup
        states = _states(1, host__1__0__0={0}, host__2__0__0={0})
        assert evaluator.evaluate(states, plan, structure)[0]

    def test_all_fes_down_unreliable(self, setup):
        structure, plan, evaluator = setup
        states = _states(1, host__0__0__0={0}, host__1__0__0={0})
        assert not evaluator.evaluate(states, plan, structure)[0]

    def test_all_dbs_down_unreliable(self, setup):
        structure, plan, evaluator = setup
        states = _states(1, host__0__1__0={0}, host__2__0__0={0})
        assert not evaluator.evaluate(states, plan, structure)[0]

    def test_db_must_be_reachable_from_alive_fe(self, fattree4, engine):
        """A DB reachable only via a *dead* FE's position does not count.

        Kill FE2 and isolate pod 0 from the core (so FE1 in pod 0 is not
        externally reachable). DB in pod 0 can still physically reach FE1,
        but FE1 is not an *active* frontend, so the app is down.
        """
        structure = two_tier()
        plan = DeploymentPlan.from_mapping(
            {
                "frontend": ["host/0/0/0", "host/1/0/0"],
                "database": ["host/0/1/0", "host/0/1/1"],
            }
        )
        # FE2 dead; pod 0 cut from core by failing both its agg switches.
        states = _states(1, host__1__0__0={0}, agg__0__0={0}, agg__0__1={0})
        assert not StructureEvaluator(engine).evaluate(states, plan, structure)[0]
        # Same infra failures but FE2 alive: FE2 serves, but DBs (pod 0)
        # cannot be reached from FE2 (pod 0 is cut) -> still down.
        states = _states(1, agg__0__0={0}, agg__0__1={0})
        assert not StructureEvaluator(engine).evaluate(states, plan, structure)[0]


class TestMultilayerChains:
    def test_failure_propagates_down_chain(self, fattree4, engine):
        structure = multilayer(3, instances_per_layer=1, k_per_layer=1)
        plan = DeploymentPlan.from_mapping(
            {
                "layer0": ["host/0/0/0"],
                "layer1": ["host/1/0/0"],
                "layer2": ["host/2/0/0"],
            }
        )
        evaluator = StructureEvaluator(engine)
        # Top-layer host dead: every layer is effectively down.
        states = _states(1, host__0__0__0={0})
        assert not evaluator.evaluate(states, plan, structure)[0]
        # Middle-layer host dead: chain broken.
        states = _states(1, host__1__0__0={0})
        assert not evaluator.evaluate(states, plan, structure)[0]
        # Bottom-layer host dead: chain broken at the end.
        states = _states(1, host__2__0__0={0})
        assert not evaluator.evaluate(states, plan, structure)[0]
        # Nothing dead: fine.
        assert evaluator.evaluate(RoundStates(1, {}), plan, structure)[0]


class TestMeshFixedPoint:
    def test_mutual_requirements_converge(self, fattree4, engine):
        structure = microservice_mesh(
            2, 0, instances_per_component=2, k_per_component=1
        )
        plan = DeploymentPlan.from_mapping(
            {
                "core0": ["host/0/0/0", "host/1/0/0"],
                "core1": ["host/0/1/0", "host/2/0/0"],
            }
        )
        evaluator = StructureEvaluator(engine)
        assert evaluator.evaluate(RoundStates(1, {}), plan, structure)[0]
        # Kill one instance of each core: still 1-of-2 everywhere.
        states = _states(1, host__1__0__0={0}, host__2__0__0={0})
        assert evaluator.evaluate(states, plan, structure)[0]
        # Kill both instances of core1: core0 loses its partner too.
        states = _states(1, host__0__1__0={0}, host__2__0__0={0})
        assert not evaluator.evaluate(states, plan, structure)[0]

    def test_cascade_through_mesh(self, fattree4, engine):
        """Greatest fixed point: mutually-dependent cores die together.

        Both cores' instances are alive, but core0's requirement on core1
        fails because core1 is externally unreachable... external anchors
        only apply to core0 here, so cut core1's hosts from everything.
        """
        structure = microservice_mesh(
            2, 0, instances_per_component=1, k_per_component=1
        )
        plan = DeploymentPlan.from_mapping(
            {"core0": ["host/0/0/0"], "core1": ["host/1/0/0"]}
        )
        # Cut pod 1 (core1's pod) entirely from the fabric.
        states = _states(1, agg__1__0={0}, agg__1__1={0})
        assert not StructureEvaluator(engine).evaluate(states, plan, structure)[0]


class TestVectorisation:
    def test_multi_round_mixed_outcomes(self, fattree4, engine):
        structure = two_tier()
        plan = DeploymentPlan.from_mapping(
            {
                "frontend": ["host/0/0/0", "host/1/0/0"],
                "database": ["host/0/1/0", "host/2/0/0"],
            }
        )
        states = _states(
            4,
            host__0__0__0={1, 2},
            host__1__0__0={2},
            host__2__0__0={3},
        )
        reliable = StructureEvaluator(engine).evaluate(states, plan, structure)
        # r0 healthy; r1 one FE down; r2 both FEs down; r3 one DB down.
        assert list(reliable) == [True, True, False, True]

    def test_agrees_with_per_round_scalar(self, lossy_fattree4, rng):
        """Vectorised evaluation equals evaluating each round separately."""
        from repro.sampling.montecarlo import MonteCarloSampler

        engine = FatTreeReachabilityEngine(lossy_fattree4)
        structure = two_tier()
        plan = DeploymentPlan.from_mapping(
            {
                "frontend": ["host/0/0/0", "host/1/0/0"],
                "database": ["host/0/1/0", "host/2/1/1"],
            }
        )
        batch = MonteCarloSampler().sample(
            lossy_fattree4.failure_probabilities(), 200, rng
        )
        failed = {cid: unpack(row, 200) for cid, row in batch.failed_rows().items()}
        states = packed_states(200, failed)
        evaluator = StructureEvaluator(engine)
        vector = evaluator.evaluate(states, plan, structure)
        for i in range(200):
            single_failed = {
                cid: np.array([v[i]]) for cid, v in failed.items() if v[i]
            }
            single = evaluator.evaluate(packed_states(1, single_failed), plan, structure)
            assert vector[i] == single[0], i


class TestPackedCount:
    """``active_counts`` reduces the unpacked activity in the narrowest
    unsigned type that holds the instance count and widens once: the same
    values and dtype as the int64 sum it replaced
    (``tests/percall_oracle.py``)."""

    @given(
        instances=st.sampled_from([0, 1, 255, 256, 300]),
        rounds=st.integers(1, 70),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_the_int64_sum(self, instances, rounds, seed):
        states = RoundStates(rounds=rounds, failed={})
        # Random bytes, pad bits of the last byte included: they must drop.
        active = np.random.default_rng(seed).integers(
            0, 256, (instances, states.width), dtype=np.uint8
        )
        active[: seed % 3] = 0xFF  # some rows active in every round
        got = active_counts(states.unpack(active).view(np.uint8), rounds)
        want = int64_counts(states, active)
        assert got.dtype == want.dtype == np.intp
        assert np.array_equal(got, want)
        assert got.shape == (rounds,)


# ----------------------------------------------------------------------
# Settle, then fixed point: held to the fixed point over every component
# ----------------------------------------------------------------------

_FATTREE = FatTreeTopology(4, seed=1)
_LEAFSPINE = LeafSpineTopology(spines=4, leaves=6, hosts_per_leaf=3, seed=2)
_ZONES = MultiZoneTopology(zones=2, k=4, seed=1)
#: One substrate per engine: fat-tree, leaf-spine, generic (zones).
SUBSTRATES = {
    "fattree": (_FATTREE, build_paper_inventory(_FATTREE, seed=3)),
    "leafspine": (_LEAFSPINE, build_paper_inventory(_LEAFSPINE, seed=3)),
    "generic": (_ZONES, build_zone_inventory(_ZONES, seed=2)),
}


@st.composite
def mixed_structures(draw):
    """Blocks of external-only K-of-N components, layered chains and X-Y
    meshes (X mutually dependent cores, Y supports each core needs), with
    an optional cross-block pairwise requirement."""
    components: list[ComponentSpec] = []
    requirements: list[ReachabilityRequirement] = []

    def component(name: str) -> int:
        n = draw(st.integers(1, 2))
        components.append(ComponentSpec(name, n))
        return n

    def require(name: str, n: int, source: str) -> None:
        k = draw(st.integers(1, n))
        requirements.append(ReachabilityRequirement(name, source, k))

    for block in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["k_of_n", "chain", "mesh"]))
        if kind == "k_of_n":
            name = f"b{block}"
            require(name, component(name), EXTERNAL)
        elif kind == "chain":
            previous = EXTERNAL
            for layer in range(draw(st.integers(2, 3))):
                name = f"b{block}l{layer}"
                require(name, component(name), previous)
                previous = name
        else:
            cores = [f"b{block}c{i}" for i in range(2)]
            supports = [f"b{block}s{i}" for i in range(draw(st.integers(0, 1)))]
            sizes = {name: component(name) for name in cores + supports}
            require(cores[0], sizes[cores[0]], EXTERNAL)
            for core in cores:
                for other in cores + supports:
                    if other != core:
                        require(core, sizes[core], other)
    if len(components) > 1 and draw(st.booleans()):
        names = [spec.name for spec in components]
        target = draw(st.sampled_from(names))
        source = draw(st.sampled_from([n for n in names if n != target]))
        if not any(r.component == target and r.source == source for r in requirements):
            n = next(spec.instances for spec in components if spec.name == target)
            require(target, n, source)
    return ApplicationStructure(components, requirements)


def _assert_counts_equal(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype == np.intp
        assert np.array_equal(got[name], want[name]), name


class TestSettleThenFixedPoint:
    """``counts`` equals the fixed point over every component, element
    by element, on fresh states and on one states object grown across a
    move sequence as the incremental walk grows it."""

    @given(
        substrate=st.sampled_from(sorted(SUBSTRATES)),
        structure=mixed_structures(),
        rounds=st.integers(1, 130),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_fresh_states(self, substrate, structure, rounds, data):
        topology, _model = SUBSTRATES[substrate]
        engine = engine_for(topology)
        ids = sorted(topology.components)
        failing = data.draw(st.lists(st.sampled_from(ids), max_size=25, unique=True))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        failed = {cid: rng.random(rounds) < 0.3 for cid in failing}
        hosts = iter(data.draw(st.permutations(sorted(topology.hosts))))
        plan = DeploymentPlan.from_mapping(
            {
                spec.name: [next(hosts) for _ in range(spec.instances)]
                for spec in structure.components
            }
        )
        want = fixed_point_counts(engine, packed_states(rounds, failed), plan, structure)
        got = StructureEvaluator(engine).counts(
            packed_states(rounds, failed), plan, structure
        )
        _assert_counts_equal(got, want)

    @given(
        substrate=st.sampled_from(sorted(SUBSTRATES)),
        structure=mixed_structures(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_states_grown_across_a_walk(self, substrate, structure, seed):
        topology, model = SUBSTRATES[substrate]
        assessor = IncrementalAssessor.from_config(
            topology,
            model,
            AssessmentConfig(mode="incremental", rounds=100, master_seed=seed),
        )
        engine = assessor.engine
        rng = np.random.default_rng(seed)
        plan = DeploymentPlan.random(topology, structure, rng=rng)
        for _ in range(6):
            result = assessor.assess(plan, structure)
            # The walk's own states, settled rows and all, ...
            states = assessor._states
            got = StructureEvaluator(engine).counts(states, plan, structure)
            # ... against a copy of its rows that has settled nothing.
            fresh = RoundStates(rounds=states.rounds, failed=dict(states.failed))
            want = fixed_point_counts(engine, fresh, plan, structure)
            _assert_counts_equal(got, want)
            assert np.array_equal(result.per_round, reliable(structure, want))
            plan = plan.random_neighbor(topology, rng=rng)


class _AskedHosts(ReachabilityEngine):
    """An engine that records the hosts its external queries name."""

    def __init__(self, inner):
        super().__init__(inner.topology)
        self.inner = inner
        self.asked: list[str] = []

    def external_reachable(self, states, hosts):
        self.asked.extend(hosts)
        return self.inner.external_reachable(states, hosts)

    def pairwise_reachable(self, states, pairs):
        return self.inner.pairwise_reachable(states, pairs)


class TestSettledRowsAreKept:
    """A states object keeps every settled row: across plans an engine is
    asked about each external host once, and ``route/host`` counts one
    miss per such host and a hit per later lookup."""

    @pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
    def test_each_external_host_is_settled_once_per_states(self, substrate):
        topology, _model = SUBSTRATES[substrate]
        engine = _AskedHosts(engine_for(topology))
        metrics = MetricsRegistry()
        evaluator = StructureEvaluator(engine, metrics)
        rng = np.random.default_rng(4)
        rounds = 40
        failed = {
            cid: rng.random(rounds) < 0.3
            for cid in rng.choice(sorted(topology.components), 30, replace=False)
        }
        states = packed_states(rounds, failed)
        structure = two_tier(frontends=2, databases=2)
        plan = DeploymentPlan.random(topology, structure, rng=rng)
        lookups = 0
        frontends: list[str] = []
        for _ in range(8):
            got = evaluator.counts(states, plan, structure)
            want = fixed_point_counts(
                engine.inner, packed_states(rounds, failed), plan, structure
            )
            _assert_counts_equal(got, want)
            lookups += 2
            frontends += plan.hosts_for("frontend")
            plan = plan.random_neighbor(topology, rng=rng)
        distinct = list(dict.fromkeys(frontends))
        assert engine.asked == distinct
        assert metrics.counter("route/host/miss") == len(distinct)
        assert metrics.counter("route/host/hit") == lookups - len(distinct)
        kept = states.segments["settled"]
        assert sorted(host for host, needs in kept if needs) == sorted(distinct)
