"""Compiled-kernel equivalence: packed states, flat forests, bit-identity.

The kernel's contract is that it never changes a single bit of what the
paper's pipeline computes — it only changes how states are stored and
combined. These tests pin that contract at every layer: packbits
round-trips (including round counts not divisible by 8), the component
arena, compiled-forest vs recursive-interpreter equality over random
fault-tree forests, every sampler's stream identity with the oracle's
reference samplers, and end-to-end
assessments on the fat-tree and leaf-spine presets, sequentially and
incrementally, against ``tests/interpreted_oracle.py``.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.structure import ApplicationStructure
from repro.core.api import AssessmentConfig, build_assessor
from repro.core.incremental import IncrementalAssessor
from repro.core.plan import DeploymentPlan
from repro.faults.faulttree import (
    FaultTree,
    and_gate,
    basic,
    k_of_n_gate,
    or_gate,
)
from repro.faults.component import link_id
from repro.faults.inventory import (
    build_paper_inventory,
    build_rich_inventory,
    build_zone_inventory,
)
from repro.kernel import (
    AssessmentKernel,
    ComponentArena,
    CompiledForest,
    PackedBatch,
    packed_width,
)
from repro.routing.base import RoundStates, engine_for
from repro.routing.generic import GenericReachabilityEngine
from repro.runtime.chaos import ZONE_OUTAGE_PROBABILITY
from repro.sampling import base as sampling_base
from repro.sampling.dagger import (
    CommonRandomDaggerSampler,
    DaggerSampler,
    ExtendedDaggerSampler,
)
from repro.sampling.montecarlo import MonteCarloSampler
from repro.service.executor import MIN_CHUNK_ROUNDS, chunked_assess
from repro.topology.fattree import FatTreeTopology
from repro.topology.leafspine import LeafSpineTopology
from repro.topology.presets import paper_topology
from repro.topology.zones import MultiZoneTopology
from repro.util.cancel import CancellationToken
from repro.util.errors import ConfigurationError
from repro.util.metrics import MetricsRegistry
from tests.conftest import failed_rounds, unpack
from tests.interpreted_oracle import (
    ZeroFill,
    assert_held_to_oracle,
    effective_states,
    evaluate,
    interpreted_assess,
    reference_sample,
    string_closure,
)
from tests.test_incremental import _count_calls
from tests.test_routing import fattree_ext_reference
from tests.unionfind_oracle import UnionFindReachabilityEngine, unpacked

# ---------------------------------------------------------------------------
# Shared substrates (hypothesis re-runs test bodies; build these once)
# ---------------------------------------------------------------------------

FATTREE = FatTreeTopology(4, seed=1)
FATTREE_INV = build_rich_inventory(FATTREE, seed=4)
LEAFSPINE = LeafSpineTopology(spines=4, leaves=6, hosts_per_leaf=3, seed=2)
LEAFSPINE_INV = build_paper_inventory(LEAFSPINE, seed=3)

EVENT_IDS = tuple(f"c{i}" for i in range(9))


def _samplers():
    return [
        MonteCarloSampler(),
        DaggerSampler(),
        ExtendedDaggerSampler(),
        CommonRandomDaggerSampler(master_seed=7),
    ]


# ---------------------------------------------------------------------------
# Packed representation
# ---------------------------------------------------------------------------


class TestPackedEdgeCases:
    @pytest.mark.parametrize("rounds", [1, 7, 8, 9, 13, 64, 501])
    def test_pack_unpack_roundtrip(self, rounds):
        rng = np.random.default_rng(rounds)
        dense = rng.random((5, rounds)) < 0.3
        packed = np.packbits(dense, axis=1)
        assert packed.shape == (5, packed_width(rounds))
        assert np.array_equal(unpack(packed, rounds), dense)
        for row in range(5):
            assert np.array_equal(unpack(packed[row], rounds), dense[row])

    @pytest.mark.parametrize("rounds", [1, 7, 8, 9, 13])
    def test_pack_indices_matches_dense_scatter(self, rounds):
        """Every sampler packs its failed rounds itself (the dagger ones
        scatter each round's bit into its byte): each row equals packing
        the dense scatter of the reference's failed rounds, pads and all,
        with several hits to a byte and rows ending mid-byte."""
        probs = {"a": 0.5, "b": 0.6, "c": ZONE_OUTAGE_PROBABILITY, "d": 0.3}
        for sampler in _samplers():
            batch = sampler.sample(probs, rounds, np.random.default_rng(rounds + 100))
            expected = reference_sample(
                sampler, probs, rounds, np.random.default_rng(rounds + 100)
            )
            for cid, row in zip(batch.component_ids, batch.matrix):
                dense = np.zeros(rounds, dtype=bool)
                dense[expected.get(cid, [])] = True
                assert np.array_equal(row, np.packbits(dense)), (sampler.name, cid)

    def test_pad_bits_of_failure_rows_are_zero(self):
        # p = 0.999999 fails all 9 rounds: 2 bytes, the last with 7 pad bits.
        for sampler in _samplers():
            batch = sampler.sample(
                {"x": ZONE_OUTAGE_PROBABILITY}, 9, np.random.default_rng(1)
            )
            row = batch.failed_rows()["x"]
            assert row.tolist() == [0xFF, 0b1000_0000], sampler.name

    def test_rejects_nonpositive_rounds(self):
        with pytest.raises(ConfigurationError):
            packed_width(0)
        with pytest.raises(ConfigurationError):
            PackedBatch(rounds=0)

    @pytest.mark.parametrize("rounds", [1, 9, 501])
    def test_sample_batch_roundtrip(self, rounds):
        """A sampled batch read back as sparse rows: ``failed_rows`` and
        the ``nonzero`` flags name exactly the components that failed, in
        draw order, each row unpacking to the reference's failed rounds;
        ``only`` keeps the rows of a subset."""
        sampler = ExtendedDaggerSampler()
        probs = {cid: 0.05 for cid in EVENT_IDS}
        batch = sampler.sample(probs, rounds, np.random.default_rng(5))
        expected = reference_sample(sampler, probs, rounds, np.random.default_rng(5))
        rows = batch.failed_rows()
        assert list(rows) == list(expected)
        flagged = [cid for cid, flag in zip(batch.component_ids, batch.nonzero) if flag]
        assert flagged == list(expected)
        for cid, failed in expected.items():
            assert np.array_equal(np.flatnonzero(unpack(rows[cid], rounds)), failed)
        subset = set(EVENT_IDS[::2])
        assert list(batch.failed_rows(subset)) == [c for c in expected if c in subset]


class TestComponentArena:
    def test_roundtrip_and_order(self):
        model = FATTREE_INV
        arena = ComponentArena.for_model(model)
        probabilities = model.failure_probabilities()
        assert arena.ids == tuple(probabilities)
        for i, cid in enumerate(arena.ids):
            assert arena.index_of(cid) == i
            assert arena.id_of(i) == cid
            assert cid in arena
        assert np.array_equal(
            arena.indices_of(arena.ids[:5]), np.arange(5, dtype=np.int32)
        )
        assert arena.probabilities is not None
        assert arena.probabilities[arena.index_of(arena.ids[3])] == pytest.approx(
            probabilities[arena.ids[3]]
        )

    def test_unknown_component_raises(self):
        arena = ComponentArena(["a", "b"])
        with pytest.raises(ConfigurationError):
            arena.index_of("missing")
        with pytest.raises(ConfigurationError):
            arena.id_of(7)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            ComponentArena(["a", "a"])


# ---------------------------------------------------------------------------
# Compiled forest vs the recursive interpreter (random forests)
# ---------------------------------------------------------------------------


def _gate_nodes(children):
    ors = st.lists(children, min_size=1, max_size=4).map(lambda cs: or_gate(*cs))
    ands = st.lists(children, min_size=1, max_size=4).map(lambda cs: and_gate(*cs))
    kofns = st.lists(children, min_size=2, max_size=5).flatmap(
        lambda cs: st.integers(1, len(cs)).map(lambda k: k_of_n_gate(k, *cs))
    )
    return st.one_of(ors, ands, kofns)


tree_nodes = st.recursive(
    st.sampled_from(EVENT_IDS).map(basic), _gate_nodes, max_leaves=12
)


class TestCompiledForestEquality:
    @given(
        roots=st.lists(tree_nodes, min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        rounds=st.sampled_from([1, 7, 8, 9, 40, 501]),
        p=st.floats(0.05, 0.6),
    )
    @settings(max_examples=150, deadline=None)
    def test_forest_matches_interpreter(self, roots, seed, rounds, p):
        """Shared random forests evaluate bit-identically to Gate recursion."""
        arena = ComponentArena(EVENT_IDS)
        forest = CompiledForest(arena)
        subjects = {}
        for i, root in enumerate(roots):
            subject = f"s{i}"
            forest.ensure_subject(subject, root)
            subjects[subject] = FaultTree(subject_id=subject, root=root)

        rng = np.random.default_rng(seed)
        dense = rng.random((len(EVENT_IDS), rounds)) < p
        packed = np.packbits(dense, axis=1)
        nonzero = dense.any(axis=1)

        def leaf_row(op):
            return packed[op] if nonzero[op] else None

        compiled = forest.evaluate(subjects, leaf_row)
        states = {cid: dense[i] for i, cid in enumerate(EVENT_IDS)}
        for subject, tree in subjects.items():
            expected = evaluate(tree, states)
            row = compiled[subject]
            got = (
                np.zeros(rounds, dtype=bool)
                if row is None
                else unpack(row, rounds)
            )
            assert np.array_equal(got, expected)

    def test_dedup_across_subjects(self):
        shared = and_gate(basic("c0"), basic("c1"))
        forest = CompiledForest(ComponentArena(EVENT_IDS))
        forest.ensure_subject("a", or_gate(basic("c2"), shared))
        forest.ensure_subject("b", or_gate(basic("c3"), shared))
        stats = forest.stats()
        # The shared AND gate and its two leaves are interned once.
        assert stats.dedup_hits >= 3
        assert stats.subjects == 2

    def test_degenerate_kofn_canonicalised(self):
        forest = CompiledForest(ComponentArena(EVENT_IDS))
        as_or = k_of_n_gate(1, basic("c0"), basic("c1"))
        as_and = k_of_n_gate(2, basic("c0"), basic("c1"))
        root_or = forest.ensure_subject("o", as_or)
        root_and = forest.ensure_subject("a", as_and)
        assert forest.ensure_subject("o2", or_gate(basic("c0"), basic("c1"))) == root_or
        assert (
            forest.ensure_subject("a2", and_gate(basic("c0"), basic("c1"))) == root_and
        )

    def test_unknown_subject_raises(self):
        forest = CompiledForest(ComponentArena(EVENT_IDS))
        with pytest.raises(ConfigurationError):
            forest.evaluate(["nope"], lambda op: None)


class TestScalarEvaluateRound:
    @given(
        root=tree_nodes,
        failed=st.sets(st.sampled_from(EVENT_IDS), max_size=len(EVENT_IDS)),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_vectorised_single_round(self, root, failed):
        tree = FaultTree(subject_id="s", root=root)
        states = {cid: np.array([cid in failed]) for cid in EVENT_IDS}
        assert tree.evaluate_round(failed) == bool(evaluate(tree, states)[0])


# ---------------------------------------------------------------------------
# Samplers against the oracle's reference samplers (stream identity)
# ---------------------------------------------------------------------------


def _assert_draws_like_the_reference(sampler, probs, rounds, seed):
    """Production ``sample`` and its reference from one seed: the same
    failed rows in the same order, ``nonzero`` flags that say which, and
    the generator left in the same state."""
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    batch = sampler.sample(probs, rounds, rng_a)
    expected = reference_sample(sampler, probs, rounds, rng_b)
    got = failed_rounds(batch)
    assert list(got) == list(expected), sampler.name
    for cid, failed in expected.items():
        assert np.array_equal(got[cid], failed), (sampler.name, cid)
    assert set(batch.component_ids) == {c for c, p in probs.items() if p > 0}
    assert batch.nonzero.tolist() == [cid in expected for cid in batch.component_ids]
    assert rng_a.bit_generator.state == rng_b.bit_generator.state, sampler.name


class TestSamplerFastPaths:
    PROBS = {f"x{i}": p for i, p in enumerate([0.001, 0.01, 0.05, 0.0, 0.02] * 8)}

    @pytest.mark.parametrize("rounds", [1, 7, 9, 501, 4000])
    @pytest.mark.parametrize(
        "sampler", [MonteCarloSampler(), ExtendedDaggerSampler()], ids=lambda s: s.name
    )
    def test_packed_matches_legacy_draws(self, sampler, rounds):
        _assert_draws_like_the_reference(sampler, self.PROBS, rounds, 42)

    @given(
        levels=st.lists(
            st.sampled_from([0.0, 0.9, 0.6, 0.5, 0.45, 0.3, 0.125, 0.05, 0.003]),
            min_size=1,
            max_size=5,
        ),
        picks=st.lists(st.integers(0, 4), min_size=1, max_size=30),
        rounds=st.sampled_from([1, 7, 8, 9, 64, 65, 501, 4099]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_extended_dagger_packs_crowded_bytes(self, levels, picks, rounds, seed):
        """Cycles shorter than a byte put several hits of one component in
        one byte, and mixed levels exercise the first-appearance group
        order; rows, the nonzero flags and the stream position must all
        match the reference."""
        probs = {f"c{i}": levels[k % len(levels)] for i, k in enumerate(picks)}
        _assert_draws_like_the_reference(ExtendedDaggerSampler(), probs, rounds, seed)

    @given(
        levels=st.lists(
            st.one_of(
                st.floats(min_value=1e-4, max_value=0.999),
                st.sampled_from([0.0, 0.5, 0.75, 0.25, 0.01, ZONE_OUTAGE_PROBABILITY]),
            ),
            min_size=1,
            max_size=6,
        ),
        picks=st.lists(st.integers(0, 5), min_size=0, max_size=40),
        rounds=st.one_of(st.integers(1, 3_000), st.sampled_from([1, 7, 9, 2_999])),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_sampler_equals_its_reference(self, levels, picks, rounds, seed):
        """Every production ``sample`` against its reference sampler in
        ``tests/interpreted_oracle.py``, written from §3.2.2's definitions:
        maps with zeros, repeated levels, ``p >= 0.5`` and the zone-outage
        probability, any round count up to 3 000."""
        probs = {f"c{i}": levels[k % len(levels)] for i, k in enumerate(picks)}
        for sampler in _samplers():
            _assert_draws_like_the_reference(sampler, probs, rounds, seed)

    @pytest.mark.parametrize("rounds", [9, 501])
    def test_crn_packed_matches_legacy(self, rounds):
        _assert_draws_like_the_reference(
            CommonRandomDaggerSampler(master_seed=7), self.PROBS, rounds, 0
        )

    def test_rng_stream_position_identical_after_sampling(self):
        """A kernel assessment must leave the shared rng exactly where the
        reference leaves it, or subsequent assessments diverge."""
        for sampler in (MonteCarloSampler(), ExtendedDaggerSampler(), DaggerSampler()):
            rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
            sampler.sample(self.PROBS, 501, rng_a)
            reference_sample(sampler, self.PROBS, 501, rng_b)
            assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize(
        "sampler",
        [
            MonteCarloSampler(),
            ExtendedDaggerSampler(),
            DaggerSampler(),
            CommonRandomDaggerSampler(master_seed=7),
        ],
        ids=lambda s: s.name,
    )
    def test_sampling_started_seam_fires_once_per_entry(self, sampler):
        """The fleet and cancellation chaos tests gate on this seam; it must
        fire on every entry a worker can take, validation or no validation."""
        fired = []
        sampling_base.set_sampling_started_hook(lambda: fired.append(1))
        try:
            for rounds in (64, 64, 9):  # a repeated map must fire again
                fired.clear()
                sampler.sample(self.PROBS, rounds, np.random.default_rng(1))
                assert len(fired) == 1
            structure = ApplicationStructure.k_of_n(2, 3)
            assessor = build_assessor(
                FATTREE, FATTREE_INV, AssessmentConfig(rounds=64, rng=1, sampler=sampler)
            )
            fired.clear()
            assessor.assess(_plan_for(FATTREE, structure), structure)
            assert len(fired) == 1
        finally:
            sampling_base.set_sampling_started_hook(None)

    def test_packed_entry_validates_every_call(self):
        sampler = ExtendedDaggerSampler()
        probs = dict(self.PROBS)
        sampler.sample(probs, 64, np.random.default_rng(1))
        probs["x0"] = 1.5  # same object, mutated: no cache may hide it
        with pytest.raises(ConfigurationError):
            sampler.sample(probs, 64, np.random.default_rng(1))

    def test_incremental_draws_fire_the_seam_once_per_extension(self):
        fired = []
        sampling_base.set_sampling_started_hook(lambda: fired.append(1))
        try:
            assessor = build_assessor(
                FATTREE,
                FATTREE_INV,
                AssessmentConfig(rounds=64, mode="incremental", master_seed=3),
            )
            structure = ApplicationStructure.k_of_n(2, 3)
            plan = _plan_for(FATTREE, structure)
            assessor.assess(plan, structure)
            assert len(fired) == 1
            assessor.assess(plan, structure)  # plan cache: nothing drawn
            assert len(fired) == 1
        finally:
            sampling_base.set_sampling_started_hook(None)


# ---------------------------------------------------------------------------
# End-to-end bit-identity
# ---------------------------------------------------------------------------


def _plan_for(topology, structure, offset=0):
    count = structure.total_instances
    hosts = list(topology.hosts)[offset : offset + count]
    return DeploymentPlan.single_component(hosts, structure.components[0].name)


SUBSTRATES = [
    pytest.param(FATTREE, FATTREE_INV, id="fattree"),
    pytest.param(LEAFSPINE, LEAFSPINE_INV, id="leafspine"),
]


def _held_to_oracle(topology, inventory, config, plans, structure):
    """The production pipeline of ``config`` against the interpreted oracle,
    twice: under the topology's own engine, which the oracle drives through
    its pack/unpack door (everything around route-and-check independent),
    and under the per-round union-find, which the *production* pipeline
    drives through the union-find's door (nothing shared at all)."""
    for engine in (engine_for(topology), UnionFindReachabilityEngine(topology)):
        assessor = build_assessor(
            topology, inventory, config.with_updates(engine=engine)
        )
        assert_held_to_oracle(assessor, plans, structure)


LAYERED = ApplicationStructure.from_requirement_map(
    {"web": 2, "app": 3, "db": 2},
    {("app", "web"): 1, ("db", "app"): 2},
)


def _layered_plan(topology):
    hosts = list(topology.hosts)[:7]
    return DeploymentPlan.from_mapping(
        {"web": hosts[:2], "app": hosts[2:5], "db": hosts[5:7]}
    )


class TestAssessmentBitIdentity:
    @pytest.mark.parametrize("topology,inventory", SUBSTRATES)
    @pytest.mark.parametrize("rounds", [501, 3000])
    def test_sequential_assess(self, topology, inventory, rounds):
        structure = ApplicationStructure.k_of_n(3, 5)
        _held_to_oracle(
            topology,
            inventory,
            AssessmentConfig(rounds=rounds, rng=7),
            [_plan_for(topology, structure)],
            structure,
        )

    @pytest.mark.parametrize("topology,inventory", SUBSTRATES)
    def test_sequential_assess_stays_identical_across_calls(
        self, topology, inventory
    ):
        """Back-to-back assessments share one rng; streams must not drift."""
        structure = ApplicationStructure.k_of_n(2, 4)
        hosts = list(topology.hosts)
        plans = [
            DeploymentPlan.single_component(
                hosts[offset : offset + 4], structure.components[0].name
            )
            for offset in (0, 2, 4)
        ]
        _held_to_oracle(
            topology, inventory, AssessmentConfig(rounds=501, rng=13), plans, structure
        )

    def test_structured_application(self):
        """Pairwise reachability and the packed fixed point agree with the
        per-round definition too."""
        config = AssessmentConfig(rounds=1001, rng=21)
        for topology, inventory in ((FATTREE, FATTREE_INV), (LEAFSPINE, LEAFSPINE_INV)):
            _held_to_oracle(
                topology, inventory, config, [_layered_plan(topology)], LAYERED
            )

    def test_round_reading_engine_is_driven_by_the_one_pipeline(self):
        # The per-round union-find stands in for a user-supplied engine
        # that reads individual rounds: the one pipeline hands it packed
        # rows like any other, and it agrees bit for bit with the shipped
        # generic engine (the same connectivity semantics) in every mode.
        structure = ApplicationStructure.k_of_n(5, 5)
        plan = _plan_for(FATTREE, structure)
        for mode in ("sequential", "incremental"):
            results = [
                build_assessor(
                    FATTREE,
                    FATTREE_INV,
                    AssessmentConfig(
                        rounds=501, rng=7, mode=mode, master_seed=5, engine=engine
                    ),
                ).assess(plan, structure)
                for engine in (
                    UnionFindReachabilityEngine(FATTREE),
                    GenericReachabilityEngine(FATTREE),
                )
            ]
            assert np.array_equal(results[0].per_round, results[1].per_round)
            assert results[0].estimate == results[1].estimate
            assert 0.0 < results[0].estimate.score < 1.0


class TestKernelIsTheDefault:
    ZONES = MultiZoneTopology(zones=2, k=4, seed=7)

    @pytest.mark.parametrize(
        "topology,inventory",
        SUBSTRATES + [pytest.param(ZONES, build_zone_inventory(ZONES, seed=7), id="zones")],
    )
    @pytest.mark.parametrize("mode", ["sequential", "incremental"])
    def test_default_config_builds_a_kernel(self, topology, inventory, mode):
        assert build_assessor(topology, inventory, AssessmentConfig()).kernel is not None
        assessor = build_assessor(topology, inventory, AssessmentConfig(mode=mode))
        assert isinstance(assessor.kernel, AssessmentKernel)

    def test_a_round_reading_engine_gets_a_kernel_too(self):
        config = AssessmentConfig(engine=UnionFindReachabilityEngine(FATTREE))
        assessor = build_assessor(FATTREE, FATTREE_INV, config)
        assert isinstance(assessor.kernel, AssessmentKernel)

    def test_arena_table_is_interned_once_per_model(self):
        """One kernel per substrate version; a probability change builds
        the next one on the same interned id table."""
        first = build_assessor(FATTREE, FATTREE_INV, AssessmentConfig())
        second = build_assessor(
            FATTREE, FATTREE_INV, AssessmentConfig(mode="incremental")
        )
        assert first.kernel is second.kernel
        before = first.kernel
        first.refresh_probabilities()
        assert first.kernel is before  # nothing moved
        FATTREE_INV.override_probabilities({})
        first.refresh_probabilities()
        assert first.kernel is not before  # fresh probability vector
        assert first.kernel.arena.ids is before.arena.ids
        assert first.kernel.arena.index is before.arena.index


class TestIncrementalKernel:
    def test_move_walk_bit_identity(self):
        structure = ApplicationStructure.k_of_n(3, 5)
        config = AssessmentConfig(rounds=1001, mode="incremental", master_seed=123)
        hosts = list(FATTREE.hosts)
        rng = np.random.default_rng(11)
        current = hosts[:5]
        plans = []
        for _ in range(12):
            plans.append(
                DeploymentPlan.single_component(current, structure.components[0].name)
            )
            slot = int(rng.integers(0, 5))
            candidates = [h for h in hosts if h not in current]
            current = list(current)
            current[slot] = candidates[int(rng.integers(0, len(candidates)))]
        _held_to_oracle(FATTREE, FATTREE_INV, config, plans, structure)

    def test_walk_across_pods_tracks_growing_closure(self):
        # Regression: the packed fat-tree engine caches its core, pod and
        # edge blocks on the states object, and the incremental assessor
        # reuses ONE states object whose failed dict only grows. A block
        # must therefore read nothing a later plan can still register —
        # a whole-fabric matrix built while another pod was unsampled
        # once served that pod stale all-alive rows. Needs enough rounds
        # that newly registered scaffold elements actually fail somewhere.
        structure = ApplicationStructure.k_of_n(2, 3)
        config = AssessmentConfig(
            rounds=2000, mode="incremental", master_seed=20170412
        )
        rng = np.random.default_rng(11)
        plans = [DeploymentPlan.random(FATTREE, structure, rng=rng)]
        for _ in range(10):
            plans.append(plans[-1].random_neighbor(FATTREE, rng=rng))
        _held_to_oracle(FATTREE, FATTREE_INV, config, plans, structure)

    def test_clear_caches_resets_kernel_universe(self):
        structure = ApplicationStructure.k_of_n(2, 4)
        config = AssessmentConfig(
            rounds=501, mode="incremental", master_seed=9
        )
        assessor = build_assessor(FATTREE, FATTREE_INV, config)
        plan = _plan_for(FATTREE, structure)
        first = assessor.assess(plan, structure)
        assessor.clear_caches()
        assert not assessor._rows and not assessor._forest_values
        again = assessor.assess(plan, structure)
        assert np.array_equal(first.per_round, again.per_round)


    def test_kernel_is_the_substrates_own(self):
        """No caller hands an assessor a kernel: each gets its own
        substrate's, so another model's over the same topology cannot be
        assessed on silently."""
        config = AssessmentConfig(rounds=64, mode="incremental", master_seed=1)
        other_model = build_paper_inventory(FATTREE, seed=3)
        own = IncrementalAssessor(FATTREE, FATTREE_INV, config).kernel
        other = IncrementalAssessor(FATTREE, other_model, config).kernel
        assert own is AssessmentKernel.of(FATTREE_INV)
        assert other is AssessmentKernel.of(other_model) and other is not own
        assert other.dependency_model is other_model
        with pytest.raises(TypeError):
            IncrementalAssessor(FATTREE, FATTREE_INV, config, kernel=own)


class TestScorePlans:
    def test_crn_shared_batch_equals_individual_assessments(self):
        """Bits, estimate and the sampled component count."""
        structure = ApplicationStructure.k_of_n(3, 5)
        hosts = list(FATTREE.hosts)
        plans = [
            DeploymentPlan.single_component(
                hosts[i : i + 5], structure.components[0].name
            )
            for i in (0, 3, 7)
        ]
        config = AssessmentConfig(
            rounds=1001, rng=3, sampler=CommonRandomDaggerSampler(99)
        )
        shared = build_assessor(FATTREE, FATTREE_INV, config)
        results = shared.score_plans(plans, structure)
        assert [r.plan for r in results] == plans
        for plan, result in zip(plans, results):
            solo = build_assessor(FATTREE, FATTREE_INV, config).assess(
                plan, structure
            )
            assert np.array_equal(solo.per_round, result.per_round)
            assert solo.estimate == result.estimate
            assert solo.sampled_components == result.sampled_components

    def test_single_plan_batch_equals_assess(self):
        # A non-CRN sampler sees the draw order, and the shared batch draws
        # in arena order where assess draws in sorted-closure order.
        structure = ApplicationStructure.k_of_n(2, 4)
        plans = [_plan_for(FATTREE, structure)]
        config = AssessmentConfig(rounds=501, rng=5)
        assessor = build_assessor(FATTREE, FATTREE_INV, config)
        results = assessor.score_plans(plans, structure)
        reference = build_assessor(FATTREE, FATTREE_INV, config).assess(
            plans[0], structure
        )
        assert np.array_equal(results[0].per_round, reference.per_round)


ZONES = MultiZoneTopology(zones=2, k=4, seed=7)
ZONES_INV = build_zone_inventory(ZONES, seed=7)


class TestOneClosure:
    """The kernel's arena-mask closure against the string-set closure it
    replaced (``tests/interpreted_oracle.py::string_closure``), and the
    from-scratch assessor's draws against that closure's."""

    @pytest.mark.parametrize(
        "topology,inventory,engine",
        [
            pytest.param(FATTREE, FATTREE_INV, None, id="fattree"),
            pytest.param(LEAFSPINE, LEAFSPINE_INV, None, id="leafspine"),
            pytest.param(
                FATTREE, FATTREE_INV, GenericReachabilityEngine(FATTREE), id="generic"
            ),
            pytest.param(ZONES, ZONES_INV, None, id="zones"),
        ],
    )
    def test_kernel_closure_equals_the_string_closure(self, topology, inventory, engine):
        engine = engine or engine_for(topology)
        kernel = AssessmentKernel(topology, inventory)
        host_memo = {}
        rng = np.random.default_rng(3)
        ids_in = kernel.arena.ids_in
        for size in (1, 2, 3, 5, 5, 8):
            hosts = [str(h) for h in rng.choice(topology.hosts, size, replace=False)]
            subjects, sampled = string_closure(topology, inventory, engine, hosts)
            # Cold or warm layers, with or without a host memo: one closure.
            for memo in (None, host_memo):
                got_subjects, got_sampled = kernel.closure_masks(
                    engine, hosts, host_memo=memo
                )
                assert set(ids_in(got_subjects)) == subjects
                assert sorted(ids_in(got_sampled)) == sampled

    @pytest.mark.parametrize(
        "sampler",
        [
            ExtendedDaggerSampler(),
            DaggerSampler(),
            MonteCarloSampler(),
            CommonRandomDaggerSampler(17),
        ],
        ids=lambda sampler: sampler.name,
    )
    def test_assess_draws_the_string_closures_stream(self, sampler):
        """Only the components that can fail reach the sampler, ranked by
        id: every sampler draws what it drew from the whole closure in
        sorted order, and leaves the generator where it left it."""
        structure = ApplicationStructure.k_of_n(3, 5)
        assessor = build_assessor(
            FATTREE, FATTREE_INV, AssessmentConfig(rounds=701, rng=5, sampler=sampler)
        )
        reference = copy.deepcopy(assessor.rng)
        probabilities = FATTREE_INV.failure_probabilities()
        for offset in (0, 3, 7):
            plan = _plan_for(FATTREE, structure, offset)
            _, closure = string_closure(
                FATTREE, FATTREE_INV, assessor.engine, plan.hosts()
            )
            assert any(probabilities[cid] == 0.0 for cid in closure)
            got = assessor.assess(plan, structure)
            per_round, sampled = interpreted_assess(
                FATTREE, FATTREE_INV, plan, structure, 701, sampler, reference,
                assessor.engine,
            )
            assert np.array_equal(got.per_round, per_round), offset
            assert got.sampled_components == sampled == len(closure)
            assert assessor.rng.bit_generator.state == reference.bit_generator.state


class TestKernelObject:
    def test_effective_states_match_legacy_faulttree_stage(self):
        kernel = AssessmentKernel(FATTREE, FATTREE_INV)
        sampler = ExtendedDaggerSampler()
        probabilities = FATTREE_INV.failure_probabilities()
        rounds = 501
        batch = sampler.sample(probabilities, rounds, np.random.default_rng(2))
        subjects = {
            cid for cid in FATTREE.graph if cid in FATTREE_INV.trees
        } or set(list(FATTREE.graph)[:8])
        failed = kernel.effective_states(
            subjects, set(probabilities) - subjects, batch.failed_rows()
        )
        reference = reference_sample(
            sampler, probabilities, rounds, np.random.default_rng(2)
        )
        dense = ZeroFill(rounds)
        for cid, failed_at in reference.items():
            dense[cid] = np.zeros(rounds, dtype=bool)
            dense[cid][failed_at] = True
        expected = effective_states(
            FATTREE_INV, subjects, set(probabilities) - subjects, dense
        )
        assert failed.keys() == expected.keys()
        for cid, vector in expected.items():
            assert np.array_equal(unpack(failed[cid], rounds), vector), cid

    def test_repr_mentions_arena_size(self):
        kernel = AssessmentKernel(FATTREE, FATTREE_INV)
        assert "components" in repr(kernel)


# ---------------------------------------------------------------------------
# Count guards: what the packed path may read and keep, as exact counts
# ---------------------------------------------------------------------------


class _CountingRows(dict):
    """A failed-rows mapping that counts every read."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


class TestFatTreeBlocksReadOnlyWhatAPlanNeeds:
    """`medium` has radix 12: 300 core-layer rows, 156 a pod, 13 an edge
    switch, 2 a host. The whole fabric is 7 788."""

    ROUNDS = 256

    @pytest.fixture(scope="class")
    def medium(self):
        return paper_topology("medium", seed=1)

    def _states(self, engine, hosts, seed=5):
        """Packed states with a fifth of the hosts' closure failing somewhere."""
        rng = np.random.default_rng(seed)
        failed = _CountingRows()
        for cid in sorted(engine.relevant_elements(hosts)):
            if rng.random() < 0.2:
                failed[cid] = np.packbits(rng.random(self.ROUNDS) < 0.3)
        return RoundStates(rounds=self.ROUNDS, failed=failed)

    def test_rows_read_scale_with_the_plan_not_the_fabric(self, medium):
        engine = engine_for(medium)
        rng = np.random.default_rng(3)
        hosts = [medium.hosts[i] for i in rng.choice(len(medium.hosts), 10, False)]
        edges = {medium.edge_switch_of(h) for h in hosts}
        pods = {medium.edge_pod[e] for e in edges}
        # One more host under an edge of the plan, one under a new edge of
        # one of its pods: both inside the universe the states cover.
        edge = medium.edge_switch_of(hosts[0])
        sibling = next(
            h for h in medium.hosts
            if medium.edge_switch_of(h) == edge and h not in hosts
        )
        cousin = next(
            h for h in medium.hosts
            if medium.edge_pod[medium.edge_switch_of(h)] == medium.edge_pod[edge]
            and medium.edge_switch_of(h) not in edges
        )
        states = self._states(engine, hosts + [sibling, cousin])
        rows = states.failed

        rows.reads = 0
        got = engine.external_reachable(states, hosts)
        assert rows.reads <= 300 + 156 * len(pods) + 13 * len(edges) + 2 * len(hosts)
        rows.reads = 0
        got.update(engine.external_reachable(states, [sibling]))
        assert rows.reads <= 2
        rows.reads = 0
        got.update(engine.external_reachable(states, [cousin]))
        assert rows.reads <= 15
        rows.reads = 0
        engine.external_reachable(states, hosts)
        assert rows.reads <= 2 * len(hosts)

        # The same answers as the per-round brute-force up-down reference.
        dense = unpacked(states)
        for host, row in got.items():
            want = [
                fattree_ext_reference(medium, dense, host, i)
                for i in range(self.ROUNDS)
            ]
            assert np.array_equal(unpack(row, self.ROUNDS), want), host

    def test_closure_is_assembled_from_the_block_layouts(self, medium):
        engine = engine_for(medium)
        host = medium.hosts[100]
        edge = medium.edge_switch_of(host)
        pod = medium.edge_pod[edge]
        elements = engine.relevant_elements([host])
        assert len(elements) == 300 + 156 + 13 + 2
        assert {host, link_id(host, edge), edge, medium.agg_ids[(pod, 3)]} <= elements
        assert link_id(medium.agg_ids[(pod, 3)], medium.core_ids[(3, 7)]) in elements
        assert link_id(medium.border_switch_of_group(5), medium.core_ids[(5, 0)]) in elements


class TestMemosStopGrowing:
    BOUND = 8

    def test_cold_plans_leave_bounded_state(self, monkeypatch):
        """200 cold ``medium`` plans: one layer build per shared layer the
        plans touch — the core, a pod, an edge switch — kept on the
        kernel, and nothing kept per host."""
        topology = paper_topology("medium", seed=1)
        inventory = build_paper_inventory(topology, seed=2)
        registry = MetricsRegistry()
        assessor = build_assessor(
            topology, inventory, AssessmentConfig(rounds=64, rng=1, metrics=registry)
        )
        built = _count_calls(monkeypatch, assessor.kernel, "_masks_of")
        structure = ApplicationStructure.k_of_n(8, 10)
        rng = np.random.default_rng(9)
        plans = [
            DeploymentPlan.single_component(
                [str(h) for h in rng.choice(topology.hosts, 10, replace=False)],
                structure.components[0].name,
            )
            for _ in range(200)
        ]
        for plan in plans:
            assessor.assess(plan, structure)
        hosts = [host for plan in plans for host in plan.hosts()]
        edges = {topology.edge_switch_of(host) for host in hosts}
        pods = {topology.edge_pod[edge] for edge in edges}
        kept = assessor.kernel._layer_memo[assessor.engine]
        assert len(kept) == 1 + len(pods) + len(edges)
        assert not kept.keys() & set(hosts)
        assert registry.counter("closure/layer/miss") == len(kept)
        assert registry.counter("closure/layer/hit") == 3 * len(hosts) - len(kept)
        # A host's own layer is built each time it is met, a shared one once.
        assert built[0] == len(kept) + len(hosts)
        assert len(assessor.kernel._order_by_content) <= self.BOUND
        assert vars(assessor.sampler) == {}  # no layout, no cache: nothing kept

    def test_chunked_pieces_share_one_closure(self, monkeypatch):
        FATTREE_INV.override_probabilities({})  # a cold kernel's layers
        registry = MetricsRegistry()
        assessor = build_assessor(
            FATTREE, FATTREE_INV, AssessmentConfig(rng=1, metrics=registry)
        )
        structure = ApplicationStructure.k_of_n(2, 3)
        plan = _plan_for(FATTREE, structure)
        order = _count_calls(monkeypatch, assessor.kernel.forest, "evaluation_order")
        result = chunked_assess(
            assessor, plan, structure, 3 * MIN_CHUNK_ROUNDS, 3, CancellationToken()
        )
        assert result.estimate.rounds == 3 * MIN_CHUNK_ROUNDS
        shared = {
            key
            for host in plan.hosts()
            for key, _ids in assessor.engine.relevant_layers(host)
            if key != host
        }
        assert registry.counter("closure/layer/miss") == len(shared)
        assert order[0] == 1
