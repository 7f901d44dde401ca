"""Route-and-check tests: RoundStates, generic engine, fast engines.

The fat-tree fast engine is validated against a brute-force enumeration of
valid up-down paths; the generic engine against networkx connectivity and,
round for round, against the per-round union-find it replaced
(``tests/unionfind_oracle.py``); and the fast engines are checked to be
*subsets* of graph connectivity (a routed path is in particular a
physical path).
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.component import ComponentType, link_id
from repro.faults.probability import DefaultProbabilityPolicy
from repro.routing.base import RoundStates, all_alive, any_path, engine_for
from repro.routing.fattree_fast import FatTreeReachabilityEngine
from repro.routing.generic import GenericReachabilityEngine
from repro.routing.leafspine_fast import LeafSpineReachabilityEngine
from repro.sampling.montecarlo import MonteCarloSampler
from repro.topology.fattree import FatTreeTopology
from repro.topology.base import Topology
from repro.topology.leafspine import LeafSpineTopology
from repro.topology.zones import MultiZoneTopology
from repro.util.errors import ConfigurationError, TopologyError
from tests.conftest import packed_states
from tests.interpreted_oracle import dense_external_reachable
from tests.unionfind_oracle import (
    UnionFindReachabilityEngine,
    failed_in_round,
    rounds_with_failures,
    unpacked,
)

ROUNDS = 400


def _states_for(topology, seed=2, rounds=ROUNDS):
    batch = MonteCarloSampler().sample(
        topology.failure_probabilities(), rounds, np.random.default_rng(seed)
    )
    return RoundStates(rounds, batch.failed_rows())


def _alive(dense, cid, i):
    """``dense``: the :func:`unpacked` view of the states an engine was given."""
    return not failed_in_round(dense, cid, i)


# ----------------------------------------------------------------------
# Brute-force up-down references
# ----------------------------------------------------------------------


def fattree_ext_reference(t, states, host, i):
    e = t.edge_switch_of(host)
    if not (
        _alive(states, host, i)
        and _alive(states, link_id(host, e), i)
        and _alive(states, e, i)
    ):
        return False
    pod = t.edge_pod[e]
    for g in range(t.radix):
        agg = t.agg_ids[(pod, g)]
        if not (_alive(states, agg, i) and _alive(states, link_id(e, agg), i)):
            continue
        border = t.border_ids[g]
        if not _alive(states, border, i):
            continue
        for j in range(t.radix):
            core = t.core_ids[(g, j)]
            if (
                _alive(states, core, i)
                and _alive(states, link_id(agg, core), i)
                and _alive(states, link_id(border, core), i)
            ):
                return True
    return False


def fattree_pair_reference(t, states, h1, h2, i):
    if h1 == h2:
        return _alive(states, h1, i)
    e1, e2 = t.edge_switch_of(h1), t.edge_switch_of(h2)
    for cid in (h1, h2, link_id(h1, e1), link_id(h2, e2), e1, e2):
        if not _alive(states, cid, i):
            return False
    if e1 == e2:
        return True
    p1, p2 = t.edge_pod[e1], t.edge_pod[e2]
    if p1 == p2:
        return any(
            _alive(states, t.agg_ids[(p1, g)], i)
            and _alive(states, link_id(e1, t.agg_ids[(p1, g)]), i)
            and _alive(states, link_id(e2, t.agg_ids[(p1, g)]), i)
            for g in range(t.radix)
        )
    for g in range(t.radix):
        a1, a2 = t.agg_ids[(p1, g)], t.agg_ids[(p2, g)]
        if not (
            _alive(states, a1, i)
            and _alive(states, a2, i)
            and _alive(states, link_id(e1, a1), i)
            and _alive(states, link_id(e2, a2), i)
        ):
            continue
        for j in range(t.radix):
            core = t.core_ids[(g, j)]
            if (
                _alive(states, core, i)
                and _alive(states, link_id(a1, core), i)
                and _alive(states, link_id(a2, core), i)
            ):
                return True
    return False


@pytest.fixture
def lossy_states(lossy_fattree4):
    return _states_for(lossy_fattree4)


class TestRoundStates:
    def test_alive_mask_none_for_unknown(self):
        states = RoundStates(10, {})
        assert states.alive_mask("x") is None

    def test_alive_mask_inverts_failed(self):
        failed = np.array([True, False, True])
        states = packed_states(3, {"c": failed})
        assert np.array_equal(states.unpack(states.alive_mask("c")), ~failed)

    # The two scalar queries below left ``RoundStates`` with the per-round
    # engine; the oracle module carries them for itself and these tests.

    def test_failed_in_round(self):
        states = unpacked(packed_states(3, {"c": np.array([True, False, True])}))
        assert failed_in_round(states, "c", 0)
        assert not failed_in_round(states, "c", 1)
        assert not failed_in_round(states, "ghost", 2)

    def test_rounds_with_failures(self):
        states = unpacked(
            packed_states(
                4,
                {
                    "a": np.array([True, False, False, False]),
                    "b": np.array([False, False, True, False]),
                },
            )
        )
        assert list(rounds_with_failures(states, ["a", "b"])) == [0, 2]
        assert list(rounds_with_failures(states, ["a"])) == [0]
        assert list(rounds_with_failures(states, ["ghost"])) == []

    def test_rejects_non_positive_rounds(self):
        with pytest.raises(ConfigurationError):
            RoundStates(0, {})


class TestCombinators:
    def test_all_alive_none_when_all_reliable(self):
        states = RoundStates(5, {})
        assert all_alive(states, ["a", "b"]) is None

    def test_all_alive_ands_masks(self):
        states = packed_states(
            3,
            {
                "a": np.array([True, False, False]),
                "b": np.array([False, True, False]),
            },
        )
        mask = all_alive(states, ["a", "b", "ghost"])
        assert list(states.unpack(mask)) == [False, False, True]

    def test_any_path_none_dominates(self):
        states = RoundStates(3, {})
        assert any_path([states.zeros(), None], states) is None

    def test_any_path_empty_is_unreachable(self):
        states = RoundStates(3, {})
        assert not states.unpack(any_path([], states)).any()

    def test_any_path_ors(self):
        states = RoundStates(3, {})
        a = np.packbits([True, False, False])
        b = np.packbits([False, True, False])
        assert list(states.unpack(any_path([a, b], states))) == [True, True, False]

    def test_materialize(self):
        states = RoundStates(2, {})
        assert states.unpack(states.materialize(None)).all()
        assert not states.unpack(states.materialize(None, alive=False)).any()
        mask = np.packbits([True, False])
        assert states.materialize(mask) is mask


class TestFatTreeEngineVsBruteForce:
    def test_external_matches_reference(self, lossy_fattree4, lossy_states):
        engine = FatTreeReachabilityEngine(lossy_fattree4)
        hosts = lossy_fattree4.hosts
        result = engine.external_reachable(lossy_states, hosts)
        dense = unpacked(lossy_states)
        for host in hosts:
            got = lossy_states.unpack(result[host])
            for i in range(ROUNDS):
                assert got[i] == fattree_ext_reference(
                    lossy_fattree4, dense, host, i
                ), (host, i)

    def test_pairwise_matches_reference(self, lossy_fattree4, lossy_states):
        engine = FatTreeReachabilityEngine(lossy_fattree4)
        hosts = lossy_fattree4.hosts
        pairs = [
            (hosts[0], hosts[1]),  # same edge
            (hosts[0], hosts[2]),  # same pod, different edge
            (hosts[0], hosts[5]),  # different pod
            (hosts[3], hosts[11]),  # different pod
            (hosts[7], hosts[7]),  # self
        ]
        result = engine.pairwise_reachable(lossy_states, pairs)
        dense = unpacked(lossy_states)
        for pair in pairs:
            got = lossy_states.unpack(result[pair])
            for i in range(ROUNDS):
                assert got[i] == fattree_pair_reference(
                    lossy_fattree4, dense, *pair, i
                ), (pair, i)

    def test_updown_is_subset_of_connectivity(self, lossy_fattree4, lossy_states):
        fast = FatTreeReachabilityEngine(lossy_fattree4)
        generic = GenericReachabilityEngine(lossy_fattree4)
        hosts = lossy_fattree4.hosts[:6]
        rf = fast.external_reachable(lossy_states, hosts)
        rg = generic.external_reachable(RoundStates(ROUNDS, lossy_states.failed), hosts)
        for host in hosts:
            assert not lossy_states.unpack(rf[host] & ~rg[host]).any()

    def test_no_failures_everything_reachable(self, fattree4):
        engine = FatTreeReachabilityEngine(fattree4)
        states = RoundStates(10, {})
        result = engine.external_reachable(states, fattree4.hosts)
        for host in fattree4.hosts:
            assert states.unpack(result[host]).all()

    def test_rejects_non_fattree(self, leafspine):
        with pytest.raises(TopologyError):
            FatTreeReachabilityEngine(leafspine)

    def test_relevant_elements_closure_sound(self, lossy_fattree4):
        """Failures outside the closure must not change any answer."""
        engine = FatTreeReachabilityEngine(lossy_fattree4)
        hosts = [lossy_fattree4.hosts[0], lossy_fattree4.hosts[6]]
        closure = engine.relevant_elements(hosts)
        states = _states_for(lossy_fattree4, seed=5)
        full = engine.external_reachable(states, hosts)
        restricted_failed = {
            cid: failed for cid, failed in states.failed.items() if cid in closure
        }
        restricted = engine.external_reachable(
            RoundStates(ROUNDS, restricted_failed), hosts
        )
        for host in hosts:
            assert np.array_equal(full[host], restricted[host])


class TestFailureDrivenBlocks:
    """The engine's failure-driven blocks against the dense scaffold they
    replaced and the per-round up-down reference: failing hosts, switches
    and links of every kind, queried at once and split over one states
    object whose failed rows grow between queries, as the incremental
    walk queries it."""

    TOPOLOGY = FatTreeTopology(6, seed=1)  # radix 3: three groups a pod
    ENGINE = FatTreeReachabilityEngine(TOPOLOGY)
    KINDS = (
        "core", "border_link", "border", "agg_uplink", "agg",
        "edge_uplink", "edge", "host", "host_link",
    )  # fmt: skip

    @classmethod
    def _kind_of(cls) -> dict[str, str]:
        """Every id the engine reads, by kind, from its layer layouts."""
        radix = cls.TOPOLOGY.radix
        cells = radix * radix
        kinds = {}
        for host in cls.TOPOLOGY.hosts:
            layers = cls.ENGINE.relevant_layers(host)
            (_, core), (_, pod), (_, edge), (_, ends) = layers
            kinds.update(dict.fromkeys(core[:cells], "core"))
            kinds.update(dict.fromkeys(core[cells : 2 * cells], "border_link"))
            kinds.update(dict.fromkeys(core[2 * cells :], "border"))
            kinds.update(dict.fromkeys(pod[:cells], "agg_uplink"))
            kinds.update(dict.fromkeys(pod[cells:], "agg"))
            kinds.update(dict.fromkeys(edge[:-1], "edge_uplink"))
            kinds.update({edge[-1]: "edge", ends[0]: "host", ends[1]: "host_link"})
        return kinds

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rounds=st.sampled_from([1, 7, 64, 200]),
        shares=st.lists(st.sampled_from([0.0, 0.3, 1.0]), min_size=9, max_size=9),
        density=st.sampled_from([0.02, 0.3, 0.9]),
        hosts=st.integers(1, 8),
        splits=st.integers(1, 3),
    )
    def test_equals_the_dense_scaffold_and_the_reference(
        self, seed, rounds, shares, density, hosts, splits
    ):
        rng = np.random.default_rng(seed)
        share = dict(zip(self.KINDS, shares))
        failed = {
            cid: np.packbits(rng.random(rounds) < density)
            for cid, kind in sorted(self._kind_of().items())
            if rng.random() < share[kind]
        }
        chosen = [str(h) for h in rng.choice(self.TOPOLOGY.hosts, hosts, replace=False)]
        engine = self.ENGINE

        grown: dict[str, np.ndarray] = {}
        states = RoundStates(rounds, grown)
        got = {}
        for chunk in [*np.array_split(chosen, splits), chosen[:1]]:
            chunk = [str(h) for h in chunk]
            for cid in sorted(engine.relevant_elements(chunk)):
                if cid in failed and cid not in grown:
                    grown[cid] = failed[cid]
            got.update(engine.external_reachable(states, chunk))

        fresh = RoundStates(rounds, failed)
        whole = engine.external_reachable(fresh, chosen)
        dense = dense_external_reachable(engine, RoundStates(rounds, failed), chosen)
        rows = unpacked(fresh)
        for host in chosen:
            assert got[host].tobytes() == dense[host].tobytes(), host
            assert whole[host].tobytes() == dense[host].tobytes(), host
            want = [fattree_ext_reference(self.TOPOLOGY, rows, host, i) for i in range(rounds)]
            assert fresh.unpack(got[host]).tolist() == want, host


    @pytest.mark.parametrize("group", range(TOPOLOGY.radix))
    def test_a_failed_uplink_to_the_only_alive_agg_cuts_the_edge(self, group):
        """Every agg of the pod but ``group``'s is down, and so is the
        edge's uplink to that one: no route out, whichever uplink it is
        (the last one included)."""
        topology = self.TOPOLOGY
        host = topology.hosts[0]
        edge = topology.edge_switch_of(host)
        pod = topology.edge_pod[edge]
        down = [topology.agg_ids[(pod, g)] for g in range(topology.radix) if g != group]
        down.append(link_id(edge, topology.agg_ids[(pod, group)]))
        states = RoundStates(1, {cid: np.packbits([True]) for cid in down})
        reached = self.ENGINE.external_reachable(states, [host])[host]
        assert states.unpack(reached).tolist() == [False]
        assert not fattree_ext_reference(topology, unpacked(states), host, 0)


class TestGenericEngine:
    def test_matches_networkx_connectivity(self, lossy_fattree4, lossy_states):
        engine = GenericReachabilityEngine(lossy_fattree4)
        hosts = lossy_fattree4.hosts[:5]
        result = engine.external_reachable(lossy_states, hosts)
        result = {host: lossy_states.unpack(row) for host, row in result.items()}
        dense = unpacked(lossy_states)
        for i in range(0, ROUNDS, 7):  # spot-check a sample of rounds
            graph = nx.Graph()
            for node in lossy_fattree4.adjacency:
                if _alive(dense, node, i):
                    graph.add_node(node)
            for a, b, link in lossy_fattree4.links():
                if a in graph and b in graph and _alive(dense, link, i):
                    graph.add_edge(a, b)
            alive_borders = [
                b for b in lossy_fattree4.border_switches if b in graph
            ]
            for host in hosts:
                expected = host in graph and any(
                    nx.has_path(graph, host, b) for b in alive_borders
                )
                assert result[host][i] == expected, (host, i)

    def test_pairwise_symmetric(self, lossy_fattree4, lossy_states):
        engine = GenericReachabilityEngine(lossy_fattree4)
        h = lossy_fattree4.hosts
        fwd = engine.pairwise_reachable(lossy_states, [(h[0], h[5])])
        states2 = RoundStates(ROUNDS, lossy_states.failed)
        rev = engine.pairwise_reachable(states2, [(h[5], h[0])])
        assert np.array_equal(fwd[(h[0], h[5])], rev[(h[5], h[0])])

    def test_reachable_hosts_in_round(self, fattree4):
        engine = GenericReachabilityEngine(fattree4)
        # Fail one edge switch: exactly its hosts become unreachable.
        failed = {"edge/0/0": np.array([True])}
        states = packed_states(1, failed)
        result = engine.external_reachable(states, fattree4.hosts)
        reachable = {host for host, row in result.items() if states.unpack(row)[0]}
        assert reachable == set(fattree4.hosts) - {"host/0/0/0", "host/0/0/1"}


# ----------------------------------------------------------------------
# All-rounds-at-once generic engine vs the per-round union-find it replaced
# ----------------------------------------------------------------------


def _custom_topology(nodes, borders, edges, name="custom"):
    """A bare topology over nodes ``0..nodes-1``; the first ``borders`` are
    border switches, the rest hosts."""
    topology = Topology(name, probability_policy=DefaultProbabilityPolicy(0.1))
    ids = []
    for i in range(nodes):
        if i < borders:
            ids.append(f"border/{i}")
            topology._add_switch(ids[-1], ComponentType.BORDER_SWITCH)
        else:
            ids.append(f"host/{i}")
            topology._add_host(ids[-1])
    for a, b in edges:
        topology._add_link(ids[a], ids[b])
    topology._freeze()
    return topology


#: Shipped shapes plus a ring, where one failure stretches the alive path
#: between neighbours of the break to the whole circumference — far past
#: the intact diameter.
FIXED_TOPOLOGIES = [
    MultiZoneTopology(zones=2, k=4, seed=1),
    FatTreeTopology(4, seed=1),
    LeafSpineTopology(spines=3, leaves=4, hosts_per_leaf=2, seed=3),
    _custom_topology(12, 1, [(i, (i + 1) % 12) for i in range(12)], name="ring"),
]


@st.composite
def topologies(draw):
    """A shipped shape, or a random graph: sparse draws are disconnected
    and leave nodes with no edge at all."""
    if draw(st.booleans()):
        return draw(st.sampled_from(FIXED_TOPOLOGIES))
    nodes = draw(st.integers(2, 10))
    borders = draw(st.integers(1, nodes - 1))
    candidates = [(a, b) for a in range(nodes) for b in range(a + 1, nodes)]
    edges = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=20))
    return _custom_topology(nodes, borders, edges)


@st.composite
def routing_cases(draw):
    topology = draw(topologies())
    rounds = draw(st.integers(1, 41))  # mostly not a multiple of 8: pad bits
    rate = draw(st.sampled_from([0.0, 0.02, 0.2, 0.5, 0.8]))
    present = draw(st.sampled_from([0.3, 1.0]))  # ids missing from ``failed``
    dead_borders = draw(st.sampled_from(["none", "one", "all"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    nodes = list(topology.adjacency)
    links = [link for _a, _b, link in topology.links()]
    failed = {
        cid: rng.random(rounds) < rate
        for cid in nodes + links
        if rng.random() < present
    }
    borders = topology.border_switches
    for border in {"none": [], "one": borders[:1], "all": borders}[dead_borders]:
        failed[border] = np.ones(rounds, dtype=bool)

    # Queries name any node (a border is a host that is itself a border),
    # with repeats, and pairs include (a, a) and both orders.
    hosts = [nodes[i] for i in rng.integers(0, len(nodes), size=6)] + borders[:1]
    pairs = [
        (nodes[a], nodes[b]) for a, b in rng.integers(0, len(nodes), size=(6, 2))
    ]
    pairs += [pairs[0], pairs[1][::-1], (hosts[0], hosts[0])]
    return topology, rounds, failed, hosts, pairs


class TestGenericEngineVsUnionFind:
    @given(case=routing_cases())
    @settings(max_examples=200, deadline=None)
    def test_every_round_matches_the_oracle(self, case):
        topology, rounds, failed, hosts, pairs = case
        oracle = UnionFindReachabilityEngine(topology)
        engine = GenericReachabilityEngine(topology)
        packed = packed_states(rounds, failed)
        dense = unpacked(packed)
        assert all(np.array_equal(dense.failed[cid], failed[cid]) for cid in failed)

        expected = oracle.external_dense(dense, hosts)
        got = engine.external_reachable(packed, hosts)
        assert set(got) == set(expected)
        for host, vector in expected.items():
            assert got[host].shape == (packed.width,)
            assert np.array_equal(packed.unpack(got[host]), vector), host
        # The oracle's own door: what it is handed and returns is packed.
        for host, row in oracle.external_reachable(packed, hosts).items():
            assert np.array_equal(packed.unpack(row), expected[host]), host

        expected = oracle.pairwise_dense(dense, pairs)
        got = engine.pairwise_reachable(packed, pairs)
        assert set(got) == set(expected)
        for pair, vector in expected.items():
            assert np.array_equal(packed.unpack(got[pair]), vector), pair

    def test_relevant_elements_is_one_shared_set(self):
        topology = FIXED_TOPOLOGIES[0]
        engine = GenericReachabilityEngine(topology)
        oracle = UnionFindReachabilityEngine(topology)
        elements = engine.relevant_elements(topology.hosts[:1])
        assert elements == oracle.relevant_elements(topology.hosts[:1])
        assert engine.relevant_elements(topology.hosts[1:3]) == elements

    def test_cost_does_not_grow_with_rounds(self, monkeypatch):
        """A 500-round call makes no per-round Python call: the state
        reads are one per id and the sweeps are bounded by the node count,
        exactly as for 50 rounds."""
        topology = FIXED_TOPOLOGIES[0]
        engine = GenericReachabilityEngine(topology)

        def per_round_query(*_args, **_kwargs):
            raise AssertionError("per-round state query on the production path")

        monkeypatch.setattr(
            RoundStates, "failed_in_round", per_round_query, raising=False
        )
        calls = {"alive_mask": 0, "sweep": 0}
        alive_mask, sweep = RoundStates.alive_mask, GenericReachabilityEngine._sweep

        def counting_alive_mask(states, cid):
            calls["alive_mask"] += 1
            return alive_mask(states, cid)

        def counting_sweep(self, reach, edge_alive):
            calls["sweep"] += 1
            return sweep(self, reach, edge_alive)

        monkeypatch.setattr(RoundStates, "alive_mask", counting_alive_mask)
        monkeypatch.setattr(GenericReachabilityEngine, "_sweep", counting_sweep)

        ids = len(topology.adjacency) + len(list(topology.links()))
        for rounds in (50, 500):
            calls.update(alive_mask=0, sweep=0)
            states = _states_for(topology, seed=9, rounds=rounds)
            result = engine.external_reachable(states, topology.hosts)
            assert calls["alive_mask"] == ids
            assert 1 <= calls["sweep"] <= len(topology.adjacency)
            assert all(row.shape == (states.width,) for row in result.values())
            # A second call on the same states gathers rows of the kept
            # propagation: it reads no state and runs no sweep.
            calls.update(alive_mask=0, sweep=0)
            again = engine.external_reachable(states, topology.hosts[::-1])
            assert calls == {"alive_mask": 0, "sweep": 0}
            assert all(np.array_equal(again[h], result[h]) for h in topology.hosts)


def _chunks(data, items):
    """``items`` cut into consecutive non-empty pieces at drawn points."""
    cuts = sorted(data.draw(st.sets(st.integers(1, len(items) - 1))))
    bounds = [0, *cuts, len(items)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class TestGenericEngineKeepsItsPropagations:
    """The reach matrices the generic engine keeps on a states object
    change no answer, and are computed once per (states, source)."""

    @given(case=routing_cases(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_states_answers_like_a_fresh_one_per_query(self, case, data):
        topology, rounds, failed, hosts, pairs = case
        engine = GenericReachabilityEngine(topology)
        queries = [("external", chunk) for chunk in _chunks(data, hosts)]
        queries += [("pairs", chunk) for chunk in _chunks(data, pairs)]
        queries = data.draw(st.permutations(queries))
        # Between two calls, the shared states may gain a failing row.
        withheld = data.draw(
            st.sampled_from([None, *sorted(c for c in failed if failed[c].any())])
        )
        grow_at = data.draw(st.integers(1, len(queries) - 1))
        current = {cid: row for cid, row in failed.items() if cid != withheld}
        shared = packed_states(rounds, current)
        for position, (kind, items) in enumerate(queries):
            if position == grow_at and withheld is not None:
                current[withheld] = failed[withheld]
                shared.failed[withheld] = np.packbits(failed[withheld])
            fresh = packed_states(rounds, current)
            if kind == "external":
                got = engine.external_reachable(shared, items)
                want = engine.external_reachable(fresh, items)
            else:
                got = engine.pairwise_reachable(shared, items)
                want = engine.pairwise_reachable(fresh, items)
            assert got.keys() == want.keys()
            for key, row in want.items():
                assert np.array_equal(got[key], row), (kind, key)

    def test_one_propagation_per_states_and_source(self, monkeypatch):
        topology = FIXED_TOPOLOGIES[0]
        engine = GenericReachabilityEngine(topology)
        seeds = []
        reach_from = GenericReachabilityEngine._reach_from

        def counting_reach_from(self, sources, table, edge_alive):
            seeds.append(tuple(sources))
            return reach_from(self, sources, table, edge_alive)

        monkeypatch.setattr(GenericReachabilityEngine, "_reach_from", counting_reach_from)
        borders = tuple(engine._index[b] for b in topology.border_switches)
        hosts = topology.hosts
        states = _states_for(topology, seed=4, rounds=200)
        for lo in range(0, len(hosts), 5):  # N external calls: one propagation
            engine.external_reachable(states, hosts[lo : lo + 5])
        assert seeds == [borders]

        calls = [
            [(hosts[0], hosts[1]), (hosts[0], hosts[7])],
            [(hosts[3], hosts[0]), (hosts[0], hosts[20])],
            [(hosts[3], hosts[9]), (hosts[12], hosts[0]), (hosts[0], hosts[1])],
        ]
        for pairs in calls:
            engine.pairwise_reachable(states, pairs)
        sources = [hosts[0], hosts[3], hosts[12]]
        assert seeds[1:] == [(engine._index[s],) for s in sources]

        # Another states object propagates again; the first keeps its own.
        seeds.clear()
        other = _states_for(topology, seed=5, rounds=200)
        engine.external_reachable(other, hosts)
        engine.external_reachable(states, hosts)
        engine.pairwise_reachable(other, calls[0])
        assert seeds == [borders, (engine._index[hosts[0]],)]


class TestLeafSpineEngine:
    def test_matches_generic_connectivity(self, leafspine):
        """On a leaf-spine, up-down host<->external equals connectivity
        whenever border switches attach to all spines."""
        policy_states = _states_for(
            LeafSpineTopology(
                spines=3,
                leaves=4,
                hosts_per_leaf=2,
                probability_policy=DefaultProbabilityPolicy(0.2, link_probability=0.1),
                seed=3,
            ),
            seed=4,
        )
        topo = LeafSpineTopology(
            spines=3,
            leaves=4,
            hosts_per_leaf=2,
            probability_policy=DefaultProbabilityPolicy(0.2, link_probability=0.1),
            seed=3,
        )
        fast = LeafSpineReachabilityEngine(topo)
        generic = GenericReachabilityEngine(topo)
        hosts = topo.hosts
        rf = fast.external_reachable(policy_states, hosts)
        rg = generic.external_reachable(
            RoundStates(policy_states.rounds, policy_states.failed), hosts
        )
        for host in hosts:
            # Up-down is a subset of connectivity...
            assert not policy_states.unpack(rf[host] & ~rg[host]).any()
            # ...and disagreements need a valley path (rare): bound them.
            disagreement = np.mean(policy_states.unpack(rf[host] ^ rg[host]))
            assert disagreement < 0.05

    def test_no_failures_everything_reachable(self, leafspine):
        engine = LeafSpineReachabilityEngine(leafspine)
        states = RoundStates(5, {})
        result = engine.external_reachable(states, leafspine.hosts)
        for host in leafspine.hosts:
            assert states.unpack(result[host]).all()

    def test_same_leaf_pair_needs_only_leaf(self, leafspine):
        engine = LeafSpineReachabilityEngine(leafspine)
        # Fail every spine: same-leaf hosts still talk, cross-leaf do not.
        failed = {s: np.array([True]) for s in leafspine.spine_ids}
        states = packed_states(1, failed)
        same = engine.pairwise_reachable(states, [("host/0/0", "host/0/1")])
        cross = engine.pairwise_reachable(states, [("host/0/0", "host/1/0")])
        assert states.unpack(same[("host/0/0", "host/0/1")])[0]
        assert not states.unpack(cross[("host/0/0", "host/1/0")])[0]

    def test_rejects_non_leafspine(self, fattree4):
        with pytest.raises(TopologyError):
            LeafSpineReachabilityEngine(fattree4)


class TestEngineFactory:
    def test_fattree_gets_fast_engine(self, fattree4):
        assert isinstance(engine_for(fattree4), FatTreeReachabilityEngine)

    def test_leafspine_gets_fast_engine(self, leafspine):
        assert isinstance(engine_for(leafspine), LeafSpineReachabilityEngine)

    def test_unknown_topology_gets_generic(self):
        topo = Topology("custom", probability_policy=DefaultProbabilityPolicy(0.1))
        topo._add_host("h0")
        topo._add_switch("s0", ComponentType.BORDER_SWITCH)
        topo._add_link("h0", "s0")
        topo._freeze()
        assert isinstance(engine_for(topo), GenericReachabilityEngine)


class TestRelevantLayers:
    """The contract closure memos rely on: a host's pieces add up to its
    ``relevant_elements``, and equal keys mean equal ids across hosts."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: FatTreeReachabilityEngine(FatTreeTopology(4, seed=1)),
            lambda: LeafSpineReachabilityEngine(
                LeafSpineTopology(spines=3, leaves=4, hosts_per_leaf=2, seed=1)
            ),
            lambda: GenericReachabilityEngine(MultiZoneTopology(zones=2, k=4, seed=7)),
            lambda: UnionFindReachabilityEngine(FatTreeTopology(4, seed=1)),
        ],
        ids=["fattree", "leafspine", "generic", "default"],
    )
    def test_pieces_cover_the_closure_and_keys_name_their_ids(self, build):
        engine = build()
        by_key = {}
        for host in engine.topology.hosts:
            pieces = engine.relevant_layers(host)
            covered = set().union(*(ids for _key, ids in pieces))
            assert covered == set(engine.relevant_elements([host]))
            for key, ids in pieces:
                assert set(by_key.setdefault(key, ids)) == set(ids), key

    def test_fattree_shares_core_pod_and_edge(self, fattree4):
        engine = FatTreeReachabilityEngine(fattree4)
        rack = fattree4.hosts_in_rack(fattree4.racks()[0])
        first, second = (dict(engine.relevant_layers(host)) for host in rack[:2])
        shared = first.keys() & second.keys()
        assert len(first) == 4 and len(shared) == 3
        (own,) = first.keys() - shared
        assert set(first[own]) == {rack[0], link_id(rack[0], fattree4.racks()[0])}

    def test_generic_closure_is_one_piece(self):
        engine = GenericReachabilityEngine(MultiZoneTopology(zones=2, k=4, seed=7))
        a, b = (engine.relevant_layers(host) for host in engine.topology.hosts[:2])
        assert len(a) == 1 and a[0][0] == b[0][0] and a[0][1] is b[0][1]

    def test_leafspine_layers_add_up_to_its_up_down_closure(self):
        """Spine layer, leaf layers and host layers together name what
        the up-down paths read: the hosts, their leaves and links, every
        spine with its links to those leaves, every border switch with
        its spine links — and nothing of the other leaves."""
        topo = LeafSpineTopology(spines=3, leaves=4, hosts_per_leaf=2, seed=1)
        engine = LeafSpineReachabilityEngine(topo)
        hosts = ["host/0/0", "host/0/1", "host/2/1"]
        leaves = {topo.edge_switch_of(h) for h in hosts}
        expected = {*hosts, *leaves, *(link_id(h, topo.edge_switch_of(h)) for h in hosts)}
        for spine in topo.spine_ids:
            expected.add(spine)
            expected.update(link_id(leaf, spine) for leaf in leaves)
            for border in topo.border_switches:
                expected.update((border, link_id(border, spine)))
        assert engine.relevant_elements(hosts) == expected
        keys = {key for host in hosts for key, _ids in engine.relevant_layers(host)}
        assert keys == {"spine", *(("leaf", leaf) for leaf in leaves), *hosts}
