"""Generic per-round route-and-check for arbitrary topologies.

Works on any :class:`~repro.topology.base.Topology` by examining the alive
subgraph round by round. Reachability here means graph connectivity of the
alive subgraph — the weakest assumption about the architecture's routing
protocol (any protocol can at best use the alive subgraph). Architectures
whose protocols forbid some physical paths (e.g. valley routing in a
fat-tree) should use their specific engine; this one is the universal
fallback and the reference implementation the fast engines are validated
against on architectures where the two semantics coincide.

Rounds in which no relevant element fails are resolved in bulk (every
target is reachable unless isolated in the intact topology). Every other
round costs one union-find pass over the alive edges, per call: two rounds
with the same failure pattern are not recognised as such and pay twice.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.faults.component import ComponentType
from repro.routing.base import ReachabilityEngine, RoundStates
from repro.topology.base import Topology


class _UnionFind:
    """Minimal union-find over dense integer ids (path halving + size)."""

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.size = [1] * size

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)


class GenericReachabilityEngine(ReachabilityEngine):
    """Round-by-round union-find connectivity on the alive subgraph."""

    def __init__(self, topology: Topology):
        super().__init__(topology)
        self._index = {node: i for i, node in enumerate(topology.graph.nodes)}
        self._edges = [
            (self._index[a], self._index[b], data["component_id"], a, b)
            for a, b, data in topology.graph.edges(data=True)
        ]
        self._border_indices = [self._index[b] for b in topology.border_switches]
        self._intact = self._intact_union_find()

    def _intact_union_find(self) -> _UnionFind:
        """Connectivity of the fully-alive topology (the no-failure baseline)."""
        uf = _UnionFind(len(self._index))
        for ia, ib, _link_cid, _a, _b in self._edges:
            uf.union(ia, ib)
        return uf

    # ------------------------------------------------------------------

    def _relevant_ids(self) -> list[str]:
        """Every element whose failure can change connectivity."""
        ids = list(self._index)
        ids.extend(edge[2] for edge in self._edges)
        return ids

    def relevant_elements(self, hosts) -> set[str]:
        # Without structural knowledge, any element may sit on some path.
        return set(self._relevant_ids())

    def _components_for_round(self, states: RoundStates, round_index: int) -> _UnionFind:
        """Union-find of the alive subgraph in one round."""
        uf = _UnionFind(len(self._index))
        for ia, ib, link_cid, a, b in self._edges:
            if states.failed_in_round(link_cid, round_index):
                continue
            if states.failed_in_round(a, round_index) or states.failed_in_round(
                b, round_index
            ):
                continue
            uf.union(ia, ib)
        return uf

    def external_reachable(
        self, states: RoundStates, hosts: Sequence[str]
    ) -> dict[str, np.ndarray]:
        rounds = states.rounds
        # Rounds without failures fall back to intact-topology connectivity
        # (all-reachable for any sane topology, but not assumed).
        result = {
            host: np.full(
                rounds,
                any(
                    self._intact.connected(self._index[host], ib)
                    for ib in self._border_indices
                ),
                dtype=bool,
            )
            for host in hosts
        }

        failure_rounds = states.rounds_with_failures(self._relevant_ids())
        for round_index in failure_rounds:
            uf = self._components_for_round(states, round_index)
            alive_borders = [
                ib
                for b, ib in zip(self.topology.border_switches, self._border_indices)
                if not states.failed_in_round(b, round_index)
            ]
            for host in hosts:
                reachable = False
                if not states.failed_in_round(host, round_index):
                    host_index = self._index[host]
                    reachable = any(
                        uf.connected(host_index, ib) for ib in alive_borders
                    )
                result[host][round_index] = reachable
        return result

    def pairwise_reachable(
        self, states: RoundStates, pairs: Sequence[tuple[str, str]]
    ) -> dict[tuple[str, str], np.ndarray]:
        rounds = states.rounds
        result = {
            pair: np.full(
                rounds,
                self._intact.connected(self._index[pair[0]], self._index[pair[1]]),
                dtype=bool,
            )
            for pair in pairs
        }

        failure_rounds = states.rounds_with_failures(self._relevant_ids())
        for round_index in failure_rounds:
            uf = self._components_for_round(states, round_index)
            for a, b in pairs:
                if states.failed_in_round(a, round_index) or states.failed_in_round(
                    b, round_index
                ):
                    result[(a, b)][round_index] = False
                    continue
                result[(a, b)][round_index] = uf.connected(self._index[a], self._index[b])
        return result

    # ------------------------------------------------------------------
    # Debug / inspection helpers
    # ------------------------------------------------------------------

    def reachable_hosts_in_round(self, states: RoundStates, round_index: int) -> set[str]:
        """All hosts reachable from some alive border switch in one round."""
        uf = self._components_for_round(states, round_index)
        alive_borders = [
            self._index[b]
            for b in self.topology.border_switches
            if not states.failed_in_round(b, round_index)
        ]
        reachable = set()
        for host in self.topology.hosts:
            if states.failed_in_round(host, round_index):
                continue
            host_index = self._index[host]
            if any(uf.connected(host_index, ib) for ib in alive_borders):
                reachable.add(host)
        return reachable
