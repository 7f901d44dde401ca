"""The per-round union-find route-and-check, kept as a differential oracle.

This is ``routing/generic.py`` as it stood before the all-rounds-at-once
engine replaced it, verbatim but for the two scalar state queries, which
left :class:`~repro.routing.base.RoundStates` with their last production
reader and live here as functions, and for a debug helper nothing called
any more. It examines the alive subgraph round by round: rounds in which
no relevant element fails are resolved in bulk (intact-topology
connectivity), every other round costs one union-find pass over the alive
edges, per call.

It reads individual rounds, so it is also the suite's one round-reading
engine under the contract of :mod:`repro.routing.base`: at its door it
unpacks the rows it is handed (:func:`unpacked`) and packs the vectors it
returns, which lets the *production* pipeline drive it. Its dense answers
(``external_dense`` / ``pairwise_dense``) are what
``tests/interpreted_oracle.py`` reads directly.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from repro.routing.base import ReachabilityEngine, RoundStates
from repro.topology.base import Topology


def unpacked(states: RoundStates) -> SimpleNamespace:
    """The door: ``states`` with every packed row unpacked to a dense vector."""
    failed = {cid: states.unpack(row) for cid, row in states.failed.items()}
    return SimpleNamespace(rounds=states.rounds, failed=failed)


def failed_in_round(states, component_id: str, round_index: int) -> bool:
    """Scalar state query for one element in one round (dense states)."""
    failed = states.failed.get(component_id)
    return failed is not None and bool(failed[round_index])


def rounds_with_failures(states, component_ids: Iterable[str]) -> np.ndarray:
    """Indices of rounds where at least one listed element is failed."""
    any_failed = np.zeros(states.rounds, dtype=bool)
    for cid in component_ids:
        failed = states.failed.get(cid)
        if failed is not None:
            np.logical_or(any_failed, failed, out=any_failed)
    return np.nonzero(any_failed)[0]


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


class UnionFindReachabilityEngine(ReachabilityEngine):
    """Round-by-round union-find connectivity on the alive subgraph."""

    def __init__(self, topology: Topology):
        super().__init__(topology)
        self._index = {node: i for i, node in enumerate(topology.adjacency)}
        self._edges = [
            (self._index[a], self._index[b], link, a, b)
            for a, b, link in topology.links()
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

    def relevant_layers(self, host):
        # Without structural knowledge, any element may sit on some path.
        return (("all", self._relevant_ids()),)

    def _components_for_round(self, states, round_index: int) -> _UnionFind:
        """Union-find of the alive subgraph in one round."""
        uf = _UnionFind(len(self._index))
        for ia, ib, link_cid, a, b in self._edges:
            if failed_in_round(states, link_cid, round_index):
                continue
            if failed_in_round(states, a, round_index) or failed_in_round(
                states, b, round_index
            ):
                continue
            uf.union(ia, ib)
        return uf

    def external_reachable(
        self, states: RoundStates, hosts: Sequence[str]
    ) -> dict[str, np.ndarray]:
        dense = self.external_dense(unpacked(states), hosts)
        return {host: np.packbits(vector) for host, vector in dense.items()}

    def pairwise_reachable(
        self, states: RoundStates, pairs: Sequence[tuple[str, str]]
    ) -> dict[tuple[str, str], np.ndarray]:
        dense = self.pairwise_dense(unpacked(states), pairs)
        return {pair: np.packbits(vector) for pair, vector in dense.items()}

    def external_dense(self, states, hosts: Sequence[str]) -> dict[str, np.ndarray]:
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

        failure_rounds = rounds_with_failures(states, self._relevant_ids())
        for round_index in failure_rounds:
            uf = self._components_for_round(states, round_index)
            alive_borders = [
                ib
                for b, ib in zip(self.topology.border_switches, self._border_indices)
                if not failed_in_round(states, b, round_index)
            ]
            for host in hosts:
                reachable = False
                if not failed_in_round(states, host, round_index):
                    host_index = self._index[host]
                    reachable = any(
                        uf.connected(host_index, ib) for ib in alive_borders
                    )
                result[host][round_index] = reachable
        return result

    def pairwise_dense(
        self, states, pairs: Sequence[tuple[str, str]]
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

        failure_rounds = rounds_with_failures(states, self._relevant_ids())
        for round_index in failure_rounds:
            uf = self._components_for_round(states, round_index)
            for a, b in pairs:
                if failed_in_round(states, a, round_index) or failed_in_round(
                    states, b, round_index
                ):
                    result[(a, b)][round_index] = False
                    continue
                result[(a, b)][round_index] = uf.connected(self._index[a], self._index[b])
        return result
