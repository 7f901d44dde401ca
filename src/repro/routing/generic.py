"""Generic route-and-check for arbitrary topologies, every round at once.

Works on any :class:`~repro.topology.base.Topology` by examining the alive
subgraph. Reachability here means graph connectivity of the alive
subgraph — the weakest assumption about the architecture's routing
protocol (any protocol can at best use the alive subgraph). Architectures
whose protocols forbid some physical paths (e.g. valley routing in a
fat-tree) should use their specific engine; this one is the universal
fallback and the reference implementation the fast engines are validated
against on architectures where the two semantics coincide.

The topology is flattened once into node and link id tables and a
directed edge list sorted by destination. A propagation stacks the alive
rows of every node and link, bit-packed (64 rounds a word), and grows the
set of rounds in which each node is reached from the seeds: one sweep
moves every round one hop along every alive edge with a gather, an AND
and a segmented OR, and sweeps repeat until nothing changes — at most one
per node, whatever the round count.

One propagation holds the reach of *every* node, so it is kept on the
states object it was computed from (``states.segments``): the border
switches' reach matrix, and one per pair source, each built on first
need. Later queries on the same states — a search walk's new hosts on an
unchanged universe — gather rows from them. This is the fat-tree blocks'
argument: every host's closure is the whole topology, so a states object
is first queried only once every row a propagation reads is in it, and
``failed`` only ever gains rows; the kept matrices are also keyed by
``len(states.failed)``, so a caller that grows a states object after
querying it gets fresh propagations. Only the ``(nodes x words)`` reach
matrices are kept: a call that needs a new propagation rebuilds the alive
table and edge rows and shares them across its new sources.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.routing.base import ReachabilityEngine, RoundStates
from repro.topology.base import Topology


class GenericReachabilityEngine(ReachabilityEngine):
    """Connectivity of the alive subgraph by bitwise frontier propagation."""

    def __init__(self, topology: Topology):
        super().__init__(topology)
        nodes = list(topology.adjacency)
        edges = list(topology.links())
        self._index = {node: i for i, node in enumerate(nodes)}
        # Alive-table rows: every node, then the link of every edge.
        self._ids = nodes + [link for _a, _b, link in edges]
        # Without structural knowledge, any element may sit on some path.
        self._relevant = frozenset(self._ids)
        self._borders = [self._index[b] for b in topology.border_switches]

        a = np.array([self._index[a] for a, _b, _link in edges], dtype=np.intp)
        b = np.array([self._index[b] for _a, b, _link in edges], dtype=np.intp)
        link = np.arange(len(nodes), len(self._ids), dtype=np.intp)
        stay = np.arange(len(nodes), dtype=np.intp)
        # Both directions of every edge, plus a self-loop per node that
        # carries what the node already holds (its "link" row is its own),
        # sorted by destination: one ``reduceat`` then ORs together
        # everything arriving at each node, and no node — not even one
        # without edges — owns an empty segment, which ``reduceat`` lacks.
        dst = np.concatenate([b, a, stay])
        order = np.argsort(dst, kind="stable")
        self._src = np.concatenate([a, b, stay])[order]
        self._dst = dst[order]
        self._link = np.concatenate([link, link, stay])[order]
        self._starts = np.searchsorted(self._dst, stay)

    def relevant_layers(self, host: str):
        return (("all", self._relevant),)

    # ------------------------------------------------------------------

    def _alive_table(self, states: RoundStates) -> np.ndarray:
        """Alive rows (ids x words) of every node, then every link.

        The packed rows are viewed as ``uint64`` — 64 rounds a word,
        because ``reduceat`` is priced by the element — so the row width
        is padded to whole words; the padding reads "failed" and is cut
        off again by :meth:`_rows`.
        """
        width = states.width
        table = np.zeros((len(self._ids), -(-width // 8) * 8), dtype=np.uint8)
        table[:, :width] = states.materialize(None)
        for row, cid in enumerate(self._ids):
            mask = states.alive_mask(cid)
            if mask is not None:
                table[row, :width] = mask
        return table.view(np.uint64)

    def _edge_alive(self, table: np.ndarray) -> np.ndarray:
        """Per directed edge: rounds where the link and both ends are alive."""
        return table[self._link] & table[self._src] & table[self._dst]

    def _sweep(self, reach: np.ndarray, edge_alive: np.ndarray) -> np.ndarray:
        """Every round one hop on: per node, the OR over its alive in-edges."""
        return np.bitwise_or.reduceat(reach[self._src] & edge_alive, self._starts)

    def _reach_from(
        self, seeds: Sequence[int], table: np.ndarray, edge_alive: np.ndarray
    ) -> np.ndarray:
        """Per node: rounds where it is alive and joined to an alive seed."""
        reach = np.zeros((len(self._index), table.shape[1]), dtype=np.uint64)
        reach[seeds] = table[seeds]
        while True:
            grown = self._sweep(reach, edge_alive)
            if np.array_equal(grown, reach):
                return reach
            reach = grown

    def _reach(
        self, states: RoundStates, sources: Iterable[str | None]
    ) -> dict[str | None, np.ndarray]:
        """The reach matrix of every source (``None``: the border
        switches) kept on ``states``, propagating the missing ones."""
        size = len(states.failed)
        kept = states.segments.get(self)
        if kept is None or kept[0] != size:
            kept = states.segments[self] = (size, {})
        reach = kept[1]
        missing = [source for source in sources if source not in reach]
        if missing:
            table = self._alive_table(states)
            edge_alive = self._edge_alive(table)
            for source in missing:
                seeds = self._borders if source is None else [self._index[source]]
                reach[source] = self._reach_from(seeds, table, edge_alive)
        return reach

    def _rows(
        self, states: RoundStates, reach: np.ndarray, nodes: Sequence[str]
    ) -> np.ndarray:
        """The nodes' rows of ``reach`` (copied), cut to the states' width."""
        rows = reach[[self._index[node] for node in nodes]].view(np.uint8)
        return rows[:, : states.width]

    # ------------------------------------------------------------------

    def external_reachable(
        self, states: RoundStates, hosts: Sequence[str]
    ) -> dict[str, np.ndarray]:
        reach = self._reach(states, [None])[None]
        return dict(zip(hosts, self._rows(states, reach, hosts)))

    def pairwise_reachable(
        self, states: RoundStates, pairs: Sequence[tuple[str, str]]
    ) -> dict[tuple[str, str], np.ndarray]:
        peers: dict[str, list[str]] = {}
        for a, b in pairs:
            peers.setdefault(a, []).append(b)
        reach = self._reach(states, peers)
        result = {}
        for a, others in peers.items():
            for b, row in zip(others, self._rows(states, reach[a], others)):
                result[(a, b)] = row
        return result
