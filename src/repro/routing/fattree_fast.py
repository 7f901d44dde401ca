"""Vectorised up-down route-and-check for fat-trees.

Exploits the fat-tree wiring to evaluate reachability for all sampling
rounds at once with boolean algebra instead of per-round graph traversal —
this is what makes reCloud's 10^4-round assessments take milliseconds.

Routing semantics are the fat-tree routing protocol's valley-free paths:

* **external -> host**: border(g) -> core(g, j) -> agg(pod, g) ->
  edge -> host, for some group ``g`` and core index ``j``.
* **host <-> host**: same edge switch; or a shared aggregation switch when
  the hosts share a pod; or agg(podA, g) -> core(g, j) -> agg(podB, g)
  across pods. (A core detour inside one pod adds nothing: core group ``g``
  attaches to exactly one aggregation switch per pod.)

Every formula below ANDs the packed alive rows of the elements and links on
a path segment and ORs over the alternative segments. ``None`` masks denote
"always alive" (elements that never fail in the batch), so fully reliable
links cost nothing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.faults.component import link_id
from repro.routing.base import (
    ReachabilityEngine,
    RoundStates,
    all_alive,
    any_path,
)
from repro.topology.fattree import FatTreeTopology
from repro.util.errors import TopologyError


class FatTreeReachabilityEngine(ReachabilityEngine):
    """Up-down reachability over a :class:`FatTreeTopology`."""

    topology: FatTreeTopology

    def __init__(self, topology: FatTreeTopology):
        if not isinstance(topology, FatTreeTopology):
            raise TopologyError("FatTreeReachabilityEngine requires a FatTreeTopology")
        super().__init__(topology)
        # Id layouts the packed blocks and `relevant_layers` share. The
        # core layer — every core switch, its border link, the border
        # switches — is the same for every plan; pods and edges fill in
        # on first need.
        cells = [(g, j) for g in range(topology.radix) for j in range(topology.radix)]
        borders = [topology.border_switch_of_group(g) for g in range(topology.radix)]
        cores = topology.core_ids
        self._core_layer: tuple[str, ...] = (
            *(cores[cell] for cell in cells),
            *(link_id(borders[g], cores[g, j]) for g, j in cells),
            *borders,
        )
        self._cells = cells  # (group, j) in the order the blocks reshape by
        self._pod_layers: dict[int, tuple[str, ...]] = {}
        self._edge_layers: dict[str, tuple[str, ...]] = {}

    @staticmethod
    def _combine(*masks):
        """AND possibly-None alive masks (None = always alive).

        The result may alias the single non-None input, so combined masks
        are read-only by convention (every combiner here copies-on-write
        the same way).
        """
        result = None
        owned = False
        for mask in masks:
            if mask is None:
                continue
            if result is None:
                result = mask
            elif owned:
                np.bitwise_and(result, mask, out=result)
            else:
                result = np.bitwise_and(result, mask)
                owned = True
        return result

    # ------------------------------------------------------------------
    # Block-form external scaffolding
    #
    # One numpy call per path segment would be hundreds of sub-microsecond
    # bitwise ops whose *call overhead* dominates on packed rows (a k=4
    # fabric's row is ~1 KB). The scaffold is therefore evaluated in three
    # kinds of block, each built on first need for everything a call is
    # missing at once and cached on the states object for its whole life:
    # the core layer's border->core segments, one pod's aggregation
    # switches' routes up, one edge switch's external row. A host's
    # closure names every element its pod block and edge row read
    # (`relevant_layers` is assembled from the same id layouts), and a
    # states object's failed mapping only ever gains rows, so a block
    # built when its first host is queried never goes stale. Always-alive
    # (absent) elements enter as all-ones rows, which AND/OR treat
    # exactly as the pairwise formulas treat None.
    # ------------------------------------------------------------------

    def _pod_layer(self, pod: int) -> tuple[str, ...]:
        """One pod's agg->core uplinks in (group, j) order, then its
        aggregation switches; built once per engine."""
        ids = self._pod_layers.get(pod)
        if ids is None:
            topo = self.topology
            aggs = [topo.agg_ids[(pod, g)] for g in range(topo.radix)]
            ids = self._pod_layers[pod] = (
                *(link_id(aggs[g], topo.core_ids[g, j]) for g, j in self._cells),
                *aggs,
            )
        return ids

    def _edge_layer(self, edge: str) -> tuple[str, ...]:
        """One edge switch's uplinks in group order, then the switch
        itself; built once per engine."""
        ids = self._edge_layers.get(edge)
        if ids is None:
            topo = self.topology
            pod = topo.edge_pod[edge]
            ids = self._edge_layers[edge] = (
                *(link_id(edge, topo.agg_ids[(pod, g)]) for g in range(topo.radix)),
                edge,
            )
        return ids

    @staticmethod
    def _alive_rows(states: RoundStates, ids: Sequence[str]) -> np.ndarray:
        """Packed alive matrix, one row per id (absent = always alive)."""
        alive = np.zeros((len(ids), states.width), dtype=np.uint8)
        failed_get = states.failed.get
        for i, cid in enumerate(ids):
            row = failed_get(cid)
            if row is not None:
                alive[i] = row
        return np.bitwise_not(alive, out=alive)

    def _edge_ext_rows(self, states: RoundStates, edges: Sequence[str]) -> np.ndarray:
        """Packed "alive with an alive route to an external core" rows of
        the given edge switches, stacked in call order."""
        cache = states.segments
        missing = [e for e in dict.fromkeys(edges) if ("edge_row", e) not in cache]
        if missing:
            topo = self.topology
            radix, width = topo.radix, states.width
            cells = radix * radix
            # border(g) -> core(g, j) segments, shaped (group, j, width).
            ext_core = cache.get("core_block")
            if ext_core is None:
                alive = self._alive_rows(states, self._core_layer)
                ext_core = alive[:cells] & alive[cells : 2 * cells]
                ext_core = ext_core.reshape(radix, radix, width)
                ext_core &= alive[2 * cells :, None, :]
                cache["core_block"] = ext_core
            # agg(pod, g) alive with a route up: OR over core index j.
            pod_of = [topo.edge_pod[e] for e in missing]
            pods = [p for p in dict.fromkeys(pod_of) if ("pod_block", p) not in cache]
            if pods:
                alive = self._alive_rows(
                    states, [cid for pod in pods for cid in self._pod_layer(pod)]
                ).reshape(len(pods), cells + radix, width)
                segments = alive[:, :cells].reshape(len(pods), radix, radix, width)
                segments &= ext_core
                agg_ext = np.bitwise_or.reduce(segments, axis=2)
                agg_ext &= alive[:, cells:]
                for pod, block in zip(pods, agg_ext):
                    cache["pod_block", pod] = block
            # edge alive with a route up: OR over aggregation group g.
            alive = self._alive_rows(
                states, [cid for edge in missing for cid in self._edge_layer(edge)]
            ).reshape(len(missing), radix + 1, width)
            segments = alive[:, :radix]
            segments &= np.stack([cache["pod_block", pod] for pod in pod_of])
            rows = np.bitwise_or.reduce(segments, axis=1)
            rows &= alive[:, radix]
            for edge, row in zip(missing, rows):
                cache["edge_row", edge] = row
        return np.stack([cache["edge_row", e] for e in edges])

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------

    def relevant_layers(self, host: str):
        """The core layer every host shares, the host's pod, its edge
        switch, and the host with its own link."""
        topo = self.topology
        edge = topo.edge_switch_of(host)
        pod = topo.edge_pod[edge]
        return (
            ("core", self._core_layer),
            (("pod", pod), self._pod_layer(pod)),
            (("edge", edge), self._edge_layer(edge)),
            (host, (host, link_id(host, edge))),
        )

    def external_reachable(
        self, states: RoundStates, hosts: Sequence[str]
    ) -> dict[str, np.ndarray]:
        if not hosts:
            return {}
        edges = [self.topology.edge_switch_of(host) for host in hosts]
        n = len(hosts)
        alive = self._alive_rows(
            states, [*hosts, *(link_id(h, e) for h, e in zip(hosts, edges))]
        )
        matrix = alive[:n] & alive[n:]
        matrix &= self._edge_ext_rows(states, edges)
        return dict(zip(hosts, matrix))

    def pairwise_reachable(
        self, states: RoundStates, pairs: Sequence[tuple[str, str]]
    ) -> dict[tuple[str, str], np.ndarray]:
        result = {}
        for a, b in pairs:
            result[(a, b)] = states.materialize(self._pair_mask(states, a, b))
        return result

    def _pair_mask(self, states: RoundStates, a: str, b: str):
        topo = self.topology
        if a == b:
            return self._combine(all_alive(states, (a,)))

        edge_a = topo.edge_switch_of(a)
        edge_b = topo.edge_switch_of(b)
        endpoints = self._combine(
            all_alive(states, (a, b, link_id(a, edge_a), link_id(b, edge_b), edge_a)),
            all_alive(states, (edge_b,)) if edge_b != edge_a else None,
        )

        if edge_a == edge_b:
            return endpoints

        pod_a = topo.edge_pod[edge_a]
        pod_b = topo.edge_pod[edge_b]
        if pod_a == pod_b:
            # Intra-pod: any shared aggregation switch with both downlinks.
            paths = []
            for group in range(topo.radix):
                agg = topo.agg_ids[(pod_a, group)]
                paths.append(
                    self._combine(
                        all_alive(
                            states, (agg, link_id(edge_a, agg), link_id(edge_b, agg))
                        )
                    )
                )
            return self._combine(endpoints, any_path(paths, states))

        # Inter-pod: up through group g on both sides, across any core j.
        paths = []
        for group in range(topo.radix):
            agg_a = topo.agg_ids[(pod_a, group)]
            agg_b = topo.agg_ids[(pod_b, group)]
            rim = self._combine(
                all_alive(
                    states,
                    (agg_a, agg_b, link_id(edge_a, agg_a), link_id(edge_b, agg_b)),
                )
            )
            core_paths = []
            for j in range(topo.radix):
                core = topo.core_ids[(group, j)]
                core_paths.append(
                    self._combine(
                        all_alive(
                            states, (core, link_id(agg_a, core), link_id(agg_b, core))
                        )
                    )
                )
            paths.append(self._combine(rim, any_path(core_paths, states)))
        return self._combine(endpoints, any_path(paths, states))
