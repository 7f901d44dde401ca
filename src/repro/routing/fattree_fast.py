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

from typing import Iterable, Sequence

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


def _any_of(*rows: np.ndarray | None) -> np.ndarray | None:
    """OR of failed rows (``None`` = never fails); may alias an input."""
    result = None
    for row in rows:
        if row is not None:
            result = row if result is None else result | row
    return result


def _every(rows: Iterable[np.ndarray | None]) -> np.ndarray | None:
    """AND of failed rows, lazily: ``None`` at the first row that never
    fails or once the running AND clears (for sparse rows, after one)."""
    result = None
    for row in rows:
        if row is None:
            return None
        result = row if result is None else result & row
        if result is not row and not np.count_nonzero(result):
            return None
    return result


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
    # Failure-driven external scaffolding
    #
    # In failed rows F (absent = never fails), De Morgan turns the
    # AND-of-alive / OR-of-paths formulas into, bit for bit:
    #   agg_dead[g] = F(agg) | F(border g) | AND_j (F(agg->core) | F(core) | F(border->core))
    #   edge_dead   = F(edge) | AND_g (F(edge->agg g) | agg_dead[g])
    #   external    = ~(F(host) | F(host->edge) | edge_dead)
    # An AND with a never-failing term is zero, so only a (pod, group) or
    # an edge switch with a failing uplink (screened by membership in
    # ``failed``) reads its uplinks' rows. The core layer's, a pod's and
    # an edge switch's rows are cached on the states object for its life:
    # each reads only its layer of `relevant_layers`, which a host's
    # closure names, and ``failed`` only gains rows, so none goes stale.
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

    def _core_block(self, states: RoundStates):
        """Per group: its cells' failed rows (core switch | border link, by
        ``j``) and the rounds it has no route to an alive border switch."""
        core = states.segments.get("core_block")
        if core is None:
            radix = self.topology.radix
            cells = radix * radix
            rows = [states.failed.get(cid) for cid in self._core_layer]
            cell = [_any_of(a, b) for a, b in zip(rows[:cells], rows[cells : 2 * cells])]
            by_group = [cell[g * radix : (g + 1) * radix] for g in range(radix)]
            dead = [_any_of(b, _every(group)) for b, group in zip(rows[2 * cells :], by_group)]
            core = states.segments["core_block"] = (by_group, dead)
        return core

    def _pod_block(self, states: RoundStates, pod: int):
        """Per group, the failed rows whose OR is ``agg_dead[g]``; and the
        AND over the groups of those ORs."""
        block = states.segments.get(("pod_block", pod))
        if block is None:
            by_group, core_dead = self._core_block(states)
            radix = self.topology.radix
            cells = radix * radix
            get, keys = states.failed.get, states.failed.keys()
            ids = self._pod_layer(pod)
            parts = [(get(agg), dead) for agg, dead in zip(ids[cells:], core_dead)]
            for g in range(radix):
                uplinks = ids[g * radix : (g + 1) * radix]
                if not keys.isdisjoint(uplinks):
                    route = [_any_of(get(u), c) for u, c in zip(uplinks, by_group[g])]
                    parts[g] += (_every(route),)
            block = (parts, _every(_any_of(*part) for part in parts))
            states.segments["pod_block", pod] = block
        return block

    def _edge_dead(self, states: RoundStates, edge: str):
        """``edge_dead`` of one edge switch."""
        dead = states.segments.get(("edge_row", edge), False)
        if dead is False:
            parts, dead = self._pod_block(states, self.topology.edge_pod[edge])
            get, ids = states.failed.get, self._edge_layer(edge)
            if not states.failed.keys().isdisjoint(ids[:-1]):
                dead = _every([_any_of(get(u), *p) for u, p in zip(ids[:-1], parts)])
            dead = states.segments["edge_row", edge] = _any_of(get(ids[-1]), dead)
        return dead

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
        matrix = np.zeros((len(hosts), states.width), dtype=np.uint8)
        get = states.failed.get
        for i, (host, edge) in enumerate(zip(hosts, edges)):
            dead = _any_of(self._edge_dead(states, edge), get(host), get(link_id(host, edge)))
            if dead is not None:
                matrix[i] = dead
        np.invert(matrix, out=matrix)
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
