"""Vectorised up-down route-and-check for leaf-spine fabrics.

Path structure is simpler than a fat-tree's:

* **external -> host**: border -> spine -> leaf -> host for some border
  switch and some spine.
* **host <-> host**: same leaf, or leafA -> spine -> leafB for some spine.
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
from repro.topology.leafspine import LeafSpineTopology
from repro.util.errors import TopologyError


class LeafSpineReachabilityEngine(ReachabilityEngine):
    """Up-down reachability over a :class:`LeafSpineTopology`."""

    topology: LeafSpineTopology

    def __init__(self, topology: LeafSpineTopology):
        if not isinstance(topology, LeafSpineTopology):
            raise TopologyError(
                "LeafSpineReachabilityEngine requires a LeafSpineTopology"
            )
        super().__init__(topology)
        spines, borders = topology.spine_ids, topology.border_switches
        self._spine_layer = (*spines, *borders) + tuple(
            link_id(border, spine) for spine in spines for border in borders
        )

    @staticmethod
    def _combine(*masks):
        """AND possibly-None alive masks (None = always alive).

        May alias the single non-None input; combined masks are
        read-only by convention.
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

    def _spine_external(self, states: RoundStates, spine: str):
        """Spine alive with an alive border switch attached."""
        cache = states.segments
        key = ("spine_ext", spine)
        if key not in cache:
            paths = [
                all_alive(states, (border, link_id(border, spine)))
                for border in self.topology.border_switches
            ]
            cache[key] = self._combine(
                all_alive(states, (spine,)), any_path(paths, states)
            )
        return cache[key]

    def _leaf_external(self, states: RoundStates, leaf: str):
        cache = states.segments
        key = ("leaf_ext", leaf)
        if key not in cache:
            paths = [
                self._combine(
                    self._spine_external(states, spine),
                    all_alive(states, (link_id(leaf, spine),)),
                )
                for spine in self.topology.spine_ids
            ]
            cache[key] = self._combine(
                all_alive(states, (leaf,)), any_path(paths, states)
            )
        return cache[key]

    def relevant_layers(self, host: str):
        """The spine layer every host shares (spines, border switches and
        their links), the host's leaf with its spine links, and the host
        with its own link."""
        topo = self.topology
        leaf = topo.edge_switch_of(host)
        return (
            ("spine", self._spine_layer),
            (("leaf", leaf), (leaf, *(link_id(leaf, s) for s in topo.spine_ids))),
            (host, (host, link_id(host, leaf))),
        )

    def external_reachable(
        self, states: RoundStates, hosts: Sequence[str]
    ) -> dict[str, np.ndarray]:
        topo = self.topology
        result = {}
        for host in hosts:
            leaf = topo.edge_switch_of(host)
            mask = self._combine(
                all_alive(states, (host, link_id(host, leaf))),
                self._leaf_external(states, leaf),
            )
            result[host] = states.materialize(mask)
        return result

    def pairwise_reachable(
        self, states: RoundStates, pairs: Sequence[tuple[str, str]]
    ) -> dict[tuple[str, str], np.ndarray]:
        topo = self.topology
        result = {}
        for a, b in pairs:
            if a == b:
                result[(a, b)] = states.materialize(
                    self._combine(all_alive(states, (a,)))
                )
                continue
            leaf_a = topo.edge_switch_of(a)
            leaf_b = topo.edge_switch_of(b)
            endpoints = self._combine(
                all_alive(
                    states, (a, b, link_id(a, leaf_a), link_id(b, leaf_b), leaf_a)
                ),
                all_alive(states, (leaf_b,)) if leaf_b != leaf_a else None,
            )
            if leaf_a == leaf_b:
                result[(a, b)] = states.materialize(endpoints)
                continue
            paths = [
                self._combine(
                    all_alive(
                        states, (spine, link_id(leaf_a, spine), link_id(leaf_b, spine))
                    )
                )
                for spine in topo.spine_ids
            ]
            mask = self._combine(endpoints, any_path(paths, states))
            result[(a, b)] = states.materialize(mask)
        return result
