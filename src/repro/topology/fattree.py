"""Fat-tree data-center topology with a dedicated border pod (§3.1, Fig. 1).

The classic k-ary fat-tree [3] has k pods, each with k/2 edge and k/2
aggregation switches, and (k/2)^2 core switches. Following Google's
approach to external connectivity [69], one pod is dedicated to peering:
its k/2 switches are the *border switches*, attached to the core exactly
like aggregation switches, which gives the full external bandwidth to all
remaining k-1 pods. The component counts of this construction match the
paper's Table 2 for k = 8, 16, 24 and 48.

Indexing convention (the standard fat-tree wiring):

* Core switches form a (k/2) x (k/2) grid ``core/<g>/<j>``; group ``g``
  connects to the g-th aggregation switch of every pod.
* Pod ``p`` (0 <= p <= k-2) has aggregation switches ``agg/<p>/<g>``,
  edge switches ``edge/<p>/<e>`` and hosts ``host/<p>/<e>/<h>``.
* The border pod has switches ``border/<g>``, with ``border/<g>``
  connected to all cores of group ``g``.
"""

from __future__ import annotations

import numpy as np

from repro.faults.component import ComponentType
from repro.faults.probability import ProbabilityPolicy
from repro.topology.base import Topology
from repro.util.errors import ConfigurationError


class FatTreeTopology(Topology):
    """A k-ary fat-tree with one pod dedicated to external connectivity."""

    def __init__(
        self,
        k: int,
        name: str | None = None,
        probability_policy: ProbabilityPolicy | None = None,
        seed: int | np.random.Generator | None = None,
    ):
        if k < 4 or k % 2 != 0:
            raise ConfigurationError(f"fat-tree arity k must be an even integer >= 4, got {k}")
        super().__init__(
            name=name or f"fat-tree-k{k}",
            probability_policy=probability_policy,
            seed=seed,
        )
        self.ports_per_switch = k
        self.k = k
        self.radix = k // 2
        self.num_pods = k - 1  # pods carrying hosts; one pod is the border pod

        # Fast-path routing structure, filled during construction:
        self.edge_pod: dict[str, int] = {}
        self.agg_ids: dict[tuple[int, int], str] = {}  # (pod, group) -> agg id
        self.core_ids: dict[tuple[int, int], str] = {}  # (group, j) -> core id
        self.border_ids: dict[int, str] = {}  # group -> border id

        self._build()
        self._freeze()

    def _build(self) -> None:
        r = self.radix

        for group in range(r):
            for j in range(r):
                cid = f"core/{group}/{j}"
                self.core_ids[(group, j)] = cid
                self._add_switch(cid, ComponentType.CORE_SWITCH, group=group, index=j)

        for group in range(r):
            bid = f"border/{group}"
            self.border_ids[group] = bid
            self._add_switch(bid, ComponentType.BORDER_SWITCH, group=group)
            for j in range(r):
                self._add_link(bid, self.core_ids[(group, j)])

        for pod in range(self.num_pods):
            for group in range(r):
                aid = f"agg/{pod}/{group}"
                self.agg_ids[(pod, group)] = aid
                self._add_switch(
                    aid, ComponentType.AGGREGATION_SWITCH, pod=pod, group=group
                )
                for j in range(r):
                    self._add_link(aid, self.core_ids[(group, j)])
            for edge in range(r):
                eid = f"edge/{pod}/{edge}"
                self.edge_pod[eid] = pod
                self._add_switch(eid, ComponentType.EDGE_SWITCH, pod=pod, index=edge)
                for group in range(r):
                    self._add_link(eid, self.agg_ids[(pod, group)])
                for h in range(r):
                    hid = f"host/{pod}/{edge}/{h}"
                    self._add_host(hid, pod=pod, edge=edge, index=h)
                    self._add_link(hid, eid)

    # ------------------------------------------------------------------
    # Structure queries used by the fast route-and-check path
    # ------------------------------------------------------------------

    def pod_of(self, component_id: str) -> int | None:
        """The pod index of a host/edge/aggregation switch, else ``None``."""
        return self.component(component_id).attributes.get("pod")

    def border_switch_of_group(self, group: int) -> str:
        """The border switch attached to core group ``group``."""
        return self.border_ids[group]

    def symmetry_class_of(self, component_id: str) -> str:
        """Fat-trees are vertex-transitive within each tier.

        Every host is automorphic to every other host (pods and edge
        positions can be permuted), and likewise within each switch tier,
        so the tier name is the symmetry class.
        """
        return self.component(component_id).component_type.value
