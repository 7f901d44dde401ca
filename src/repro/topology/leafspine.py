"""Two-tier leaf-spine topology.

reCloud is architecture-agnostic (§3.1, §3.2): only the routing step of
route-and-check changes per architecture. This module provides a second
architecture beyond fat-tree to demonstrate that generality — a standard
leaf-spine (folded Clos) fabric where every leaf (ToR) switch connects to
every spine switch, hosts hang off leaves, and dedicated border switches
attached to all spines provide external connectivity.
"""

from __future__ import annotations

import numpy as np

from repro.faults.component import ComponentType
from repro.faults.probability import ProbabilityPolicy
from repro.topology.base import Topology
from repro.util.errors import ConfigurationError


class LeafSpineTopology(Topology):
    """A leaf-spine fabric with dedicated border switches.

    Args:
        spines: Number of spine switches.
        leaves: Number of leaf (ToR) switches; each is one rack.
        hosts_per_leaf: Hosts attached to each leaf.
        border_switches: Border switches, each connected to every spine.
    """

    def __init__(
        self,
        spines: int,
        leaves: int,
        hosts_per_leaf: int,
        border_switches: int = 2,
        name: str | None = None,
        probability_policy: ProbabilityPolicy | None = None,
        seed: int | np.random.Generator | None = None,
    ):
        if min(spines, leaves, hosts_per_leaf, border_switches) < 1:
            raise ConfigurationError(
                "spines, leaves, hosts_per_leaf and border_switches must all be >= 1"
            )
        super().__init__(
            name=name or f"leaf-spine-{spines}x{leaves}",
            probability_policy=probability_policy,
            seed=seed,
        )
        self.ports_per_switch = max(leaves + border_switches, spines + hosts_per_leaf)
        self.num_spines = spines
        self.num_leaves = leaves
        self.hosts_per_leaf = hosts_per_leaf

        self.spine_ids: list[str] = []
        self.leaf_ids: list[str] = []

        self._build(border_switches)
        self._freeze()

    def _build(self, border_switches: int) -> None:
        for s in range(self.num_spines):
            sid = f"spine/{s}"
            self.spine_ids.append(sid)
            # Spines play the role of the fat-tree core tier.
            self._add_switch(sid, ComponentType.CORE_SWITCH, index=s)

        for b in range(border_switches):
            bid = f"border/{b}"
            self._add_switch(bid, ComponentType.BORDER_SWITCH, index=b)
            for sid in self.spine_ids:
                self._add_link(bid, sid)

        for leaf in range(self.num_leaves):
            lid = f"leaf/{leaf}"
            self.leaf_ids.append(lid)
            self._add_switch(lid, ComponentType.EDGE_SWITCH, index=leaf)
            for sid in self.spine_ids:
                self._add_link(lid, sid)
            for h in range(self.hosts_per_leaf):
                hid = f"host/{leaf}/{h}"
                self._add_host(hid, leaf=leaf, index=h)
                self._add_link(hid, lid)

    def symmetry_class_of(self, component_id: str) -> str:
        """Leaf-spine fabrics are tier-transitive, like fat-trees."""
        return self.component(component_id).component_type.value
