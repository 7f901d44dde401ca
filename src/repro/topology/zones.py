"""Multi-zone topologies: several fat-tree zones joined by WAN routers.

The paper models one data center — a single fat-tree with a border pod
(§3.1). Real deployments span *availability zones*: independent data
centers with their own power feeds, cooling plants and control planes,
joined by long-haul WAN paths. Two properties matter for reliability:

* **Zone-correlated failures.** A zone's shared roots (power feed,
  cooling, control plane) are single dependencies of every element in
  the zone, so one root failure takes the whole zone down at once. The
  roots are attached as shared fault-tree dependencies by
  :func:`repro.faults.inventory.attach_zone_shared_roots`.
* **WAN paths with their own fault model.** The inter-zone paths are
  modelled as :data:`~repro.faults.component.ComponentType.WAN_ROUTER`
  *nodes* between the zones' border switches rather than bare links,
  because shared fault trees attach to graph-node subjects — a router
  node carries the WAN path's failure probability and any conduit
  dependencies, and the assessors evaluate it like any other switch.

Construction: each zone replicates the k-ary fat-tree wiring of
:class:`~repro.topology.fattree.FatTreeTopology` under a ``<zone>/``
prefix (cores, a border pod, k-1 host pods); every zone's border
switches count as border switches of the joined topology (each zone has
its own external peering). Each zone then gets ``wan_routers_per_zone``
WAN routers, attached to all of the zone's border switches, and routers
of the same plane index are fully meshed across zones.

:class:`MultiZoneTopology` deliberately does **not** subclass
:class:`FatTreeTopology`: the fat-tree's specialised routing engine
assumes a single tree, so :func:`repro.routing.base.engine_for` must
fall through to the generic connectivity engine here.
"""

from __future__ import annotations

import numpy as np

from repro.faults.component import ComponentType
from repro.faults.probability import ProbabilityPolicy
from repro.topology.base import Topology
from repro.util.errors import ConfigurationError, TopologyError


class MultiZoneTopology(Topology):
    """Two or more fat-tree zones joined by a WAN router mesh."""

    def __init__(
        self,
        zones: int = 2,
        k: int = 4,
        wan_routers_per_zone: int = 1,
        name: str | None = None,
        probability_policy: ProbabilityPolicy | None = None,
        seed: int | np.random.Generator | None = None,
    ):
        if zones < 2:
            raise ConfigurationError(f"a multi-zone topology needs >= 2 zones, got {zones}")
        if k < 4 or k % 2 != 0:
            raise ConfigurationError(f"fat-tree arity k must be an even integer >= 4, got {k}")
        if wan_routers_per_zone < 1:
            raise ConfigurationError(
                f"need at least one WAN router per zone, got {wan_routers_per_zone}"
            )
        super().__init__(
            name=name or f"multizone-{zones}x-k{k}",
            probability_policy=probability_policy,
            seed=seed,
        )
        self.ports_per_switch = k
        self.k = k
        self.radix = k // 2
        self.num_zones = zones
        self.wan_routers_per_zone = wan_routers_per_zone
        self.zone_names: list[str] = [f"zone{z}" for z in range(zones)]

        # Fast-path lookups, filled during construction:
        self.hosts_by_zone: dict[str, list[str]] = {z: [] for z in self.zone_names}
        self.borders_by_zone: dict[str, list[str]] = {z: [] for z in self.zone_names}
        self.wan_by_zone: dict[str, list[str]] = {z: [] for z in self.zone_names}

        for zone in self.zone_names:
            self._build_zone(zone)
        self._build_wan_mesh()
        self._freeze()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build_zone(self, zone: str) -> None:
        """One k-ary fat-tree with a border pod, ids prefixed ``<zone>/``."""
        r = self.radix
        core_ids: dict[tuple[int, int], str] = {}

        for group in range(r):
            for j in range(r):
                cid = f"{zone}/core/{group}/{j}"
                core_ids[(group, j)] = cid
                self._add_switch(
                    cid, ComponentType.CORE_SWITCH, zone=zone, group=group, index=j
                )

        for group in range(r):
            bid = f"{zone}/border/{group}"
            self._add_switch(bid, ComponentType.BORDER_SWITCH, zone=zone, group=group)
            self.borders_by_zone[zone].append(bid)
            for j in range(r):
                self._add_link(bid, core_ids[(group, j)], zone=zone)

        for pod in range(self.k - 1):
            pod_label = f"{zone}/{pod}"
            agg_ids = []
            for group in range(r):
                aid = f"{zone}/agg/{pod}/{group}"
                agg_ids.append(aid)
                self._add_switch(
                    aid,
                    ComponentType.AGGREGATION_SWITCH,
                    zone=zone,
                    pod=pod_label,
                    group=group,
                )
                for j in range(r):
                    self._add_link(aid, core_ids[(group, j)], zone=zone)
            for edge in range(r):
                eid = f"{zone}/edge/{pod}/{edge}"
                self._add_switch(
                    eid, ComponentType.EDGE_SWITCH, zone=zone, pod=pod_label, index=edge
                )
                for aid in agg_ids:
                    self._add_link(eid, aid, zone=zone)
                for h in range(r):
                    hid = f"{zone}/host/{pod}/{edge}/{h}"
                    self._add_host(hid, zone=zone, pod=pod_label, edge=edge, index=h)
                    self._add_link(hid, eid, zone=zone)
                    self.hosts_by_zone[zone].append(hid)

    def _build_wan_mesh(self) -> None:
        """WAN routers per zone, meshed plane-by-plane across zones."""
        for zone in self.zone_names:
            for plane in range(self.wan_routers_per_zone):
                wid = f"wan/{zone}/{plane}"
                self._add_switch(wid, ComponentType.WAN_ROUTER, zone=zone, plane=plane)
                self.wan_by_zone[zone].append(wid)
                for bid in self.borders_by_zone[zone]:
                    self._add_link(wid, bid, zone=zone)
        for i, zone_a in enumerate(self.zone_names):
            for zone_b in self.zone_names[i + 1 :]:
                for plane in range(self.wan_routers_per_zone):
                    self._add_link(
                        self.wan_by_zone[zone_a][plane],
                        self.wan_by_zone[zone_b][plane],
                    )

    # ------------------------------------------------------------------
    # Zone queries
    # ------------------------------------------------------------------

    def zone_of(self, component_id: str) -> str | None:
        """The zone a component belongs to (``None`` for inter-zone links)."""
        return self.component(component_id).attributes.get("zone")

    def hosts_in_zone(self, zone: str) -> list[str]:
        """All host ids of one zone, in construction order."""
        self._check_zone(zone)
        return list(self.hosts_by_zone[zone])

    def zone_elements(self, zone: str) -> list[str]:
        """Every graph node (host/switch/router) belonging to one zone."""
        self._check_zone(zone)
        return [
            cid
            for cid, component in self.components.items()
            if component.component_type is not ComponentType.LINK
            and component.attributes.get("zone") == zone
        ]

    def _check_zone(self, zone: str) -> None:
        if zone not in self.hosts_by_zone:
            raise TopologyError(
                f"unknown zone {zone!r}; topology has {self.zone_names}"
            )

    # ------------------------------------------------------------------
    # Structure queries used by routing and symmetry
    # ------------------------------------------------------------------

    def pod_of(self, component_id: str) -> str | None:
        """Zone-qualified pod label of a host/edge/agg switch, else ``None``.

        Labels are ``"<zone>/<pod index>"`` so pods of different zones are
        distinct groups in symmetry surgery graphs.
        """
        return self.component(component_id).attributes.get("pod")

    def symmetry_class_of(self, component_id: str) -> str:
        """Tier label qualified by zone.

        Within a zone each tier is vertex-transitive, exactly as in a
        single fat-tree — but zones are *not* interchangeable: their
        shared roots and WAN attachments carry independent failure
        probabilities, so elements that differ only by zone must land in
        different symmetry classes (a conservative refinement; it can
        only suppress equivalence verdicts, never fabricate them).
        """
        component = self.component(component_id)
        zone = component.attributes.get("zone")
        tier = component.component_type.value
        return f"{zone}:{tier}" if zone is not None else tier
