"""Data-center topology abstraction.

A :class:`Topology` is a graph of network components — hosts, switches and
the links between them — plus the set of *border switches* that peer with
external entities (§3.1). Every network element is a two-state
:class:`~repro.faults.component.Component`, so samplers and the
route-and-check engine can treat a topology uniformly regardless of its
architecture. Architecture-specific subclasses (fat-tree, leaf-spine)
populate the adjacency and may expose extra structure for fast routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.faults.component import Component, ComponentType, link_id
from repro.faults.probability import PaperProbabilityPolicy, ProbabilityPolicy
from repro.util.errors import TopologyError
from repro.util.rng import make_rng


@dataclass(frozen=True, slots=True)
class TopologySummary:
    """Component counts of a topology, as reported in the paper's Table 2."""

    name: str
    ports_per_switch: int
    core_switches: int
    aggregation_switches: int
    edge_switches: int
    border_switches: int
    hosts: int
    links: int

    @property
    def total_switches(self) -> int:
        return (
            self.core_switches
            + self.aggregation_switches
            + self.edge_switches
            + self.border_switches
        )


class Topology:
    """A data-center network: typed components connected by links.

    :attr:`adjacency` maps every host and switch id to its neighbours, each
    to the id of the link component between them, both in insertion
    order. Subclasses call the ``_add_*`` builders during construction and
    then :meth:`_freeze`, which draws every failure probability at once.
    """

    #: Moves on every :meth:`override_probabilities`: half of the
    #: substrate version a compiled kernel is keyed by
    #: (:attr:`repro.faults.dependencies.DependencyModel.generation`).
    generation = 0

    def __init__(
        self,
        name: str,
        probability_policy: ProbabilityPolicy | None = None,
        seed: int | np.random.Generator | None = None,
    ):
        self.name = name
        self._policy = probability_policy or PaperProbabilityPolicy()
        self._rng = make_rng(seed)
        self.adjacency: dict[str, dict[str, str]] = {}
        self.components: dict[str, Component] = {}  # filled by _freeze
        self._pending: dict[str, tuple[ComponentType, dict]] = {}
        self.hosts: list[str] = []
        self.border_switches: list[str] = []
        self._frozen = False

    # ------------------------------------------------------------------
    # Construction API (used by subclasses)
    # ------------------------------------------------------------------

    def _add_component(
        self, component_id: str, component_type: ComponentType, **attributes
    ) -> None:
        if self._frozen:
            raise TopologyError(f"topology {self.name!r} is frozen")
        if component_id in self._pending:
            raise TopologyError(f"duplicate component id {component_id!r}")
        self._pending[component_id] = (component_type, attributes)

    def _add_host(self, component_id: str, **attributes) -> None:
        self._add_component(component_id, ComponentType.HOST, **attributes)
        self.adjacency[component_id] = {}
        self.hosts.append(component_id)

    def _add_switch(
        self, component_id: str, component_type: ComponentType, **attributes
    ) -> None:
        if not component_type.is_switch:
            raise TopologyError(f"{component_type} is not a switch type")
        self._add_component(component_id, component_type, **attributes)
        self.adjacency[component_id] = {}
        if component_type is ComponentType.BORDER_SWITCH:
            self.border_switches.append(component_id)

    def _add_link(self, endpoint_a: str, endpoint_b: str, **attributes) -> None:
        if endpoint_a == endpoint_b:
            raise TopologyError(f"link from {endpoint_a!r} to itself")
        for endpoint in (endpoint_a, endpoint_b):
            if endpoint not in self.adjacency:
                raise TopologyError(f"link endpoint {endpoint!r} does not exist")
        if endpoint_b in self.adjacency[endpoint_a]:
            raise TopologyError(f"duplicate link {endpoint_a!r} -- {endpoint_b!r}")
        cid = link_id(endpoint_a, endpoint_b)
        self._add_component(cid, ComponentType.LINK, **attributes)
        self.adjacency[endpoint_a][endpoint_b] = cid
        self.adjacency[endpoint_b][endpoint_a] = cid

    def _freeze(self) -> None:
        """Validate, draw every failure probability in one policy call (in
        insertion order) and seal the topology."""
        if not self.hosts:
            raise TopologyError(f"topology {self.name!r} has no hosts")
        if not self.border_switches:
            raise TopologyError(
                f"topology {self.name!r} has no border switches for external "
                "connectivity"
            )
        types = [ctype for ctype, _ in self._pending.values()]
        probabilities = self._policy.probabilities(types, self._rng).tolist()
        self.components = {
            cid: Component(cid, ctype, p, attributes)
            for (cid, (ctype, attributes)), p in zip(self._pending.items(), probabilities)
        }
        del self._pending
        self._frozen = True

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------

    @cached_property
    def elements(self) -> frozenset[str]:
        """Ids of the hosts and switches (links join them), as one set the
        assessors split closures against. Read it on the frozen topology:
        it is built once."""
        return frozenset(self.adjacency)

    def links(self) -> Iterator[tuple[str, str, str]]:
        """``(endpoint, endpoint, link id)`` of every link once, from the
        endpoint added first; in node, then neighbour, insertion order."""
        done: set[str] = set()
        for node, neighbours in self.adjacency.items():
            done.add(node)
            for neighbour, link in neighbours.items():
                if neighbour not in done:
                    yield node, neighbour, link

    def component(self, component_id: str) -> Component:
        """The component with ``component_id``; raises on unknown ids."""
        try:
            return self.components[component_id]
        except KeyError:
            raise TopologyError(f"unknown component {component_id!r}") from None

    @property
    def switches(self) -> list[str]:
        """Ids of every switch (all tiers, including border switches)."""
        return [
            c.component_id for c in self.components.values() if c.component_type.is_switch
        ]

    def edge_switch_of(self, host_id: str) -> str:
        """The (single) switch a host attaches to."""
        validate_hosts_exist(self, (host_id,))
        neighbors = self.adjacency[host_id]
        if len(neighbors) != 1:
            raise TopologyError(
                f"host {host_id!r} attaches to {len(neighbors)} switches; "
                "expected exactly one"
            )
        return next(iter(neighbors))

    def rack_of(self, host_id: str) -> str:
        """The rack a host lives in.

        By default a rack is identified with the host's edge/ToR switch,
        which matches how the paper's common-practice baseline spreads
        instances across racks (§4.2.2).
        """
        return self.edge_switch_of(host_id)

    def hosts_in_rack(self, rack_id: str) -> list[str]:
        """All hosts attached to the given rack's edge switch."""
        if rack_id not in self._racks:
            raise TopologyError(f"{rack_id!r} is not a rack")
        return [
            n
            for n in self.adjacency[rack_id]
            if self.components[n].component_type is ComponentType.HOST
        ]

    @cached_property
    def _racks(self) -> dict[str, None]:
        return dict.fromkeys(self.rack_of(host) for host in self.hosts)

    def racks(self) -> list[str]:
        """Every rack id (edge switches that have at least one host), in
        host order: the caller's own copy of a walk over every host done
        once, on the frozen topology."""
        return list(self._racks)

    @cached_property
    def _probabilities(self) -> dict[str, float]:
        return {
            cid: component.failure_probability
            for cid, component in self.components.items()
        }

    def failure_probabilities(self) -> dict[str, float]:
        """Map of component id -> failure probability for every component
        (the caller's own copy; every assessor and kernel asks for one)."""
        return dict(self._probabilities)

    def override_probabilities(self, overrides: Mapping[str, float]) -> None:
        """Replace failure probabilities for selected components.

        Supports the paper's bathtub-curve updates and what-if studies.
        Allowed on frozen topologies because it changes no structure. Moves
        :attr:`generation`, so the next assessor, and any
        ``refresh_probabilities()``, gets a kernel compiled against the
        new probabilities.
        """
        for cid, probability in overrides.items():
            self.components[cid] = self.component(cid).with_probability(probability)
        self.__dict__.pop("_probabilities", None)
        self.generation += 1

    def summarize(self) -> TopologySummary:
        """Component counts in the shape of the paper's Table 2."""
        by_type = {ctype: 0 for ctype in ComponentType}
        for component in self.components.values():
            by_type[component.component_type] += 1
        return TopologySummary(
            name=self.name,
            ports_per_switch=getattr(self, "ports_per_switch", 0),
            core_switches=by_type[ComponentType.CORE_SWITCH],
            aggregation_switches=by_type[ComponentType.AGGREGATION_SWITCH],
            edge_switches=by_type[ComponentType.EDGE_SWITCH],
            border_switches=by_type[ComponentType.BORDER_SWITCH],
            hosts=by_type[ComponentType.HOST],
            links=by_type[ComponentType.LINK],
        )

    # ------------------------------------------------------------------
    # Symmetry support (network transformations, §3.3.1 Step 3)
    # ------------------------------------------------------------------

    def symmetry_class_of(self, component_id: str) -> str:
        """A label such that automorphic elements share a label.

        The base implementation distinguishes only component types;
        architecture subclasses refine it (e.g. per switch tier and pod
        role). Failure-probability classes are layered on separately by the
        transformations module, because §3.3.1 treats same-type components
        with very different probabilities as logically different types.
        """
        return self.component(component_id).component_type.value

    def __contains__(self, component_id: str) -> bool:
        return component_id in self.components

    def __repr__(self) -> str:
        s = self.summarize()
        return (
            f"<{type(self).__name__} {self.name!r}: {s.hosts} hosts, "
            f"{s.total_switches} switches, {s.links} links>"
        )


def validate_hosts_exist(topology: Topology, host_ids: Iterable[str]) -> None:
    """Raise :class:`TopologyError` unless every id names a host."""
    for host_id in host_ids:
        component = topology.component(host_id)
        if component.component_type is not ComponentType.HOST:
            raise TopologyError(f"{host_id!r} is a {component.component_type.value}, not a host")
