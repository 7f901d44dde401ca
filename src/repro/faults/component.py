"""Infrastructure components and the two-state fault model.

The paper's fault model (§2.1) covers hardware components (servers,
switches, power supplies, cooling systems), software components (OS,
libraries, firmware) and network components (links). Every component is in
one of two states — alive or failed — and partially-failed components are
treated as failed. Each component carries a failure probability ``p``
measured as downtime / window length (e.g. an annual failure rate).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache


class ComponentType(enum.Enum):
    """The kinds of infrastructure components reCloud reasons about."""

    HOST = "host"
    EDGE_SWITCH = "edge_switch"
    AGGREGATION_SWITCH = "aggregation_switch"
    CORE_SWITCH = "core_switch"
    BORDER_SWITCH = "border_switch"
    WAN_ROUTER = "wan_router"
    LINK = "link"
    POWER_SUPPLY = "power_supply"
    COOLING = "cooling"
    CONTROL_PLANE = "control_plane"
    OPERATING_SYSTEM = "operating_system"
    LIBRARY = "library"
    FIRMWARE = "firmware"

    @property
    def is_switch(self) -> bool:
        """True for every switch tier, including border switches."""
        return self in _SWITCH_TYPES


_SWITCH_TYPES = frozenset(
    {
        ComponentType.EDGE_SWITCH,
        ComponentType.AGGREGATION_SWITCH,
        ComponentType.CORE_SWITCH,
        ComponentType.BORDER_SWITCH,
        # WAN routers join zones; they live in the network graph and route
        # like switches, so they share the switch failure model (§4.1).
        ComponentType.WAN_ROUTER,
    }
)


@dataclass(frozen=True, slots=True)
class Component:
    """A single two-state infrastructure component.

    Attributes:
        component_id: Globally unique identifier, e.g. ``"host/3/1/0"``.
        component_type: What kind of component this is.
        failure_probability: Probability of being failed in a sampling round
            (the paper's per-window failure probability). Must lie in [0, 1).
        attributes: Free-form metadata (pod index, rack index, vendor, ...)
            used by topology-aware code and by symmetry signatures.
    """

    component_id: str
    component_type: ComponentType
    failure_probability: float
    attributes: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        p = self.failure_probability
        if not 0.0 <= p < 1.0:
            raise ValueError(
                f"failure probability of {self.component_id} must be in [0, 1), got {p}"
            )

    def with_probability(self, probability: float) -> "Component":
        """Return a copy of this component with a new failure probability.

        Components are frozen; this supports the paper's bathtub-curve
        adjustment where ``p`` changes over a component's lifetime (§3.2.2).
        """
        return Component(
            component_id=self.component_id,
            component_type=self.component_type,
            failure_probability=probability,
            attributes=dict(self.attributes),
        )


@lru_cache(maxsize=65536)
def link_id(endpoint_a: str, endpoint_b: str) -> str:
    """Canonical component id for the link between two endpoints.

    Links are undirected, so the id is order-independent. Cached: the
    routing engines ask for the same few hundred link ids on every one
    of the search's tens of thousands of assessments.
    """
    low, high = sorted((endpoint_a, endpoint_b))
    return f"link[{low}--{high}]"
