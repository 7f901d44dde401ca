"""Generators for the application shapes evaluated in the paper (§4.2.3).

* ``multilayer`` — a chain of layers where each layer's alive instances
  must reach the next layer's instances (Figs. 6 and 11: "1-4 layers").
* ``microservice_mesh`` — the paper's "X-Y" structure: X fully-meshed core
  components, each talking to its own Y supporting components (Fig. 11:
  3-5, 5-10 and 10-20 structures; 10-20 means 10 + 10*20 = 210 components).
"""

from __future__ import annotations

from repro.app.structure import (
    EXTERNAL,
    ApplicationStructure,
    ComponentSpec,
    ReachabilityRequirement,
)
from repro.util.errors import ConfigurationError


def multilayer(
    layers: int, instances_per_layer: int = 5, k_per_layer: int = 4
) -> ApplicationStructure:
    """A chain of ``layers`` components, 4-of-5 redundancy each (§4.2.3).

    Layer 0 must be reachable externally; the alive instances of layer i
    must reach at least ``k_per_layer`` instances of layer i+1.
    """
    if layers < 1:
        raise ConfigurationError(f"need at least one layer, got {layers}")
    components = [
        ComponentSpec(f"layer{i}", instances_per_layer) for i in range(layers)
    ]
    requirements = [ReachabilityRequirement("layer0", EXTERNAL, k_per_layer)]
    for i in range(1, layers):
        requirements.append(
            ReachabilityRequirement(f"layer{i}", f"layer{i - 1}", k_per_layer)
        )
    return ApplicationStructure(components, requirements, name=f"{layers}-layer")


def microservice_mesh(
    cores: int,
    supports_per_core: int,
    instances_per_component: int = 5,
    k_per_component: int = 4,
    externally_reachable_cores: int = 1,
) -> ApplicationStructure:
    """The paper's "X-Y" microservice structure (§4.2.3).

    ``cores`` core components are fully meshed (every core must reach every
    other core); each core additionally communicates with its own
    ``supports_per_core`` supporting components. Every component uses
    ``k_per_component``-of-``instances_per_component`` redundancy. The
    first ``externally_reachable_cores`` cores must also be reachable from
    the outside, anchoring the whole mesh to the border switches.
    """
    if cores < 1:
        raise ConfigurationError(f"need at least one core component, got {cores}")
    if supports_per_core < 0:
        raise ConfigurationError(
            f"supports_per_core must be >= 0, got {supports_per_core}"
        )
    if not 1 <= externally_reachable_cores <= cores:
        raise ConfigurationError(
            f"externally_reachable_cores must be in [1, {cores}], "
            f"got {externally_reachable_cores}"
        )

    components = []
    requirements = []
    for c in range(cores):
        core_name = f"core{c}"
        components.append(ComponentSpec(core_name, instances_per_component))
        if c < externally_reachable_cores:
            requirements.append(
                ReachabilityRequirement(core_name, EXTERNAL, k_per_component)
            )
    # Full mesh among cores: each core reachable from every other core.
    for a in range(cores):
        for b in range(cores):
            if a != b:
                requirements.append(
                    ReachabilityRequirement(f"core{a}", f"core{b}", k_per_component)
                )
    # Each core's private supporting components.
    for c in range(cores):
        for s in range(supports_per_core):
            support_name = f"support{c}_{s}"
            components.append(ComponentSpec(support_name, instances_per_component))
            requirements.append(
                ReachabilityRequirement(support_name, f"core{c}", k_per_component)
            )
    return ApplicationStructure(
        components, requirements, name=f"microservice-{cores}-{supports_per_core}"
    )
