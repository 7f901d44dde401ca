"""Application structures: K-of-N, layered and microservice applications."""

from repro.app.generators import microservice_mesh, multilayer
from repro.app.structure import (
    EXTERNAL,
    ApplicationStructure,
    ComponentSpec,
    InstanceRef,
    ReachabilityRequirement,
)

__all__ = [
    "ApplicationStructure",
    "ComponentSpec",
    "EXTERNAL",
    "InstanceRef",
    "ReachabilityRequirement",
    "microservice_mesh",
    "multilayer",
]
