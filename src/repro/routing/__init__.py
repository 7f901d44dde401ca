"""Route-and-check engines: generic connectivity and fast per-architecture paths."""

from repro.routing.base import (
    ReachabilityEngine,
    RoundStates,
    all_alive,
    any_path,
    engine_for,
)
from repro.routing.fattree_fast import FatTreeReachabilityEngine
from repro.routing.generic import GenericReachabilityEngine
from repro.routing.leafspine_fast import LeafSpineReachabilityEngine

__all__ = [
    "FatTreeReachabilityEngine",
    "GenericReachabilityEngine",
    "LeafSpineReachabilityEngine",
    "ReachabilityEngine",
    "RoundStates",
    "all_alive",
    "any_path",
    "engine_for",
]
