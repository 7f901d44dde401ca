"""Fault model: components, probabilities, fault trees, dependency inventories."""

from repro.faults.component import Component, ComponentType, link_id
from repro.faults.cvss import (
    SyntheticVulnerabilityDatabase,
    Vulnerability,
    software_failure_probability,
)
from repro.faults.dependencies import DependencyModel
from repro.faults.faulttree import (
    BasicEvent,
    FaultTree,
    Gate,
    GateKind,
    and_gate,
    basic,
    k_of_n_gate,
    or_gate,
    trivial_tree,
)
from repro.faults.inventory import (
    ZoneOutage,
    attach_host_software,
    attach_power_supplies,
    attach_rack_cooling,
    attach_redundant_power,
    attach_zone_shared_roots,
    build_paper_inventory,
    build_rich_inventory,
    build_zone_inventory,
    validate_failure_probabilities,
    zone_shared_root_ids,
)
from repro.faults.probability import (
    AhpProbabilityPolicy,
    BathtubCurve,
    DefaultProbabilityPolicy,
    NormalProbabilityModel,
    PaperProbabilityPolicy,
    ProbabilityPolicy,
    annual_downtime_hours,
)

__all__ = [
    "AhpProbabilityPolicy",
    "BasicEvent",
    "BathtubCurve",
    "Component",
    "ComponentType",
    "DefaultProbabilityPolicy",
    "DependencyModel",
    "FaultTree",
    "Gate",
    "GateKind",
    "NormalProbabilityModel",
    "PaperProbabilityPolicy",
    "ProbabilityPolicy",
    "SyntheticVulnerabilityDatabase",
    "Vulnerability",
    "ZoneOutage",
    "and_gate",
    "annual_downtime_hours",
    "attach_host_software",
    "attach_power_supplies",
    "attach_rack_cooling",
    "attach_redundant_power",
    "attach_zone_shared_roots",
    "basic",
    "build_paper_inventory",
    "build_rich_inventory",
    "build_zone_inventory",
    "k_of_n_gate",
    "link_id",
    "or_gate",
    "software_failure_probability",
    "trivial_tree",
    "validate_failure_probabilities",
    "zone_shared_root_ids",
]
