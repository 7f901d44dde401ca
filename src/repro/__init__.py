"""reCloud reproduction: reliable application deployment in the cloud.

A from-scratch Python implementation of the reCloud system (Chen et al.,
CoNEXT 2017): quantitative reliability assessment of cloud deployment
plans under correlated failures, with rigorous error bounds, plus a
simulated-annealing search for plans that meet a developer's reliability
requirements - including applications with complex internal structures and
multi-objective (reliability + utility) trade-offs.

Quickstart::

    from repro import (
        ApplicationStructure, AssessmentConfig, DeploymentSearch,
        SearchSpec, build_assessor, build_paper_inventory, paper_topology,
    )

    topology = paper_topology("small", seed=1)
    inventory = build_paper_inventory(topology, seed=2)
    assessor = build_assessor(topology, inventory, AssessmentConfig(rng=3))
    search = DeploymentSearch(assessor, rng=4)
    spec = SearchSpec(ApplicationStructure.k_of_n(4, 5), max_seconds=10.0)
    result = search.search(spec)
    print(result.best_assessment.estimate)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.app import (
    EXTERNAL,
    ApplicationStructure,
    ComponentSpec,
    InstanceRef,
    ReachabilityRequirement,
    microservice_mesh,
    multilayer,
)
from repro.baselines import (
    IndaasComparator,
    common_practice_plan,
    enhanced_common_practice_plan,
    power_diversity,
    top_plans,
)
from repro.core import (
    AssessmentConfig,
    AssessmentResult,
    Assessor,
    BandwidthUtilityObjective,
    CompositeObjective,
    DeploymentPlan,
    DeploymentSearch,
    IncrementalAssessor,
    ReliabilityAssessor,
    ReliabilityObjective,
    RiskAnalyzer,
    RiskEntry,
    SearchResult,
    SearchSpec,
    SymmetryChecker,
    WorkloadUtilityObjective,
    ZoneConstraints,
    build_assessor,
)
from repro.faults import (
    Component,
    ComponentType,
    DependencyModel,
    FaultTree,
    PaperProbabilityPolicy,
    ZoneOutage,
    build_paper_inventory,
    build_rich_inventory,
    build_zone_inventory,
)
from repro.routing import engine_for
from repro.runtime import ParallelAssessor
from repro.service import RedeploymentController
from repro.sampling import (
    DaggerSampler,
    ExtendedDaggerSampler,
    MonteCarloSampler,
    ReliabilityEstimate,
)
from repro.topology import (
    FatTreeTopology,
    LeafSpineTopology,
    MultiZoneTopology,
    Topology,
    paper_topology,
)
from repro.workload import HostWorkloadModel

__version__ = "1.0.0"

__all__ = [
    "ApplicationStructure",
    "AssessmentConfig",
    "AssessmentResult",
    "Assessor",
    "BandwidthUtilityObjective",
    "Component",
    "ComponentSpec",
    "ComponentType",
    "CompositeObjective",
    "DaggerSampler",
    "DependencyModel",
    "DeploymentPlan",
    "DeploymentSearch",
    "EXTERNAL",
    "ExtendedDaggerSampler",
    "FatTreeTopology",
    "FaultTree",
    "HostWorkloadModel",
    "IncrementalAssessor",
    "IndaasComparator",
    "InstanceRef",
    "LeafSpineTopology",
    "MonteCarloSampler",
    "MultiZoneTopology",
    "PaperProbabilityPolicy",
    "ParallelAssessor",
    "ReachabilityRequirement",
    "RedeploymentController",
    "ReliabilityAssessor",
    "ReliabilityEstimate",
    "ReliabilityObjective",
    "RiskAnalyzer",
    "RiskEntry",
    "SearchResult",
    "SearchSpec",
    "SymmetryChecker",
    "Topology",
    "WorkloadUtilityObjective",
    "ZoneConstraints",
    "ZoneOutage",
    "__version__",
    "build_assessor",
    "build_paper_inventory",
    "build_rich_inventory",
    "build_zone_inventory",
    "common_practice_plan",
    "engine_for",
    "enhanced_common_practice_plan",
    "microservice_mesh",
    "multilayer",
    "paper_topology",
    "power_diversity",
    "top_plans",
]
