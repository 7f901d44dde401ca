"""reCloud's core: assessment, search, objectives, symmetry, plans."""

from repro.core.anneal import (
    LinearTemperatureSchedule,
    acceptance_probability,
    classic_delta,
    paper_delta,
)
from repro.core.api import (
    AssessmentConfig,
    Assessor,
    build_assessor,
)
from repro.core.assessment import DEFAULT_ROUNDS, ReliabilityAssessor
from repro.core.evaluation import StructureEvaluator
from repro.core.incremental import IncrementalAssessor
from repro.core.objectives import (
    BandwidthUtilityObjective,
    ClassicReliabilityObjective,
    CompositeObjective,
    Objective,
    ReliabilityObjective,
    WeightedObjective,
    WorkloadUtilityObjective,
)
from repro.core.plan import (
    DeploymentPlan,
    ZoneConstraints,
)
from repro.core.result import AssessmentResult, SearchRecord, SearchResult
from repro.core.risk import RiskAnalyzer, RiskEntry
from repro.core.search import DeploymentSearch, SearchSpec
from repro.core.transforms import SymmetryChecker

__all__ = [
    "AssessmentConfig",
    "AssessmentResult",
    "Assessor",
    "BandwidthUtilityObjective",
    "ClassicReliabilityObjective",
    "CompositeObjective",
    "DEFAULT_ROUNDS",
    "DeploymentPlan",
    "DeploymentSearch",
    "IncrementalAssessor",
    "LinearTemperatureSchedule",
    "Objective",
    "ReliabilityAssessor",
    "ReliabilityObjective",
    "RiskAnalyzer",
    "RiskEntry",
    "SearchRecord",
    "SearchResult",
    "SearchSpec",
    "StructureEvaluator",
    "SymmetryChecker",
    "WeightedObjective",
    "WorkloadUtilityObjective",
    "ZoneConstraints",
    "acceptance_probability",
    "build_assessor",
    "classic_delta",
    "paper_delta",
]
