"""Baselines: common practice, enhanced common practice, INDaaS."""

from repro.baselines.common_practice import (
    common_practice_plan,
    enhanced_common_practice_plan,
    power_diversity,
    top_plans,
)
from repro.baselines.indaas import IndaasComparator, RankedPlan

__all__ = [
    "IndaasComparator",
    "RankedPlan",
    "common_practice_plan",
    "enhanced_common_practice_plan",
    "power_diversity",
    "top_plans",
]
