"""Calibration: every sampler's 95 % interval against exact reliabilities.

The paper's promise is a reliability score with a rigorous error bound
(Eqs. 1-3). Here the bound is checked against ground truth instead of
another sample: on a small fat-tree where ``AnalyticAssessor`` evaluates
2- and 3-host plans exactly (26-31 uncertain events, unreliability 2-6 %),
each sampler assesses 8 plans under 100 fixed seeds at 10^4 rounds, and
the share of intervals containing the exact value must reach the nominal
95 % within a three-sigma binomial tolerance.

Eq. 2's ``Var[L] / n`` is exact for Monte-Carlo's independent rounds and
conservative for dagger sampling, whose rounds inside a cycle are
negatively correlated (§3.2.2), so the dagger samplers' intervals cover
well above the nominal rate; only a floor is gated.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.app.structure import ApplicationStructure
from repro.core.analytic import AnalyticAssessor
from repro.core.api import AssessmentConfig, build_assessor
from repro.core.plan import DeploymentPlan
from repro.faults.inventory import build_paper_inventory
from repro.sampling.dagger import (
    CommonRandomDaggerSampler,
    DaggerSampler,
    ExtendedDaggerSampler,
)
from repro.sampling.montecarlo import MonteCarloSampler
from repro.topology.fattree import FatTreeTopology

ROUNDS = 10_000
SEEDS = 100
HOST_SETS = [
    ["host/0/0/0", "host/0/0/1"],  # same rack
    ["host/0/0/0", "host/0/1/0"],  # same pod
    ["host/0/0/0", "host/1/1/0"],  # across pods
    ["host/0/0/0", "host/0/0/1", "host/0/1/0"],
]
#: Nominal coverage minus three binomial standard deviations over the
#: pooled 8 x 100 intervals.
FLOOR = 0.95 - 3 * math.sqrt(0.95 * 0.05 / (2 * len(HOST_SETS) * SEEDS))


@pytest.fixture(scope="module")
def exact_cases():
    """``(plan, structure, exact reliability)`` for k in {1, 2} on each
    host set of ``bench_analytic``'s exactness substrate."""
    topology = FatTreeTopology(4, seed=5)
    model = build_paper_inventory(topology, power_supplies=3, seed=9)
    analytic = AnalyticAssessor.from_config(
        topology, model, AssessmentConfig(rounds=1_000, master_seed=1, mode="analytic")
    )
    cases = []
    for hosts in HOST_SETS:
        for k in (1, 2):
            structure = ApplicationStructure.k_of_n(k, len(hosts))
            plan = DeploymentPlan.single_component(hosts, structure.components[0].name)
            estimate = analytic.assess(plan, structure).estimate
            assert estimate.exact and 0.93 < estimate.score < 0.99, (hosts, k)
            cases.append((plan, structure, estimate.score))
    return topology, model, cases


@pytest.mark.parametrize(
    "make_sampler",
    [
        lambda seed: MonteCarloSampler(),
        lambda seed: DaggerSampler(),
        lambda seed: ExtendedDaggerSampler(),
        CommonRandomDaggerSampler,
    ],
    ids=["monte-carlo", "dagger", "extended-dagger", "common-random-dagger"],
)
def test_intervals_cover_the_exact_reliability(exact_cases, make_sampler):
    topology, model, cases = exact_cases
    covered = []
    for index, (plan, structure, exact) in enumerate(cases):
        for seed in range(index * SEEDS, (index + 1) * SEEDS):
            config = AssessmentConfig(
                rounds=ROUNDS, rng=seed, sampler=make_sampler(seed)
            )
            estimate = build_assessor(topology, model, config).assess(
                plan, structure
            ).estimate
            covered.append(estimate.ci_lower <= exact <= estimate.ci_upper)
    assert np.mean(covered) >= FLOOR
