"""Regenerate ``reference.json``: 100 000-round scores of twelve fixed plans on
each of the three data centers the workloads run on.

The runs compare their own estimates of the same plans against these within a
tolerance, so regenerate only when the *intended* answer changes (a new
failure-probability policy, a new inventory), never to make a check pass.

    python3 benchmarks/e2e/reference.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.core.api import AssessmentConfig, build_assessor  # noqa: E402

import workloads  # noqa: E402

DEFAULT_SEED = 1
ROUNDS = 100_000
PLANS = 12


def main() -> int:
    document = {"seed": DEFAULT_SEED, "rounds": ROUNDS, "substrates": {}}
    for cls in (workloads.ServeMixed, workloads.AssessFattree, workloads.SearchZones):
        workload = cls(DEFAULT_SEED, 0)
        workload.build_substrate()
        assessor = build_assessor(
            workload.topology,
            workload.inventory,
            AssessmentConfig(rounds=ROUNDS, rng=DEFAULT_SEED),
        )
        rng = random.Random(f"reference:{workload.substrate}:{DEFAULT_SEED}")
        plans = []
        for op in workloads.plan_ops(rng, workload.topology.hosts, workload.n, PLANS):
            estimate = assessor.assess(
                workload.plan(op.payload), workload.structure
            ).estimate
            plans.append(
                {
                    "hosts": list(op.payload),
                    "score": estimate.score,
                    "confidence_interval_width": estimate.confidence_interval_width,
                    "rounds": estimate.rounds,
                }
            )
        document["substrates"][workload.substrate] = {"k": workload.k, "plans": plans}
    with open(HERE / "reference.json", "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
