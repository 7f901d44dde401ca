"""Application structures the tests share.

``two_tier`` is Fig. 6's frontend/database example: a structure with a
component-to-component requirement, which exercises the pair paths of
route-and-check and the fault-tree forest that ``k_of_n`` alone does not.
"""

from repro.app.structure import (
    EXTERNAL,
    ApplicationStructure,
    ComponentSpec,
    ReachabilityRequirement,
)


def two_tier(
    frontends: int = 2,
    databases: int = 2,
    k_frontend: int = 1,
    k_database: int = 1,
) -> ApplicationStructure:
    """Fig. 6's example: FE reachable externally, DB reachable from FE."""
    return ApplicationStructure(
        components=[
            ComponentSpec("frontend", frontends),
            ComponentSpec("database", databases),
        ],
        requirements=[
            ReachabilityRequirement("frontend", EXTERNAL, k_frontend),
            ReachabilityRequirement("database", "frontend", k_database),
        ],
        name="two-tier",
    )
