"""Per-round evaluation of an application structure over a deployment plan.

Implements the extended route-and-check of §3.2.4: instead of only asking
whether K of N instances are border-reachable, it checks that the
connectivity demanded by the application's internal structure is preserved
in each round.

An instance is **active** in a round when its host is alive and, for every
requirement of its component, it can reach at least one active instance of
the required source (or a border switch for EXTERNAL). A round is
**reliable** when every requirement ``(Ci, Cj, K)`` sees at least ``K``
active instances of ``Ci``.

Mutual requirements (the fully-meshed microservice cores of §4.2.3) make
"active" self-referential; the evaluator computes the *greatest* fixed
point — start from every alive instance being active and prune until
stable — which exists because pruning is monotone over a finite lattice.
For acyclic structures (K-of-N, layered chains) the loop converges in as
many sweeps as the structure is deep.

Everything here is vectorised across rounds: activity is a bit-packed
matrix (instances x packed rounds) per component, and one fixed-point sweep
is a handful of bitwise numpy reductions regardless of the round count.

Every backend runs the same batch: :func:`scenario_states` turns the
packed failure rows its caller chose — a sampled batch, an exact state
enumeration, one-failure scenarios — into effective :class:`RoundStates`,
:meth:`StructureEvaluator.counts` reads the active instances per component
in each round, and :func:`reliable` is the one requirement check. A caller
overrides a component by replacing its entry in the rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.app.structure import EXTERNAL, ApplicationStructure
from repro.core.plan import DeploymentPlan
from repro.routing.base import ReachabilityEngine, RoundStates

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel import AssessmentKernel
    from repro.util.metrics import MetricsRegistry


def scenario_states(
    kernel: "AssessmentKernel",
    subjects: int,
    rows: Mapping[str, np.ndarray],
    rounds: int,
    metrics: "MetricsRegistry | None" = None,
) -> RoundStates:
    """Effective failure states of ``rounds`` scenarios after fault-tree
    reasoning. ``subjects`` is the closure's subject mask and ``rows``
    maps a component id to its packed failure row, set in the rounds
    where it fails; an absent id never fails. ``metrics`` counts the
    subjects compiled."""
    failed = kernel.effective_states(
        kernel.arena.ids_in(subjects), rows, rows, metrics=metrics
    )
    return RoundStates(rounds=rounds, failed=failed)


def reliable(
    structure: ApplicationStructure, counts: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Boolean vector over rounds: True where every requirement
    ``(Ci, Cj, K)`` sees at least ``K`` active instances of ``Ci``, read
    from :meth:`StructureEvaluator.counts`."""
    rounds = len(next(iter(counts.values())))
    result = np.ones(rounds, dtype=bool)
    for requirement in structure.requirements:
        met = counts[requirement.component] >= requirement.min_reachable
        np.logical_and(result, met, out=result)
    return result


class StructureEvaluator:
    """Evaluates per-round reliability of (plan, structure) pairs."""

    def __init__(self, engine: ReachabilityEngine):
        self.engine = engine

    # ------------------------------------------------------------------

    def evaluate(
        self,
        states: RoundStates,
        plan: DeploymentPlan,
        structure: ApplicationStructure,
    ) -> np.ndarray:
        """Boolean vector over rounds: True where the plan is reliable."""
        return reliable(structure, self.counts(states, plan, structure))

    def counts(
        self,
        states: RoundStates,
        plan: DeploymentPlan,
        structure: ApplicationStructure,
    ) -> dict[str, np.ndarray]:
        """Active instances per application component in each round.

        An instance is active when it is alive and satisfies all of its
        component's reachability requirements (the greatest fixed point
        described above, over packed per-component activity matrices).
        Counting is the estimate boundary: the matrices are unpacked here
        (and only here), dropping the pad bits of the last byte, and each
        component's bits are summed in the narrowest unsigned type that
        holds its instance count, then widened once to ``intp``.
        """
        hosts_by_component = {
            spec.name: plan.hosts_for(spec.name) for spec in structure.components
        }
        external_by_host = self._external_reachability(
            states, structure, hosts_by_component
        )
        pair_reachable = self._pairwise_reachability(
            states, structure, hosts_by_component
        )
        active = self._fixed_point(
            states, structure, hosts_by_component, external_by_host, pair_reachable
        )
        return {
            name: states.unpack(m).sum(axis=0, dtype=np.min_scalar_type(len(m))).astype(np.intp)
            for name, m in active.items()
        }

    # ------------------------------------------------------------------
    # Reachability inputs
    # ------------------------------------------------------------------

    def _external_reachability(
        self, states, structure, hosts_by_component
    ) -> dict[str, np.ndarray]:
        hosts_needing_external: list[str] = []
        for requirement in structure.requirements:
            if requirement.source == EXTERNAL:
                hosts_needing_external.extend(hosts_by_component[requirement.component])
        if not hosts_needing_external:
            return {}
        return self.engine.external_reachable(states, hosts_needing_external)

    def _pairwise_reachability(
        self, states, structure, hosts_by_component
    ) -> dict[tuple[str, str], np.ndarray]:
        """Reachability vectors keyed by canonical ``(min, max)`` host pair.

        Reachability is symmetric, so each unordered pair is queried and
        stored once under its sorted tuple (cheaper to build and hash
        than the frozensets this used to key by).
        """
        wanted: set[tuple[str, str]] = set()
        for requirement in structure.requirements:
            if requirement.source == EXTERNAL:
                continue
            for a in hosts_by_component[requirement.component]:
                for b in hosts_by_component[requirement.source]:
                    if a != b:
                        wanted.add((a, b) if a < b else (b, a))
        if not wanted:
            return {}
        return self.engine.pairwise_reachable(states, sorted(wanted))

    # ------------------------------------------------------------------
    # Greatest fixed point of instance activity
    # ------------------------------------------------------------------

    def _fixed_point(
        self,
        states: RoundStates,
        structure: ApplicationStructure,
        hosts_by_component: dict[str, tuple[str, ...]],
        external_by_host: dict[str, np.ndarray],
        pair_reachable: dict[tuple[str, str], np.ndarray],
    ) -> dict[str, np.ndarray]:
        # All matrices are packed uint8 rows; the sweeps below only use
        # bitwise AND/OR and equality, and pad bits prune monotonically
        # like every other bit.

        # Start optimistic: every alive instance is active.
        active: dict[str, np.ndarray] = {}
        for component, hosts in hosts_by_component.items():
            matrix = np.empty((len(hosts), states.width), dtype=np.uint8)
            for row, host in enumerate(hosts):
                matrix[row] = states.materialize(states.alive_mask(host))
            active[component] = matrix

        requirements_by_component: dict[str, list] = {
            spec.name: structure.requirements_for(spec.name)
            for spec in structure.components
        }
        # A component's EXTERNAL requirement ANDs its whole activity matrix
        # against its hosts' stacked external rows in one sweep step.
        external_matrix: dict[str, np.ndarray] = {
            component: np.stack([external_by_host[host] for host in hosts])
            for component, hosts in hosts_by_component.items()
            if any(r.source == EXTERNAL for r in requirements_by_component[component])
        }

        # Each sweep only clears bits of a finite lattice, so the loop ends.
        changed = True
        while changed:
            changed = False
            for component, hosts in hosts_by_component.items():
                matrix = active[component]
                for requirement in requirements_by_component[component]:
                    if requirement.source == EXTERNAL:
                        updated = matrix & external_matrix[component]
                        if not np.array_equal(updated, matrix):
                            active[component] = matrix = updated
                            changed = True
                        continue
                    source_hosts = hosts_by_component[requirement.source]
                    source_active = active[requirement.source]
                    for row, host in enumerate(hosts):
                        # Reachable from >= 1 *active* source instance.
                        can_reach = states.zeros()
                        for src_row, src_host in enumerate(source_hosts):
                            if src_host == host:
                                # Colocated instances trivially reach each
                                # other while the shared host is alive.
                                link = source_active[src_row]
                            else:
                                pair = (
                                    (host, src_host)
                                    if host < src_host
                                    else (src_host, host)
                                )
                                link = pair_reachable[pair] & source_active[src_row]
                            np.bitwise_or(can_reach, link, out=can_reach)
                        updated = matrix[row] & can_reach
                        if not np.array_equal(updated, matrix[row]):
                            matrix[row] = updated
                            changed = True
        return active
