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

The evaluator works in two steps: **settle, then fixed point over
pairwise components**.

1. *Settle.* An instance's settled row is its host's alive row, or its
   external row (set only where the host is alive) when the component
   requires EXTERNAL, kept per ``(host, needs external)`` in
   ``states.segments["settled"]`` as long as the engines' segments are
   (``failed`` only gains rows): a search walk settles only new hosts.
2. *Fixed point.* Pairwise requirements (layered chains, the meshed
   cores of §4.2.3) make "active" self-referential; the *greatest* fixed
   point — start from the settled rows, prune until stable — exists
   because pruning is monotone over a finite lattice. Only components
   with a pairwise requirement are swept, as bit-packed matrices
   (instances x packed rounds); a K-of-N plan takes no sweep.

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
    """Evaluates per-round reliability of (plan, structure) pairs.
    ``metrics``, when given (the incremental walk's), counts the lookups
    of external instances' settled rows as ``route/host/hit|miss``."""

    def __init__(
        self, engine: ReachabilityEngine, metrics: "MetricsRegistry | None" = None
    ):
        self.engine = engine
        self.metrics = metrics

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
        """Active instances per application component in each round:
        settle, then fixed point over pairwise components (module
        docstring). Counting is the estimate boundary: rows are unpacked
        here (and only here), dropping the pad bits of the last byte, and
        summed by :func:`active_counts`."""
        hosts_by_component = {
            spec.name: plan.hosts_for(spec.name) for spec in structure.components
        }
        external: dict[str, bool] = {}
        pairwise: dict[str, list[str]] = {}
        for name in hosts_by_component:
            requirements = structure.requirements_for(name)
            external[name] = any(r.source == EXTERNAL for r in requirements)
            sources = [r.source for r in requirements if r.source != EXTERNAL]
            if sources:
                pairwise[name] = sources
        settled = self._settle(states, hosts_by_component, external)
        active = (
            self._fixed_point(states, hosts_by_component, external, pairwise, settled)
            if pairwise
            else {}
        )
        return {
            name: active_counts(
                states.unpack(active[name]).view(np.uint8)
                if name in active
                else [settled[host, external[name]][1] for host in hosts],
                states.rounds,
            )
            for name, hosts in hosts_by_component.items()
        }

    def _settle(self, states, hosts_by_component, external) -> dict:
        """``(host, needs external)`` -> the instance's settled row, packed
        and unpacked, kept in ``states.segments``; the rows missing there
        are settled with one engine call."""
        memo = states.segments.setdefault("settled", {})
        wanted = dict.fromkeys(
            (host, external[name])
            for name, hosts in hosts_by_component.items()
            for host in hosts
        )
        missing = [key for key in wanted if key not in memo]
        queried = [host for host, needs in missing if needs]
        if self.metrics is not None and any(external.values()):
            asked = sum(needs for _host, needs in wanted)
            self.metrics.incr("route/host/hit", asked - len(queried))
            self.metrics.incr("route/host/miss", len(queried))
        reachable = self.engine.external_reachable(states, queried) if queried else {}
        for host, needs in missing:
            # An engine's external row is set only where the host is alive.
            row = reachable[host] if needs else states.materialize(states.alive_mask(host))
            memo[host, needs] = (row, np.unpackbits(row, count=states.rounds))
        return memo

    def _fixed_point(
        self, states, hosts_by_component, external, pairwise, settled
    ) -> dict[str, np.ndarray]:
        """Packed activity matrices of the ``pairwise`` components and
        their sources, each started from its instances' settled rows.

        A sweep prunes the ``pairwise`` ones only (a source without a
        pairwise requirement is final) and only clears bits, so the loop
        ends; pad bits prune monotonically like every other bit.
        Reachability is symmetric, so each pair of hosts (never equal: a
        plan places every instance on its own host) is asked for once,
        under its sorted tuple.
        """
        involved = set(pairwise).union(*pairwise.values())
        active = {
            name: np.stack([settled[host, external[name]][0] for host in hosts])
            for name, hosts in hosts_by_component.items()
            if name in involved
        }
        wanted = {
            (a, b) if a < b else (b, a)
            for name, sources in pairwise.items()
            for source in sources
            for a in hosts_by_component[name]
            for b in hosts_by_component[source]
        }
        pair_reachable = self.engine.pairwise_reachable(states, sorted(wanted))
        changed = True
        while changed:
            changed = False
            for name, sources in pairwise.items():
                matrix = active[name]
                for source in sources:
                    source_hosts = hosts_by_component[source]
                    source_active = active[source]
                    for row, host in enumerate(hosts_by_component[name]):
                        # Reachable from >= 1 *active* source instance.
                        can_reach = states.zeros()
                        for src_row, src_host in enumerate(source_hosts):
                            pair = (host, src_host) if host < src_host else (src_host, host)
                            link = pair_reachable[pair] & source_active[src_row]
                            np.bitwise_or(can_reach, link, out=can_reach)
                        updated = matrix[row] & can_reach
                        if not np.array_equal(updated, matrix[row]):
                            matrix[row] = updated
                            changed = True
        return active


def active_counts(rows, rounds: int) -> np.ndarray:
    """Active instances in each round: the instances' unpacked ``uint8``
    rows summed in the narrowest unsigned type that holds their number,
    then widened once to ``intp``."""
    total = np.zeros(rounds, dtype=np.min_scalar_type(len(rows)))
    for row in rows:
        np.add(total, row, out=total)
    return total.astype(np.intp)
