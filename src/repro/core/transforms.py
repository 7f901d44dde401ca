"""Network transformations: symmetry-based plan equivalence (§3.3.1, [60]).

Data centers are built symmetric, and the annealing search exploits that:
when a neighbour plan is *equivalent* to the current plan — there is an
automorphism of the labelled infrastructure mapping one onto the other —
its reliability is identical and re-assessing it is wasted work.

Following the network-transformations idea of Plotkin et al. [60], a plan
is reduced to a small canonical *surgery graph* that captures everything
reliability can depend on:

* one node per instance, labelled with its component name;
* one node per distinct infrastructure "group" the instances touch — the
  host, its rack (edge switch), its pod, and every shared dependency in
  the host's fault tree — labelled with the group's symmetry class (from
  ``Topology.symmetry_class_of``) and its failure-probability class;
* membership edges between instances and their groups.

Two plans whose surgery graphs are isomorphic place their instances in
symmetric positions with identically-shared dependencies, so the entire
route-and-check distribution coincides. Isomorphism is decided via the
Weisfeiler-Lehman graph hash (exact on these small coloured membership
graphs in practice, and used as a conservative signature).

Probability classes quantise failure probabilities (§3.3.1: components of
the same type with *similar* probabilities are treated as one type;
components with very different probabilities become logically different
types). The quantisation step is configurable.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from itertools import permutations, product

import networkx as nx

from repro.core.plan import DeploymentPlan
from repro.faults.dependencies import DependencyModel
from repro.topology.base import Topology
from repro.util.errors import ConfigurationError
from repro.util.metrics import MetricsRegistry


class SymmetryChecker:
    """Computes canonical signatures of deployment plans."""

    def __init__(
        self,
        topology: Topology,
        dependency_model: DependencyModel | None = None,
        probability_decimals: int = 2,
    ):
        if probability_decimals < 0:
            raise ConfigurationError(
                f"probability_decimals must be >= 0, got {probability_decimals}"
            )
        self.topology = topology
        self.dependency_model = dependency_model or DependencyModel.empty(topology)
        self.probability_decimals = probability_decimals

    # ------------------------------------------------------------------

    def probability_class(self, component_id: str) -> str:
        """Quantised failure-probability label of any component."""
        probability = self.dependency_model.component(component_id).failure_probability
        return f"{round(probability, self.probability_decimals):.{self.probability_decimals}f}"

    def _group_label(self, component_id: str) -> str:
        """Symmetry class + probability class of one infrastructure group."""
        if component_id in self.topology:
            symmetry = self.topology.symmetry_class_of(component_id)
        else:
            dependency = self.dependency_model.component(component_id)
            symmetry = dependency.component_type.value
        return f"{symmetry}|p{self.probability_class(component_id)}"

    def surgery_graph(self, plan: DeploymentPlan) -> nx.Graph:
        """The canonical membership graph described in the module docstring."""
        graph = nx.Graph()
        topo = self.topology
        for component, hosts in plan.placements:
            for index, host in enumerate(hosts):
                instance_node = ("instance", component, index)
                graph.add_node(instance_node, label=f"instance|{component}")
                groups = [host, topo.edge_switch_of(host)]
                pod_of = getattr(topo, "pod_of", None)
                if pod_of is not None and pod_of(host) is not None:
                    groups.append(f"pod:{pod_of(host)}")
                for event in self.dependency_model.tree_for(host).basic_events():
                    if event != host:
                        groups.append(event)
                for group in groups:
                    group_node = ("group", group)
                    if group.startswith("pod:"):
                        label = "pod"
                    else:
                        label = self._group_label(group)
                    graph.add_node(group_node, label=label)
                    graph.add_edge(instance_node, group_node)
        return graph

    def signature(self, plan: DeploymentPlan) -> str:
        """A string that is equal for symmetric plans.

        Weisfeiler-Lehman hash of the surgery graph; plans with different
        signatures are definitely inequivalent, plans with equal signatures
        are equivalent up to WL's (practically negligible on coloured
        membership graphs) collision rate.
        """
        graph = self.surgery_graph(plan)
        return nx.weisfeiler_lehman_graph_hash(graph, node_attr="label", iterations=3)

    def equivalent(self, plan_a: DeploymentPlan, plan_b: DeploymentPlan) -> bool:
        """Whether two plans are symmetric (same reliability by symmetry).

        Signature equality is confirmed with an exact isomorphism check —
        cheap on these small graphs — so a WL collision cannot cause a
        genuinely different plan to be skipped.
        """
        if plan_a.canonical_key() == plan_b.canonical_key():
            return True
        if self.signature(plan_a) != self.signature(plan_b):
            return False
        matcher = nx.algorithms.isomorphism.GraphMatcher(
            self.surgery_graph(plan_a),
            self.surgery_graph(plan_b),
            node_match=lambda a, b: a["label"] == b["label"],
        )
        return matcher.is_isomorphic()


class BatchSymmetryFilter:
    """Symmetry screening for the search hot loop: exact certificates with
    the checker's own WL + VF2 path behind them.

    Every :meth:`SymmetryChecker.equivalent` call rebuilds two surgery
    graphs and runs two Weisfeiler-Lehman hashes, even though consecutive
    checks share the incumbent plan and each neighbour differs from it by
    one host. The filter decides the same verdicts from what it caches:

    * **Exact certificates.** For plans with few instances the surgery
      graph is a tiny coloured bipartite incidence structure, and a
      *complete* isomorphism invariant is cheap to compute outright (see
      :meth:`_compute_certificate`): colour refinement splits the
      instances into classes, and the shared-group multiset is minimised
      over the renumberings inside the classes refinement could not
      split. Two plans are equivalent **iff** their certificates are
      equal — no hashing, no VF2 — and certificates are LRU-cached by
      ``plan.canonical_key()``, so the incumbent's is built once per
      incumbent, not once per candidate.
    * **WL + VF2 fallback.** When the renumberings left would exceed
      :attr:`PERMUTATION_BUDGET` (many interchangeable instances, e.g.
      four pods holding two each) the certificate declines and the
      checker's WL-signature + exact-isomorphism path runs, signatures
      LRU-cached by canonical key. Both tiers decide exact graph
      isomorphism, so verdicts never depend on which one ran.

    Measured on the end-to-end benchmark's searches (the 36 ops of a
    ``--seed 1 --trace 1`` round, counters ``symmetry/*``): on
    ``search_fattree`` (10 instances on Table-2 ``medium``, 900 moves)
    certificates decide 82 % of the moves and the fallback 18 %, and 10 %
    of the 916 certificates built overflow the budget; on
    ``search_zones`` (5 instances, 2 zones, 360 moves) certificates
    decide every move. DESIGN.md has the table, and why no cheaper tier
    sits in front of the certificate.

    The filter is deliberately *not* folded into :class:`SymmetryChecker`:
    the unwrapped checker remains the uncached reference implementation
    the differential tests hold the filter against.
    """

    #: Maximum number of colour-preserving instance renumberings the exact
    #: certificate may enumerate; beyond it the WL + VF2 fallback runs.
    PERMUTATION_BUDGET = 720

    def __init__(
        self,
        checker: SymmetryChecker,
        max_signatures: int = 4096,
        metrics: MetricsRegistry | None = None,
    ):
        if max_signatures < 1:
            raise ConfigurationError(
                f"max_signatures must be >= 1, got {max_signatures}"
            )
        self.checker = checker
        self.max_signatures = max_signatures
        #: ``symmetry/certificate`` and ``symmetry/fallback`` count the
        #: verdicts each tier decided, ``symmetry/certificate_built`` and
        #: ``symmetry/budget_overflow`` the certificates built and the
        #: builds among them that declined.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._host_groups: dict[str, tuple[tuple[str, str], ...]] = {}
        self._signatures: OrderedDict[tuple, str] = OrderedDict()
        self._certificates: OrderedDict[tuple, tuple | None] = OrderedDict()

    # ------------------------------------------------------------------

    def _host_group_entries(self, host: str) -> tuple[tuple[str, str], ...]:
        """``(group id, group label)`` pairs ``host`` contributes, deduplicated.

        Exactly the group nodes :meth:`SymmetryChecker.surgery_graph`
        attaches to an instance on ``host`` (the host, its edge switch,
        its pod, its shared fault-tree dependencies) — ids preserve the
        sharing structure between instances, labels are the graph's node
        labels.
        """
        cached = self._host_groups.get(host)
        if cached is not None:
            return cached
        checker = self.checker
        topo = checker.topology
        entries: dict[str, str] = {
            host: checker._group_label(host),
        }
        edge = topo.edge_switch_of(host)
        entries.setdefault(edge, checker._group_label(edge))
        pod_of = getattr(topo, "pod_of", None)
        if pod_of is not None and pod_of(host) is not None:
            entries.setdefault(f"pod:{pod_of(host)}", "pod")
        for event in checker.dependency_model.tree_for(host).basic_events():
            if event != host:
                entries.setdefault(event, checker._group_label(event))
        result = tuple(entries.items())
        self._host_groups[host] = result
        return result

    def certificate(self, plan: DeploymentPlan) -> tuple | None:
        """Complete isomorphism invariant of the surgery graph, or ``None``.

        LRU-cached by canonical key. Two plans with certificates are
        equivalent iff the certificates are equal; ``None`` means the
        permutation budget was exceeded and the caller must fall back to
        the WL + exact-isomorphism path.
        """
        key = plan.canonical_key()
        if key in self._certificates:
            self._certificates.move_to_end(key)
            return self._certificates[key]
        certificate = self._compute_certificate(plan)
        self.metrics.incr("symmetry/certificate_built")
        if certificate is None:
            self.metrics.incr("symmetry/budget_overflow")
        self._certificates[key] = certificate
        if len(self._certificates) > self.max_signatures:
            self._certificates.popitem(last=False)
        return certificate

    def _compute_certificate(self, plan: DeploymentPlan) -> tuple | None:
        """Canonicalise the coloured instance-group incidence structure.

        The surgery graph is bipartite (instances x groups) and groups
        carry no identity beyond their label and attachment set, so the
        graph is determined up to isomorphism by each instance's component
        and ``(group label, degree)`` profile — its *initial colour*,
        which also covers every group attached to one instance only — plus
        the multiset of ``(group label, attached instances)`` over the
        shared groups, modulo a colour-preserving renumbering of the
        instances. Colours are refined to a fixpoint (an instance's next
        colour is its colour plus, per shared group it is in, the group's
        label and its members' colours); every round's colour table goes
        into the certificate, so equal certificates name equal colours.
        Any isomorphism preserves every round's colours, so minimising
        the shared-group multiset over colour-preserving renumberings
        only — positions are handed out class by class in colour order —
        loses nothing. Classes of one instance, and classes attached to no
        shared group (the multiset never mentions them), have nothing to
        permute and stay out of the enumeration and its budget.
        """
        attachments: dict[str, tuple[str, list[int]]] = {}
        instances: list[tuple[str, tuple[tuple[str, str], ...]]] = []
        for component, hosts in plan.placements:
            for host in hosts:
                entries = self._host_group_entries(host)
                for group_id, label in entries:
                    attachments.setdefault(group_id, (label, []))[1].append(
                        len(instances)
                    )
                instances.append((component, entries))
        count = len(instances)
        shared = [group for group in attachments.values() if len(group[1]) > 1]
        shared_of: list[list[int]] = [[] for _ in range(count)]
        for index, (_, attached) in enumerate(shared):
            for instance in attached:
                shared_of[instance].append(index)
        signatures: list[tuple] = [
            (
                component,
                tuple(
                    sorted(
                        (label, len(attachments[group_id][1]))
                        for group_id, label in entries
                    )
                ),
            )
            for component, entries in instances
        ]

        tables: list[tuple] = []
        while True:
            table = sorted(set(signatures))
            if tables and len(table) == len(tables[-1]):
                break  # the round split no class: fixpoint
            tables.append(tuple(table))
            rank = {signature: colour for colour, signature in enumerate(table)}
            colours = [rank[signature] for signature in signatures]
            if len(table) == count or not shared:
                break  # nothing left to split / nothing to split by
            group_colours = [
                (label, tuple(sorted(colours[i] for i in attached)))
                for label, attached in shared
            ]
            signatures = [
                (colours[i], tuple(sorted(group_colours[g] for g in shared_of[i])))
                for i in range(count)
            ]

        classes: list[list[int]] = [[] for _ in tables[-1]]
        for instance, colour in enumerate(colours):
            classes[colour].append(instance)
        mapping = [0] * count
        permuted: list[tuple[list[int], range]] = []
        budget = 1
        base = 0
        for members in classes:
            slots = range(base, base + len(members))
            base += len(members)
            for instance, position in zip(members, slots):
                mapping[instance] = position
            if len(members) > 1 and shared_of[members[0]]:
                permuted.append((members, slots))
                budget *= math.factorial(len(members))
                if budget > self.PERMUTATION_BUDGET:
                    return None

        best: list | None = None
        for combo in product(*(permutations(slots) for _, slots in permuted)):
            for (members, _), positions in zip(permuted, combo):
                for instance, position in zip(members, positions):
                    mapping[instance] = position
            candidate = sorted(
                (label, sorted(mapping[i] for i in attached))
                for label, attached in shared
            )
            if best is None or candidate < best:
                best = candidate
        return (
            tuple(tables),
            tuple(len(members) for members in classes),
            tuple((label, tuple(positions)) for label, positions in best),
        )

    def signature(self, plan: DeploymentPlan) -> str:
        """WL signature of ``plan``, LRU-cached by canonical key."""
        key = plan.canonical_key()
        cached = self._signatures.get(key)
        if cached is not None:
            self._signatures.move_to_end(key)
            return cached
        signature = self.checker.signature(plan)
        self._signatures[key] = signature
        if len(self._signatures) > self.max_signatures:
            self._signatures.popitem(last=False)
        return signature

    # ------------------------------------------------------------------

    def equivalent(self, plan_a: DeploymentPlan, plan_b: DeploymentPlan) -> bool:
        """Cached variant of :meth:`SymmetryChecker.equivalent`.

        Both the certificate fast path and the WL + VF2 fallback decide
        exact isomorphism of the surgery graphs, so the verdict is always
        the one the unwrapped checker would return.
        """
        if plan_a.canonical_key() == plan_b.canonical_key():
            return True
        certificate_a = self.certificate(plan_a)
        if certificate_a is not None:
            certificate_b = self.certificate(plan_b)
            if certificate_b is not None:
                self.metrics.incr("symmetry/certificate")
                return certificate_a == certificate_b
        self.metrics.incr("symmetry/fallback")
        if self.signature(plan_a) != self.signature(plan_b):
            return False
        matcher = nx.algorithms.isomorphism.GraphMatcher(
            self.checker.surgery_graph(plan_a),
            self.checker.surgery_graph(plan_b),
            node_match=lambda a, b: a["label"] == b["label"],
        )
        return matcher.is_isomorphic()
