"""Graph-library references the runtime no longer carries.

* :func:`as_networkx` — a topology's hosts, switches and links as a
  ``networkx.Graph`` (each edge carries its ``component_id``), for
  connectivity and path oracles.
* :class:`SurgeryGraphChecker` — the §3.3.1 surgery graph of a plan, its
  group degree profile, its Weisfeiler-Lehman signature and an exact VF2
  isomorphism verdict: the uncached reference
  :class:`~repro.core.transforms.BatchSymmetryFilter` is held to.

Kept apart from ``interpreted_oracle.py``, which benchmarks import without
networkx installed.
"""

from __future__ import annotations

from collections import Counter

import networkx as nx

from repro.core.plan import DeploymentPlan
from repro.core.transforms import SymmetryChecker
from repro.topology.base import Topology


def as_networkx(topology: Topology) -> nx.Graph:
    """The topology's graph: nodes and edges in insertion order."""
    graph = nx.Graph()
    graph.add_nodes_from(topology.adjacency)
    for a, b, link in topology.links():
        graph.add_edge(a, b, component_id=link)
    return graph


class SurgeryGraphChecker(SymmetryChecker):
    """Plan equivalence by building both surgery graphs and asking networkx."""

    def surgery_graph(self, plan: DeploymentPlan) -> nx.Graph:
        """One node per instance and per group it touches, labelled, with
        membership edges (``repro.core.transforms`` module docstring)."""
        graph = nx.Graph()
        for component, hosts in plan.placements:
            for index, host in enumerate(hosts):
                instance_node = ("instance", component, index)
                graph.add_node(instance_node, label=f"instance|{component}")
                for group in self.groups_of(host):
                    graph.add_node(("group", group), label=self.group_label(group))
                    graph.add_edge(instance_node, ("group", group))
        return graph

    def degree_profile(self, plan: DeploymentPlan) -> Counter:
        """The multiset of ``(label, degree)`` over the group nodes: equal
        for isomorphic surgery graphs."""
        graph = self.surgery_graph(plan)
        return Counter(
            (label, graph.degree(node))
            for node, label in graph.nodes(data="label")
            if node[0] == "group"
        )

    def signature(self, plan: DeploymentPlan) -> str:
        """A string that is equal for symmetric plans: the WL hash of the
        surgery graph (unequal hashes are definitely inequivalent)."""
        graph = self.surgery_graph(plan)
        return nx.weisfeiler_lehman_graph_hash(graph, node_attr="label", iterations=3)

    def equivalent(self, plan_a: DeploymentPlan, plan_b: DeploymentPlan) -> bool:
        """Whether two plans are symmetric: signature equality confirmed by
        an exact isomorphism check, so a WL collision cannot pass."""
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
