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
route-and-check distribution coincides. :class:`SymmetryChecker` names
every instance's groups and labels; :class:`BatchSymmetryFilter` decides
the isomorphism from them (group degree profiles, colour refinement, one
bijection search). The reference that builds the graphs and asks a graph
library for an exact isomorphism lives with the tests
(``tests/graph_oracle.py``), which hold the filter to it.

Probability classes quantise failure probabilities (§3.3.1: components of
the same type with *similar* probabilities are treated as one type;
components with very different probabilities become logically different
types), rounded to :data:`PROBABILITY_CLASS_DECIMALS` decimals.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from itertools import chain
from typing import NamedTuple

from repro.core.plan import DeploymentPlan
from repro.faults.dependencies import DependencyModel
from repro.kernel import AssessmentKernel
from repro.topology.base import Topology
from repro.util.metrics import MetricsRegistry

#: Decimals a failure probability is rounded to for its probability
#: class: 0.0099 and 0.0101 are one class, 0.01 and 0.03 two.
PROBABILITY_CLASS_DECIMALS = 2

#: Plans whose refinement :class:`BatchSymmetryFilter` keeps (LRU).
MAX_REFINEMENTS = 4096
#: Screened neighbours of one incumbent whose degree change
#: :class:`BatchSymmetryFilter` keeps (past it, it starts over).
MAX_CHANGES = 256


class SymmetryChecker:
    """Labels the infrastructure groups a plan's instances belong to."""

    def __init__(
        self, topology: Topology, dependency_model: DependencyModel | None = None
    ):
        self.topology = topology
        self.dependency_model = dependency_model or DependencyModel.empty(topology)

    # ------------------------------------------------------------------

    def probability_class(self, component_id: str) -> str:
        """Quantised failure-probability label of any component."""
        probability = self.dependency_model.component(component_id).failure_probability
        decimals = PROBABILITY_CLASS_DECIMALS
        return f"{round(probability, decimals):.{decimals}f}"

    def group_label(self, group: str) -> str:
        """Node label of one group: ``pod`` for a pod, else the
        component's symmetry class + probability class."""
        if group.startswith("pod:"):
            return "pod"
        if group in self.topology:
            symmetry = self.topology.symmetry_class_of(group)
        else:
            symmetry = self.dependency_model.component(group).component_type.value
        return f"{symmetry}|p{self.probability_class(group)}"

    def groups_of(self, host: str) -> tuple[str, ...]:
        """Every group an instance on ``host`` is a member of: the host,
        its edge switch, its pod (``pod:<n>``) and the shared dependencies
        in its fault tree — deduplicated, in a fixed order."""
        topo = self.topology
        groups = [host, topo.edge_switch_of(host)]
        pod_of = getattr(topo, "pod_of", None)
        if pod_of is not None and pod_of(host) is not None:
            groups.append(f"pod:{pod_of(host)}")
        groups.extend(sorted(self.dependency_model.basic_events_of(host)))
        return tuple(dict.fromkeys(groups))


class _Refinement(NamedTuple):
    """What :class:`BatchSymmetryFilter` caches per plan."""

    #: Every round's colour table, the class sizes and the multiset of
    #: ``(label, member colours)`` over the shared groups.
    invariant: tuple
    #: Final colour of each instance, and the instances of each colour.
    colours: list[int]
    classes: list[list[int]]
    #: ``(label, instances)`` of every group two or more instances touch.
    shared: list[tuple[int, list[int]]]


class BatchSymmetryFilter:
    """Symmetry screening for the search hot loop: one exact tier.

    A graph-isomorphism check would rebuild two surgery graphs per pair,
    even though consecutive checks share the incumbent and each neighbour
    differs from it by one host. The filter decides the same verdicts
    without a graph library, paying per pair for the hosts that differ:

    * **Degree profiles** (:meth:`_profiles_agree`): an isomorphism maps
      each group node onto one of equal label and degree, so unequal
      multisets of ``(group label, degree)`` are not equivalent. Only the
      groups of the hosts that differ are read, against the incumbent's
      group -> degree table. The table is built from the whole plan only
      for an incumbent no screen reached: a screened neighbour that
      becomes the incumbent gets the old table plus the change its
      screen computed.
    * **Per plan** of a pair whose profiles agree, LRU-cached by
      ``plan.canonical_key()``: the instance colouring refined to a
      fixpoint over the shared groups, and its isomorphism invariant
      (:meth:`refinement`).
    * **Per pair**: unequal invariants are not equivalent; equal
      invariants are decided by searching for one colour-preserving
      bijection of the instances that carries one plan's shared groups
      onto the other's (:meth:`_match`).

    Every step is exact, so there is no budget and no fallback. Group
    ids and labels are interned to integers in one table per substrate
    generation, kept on its kernel
    (:meth:`~repro.kernel.AssessmentKernel.of`) and shared by every
    filter on it, each group labelled once: nothing derived from them
    leaves a filter but verdicts. When the generation moves (a
    probability override moves a group's label) the filter takes the new
    table and drops its cached profiles and refinements. DESIGN.md
    ("Symmetry screening at batch rate") has the argument.
    """

    def __init__(
        self, checker: SymmetryChecker, metrics: MetricsRegistry | None = None
    ):
        self.checker = checker
        #: ``symmetry/screened`` counts the pairs decided,
        #: ``symmetry/profile_rejected`` those the degree profiles decided,
        #: ``symmetry/refined`` the refinements built (one per distinct
        #: plan of the others while it stays cached), ``symmetry/matched``
        #: the pairs whose invariants were equal and ``symmetry/extensions``
        #: the instance assignments their bijection searches tried.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._kernel = None
        # A plan's key and its (group, label) -> degree table; the degree
        # change of each neighbour screened against it, by the neighbour's key.
        self._incumbent, self._degrees = None, Counter()
        self._changes: dict[tuple, dict[tuple, int]] = {}
        self._refinements: OrderedDict[tuple, _Refinement] = OrderedDict()

    # ------------------------------------------------------------------

    def _follow_substrate(self) -> None:
        """Take the substrate's current table; drop profiles and
        refinements built on another generation's."""
        kernel = AssessmentKernel.of(self.checker.dependency_model)
        if kernel is not self._kernel:
            self._kernel = kernel
            self._incumbent = None
            self._changes.clear()
            self._refinements.clear()
            self._interned, self._host_groups, self._labels = kernel.symmetry_tables

    def _groups_of(self, host: str) -> tuple[tuple[int, int], ...]:
        """``(group, label)`` of every group in
        :meth:`SymmetryChecker.groups_of`, on interned integers."""
        groups = self._host_groups.get(host)
        if groups is None:
            checker = self.checker
            with self._kernel.lock:
                intern, labels = self._interned, self._labels
                entries = []
                for name in checker.groups_of(host):
                    group = intern.setdefault(name, len(intern))
                    if group not in labels:
                        label = checker.group_label(name)
                        labels[group] = intern.setdefault(label, len(intern))
                    entries.append((group, labels[group]))
                groups = self._host_groups[host] = tuple(entries)
        return groups

    def _profiles_agree(
        self, plan_a: DeploymentPlan, key_a: tuple, plan_b: DeploymentPlan, key_b: tuple
    ) -> bool:
        """Whether both plans have one multiset of ``(group label,
        degree)``, a group's degree the instances in it: compared over the
        groups of the hosts that differ, the only groups whose degrees can,
        against ``plan_a``'s group -> degree table."""
        if key_a != self._incumbent:
            change = self._changes.get(key_a)
            if change is None:
                self._degrees = self._degree_table(plan_a)
            else:  # a screened neighbour: the old table plus its change
                self._degrees.update(change)
            self._incumbent = key_a
            self._changes.clear()
        degrees = self._degrees
        moved = Counter(plan_b.hosts())  # host -> its instances in b minus in a
        moved.subtract(plan_a.hosts())
        change: dict[tuple, int] = {}  # (group, label) -> degree in b minus in a
        for host, count in moved.items():
            if count:
                for entry in self._groups_of(host):
                    change[entry] = change.get(entry, 0) + count
        if len(self._changes) >= MAX_CHANGES:
            self._changes.clear()
        self._changes[key_b] = change
        shift: dict[tuple, int] = {}  # (label, degree) -> groups in b minus in a
        for entry, delta in change.items():
            if delta:
                label, degree = entry[1], degrees.get(entry, 0)
                for key, step in ((label, degree), -1), ((label, degree + delta), 1):
                    shift[key] = shift.get(key, 0) + step
        return not any(count for (_, degree), count in shift.items() if degree)

    def _degree_table(self, plan: DeploymentPlan) -> Counter:
        """``plan``'s ``(group, label)`` -> degree table, from every host."""
        return Counter(chain.from_iterable(map(self._groups_of, plan.hosts())))

    def refinement(self, plan: DeploymentPlan) -> _Refinement:
        """Refined colouring of ``plan``, LRU-cached by canonical key."""
        self._follow_substrate()
        return self._refinement(plan, plan.canonical_key())

    def _refinement(self, plan: DeploymentPlan, key: tuple) -> _Refinement:
        cached = self._refinements.get(key)
        if cached is not None:
            self._refinements.move_to_end(key)
            return cached
        self.metrics.incr("symmetry/refined")
        refinement = self._refinements[key] = self._refine(plan)
        if len(self._refinements) > MAX_REFINEMENTS:
            self._refinements.popitem(last=False)
        return refinement

    def _refine(self, plan: DeploymentPlan) -> _Refinement:
        """Colour refinement of the instance-group incidence structure.

        The surgery graph is bipartite (instances x groups) and a group
        has no identity beyond its label and its members, so the graph is
        determined up to isomorphism by each instance's component and
        ``(group label, degree)`` profile — its *initial colour*, which
        also covers every group only one instance touches — plus the
        multiset of ``(label, members)`` over the shared groups. Colours
        are refined to a fixpoint: an instance's next colour is its colour
        plus, per shared group it is in, the group's label and its
        members' colours. A colour is the rank of its signature in the
        round's sorted table and every table goes into the invariant, so
        equal invariants name equal colours, and an isomorphism — which
        preserves every round's signatures — preserves the invariant.
        """
        instances: list[tuple[str, tuple[tuple[int, int], ...]]] = []
        groups: dict[int, tuple[int, list[int]]] = {}
        for component, hosts in plan.placements:
            for host in hosts:
                entries = self._groups_of(host)
                for group, label in entries:
                    groups.setdefault(group, (label, []))[1].append(len(instances))
                instances.append((component, entries))
        count = len(instances)
        shared = [group for group in groups.values() if len(group[1]) > 1]
        shared_of: list[list[int]] = [[] for _ in range(count)]
        for index, (_, attached) in enumerate(shared):
            for instance in attached:
                shared_of[instance].append(index)
        degree = {group: len(attached) for group, (_, attached) in groups.items()}
        signatures: list[tuple] = [
            (component, tuple(sorted([(label, degree[g]) for g, label in entries])))
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
            group_colours = [
                (label, tuple(sorted([colours[i] for i in attached])))
                for label, attached in shared
            ]
            if len(table) == count or not shared:
                break  # nothing left to split / nothing to split by
            signatures = [
                (colours[i], tuple(sorted([group_colours[g] for g in shared_of[i]])))
                for i in range(count)
            ]

        classes: list[list[int]] = [[] for _ in tables[-1]]
        for instance, colour in enumerate(colours):
            classes[colour].append(instance)
        invariant = (
            tuple(tables),
            tuple(len(members) for members in classes),
            tuple(sorted(group_colours)),
        )
        return _Refinement(invariant, colours, classes, shared)

    def _match(self, a: _Refinement, b: _Refinement) -> bool:
        """Whether a colour-preserving bijection carries ``a``'s shared
        groups onto ``b``'s (as multisets of ``(label, members)``).

        Such a bijection, with the equal initial colours it implies, *is*
        an isomorphism of the surgery graphs, and every isomorphism is
        one. Instances of ``a`` are taken shared group by shared group,
        smallest group first, each tried on the unused instances of its
        colour in ``b``; a group whose last member was just mapped must
        find its image among ``b``'s groups still unclaimed, or the
        partial map is dropped. A genuinely symmetric pair succeeds on
        (or near) the first descent.
        """
        by_size = sorted(a.shared, key=lambda group: len(group[1]))
        # Instances in no shared group come last: any assignment inside
        # their class does.
        order = list(
            dict.fromkeys(
                chain(*(attached for _, attached in by_size), range(len(a.colours)))
            )
        )
        position = {instance: depth for depth, instance in enumerate(order)}
        completes: list[list[tuple[int, list[int]]]] = [[] for _ in order]
        for group in a.shared:
            completes[max(position[i] for i in group[1])].append(group)
        unclaimed = Counter(
            (label, frozenset(attached)) for label, attached in b.shared
        )

        image = [-1] * len(order)
        used = [False] * len(order)
        extensions = 0

        def extend(depth: int) -> bool:
            nonlocal extensions
            if depth == len(order):
                return True
            instance = order[depth]
            for candidate in b.classes[a.colours[instance]]:
                if used[candidate]:
                    continue
                extensions += 1
                image[instance] = candidate
                claimed = []
                for label, attached in completes[depth]:
                    key = (label, frozenset([image[i] for i in attached]))
                    if not unclaimed[key]:
                        break
                    unclaimed[key] -= 1
                    claimed.append(key)
                else:
                    used[candidate] = True
                    if extend(depth + 1):
                        return True
                    used[candidate] = False
                for key in claimed:
                    unclaimed[key] += 1
            return False

        found = extend(0)
        self.metrics.incr("symmetry/matched")
        self.metrics.incr("symmetry/extensions", extensions)
        return found

    # ------------------------------------------------------------------

    def equivalent(self, plan_a: DeploymentPlan, plan_b: DeploymentPlan) -> bool:
        """Whether two plans are symmetric (same reliability by symmetry):
        exactly whether their surgery graphs are isomorphic."""
        key_a, key_b = plan_a.canonical_key(), plan_b.canonical_key()
        if key_a == key_b:
            return True
        self.metrics.incr("symmetry/screened")
        self._follow_substrate()
        if not self._profiles_agree(plan_a, key_a, plan_b, key_b):
            self.metrics.incr("symmetry/profile_rejected")
            return False
        a, b = self._refinement(plan_a, key_a), self._refinement(plan_b, key_b)
        return a.invariant == b.invariant and self._match(a, b)
