"""Deployment plans: which hosts each application instance lands on.

A deployment plan maps every instance of every application component to a
host of the data center (§2.2). Instances are placed on pairwise-distinct
hosts — the paper considers plans "without any instances on the same host"
(§3.3) — and the annealing search's neighbour move swaps exactly one host
for a fresh one (§3.3.1, Step 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.app.structure import ApplicationStructure
from repro.topology.base import Topology
from repro.util.errors import (
    ConfigurationError,
    UnsatisfiableRequirements,
    ValidationError,
)
from repro.util.rng import make_rng


def _pairs_to_json(values: str):
    """The JSON shape of a ``((component, (value, ...)), ...)`` field: a
    list of ``{"component": ..., values: [...]}`` objects."""
    return lambda pairs: [
        {"component": component, values: list(items)} for component, items in pairs
    ]


def _pinned_zones_from_json(entries) -> tuple:
    return tuple((entry["component"], tuple(entry["zones"])) for entry in entries)


def _placements_from_json(entries) -> tuple:
    """Decoded placements, re-validated for distinct hosts."""
    mapping = {entry["component"]: entry["hosts"] for entry in entries}
    return DeploymentPlan.from_mapping(mapping).placements


@dataclass(frozen=True)
class ZoneConstraints:
    """Zone-aware placement constraints for multi-zone deployments.

    Three constraint families, all cheap to screen (O(instances) with no
    graph work), matching the operator policies of cross-zone disaster
    recovery:

    * ``min_outside_primary``: at least K instances (across all
      components) must land on hosts *outside* ``primary_zone`` — the
      "K replicas survive a primary-zone outage" rule.
    * ``pinned_zones``: per-component allow-lists; every instance of a
      listed component must be placed in one of its allowed zones
      (data-residency pinning). Encoded as a tuple of
      ``(component, (zone, ...))`` pairs so the spec stays hashable.
    * ``spread_components``: components whose instances must not share a
      zone (per-component zone anti-affinity).

    Constraints evaluate against any topology exposing ``zone_of`` (see
    :class:`~repro.topology.zones.MultiZoneTopology`).
    """

    primary_zone: str | None = field(default=None, metadata={"json_null": True})
    min_outside_primary: int = 0
    pinned_zones: tuple[tuple[str, tuple[str, ...]], ...] = field(
        default=(),
        metadata={
            "json_codec": (_pairs_to_json("zones"), _pinned_zones_from_json)
        },
    )
    spread_components: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.min_outside_primary < 0:
            raise ConfigurationError(
                f"min_outside_primary must be >= 0, got {self.min_outside_primary}"
            )
        if self.min_outside_primary > 0 and self.primary_zone is None:
            raise ConfigurationError(
                "min_outside_primary requires a primary_zone"
            )
        # Normalise possibly-listy inputs into hashable tuples.
        object.__setattr__(
            self,
            "pinned_zones",
            tuple(
                (component, tuple(zones)) for component, zones in self.pinned_zones
            ),
        )
        object.__setattr__(self, "spread_components", tuple(self.spread_components))
        for component, zones in self.pinned_zones:
            if not zones:
                raise ConfigurationError(
                    f"component {component!r} is pinned to an empty zone list"
                )

    @classmethod
    def from_mapping(
        cls,
        primary_zone: str | None = None,
        min_outside_primary: int = 0,
        pinned_zones: Mapping[str, Sequence[str]] | None = None,
        spread_components: Sequence[str] = (),
    ) -> "ZoneConstraints":
        """Convenience constructor taking a plain dict of pinnings."""
        return cls(
            primary_zone=primary_zone,
            min_outside_primary=min_outside_primary,
            pinned_zones=tuple(
                (component, tuple(zones))
                for component, zones in (pinned_zones or {}).items()
            ),
            spread_components=tuple(spread_components),
        )

    @property
    def is_trivial(self) -> bool:
        """True when no constraint is actually imposed."""
        return (
            self.min_outside_primary == 0
            and not self.pinned_zones
            and not self.spread_components
        )

    # ------------------------------------------------------------------

    def violations(
        self, plan: "DeploymentPlan", topology: Topology
    ) -> list[tuple[str, str]]:
        """Every violated constraint as ``(field, message)`` pairs."""
        zone_of = getattr(topology, "zone_of", None)
        if zone_of is None:
            return [
                (
                    "topology",
                    f"topology {topology.name!r} has no zones; zone constraints "
                    "need a multi-zone topology",
                )
            ]
        errors: list[tuple[str, str]] = []
        if self.min_outside_primary > 0:
            outside = sum(
                1 for host in plan.hosts() if zone_of(host) != self.primary_zone
            )
            if outside < self.min_outside_primary:
                errors.append(
                    (
                        "min_outside_primary",
                        f"only {outside} instances outside primary zone "
                        f"{self.primary_zone!r}, need {self.min_outside_primary}",
                    )
                )
        for component, allowed in self.pinned_zones:
            try:
                hosts = plan.hosts_for(component)
            except ConfigurationError:
                continue  # structure mismatch is validate_against's job
            for host in hosts:
                zone = zone_of(host)
                if zone not in allowed:
                    errors.append(
                        (
                            f"pinned_zones.{component}",
                            f"instance on {host!r} is in zone {zone!r}, "
                            f"allowed zones are {list(allowed)}",
                        )
                    )
        for component in self.spread_components:
            try:
                hosts = plan.hosts_for(component)
            except ConfigurationError:
                continue
            zones = [zone_of(host) for host in hosts]
            duplicated = sorted({z for z in zones if zones.count(z) > 1})
            if duplicated:
                errors.append(
                    (
                        f"spread.{component}",
                        f"instances share zones {duplicated}",
                    )
                )
        return errors

    def satisfied_by(self, plan: "DeploymentPlan", topology: Topology) -> bool:
        """Whether a plan meets every constraint."""
        return not self.violations(plan, topology)

    def validate(self, plan: "DeploymentPlan", topology: Topology) -> None:
        """Raise a field-collecting :class:`ValidationError` on violations."""
        errors = self.violations(plan, topology)
        if errors:
            raise ValidationError(errors)


@dataclass(frozen=True)
class MoveDescriptor:
    """One annealing neighbour move: swap ``old_host`` for ``new_host``.

    The batched search proposes moves as descriptors instead of full plan
    copies: a descriptor is all the symmetry screen and the incremental
    caches need to reason about the move (two hosts), and materialising
    the neighbour plan is deferred until the move survives screening.
    """

    old_host: str
    new_host: str

    def apply(self, plan: "DeploymentPlan") -> "DeploymentPlan":
        """Materialise the neighbour plan this move describes."""
        return plan.replace_host(self.old_host, self.new_host)


@dataclass(frozen=True)
class DeploymentPlan:
    """An immutable assignment of component instances to hosts.

    ``placements`` holds, per component (in structure order), the tuple of
    host ids for that component's instances; index ``i`` hosts instance
    ``i``.
    """

    placements: tuple[tuple[str, tuple[str, ...]], ...] = field(
        metadata={"json_codec": (_pairs_to_json("hosts"), _placements_from_json)}
    )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_mapping(
        cls, component_hosts: Mapping[str, Sequence[str]]
    ) -> "DeploymentPlan":
        """Build a plan from {component -> ordered host list}."""
        placements = tuple(
            (component, tuple(hosts)) for component, hosts in component_hosts.items()
        )
        plan = cls(placements)
        plan._validate_distinct()
        return plan

    @classmethod
    def single_component(
        cls, hosts: Sequence[str], component: str = "app"
    ) -> "DeploymentPlan":
        """Plan for the simple K-of-N scenario: one component on N hosts."""
        return cls.from_mapping({component: list(hosts)})

    @classmethod
    def random(
        cls,
        topology: Topology,
        structure: ApplicationStructure,
        rng: int | np.random.Generator | None = None,
        forbid_shared_rack: bool = False,
        zone_constraints: "ZoneConstraints | None" = None,
        max_attempts: int = 200,
    ) -> "DeploymentPlan":
        """A uniformly random initial plan (§3.3.1, Step 1).

        With ``forbid_shared_rack`` the optional "no hosts from the same
        rack" heuristic is applied, sampling at most one host per rack.
        With ``zone_constraints`` the draw is rejection-sampled until the
        plan satisfies them (uniform over the constrained plan space);
        ``UnsatisfiableRequirements`` is raised when ``max_attempts``
        draws all violate.
        """
        if zone_constraints is not None and not zone_constraints.is_trivial:
            generator = make_rng(rng)
            for _ in range(max_attempts):
                plan = cls.random(
                    topology, structure, rng=generator,
                    forbid_shared_rack=forbid_shared_rack,
                )
                if zone_constraints.satisfied_by(plan, topology):
                    return plan
            raise UnsatisfiableRequirements(
                f"no random plan satisfied the zone constraints in "
                f"{max_attempts} draws"
            )
        generator = make_rng(rng)
        needed = structure.total_instances
        if forbid_shared_rack:
            racks = topology.racks()
            if len(racks) < needed:
                raise UnsatisfiableRequirements(
                    f"need {needed} distinct racks but only {len(racks)} exist"
                )
            chosen_racks = generator.choice(len(racks), size=needed, replace=False)
            pool = []
            for rack_index in chosen_racks:
                rack_hosts = topology.hosts_in_rack(racks[int(rack_index)])
                pool.append(rack_hosts[int(generator.integers(len(rack_hosts)))])
        else:
            if len(topology.hosts) < needed:
                raise UnsatisfiableRequirements(
                    f"need {needed} distinct hosts but only "
                    f"{len(topology.hosts)} exist"
                )
            indices = generator.choice(len(topology.hosts), size=needed, replace=False)
            pool = [topology.hosts[int(i)] for i in indices]

        placements = []
        cursor = 0
        for spec in structure.components:
            placements.append((spec.name, tuple(pool[cursor : cursor + spec.instances])))
            cursor += spec.instances
        return cls(tuple(placements))

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _validate_distinct(self) -> None:
        hosts = self.hosts()
        if len(set(hosts)) != len(hosts):
            raise ConfigurationError(
                "deployment plans place each instance on a distinct host"
            )

    def validate_against(
        self,
        topology: Topology,
        structure: ApplicationStructure,
    ) -> None:
        """Check the plan fits the structure and names real hosts.

        Collects *every* problem and raises one field-level
        :class:`~repro.util.errors.ValidationError` (a
        :class:`ConfigurationError` subclass, so existing handlers keep
        working) instead of dying on the first.
        """
        errors: list[tuple[str, str]] = []
        by_component = dict(self.placements)
        expected = {spec.name: spec.instances for spec in structure.components}
        if set(by_component) != set(expected):
            errors.append(
                (
                    "placements",
                    f"plan components {sorted(by_component)} do not match "
                    f"structure components {sorted(expected)}",
                )
            )
        else:
            for component, hosts in by_component.items():
                if len(hosts) != expected[component]:
                    errors.append(
                        (
                            f"placements.{component}",
                            f"needs {expected[component]} hosts, plan "
                            f"provides {len(hosts)}",
                        )
                    )
        from repro.topology.base import ComponentType

        for host_id in self.hosts():
            component = topology.components.get(host_id)
            if component is None:
                errors.append(("hosts", f"unknown host {host_id!r}"))
            elif component.component_type is not ComponentType.HOST:
                errors.append(
                    (
                        "hosts",
                        f"{host_id!r} is a {component.component_type.value}, "
                        "not a host",
                    )
                )
        hosts = self.hosts()
        if len(set(hosts)) != len(hosts):
            errors.append(
                ("hosts", "deployment plans place each instance on a distinct host")
            )
        if errors:
            raise ValidationError(errors)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def hosts(self) -> list[str]:
        """All hosts used by the plan, in instance order."""
        return [host for _, hosts in self.placements for host in hosts]

    def hosts_for(self, component: str) -> tuple[str, ...]:
        """The ordered hosts of one component's instances."""
        for name, hosts in self.placements:
            if name == component:
                return hosts
        raise ConfigurationError(f"plan has no component {component!r}")

    def instance_count(self) -> int:
        return sum(len(hosts) for _, hosts in self.placements)

    def host_set(self) -> frozenset[str]:
        return frozenset(self.hosts())

    # ------------------------------------------------------------------
    # Neighbour moves (§3.3.1, Step 3)
    # ------------------------------------------------------------------

    def replace_host(self, old_host: str, new_host: str) -> "DeploymentPlan":
        """A new plan with ``old_host`` swapped for ``new_host``."""
        if new_host in self.host_set():
            raise ConfigurationError(f"{new_host!r} is already used by the plan")
        replaced = False
        placements = []
        for component, hosts in self.placements:
            if old_host in hosts:
                hosts = tuple(new_host if h == old_host else h for h in hosts)
                replaced = True
            placements.append((component, hosts))
        if not replaced:
            raise ConfigurationError(f"{old_host!r} is not part of the plan")
        return DeploymentPlan(tuple(placements))

    def propose_move(
        self,
        topology: Topology,
        rng: int | np.random.Generator | None = None,
        max_attempts: int = 1_000,
        zone_constraints: "ZoneConstraints | None" = None,
    ) -> MoveDescriptor:
        """Draw one neighbour move without materialising the plan.

        Exactly the draw sequence of :meth:`random_neighbor` — one index
        into the plan's hosts, then rejection-sampled indices into the
        topology's hosts — so a search that proposes via descriptors and a
        search that proposes full plans consume identical RNG streams.
        Passing ``zone_constraints`` (None draws nothing extra) also
        rejection-samples the *destination*: a candidate is kept only if
        the resulting plan satisfies the constraints or strictly reduces
        the violation count — so a constraint-satisfying incumbent stays
        satisfying, and a violating incumbent (e.g. after a zone policy
        change mid-deployment) can walk toward compliance.
        """
        generator = make_rng(rng)
        current = self.hosts()
        used = set(current)
        if len(topology.hosts) <= len(used):
            raise UnsatisfiableRequirements("no spare host available for a swap")
        screened = zone_constraints is not None and not zone_constraints.is_trivial
        baseline = (
            len(zone_constraints.violations(self, topology)) if screened else 0
        )
        old_host = current[int(generator.integers(len(current)))]
        for _ in range(max_attempts):
            candidate = topology.hosts[int(generator.integers(len(topology.hosts)))]
            if candidate in used:
                continue
            move = MoveDescriptor(old_host, candidate)
            if screened:
                count = len(zone_constraints.violations(move.apply(self), topology))
                if count > 0 and count >= baseline:
                    continue
            return move
        raise UnsatisfiableRequirements(
            f"could not find an acceptable unused host in {max_attempts} draws"
        )

    def random_neighbor(
        self,
        topology: Topology,
        rng: int | np.random.Generator | None = None,
        max_attempts: int = 1_000,
    ) -> "DeploymentPlan":
        """Swap one random host for a random unused host.

        This is the neighbour-generation move of the annealing search: a
        single placement changes, everything else stays.
        """
        return self.propose_move(topology, rng, max_attempts).apply(self)

    def canonical_key(self) -> tuple:
        """Hashable identity ignoring instance order within a component.

        Two plans that place the same host multisets per component are the
        same deployment; instance indices are interchangeable.
        """
        return tuple(
            (component, tuple(sorted(hosts))) for component, hosts in self.placements
        )

    def __str__(self) -> str:
        parts = [
            f"{component}: [{', '.join(hosts)}]" for component, hosts in self.placements
        ]
        return "; ".join(parts)
