"""Application structures: components, instances and reachability demands.

§3.2.4: a cloud application may be a single K-of-N component, a layered
stack (frontends -> databases), or a microservice mesh with hundreds of
components. The developer specifies, per component ``Ci``:

* ``N_Ci`` — how many instances of ``Ci`` to deploy, and
* ``K_{Ci,Cj}`` — for each component ``Cj`` (or the external world), the
  minimum number of ``Ci`` instances that must be reachable from ``Cj``.

We use the constant :data:`EXTERNAL` as the source name for "a border
switch used for external connectivity".

Evaluation semantics (matching the paper's Fig. 6 walk-through): an
instance of ``Ci`` is *active* in a round when its host is alive and, for
every requirement ``(Ci, Cj)``, it can reach at least one active instance
of ``Cj`` (or a border switch for ``EXTERNAL``). A round is reliable when
every requirement ``(Ci, Cj, K)`` finds at least ``K`` active instances of
``Ci``. Mutual requirements (fully-meshed microservice cores) are resolved
as the greatest fixed point: start from "every alive instance is active"
and prune until stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.util.errors import ConfigurationError

#: Source name denoting the border switches ("reachable from the Internet").
EXTERNAL = "external"


@dataclass(frozen=True, slots=True)
class ComponentSpec:
    """One application component and its redundancy degree ``N_Ci``."""

    name: str
    instances: int

    def __post_init__(self) -> None:
        if not self.name or self.name == EXTERNAL:
            raise ConfigurationError(f"invalid component name {self.name!r}")
        if self.instances < 1:
            raise ConfigurationError(
                f"component {self.name!r} needs at least 1 instance, "
                f"got {self.instances}"
            )


@dataclass(frozen=True, slots=True)
class ReachabilityRequirement:
    """``K_{Ci,Cj}``: at least ``min_reachable`` instances of ``component``
    must be reachable from ``source`` (a component name or EXTERNAL)."""

    component: str
    source: str
    min_reachable: int

    def __post_init__(self) -> None:
        if self.component == self.source:
            raise ConfigurationError(
                f"component {self.component!r} cannot require reachability "
                "from itself"
            )
        if self.min_reachable < 1:
            raise ConfigurationError(
                f"min_reachable must be >= 1, got {self.min_reachable}"
            )


@dataclass(frozen=True, slots=True)
class InstanceRef:
    """One deployable instance: (component name, instance index)."""

    component: str
    index: int

    def __str__(self) -> str:
        return f"{self.component}#{self.index}"


class ApplicationStructure:
    """A validated set of components plus reachability requirements."""

    def __init__(
        self,
        components: Iterable[ComponentSpec],
        requirements: Iterable[ReachabilityRequirement],
        name: str = "app",
    ):
        self.name = name
        self.components: tuple[ComponentSpec, ...] = tuple(components)
        self.requirements: tuple[ReachabilityRequirement, ...] = tuple(requirements)
        self._by_name: dict[str, ComponentSpec] = {}
        for spec in self.components:
            if spec.name in self._by_name:
                raise ConfigurationError(f"duplicate component {spec.name!r}")
            self._by_name[spec.name] = spec
        if not self.components:
            raise ConfigurationError("an application needs at least one component")
        self._validate_requirements()
        self._content_key = (
            tuple((spec.name, spec.instances) for spec in self.components),
            tuple(
                (req.component, req.source, req.min_reachable)
                for req in self.requirements
            ),
        )

    def _validate_requirements(self) -> None:
        seen: set[tuple[str, str]] = set()
        for req in self.requirements:
            if req.component not in self._by_name:
                raise ConfigurationError(
                    f"requirement targets unknown component {req.component!r}"
                )
            if req.source != EXTERNAL and req.source not in self._by_name:
                raise ConfigurationError(
                    f"requirement references unknown source {req.source!r}"
                )
            if req.min_reachable > self._by_name[req.component].instances:
                raise ConfigurationError(
                    f"requirement asks for {req.min_reachable} reachable instances "
                    f"of {req.component!r} but only "
                    f"{self._by_name[req.component].instances} are deployed"
                )
            key = (req.component, req.source)
            if key in seen:
                raise ConfigurationError(
                    f"duplicate requirement for {req.component!r} from {req.source!r}"
                )
            seen.add(key)

    # ------------------------------------------------------------------

    def component(self, name: str) -> ComponentSpec:
        """The component spec with the given name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigurationError(f"unknown component {name!r}") from None

    def content_key(self) -> tuple:
        """Hashable identity by content: two structures with equal keys
        validate and evaluate identically. Caches key on this, never on
        the object's ``id``, which CPython reuses once it is collected."""
        return self._content_key

    @property
    def total_instances(self) -> int:
        """Total hosts a deployment plan for this structure needs."""
        return sum(spec.instances for spec in self.components)

    def instances(self) -> list[InstanceRef]:
        """Every instance reference, component by component."""
        return [
            InstanceRef(spec.name, index)
            for spec in self.components
            for index in range(spec.instances)
        ]

    def requirements_for(self, component_name: str) -> list[ReachabilityRequirement]:
        """Incoming requirements of one component."""
        return [r for r in self.requirements if r.component == component_name]

    def communication_edges(self) -> list[tuple[str, str]]:
        """(source, target) component pairs that must communicate.

        EXTERNAL edges are excluded; used by utility objectives that model
        inter-component traffic.
        """
        return [
            (r.source, r.component) for r in self.requirements if r.source != EXTERNAL
        ]

    # ------------------------------------------------------------------
    # Constructors for common shapes
    # ------------------------------------------------------------------

    @classmethod
    def k_of_n(cls, k: int, n: int, name: str = "app") -> "ApplicationStructure":
        """The basic scenario: N instances, at least K alive (§2.2)."""
        if k > n:
            raise ConfigurationError(f"K ({k}) cannot exceed N ({n})")
        return cls(
            components=[ComponentSpec(name, n)],
            requirements=[ReachabilityRequirement(name, EXTERNAL, k)],
            name=f"{k}-of-{n}",
        )

    @classmethod
    def from_requirement_map(
        cls,
        instances: Mapping[str, int],
        k_map: Mapping[tuple[str, str], int],
        name: str = "app",
    ) -> "ApplicationStructure":
        """Build from ``N_Ci`` and ``K_{Ci,Cj}`` maps, the paper's notation.

        ``k_map`` keys are ``(component, source)`` pairs.
        """
        components = [ComponentSpec(c, n) for c, n in instances.items()]
        requirements = [
            ReachabilityRequirement(component, source, k)
            for (component, source), k in k_map.items()
        ]
        return cls(components, requirements, name=name)

    def __repr__(self) -> str:
        return (
            f"<ApplicationStructure {self.name!r}: {len(self.components)} components, "
            f"{self.total_instances} instances, {len(self.requirements)} requirements>"
        )
