"""Synthetic dependency-inventory builders.

The paper acquires dependency information from cloud-management platforms
and tools such as HardwareLister, apt-rdepends and NSDMiner (§2.1). Those
feeds are proprietary, so this module builds the closest synthetic
equivalents, and in particular reproduces the evaluation's own setting
(§4.1): **5 power supplies per data center, assigned round-robin to every
switch and to the group of hosts under every edge switch, maximising power
diversity**.

Beyond the paper's evaluation setting, richer builders attach redundant
power pairs, redundant rack cooling, and per-host OS/library software
dependencies — yielding exactly the Fig. 5 tree shape — so the fault-tree
machinery is exercised with AND gates and deeper structures too.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.faults.component import Component, ComponentType
from repro.faults.cvss import SyntheticVulnerabilityDatabase
from repro.faults.dependencies import DependencyModel
from repro.faults.faulttree import and_gate, basic, or_gate
from repro.faults.probability import PAPER_DEFAULT_MODEL, NormalProbabilityModel
from repro.util.errors import ConfigurationError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (topology uses faults)
    from repro.topology.base import Topology
from repro.util.rng import make_rng


def validate_failure_probabilities(probabilities: Mapping[str, float]) -> None:
    """Reject malformed failure probabilities at the inventory boundary.

    Operator-supplied probability feeds (measured zone-root rates,
    bathtub-curve overrides, hand-edited what-if studies) are the one
    place garbage enters the fault model: a NaN silently poisons every
    sampled round it touches, and a negative or >1 value turns the
    Monte Carlo estimate into nonsense. Every problem is collected and
    raised as one field-level :class:`~repro.util.errors.ValidationError`
    (field = component id) instead of dying on the first bad entry.
    """
    errors: list[tuple[str, str]] = []
    for component_id in sorted(probabilities):
        raw = probabilities[component_id]
        try:
            value = float(raw)
        except (TypeError, ValueError):
            errors.append((component_id, f"failure probability {raw!r} is not a number"))
            continue
        if math.isnan(value):
            errors.append((component_id, "failure probability is NaN"))
        elif value < 0.0:
            errors.append((component_id, f"failure probability {value} is negative"))
        elif value > 1.0:
            errors.append((component_id, f"failure probability {value} exceeds 1"))
    if errors:
        raise ValidationError(errors)


def _make_dependency(
    model: DependencyModel,
    component_id: str,
    component_type: ComponentType,
    probability: float,
    **attributes,
) -> Component:
    component = Component(
        component_id=component_id,
        component_type=component_type,
        failure_probability=probability,
        attributes=attributes,
    )
    model.add_dependency_component(component)
    return component


def attach_power_supplies(
    model: DependencyModel,
    count: int = 5,
    probability_model: NormalProbabilityModel = PAPER_DEFAULT_MODEL,
    seed: int | np.random.Generator | None = None,
) -> list[str]:
    """Attach ``count`` shared power supplies round-robin (§4.1).

    Every switch gets one power supply, and the whole host group under each
    edge switch shares one power supply, both assigned round-robin to
    maximise power diversity. Returns the new power-supply ids.

    These supplies are deliberately *shared*: each one powers many
    elements, so its failure is a correlated-failure event.
    """
    if count < 1:
        raise ConfigurationError(f"need at least one power supply, got {count}")
    rng = make_rng(seed)
    topology = model.topology

    supply_ids = []
    for i in range(count):
        sid = f"power/{i}"
        _make_dependency(
            model,
            sid,
            ComponentType.POWER_SUPPLY,
            probability=probability_model.sample(rng),
            index=i,
        )
        supply_ids.append(sid)

    cursor = 0
    for switch_id in topology.switches:
        model.attach_branch(switch_id, basic(supply_ids[cursor % count]))
        cursor += 1
    for rack_id in topology.racks():
        supply = supply_ids[cursor % count]
        cursor += 1
        for host_id in topology.hosts_in_rack(rack_id):
            model.attach_branch(host_id, basic(supply))
    return supply_ids


def attach_redundant_power(
    model: DependencyModel,
    pairs: int = 5,
    probability_model: NormalProbabilityModel = PAPER_DEFAULT_MODEL,
    seed: int | np.random.Generator | None = None,
) -> list[tuple[str, str]]:
    """Attach redundant power-supply *pairs*: an element fails on power only
    if **both** supplies of its pair fail (the AND gate of Fig. 5).

    Pairs are assigned round-robin over switches and rack host-groups, like
    :func:`attach_power_supplies`. Returns the pair id tuples.
    """
    if pairs < 1:
        raise ConfigurationError(f"need at least one power pair, got {pairs}")
    rng = make_rng(seed)
    topology = model.topology

    pair_ids: list[tuple[str, str]] = []
    for i in range(pairs):
        ids = (f"power/{i}/a", f"power/{i}/b")
        for pid in ids:
            _make_dependency(
                model,
                pid,
                ComponentType.POWER_SUPPLY,
                probability=probability_model.sample(rng),
                pair=i,
            )
        pair_ids.append(ids)

    def power_branch(pair: tuple[str, str]):
        return and_gate(basic(pair[0]), basic(pair[1]), label="power fails")

    cursor = 0
    for switch_id in topology.switches:
        model.attach_branch(switch_id, power_branch(pair_ids[cursor % pairs]))
        cursor += 1
    for rack_id in topology.racks():
        pair = pair_ids[cursor % pairs]
        cursor += 1
        for host_id in topology.hosts_in_rack(rack_id):
            model.attach_branch(host_id, power_branch(pair))
    return pair_ids


def attach_rack_cooling(
    model: DependencyModel,
    redundancy: int = 2,
    probability_model: NormalProbabilityModel = PAPER_DEFAULT_MODEL,
    seed: int | np.random.Generator | None = None,
) -> dict[str, list[str]]:
    """Attach ``redundancy`` cooling units to every rack (Fig. 5).

    All hosts of a rack share that rack's cooling units; the rack's hosts
    fail on cooling only when *all* units fail (AND gate). Returns the
    cooling ids per rack.
    """
    if redundancy < 1:
        raise ConfigurationError(f"cooling redundancy must be >= 1, got {redundancy}")
    rng = make_rng(seed)
    topology = model.topology

    cooling_by_rack: dict[str, list[str]] = {}
    for rack_index, rack_id in enumerate(topology.racks()):
        unit_ids = []
        for unit in range(redundancy):
            cid = f"cooling/{rack_index}/{unit}"
            _make_dependency(
                model,
                cid,
                ComponentType.COOLING,
                probability=probability_model.sample(rng),
                rack=rack_id,
            )
            unit_ids.append(cid)
        cooling_by_rack[rack_id] = unit_ids
        if redundancy == 1:
            branch = basic(unit_ids[0])
        else:
            branch = and_gate(*[basic(u) for u in unit_ids], label="cooling fails")
        for host_id in topology.hosts_in_rack(rack_id):
            model.attach_branch(host_id, branch)
    return cooling_by_rack


def attach_host_software(
    model: DependencyModel,
    os_images: int = 3,
    shared_libraries: int = 4,
    vulnerability_db: SyntheticVulnerabilityDatabase | None = None,
    seed: int | np.random.Generator | None = None,
) -> dict[str, list[str]]:
    """Attach OS + shared-library software dependencies to every host.

    There are ``os_images`` distinct OS images and ``shared_libraries``
    distinct libraries in the fleet; each host runs one OS and one library
    (assigned round-robin), and fails if either fails (the OR software
    branch of Fig. 5). Software failure probabilities are estimated from
    synthetic CVSS data (§2.1). Returns the software ids per host.

    Because images and libraries are fleet-wide, they are shared
    dependencies: one buggy OS image can take down many hosts at once.
    """
    if min(os_images, shared_libraries) < 1:
        raise ConfigurationError("need at least one OS image and one library")
    rng = make_rng(seed)
    db = vulnerability_db or SyntheticVulnerabilityDatabase()
    topology = model.topology

    os_ids = []
    for i in range(os_images):
        cid = f"os/{i}"
        _make_dependency(
            model,
            cid,
            ComponentType.OPERATING_SYSTEM,
            probability=db.failure_probability_for(cid, rng),
            image=i,
        )
        os_ids.append(cid)
    lib_ids = []
    for i in range(shared_libraries):
        cid = f"lib/{i}"
        _make_dependency(
            model,
            cid,
            ComponentType.LIBRARY,
            probability=db.failure_probability_for(cid, rng),
            package=i,
        )
        lib_ids.append(cid)

    software_by_host: dict[str, list[str]] = {}
    for index, host_id in enumerate(topology.hosts):
        os_id = os_ids[index % os_images]
        lib_id = lib_ids[index % shared_libraries]
        branch = or_gate(basic(os_id), basic(lib_id), label="software fails")
        model.attach_branch(host_id, branch)
        software_by_host[host_id] = [os_id, lib_id]
    return software_by_host


def attach_zone_shared_roots(
    model: DependencyModel,
    probability_model: NormalProbabilityModel = PAPER_DEFAULT_MODEL,
    root_probabilities: Mapping[str, float] | None = None,
    seed: int | np.random.Generator | None = None,
) -> dict[str, list[str]]:
    """Attach per-zone shared roots so zone outages are correlated events.

    Every zone of a :class:`~repro.topology.zones.MultiZoneTopology` gets
    three shared dependencies — power feed, cooling plant and control
    plane — attached to **every** network element of the zone (hosts,
    switches, WAN routers). One root failing fails the whole zone in the
    same sampling round, which is exactly the correlated-failure
    structure the cross-zone placement constraints defend against.

    Each inter-zone WAN plane additionally gets a shared *conduit*
    dependency (the physical long-haul fiber) attached to the WAN
    routers at both ends: a conduit cut severs that plane's inter-zone
    path as one correlated event.

    ``root_probabilities`` optionally overrides sampled probabilities
    with operator-measured rates (keyed by root id); the mapping is
    validated with :func:`validate_failure_probabilities` before any
    component is built. Returns ``{zone: [root ids]}`` with conduit ids
    under the pseudo-zone key ``"wan"``.
    """
    topology = model.topology
    zone_names = getattr(topology, "zone_names", None)
    if not zone_names:
        raise ConfigurationError(
            f"topology {topology.name!r} has no zones; zone shared roots need a "
            "MultiZoneTopology"
        )
    if root_probabilities:
        validate_failure_probabilities(root_probabilities)
    overrides = dict(root_probabilities or {})
    rng = make_rng(seed)

    def probability_of(root_id: str) -> float:
        if root_id in overrides:
            return float(overrides[root_id])
        return probability_model.sample(rng)

    roots_by_zone: dict[str, list[str]] = {}
    for zone in zone_names:
        root_ids = []
        for kind, ctype in (
            ("power-feed", ComponentType.POWER_SUPPLY),
            ("cooling-plant", ComponentType.COOLING),
            ("control-plane", ComponentType.CONTROL_PLANE),
        ):
            rid = f"zone-root/{zone}/{kind}"
            _make_dependency(
                model,
                rid,
                ctype,
                probability=probability_of(rid),
                zone=zone,
                shared_root=True,
            )
            root_ids.append(rid)
        roots_by_zone[zone] = root_ids
        branch = or_gate(*[basic(rid) for rid in root_ids], label=f"{zone} roots fail")
        for element_id in topology.zone_elements(zone):
            model.attach_branch(element_id, branch)

    conduit_ids = []
    for i, zone_a in enumerate(zone_names):
        for zone_b in zone_names[i + 1 :]:
            for plane in range(getattr(topology, "wan_routers_per_zone", 1)):
                cid = f"wan-conduit/{zone_a}--{zone_b}/{plane}"
                _make_dependency(
                    model,
                    cid,
                    ComponentType.LINK,
                    probability=probability_of(cid),
                    zones=(zone_a, zone_b),
                    plane=plane,
                )
                conduit_ids.append(cid)
                branch = basic(cid)
                model.attach_branch(topology.wan_by_zone[zone_a][plane], branch)
                model.attach_branch(topology.wan_by_zone[zone_b][plane], branch)
    roots_by_zone["wan"] = conduit_ids
    return roots_by_zone


def zone_shared_root_ids(model: DependencyModel, zone: str) -> list[str]:
    """The shared-root dependency ids of one zone (power, cooling, control).

    :class:`ZoneOutage` uses this to take a whole zone down in one
    injection.
    """
    roots = [
        cid
        for cid, component in model.dependency_components.items()
        if component.attributes.get("shared_root")
        and component.attributes.get("zone") == zone
    ]
    if not roots:
        raise ConfigurationError(
            f"no shared roots found for zone {zone!r}; was the inventory built "
            "with attach_zone_shared_roots?"
        )
    return roots


#: Probability a zone's shared roots are driven to during an injected
#: outage. Just under 1 because components require p < 1; at 1e-6 odds of
#: survival the zone is down in essentially every sampled round.
ZONE_OUTAGE_PROBABILITY = 0.999999


class ZoneOutage:
    """Take a whole availability zone down in one injection.

    Drives every shared root of the zone (power feed, cooling plant,
    control plane — see :func:`attach_zone_shared_roots`) to
    :data:`ZONE_OUTAGE_PROBABILITY` at once, which fails every element of
    the zone in essentially every sampled round — the correlated disaster
    the cross-zone placement constraints exist for. :meth:`revert`
    restores the exact original probabilities, and the class is a context
    manager (``with ZoneOutage(model, "zone0"): ...``).

    Only probabilities change, never structure, so attached fault trees
    and topology graphs stay valid. Each override moves the substrate's
    generation, so assessors built afterwards get a kernel compiled
    against the outage (every search builds its incremental assessor
    anew); a live from-scratch assessor fetches it after
    :meth:`inject`/:meth:`revert` on ``refresh_probabilities()`` — the
    :class:`~repro.service.redeploy.RedeploymentController` does this
    automatically — and a search's symmetry screen follows on its own.
    """

    def __init__(self, dependency_model, zone: str, probability: float = ZONE_OUTAGE_PROBABILITY):
        if not 0.0 < probability < 1.0:
            raise ConfigurationError(
                f"outage probability must be in (0, 1), got {probability}"
            )
        self.dependency_model = dependency_model
        self.zone = zone
        self.probability = probability
        self.root_ids = zone_shared_root_ids(dependency_model, zone)
        self._saved: dict[str, float] | None = None

    @property
    def active(self) -> bool:
        """True while the outage is injected."""
        return self._saved is not None

    def inject(self) -> list[str]:
        """Fail the zone's shared roots; returns the affected root ids.

        All-or-nothing: the roots are overridden one at a time, each
        original saved *before* its mutation, and any failure rolls back
        every override already applied before re-raising. Without that, a
        root that rejects its override would leak a half-failed zone —
        and ``with ZoneOutage(...)`` never reaches ``__exit__`` when
        ``__enter__`` raises, so nothing else would clean it up.
        """
        if self.active:
            return self.root_ids
        probabilities = self.dependency_model.failure_probabilities()
        saved: dict[str, float] = {}
        try:
            for rid in self.root_ids:
                saved[rid] = probabilities[rid]
                self.dependency_model.override_probabilities(
                    {rid: self.probability}
                )
        except BaseException:
            if saved:
                # The failing root may or may not have been applied;
                # restoring its saved original either way is harmless.
                self.dependency_model.override_probabilities(saved)
            raise
        self._saved = saved
        return self.root_ids

    def revert(self) -> None:
        """Restore the pre-outage probabilities (idempotent)."""
        if self._saved is None:
            return
        self.dependency_model.override_probabilities(self._saved)
        self._saved = None

    def __enter__(self) -> "ZoneOutage":
        self.inject()
        return self

    def __exit__(self, *exc_info) -> None:
        self.revert()


def build_paper_inventory(
    topology: Topology,
    power_supplies: int = 5,
    seed: int | np.random.Generator | None = None,
) -> DependencyModel:
    """The evaluation inventory of §4.1: N shared power supplies, nothing else."""
    model = DependencyModel.empty(topology)
    attach_power_supplies(model, count=power_supplies, seed=seed)
    return model


def build_rich_inventory(
    topology: Topology,
    power_pairs: int = 5,
    cooling_redundancy: int = 2,
    os_images: int = 3,
    shared_libraries: int = 4,
    seed: int | np.random.Generator | None = None,
) -> DependencyModel:
    """A full Fig. 5-shaped inventory: redundant power, redundant cooling,
    and shared software, demonstrating AND/OR fault-tree structure."""
    rng = make_rng(seed)
    model = DependencyModel.empty(topology)
    attach_redundant_power(model, pairs=power_pairs, seed=rng)
    attach_rack_cooling(model, redundancy=cooling_redundancy, seed=rng)
    attach_host_software(
        model, os_images=os_images, shared_libraries=shared_libraries, seed=rng
    )
    return model


def build_zone_inventory(
    topology: Topology,
    power_supplies: int = 5,
    root_probabilities: Mapping[str, float] | None = None,
    seed: int | np.random.Generator | None = None,
) -> DependencyModel:
    """The multi-zone inventory: §4.1 power supplies plus zone shared roots.

    Round-robin power supplies within each zone's racks and switches (as
    in the paper's evaluation) layered with per-zone power feed / cooling
    plant / control plane and per-plane WAN conduits, so zone outages and
    conduit cuts are correlated events. The assembled model's complete
    probability map is re-validated as a final invariant check.
    """
    rng = make_rng(seed)
    model = DependencyModel.empty(topology)
    attach_power_supplies(model, count=power_supplies, seed=rng)
    attach_zone_shared_roots(model, root_probabilities=root_probabilities, seed=rng)
    validate_failure_probabilities(model.failure_probabilities())
    return model


def power_supplies_of_plan(
    model: DependencyModel, host_ids: Sequence[str]
) -> list[frozenset[str]]:
    """Per-host power-supply ids referenced by each host's fault tree.

    Used by the enhanced common-practice baseline, which picks the plan
    with the most diversified power supplies (§4.2.2).
    """
    result = []
    for host_id in host_ids:
        events = model.tree_for(host_id).basic_events()
        result.append(
            frozenset(
                cid
                for cid in events
                if cid in model.dependency_components
                and model.dependency_components[cid].component_type
                is ComponentType.POWER_SUPPLY
            )
        )
    return result
