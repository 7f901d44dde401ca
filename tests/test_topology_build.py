"""Topology builds hashed whole: ids, types, attributes, probabilities,
neighbour order, the generic engine's edge layout and the generator state
the build leaves behind.

The digests were recorded on the per-component build (one probability draw
per ``_add_*`` call, a graph-library adjacency); any change to how a
substrate is built must reproduce them exactly, because every sampled bit,
golden document and search trajectory downstream is a function of them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.faults.component import ComponentType
from repro.faults.probability import (
    AhpProbabilityPolicy,
    DefaultProbabilityPolicy,
    NormalProbabilityModel,
    PaperProbabilityPolicy,
)
from repro.routing.generic import GenericReachabilityEngine
from repro.topology.leafspine import LeafSpineTopology
from repro.topology.presets import paper_topology
from repro.topology.zones import MultiZoneTopology


def build_digest(build) -> str:
    """sha256 over everything a build decides, with ``build(rng)`` given
    a fresh generator it must leave in its post-build state."""
    rng = np.random.default_rng(20170412)
    topology = build(rng)
    h = hashlib.sha256()

    def put(*parts) -> None:
        h.update(repr(parts).encode())

    for cid, component in topology.components.items():
        put(
            cid,
            component.component_type.value,
            component.failure_probability.hex(),
            sorted(component.attributes.items()),
        )
        if component.component_type is not ComponentType.LINK:
            put("neighbors", cid, list(topology.adjacency[cid]))
    put("hosts", topology.hosts, "borders", topology.border_switches)
    engine = GenericReachabilityEngine(topology)
    put("engine", engine._ids)
    for array in (engine._src, engine._dst, engine._link, engine._starts):
        h.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    put("rng", rng.bit_generator.state)
    return h.hexdigest()


_AHP = AhpProbabilityPolicy(
    type_weights={ComponentType.HOST: 3.0, ComponentType.EDGE_SWITCH: 1.0},
    base_probability=0.02,
    link_probability=0.001,
)
_WIDE = PaperProbabilityPolicy(
    switch_model=NormalProbabilityModel(mean=0.01, stddev=0.02, maximum=0.02),
    default_model=NormalProbabilityModel(mean=0.3, stddev=0.2, minimum=0.2),
    link_probability=0.003,
)

BUILDS = {
    "tiny": lambda rng: paper_topology("tiny", seed=rng),
    "small": lambda rng: paper_topology("small", seed=rng),
    "medium": lambda rng: paper_topology("medium", seed=rng),
    "leafspine": lambda rng: LeafSpineTopology(
        spines=3, leaves=5, hosts_per_leaf=4, border_switches=2, seed=rng
    ),
    "zones": lambda rng: MultiZoneTopology(
        zones=2, k=4, wan_routers_per_zone=2, seed=rng
    ),
    "zones-wide-clip": lambda rng: MultiZoneTopology(
        zones=3, k=4, probability_policy=_WIDE, seed=rng
    ),
    "leafspine-default": lambda rng: LeafSpineTopology(
        spines=2, leaves=3, hosts_per_leaf=2,
        probability_policy=DefaultProbabilityPolicy(0.02, link_probability=0.01),
        seed=rng,
    ),
    "leafspine-ahp": lambda rng: LeafSpineTopology(
        spines=2, leaves=3, hosts_per_leaf=2, probability_policy=_AHP, seed=rng
    ),
}

DIGESTS = {
    "leafspine": "c402094c64fa737728ab173ac3a81ff10b0ba4e8316f78937e2c4ad8f0006a62",
    "leafspine-ahp": "72d53444d0a35eb09e3245c907debbe03d2dc7973aebe44a489030f9110468c1",
    "leafspine-default": "97c9edaf57c17cdff947b3e4fd2b1e2b66aef9ab907c58843ed8f5b1c4643f5e",
    "medium": "17ace843d119a23c9bdd783a0c8d07086e206fe45a2a5f320bb1134477da60cc",
    "small": "263a29f8e3c5d14171993fd7254fe25ce0af4c1d65f135b9091dff48c3c3eecf",
    "tiny": "0d2393b2aa6635623d513c419d92f483104ab8dcbdae93b9c91dae490e67ae4c",
    "zones": "2e2757a456625b83e75c931ae34540db949b4112ccadacb3803cc7999f042030",
    "zones-wide-clip": "eecc764885c9ba6c45445e539d66150ca5445e1932264a8e6db751c903e8be30",
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_build_digest_is_unchanged(name):
    assert build_digest(BUILDS[name]) == DIGESTS[name]
