"""Host workload model used by the multi-objective search (§4.2.2).

The paper reflects the typically-low utilisation of data centers [12, 64]
by drawing each host's workload from N(0.2, 0.05), clipped to [0, 1]. The
model also supports random drift so examples can exercise reCloud's
quick adaptation to varying conditions "collected at (near) real-time".
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.topology.base import Topology
from repro.util.errors import ConfigurationError
from repro.util.rng import make_rng


class HostWorkloadModel:
    """Per-host workload in [0, 1] (0 = idle, 1 = saturated)."""

    def __init__(self, workloads: dict[str, float]):
        for host, load in workloads.items():
            if not 0.0 <= load <= 1.0:
                raise ConfigurationError(
                    f"workload of {host!r} must be in [0, 1], got {load}"
                )
        self._workloads = dict(workloads)

    @classmethod
    def paper_default(
        cls,
        topology: Topology,
        mean: float = 0.2,
        stddev: float = 0.05,
        seed: int | np.random.Generator | None = None,
    ) -> "HostWorkloadModel":
        """The evaluation setting: workload ~ N(0.2, 0.05), clipped."""
        rng = make_rng(seed)
        draws = np.clip(rng.normal(mean, stddev, size=len(topology.hosts)), 0.0, 1.0)
        return cls(dict(zip(topology.hosts, (float(d) for d in draws))))

    # ------------------------------------------------------------------

    def workload_of(self, host: str) -> float:
        try:
            return self._workloads[host]
        except KeyError:
            raise ConfigurationError(f"no workload recorded for host {host!r}") from None

    def average(self, hosts: Iterable[str]) -> float:
        """Mean workload over a host set (a plan's utilisation cost)."""
        values = [self.workload_of(h) for h in hosts]
        if not values:
            raise ConfigurationError("cannot average over zero hosts")
        return sum(values) / len(values)

    def rank_least_loaded(self, hosts: Sequence[str] | None = None) -> list[str]:
        """Hosts ordered from least to most loaded (ties break on host id,
        keeping the ordering deterministic)."""
        pool = list(self._workloads if hosts is None else hosts)
        return sorted(pool, key=lambda h: (self.workload_of(h), h))

    def drift(
        self, stddev: float = 0.02, seed: int | np.random.Generator | None = None
    ) -> None:
        """Randomly perturb every host's load (simulated telemetry tick)."""
        rng = make_rng(seed)
        for host in self._workloads:
            noisy = self._workloads[host] + float(rng.normal(0.0, stddev))
            self._workloads[host] = min(1.0, max(0.0, noisy))

    def __len__(self) -> int:
        return len(self._workloads)
