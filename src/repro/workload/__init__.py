"""Host workload models."""

from repro.workload.model import HostWorkloadModel

__all__ = ["HostWorkloadModel"]
