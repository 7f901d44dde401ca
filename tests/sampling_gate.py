"""A fault registry that runs a callback at every sampler entry.

Tests that must block or cancel while a worker is inside a sampling pass
arm :class:`SamplingGate`. Armed before a pool or fleet forks, it is
inherited by the workers, so they gate deterministically on "a worker is
now sampling" instead of sleeping or inflating round counts.
"""

from repro.util.faultpoints import FaultPoints


class SamplingGate(FaultPoints):
    """Calls ``on_sampling()`` at every ``sampling.start`` hit."""

    def __init__(self, on_sampling):
        super().__init__()
        self.on_sampling = on_sampling

    def hit(self, point, occurrence=None, **context):
        if point == "sampling.start":
            self.on_sampling()
        return super().hit(point, occurrence, **context)
