"""Lightweight stage-timing and counter registry for the assessment pipeline.

The incremental engine's whole value proposition is "most of the work is
cached"; that claim has to be observable, not taken on faith. A
:class:`MetricsRegistry` collects named counters (cache hits/misses,
components sampled, plans assessed) and stage timers (closure, sampling,
fault trees, route-and-check, reduction) with near-zero overhead — two
``perf_counter`` reads per timed stage and a dict update per counter.

The registry is surfaced in two places:

* ``--profile`` on the CLI prints the formatted snapshot after a command;
* :class:`~repro.core.result.RuntimeMetadata` carries a flattened snapshot
  when the assessment config supplies a registry
  (``AssessmentConfig(metrics=...)``), so machine-readable artifacts
  include it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Mapping


class MetricsRegistry:
    """Named counters and cumulative stage timers.

    Counter names are free-form but the pipeline uses a ``stage/detail``
    convention (``plan_cache/hit``, ``sample/component_miss``, ...), which
    keeps the printed snapshot groupable.
    """

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._timer_seconds: dict[str, float] = {}
        self._timer_calls: dict[str, int] = {}
        self._gauges: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def incr(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the named counter (creating it at 0)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a stage; cumulative across calls."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._timer_seconds[name] = self._timer_seconds.get(name, 0.0) + elapsed
            self._timer_calls[name] = self._timer_calls.get(name, 0) + 1

    def observe(self, name: str, seconds: float) -> None:
        """Record an externally measured duration under a timer name.

        For latencies the caller already has in hand (queue wait,
        request latency) where wrapping a ``timer()`` block is awkward.
        """
        self._timer_seconds[name] = self._timer_seconds.get(name, 0.0) + seconds
        self._timer_calls[name] = self._timer_calls.get(name, 0) + 1

    def set_gauge(self, name: str, value: float) -> None:
        """Set an instantaneous level (queue depth, in-flight requests).

        Unlike counters, gauges move both ways; the registry keeps the
        latest value only.
        """
        self._gauges[name] = float(value)

    def reset(self) -> None:
        """Clear every counter, timer and gauge."""
        self._counters.clear()
        self._timer_seconds.clear()
        self._timer_calls.clear()
        self._gauges.clear()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def counter(self, name: str) -> float:
        """Current value of a counter (0 if never incremented)."""
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> float:
        """Current value of a gauge (0 if never set)."""
        return self._gauges.get(name, 0.0)

    def timer_seconds(self, name: str) -> float:
        """Cumulative seconds recorded under a timer name."""
        return self._timer_seconds.get(name, 0.0)

    def hit_rate(self, cache: str) -> float:
        """Hit rate of a cache instrumented as ``<cache>/hit`` + ``<cache>/miss``."""
        hits = self.counter(f"{cache}/hit")
        misses = self.counter(f"{cache}/miss")
        total = hits + misses
        return hits / total if total else 0.0

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Structured view: ``{"counters", "gauges", "timers"}`` sections."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "timers": {
                name: {
                    "seconds": seconds,
                    "calls": self._timer_calls.get(name, 0),
                }
                for name, seconds in self._timer_seconds.items()
            },
        }

    def flat(self) -> tuple[tuple[str, float], ...]:
        """Flattened, hashable snapshot for frozen result records."""
        items: list[tuple[str, float]] = []
        for name, value in sorted(self._counters.items()):
            items.append((f"counter/{name}", float(value)))
        for name, value in sorted(self._gauges.items()):
            items.append((f"gauge/{name}", float(value)))
        for name, seconds in sorted(self._timer_seconds.items()):
            items.append((f"timer/{name}/seconds", float(seconds)))
            items.append((f"timer/{name}/calls", float(self._timer_calls.get(name, 0))))
        return tuple(items)

    def format_table(self) -> str:
        """Human-readable snapshot for the CLI's ``--profile`` output."""
        lines = ["-- profile --"]
        if self._timer_seconds:
            lines.append(f"{'stage':<28} {'seconds':>10} {'calls':>8}")
            for name in sorted(self._timer_seconds):
                lines.append(
                    f"{name:<28} {self._timer_seconds[name]:>10.4f} "
                    f"{self._timer_calls.get(name, 0):>8}"
                )
        if self._counters:
            lines.append(f"{'counter':<28} {'value':>10}")
            for name in sorted(self._counters):
                value = self._counters[name]
                rendered = f"{value:g}"
                lines.append(f"{name:<28} {rendered:>10}")
        if self._gauges:
            lines.append(f"{'gauge':<28} {'value':>10}")
            for name in sorted(self._gauges):
                lines.append(f"{name:<28} {self._gauges[name]:>10g}")
        caches = sorted(
            {
                name.rsplit("/", 1)[0]
                for name in self._counters
                if name.endswith(("/hit", "/miss"))
            }
        )
        for cache in caches:
            lines.append(f"{cache + ' hit rate':<28} {self.hit_rate(cache):>10.1%}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry: {len(self._counters)} counters, "
            f"{len(self._timer_seconds)} timers>"
        )


def flat_to_nested(flat: Mapping[str, float] | tuple) -> dict[str, dict]:
    """Rebuild a structured snapshot from :meth:`MetricsRegistry.flat` output."""
    if not isinstance(flat, Mapping):
        flat = dict(flat)
    nested: dict[str, dict] = {"counters": {}, "gauges": {}, "timers": {}}
    for key, value in flat.items():
        if key.startswith("counter/"):
            nested["counters"][key[len("counter/"):]] = value
        elif key.startswith("gauge/"):
            nested["gauges"][key[len("gauge/"):]] = value
        elif key.startswith("timer/"):
            rest = key[len("timer/"):]
            name, _, field = rest.rpartition("/")
            nested["timers"].setdefault(name, {})[field] = value
    return nested
