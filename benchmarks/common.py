"""Shared infrastructure for the paper-reproduction benchmarks.

Each bench module regenerates one table or figure of the paper. Scales
and budgets default to values that complete on a laptop in minutes;
environment variables unlock the paper's full settings:

``REPRO_BENCH_SCALES``
    Comma-separated data-center scales (default ``tiny,small,medium``).
    Use ``tiny,small,medium,large`` — or ``all`` — for the paper's full
    Table 2 sweep (the large DC has 27,072 hosts; building it takes a
    couple of minutes and a few GiB of RAM).
``REPRO_BENCH_ROUNDS``
    Comma-separated sampling-round counts (default ``1000,10000``).
    The paper sweeps ``1000,10000,100000``.
``REPRO_BENCH_SEARCH_BUDGETS``
    Comma-separated search budgets in seconds for the Fig. 9 bench
    (default ``3,6,15``; the paper uses ``3,6,15,30,60,150,300``).

Every bench prints the same rows the paper reports and appends them to
``benchmarks/results/<experiment>.txt`` so the numbers that went into
EXPERIMENTS.md are reproducible artifacts.
"""

from __future__ import annotations

import os
import pathlib
import sys
from functools import lru_cache

from repro.faults.dependencies import DependencyModel
from repro.faults.inventory import build_paper_inventory
from repro.topology.fattree import FatTreeTopology
from repro.topology.presets import SCALE_ORDER, paper_topology
from repro.workload.model import HostWorkloadModel

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Seeds fixed across benches so every experiment sees the same DC.
TOPOLOGY_SEED = 1
INVENTORY_SEED = 2
WORKLOAD_SEED = 3

#: The paper's K-of-N redundancy settings (Figs. 8-10).
REDUNDANCY_SETTINGS = ((1, 2), (2, 3), (4, 5), (8, 10))


def _env_list(name: str, default: str) -> list[str]:
    raw = os.environ.get(name, default)
    return [item.strip() for item in raw.split(",") if item.strip()]


def bench_scales() -> list[str]:
    """The data-center scales this bench run covers."""
    scales = _env_list("REPRO_BENCH_SCALES", "tiny,small,medium")
    if scales == ["all"]:
        scales = list(SCALE_ORDER)
    unknown = set(scales) - set(SCALE_ORDER)
    if unknown:
        raise ValueError(f"unknown scales in REPRO_BENCH_SCALES: {sorted(unknown)}")
    return [s for s in SCALE_ORDER if s in scales]


def bench_rounds() -> list[int]:
    """The sampling-round counts this bench run sweeps."""
    return [int(r) for r in _env_list("REPRO_BENCH_ROUNDS", "1000,10000")]


def search_budgets() -> list[float]:
    """Fig. 9 search-time budgets in seconds."""
    return [float(b) for b in _env_list("REPRO_BENCH_SEARCH_BUDGETS", "3,6,15")]


@lru_cache(maxsize=None)
def topology(scale: str) -> FatTreeTopology:
    """The (cached) paper topology for one scale."""
    return paper_topology(scale, seed=TOPOLOGY_SEED)


@lru_cache(maxsize=None)
def inventory(scale: str) -> DependencyModel:
    """The §4.1 inventory (5 power supplies) for one scale."""
    return build_paper_inventory(topology(scale), seed=INVENTORY_SEED)


@lru_cache(maxsize=None)
def workload(scale: str) -> HostWorkloadModel:
    """The §4.2.2 workload model for one scale."""
    return HostWorkloadModel.paper_default(topology(scale), seed=WORKLOAD_SEED)


def count_calls(work) -> int:
    """Function calls, Python and C, ``work()`` makes: an exact repeat."""
    count = 0

    def profiler(_frame, event, _arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(profiler)
    try:
        work()
    finally:
        sys.setprofile(None)
    return count


class ResultTable:
    """Collects experiment rows, prints them, and persists them."""

    def __init__(self, experiment: str, header: str):
        self.experiment = experiment
        self.lines: list[str] = [header, "-" * len(header)]
        print(f"\n=== {experiment} ===")
        print(header)
        print("-" * len(header))

    def row(self, line: str) -> None:
        self.lines.append(line)
        print(line)

    def save(self) -> pathlib.Path:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        path = RESULTS_DIR / f"{self.experiment}.txt"
        path.write_text("\n".join(self.lines) + "\n")
        return path
