"""Fig. 7: dagger sampling vs Monte-Carlo sampling.

The paper's Fig. 7 plots the time to generate failure states for *all*
infrastructure components (hosts, switches, power supplies; links are
perfectly reliable in the default policy) across the four data-center
scales, for 10^3 / 10^4 / 10^5 sampling rounds.

Each cell times ``Sampler.sample``, the one draw every assessment runs:
the failure table straight into packed rows.

Expected shape: extended dagger sampling is substantially faster than
Monte-Carlo at every scale, and the gap grows with scale and rounds —
in the paper, >10x in the large DC (53 ms vs 1,487 ms at 10^4 rounds).
"""

import time

import numpy as np
import pytest

from repro.sampling.dagger import ExtendedDaggerSampler, dagger_draw_count
from repro.sampling.montecarlo import MonteCarloSampler

from common import ResultTable, bench_rounds, bench_scales, inventory

SAMPLERS = {
    "dagger": ExtendedDaggerSampler(),
    "monte-carlo": MonteCarloSampler(),
}


def _probabilities(scale):
    return inventory(scale).failure_probabilities()


@pytest.mark.parametrize("scale", bench_scales())
@pytest.mark.parametrize("rounds", bench_rounds())
@pytest.mark.parametrize("sampler_name", list(SAMPLERS))
def test_sampling_time(benchmark, scale, rounds, sampler_name):
    """One (scale, rounds, sampler) cell of Fig. 7."""
    probabilities = _probabilities(scale)
    sampler = SAMPLERS[sampler_name]
    rng = np.random.default_rng(7)
    benchmark.pedantic(
        lambda: sampler.sample(probabilities, rounds, rng),
        iterations=1,
        rounds=3,
    )


def _experiment_fig7_table_and_shape():
    """The full Fig. 7 series, plus the who-wins assertion."""
    table = ResultTable(
        "fig7_sampling",
        f"{'scale':<8} {'components':>11} {'rounds':>7} "
        f"{'dagger_ms':>10} {'mc_ms':>9} {'speedup':>8} {'draw_ratio':>11}",
    )
    for scale in bench_scales():
        probabilities = _probabilities(scale)
        active = sum(1 for p in probabilities.values() if p > 0)
        for rounds in bench_rounds():
            timings = {}
            for name, sampler in SAMPLERS.items():
                rng = np.random.default_rng(7)
                best = float("inf")
                for _ in range(3):
                    start = time.perf_counter()
                    sampler.sample(probabilities, rounds, rng)
                    best = min(best, time.perf_counter() - start)
                timings[name] = best * 1e3
            speedup = timings["monte-carlo"] / timings["dagger"]
            draw_ratio = (active * rounds) / max(
                dagger_draw_count(probabilities, rounds), 1
            )
            table.row(
                f"{scale:<8} {active:>11} {rounds:>7} "
                f"{timings['dagger']:>10.1f} {timings['monte-carlo']:>9.1f} "
                f"{speedup:>7.1f}x {draw_ratio:>10.1f}x"
            )
            # Shape: dagger wins at every cell with >= 10^4 rounds.
            if rounds >= 10_000:
                assert timings["dagger"] < timings["monte-carlo"], (scale, rounds)
    table.save()


def _experiment_fig7_gap_grows_with_scale():
    """The dagger advantage increases with data-center scale."""
    scales = bench_scales()
    if len(scales) < 2:
        pytest.skip("need at least two scales")
    rounds = max(bench_rounds())
    speedups = []
    for scale in (scales[0], scales[-1]):
        probabilities = _probabilities(scale)
        times = {}
        for name, sampler in SAMPLERS.items():
            rng = np.random.default_rng(7)
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                sampler.sample(probabilities, rounds, rng)
                best = min(best, time.perf_counter() - start)
            times[name] = best
        speedups.append(times["monte-carlo"] / times["dagger"])
    assert speedups[-1] > speedups[0]

def test_fig7_table_and_shape(benchmark):
    """One-shot benchmarked run of the experiment above."""
    benchmark.pedantic(_experiment_fig7_table_and_shape, iterations=1, rounds=1)

def test_fig7_gap_grows_with_scale(benchmark):
    """One-shot benchmarked run of the experiment above."""
    benchmark.pedantic(_experiment_fig7_gap_grows_with_scale, iterations=1, rounds=1)
