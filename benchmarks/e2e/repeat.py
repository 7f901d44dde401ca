"""Run the benchmark N times per workload and print, per metric and workload,
median, quartiles, (Q3 - Q1) / median, (max - min) / median and the bound, and
the same two spreads of the raw values, before the host speed factor.

    python3 benchmarks/e2e/repeat.py --runs 5 --seed 1 --output results/fixed-seed-1.md
    python3 benchmarks/e2e/repeat.py --runs 10 --vary-seed --sweeps 2 --output results/driver-style.md

Every run of a sweep uses ``--seed``, so the table shows the host's noise and
nothing else; with ``--vary-seed`` run i uses ``--seed + i``, as the driver's
runs do, and the table shows host noise and input variance together. Runs go
one after another with the workloads inside, so each workload's samples are
spread over the whole sweep. ``--sweeps 2`` repeats the sweep (on the seeds
after the first sweep's when they vary) and prints the second sweep's medians
over the first's, which the contract bounds too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import iqr_share, range_share

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def sweep(contract: dict, seeds: list[int]) -> tuple[dict, dict, dict, str]:
    """One run per seed and workload: reported values and raw values (before
    the division by the host speed factor) per (workload, metric), wall seconds
    per workload, and the first run's ``# env`` line."""
    workloads = [entry["name"] for entry in contract["workloads"]]
    values: dict[tuple[str, str], list[float]] = {}
    raw: dict[tuple[str, str], list[float]] = {}
    walls: dict[str, list[float]] = {name: [] for name in workloads}
    header = ""
    for seed in seeds:
        for name in workloads:
            started = time.perf_counter()
            done = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(contract["run_seconds"]),
                    "--trace", "0",
                ],  # fmt: skip
                stdout=subprocess.PIPE,
                text=True,
            )
            walls[name].append(time.perf_counter() - started)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False, "failed": 0}
            if done.returncode != 0 or not result["correct"] or result["failed"]:
                print(done.stdout, file=sys.stderr)
                raise SystemExit(f"{name} at seed {seed} failed")
            header = header or lines[0]
            summary = next(line for line in lines if line.startswith("# summary "))
            for metric, entry in result["metrics"].items():
                values.setdefault((name, metric), []).append(entry["value"])
            for metric, value in json.loads(summary.split(" ", 2)[2])["raw"].items():
                raw.setdefault((name, metric), []).append(value)
            print(f"seed {seed} {name}: {walls[name][-1]:.1f} s", file=sys.stderr)
    return values, raw, walls, header


def spread_table(contract: dict, values: dict, raw: dict, walls: dict, title: str) -> list[str]:
    rows = [
        title,
        "",
        "| workload | metric | unit | median | Q1 | Q3 | (Q3-Q1)/median | (max-min)/median "
        "| bound | IQR share / bound | range within bound | raw (Q3-Q1)/median | raw (max-min)/median |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    worst = 0.0
    unresolved = 0
    for (name, metric_name), sample in values.items():
        metric = next(m for m in contract["end_to_end"] if m["name"] == metric_name)
        q1, median, q3 = statistics.quantiles(sample, n=4)
        share, full = iqr_share(sample), range_share(sample)
        if metric_name != "setup_s":
            worst = max(worst, share / metric["bound"])
        unresolved += full > metric["bound"]
        rows.append(
            f"| {name} | {metric_name} | {metric['unit']} | {median:.4g} | {q1:.4g} "
            f"| {q3:.4g} | {share:.1%} | {full:.1%} | {metric['bound']:.0%} "
            f"| {share / metric['bound']:.2f} | {'yes' if full <= metric['bound'] else 'NO'} "
            f"| {iqr_share(raw[name, metric_name]):.1%} | {range_share(raw[name, metric_name]):.1%} |"
        )
    total = sum(sum(w) for w in walls.values())
    rows += [
        "",
        f"Largest IQR share / bound outside `setup_s`: {worst:.2f} (the contract's target is"
        f" a third). Rows whose (max-min)/median exceeds the bound: {unresolved}; on such a"
        " row one pair of runs cannot resolve a change the size of the bound.",
        "Mean wall per run: "
        + ", ".join(f"{name} {statistics.mean(w):.1f} s" for name, w in walls.items())
        + f"; the sweep took {total:.0f} s.",
        "",
    ]
    return rows


def medians_table(contract: dict, first: dict, second: dict) -> list[str]:
    rows = [
        "Second sweep's medians over the first's; the contract rejects a second median"
        " worse than the first by more than the bound.",
        "",
        "| workload | metric | first median | second median | second / first | bound | within |",
        "|---|---|---|---|---|---|---|",
    ]
    for key, sample in first.items():
        metric = next(m for m in contract["end_to_end"] if m["name"] == key[1])
        a, b = statistics.median(sample), statistics.median(second[key])
        worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
        rows.append(
            f"| {key[0]} | {key[1]} | {a:.4g} | {b:.4g} | {b / a:.3f} | {metric['bound']:.0%} "
            f"| {'yes' if worse <= metric['bound'] else 'NO'} |"
        )
    return rows + [""]


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true", help="run i uses --seed + i")
    parser.add_argument("--sweeps", type=int, choices=(1, 2), default=1)
    parser.add_argument("--output", help="also write the tables here, as markdown")
    args = parser.parse_args()

    rows: list[str] = []
    sweeps = []
    for index in range(args.sweeps):
        if args.vary_seed:
            first = args.seed + index * args.runs
            seeds = list(range(first, first + args.runs))
            described = f"seeds {seeds[0]}..{seeds[-1]}"
        else:
            seeds = [args.seed] * args.runs
            described = f"every run at seed {args.seed}"
        values, raw, walls, header = sweep(contract, seeds)
        sweeps.append(values)
        title = (
            f"Sweep {index + 1}: {args.runs} runs per workload, {described}, "
            f"--seconds {contract['run_seconds']}; first run's `{header}`"
        )
        rows += spread_table(contract, values, raw, walls, title)
    if args.sweeps == 2:
        rows += medians_table(contract, *sweeps)
    table = "\n".join(rows)
    print(table)
    if args.output:
        Path(args.output).write_text(table + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
