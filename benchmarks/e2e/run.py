"""End-to-end benchmark of the reCloud reproduction; see README.md beside it.

    python3 benchmarks/e2e/run.py --workload serve_mixed --seed 1 --seconds 15 --trace 0

Without ``--workload`` all four run, interleaved round by round. Each line of
output names a metric with its unit; the last line is the result as JSON. Exits
non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import speed_factor
from stats import block_median, highest_supported_percentile, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

#: A run is R rounds; every round starts each workload in a fresh process and
#: measures one segment of BLOCKS equal blocks of ops, the reference kernel
#: timed between them. The host changes speed in spells of seconds and more,
#: so a block is well under a second and carries its own host speed factor.
ROUNDS = 3
BLOCKS = 6
#: A traced run alternates untraced and traced blocks in one process.
TRACE_PATTERN = "UT" * (BLOCKS // 2)

#: Measured ops per second of ``--seconds`` each workload is sized for, on the
#: development host in its slow spells. Op counts are fixed by these and
#: ``--seconds`` alone, so two commits measured with the same arguments do the
#: same work.
OPS_PER_SECOND = {
    "serve_mixed": 60.0,
    "assess_fattree": 72.0,
    "search_fattree": 7.2,
    "search_zones": 7.2,
}

#: The contract gives a run 180 s; workers still running then are killed.
RUN_DEADLINE_SECONDS = 170.0


def block_ops(workload: str, seconds: float) -> int:
    return max(2, round(OPS_PER_SECOND[workload] * seconds / (ROUNDS * BLOCKS)))


def spawn_worker(
    workload: str, seed: int, round_index: int, ops: int, pattern: str, deadline: float
) -> dict:
    """Run one ``worker.py`` to completion in its own process group and return
    its result; nothing of the group outlives this call. Rounds take the
    host's CPUs in turn."""
    host_cpus = sorted(os.sched_getaffinity(0))
    cpu = host_cpus[round_index % len(host_cpus)]
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--round", str(round_index),
        "--block-ops", str(ops), "--pattern", pattern,
        "--spans", str(OUT_DIR / f"spans-{workload}.jsonl"),
        "--cpu", str(cpu), "--host-cpus", *(str(c) for c in host_cpus),
        "--spawned-at", repr(time.time()),
    ]  # fmt: skip
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def end_to_end(rounds: list[dict], speed=speed_factor) -> tuple[dict, dict]:
    """The six end-to-end metrics and the sample counts behind them.

    Every time is divided by the host speed factor ``speed`` gives for the
    kernel timings taken beside it: a block's ops, wall and CPU time by the
    block's, a set-up by its own. ``speed=lambda _: 1.0`` gives the raw values.
    """
    blocks = [block for result in rounds for block in result["blocks"]]
    latencies = [
        [ms / speed(block["kernel_ms"]) for ms in block["latencies_ms"]] for block in blocks
    ]
    pooled = [ms for block in latencies for ms in block]
    setups = [result["setup_sample"] for result in rounds]
    metrics = {
        "latency_p50_ms": block_median(latencies),
        "latency_p90_ms": percentile(pooled, 90.0),
        "throughput_ops_s": len(pooled)
        / sum(block["wall_s"] / speed(block["kernel_ms"]) for block in blocks),
        "cpu_ms_per_op": 1e3
        * sum(block["cpu_s"] / speed(block["kernel_ms"]) for block in blocks)
        / len(pooled),
        "peak_rss_mb": max(result["peak_rss_mb"] for result in rounds),
        "setup_s": statistics.median(
            sample["seconds"] / speed(sample["kernel_ms"]) for sample in setups
        ),
    }
    counts = {"ops": len(pooled), "blocks": len(blocks), "setups": len(setups)}
    return metrics, counts


def per_layer(result: dict, units: dict[str, str]) -> dict:
    """Every per-layer metric of ``units`` (name -> unit), times and rates at
    the reference host speed; 0 for a layer the workload never enters."""
    layer_speed = speed_factor(result["layer_kernel_ms"])
    setup_speed = speed_factor(result["setup_sample"]["kernel_ms"])
    measured = {}
    for layers, speed in ((result["setup_layers"], setup_speed), (result["layers"], layer_speed)):
        for name, value in layers.items():
            scale = {"ms": 1.0 / speed, "1/s": speed}.get(units.get(name), 1.0)
            measured[name] = value * scale
    by_traced = {True: [], False: []}
    for block in result["blocks"]:
        speed = speed_factor(block["kernel_ms"])
        by_traced[block["traced"]].append([ms / speed for ms in block["latencies_ms"]])
    measured["trace.overhead_share"] = block_median(by_traced[True]) / block_median(
        by_traced[False]
    )
    return {name: measured.get(name, 0.0) for name in units}


def environment(seed: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        sha = ""
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        models = sorted(
            {line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")}
        )
    fingerprint = f"{platform.node()}|{platform.machine()}|{platform.release()}|{models}"
    return {
        "git_sha": sha or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "host": hashlib.sha256(fingerprint.encode()).hexdigest()[:12],
        "cpu": models,
        "loadavg_1m": os.getloadavg()[0],
        "seed": seed,
    }


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    names = [entry["name"] for entry in contract["workloads"]]
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    layer_units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=names, help="default: all, interleaved")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2

    started = time.perf_counter()
    selected = [args.workload] if args.workload else names
    deadline = started + RUN_DEADLINE_SECONDS * len(selected)
    env = environment(args.seed)
    print("# env", json.dumps(env))
    OUT_DIR.mkdir(exist_ok=True)
    rounds: dict[str, list[dict]] = {name: [] for name in selected}
    pattern = TRACE_PATTERN if args.trace else "U" * BLOCKS
    for round_index in range(1 if args.trace else ROUNDS):
        for name in selected:
            ops = block_ops(name, args.seconds)
            rounds[name].append(
                spawn_worker(name, args.seed, round_index, ops, pattern, deadline)
            )

    exit_code = 0
    for name in selected:
        blocks = [block for result in rounds[name] for block in result["blocks"]]
        attempted = sum(len(block["latencies_ms"]) for block in blocks)
        failed = sum(block["failed"] for block in blocks)
        failures = [f for result in rounds[name] for f in result["failures"]]
        kernel_ms = [ms for block in blocks for ms in block["kernel_ms"]]
        summary = {"workload": name, "sent": attempted, "succeeded": attempted - failed,
                   "failed": failed, "host_speed_factor": speed_factor(kernel_ms)}  # fmt: skip
        if args.trace:
            metrics = per_layer(rounds[name][0], layer_units)
            summary.update(rounds[name][0]["accounting"])
        else:
            metrics, counts = end_to_end(rounds[name])
            raw, _ = end_to_end(rounds[name], speed=lambda _: 1.0)
            summary.update(counts, raw=raw)
            summary["highest_percentile_with_10_beyond"] = highest_supported_percentile(
                counts["ops"]
            )
        for metric, value in metrics.items():
            print(f"{name} {metric} {value:.6g} {units[metric]}")
        for failure in failures[:20]:
            print(f"{name} FAILED {failure}")
        summary["wall_s"] = time.perf_counter() - started
        print("# summary", json.dumps(summary))
        record = {"env": env, "seconds": args.seconds, "summary": summary, "metrics": metrics,
                  "rounds": rounds[name]}  # fmt: skip
        with open(OUT_DIR / f"run-{name}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
            json.dump(record, handle)
        correct = not failures
        exit_code = exit_code or (0 if correct else 1)
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {
                        metric: {"value": value, "unit": units[metric]}
                        for metric, value in metrics.items()
                    },
                }
            )
        )
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
