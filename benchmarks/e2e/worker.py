"""One round of one workload in a fresh process: set up, warm up, run the
timed blocks with the reference kernel timed between them, check the outputs,
print one JSON line. Started by ``run.py``."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def run(workload, args) -> dict:
    from calibration import burst

    cpus = workload.cpus
    workload.setup()
    warmup, block_ops = workload.make_ops([args.block_ops] * len(args.pattern))
    first = workload.measure(warmup[0], traced=False)
    if first.error is not None:
        raise RuntimeError(f"first warm-up op failed: {first.error}")
    workload.started(args.spawned_at)
    result = {
        "workload": workload.name,
        "setup_sample": workload.setup_sample,
        "setup_layers": workload.setup_layers,
    }
    workload.run_block(warmup[1:], traced=False)
    blocks = []
    before = burst(cpus)
    for ops, flag in zip(block_ops, args.pattern):
        block = workload.run_block(ops, traced=flag == "T")
        after = burst(cpus)
        block.kernel_ms = before + after
        before = after
        blocks.append(block)
    # Read before the checks: they assess more plans and must not count.
    result["peak_rss_mb"] = workload.peak_rss_mb()
    records = [record for block in blocks for record in block.records]
    workload.check(records)
    traced = [r for b in blocks if b.traced for r in b.records if r.error is None]
    if traced:
        before = burst(cpus)
        result["layers"] = workload.layers(traced)
        # One host speed for every layer time: the traced blocks' and the
        # directly timed layers' kernel timings together.
        result["layer_kernel_ms"] = before + burst(cpus)
        for block in blocks:
            if block.traced:
                result["layer_kernel_ms"] += block.kernel_ms
        result["accounting"] = {
            "layers": workload.accounted,
            "layers_ms": sum(result["layers"][name] for name in workload.accounted),
            "traced_op_ms": workload.traced_op_ms(traced),
        }
        workload.recorder.write(args.spans)
    result["blocks"] = [
        {
            "traced": block.traced,
            "wall_s": block.wall_s,
            "cpu_s": block.cpu_s,
            "kernel_ms": block.kernel_ms,
            "latencies_ms": [1e3 * record.seconds for record in block.records],
            "failed": sum(record.error is not None for record in block.records),
        }
        for block in blocks
    ]
    result["failures"] = [r.error for r in records if r.error is not None]
    result["failures"] += workload.failures
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--block-ops", type=int, required=True)
    parser.add_argument("--pattern", required=True, help="one U or T per block")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--cpu", type=int, required=True, help="pin a workload that runs here")
    parser.add_argument("--host-cpus", type=int, nargs="+", required=True)
    parser.add_argument("--spans", help="where a traced round writes its spans")
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The host's vCPUs change speed one at a time: a workload that runs in this
    # process stays on the CPU the kernel is timed on, from its first import.
    os.sched_setaffinity(0, {args.cpu})
    start = time.perf_counter()
    import workloads

    imported_ms = 1e3 * (time.perf_counter() - start)
    cls = workloads.WORKLOADS[args.workload]
    cpus = [args.cpu] if cls.pinned else args.host_cpus
    os.sched_setaffinity(0, cpus)
    workload = cls(args.seed, args.round, cpus)
    workload.setup_layers["setup.import_ms"] = imported_ms
    try:
        result = run(workload, args)
    finally:
        workload.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
