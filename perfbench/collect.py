"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/out/summary.json \
        [--trace-seed 1]

Each run is `perfbench/run.py` in its own process, from the checkout
root, for every workload in BENCHMARK.json and with its run_seconds.
For every workload and end-to-end metric the summary holds the
per-run values, their median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median.
With --trace-seed, one traced run per workload adds the per-layer metrics
with their sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
        + ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        check=True,
    )
    lines = proc.stdout.strip().splitlines()
    detailed, result = json.loads(lines[-2]), json.loads(lines[-1])
    return dict(detailed, correct=result["correct"], attempted=result["attempted"],
                failed=result["failed"])


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        config = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    summary = {}
    seconds = config["run_seconds"]
    for workload in (w["name"] for w in config["workloads"]):
        runs = [bench(workload, s, seconds, 0) for s in seeds(args.seeds)]
        entry = {
            "runs": len(runs),
            "seeds": seeds(args.seeds),
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "samples_per_run": {
                k: [r["metrics"][k]["samples"] for r in runs] for k in runs[0]["metrics"]
            },
            "end_to_end": {
                k: spread([r["metrics"][k]["value"] for r in runs])
                for k in runs[0]["metrics"]
            },
            "workload_timings": {
                k: spread([r["detail"][k]["value"] for r in runs])
                for k, v in runs[0]["detail"].items()
                if isinstance(v, dict) and k != "fail_ratio"
            },
            "environment": runs[0]["environment"],
        }
        if args.trace_seed is not None:
            traced = bench(workload, args.trace_seed, seconds, 1)
            entry["traced"] = {
                "seed": args.trace_seed,
                "correct": traced["correct"],
                "per_layer": traced["metrics"],
            }
        summary[workload] = entry
        print(workload, {k: round(v["spread"], 4) for k, v in entry["end_to_end"].items()},
              "correct" if entry["all_correct"] else "FAILED", flush=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
