"""Benchmark of the holedtorus package: one workload, one seed, one process.

Run from the root of a checkout (the directory holding ``src/``):

    python3 perfbench/run.py --workload scan_plane --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload runs untraced for ``--seconds`` and the
end-to-end metrics are printed, in seconds corrected for the host's
speed (see pace.py).  With ``--trace 1`` a fixed number of cycles runs with
every layer boundary wrapped (see tracer.py), alternating with as many
unwrapped cycles, and the per-layer metrics are printed together with the
traced/untraced ratio.  Outputs are checked outside the timed calls in
both modes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
repeats every metric with its sample count and adds the workload's own
timings and the environment.  Exit code 2 without a result means the
package sources were not found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from pace import Timed  # noqa: E402
from workloads import WORKLOADS, Record  # noqa: E402

#: Set-up probes per benchmark run, each in a fresh interpreter; the
#: run's own set-up is one more sample.
SETUP_PROBES = 8

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """Cap BLAS threads at nproc before numpy loads; children inherit it."""
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        wanted = nproc()
        if current.isdigit() and 0 < int(current) < wanted:
            wanted = int(current)
        os.environ[var] = str(wanted)


def setup(name: str, seed: int, workdir: str, root: str):
    """Import the package and generate the first cycle of inputs.

    Returns the workload, the first cycle and the corrected set-up seconds.
    """
    with Timed() as timer:
        import holedtorus.cli  # noqa: F401  (pulls in every layer)

        os.makedirs(workdir, exist_ok=True)
        workload = WORKLOADS[name](seed, workdir, root)
        first = workload.cycle(0)
    return workload, first, timer.seconds


def run_cycle(workload, ops, pace=False, inline=False):
    """Run one cycle's operations in order, one at a time; returns their records.

    With `pace`, each record's seconds are corrected for the host's speed
    (see pace.Timed).  With `inline`, each output is checked right after its
    timed call and reduced to what detail() needs, so results do not pile
    up in the heap and make garbage collection slower as the run goes on.
    """
    records = []
    for op in ops:
        result, error = None, None
        with Timed(pace, op.local) as timer:
            try:
                result = workload.run(op, timer)
            except Exception:  # a raising op counts as failed; the loop goes on
                error = traceback.format_exc(limit=3)
        record = Record(op, timer.seconds, timer.wall, result, error)
        records.append(record)
        if inline:
            check_op(workload, record)
            record.result = workload.light(record.result)
    return records


def check_op(workload, record):
    if record.error is not None:
        record.failures.append(record.error)
        return
    try:
        record.failures.extend(workload.check(record))
    except Exception:
        record.failures.append(traceback.format_exc(limit=3))


def check_run(workload, records):
    """Run the whole-run checks; returns the number of failed ops."""
    try:
        workload.check_run(records)
    except Exception:
        records[0].failures.append(traceback.format_exc(limit=3))
    return sum(1 for r in records if r.failures)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def setup_probe(name: str, seed: int, root: str) -> float:
    """Corrected set-up seconds in a fresh interpreter, timed inside it."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe"]
        + ["--workload", name, "--seed", str(seed)],
        cwd=root,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "machine": platform.machine(),
    }


def untraced(workload, first, seconds, name, seed, root, own_setup):
    """Closed loop over cycles for `seconds`, then the checks and set-up probes.

    A cycle starts only if, at the mean pace so far, it would end in time
    (the first always runs).  Throughput is work units over the summed
    corrected seconds of the operations.
    """
    records = []
    began = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - began
        if index and elapsed * (index + 1) / index > seconds:
            break
        ops = first if index == 0 else workload.cycle(index)
        records += run_cycle(workload, ops, pace=True, inline=True)
        index += 1
    rss = peak_rss_mb()
    failed = check_run(workload, records)
    setups = [own_setup] + [setup_probe(name, seed, root) for _ in range(SETUP_PROBES)]
    units = sum(r.op.units for r in records)
    metrics = {
        "work_per_s": {
            "value": units / sum(r.seconds for r in records),
            "unit": "1/s",
            "samples": len(records),
        },
        "setup_s": {"value": statistics.median(setups), "unit": "s", "samples": len(setups)},
        "peak_rss_mb": {"value": rss, "unit": "MB", "samples": 1},
    }
    passed = [r for r in records if not r.failures]
    detail = dict(workload.detail(passed)) if passed else {}
    detail["wall_work_per_s"] = {
        "value": units / sum(r.wall for r in records),
        "unit": "1/s",
        "samples": len(records),
    }
    detail["work_unit"] = workload.unit
    return records, failed, metrics, detail


def traced(workload, first, name, seed):
    """Alternate traced and untraced cycles, so both see the same drift.

    The overhead ratio compares the two halves' seconds corrected for the
    host's speed, read around each cycle (see pace.Timed); the readings run
    with the wrappers off.
    """
    from tracer import Tracer, install, layer_metrics

    workload.in_process = True
    cache = workload.regions._class_lengths
    tracer = Tracer()
    records, hits, misses = [], 0, 0
    wall, halves = 0.0, [0.0, 0.0]  # traced wall; untraced and traced seconds
    for index in range(2 * workload.trace_cycles):
        on = index % 2 == 0
        ops = first if index == 0 else workload.cycle(index)
        with Timed(local=False) as timer:
            if on:
                install(tracer)
                workload.tracer = tracer
                before = cache.cache_info()
                start = time.perf_counter()
            records += run_cycle(workload, ops)
            if on:
                wall += time.perf_counter() - start
                after = cache.cache_info()
                tracer.uninstall()
                workload.tracer = None
                hits += after.hits - before.hits
                misses += after.misses - before.misses
        halves[on] += timer.seconds
    for record in records:
        check_op(workload, record)
    failed = check_run(workload, records)
    metrics = layer_metrics(tracer, wall, (hits, misses), halves[True] / halves[False])
    out = os.path.join(HERE, "out")
    tracer.dump(os.path.join(out, f"trace-{name}-{seed}.json"))
    detail = {
        "untraced_s": {"value": halves[False], "unit": "s", "samples": workload.trace_cycles}
    }
    return records, failed, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "holedtorus", "__init__.py")):
        print(f"perfbench: no package sources under {src}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, src)

    workdir = os.path.join(HERE, "out", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        workload, first, own_setup = setup(args.workload, args.seed, workdir, root)
        if args.setup_probe:
            print(repr(own_setup))
            return 0
        if args.trace:
            records, failed, metrics, detail = traced(
                workload, first, args.workload, args.seed
            )
        else:
            records, failed, metrics, detail = untraced(
                workload, first, args.seconds, args.workload, args.seed, root, own_setup
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for record in records:
        for failure in record.failures:
            print(f"FAILED {record.op.kind} {record.op.args!r}: {failure}", file=sys.stderr)
    detail["fail_ratio"] = {"value": failed / len(records), "unit": "ratio"}
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
    }
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "metrics": metrics,
                "detail": detail,
                "environment": environment(),
            }
        )
    )
    result["metrics"] = {
        key: {"value": m["value"], "unit": m["unit"]} for key, m in metrics.items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
