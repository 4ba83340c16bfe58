"""The four benchmark workloads: seeded inputs, the call under test, checks.

Every workload is a closed loop with one caller in one process.  Inputs
come in cycles; cycle i is generated from (seed, i) alone, and every
cycle holds the same mix of operation kinds in a seeded order, so the
medians and tails do not depend on which seed a run drew.

Why the inputs are always fresh: ``regions._class_lengths`` is an
``lru_cache`` keyed on float coordinates.  Replaying one surface would
time cache hits, while users pay enumeration and matrix-representation
cost on every call with a new surface.  So no input repeats within a run,
nothing warms the cache, and each run is its own process; the seed is a
command argument and the library receives only the generated inputs.
The golden CLI configurations are the exception: they repeat, but each
runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

#: Surfaces for point_queries and cli_cold come from the box that the
#: acceptance gate's criterion 11 samples.
FN_BOX = {"l": (0.5, 4.0), "lp": (0.1, 3.0), "theta": (-2.0, 2.0)}

MARGIN_TOL = 1e-9

#: One pool size for the parallel scans: the reference machine's nproc.
POOL_WORKERS = 2


@dataclass
class Op:
    kind: str
    args: tuple
    units: int = 1
    #: False when the work runs in other processes (a pool, a command)
    local: bool = True


@dataclass
class Record:
    op: Op
    seconds: float  # wall time corrected for the host's speed (pace.Timed)
    wall: float
    result: object = None
    error: str | None = None
    failures: list = field(default_factory=list)


def _rng(seed: int, cycle: int) -> random.Random:
    return random.Random(f"{seed}/{cycle}")


class Workload:
    name = ""
    unit = "ops"
    #: Cycles timed with tracing on (and again with it off) in a traced run.
    trace_cycles = 1

    def __init__(self, seed: int, workdir: str, root: str):
        from holedtorus import charts, cli, extremal, fuchsian, regions

        self.seed = seed
        self.workdir = workdir
        self.root = root
        self.charts, self.cli, self.extremal = charts, cli, extremal
        self.fuchsian, self.regions = fuchsian, regions
        self.tracer = None

    def fn_point(self, rng: random.Random):
        return self.charts.FNChartPoint(*(rng.uniform(*FN_BOX[k]) for k in FN_BOX))

    def cycle(self, index: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op, timer):
        """Run one operation inside `timer` (a pace.Timed)."""
        raise NotImplementedError

    def check(self, record: Record) -> list[str]:
        """Failures of one operation's output; runs outside the timed call."""
        return []

    def check_run(self, records: list[Record]):
        """Checks that need more than one operation; append to records."""

    def light(self, result):
        """What detail() still needs of a checked result."""
        return None

    def detail(self, records: list[Record]) -> dict:
        """Latencies over the (non-empty) passing records.

        Workloads with latencies of their own name override this.
        """
        ms = summary([1e3 * r.seconds for r in records], "ms")
        return {"op_ms_p50": ms["p50"], "op_ms_tail": ms["tail"]}


class ScanPlane(Workload):
    """regions.scan_sigma_slice on 9x9 grids through a fresh Y0.

    Every cell shares one Y0 and one N, so this is where reuse, batching
    and the process pool show; the extremal module stays idle.  One
    operation is one grid at N = 6; successive grids alternate workers=1
    and workers=2, each through its own Y0.
    """

    name = "scan_plane"
    unit = "cells"
    trace_cycles = 3
    MAX_LEN = 6
    #: Half-widths of the grids; with 9 nodes every coordinate is dyadic,
    #: so the middle node equals Y0 exactly.
    HALF = {"l": 0.5, "lp": 0.375, "theta": 0.5}
    COUNT = 9
    #: (record, grid, rows) of the first checked serial grid, for check_run
    serial = None

    def _grid(self, rng, workers):
        y0 = self.charts.FNChartPoint(
            1.0 + rng.randint(0, 128) / 64,
            0.5 + rng.randint(0, 96) / 64,
            -1.0 + rng.randint(0, 128) / 64,
        )
        plane = rng.choice(sorted(self.regions.SCAN_PLANES))
        ranges = tuple(
            (getattr(y0, c) - self.HALF[c], getattr(y0, c) + self.HALF[c], self.COUNT)
            for c in self.regions.SCAN_PLANES[plane]
        )
        return y0, plane, ranges, workers

    def cycle(self, index):
        rng = _rng(self.seed, index)
        grids = (self._grid(rng, 1), self._grid(rng, POOL_WORKERS))
        return [
            Op(f"workers={grid[3]}", grid, self.COUNT**2, local=grid[3] == 1)
            for grid in grids
        ]

    def scan(self, grid, workers):
        y0, plane, ranges, _ = grid
        return self.regions.scan_sigma_slice(
            y0, plane, ranges, max_len=self.MAX_LEN, workers=workers
        )

    def run(self, op, timer):
        return self.scan(op.args, op.args[3])

    def check(self, record):
        failures = []
        (y0, plane, _, workers), grid = record.op.args, record.result
        centre = grid.rows[len(grid.rows) // 2]
        want = tuple(getattr(y0, c) for c in self.regions.SCAN_PLANES[plane])
        if (centre.coord1, centre.coord2) != want:
            failures.append(f"middle cell {centre[:2]} is not Y0 {want}")
        elif centre.status != "in_up_to_N" or centre.min_margin != 0.0:
            failures.append(f"Y0 cell reads {centre.status} {centre.min_margin!r}")
        if any(math.isnan(row.min_margin) for row in grid.rows):
            failures.append("NaN margin")
        if self.serial is None and workers == 1:
            self.serial = (record, record.op.args, grid.rows)
        return failures

    def check_run(self, records):
        # the run's first serial grid is computed again with the pool
        if self.serial is None:
            return
        record, grid, rows = self.serial
        if self.scan(grid, POOL_WORKERS).rows != rows:
            record.failures.append(f"rows differ between workers=1 and {POOL_WORKERS}")


class PointQueries(Workload):
    """Independent queries, none sharing a surface with another.

    Per-call cost dominates: enumeration, fn_to_rep, and N=8 at the tail.
    Surface-keyed caches never hit, so an optimisation that helps
    scan_plane through sharing should change nothing here.
    """

    name = "point_queries"
    unit = "queries"
    trace_cycles = 8
    #: One cycle: seven sigma queries (N drawn 4..8, three at N=6 so the
    #: median sits inside one kind), one spectrum, one corner certificate.
    DECK = (
        ("sigma", 4),
        ("sigma", 5),
        ("sigma", 6),
        ("sigma", 6),
        ("sigma", 6),
        ("sigma", 7),
        ("sigma", 8),
        ("spectrum", 7),
        ("corner", 4),
    )

    def cycle(self, index):
        rng = _rng(self.seed, index)
        deck = list(self.DECK)
        rng.shuffle(deck)
        ops = []
        for kind, max_len in deck:
            if kind == "sigma":
                args = (self.fn_point(rng), self.fn_point(rng), max_len)
            else:
                args = (self.fn_point(rng), max_len)
            ops.append(Op(kind, args))
        return ops

    def run(self, op, timer):
        if op.kind == "sigma":
            x, y0, max_len = op.args
            return self.regions.sigma_membership(x, y0, max_len)
        point, max_len = op.args
        if op.kind == "spectrum":
            return self.fuchsian.length_spectrum(self.fuchsian.fn_to_rep(point), max_len)
        return self.regions.corner_certificate(point, 1e-3, max_len)

    def check(self, record):
        op, out = record.op, record.result
        if op.kind == "sigma":
            return self._check_sigma(op.args[1], out)
        if op.kind == "spectrum":
            point = op.args[0]
            lengths = {e.word: e.length for e in out}
            failures = []
            for word, want in (("u", point.l), ("uvUV", point.lp)):
                if not abs(lengths[word] - want) <= 1e-9 * want:
                    failures.append(f"l({word}) = {lengths[word]!r}, want {want!r}")
            return failures
        # Lowering l (lp) moves the u (uvUV) margin by exactly -eps, which
        # `independent` certifies.  The probe's witness is the shortest
        # violated class on Y0: u and uvUV only where no shorter class is
        # also violated, which fails on about half of FN_BOX.
        failures = [] if out.independent else ["corner constraints not independent"]
        for probe in (out.probes[0], out.probes[2]):
            if probe.status != "out":
                failures.append(f"lowering {probe.coordinate} stays in")
            failures += self._check_sigma(op.args[0], probe.verdict)
        return failures

    def _check_sigma(self, y0, verdict):
        margins = dict(verdict.margins)
        if any(math.isnan(m) for m in margins.values()):
            return ["NaN margin"]
        violators = [w for w, m in margins.items() if m < -MARGIN_TOL]
        if verdict.status == "in_up_to_N":
            return [f"in_up_to_N with violators {violators[:3]}"] if violators else []
        w = verdict.witness
        if w not in violators:
            return [f"witness {w} has margin {margins.get(w)!r}"]
        rep = self.fuchsian.fn_to_rep(y0)
        ly = self.fuchsian.geodesic_length(rep, w)
        shorter = [
            v for v in violators if self.fuchsian.geodesic_length(rep, v) < ly - 1e-12
        ]
        return [f"witness {w} is not shortest on Y0: {shorter[:3]}"] if shorter else []

    def detail(self, records):
        ms = summary([1e3 * r.seconds for r in records], "ms")
        return {"query_ms_p50": ms["p50"], "query_ms_tail": ms["tail"]}


class SlitSolver(Workload):
    """The FEM extremal-length solver at seeded slit-chart points.

    The only workload that uses extremal; fuchsian and regions stay idle.
    Its two grid sizes are where a faster solver must show.
    """

    name = "slit_solver"
    unit = "points"
    trace_cycles = 3
    #: Slit lengths stop at 0.3: from about 0.36 on, the class-b and aB
    #: estimates at n = 128 with 3 levels miss the 0.5 % convergence test
    #: near tau = 0.5 + 0.6i, and a non-converged solve counts as failed.
    S_MAX = 0.3

    def cycle(self, index):
        rng = _rng(self.seed, index)
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 2.0))
        s = rng.uniform(0.0, self.S_MAX)
        cls = rng.choice(("a", "b", "aB"))
        return [Op("point", (tau, s, cls))]

    def run(self, op, timer):
        tau, s, cls = op.args
        t0 = perf_counter()
        triple = self.extremal.lambda_triple_slit(tau, s, 128, levels=3)
        t1 = perf_counter()
        modulus = self.extremal.slit_torus_extremal_length(tau, s, cls, 256, levels=3)
        t2 = perf_counter()
        return triple, modulus, t1 - t0, t2 - t1

    def light(self, result):
        return result[-2:]

    def check(self, record):
        tau, s, cls = record.op.args
        triple, modulus, _, _ = record.result
        failures = []
        if not (triple.converged and modulus.converged):
            failures.append("not converged")
        exact_a = 1.0 / tau.imag
        a_values = [triple.triple[0]] + ([modulus.estimate] if cls == "a" else [])
        if any(abs(v - exact_a) > 1e-2 * exact_a for v in a_values):
            failures.append(f"class a {a_values} vs 1/Im tau {exact_a!r}")
        # 1e-12 absorbs round-off where s is below one coarse cell and the
        # error indicator is exactly 0
        if not triple.q_plus_4 <= 3.0 * triple.error_indicator + 1e-12:
            failures.append(f"Q + 4 = {triple.q_plus_4!r} above 3 error indicators")
        return failures

    def detail(self, records):
        # the two calls' wall times, corrected by their operation's factor
        triple = [r.result[-2] * r.seconds / r.wall for r in records]
        modulus = [r.result[-1] * r.seconds / r.wall for r in records]
        return {
            "triple128_s_p50": summary(triple, "s")["p50"],
            "modulus256_s_p50": summary(modulus, "s")["p50"],
        }


class CliCold(Workload):
    """Each of the seven subcommands as a fresh holedtorus.cli process.

    Interpreter start, imports, argument parsing and serialize make up
    most of the time; two commands are the golden configurations.  The
    module is started through pace.py, which samples the host's pace in
    the command's process.
    In a traced run the command runs in-process through cli.main instead,
    next to a cold `python -c pass` and a cold `import holedtorus.cli`.
    """

    name = "cli_cold"
    unit = "commands"
    trace_cycles = 2
    #: Run commands through cli.main in this process (traced runs only).
    in_process = False
    GOLDEN_SCAN = (
        ["scan", "--y0", "tests/data/y0.json", "--plane", "l-lp"]
        + ["--ranges", "1.6:2.4:9,0.6:1.4:9", "--max-word-len", "6"],
        "tests/data/scan_golden.csv",
    )
    GOLDEN_MODULUS = (
        ["modulus", "--input", "tests/data/slit_i_half.json", "--cls", "b"]
        + ["--grid-n", "128", "--levels", "3"],
        "tests/data/modulus_golden.json",
    )

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p
        )
        self.rel = os.path.relpath(workdir, root)
        self.pending = []  # (record, cold output bytes) awaiting check_run
        self.launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pace.py")

    def _descriptor(self, index, name, payload):
        path = os.path.join(self.rel, f"c{index}_{name}.json")
        with open(os.path.join(self.root, path), "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return path

    def _fn(self, rng):
        p = self.fn_point(rng)
        return {"chart": "fn", "l": p.l, "lp": p.lp, "theta": p.theta}

    def _slit(self, rng):
        return {
            "chart": "slit",
            "tau": [rng.uniform(-0.5, 0.5), rng.uniform(0.6, 2.0)],
            "s": rng.uniform(0.0, 0.6),
        }

    def cycle(self, index):
        rng = _rng(self.seed, index)

        def desc(name, payload):
            return self._descriptor(index, name, payload)

        def out(command):
            return ["--out", os.path.join(self.rel, f"c{index}_{command}.out")]

        commands = [
            ["chart", "--input", desc("chart", rng.choice((self._fn, self._slit))(rng))],
            ["spectrum", "--input", desc("spectrum", self._fn(rng))]
            + ["--max-word-len", "6"],
            ["sigma", "--input", desc("sigma_x", self._fn(rng))]
            + ["--y0", desc("sigma_y0", self._fn(rng)), "--max-word-len", "6"],
            list(self.GOLDEN_SCAN[0]),
            ["critical", "--input", desc("critical", rng.choice((self._fn, self._slit))(rng))],
            ["corner", "--y0", desc("corner", self._fn(rng)), "--eps", "0.001"],
            list(self.GOLDEN_MODULUS[0]),
        ]
        golden = {"scan": self.GOLDEN_SCAN[1], "modulus": self.GOLDEN_MODULUS[1]}
        return [
            Op(argv[0], (argv + out(argv[0]), golden.get(argv[0])), local=self.in_process)
            for argv in commands
        ]

    def _cold(self, *argv):
        return subprocess.run(
            [sys.executable, *argv],
            cwd=self.root,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            check=False,
        )

    def run(self, op, timer):
        argv = op.args[0]
        if not self.in_process:
            # pace.py runs the module as `-m` would, sampling the host's
            # pace inside the command's own process
            readings = os.path.join(self.workdir, "pace.json")
            proc = self._cold(self.launcher, readings, "holedtorus.cli", *argv)
            if proc.returncode:
                raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr[-300:]!r}")
            with open(readings, encoding="utf-8") as handle:
                child = json.load(handle)
            timer.merge(child["readings"], child["spent"])
            return proc.returncode
        probes = (("cli.interpreter", "pass"), ("cli.import", "import holedtorus.cli"))
        for name, code in probes:
            if self.tracer:
                self.tracer.span(name, self._cold, "-c", code)
            else:
                self._cold("-c", code)
        return self.cli.main(argv)

    def _output(self, argv):
        with open(os.path.join(self.root, argv[-1]), "rb") as handle:
            return handle.read()

    def check(self, record):
        argv, golden = record.op.args
        if record.result != 0:
            return [f"exit code {record.result}"]
        got = self._output(argv)
        if golden is None:
            # compared with cli.main in check_run, after peak RSS is read
            self.pending.append((record, got))
            return []
        with open(os.path.join(self.root, golden), "rb") as handle:
            want = handle.read()
        return [] if got == want else [f"differs from {golden}"]

    def check_run(self, records):
        for record, got in self.pending:
            argv = record.op.args[0]
            if self.cli.main(argv) != 0 or self._output(argv) != got:
                record.failures.append("differs from the in-process cli.main output")
        self.pending.clear()

    def detail(self, records):
        seconds = [r.seconds for r in records]
        s = summary(seconds, "s")
        return {"cmd_s_p50": s["p50"], "cmd_s_tail": s["tail"]}


WORKLOADS = {w.name: w for w in (ScanPlane, PointQueries, SlitSolver, CliCold)}


def summary(values, unit):
    """Median and tail of a sample, each with its sample count.

    The tail is the highest percentile with at least ten samples beyond
    it: the 11th largest value.  Below 11 samples no such percentile
    exists and the maximum stands in, with zero samples beyond.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        empty = {"value": float("nan"), "unit": unit, "samples": 0}
        return {"p50": empty, "tail": dict(empty, percentile=100.0, beyond=0)}
    mid = n // 2
    p50 = xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2.0
    k = n - 11 if n >= 11 else n - 1
    return {
        "p50": {"value": p50, "unit": unit, "samples": n},
        "tail": {
            "value": xs[k],
            "unit": unit,
            "samples": n,
            "percentile": 100.0 * (k + 1) / n,
            "beyond": n - 1 - k,
        },
    }
