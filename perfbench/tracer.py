"""In-memory span tracer that wraps the package's layer functions from outside.

Nothing under ``src/`` knows about tracing: ``install`` replaces public
functions at the module attributes through which the layers call each
other (``regions.enumerate_classes``, ``extremal.splu``, ...) and
``uninstall`` puts the originals back.

Calls made once per surface, grid, estimate or command become spans with
an id, a parent, a start, an end and their self time (duration minus the
time of wrapped calls nested inside).  Per-word calls (word traces and
per-float formatting) number in the tens of thousands per run, so they are
folded into one aggregate per (parent span, function) instead.

Only the process that created the tracer records.  Worker processes of a
pool inherit the wrapped functions through fork but pass straight through
to the originals, so a ``workers=2`` scan shows up as one
``regions.scan`` span whose self time is the whole pool wait.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time

#: Grid sizes reported by the per-size solver metrics.
GRID_SIZES = (32, 64, 128, 256)

#: The seven CLI subcommands, for the per-command self time of ``cli.main``.
COMMANDS = ("chart", "spectrum", "sigma", "scan", "critical", "corner", "modulus")


class Tracer:
    """Span and aggregate store for one process; the root span has id 0."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans = []  # dicts: id, parent, name, start, end, self, attrs
        self.aggregates = {}  # (parent span id, name) -> [calls, total, self, bytes]
        self._stack = [[0, 0.0]]  # frames: [span id or None, child time]
        self._patches = []
        self._next_id = 1

    # -- recording -----------------------------------------------------------

    def _parent_span(self) -> int:
        for span_id, _ in reversed(self._stack):
            if span_id is not None:
                return span_id
        return 0

    def call(self, name, fn, args, kwargs, fine=False, attrs=None):
        """Run fn(*args, **kwargs) inside a span (or an aggregate if fine)."""
        if os.getpid() != self.pid:
            return fn(*args, **kwargs)
        parent = self._parent_span()
        span_id = None
        if not fine:
            span_id = self._next_id
            self._next_id += 1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._stack[-1][1] += end - start
        duration = end - start
        own = duration - frame[1]
        extra = attrs(args, kwargs, result) if attrs else {}
        if fine:
            agg = self.aggregates.setdefault((parent, name), [0, 0.0, 0.0, 0])
            agg[0] += 1
            agg[1] += duration
            agg[2] += own
            agg[3] += extra.get("bytes", 0)
        else:
            self.spans.append(
                {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "self": own,
                    "attrs": extra,
                }
            )
        return result

    def span(self, name, fn, *args, attrs=None):
        """Record a span around a call the benchmark itself makes."""
        return self.call(name, fn, args, {}, attrs=attrs)

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr, name, fine=False, attrs=None, result=None):
        """Replace owner.attr by a recording wrapper until uninstall()."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            out = self.call(name, original, args, kwargs, fine=fine, attrs=attrs)
            return result(out) if result and os.getpid() == self.pid else out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: str):
        payload = {
            "spans": self.spans,
            "aggregates": [
                {"parent": p, "name": n, "calls": c, "total": t, "self": s, "bytes": b}
                for (p, n), (c, t, s, b) in self.aggregates.items()
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


class _TimedFactor:
    """SuperLU stand-in whose solve() is recorded as extremal.backsolve."""

    def __init__(self, tracer: Tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, rhs):
        return self._tracer.span("extremal.backsolve", self._lu.solve, rhs)


def install(tracer: Tracer):
    """Wrap every layer boundary of the package, at its import sites."""
    from holedtorus import cli, extremal, fuchsian, regions

    def enum_attrs(args, kwargs, out):
        return {"max_len": args[0], "classes": len(out)}

    for owner in (fuchsian, regions):
        tracer.wrap(owner, "enumerate_classes", "fuchsian.enumerate", attrs=enum_attrs)
    tracer.wrap(fuchsian, "word_trace", "fuchsian.trace", fine=True)
    tracer.wrap(regions, "geodesic_length", "fuchsian.geodesic", fine=True)
    for owner in (fuchsian, regions, cli):
        tracer.wrap(owner, "fn_to_rep", "fuchsian.rep")
    for owner in (fuchsian, cli):
        tracer.wrap(owner, "length_spectrum", "fuchsian.spectrum")

    def scan_attrs(args, kwargs, out):
        workers = kwargs.get("workers", args[5] if len(args) > 5 else 1)
        return {"workers": workers, "cells": len(out.rows)}

    for owner in (regions, cli):
        tracer.wrap(owner, "sigma_membership", "regions.sigma")
        tracer.wrap(owner, "scan_sigma_slice", "regions.scan", attrs=scan_attrs)
        tracer.wrap(owner, "corner_certificate", "regions.corner")
        tracer.wrap(owner, "validate_descriptor", "charts.validate")

    def estimate_attrs(args, kwargs, out):
        return {"converged": bool(out.converged)}

    for owner in (extremal, cli):
        tracer.wrap(
            owner, "slit_torus_extremal_length", "extremal.estimate", attrs=estimate_attrs
        )
    tracer.wrap(extremal, "lambda_triple_slit", "extremal.triple")
    tracer.wrap(
        extremal, "_solve_grid", "extremal.solve", attrs=lambda a, k, o: {"n": a[3]}
    )
    tracer.wrap(
        extremal,
        "splu",
        "extremal.factor",
        attrs=lambda a, k, o: {"unknowns": a[0].shape[0]},
        result=lambda lu: _TimedFactor(tracer, lu),
    )

    def text_bytes(args, kwargs, out):
        return {"bytes": len(out)}

    tracer.wrap(cli, "dumps17", "serialize.dumps", attrs=text_bytes)
    tracer.wrap(cli, "fmt17", "serialize.fmt", fine=True, attrs=text_bytes)
    tracer.wrap(cli, "main", "cli.main", attrs=lambda a, k, o: {"command": a[0][0]})


# -- reduction to per-layer metrics ---------------------------------------------


def _m(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def layer_metrics(tracer: Tracer, wall_s: float, cache_delta, overhead_ratio: float):
    """Per-layer metrics of one traced phase, each with its sample count.

    cache_delta is (hits, misses) of ``regions._class_lengths`` over the
    phase.  Times are totals over the phase; calls are the samples.
    """
    spans = tracer.spans

    def named(name):
        return [s for s in spans if s["name"] == name]

    def self_sum(rows):
        return sum(s["self"] for s in rows)

    def agg(name):
        rows = [v for (_, n), v in tracer.aggregates.items() if n == name]
        return (
            sum(r[0] for r in rows),
            sum(r[2] for r in rows),
            sum(r[3] for r in rows),
        )

    out = {}
    enum = named("fuchsian.enumerate")
    out["fuchsian.enumerate.calls"] = _m(len(enum), "count", len(enum))
    out["fuchsian.enumerate.self_s"] = _m(self_sum(enum), "s", len(enum))
    out["fuchsian.enumerate.classes"] = _m(
        sum(s["attrs"]["classes"] for s in enum), "count", len(enum)
    )
    distinct = len({s["attrs"]["max_len"] for s in enum})
    out["fuchsian.enumerate.distinct_ratio"] = _m(
        distinct / len(enum) if enum else 0.0, "ratio", len(enum)
    )
    traces, trace_self, _ = agg("fuchsian.trace")
    _, geo_self, _ = agg("fuchsian.geodesic")
    out["fuchsian.trace.calls"] = _m(traces, "count", traces)
    out["fuchsian.trace.self_s"] = _m(trace_self + geo_self, "s", traces)
    rep = named("fuchsian.rep")
    out["fuchsian.rep.calls"] = _m(len(rep), "count", len(rep))
    out["fuchsian.rep.self_s"] = _m(self_sum(rep), "s", len(rep))
    spec = named("fuchsian.spectrum")
    out["fuchsian.spectrum.self_s"] = _m(self_sum(spec), "s", len(spec))

    sigma = named("regions.sigma")
    out["regions.sigma.calls"] = _m(len(sigma), "count", len(sigma))
    out["regions.sigma.self_s"] = _m(self_sum(sigma), "s", len(sigma))
    hits, misses = cache_delta
    lookups = hits + misses
    out["regions.class_lengths.hit_ratio"] = _m(
        hits / lookups if lookups else 0.0, "ratio", lookups
    )
    scan = named("regions.scan")
    serial = [s for s in scan if s["attrs"]["workers"] <= 1]
    pool = [s for s in scan if s["attrs"]["workers"] > 1]
    out["regions.scan.calls"] = _m(len(scan), "count", len(scan))
    out["regions.scan.cells"] = _m(
        sum(s["attrs"]["cells"] for s in scan), "count", len(scan)
    )
    out["regions.scan.self_s"] = _m(self_sum(scan), "s", len(scan))
    out["regions.scan.serial_s"] = _m(
        sum(s["end"] - s["start"] for s in serial), "s", len(serial)
    )
    out["regions.scan.pool_s"] = _m(
        sum(s["end"] - s["start"] for s in pool), "s", len(pool)
    )
    corner = named("regions.corner")
    out["regions.corner.self_s"] = _m(self_sum(corner), "s", len(corner))

    solves = named("extremal.solve")
    for n in GRID_SIZES:
        grid = [s for s in solves if s["attrs"]["n"] == n]
        ids = {s["id"] for s in grid}
        factor = [s for s in named("extremal.factor") if s["parent"] in ids]
        back = [s for s in named("extremal.backsolve") if s["parent"] in ids]
        solve_s = sum(s["end"] - s["start"] for s in grid)
        factor_s = sum(s["end"] - s["start"] for s in factor)
        back_s = sum(s["end"] - s["start"] for s in back)
        out[f"extremal.solve_s.n{n}"] = _m(solve_s, "s", len(grid))
        out[f"extremal.factor_s.n{n}"] = _m(factor_s, "s", len(factor))
        out[f"extremal.backsolve_s.n{n}"] = _m(back_s, "s", len(back))
        out[f"extremal.assemble_s.n{n}"] = _m(
            solve_s - factor_s - back_s, "s", len(grid)
        )
    factors = named("extremal.factor")
    out["extremal.solves"] = _m(len(solves), "count", len(solves))
    out["extremal.unknowns"] = _m(
        sum(s["attrs"]["unknowns"] for s in factors), "count", len(factors)
    )
    estimates = named("extremal.estimate")
    converged = sum(s["attrs"]["converged"] for s in estimates)
    out["extremal.converged_ratio"] = _m(
        converged / len(estimates) if estimates else 0.0, "ratio", len(estimates)
    )

    interp = [s["end"] - s["start"] for s in named("cli.interpreter")]
    imports = [s["end"] - s["start"] for s in named("cli.import")]
    out["cli.interpreter_s"] = _m(
        statistics.median(interp) if interp else 0.0, "s", len(interp)
    )
    # the import probe starts an interpreter too; its median start is removed
    out["cli.import_s"] = _m(
        statistics.median(imports) - statistics.median(interp) if imports else 0.0,
        "s",
        len(imports),
    )
    mains = named("cli.main")
    for command in COMMANDS:
        rows = [s for s in mains if s["attrs"]["command"] == command]
        out[f"cli.main.self_s.{command}"] = _m(self_sum(rows), "s", len(rows))
    validate = named("charts.validate")
    out["charts.validate.calls"] = _m(len(validate), "count", len(validate))
    out["charts.validate.self_s"] = _m(self_sum(validate), "s", len(validate))
    dumps = named("serialize.dumps")
    fmt_calls, fmt_self, fmt_bytes = agg("serialize.fmt")
    calls = len(dumps) + fmt_calls
    out["serialize.calls"] = _m(calls, "count", calls)
    out["serialize.self_s"] = _m(self_sum(dumps) + fmt_self, "s", calls)
    out["serialize.bytes"] = _m(
        sum(s["attrs"]["bytes"] for s in dumps) + fmt_bytes, "B", calls
    )

    # every span and aggregate is named after its layer (a package module)
    layer_self = self_sum(spans) + sum(v[2] for v in tracer.aggregates.values())
    out["trace.wall_s"] = _m(wall_s, "s", 1)
    out["trace.layer_self_share"] = _m(
        layer_self / wall_s if wall_s > 0 else 0.0, "ratio", len(spans)
    )
    out["trace.overhead_ratio"] = _m(overhead_ratio, "ratio", 2)
    return out

