"""Command-line interface over the chart, spectrum, solver and region tools.

Commands read surface descriptors from JSON files and write a single
JSON or CSV report.  Reports embed the tool version and the complete
effective configuration, never a timestamp, so a repeated run produces
byte-identical output.  Exit codes: 0 success, 1 numeric failure
(elliptic trace, overflow or other non-finite value, non-converged
solve), 2 invalid input.

The module imports charts and serialize only, and each command imports
the library module it runs: `chart`, `critical`, `--help` and argument
errors load no numpy, `spectrum`, `sigma`, `scan` and `corner` load
numpy, and only `modulus` loads the solver; no command loads scipy.
Every public name of the package resolves here too
(cli.sigma_membership, ...): the package's loader finds it in its
module's __all__ on first access.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .charts import (
    BOUNDARY_TOL,
    CURVE_CLASSES,
    MARGIN_TOL,
    SCAN_PLANES,
    DescriptorError,
    DescriptorReport,
    EllipticTraceError,
    FNChartPoint,
    _critical,
    _strips,
    descriptor_from_json,
    descriptor_to_json,
    eigen_split,
    q_form,
    region_membership,
    validate_descriptor,
)
from .serialize import dumps17, fmt17

TOOL = "holedtorus"

#: Parsed names that are not options a report echoes in its config.
_NOT_CONFIG = ("command", "out", "func")


def _read_descriptor(path: str, tol: float = BOUNDARY_TOL) -> DescriptorReport:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"descriptor is not valid JSON: {exc}") from exc
    return validate_descriptor(descriptor_from_json(payload), tol=tol)


def _fn_point(path: str, role: str) -> FNChartPoint:
    desc = _read_descriptor(path).descriptor
    if desc.chart != "fn":
        raise DescriptorError(f"{role} must be an fn-chart descriptor, got {desc.chart!r}")
    return FNChartPoint(desc.l, desc.lp, desc.theta)


def _write(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _config_value(value) -> str:
    if isinstance(value, float):
        return fmt17(value)
    return str(value)


def _config(args) -> dict:
    """The subcommand's options in declaration order, without --out."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}


def _write_json(args, result: dict):
    report = {
        "tool": TOOL,
        "version": __version__,
        "command": args.command,
        "config": _config(args),
        "result": result,
    }
    _write(args.out, dumps17(report) + "\n")


def _write_csv(args, header: str, rows):
    config = " ".join(f"{k}={_config_value(v)}" for k, v in _config(args).items())
    lines = [
        f"# tool: {TOOL} {__version__}",
        f"# command: {args.command}",
        f"# config: {config}",
        header,
    ]
    lines.extend(rows)
    _write(args.out, "\n".join(lines) + "\n")


def cmd_chart(args) -> int:
    report = _read_descriptor(args.input, args.tol)
    desc = report.descriptor
    result = {
        "descriptor": descriptor_to_json(desc),
        "once_punctured": report.once_punctured,
        "notes": list(report.notes),
    }
    if desc.chart == "lambda":
        split = eigen_split(desc.x)
        result["region"] = region_membership(desc.x, tol=args.tol)
        result["q_plus_4"] = q_form(desc.x) + 4.0
        result["eigen_split"] = {"zeta": list(split.zeta), "t": split.t}
    _write_json(args, result)
    return 0


def cmd_spectrum(args) -> int:
    from .fuchsian import fn_to_rep, length_spectrum

    rep = fn_to_rep(_fn_point(args.input, "--input"))
    entries = length_spectrum(rep, args.max_word_len)
    rows = [f"{e.word},{fmt17(e.trace)},{fmt17(e.length)}" for e in entries]
    _write_csv(args, "word,trace,length", rows)
    return 0


def cmd_sigma(args) -> int:
    from .regions import sigma_membership

    X = _fn_point(args.input, "--input")
    Y0 = _fn_point(args.y0, "--y0")
    verdict = sigma_membership(X, Y0, args.max_word_len, tol=args.tol)
    result = {
        "status": verdict.status,
        "max_word_len": verdict.max_word_len,
        "witness": verdict.witness,
        "min_margin": verdict.min_margin,
        "note": verdict.note,
        "margins": [[word, margin] for word, margin in verdict.margins],
    }
    _write_json(args, result)
    return 0


def cmd_scan(args) -> int:
    from .regions import scan_sigma_slice

    # --workers is checked and echoed, and changes nothing: the scan is serial
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    Y0 = _fn_point(args.y0, "--y0")
    ranges = _parse_ranges(args.ranges)
    grid = scan_sigma_slice(Y0, args.plane, ranges, max_len=args.max_word_len, tol=args.tol)
    rows = [
        f"{fmt17(r.coord1)},{fmt17(r.coord2)},{r.status},{r.witness},{fmt17(r.min_margin)}"
        for r in grid.rows
    ]
    _write_csv(args, "coord1,coord2,status,witness,min_margin", rows)
    return 0


def cmd_critical(args) -> int:
    desc = _read_descriptor(args.input).descriptor
    # critical_lengths and strip_report from one walk of the chart ladder
    crit, ceiling = _critical(desc)
    strips = _strips(crit, ceiling)

    def payload(cv):
        return {"available": cv.available, "value": cv.value, "reason": cv.reason}

    result = {
        "critical_lengths": {
            "lambda_a": payload(crit.lambda_a),
            "lambda_c": payload(crit.lambda_c),
            "lambda_inf": payload(crit.lambda_inf),
            "chart_note": crit.chart_note,
        },
        "strips": [
            {
                "quantity": s.quantity,
                "value": s.value,
                "strip_height": s.strip.height,
                "meeting_tau": s.meeting_tau,
                "note": s.note,
            }
            for s in strips
        ],
    }
    _write_json(args, result)
    return 0


def cmd_corner(args) -> int:
    from .regions import corner_certificate

    Y0 = _fn_point(args.y0, "--y0")
    report = corner_certificate(Y0, args.eps, max_len=args.max_word_len, tol=args.tol)
    result = {
        "base": report.base._asdict(),
        "eps": report.eps,
        "active_constraints": list(report.active_constraints),
        "independent": report.independent,
        "probes": [
            {
                "coordinate": p.coordinate,
                "delta": p.delta,
                "status": p.status,
                "witness": p.witness,
                "min_margin": p.verdict.min_margin,
            }
            for p in report.probes
        ],
    }
    _write_json(args, result)
    return 0


def cmd_modulus(args) -> int:
    from .extremal import slit_torus_extremal_length

    desc = _read_descriptor(args.input).descriptor
    if desc.chart != "slit":
        raise DescriptorError(f"--input must be a slit-chart descriptor, got {desc.chart!r}")
    estimate = slit_torus_extremal_length(
        desc.tau, desc.s, args.cls, args.grid_n, levels=args.levels
    )
    result = {
        "tau": estimate.tau,
        "s": estimate.s,
        "class": estimate.curve_class,
        "grid_n": estimate.grid_n,
        "estimate": estimate.estimate,
        "error_indicator": estimate.error_indicator,
        "extrapolated": estimate.extrapolated,
        "converged": estimate.converged,
        "history": [[n, value] for n, value in estimate.history],
    }
    _write_json(args, result)
    if not estimate.converged:
        print(f"{TOOL}: modulus estimate did not converge", file=sys.stderr)
        return 1
    return 0


def _parse_ranges(text: str) -> tuple[tuple[float, float, int], tuple[float, float, int]]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("--ranges takes two lo:hi:count triples separated by a comma")
    out = []
    for part in parts:
        try:
            lo, hi, count = part.split(":")
            out.append((float(lo), float(hi), int(count)))
        except ValueError:
            raise ValueError(
                f"--ranges: range {part!r} is not of the form lo:hi:count"
            ) from None
    return tuple(out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="charts, length spectra, extremal lengths and dominance "
        "regions for marked once-holed tori",
    )
    parser.add_argument(
        "--version", action="version", version=f"{TOOL} {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--out", default="-", help="output path, - for stdout")

    p = sub.add_parser("chart", help="validate a descriptor and classify it")
    p.add_argument("--input", required=True, help="descriptor JSON, - for stdin")
    p.add_argument("--tol", type=float, default=BOUNDARY_TOL)
    common(p)
    p.set_defaults(func=cmd_chart)

    p = sub.add_parser("spectrum", help="length spectrum of an fn-chart surface")
    p.add_argument("--input", required=True)
    p.add_argument("--max-word-len", type=int, default=6)
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sigma", help="truncated dominance verdict for X against Y0")
    p.add_argument("--input", required=True, help="descriptor for X")
    p.add_argument("--y0", required=True, help="descriptor for Y0")
    p.add_argument("--max-word-len", type=int, default=6)
    p.add_argument("--tol", type=float, default=MARGIN_TOL)
    common(p)
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("scan", help="dominance scan over a coordinate plane")
    p.add_argument("--y0", required=True)
    p.add_argument("--plane", required=True, choices=list(SCAN_PLANES))
    p.add_argument(
        "--ranges",
        required=True,
        help="lo:hi:count,lo:hi:count; a value that starts with '-' must be "
        "attached with '=', as in --ranges=-0:1:9,-1:1:9",
    )
    p.add_argument("--max-word-len", type=int, default=6)
    p.add_argument("--tol", type=float, default=MARGIN_TOL)
    p.add_argument("--workers", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("critical", help="critical lengths and admissible strips")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("corner", help="boundary corner certificate at an fn point")
    p.add_argument("--y0", required=True)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--max-word-len", type=int, default=4)
    p.add_argument("--tol", type=float, default=MARGIN_TOL)
    common(p)
    p.set_defaults(func=cmd_corner)

    p = sub.add_parser("modulus", help="extremal length of one class on a slit torus")
    p.add_argument("--input", required=True, help="slit-chart descriptor")
    p.add_argument("--cls", required=True, choices=sorted(CURVE_CLASSES))
    p.add_argument("--grid-n", type=int, default=128)
    p.add_argument("--levels", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_modulus)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EllipticTraceError, ArithmeticError) as exc:
        print(f"{TOOL}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"{TOOL}: {exc}", file=sys.stderr)
        return 2


def __getattr__(name: str):
    # PEP 562: cli.fn_to_rep and the like are the package's, loaded on first
    # access; a private name (__all__, __path__, ...) loads nothing
    package = sys.modules[__package__]
    if not name.startswith("_") and name in package.__all__:
        return getattr(package, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
