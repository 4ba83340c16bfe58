"""Length-dominance regions, critical lengths, and strip reports.

For a reference surface Y0, the dominance region collects the marked
once-holed tori X with l(X, w) >= l(Y0, w) for every nontrivial class w.
Only finitely many classes can be checked, so verdicts are truncated at
a word length N and say so: "in_up_to_N" never claims full membership,
while "out" is certified by an explicit violating class.  The witness of
an out verdict is the violating class of smallest geodesic length on Y0
(ties broken by word length, then letter order).  Probing a base point
downward in l or l' violates the coordinate constraint u or uvUV, but
the witness is whichever violated class is shortest on Y0: u and uvUV
only where no shorter class is violated too (at Y0 = (2.5709, 1.8978,
0.5998) the two probes exit with uV and v).

Critical lengths bound which slit tori map holomorphically into Y0 in a
handle-preserving way.  Which of them is computable depends on the input
chart: hyperbolic data gives lambda_a = l(Y0)/pi (and lambda_inf, which
coincides with it), conformal data gives lambda_c = the class-a extremal
length of Y0.  Each produces a horizontal strip of admissible tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .charts import (
    FNChartPoint,
    Strip,
    SurfaceDescriptor,
    strip_of,
    validate_descriptor,
)
from .fuchsian import (
    ARCCOSH_REL_ERR,
    KERNEL_BLOCK,
    EllipticTraceError,
    _approx_lengths,
    _checked_traces,
    _exact_lengths,
    _letters,
    class_spectra,
    enumerate_classes,
    fn_to_rep,
    geodesic_length,  # noqa: F401  (module attribute the benchmark tracer wraps)
)

__all__ = [
    "ChainReport",
    "CornerReport",
    "CriticalLengths",
    "CriticalValue",
    "ProbeResult",
    "ResourceLimitError",
    "ScanGrid",
    "ScanRow",
    "SigmaVerdict",
    "StripReport",
    "UnsupportedSurfaceError",
    "corner_certificate",
    "critical_lengths",
    "handle_cover",
    "lambda_chain_check",
    "scan_sigma_slice",
    "sigma_membership",
    "strip_report",
]

MARGIN_TOL = 1e-9

COMMUTATOR = "uvUV"

SCAN_PLANES = {
    "l-lp": ("l", "lp"),
    "l-theta": ("l", "theta"),
    "lp-theta": ("lp", "theta"),
}

#: scan cells times checked classes beyond this raise ResourceLimitError.
SCAN_CELL_CAP = 20_000_000


class ResourceLimitError(ValueError):
    """A scan or enumeration request exceeds the configured budget."""


class UnsupportedSurfaceError(ValueError):
    """The requested construction is not computable for this input."""


# Unused by the queries, which batch their surfaces through _sigma_verdicts.
# It stays, with its cache, and so do the fn_to_rep and geodesic_length
# imports, because the benchmark's tracer reads them as module attributes.
@lru_cache(maxsize=64)
def _class_lengths(l: float, lp: float, theta: float, max_len: int):
    """Geodesic lengths of one surface, in enumerate_classes order (read-only)."""
    _, _, lengths = class_spectra([fn_to_rep(FNChartPoint(l, lp, theta))], max_len)
    lengths = lengths[:, 0]
    lengths.flags.writeable = False
    return lengths


def _verdicts(margins: np.ndarray, ly: np.ndarray, tol: float):
    """Out flag, witness index (or -1) and min margin of each column.

    margins has one row per class in enumerate_classes order, which sorts
    by word length, then letter order; so the first violator of smallest
    length ly on Y0 is the witness with the documented tie-break.  tol
    must be finite and nonnegative: a negative tol would call equal
    lengths a violation, and an infinite or NaN one would pass everything.
    """
    _check_tol(tol)
    violated = margins < -tol
    out = violated.any(axis=0)
    ranked = np.where(violated, ly[:, None], np.inf)
    witness = np.where(out, ranked.argmin(axis=0), -1)
    return out, witness, margins.min(axis=0)


def _check_tol(tol: float):
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")


def _certified_margins(traces: np.ndarray, ly: np.ndarray, tol: float) -> np.ndarray:
    """Margins of each column of traces against Y0's exact lengths ly.

    Lengths come from np.arccosh, within ARCCOSH_REL_ERR of exact, so each
    margin is within bound = 2 * ARCCOSH_REL_ERR * (the longest length in
    its column) of its exact value; the factor 2 covers the rounding of the
    subtraction.  Only margins within 2 * bound of their column's minimum
    (which could be the minimum) or within bound of -tol (which could flip
    a verdict) are recomputed exactly.  _verdicts then reads the same
    verdict, witness and min margin, bit for bit, as from exact margins.
    """
    lengths = _approx_lengths(traces)
    margins = lengths - ly[:, None]
    bound = 2.0 * ARCCOSH_REL_ERR * np.maximum(lengths.max(axis=0), ly.max())
    near = (margins <= margins.min(axis=0) + 2.0 * bound) | (
        np.abs(margins + tol) <= bound
    )
    i, b = np.nonzero(near)
    margins[i, b] = _exact_lengths(traces[i, b]) - ly[i]
    return margins


@dataclass(frozen=True)
class SigmaVerdict:
    """Truncated dominance verdict for one pair (X, Y0)."""

    status: str  # "in_up_to_N" or "out"
    max_word_len: int
    witness: str | None
    min_margin: float
    margins: tuple[tuple[str, float], ...]
    note: str | None = None


def sigma_membership(
    X: FNChartPoint, Y0: FNChartPoint, max_len: int, tol: float = MARGIN_TOL
) -> SigmaVerdict:
    """Compare the length spectra of X and Y0 over classes up to max_len.

    X is out as soon as some margin l(X, w) - l(Y0, w) drops below -tol;
    the witness is then the geodesically shortest violating class on Y0.
    Otherwise the verdict is in_up_to_N, a statement about the checked
    classes only.  X and Y0 go through one trace kernel call.
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    return _sigma_verdicts([X], Y0, max_len, tol)[0]


def _sigma_verdicts(
    Xs: list[FNChartPoint], Y0: FNChartPoint, max_len: int, tol: float
) -> list[SigmaVerdict]:
    """sigma_membership(X, Y0, max_len, tol) for each X in Xs, in one kernel call.

    Every length is the exact one, so each verdict equals that of a call
    with X alone, bit for bit.  A refusal is the one that the queries,
    taken one by one, would meet first.
    """
    try:
        traces = _checked_traces(_letters([Y0, *Xs]), max_len)
    except (ValueError, ArithmeticError, EllipticTraceError):
        # replay the queries one by one, each checking X's chart and traces,
        # then Y0's, then tol: a later surface's bad chart, or a bad tol,
        # must not be reported before an earlier surface's bad trace
        for X in Xs:
            for point in (X, Y0):
                _checked_traces(_letters([point]), max_len)
            _check_tol(tol)
        raise
    lengths = _exact_lengths(traces)
    ly = lengths[:, 0]
    margins = lengths[:, 1:] - ly[:, None]
    out, witness, min_margin = _verdicts(margins, ly, tol)
    classes = enumerate_classes(max_len)
    note = None
    if max_len < 4:
        note = "boundary (commutator) class has length 4 and was not checked"
    return [
        SigmaVerdict(
            status="out" if o else "in_up_to_N",
            max_word_len=max_len,
            witness=classes[w] if o else None,
            min_margin=m,
            margins=tuple(zip(classes, column)),
            note=note,
        )
        for o, w, m, column in zip(
            out.tolist(), witness.tolist(), min_margin.tolist(), margins.T.tolist()
        )
    ]


class ProbeResult(NamedTuple):
    coordinate: str
    delta: float
    status: str
    witness: str | None
    verdict: SigmaVerdict


@dataclass(frozen=True)
class CornerReport:
    """Probe evidence that the region boundary has a corner at Y0."""

    base: FNChartPoint
    eps: float
    active_constraints: tuple[str, str]
    probes: tuple[ProbeResult, ...]
    independent: bool


def corner_certificate(
    Y0: FNChartPoint, eps: float, max_len: int = 4, tol: float = MARGIN_TOL
) -> CornerReport:
    """Probe Y0 by +/-eps along l and lp and certify the two constraints.

    Decreasing l or lp must exit the region; the witness is the shortest
    violated class on Y0, which is u (uvUV) only where no shorter class is
    violated as well.  The independence flag checks that both lowering
    probes are out, and that each moves exactly its own coordinate's
    margin (by -eps) while the other active margin stays at zero: the
    active constraints are then the coordinate projections themselves,
    with independent gradients.  Margins alone do not suffice: a tol
    above eps reads every probe in, however its margins moved.

    Once-punctured base points (lp = 0) are rejected: there the boundary
    class degenerates and this certificate says nothing.  Y0 and the four
    probes go through one trace kernel call.
    """
    if Y0.lp == 0.0:
        raise UnsupportedSurfaceError(
            "corner certificate needs lp > 0: at lp = 0 the boundary class "
            "is parabolic and the boundary behavior is not certified here"
        )
    if max_len < 4:
        raise ValueError("max_len must be at least 4 to include the commutator")
    if not 0.0 < eps < min(Y0.l, Y0.lp) / 2.0:
        raise ValueError("eps must be positive and small next to (l, lp)")

    steps = [(coordinate, delta) for coordinate in ("l", "lp") for delta in (-eps, eps)]
    verdicts = _sigma_verdicts(
        [Y0._replace(**{c: getattr(Y0, c) + d}) for c, d in steps], Y0, max_len, tol
    )
    probes = [
        ProbeResult(coordinate, delta, verdict.status, verdict.witness, verdict)
        for (coordinate, delta), verdict in zip(steps, verdicts)
    ]

    def margin(verdict: SigmaVerdict, word: str) -> float:
        return dict(verdict.margins)[word]

    down_l = probes[0].verdict
    down_lp = probes[2].verdict
    slack = max(tol, 1e-6 * eps)
    independent = (
        down_l.status == down_lp.status == "out"
        and abs(margin(down_l, "u") + eps) <= slack
        and abs(margin(down_l, COMMUTATOR)) <= slack
        and abs(margin(down_lp, COMMUTATOR) + eps) <= slack
        and abs(margin(down_lp, "u")) <= slack
    )
    return CornerReport(
        base=Y0,
        eps=eps,
        active_constraints=("u", COMMUTATOR),
        probes=tuple(probes),
        independent=independent,
    )


@dataclass(frozen=True)
class CriticalValue:
    value: float | None
    reason: str | None = None

    @property
    def available(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class CriticalLengths:
    """Critical extremal lengths of a reference surface, per chart."""

    lambda_a: CriticalValue
    lambda_c: CriticalValue
    lambda_inf: CriticalValue
    chart_note: str


def critical_lengths(desc: SurfaceDescriptor) -> CriticalLengths:
    """Compute whichever critical lengths the input chart determines.

    Hyperbolic charts give lambda_a = l/pi and lambda_inf = lambda_a.
    Conformal charts give lambda_c, the class-a extremal length: 1/Im tau
    for slit tori and both torus fixtures, the first coordinate for
    Lambda-chart input.  A marked torus has every geodesic length zero,
    so lambda_a = lambda_inf = 0 there.
    """
    desc = validate_descriptor(desc).descriptor
    no_hyperbolic = CriticalValue(
        None, "needs the hyperbolic a-length, which this chart does not carry"
    )
    if desc.chart == "fn":
        la = CriticalValue(desc.l / math.pi)
        lc = CriticalValue(
            None, "needs the class-a extremal length, which this chart does not carry"
        )
        note = "hyperbolic chart: lambda_a = l/pi, and lambda_inf = lambda_a"
    elif desc.chart == "slit":
        la, lc = no_hyperbolic, CriticalValue(1.0 / desc.tau.imag)
        note = "slit chart: the class-a extremal length is 1/Im tau for every slit length"
    elif desc.chart == "lambda":
        la, lc = no_hyperbolic, CriticalValue(desc.x.x1)
        note = "extremal-length chart: lambda_c is the first coordinate"
    elif desc.chart == "torus":
        la, lc = CriticalValue(0.0), CriticalValue(1.0 / desc.tau.imag)
        note = (
            "marked torus: geodesic lengths are zero by convention, "
            "so every slit torus dominates it"
        )
    elif desc.chart == "twice_punctured":
        la = CriticalValue(
            None, "the hyperbolic a-length of the fixture is not computed here"
        )
        lc = CriticalValue(1.0 / desc.tau.imag)
        note = "twice-punctured fixture: the class-a extremal length is 1/Im tau"
    else:
        raise UnsupportedSurfaceError(f"no critical lengths for chart {desc.chart!r}")
    # lambda_inf coincides with lambda_a on every chart
    return CriticalLengths(lambda_a=la, lambda_c=lc, lambda_inf=la, chart_note=note)


@dataclass(frozen=True)
class StripReport:
    quantity: str  # "lambda_a", "lambda_c" or "lambda_inf"
    value: float
    strip: Strip
    note: str
    meeting_tau: complex | None = None


def strip_report(desc: SurfaceDescriptor) -> list[StripReport]:
    """Horizontal strips of admissible tau for each available quantity.

    Every strip {0 < Im tau < 1/lambda} collects the heights at which
    slit tori can map into Y0; what happens on the ceiling line depends
    on the quantity.  For lambda_a the line is strictly excluded.  For
    lambda_c the line is met at exactly one point when Y0 is itself a
    once-holed torus or torus (the surface or its slit subsets embed in
    themselves); the bent-mark fixture is the example where the line is
    not met at all.
    """
    desc = validate_descriptor(desc).descriptor
    crit = critical_lengths(desc)
    reports = []
    if crit.lambda_a.available:
        la = crit.lambda_a.value
        note = (
            "every height admits embeddings: the strip is the whole half plane"
            if la == 0.0
            else "heights at or above the ceiling admit no embedding at any "
            "slit length; the line Im tau = 1/lambda_a is excluded"
        )
        reports.append(StripReport("lambda_a", la, strip_of(la), note))
    if crit.lambda_c.available:
        lc = crit.lambda_c.value
        if desc.chart in ("slit", "torus"):
            meeting, note = desc.tau, (
                "the ceiling line Im tau = 1/lambda_c is met exactly once, "
                "at tau itself"
            )
        elif desc.chart == "twice_punctured" and desc.mark == "straight":
            meeting, note = desc.tau, (
                "the ceiling line is met exactly at tau: the slit [0, 1/2] "
                "covers both punctures, so that slit torus sits inside the fixture"
            )
        elif desc.chart == "twice_punctured":
            meeting, note = None, (
                "the ceiling line is not met: the bent b-mark admits no "
                "embedding at the critical height"
            )
        else:
            meeting, note = None, "the ceiling line is met at exactly one point"
        reports.append(StripReport("lambda_c", lc, strip_of(lc), note, meeting))
    if crit.lambda_inf.available:
        li = crit.lambda_inf.value
        reports.append(
            StripReport(
                "lambda_inf",
                li,
                strip_of(li),
                "heights below the ceiling are attained by all sufficiently "
                "long slits; the line itself is not",
            )
        )
    if not reports:
        raise UnsupportedSurfaceError("no critical length is available for this chart")
    return reports


def handle_cover(desc: SurfaceDescriptor) -> SurfaceDescriptor:
    """Handle cover of the reference surface.

    Marked tori and marked once-holed tori are their own handle cover,
    so every chart input is returned unchanged.  For the twice-punctured
    fixture the cover is a marked once-holed torus, but pinning down its
    chart coordinates needs the covering uniformization, which is out of
    scope, so that input is refused.
    """
    report = validate_descriptor(desc)
    if report.descriptor.chart == "twice_punctured":
        raise UnsupportedSurfaceError(
            "the handle cover of the twice-punctured fixture is a marked "
            "once-holed torus, but computing its chart coordinates requires "
            "the covering uniformization, which this toolkit does not build"
        )
    return report.descriptor


class ScanRow(NamedTuple):
    coord1: float
    coord2: float
    status: str
    witness: str
    min_margin: float


@dataclass(frozen=True)
class ScanGrid:
    """Row-major dominance scan of a coordinate plane through Y0."""

    plane: str
    coords1: tuple[float, ...]
    coords2: tuple[float, ...]
    max_word_len: int
    rows: tuple[ScanRow, ...]


def scan_sigma_slice(
    Y0: FNChartPoint,
    plane: str,
    ranges,
    max_len: int = 6,
    tol: float = MARGIN_TOL,
    workers: int = 1,
) -> ScanGrid:
    """Dominance scan over a two-coordinate slice, third coordinate fixed.

    ranges is a pair of (lo, hi, count) triples for the plane's two
    coordinates.  Each row is the sigma_membership verdict of its cell,
    reported in row-major order, and equal to it bit for bit.  Each trace
    kernel call takes Y0 and the next KERNEL_BLOCK - 1 cells, so one call
    is one kernel block.  The cells' lengths come from np.arccosh, certified
    by _certified_margins: every margin that could move a reported digit
    is recomputed exactly, so the cell at Y0 has margin exactly 0.0.
    workers is accepted for compatibility and has no effect: the batched
    kernel evaluates all cells in this process.
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    if plane not in SCAN_PLANES:
        raise ValueError(f"plane must be one of {sorted(SCAN_PLANES)}")
    names = SCAN_PLANES[plane]
    (lo1, hi1, n1), (lo2, hi2, n2) = ranges
    if n1 < 1 or n2 < 1:
        raise ValueError("grid counts must be at least 1")
    classes = enumerate_classes(max_len)
    if n1 * n2 * len(classes) > SCAN_CELL_CAP:
        raise ResourceLimitError(
            f"{n1}x{n2} cells over {len(classes)} classes exceeds the cap {SCAN_CELL_CAP}"
        )
    # np.linspace warns on a non-finite range or one whose width overflows
    if not all(map(math.isfinite, (lo1, hi1, lo2, hi2, hi1 - lo1, hi2 - lo2))):
        raise ValueError("scan ranges leave the chart domain")
    coords1 = tuple(float(v) for v in np.linspace(lo1, hi1, n1))
    coords2 = tuple(float(v) for v in np.linspace(lo2, hi2, n2))
    cells = [
        Y0._replace(**{names[0]: c1, names[1]: c2}) for c1 in coords1 for c2 in coords2
    ]
    if any(not cell.l > 0.0 or cell.lp < 0.0 for cell in cells):
        raise ValueError("scan ranges leave the chart domain")
    coords = attrgetter(*names)
    batch = KERNEL_BLOCK - 1  # Y0 and one batch of cells fill one kernel block
    rows = []
    for start in range(0, len(cells), batch):
        chunk = cells[start : start + batch]
        traces = _checked_traces(_letters([Y0, *chunk]), max_len)
        ly = _exact_lengths(traces[:, 0])
        margins = _certified_margins(traces[:, 1:], ly, tol)
        out, witness, min_margin = _verdicts(margins, ly, tol)
        for cell, o, w, m in zip(chunk, out, witness, min_margin.tolist()):
            status, word = ("out", classes[w]) if o else ("in_up_to_N", "")
            rows.append(ScanRow(*coords(cell), status, word, m))
    return ScanGrid(
        plane=plane,
        coords1=coords1,
        coords2=coords2,
        max_word_len=max_len,
        rows=tuple(rows),
    )


@dataclass(frozen=True)
class ChainReport:
    """Consistency of l(Y0) against an annulus modulus bound."""

    l: float
    modulus: float
    lambda_a: float
    annulus_extremal_length: float
    consistent: bool


def lambda_chain_check(Y0: FNChartPoint, modulus: float) -> ChainReport:
    """Check the strict chain l(Y0) < pi/m against a given modulus.

    Equality is reported as inconsistent: the chain of inequalities
    linking lambda_a to an annulus of modulus m is strict.
    """
    if not modulus > 0.0:
        raise ValueError("modulus must be positive")
    if not Y0.l > 0.0:
        raise ValueError("l must be positive")
    return ChainReport(
        l=Y0.l,
        modulus=modulus,
        lambda_a=Y0.l / math.pi,
        annulus_extremal_length=1.0 / modulus,
        consistent=Y0.l < math.pi / modulus,
    )
