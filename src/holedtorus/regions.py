"""Length-dominance regions, corner certificates and handle covers.

For a reference surface Y0, the dominance region collects the marked
once-holed tori X with l(X, w) >= l(Y0, w) for every nontrivial class w.
Only finitely many classes can be checked, so verdicts are truncated at
a word length N and say so: "in_up_to_N" never claims full membership,
while "out" names a violating class, whose margin is below -tol in
floating point; within about 1e-13 of -tol the verdict can differ from
the exact one.  The witness of an out verdict is the violating class of
smallest geodesic length on Y0 (ties broken by word length, then letter
order).  Probing a base point downward in l or l' violates the
coordinate constraint u or uvUV, but the witness is whichever violated
class is shortest on Y0: u and uvUV only where no shorter class is
violated too (at Y0 = (2.5709, 1.8978, 0.5998) the two probes exit with
uV and v).

The critical lengths and their strips need no numpy and are in charts;
handle_cover and lambda_chain_check are here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from typing import NamedTuple

import numpy as np

from .charts import (
    MARGIN_TOL,
    SCAN_PLANES,
    EllipticTraceError,
    FNChartPoint,
    ResourceLimitError,
    SurfaceDescriptor,
    UnsupportedSurfaceError,
    _check_tol,
    _counts,
    _finite,
    _fn_chart,
    _held,
    _items,
    _positive,
    _read_once,
    validate_descriptor,
)
from .fuchsian import (
    ARCCOSH_REL_ERR,
    KERNEL_BLOCK,
    _approx_lengths,
    _checked_traces,
    _exact_lengths,
    _grid_letters,
    _letters,
    enumerate_classes,
    # no query calls these two: the benchmark's tracer wraps them here
    fn_to_rep,  # noqa: F401
    geodesic_length,  # noqa: F401
)

__all__ = [
    "ChainReport",
    "CornerReport",
    "ProbeResult",
    "ScanGrid",
    "ScanRow",
    "SigmaVerdict",
    "corner_certificate",
    "handle_cover",
    "lambda_chain_check",
    "scan_sigma_slice",
    "sigma_membership",
]

COMMUTATOR = "uvUV"

#: scan cells times checked classes beyond this raise ResourceLimitError.
SCAN_CELL_CAP = 20_000_000


@lru_cache(maxsize=0)
def _class_lengths() -> None:
    """Nothing; no query calls it.  The benchmark's tracer reads its cache_info()."""


def _verdicts(margins: np.ndarray, ly: np.ndarray, tol: float):
    """Out flag, witness index (or -1) and min margin of each column.

    margins has one row per class in enumerate_classes order, which sorts
    by word length, then letter order; so the first violator of smallest
    length ly on Y0 is the witness with the documented tie-break; the caller checks tol.
    """
    violated = margins < -tol
    out = violated.any(axis=0)
    ranked = np.where(violated, ly[:, None], np.inf)
    witness = np.where(out, ranked.argmin(axis=0), -1)
    return out, witness, margins.min(axis=0)


def _certified_margins(traces: np.ndarray, ly: np.ndarray, tol: float) -> np.ndarray:
    """Margins of each column of traces against Y0's exact lengths ly.

    Lengths come from np.arccosh, within ARCCOSH_REL_ERR of exact, so each
    margin is within bound = 2 * ARCCOSH_REL_ERR * (the longest length in
    its column) of its exact value; the factor 2 covers the rounding of the
    subtraction.  Only margins within 2 * bound of their column's minimum
    (which could be the minimum) or within bound of -tol (which could flip
    a verdict) are recomputed exactly.  _verdicts then reads the same
    verdict, witness and min margin, bit for bit, as from exact margins.
    Should a recomputed margin differ from its approximation by more than
    bound, np.arccosh breaks its premise on this build, and every margin
    is recomputed exactly.
    """
    lengths = _approx_lengths(traces)
    margins = lengths - ly[:, None]
    bound = 2.0 * ARCCOSH_REL_ERR * np.maximum(lengths.max(axis=0), ly.max())
    near = (margins <= margins.min(axis=0) + 2.0 * bound) | (
        np.abs(margins + tol) <= bound
    )
    i, b = np.nonzero(near)
    exact = _exact_lengths(traces[i, b]) - ly[i]
    if (np.abs(exact - margins[i, b]) > bound[b]).any():
        return _exact_lengths(traces) - ly[:, None]
    margins[i, b] = exact
    return margins


def _guarded_traces(Y0: FNChartPoint, Xs, max_len: int, tol: float, letters=None):
    """Traces of Y0 and each X in Xs from one kernel call, and the checked tol.

    letters are those of [Y0, *Xs], built from the points when None.  On
    a refusal, Xs is read once more, and what the queries
    sigma_membership(X, Y0, max_len, tol), X in Xs, meet first when taken
    one at a time is raised: X's chart, then its traces, then Y0's, then
    tol.  sigma, corner and scan refuse through it alone.
    """
    try:
        traces = _checked_traces(_letters([Y0, *Xs]) if letters is None else letters, max_len)
    except (ValueError, ArithmeticError, EllipticTraceError):
        for X in Xs:
            for point, name in ((X, "X"), (Y0, "Y0")):
                _checked_traces(_letters([_fn_chart(point, name)]), max_len)
            _check_tol(tol, nonnegative=True)
        raise
    return traces, _check_tol(tol, nonnegative=True)


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
    _counts("max_len", max_len, least=2)
    X, Y0 = _read_once(X), _read_once(Y0)  # _guarded_traces reads them twice on a refusal
    return _sigma_verdicts([X], Y0, max_len, tol)[0]


def _sigma_verdicts(
    Xs: list[FNChartPoint], Y0: FNChartPoint, max_len: int, tol: float
) -> list[SigmaVerdict]:
    """sigma_membership(X, Y0, max_len, tol) for each X in Xs, in one kernel call.

    Every length is the exact one, so each verdict equals that of a call
    with X alone, bit for bit.  A refusal is the one that the queries,
    taken one by one, would meet first.
    """
    traces, tol = _guarded_traces(Y0, Xs, max_len, tol)
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

    Y0 outside the chart is refused first, as fn_to_rep refuses it.
    Once-punctured base points (lp = 0) are rejected: there the boundary
    class degenerates and this certificate says nothing.  Then eps must be
    positive and below min(l, lp)/2.  Y0 and the four probes go through
    one trace kernel call.
    """
    Y0 = _fn_chart(Y0, "Y0")
    if Y0.lp == 0.0:
        raise UnsupportedSurfaceError(
            "corner certificate needs lp > 0: at lp = 0 the boundary class "
            "is parabolic and the boundary behavior is not certified here"
        )
    _counts("max_len", max_len, least=4, why=" to include the commutator")
    message = "eps must be positive and small next to (l, lp)"
    eps = _finite(eps, "eps", message=message, where=lambda e: 0.0 < e < min(Y0.l, Y0.lp) / 2.0)

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


#: ScanRow of a 5-tuple, built in C: no Python frame per row.
_scan_row = partial(tuple.__new__, ScanRow)


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
    reported in row-major order, and equal to it bit for bit.  The cells'
    letter matrices are built per coordinate, over the two axes, by
    _grid_letters.  Each trace kernel call takes Y0 and the next
    KERNEL_BLOCK - 1 cells: one kernel block up to max_len 7, and smaller
    blocks that fit KERNEL_WORKSPACE above.  A refused
    cell's letters are not finite, so its block's call raises, and the
    scan raises what the sigma queries of Y0 and then of its cells,
    row-major, meet first, whatever KERNEL_BLOCK is: Y0's chart and
    traces, then tol, then each cell's chart and traces.  A cell off the
    chart (l <= 0 or lp < 0) is refused in its turn, as fn_to_rep refuses
    it.  Only the other arguments come ahead of Y0: max_len, plane, the
    ranges' shape, the counts, then a range end that is not a real number
    or not finite, or a range width that overflows.  The cells' lengths
    come from np.arccosh, certified by _certified_margins: every margin
    that could move a reported digit is recomputed exactly, so the cell at
    Y0 has margin exactly 0.0.  workers is kept but has no effect.
    """
    _counts("max_len", max_len, least=2)
    if plane not in tuple(SCAN_PLANES):  # an unhashable plane is unknown too
        raise ValueError(f"plane must be one of {sorted(SCAN_PLANES)}")
    names = SCAN_PLANES[plane]
    pair = _items(ranges, "ranges", 2, "a pair of (lo, hi, count) triples")
    (lo1, hi1, n1), (lo2, hi2, n2) = (_items(r, "scan range", 3) for r in pair)
    _counts("grid counts", n1, n2, least=1)
    classes = enumerate_classes(max_len)
    if n1 * n2 * len(classes) > SCAN_CELL_CAP:
        raise ResourceLimitError(
            f"{n1}x{n2} cells over {len(classes)} classes exceeds the cap {SCAN_CELL_CAP}"
        )
    # np.linspace warns on a non-finite range or one whose width overflows
    message = "scan ranges leave the chart domain"
    ends = (_finite(v, "scan range end", message=message) for v in (lo1, hi1, lo2, hi2))
    lo1, hi1, lo2, hi2 = ends
    for width in (hi1 - lo1, hi2 - lo2):
        _finite(width, "scan range width", message=message)
    coords1 = tuple(np.linspace(lo1, hi1, n1).tolist())
    coords2 = tuple(np.linspace(lo2, hi2, n2).tolist())
    Y0 = _fn_chart(Y0, "Y0")  # Y0's refusal comes before its cells'
    y0 = _letters([Y0])
    # Y0 with the plane's coordinates as two axes that broadcast to the grid
    grid = Y0._replace(
        **{names[0]: np.reshape(coords1, (n1, 1)), names[1]: np.array(coords2)}
    )
    letters = _grid_letters(*grid).reshape(*y0.shape[:3], n1 * n2)  # row-major

    def cell(k: int) -> FNChartPoint:
        return Y0._replace(**{names[0]: coords1[k // n2], names[1]: coords2[k % n2]})

    words = [*classes, ""]  # witness -1: in, with no witness
    status, witnesses, min_margins = [], [], []
    batch = KERNEL_BLOCK - 1  # Y0 and one batch of cells fill one kernel block
    for start in range(0, n1 * n2, batch):
        stop = min(start + batch, n1 * n2)
        block = np.concatenate((y0, letters[..., start:stop]), axis=-1)
        replay = chain((Y0,), map(cell, range(start, stop)))  # read on a refusal only
        traces, tol = _guarded_traces(Y0, replay, max_len, tol, block)
        ly = _exact_lengths(traces[:, 0])
        margins = _certified_margins(traces[:, 1:], ly, tol)
        out, witness, min_margin = _verdicts(margins, ly, tol)
        status += ["out" if o else "in_up_to_N" for o in out.tolist()]
        witnesses += [words[w] for w in witness.tolist()]
        min_margins += min_margin.tolist()
    column1 = np.repeat(coords1, n2).tolist()
    rows = map(_scan_row, zip(column1, coords2 * n1, status, witnesses, min_margins))
    return ScanGrid(plane, coords1, coords2, max_len, tuple(rows))


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
    linking lambda_a to an annulus of modulus m is strict.  Refuses with
    ValueError a modulus that is not a positive finite number, then a Y0
    outside the chart, as fn_to_rep refuses it; refuses an annulus
    extremal length 1/m that overflows with OverflowError.
    """
    modulus = _positive(modulus, "modulus")
    l = _fn_chart(Y0, "Y0").l
    _held(f"1/m at modulus {modulus!r} overflows double precision", 1.0 / modulus)
    return ChainReport(l, modulus, l / math.pi, 1.0 / modulus, l < math.pi / modulus)
