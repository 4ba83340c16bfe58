"""Extremal lengths: exact annulus formulas and a slit-torus solver.

For an annulus of modulus m the core-curve family has extremal length
1/m and, in the hyperbolic metric of the annulus, core geodesic length
pi/m.  In particular extremal length times pi equals that length, and an
annulus with core length l is {exp(-2 pi^2 / l) < |z| < 1}, of modulus
pi/l.

The slit-torus solver computes the extremal length of a handle class c
on X = C/(Z + tau Z) minus the horizontal slit [0, s].  It minimizes the
Dirichlet energy of a stream function psi whose additive period around
each cycle gamma is the intersection number of c with gamma (so the flow
of psi winds in class c, crossing the dual cycle once) and which is
constant along the slit: the slit is a streamline, the no-flux condition
for the insulating slit.  The minimum energy equals the extremal length.
On the unslit torus the minimizer is linear and the discrete minimum is
exact: 1/Im tau, |tau|^2/Im tau and |1 - tau|^2/Im tau for the classes
a, b, a b^-1.  The linear minimizer for class a is already constant on
the slit, so the class-a value is 1/Im tau for every s, again exactly.

Discretization: piecewise-linear elements on the n x n grid over the
fundamental parallelogram, node (i, j) at z = (i + j tau)/n, where the
metric has the form F = (|tau|^2, -Re tau, 1)/Im tau.  psi is the linear
function with psi's periods p plus a grid function phi.  All cells are cut
along the same diagonal, so the stiffness K of phi is one seven-point
stencil: the node and its neighbours at +-(1, 0), +-(0, 1), +-(1, 1),
coupled along -d as along +d.  The cross term of phi with the linear part
is zero, as each hat function's gradient integrates to zero over its six
triangles, so the energy is phi^T K phi + p^T F p.  The slit is snapped to
the nodes [0, m/n] of its row, with m = min(floor(s n + 1e-12), n - 1).
There psi is constant, so phi is -p1 i/n plus a free constant at node i,
p1 being psi's period around the cycle [0, 1] that carries the slit.  So
phi is constant when p1 = 0 or the slit is one node: the class-a values,
and every class's value on a slit shorter than one cell, are p^T F p
exactly, with no solve.

The other classes share one solve per grid through K's Green's function
G (Buzbee-Dorr-George-Golub 1971, Proskurowski-Widlund 1976).  K is
circulant, so G, its pseudo-inverse, has symbol 1/K's with the constant
mode dropped, and one 1-D FFT gives G along the slit's row.  Then
phi = G q + c, with charges q on the slit summing to zero; that rule
fixes the gauge c.  The slit block G[|i - j|] is symmetric positive
definite: one Cholesky factor, one solve for the slit data s and the
constants together, and Q = s G^-1 s - (1 G^-1 s)^2 / 1 G^-1 1.  These
are numpy elementwise products and np.sum reductions in a fixed order,
with no np.linalg call and no BLAS dot, so no energy depends on the BLAS
thread count; _local_stiffness's 2 x 2 np.linalg.inv and det run on one
thread but may round apart under another BLAS build.

The discrete value overestimates the extremal length of the snapped slit.
When s times the coarsest n is an integer, the slit is the same on every
level, the doubled grids' spaces nest and the values decrease toward the
true extremal length.  Otherwise the history need not decrease: at tau =
i, class b and n = 32, 64, 128, s = 0.9 gives 2.15862, 2.18875, 2.20409.
A grid_n above GRID_CAP = 512 is refused with ResourceLimitError before
anything is allocated; a metric form, factor or energy that double
precision cannot hold raises FloatingPointError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charts import CURVE_CLASSES, ResourceLimitError, q_form
from .charts import _counts, _field, _finite, _held, _number, _positive, _sequence

__all__ = [
    "Annulus",
    "ModulusEstimate",
    "TripleEstimate",
    "annulus_from_core_length",
    "annulus_quantities",
    "lambda_triple_slit",
    "refine_and_extrapolate",
    "slit_torus_extremal_length",
]

#: Additive periods (around the cycles [0,1] and [0,tau]) of the stream
#: function for each handle class: the intersection numbers of the class
#: with those cycles.
CLASS_PERIODS = {"a": (0.0, 1.0), "b": (1.0, 0.0), "aB": (1.0, 1.0)}

MIN_GRID = 16

#: Largest grid_n a solve accepts: the finest grid has grid_n^2 nodes.
#: Twice the largest grid of any test, golden file or benchmark workload.
GRID_CAP = 512

#: Successive refinements must agree to this relative factor to converge.
CONVERGENCE_RTOL = 5e-3


@dataclass(frozen=True)
class Annulus:
    """Conformal annulus known by its modulus.

    Refuses a modulus that is not a positive finite number (a string,
    bytes or bool is not one) with ValueError, and one whose core length
    overflows with OverflowError.
    """

    modulus: float

    def __post_init__(self):
        _positive(self.modulus, "modulus")
        _held(f"the core length at modulus {self.modulus!r} overflows", self.core_length)

    @property
    def extremal_length(self) -> float:
        return 1.0 / self.modulus

    @property
    def core_length(self) -> float:
        # via the extremal length so that core = pi * extremal holds exactly
        return math.pi * self.extremal_length


def annulus_quantities(modulus: float) -> tuple[float, float]:
    """(extremal length, hyperbolic core length) of an annulus."""
    annulus = Annulus(modulus)
    return annulus.extremal_length, annulus.core_length


def annulus_from_core_length(length: float) -> Annulus:
    """Annulus whose hyperbolic core geodesic has the given length.

    Refuses a length that is not a positive finite number with ValueError.
    """
    length = _positive(length, "core length")
    (modulus,) = _held(f"the modulus at core length {length!r} overflows", math.pi / length)
    return Annulus(modulus)


def _check_solve(classes, grid_n: int, levels: int):
    if any(c not in CURVE_CLASSES for c in classes):  # a tuple: unhashables are unknown too
        raise ValueError(f"curve_class must be one of {CURVE_CLASSES}")
    _counts("grid_n and levels", grid_n, levels)
    _counts("levels", levels, least=2)
    # a right shift, since 1 << (levels - 1) is a huge int for a huge levels
    coarsest = grid_n >> (levels - 1)
    if coarsest << (levels - 1) != grid_n or coarsest < MIN_GRID:
        raise ValueError(
            f"grid_n must be a multiple of 2^(levels-1) with coarsest level >= {MIN_GRID}"
        )
    if grid_n > GRID_CAP:
        raise ResourceLimitError(
            f"grid_n {grid_n} exceeds the cap {GRID_CAP}; the finest grid has "
            "grid_n^2 nodes"
        )


def _metric_form(tau: complex) -> np.ndarray:
    re, im = tau.real, tau.imag
    with np.errstate(over="ignore"):  # an overflow is refused below, without a warning
        form = np.array([[re * re + im * im, -re], [-re, 1.0]]) / im
    if not np.isfinite(form).all():
        raise FloatingPointError(f"the metric form of tau = {tau} overflows")
    return form


def _local_stiffness(verts: np.ndarray, form: np.ndarray) -> np.ndarray:
    # gradients of the barycentric coordinates on one triangle
    t = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
    area = abs(np.linalg.det(t)) / 2.0
    tinv = np.linalg.inv(t)
    grads = np.vstack([-(tinv[0] + tinv[1]), tinv[0], tinv[1]]).T  # 2 x 3
    return area * grads.T @ form @ grads


#: Node offsets (di, dj) of the seven-point stencil.
_OFFSETS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))


def _stencil(tau: complex, n: int) -> np.ndarray:
    """Stiffness coupling of any node to its neighbour at each of _OFFSETS."""
    form = _metric_form(tau)
    coeffs = dict.fromkeys(_OFFSETS, 0.0)
    # the two triangles of the cell at (i, j), as corner offsets
    for corners in (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1))):
        kloc = _local_stiffness(np.array(corners, float) / n, form)
        for a, (ia, ja) in enumerate(corners):
            for b, (ib, jb) in enumerate(corners):
                coeffs[ib - ia, jb - ja] += kloc[a, b]
    # -d takes +d's sum, which the other order can round apart: K is symmetric
    return np.array([coeffs[max(d, (-d[0], -d[1]))] for d in _OFFSETS])


def _green_row(tau: complex, n: int) -> np.ndarray:
    """G from node (0, 0) to each node (i, 0): 1/K's symbol, summed over k2, one ifft.

    K's symbol is its row sum, rounded once, minus 4 sum c sin^2(theta/2):
    written as c0 + 2 sum c cos(theta), the small symbols lose digits.
    """
    c = _stencil(tau, n)  # centre, then +-(1, 0), +-(0, 1), +-(1, 1)
    k = np.arange(n)
    half = np.sin(np.pi * k / n) ** 2
    symbol = math.fsum([c[0], 2 * c[1], 2 * c[3], 2 * c[5]]) - 4 * (
        c[1] * half[:, None] + c[3] * half + c[5] * half[(k[:, None] + k) % n]
    )
    symbol[0, 0] = np.inf
    return np.fft.ifft((1.0 / symbol).sum(axis=1)).real / n


@dataclass(frozen=True)
class _Cholesky:
    """L L^T = block, L lower triangular, with L's reciprocal pivots."""

    lower: np.ndarray
    inverse: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """block^-1 rhs for each row of rhs: L y = rhs, then L^T x = y."""
        lower, inverse = self.lower, self.inverse
        y = np.zeros_like(rhs)
        for j in range(len(inverse)):
            y[:, j] = (rhs[:, j] - np.sum(lower[j, :j] * y[:, :j], axis=1)) * inverse[j]
        x = np.zeros_like(rhs)
        for j in reversed(range(len(inverse))):
            x[:, j] = (y[:, j] - np.sum(lower[j + 1 :, j] * x[:, j + 1 :], axis=1)) * inverse[j]
        return x


def splu(block: np.ndarray) -> _Cholesky:
    """Cholesky factor of the SPD slit block, column by column.

    It keeps the name of the SuperLU factor it replaced, since
    perfbench/tracer.py wraps extremal.splu by that name to time the
    factor and its solve() (and reads block.shape).  Raises RuntimeError
    on a pivot <= 0; a NaN one runs on to _solve_grid's refusal.
    """
    m = len(block)
    lower, inverse = np.zeros((m, m)), np.zeros(m)
    for j in range(m):
        row = lower[j, :j]
        pivot = block[j, j] - np.sum(row * row)
        if pivot <= 0.0:
            raise RuntimeError(f"pivot {pivot!r} at row {j} is not positive")
        lower[j, j] = math.sqrt(pivot)
        inverse[j] = 1.0 / lower[j, j]
        dots = np.sum(lower[j + 1 :, :j] * row, axis=1)
        lower[j + 1 :, j] = (block[j + 1 :, j] - dots) * inverse[j]
    return _Cholesky(lower, inverse)


def _solve_grid(tau: complex, s: float, periods_list, n: int) -> list[float]:
    """Discrete minimum energies on the n x n grid, one per period pair.

    Only p1 = p[0], the period around the cycle that carries the slit,
    enters the solve: phi is p1 times the solution for p1 = 1, and a
    pair's energy is p1^2 Q + p^T F p with Q = phi^T K phi for p1 = 1.
    Q is needed, and G's slit block factored, only when some pair has
    p1 != 0 and the slit holds more than one node.
    """
    periods = [np.array(p) for p in periods_list]
    nslit = min(math.floor(s * n + 1e-12), n - 1) + 1  # slit nodes i < nslit of row 0
    quad = 0.0
    if nslit > 1 and any(p[0] for p in periods):
        i = np.arange(nslit)
        with np.errstate(all="ignore"):  # what is not finite is refused below
            block = _green_row(tau, n)[abs(i[:, None] - i)]
            try:
                factor = splu(block)
            except RuntimeError as exc:
                raise FloatingPointError(f"singular slit block at tau = {tau}, n = {n}") from exc
            slit = -(1.0 / n) * i
            gs, g1 = factor.solve(np.stack([slit, np.ones(nslit)]))
            # Q = slit . q, the charges q = G^-1 (slit - mu) summing to zero
            quad = np.sum(slit * gs) - np.sum(gs) ** 2 / np.sum(g1)
    form = _metric_form(tau)
    energies = [float(p[0] * p[0] * quad + p @ form @ p) for p in periods]
    if not all(0.0 < e < math.inf for e in energies):  # nonzero periods: e > 0
        raise FloatingPointError(f"discrete energies {energies} at tau = {tau}, n = {n}")
    return energies


@dataclass(frozen=True)
class ModulusEstimate:
    """Refinement history and verdict for one extremal-length solve."""

    tau: complex
    s: float
    curve_class: str
    grid_n: int
    estimate: float
    error_indicator: float
    extrapolated: float | None
    converged: bool
    history: tuple[tuple[int, float], ...]


def refine_and_extrapolate(values) -> tuple[float | None, float]:
    """(extrapolated value or None, error indicator) from a history.

    Needs at least two levels; the error indicator is |last - previous|.
    With three or more levels and a contracting geometric difference
    pattern, the tail is summed (Richardson for an unknown order);
    otherwise the last value stands.  Refuses a value that is not a finite
    number, or values that are not a sequence, with ValueError, and an error
    or extrapolation that overflows with OverflowError.
    """
    values = _sequence(values, "values", "a sequence of refinement values")
    values = [_number(v, "refinement value") for v in values]
    if len(values) < 2:
        raise ValueError("need at least two refinement levels")
    message = "refinement values must be finite"
    values = [_finite(v, "refinement value", message=message) for v in values]
    d_last = values[-1] - values[-2]
    error = abs(d_last)
    _held(f"the difference of {values[-2:]!r} overflows double precision", error)
    if len(values) < 3:
        return None, error
    d_prev = values[-2] - values[-3]
    if d_prev == 0.0 or not 0.0 < d_last / d_prev < 0.95:
        return values[-1], error
    ratio = d_last / d_prev
    extrapolated = values[-1] + d_last * ratio / (1.0 - ratio)
    _held(f"the extrapolation of {values!r} overflows double precision", extrapolated)
    return extrapolated, error


def _estimates(tau, s: float, classes, grid_n: int, levels: int) -> tuple[ModulusEstimate, ...]:
    """One estimate per class, all classes sharing each grid's one solve."""
    tau, s = _field("tau", tau), _field("s", s)  # the slit chart's rule
    _check_solve(classes, grid_n, levels)
    grids = [grid_n >> k for k in reversed(range(levels))]
    periods = [CLASS_PERIODS[c] for c in classes]
    per_grid = [_solve_grid(tau, s, periods, n) for n in grids]
    out = []
    for curve_class, values in zip(classes, zip(*per_grid)):
        extrapolated, error = refine_and_extrapolate(values)
        out.append(
            ModulusEstimate(
                tau=tau,
                s=s,
                curve_class=curve_class,
                grid_n=grid_n,
                estimate=values[-1],
                error_indicator=error,
                extrapolated=extrapolated,
                converged=error <= CONVERGENCE_RTOL * abs(values[-1]),
                history=tuple(zip(grids, values)),
            )
        )
    return tuple(out)


def slit_torus_extremal_length(
    tau, s: float, curve_class: str, grid_n: int, levels: int = 3
) -> ModulusEstimate:
    """Extremal length of a handle class on the slit torus (tau, s).

    Solves on `levels` grids doubling up to grid_n and reports the finest
    value with its refinement history.  Converged means the last two
    levels agree to 0.5% relative.  (tau, s) goes through the slit chart's
    rule, as a descriptor's does: a point off the chart, or a coordinate
    that is not a number, is refused with ValueError before any solve.
    """
    (estimate,) = _estimates(tau, s, (curve_class,), grid_n, levels)
    return estimate


@dataclass(frozen=True)
class TripleEstimate:
    """Joint estimate of the extremal-length triple of a slit torus."""

    estimates: tuple[ModulusEstimate, ModulusEstimate, ModulusEstimate]

    @property
    def triple(self) -> tuple[float, float, float]:
        return tuple(e.estimate for e in self.estimates)

    @property
    def q_plus_4(self) -> float:
        return q_form(self.triple) + 4.0

    @property
    def error_indicator(self) -> float:
        return max(e.error_indicator for e in self.estimates)

    @property
    def converged(self) -> bool:
        return all(e.converged for e in self.estimates)


def lambda_triple_slit(tau, s: float, grid_n: int, levels: int = 3) -> TripleEstimate:
    """Estimate the full triple (a, b, a b^-1) at one slit-chart point.

    The triple of a genuine surface satisfies Q + 4 <= 0; the numerical
    triple should satisfy it up to a few error indicators, tightening as
    s -> 0 where the exact values land on the boundary sheet.
    """
    return TripleEstimate(estimates=_estimates(tau, s, CURVE_CLASSES, grid_n, levels))
