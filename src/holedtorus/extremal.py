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
coupled along -d as along +d, so _stencil's four coefficients hold it.
The cross term of phi with the linear part is zero, as each hat
function's gradient integrates to zero over its six triangles, so the
energy is phi^T K phi + p^T F p.  The slit is snapped to
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
fixes the gauge c.  The slit block G[|i - j|] = L L^T is SPD: one
elimination carries the slit data s and the constants as two more rows of
L, which come out as L^-1 s and L^-1 1, and Q = s G^-1 s - (1 G^-1 s)^2 /
1 G^-1 1 is the least |L^-1 (s - mu)|^2 over mu, a sum of squares with no
back substitution.  These are numpy elementwise products and pairwise
sums along a contiguous axis in a fixed order, with no np.linalg call and
no BLAS dot, and p^T F p is Python float arithmetic in the order of
p @ F @ p, so no energy depends on the BLAS thread count.  The stencil's
triangle geometry and the symbol's sines are taken once per n.  Both
triangles' local stiffnesses are one stacked np.matmul, whose rounding is
the numpy/BLAS build's, and the stencil's bits depend on n through
np.linalg.det, which numpy takes as sign exp(sum log|u_ii|): a triangle's
doubled area is exp(log h + log h), which at h = 1/64 reads
0x1.0000000000003p-12, while inv is exact at power-of-two n.  So at tau =
i the stencil is (4, -1, -1, 0)(1 + k 2^-52), with k = 1, 0, 3, 2, 2 at
n = 16, 32, 64, 128, 256.

The discrete value overestimates the extremal length of the snapped slit.
When s times the coarsest n is an integer, the slit is the same on every
level, the doubled grids' spaces nest and the values decrease toward the
true extremal length.  Otherwise the history need not decrease: at tau =
i, class b and n = 32, 64, 128, s = 0.9 gives 2.15862, 2.18875, 2.20409.
A grid_n above GRID_CAP = 512 is refused with ResourceLimitError before
anything is allocated; a metric form, stencil, factor or energy that
double precision cannot hold raises FloatingPointError, which names an
underflowed metric form (|tau|^2 / Im tau = 0.0) as the cause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
#: Tests solve at the cap itself; the golden file stops at 128 and the
#: benchmark workloads at 256.
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


def _metric_form(tau: complex) -> tuple[float, float, float]:
    """F's entries (f00, f01, f11), f10 being f01: (|tau|^2, -Re tau, 1)/Im tau."""
    re, im = tau.real, tau.imag
    form = ((re * re + im * im) / im, -re / im, 1.0 / im)  # Python floats overflow quietly
    if not all(map(math.isfinite, form)):
        raise FloatingPointError(f"the metric form of tau = {tau} overflows")
    return form


def _gradients(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(area grads^T, grads): a triangle's area and its barycentric coordinates' gradients."""
    t = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
    area = abs(np.linalg.det(t)) / 2.0
    tinv = np.linalg.inv(t)
    grads = np.vstack([-(tinv[0] + tinv[1]), tinv[0], tinv[1]]).T  # 2 x 3
    return area * grads.T, grads


@lru_cache(maxsize=GRID_CAP - MIN_GRID + 1)
def _cell_triangles(n: int) -> tuple:
    """The cell's two triangles stacked, what _stencil sums of them, and 4 sin^2(pi k/n).

    (area grads^T, grads) of each triangle as (2, 3, 2) and (2, 2, 3)
    arrays, (index, k) to add the flattened local stiffnesses' entry index
    to c[k], and _green_row's h4.  None of it depends on tau, so it is
    taken once per grid size n and kept read-only; the closed-form stencil
    (ROADMAP item 2) deletes all but h4.
    """
    keys, geometry, terms = [(0, 0), (1, 0), (0, 1), (1, 1)], [], []
    # the two triangles of the cell at (i, j), as corner offsets
    for t, corners in enumerate((((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))):
        for a, (ia, ja) in enumerate(corners):
            for b, (ib, jb) in enumerate(corners):
                d = ib - ia, jb - ja
                if d in keys:  # K couples -d as +d: one sum serves each pair
                    terms.append((9 * t + 3 * a + b, keys.index(d)))
        geometry.append(_gradients(np.array(corners, float) / n))
    scaled, grads = map(np.stack, zip(*geometry))
    h4 = 4.0 * np.sin(np.pi * np.arange(n) / n) ** 2  # 4 sin^2(theta/2)
    for array in (scaled, grads, h4):
        array.flags.writeable = False
    return scaled, grads, tuple(terms), h4


def _stencil(tau: complex, n: int) -> np.ndarray:
    """K's coefficients: the node, then one each along +-(1, 0), +-(0, 1), +-(1, 1).

    Both triangles' local stiffnesses area grads^T F grads come from one
    stacked np.matmul, in that order.  A coefficient that overflows is
    refused with FloatingPointError.
    """
    f00, f01, f11 = _metric_form(tau)
    scaled, grads, terms, _ = _cell_triangles(n)
    kloc = (scaled @ np.array([[f00, f01], [f01, f11]]) @ grads).ravel().tolist()
    coeffs = [0.0] * 4
    for index, k in terms:
        coeffs[k] += kloc[index]
    if not all(map(math.isfinite, coeffs)):
        raise FloatingPointError(f"the stencil of tau = {tau} at n = {n} overflows")
    return np.array(coeffs)


def _green_row(tau: complex, n: int) -> np.ndarray:
    """G from node (0, 0) to each node (i, 0): 1/K's symbol, summed over k2, one ifft.

    K's symbol is its row sum, rounded once, minus 4 sum c sin^2(theta/2):
    written as c0 + 2 sum c cos(theta), the small symbols lose digits.
    The 4 is on the n sines, not the n x n sums: scaling by 4 commutes with
    each rounding while products and sums stay normal, so c1 (4 h1) + ... is
    4 (c1 h1 + ...) bit for bit.  On c, 4 c overflows for some accepted forms.
    """
    c = _stencil(tau, n)  # centre, then +-(1, 0), +-(0, 1), +-(1, 1)
    h4 = _cell_triangles(n)[3]  # 4 sin^2(theta/2)
    # row k1 of c3 h4 taken twice, read from k1 on, is c3 h4[(k1 + k2) % n]: a view
    diagonal = np.ndarray((n, n), buffer=np.concatenate([c[3] * h4] * 2), strides=(8, 8))
    # one n x n buffer, updated in place in the order of c0' - (c1 h4_1 + c2 h4_2 + c3 h4_12)
    symbol = c[1] * h4[:, None] + c[2] * h4
    symbol += diagonal
    np.subtract(math.fsum([c[0], 2 * c[1], 2 * c[2], 2 * c[3]]), symbol, out=symbol)
    symbol[0, 0] = np.inf
    np.divide(1.0, symbol, out=symbol)
    return np.fft.ifft(np.add.reduce(symbol, axis=1)).real / n


@dataclass(frozen=True)
class _Cholesky:
    """The SPD slit block, held until solve() eliminates it."""

    block: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """L^-1 rhs for each row of rhs, where L L^T = block: one column loop.

        rhs rides below the block as more rows of L, which come out as L^-1
        rhs.  Column j takes one reduction, L[j:, :j] L[j, :j] pairwise along
        each contiguous row as one np.add.reduce per dot, so no bit depends on the
        batching.  The first dot comes off block[j, j] in Python floats: the
        pivot.  The rest come off column j in place, which then scales by
        1 / L[j, j].  Raises RuntimeError on a pivot <= 0; a NaN one runs on to
        _solve_grid's refusal.
        """
        lower = np.concatenate([self.block, rhs])  # [L; L^-1 rhs] below the diagonal, in place
        reduce, sqrt = np.add.reduce, math.sqrt
        for j, diagonal in enumerate(self.block.diagonal().tolist()):
            dots = reduce(lower[j:, :j] * lower[j, :j], axis=1)
            pivot = diagonal - dots.item(0)
            if pivot <= 0.0:
                raise RuntimeError(f"pivot {pivot!r} at row {j} is not positive")
            lower[j, j] = ljj = sqrt(pivot)
            col = lower[j + 1 :, j]
            col -= dots[1:]
            col *= 1.0 / ljj
        return lower[len(self.block) :]


def splu(block: np.ndarray) -> _Cholesky:
    """The slit block's Cholesky elimination, run by its solve().

    Both keep the SuperLU names and signatures they replaced, because
    perfbench/tracer.py wraps them by name: splu as extremal.factor
    (reading block.shape), which times only this handle, and solve() as
    extremal.backsolve, which times the whole elimination.
    """
    return _Cholesky(block)


def _solve_grid(tau: complex, s: float, periods_list, n: int) -> list[float]:
    """Discrete minimum energies on the n x n grid, one per period pair.

    Only p1 = p[0], the period around the cycle that carries the slit,
    enters the solve: phi is p1 times the solution for p1 = 1, and a
    pair's energy is p1^2 Q + p^T F p with Q = phi^T K phi for p1 = 1.
    Q is needed, and G's slit block factored, only when some pair has
    p1 != 0 and the slit holds more than one node.
    """
    nslit = min(math.floor(s * n + 1e-12), n - 1) + 1  # slit nodes i < nslit of row 0
    quad = 0.0
    if nslit > 1 and any(p[0] for p in periods_list):
        i = np.arange(nslit)
        with np.errstate(all="ignore"):  # what is not finite is refused below
            row = _green_row(tau, n)
            # G[|i - j|] is strip[nslit - 1 - i + j]: a view, with no nslit^2 gather
            strip = np.concatenate([row[nslit - 1 : 0 : -1], row[:nslit]])
            block = np.ndarray(
                (nslit, nslit), buffer=strip, offset=8 * (nslit - 1), strides=(-8, 8)
            )
            rhs = np.empty((2, nslit))
            rhs[0], rhs[1] = -(1.0 / n) * i, 1.0  # the slit's values, and the constants
            try:
                ys, y1 = splu(block).solve(rhs)
            except RuntimeError as exc:
                raise FloatingPointError(f"singular slit block at tau = {tau}, n = {n}") from exc
            # Q = min over mu of |L^-1 (slit - mu)|^2: ys with the gauge y1 projected out
            gauge = np.add.reduce(y1 * ys) / np.add.reduce(y1 * y1)
            quad = np.add.reduce((ys - gauge * y1) ** 2)
    f00, f01, f11 = _metric_form(tau)
    energies = [  # p^T F p in the rounding order of p @ F @ p
        float(p0 * p0 * quad + ((p0 * f00 + p1 * f01) * p0 + (p0 * f01 + p1 * f11) * p1))
        for p0, p1 in periods_list
    ]
    if not all(0.0 < e < math.inf for e in energies):  # nonzero periods: e > 0
        cause = "" if f00 else ": the metric form underflows (|tau|^2 / Im tau = 0.0)"
        raise FloatingPointError(f"discrete energies {energies} at tau = {tau}, n = {n}{cause}")
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
    return _extrapolate([_finite(v, "refinement value", message=message) for v in values])


def _extrapolate(values: list[float]) -> tuple[float | None, float]:
    """refine_and_extrapolate's arithmetic and result checks, on two or more finite floats."""
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
    # _solve_grid refuses what is not finite and positive: only the results need checks
    for curve_class, values in zip(classes, map(list, zip(*per_grid))):
        extrapolated, error = _extrapolate(values)
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
