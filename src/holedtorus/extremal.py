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

Discretization: piecewise-linear elements on the uniformly triangulated
n x n grid over the fundamental parallelogram (sheared indexing
z = (i + j tau)/n), the multivalued part carried by a fixed linear term
so the unknown is a single-valued grid function.  The slit is snapped
to the grid nodes, [0, floor(s n)/n].  Minimizing over this subspace
overestimates the extremal length of the snapped slit.  When the slit is
the same on every level, that is when s times the coarsest n is an
integer, the doubled grids' spaces nest and the discrete values decrease
toward the true extremal length under refinement.  Otherwise the snapped
slit changes length with n and the history need not decrease: at
tau = i, class b and n = 32, 64, 128, s = 0.9 gives 2.15862, 2.18875,
2.20409, which rises, and s = 0.3 gives 1.07485, 1.07740, 1.07458.  A
grid_n above GRID_CAP = 512 is refused with ResourceLimitError before
anything is allocated.  The linear systems are solved by a
deterministic sparse factorization; outputs are reproducible per grid.
The stiffness matrix and the slit depend only on (tau, s, n), not on the
class, so one factorization per grid serves every class of a surface:
each class costs one back-solve.  scipy loads on the first solve, so
importing this module does not pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charts import ResourceLimitError, q_form

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

CURVE_CLASSES = ("a", "b", "aB")

MIN_GRID = 16

#: Largest grid_n a solve accepts: the finest grid has grid_n^2 unknowns.
#: Twice the largest grid of any test, golden file or benchmark workload.
GRID_CAP = 512

#: Successive refinements must agree to this relative factor to converge.
CONVERGENCE_RTOL = 5e-3


@dataclass(frozen=True)
class Annulus:
    """Conformal annulus known by its modulus."""

    modulus: float

    def __post_init__(self):
        if not self.modulus > 0.0:
            raise ValueError("modulus must be positive")

    @property
    def extremal_length(self) -> float:
        return 1.0 / self.modulus

    @property
    def core_length(self) -> float:
        # via the extremal length so that core = pi * extremal holds exactly
        return math.pi * self.extremal_length


def annulus_quantities(modulus: float) -> tuple[float, float]:
    """(extremal length, hyperbolic core length) of an annulus."""
    return Annulus(modulus).extremal_length, Annulus(modulus).core_length


def annulus_from_core_length(length: float) -> Annulus:
    """Annulus whose hyperbolic core geodesic has the given length."""
    if not length > 0.0:
        raise ValueError("core length must be positive")
    return Annulus(modulus=math.pi / length)


def _load_scipy():
    """Bind scipy.sparse and splu as module globals, keeping any already bound."""
    from scipy import sparse
    from scipy.sparse.linalg import splu

    globals().setdefault("sparse", sparse)
    globals().setdefault("splu", splu)


def __getattr__(name: str):
    # PEP 562: extremal.sparse and extremal.splu resolve before any solve
    if name in ("sparse", "splu"):
        _load_scipy()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _check_solve(tau: complex, s: float, classes, grid_n: int, levels: int):
    if not tau.imag > 0.0:
        raise ValueError("tau must satisfy Im tau > 0")
    if not 0.0 <= s < 1.0:
        raise ValueError("s must lie in [0, 1)")
    if any(c not in CLASS_PERIODS for c in classes):
        raise ValueError(f"curve_class must be one of {CURVE_CLASSES}")
    if levels < 2:
        raise ValueError("levels must be at least 2")
    # a right shift, since 1 << (levels - 1) is a huge int for a huge levels
    coarsest = grid_n >> (levels - 1)
    if coarsest << (levels - 1) != grid_n or coarsest < MIN_GRID:
        raise ValueError(
            f"grid_n must be a multiple of 2^(levels-1) with coarsest level >= {MIN_GRID}"
        )
    if grid_n > GRID_CAP:
        raise ResourceLimitError(
            f"grid_n {grid_n} exceeds the cap {GRID_CAP}; the finest grid has "
            "grid_n^2 unknowns"
        )


def _local_stiffness(verts: np.ndarray, form: np.ndarray) -> np.ndarray:
    # gradients of the barycentric coordinates on one triangle
    t = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
    area = abs(np.linalg.det(t)) / 2.0
    tinv = np.linalg.inv(t)
    grads = np.vstack([-(tinv[0] + tinv[1]), tinv[0], tinv[1]]).T  # 2 x 3
    return area * grads.T @ form @ grads, area * grads.T @ form


def _solve_grid(tau: complex, s: float, periods_list, n: int) -> list[float]:
    """Discrete minimum energies on the n x n grid, one per period pair.

    The stiffness matrix and its factored free block are shared by every
    period pair; each pair adds one back-solve.
    """
    _load_scipy()
    h = 1.0 / n
    re, im = tau.real, tau.imag
    form = np.array([[re * re + im * im, -re], [-re, 1.0]]) / im
    k1, g1 = _local_stiffness(np.array([[0, 0], [h, 0], [h, h]], float), form)
    k2, g2 = _local_stiffness(np.array([[0, 0], [h, h], [0, h]], float), form)

    idx = np.arange(n * n).reshape(n, n)  # idx[j, i], row-major in j
    right = np.roll(idx, -1, axis=1)
    up = np.roll(idx, -1, axis=0)
    upright = np.roll(right, -1, axis=0)
    conn1 = np.stack([idx, right, upright]).reshape(3, -1)
    conn2 = np.stack([idx, upright, up]).reshape(3, -1)

    rows, cols, vals = [], [], []
    for conn, kloc in ((conn1, k1), (conn2, k2)):
        for alpha in range(3):
            for beta in range(3):
                rows.append(conn[alpha])
                cols.append(conn[beta])
                vals.append(np.full(n * n, kloc[alpha, beta]))
    stiffness = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * n, n * n),
    ).tocsr()
    # the triplets take ~9 MB at n = 256: free them before the factorization
    del rows, cols, vals

    # slit nodes: row j = 0, positions i*h on [0, s]; psi = 0 there pins
    # the gauge and, through the carrier, fixes phi = -p1 * i * h.
    nslit = int(math.floor(s * n + 1e-12)) + 1
    slit_nodes = np.arange(nslit)
    free = np.arange(nslit, n * n)
    free_rows = stiffness[free]
    lu = splu(free_rows[:, free].tocsc())

    energies = []
    for periods in periods_list:
        p = np.array(periods)
        carrier = np.zeros(n * n)
        for conn, gloc in ((conn1, g1), (conn2, g2)):
            contrib = gloc @ p
            for alpha in range(3):
                np.add.at(carrier, conn[alpha], contrib[alpha])
        const = float(p @ form @ p)
        slit_values = -p[0] * h * slit_nodes
        rhs = -(free_rows[:, slit_nodes] @ slit_values + carrier[free])
        phi = np.empty(n * n)
        phi[slit_nodes] = slit_values
        phi[free] = lu.solve(rhs)
        energies.append(float(phi @ (stiffness @ phi) + 2.0 * carrier @ phi + const))
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
    otherwise the last value stands.
    """
    values = [float(v) for v in values]
    if len(values) < 2:
        raise ValueError("need at least two refinement levels")
    d_last = values[-1] - values[-2]
    error = abs(d_last)
    if len(values) < 3:
        return None, error
    d_prev = values[-2] - values[-3]
    if d_prev == 0.0 or not 0.0 < d_last / d_prev < 0.95:
        return values[-1], error
    ratio = d_last / d_prev
    return values[-1] + d_last * ratio / (1.0 - ratio), error


def _estimates(tau, s: float, classes, grid_n: int, levels: int) -> tuple[ModulusEstimate, ...]:
    """One estimate per class, all classes sharing each grid's factorization."""
    tau = complex(tau)
    s = float(s)
    _check_solve(tau, s, classes, grid_n, levels)
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
    tau,
    s: float,
    curve_class: str,
    grid_n: int,
    levels: int = 3,
) -> ModulusEstimate:
    """Extremal length of a handle class on the slit torus (tau, s).

    Solves on `levels` grids doubling up to grid_n and reports the finest
    value with its refinement history.  Converged means the last two
    levels agree to 0.5% relative.
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
