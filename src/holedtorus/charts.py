"""Coordinate charts on the space of marked once-holed tori.

A marked once-holed torus carries an ordered pair (a, b) of simple loops
meeting once; the third handle class used throughout is a b^-1.  Three
charts appear here:

* slit chart (tau, s): the flat torus C/(Z + tau Z) with the horizontal
  segment [0, s] removed, Im tau > 0 and 0 <= s < 1.  s = 0 leaves a
  once-punctured torus.
* Fenchel-Nielsen chart (l, l', theta): hyperbolic length of the
  a-geodesic, infimal length of the boundary (commutator) class, and the
  twist along the a-geodesic.  l' = 0 exactly for once-punctured tori.
* Lambda chart x = (x1, x2, x3): extremal lengths of the classes a, b,
  a b^-1.

The Lambda chart fills the region {x in R_+^3 : Q(x) + 4 <= 0} for the
quadratic form Q below.  Once-punctured tori land on the boundary sheet
Q(x) + 4 = 0, everything else in the open interior.  Q has eigenvalue -1
on the diagonal line spanned by e = (1, 1, 1)/sqrt(3) and eigenvalue 2 on
the orthogonal plane x1 + x2 + x3 = 0, so splitting x = zeta + t*e turns
the boundary sheet into the graph t = sqrt(2*|zeta|^2 + 4) over the plane.

Critical lengths bound which slit tori map holomorphically into Y0 in a
handle-preserving way.  Which of them is computable depends on the input
chart: hyperbolic data gives lambda_a = l(Y0)/pi (and lambda_inf, which
coincides with it), conformal data gives lambda_c = the class-a extremal
length of Y0.  Each produces a horizontal strip of admissible tau.

This module imports no numpy.  Besides the charts it holds what the CLI
needs before it computes anything, so that `chart`, `critical` and the
option parser load nothing heavier: the option defaults and choices
MARGIN_TOL, SCAN_PLANES and CURVE_CLASSES, the EllipticTraceError that
the CLI reports, and the critical lengths with their strips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "CriticalLengths",
    "CriticalValue",
    "DescriptorError",
    "DescriptorReport",
    "EigenSplit",
    "EllipticTraceError",
    "FNChartPoint",
    "LambdaTriple",
    "ResourceLimitError",
    "Strip",
    "StripReport",
    "SurfaceDescriptor",
    "UnsupportedSurfaceError",
    "critical_lengths",
    "descriptor_from_json",
    "descriptor_to_json",
    "eigen_split",
    "fn_descriptor",
    "lambda_descriptor",
    "lambda_of_punctured_torus",
    "q_form",
    "region_height",
    "region_membership",
    "slit_descriptor",
    "strip_of",
    "strip_report",
    "torus_descriptor",
    "twice_punctured_descriptor",
    "twice_punctured_slit_inclusion",
    "validate_descriptor",
]

SQRT3 = math.sqrt(3.0)

#: Default width of the band around Q + 4 = 0 classified as boundary, and
#: the relative slack of region_height's zero-sum test.
BOUNDARY_TOL = 1e-9

#: Default slack of a dominance margin: a class violates only below -tol.
MARGIN_TOL = 1e-9

#: Coordinate planes of a dominance scan, each with its two coordinates.
SCAN_PLANES = {
    "l-lp": ("l", "lp"),
    "l-theta": ("l", "theta"),
    "lp-theta": ("lp", "theta"),
}

#: Handle classes whose extremal length the slit-torus solver computes.
CURVE_CLASSES = ("a", "b", "aB")


class DescriptorError(ValueError):
    """Raised for malformed or out-of-range surface descriptors."""


class ResourceLimitError(ValueError):
    """A scan, enumeration or solve request exceeds the configured budget."""


class UnsupportedSurfaceError(ValueError):
    """The requested construction is not computable for this input."""


class EllipticTraceError(RuntimeError):
    """A word trace fell strictly inside (-2, 2): no geodesic exists."""

    def __init__(self, word: str, trace: float):
        super().__init__(f"elliptic trace {trace!r} for word {word!r}")
        self.word = word
        self.trace = trace


def q_form(x):
    """Evaluate Q(x) = x1^2 + x2^2 + x3^2 - 2(x1 x2 + x2 x3 + x3 x1).

    Accepts any triple of reals (componentwise on array inputs).
    """
    x1, x2, x3 = x
    return x1 * x1 + x2 * x2 + x3 * x3 - 2.0 * (x1 * x2 + x2 * x3 + x3 * x1)


def _check_tol(tol: float):
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def region_membership(x, tol: float = BOUNDARY_TOL) -> str:
    """Classify a triple against the region Q + 4 <= 0 in the open octant.

    Returns "interior", "boundary" (within tol of the sheet Q + 4 = 0),
    or "outside".  Points with a non-positive coordinate are outside
    regardless of Q.  tol must be finite and positive: an infinite one
    would call every point of the octant boundary.
    """
    _check_tol(tol)
    x1, x2, x3 = x
    if not (x1 > 0.0 and x2 > 0.0 and x3 > 0.0):
        return "outside"
    q4 = q_form(x) + 4.0
    if abs(q4) <= tol:
        return "boundary"
    return "interior" if q4 < 0.0 else "outside"


@dataclass(frozen=True)
class EigenSplit:
    """Decomposition x = zeta + t*e along the eigenspaces of Q.

    zeta lies in the plane x1 + x2 + x3 = 0 (eigenvalue 2) and t is the
    coordinate along e = (1, 1, 1)/sqrt(3) (eigenvalue -1), so that
    Q(x) = 2*|zeta|^2 - t^2.
    """

    zeta: tuple[float, float, float]
    t: float

    def reconstruct(self) -> tuple[float, float, float]:
        step = self.t / SQRT3
        z1, z2, z3 = self.zeta
        return (z1 + step, z2 + step, z3 + step)

    def q_value(self) -> float:
        z1, z2, z3 = self.zeta
        return 2.0 * (z1 * z1 + z2 * z2 + z3 * z3) - self.t * self.t


def eigen_split(x) -> EigenSplit:
    """Split a triple into its zero-sum part and its diagonal coordinate."""
    x1, x2, x3 = (float(x[0]), float(x[1]), float(x[2]))
    mean = (x1 + x2 + x3) / 3.0
    return EigenSplit(zeta=(x1 - mean, x2 - mean, x3 - mean), t=SQRT3 * mean)


def region_height(zeta) -> float:
    """Height of the boundary sheet over a point of the zero-sum plane.

    For zeta with zeta1 + zeta2 + zeta3 = 0, returns the unique t > 0 with
    Q(zeta + t*e) + 4 = 0, namely sqrt(2*|zeta|^2 + 4).
    """
    z1, z2, z3 = (float(zeta[0]), float(zeta[1]), float(zeta[2]))
    scale = max(1.0, abs(z1), abs(z2), abs(z3))
    if abs(z1 + z2 + z3) > BOUNDARY_TOL * scale:
        raise ValueError("zeta must lie in the plane x1 + x2 + x3 = 0")
    r2 = z1 * z1 + z2 * z2 + z3 * z3
    t = math.sqrt(2.0 * r2 + 4.0)
    # min coordinate of zeta + t*e is >= sqrt((2r^2+4)/3) - r*sqrt(2/3) > 0,
    # so the reconstructed point always stays in the open octant.
    point = EigenSplit(zeta=(z1, z2, z3), t=t).reconstruct()
    if min(point) <= 0.0:
        raise ArithmeticError("boundary point left the open octant")
    return t


def lambda_of_punctured_torus(tau) -> tuple[float, float, float]:
    """Extremal-length triple (a, b, a b^-1) of the once-punctured torus.

    The puncture is negligible for extremal length, so the values are the
    flat-torus ones: (1/Im tau, |tau|^2/Im tau, |1 - tau|^2/Im tau).
    """
    tau = complex(tau)
    y = tau.imag
    if not y > 0.0:
        raise ValueError("tau must satisfy Im tau > 0")
    return (1.0 / y, abs(tau) ** 2 / y, abs(1.0 - tau) ** 2 / y)


@dataclass(frozen=True)
class Strip:
    """Open horizontal strip {0 < Im z < height} in the upper half plane.

    height may be math.inf (the whole half plane) or 0 (the empty set).
    """

    height: float

    def __post_init__(self):
        if math.isnan(self.height) or self.height < 0.0:
            raise ValueError("strip height must be a nonnegative real or inf")

    def contains(self, tau) -> bool:
        return 0.0 < complex(tau).imag < self.height


def strip_of(lam: float) -> Strip:
    """Strip of height 1/lam, with 1/0 = inf and 1/inf = 0."""
    lam = float(lam)
    if math.isnan(lam) or lam < 0.0:
        raise ValueError("extremal length must be a nonnegative real or inf")
    if lam == 0.0:
        return Strip(math.inf)
    if math.isinf(lam):
        return Strip(0.0)
    return Strip(1.0 / lam)


class LambdaTriple(NamedTuple):
    x1: float
    x2: float
    x3: float

    def classify(self) -> str:
        return region_membership(self)


class FNChartPoint(NamedTuple):
    l: float
    lp: float
    theta: float


#: Chart tags understood by SurfaceDescriptor.  "torus" and
#: "twice_punctured" are reference fixtures rather than charts proper:
#: a marked torus (no hole), and the twice-punctured torus
#: C/(Z + tau Z) minus {0, 1/2} with marked loops described below.
CHART_TAGS = ("slit", "fn", "lambda", "torus", "twice_punctured")

#: Marks carried by the twice-punctured fixture.  Both variants share the
#: a-mark, the projection of the horizontal segment [tau/2, 1 + tau/2].
#: "straight" uses the vertical segment [3/4, 3/4 + tau] as b-mark;
#: "bent" replaces it with the polygonal detour
#: [-1/4, tau/4] + [tau/4, 1/2 - tau/4] + [1/2 - tau/4, 3/4 + tau].
TWICE_PUNCTURED_MARKS = ("straight", "bent")


@dataclass(frozen=True)
class SurfaceDescriptor:
    """Tagged union of the chart and fixture inputs accepted by the CLI."""

    chart: str
    tau: complex | None = None
    s: float | None = None
    l: float | None = None
    lp: float | None = None
    theta: float | None = None
    x: LambdaTriple | None = None
    mark: str | None = None


def slit_descriptor(tau, s) -> SurfaceDescriptor:
    return SurfaceDescriptor(chart="slit", tau=complex(tau), s=float(s))


def fn_descriptor(l, lp, theta) -> SurfaceDescriptor:
    return SurfaceDescriptor(chart="fn", l=float(l), lp=float(lp), theta=float(theta))


def lambda_descriptor(x) -> SurfaceDescriptor:
    return SurfaceDescriptor(chart="lambda", x=LambdaTriple(*map(float, x)))


def torus_descriptor(tau) -> SurfaceDescriptor:
    return SurfaceDescriptor(chart="torus", tau=complex(tau))


def twice_punctured_descriptor(tau, mark: str) -> SurfaceDescriptor:
    return SurfaceDescriptor(chart="twice_punctured", tau=complex(tau), mark=mark)


@dataclass(frozen=True)
class DescriptorReport:
    descriptor: SurfaceDescriptor
    once_punctured: bool
    notes: tuple[str, ...]


def _require(cond: bool, message: str):
    if not cond:
        raise DescriptorError(message)


#: float() and complex() accept these, but a descriptor number must be a number.
_NOT_NUMBERS = (str, bytes, bool)


def _finite(value, name: str) -> float:
    if isinstance(value, _NOT_NUMBERS):
        raise DescriptorError(f"{name} must be a real number")
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise DescriptorError(f"{name} must be a real number") from None
    except OverflowError:  # an int too large for a double
        raise DescriptorError(f"{name} must be finite") from None
    _require(math.isfinite(value), f"{name} must be finite")
    return value


def _upper_half(tau) -> complex:
    if isinstance(tau, _NOT_NUMBERS):
        raise DescriptorError("tau must be a complex number")
    try:
        tau = complex(tau)
    except (TypeError, ValueError):
        raise DescriptorError("tau must be a complex number") from None
    except OverflowError:
        raise DescriptorError("tau must be finite") from None
    _require(math.isfinite(tau.real) and math.isfinite(tau.imag), "tau must be finite")
    _require(tau.imag > 0.0, "tau must satisfy Im tau > 0")
    return tau


def validate_descriptor(desc: SurfaceDescriptor, tol: float = BOUNDARY_TOL) -> DescriptorReport:
    """Check chart invariants, normalize field types, tag boundary cases.

    Boundary-of-space cases (slit s = 0, Fenchel-Nielsen l' = 0, Lambda
    triples on the sheet Q + 4 = 0) are flagged once_punctured.  tol is
    the band around that sheet; it must be finite and positive whatever
    the chart.
    """
    _check_tol(tol)
    notes: list[str] = []
    once_punctured = False
    chart = desc.chart
    if chart == "slit":
        tau = _upper_half(desc.tau)
        s = _finite(desc.s, "s")
        _require(0.0 <= s < 1.0, "s must lie in [0, 1)")
        desc = slit_descriptor(tau, s)
        if s == 0.0:
            once_punctured = True
            notes.append("s = 0: once-punctured torus, boundary of the space")
    elif chart == "fn":
        l = _finite(desc.l, "l")
        lp = _finite(desc.lp, "lp")
        theta = _finite(desc.theta, "theta")
        _require(l > 0.0, "l must be positive")
        _require(lp >= 0.0, "lp must be nonnegative")
        desc = fn_descriptor(l, lp, theta)
        if lp == 0.0:
            once_punctured = True
            notes.append("lp = 0: once-punctured torus, boundary of the space")
    elif chart == "lambda":
        _require(desc.x is not None and len(desc.x) == 3, "x must be a triple")
        x = LambdaTriple(*(_finite(v, "x") for v in desc.x))
        membership = region_membership(x, tol)
        _require(
            membership != "outside",
            "x must lie in the region Q(x) + 4 <= 0 of the open octant",
        )
        desc = SurfaceDescriptor(chart="lambda", x=x)
        if membership == "boundary":
            once_punctured = True
            notes.append("Q(x) + 4 = 0: once-punctured torus, boundary of the space")
    elif chart == "torus":
        desc = torus_descriptor(_upper_half(desc.tau))
        notes.append("marked torus fixture: no hole, every trace length is zero")
    elif chart == "twice_punctured":
        tau = _upper_half(desc.tau)
        _require(
            desc.mark in TWICE_PUNCTURED_MARKS,
            f"mark must be one of {TWICE_PUNCTURED_MARKS}",
        )
        desc = twice_punctured_descriptor(tau, desc.mark)
        notes.append(
            "twice-punctured torus fixture: punctures at 0 and 1/2, "
            f"b-mark variant {desc.mark!r}"
        )
    else:
        raise DescriptorError(f"unknown chart {chart!r}; expected one of {CHART_TAGS}")
    return DescriptorReport(desc, once_punctured, tuple(notes))


def twice_punctured_slit_inclusion(s: float) -> bool:
    """Whether the slit torus at the same tau sits inside the fixture.

    Removing the segment [0, s] removes both punctures 0 and 1/2 exactly
    when s >= 1/2, so the slit surface is then a subset of the fixture.
    This is a set-level statement about the underlying surfaces.
    """
    s = float(s)
    if not 0.0 <= s < 1.0:
        raise ValueError("s must lie in [0, 1)")
    return s >= 0.5


def descriptor_to_json(desc: SurfaceDescriptor) -> dict:
    """Plain-JSON form of a descriptor; complex numbers become [re, im]."""
    if desc.chart == "slit":
        return {"chart": "slit", "tau": [desc.tau.real, desc.tau.imag], "s": desc.s}
    if desc.chart == "fn":
        return {"chart": "fn", "l": desc.l, "lp": desc.lp, "theta": desc.theta}
    if desc.chart == "lambda":
        return {"chart": "lambda", "x": list(desc.x)}
    if desc.chart == "torus":
        return {"chart": "torus", "tau": [desc.tau.real, desc.tau.imag]}
    if desc.chart == "twice_punctured":
        return {
            "chart": "twice_punctured",
            "tau": [desc.tau.real, desc.tau.imag],
            "mark": desc.mark,
        }
    raise DescriptorError(f"unknown chart {desc.chart!r}")


def _json_complex(obj, name: str) -> complex:
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(_finite(obj[0], name), _finite(obj[1], name))
    raise DescriptorError(f"{name} must be a [re, im] pair")


def descriptor_from_json(obj) -> SurfaceDescriptor:
    """Parse the JSON form produced by descriptor_to_json (unvalidated)."""
    if not isinstance(obj, dict):
        raise DescriptorError("descriptor must be a JSON object")
    chart = obj.get("chart")
    try:
        if chart == "slit":
            return SurfaceDescriptor(
                chart="slit", tau=_json_complex(obj["tau"], "tau"), s=obj["s"]
            )
        if chart == "fn":
            return SurfaceDescriptor(
                chart="fn", l=obj["l"], lp=obj["lp"], theta=obj["theta"]
            )
        if chart == "lambda":
            x = obj["x"]
            _require(isinstance(x, (list, tuple)) and len(x) == 3, "x must be a triple")
            return SurfaceDescriptor(chart="lambda", x=LambdaTriple(*x))
        if chart == "torus":
            return SurfaceDescriptor(chart="torus", tau=_json_complex(obj["tau"], "tau"))
        if chart == "twice_punctured":
            return SurfaceDescriptor(
                chart="twice_punctured",
                tau=_json_complex(obj["tau"], "tau"),
                mark=obj.get("mark"),
            )
    except KeyError as missing:
        raise DescriptorError(f"descriptor is missing field {missing}") from None
    raise DescriptorError(f"unknown chart {chart!r}; expected one of {CHART_TAGS}")


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
