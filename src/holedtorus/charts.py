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

A SurfaceDescriptor carries one of these charts or one of two reference
fixtures; CHART_FIELDS lists each one's fields, in the order validation
checks them and the JSON form writes them.  Each chart's domain is stated
once, here: the slit rule in _field (tau, s) and the Fenchel-Nielsen rule
in _fn_chart.  Descriptors and every library entry point that takes those
coordinates refuse through them, with DescriptorError.  So is each rule for
the library's other arguments, one per kind: a sequence (_sequence; _items
for k items), a number (_number), finite (_finite), positive (_positive), a
tolerance (_check_tol) and a count (_counts); and so is the result rule,
_held.  No other module tests a number or a sequence, or raises OverflowError.

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
import numbers
from collections.abc import Iterator, Mapping, Set
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
    """Raised for malformed descriptors and out-of-range chart coordinates,
    and by the argument rules, whichever module's argument they test."""


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


def _finite_triple(x, name: str = "x") -> tuple[float, float, float]:
    x1, x2, x3 = _items(x, name, 3)
    return _finite(x1, name), _finite(x2, name), _finite(x3, name)


def q_form(x):
    """Evaluate Q(x) = x1^2 + x2^2 + x3^2 - 2(x1 x2 + x2 x3 + x3 x1).

    Refuses a non-finite triple with ValueError.  Raises OverflowError where
    the coordinates overflow to NaN (inf - inf); an infinite Q keeps its sign.
    """
    x1, x2, x3 = _finite_triple(x)
    q = x1 * x1 + x2 * x2 + x3 * x3 - 2.0 * (x1 * x2 + x2 * x3 + x3 * x1)
    if math.isnan(q):
        raise OverflowError(f"Q(x) at x = {(x1, x2, x3)!r} overflows double precision")
    return q


def region_membership(x, tol: float = BOUNDARY_TOL) -> str:
    """Classify a triple against the region Q + 4 <= 0 in the open octant.

    Returns "interior", "boundary" (within tol of the sheet Q + 4 = 0),
    or "outside".  Points with a non-positive coordinate are outside
    regardless of Q.  tol must be finite and positive: an infinite one
    would call every point of the octant boundary.  Refuses a non-finite
    triple with ValueError, and a Q that overflows to NaN with
    OverflowError; an infinite Q keeps its verdict.
    """
    _check_tol(tol)
    x1, x2, x3 = _finite_triple(x)
    if not (x1 > 0.0 and x2 > 0.0 and x3 > 0.0):
        return "outside"
    q4 = q_form((x1, x2, x3)) + 4.0
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
        z1, z2, z3 = _finite_triple(self.zeta, "zeta")
        step = _finite(self.t, "t") / SQRT3
        return _held(f"zeta + t*e of {self!r} overflows", z1 + step, z2 + step, z3 + step)

    def q_value(self) -> float:
        """Q at the split point.

        Refuses a non-finite zeta or t with ValueError, and finite parts
        that overflow to NaN with OverflowError.
        """
        z1, z2, z3 = _finite_triple(self.zeta, "zeta")
        t = _finite(self.t, "t")
        q = 2.0 * (z1 * z1 + z2 * z2 + z3 * z3) - t * t
        if math.isnan(q):
            raise OverflowError(
                f"Q(x) at x = zeta + t*e, zeta = {self.zeta!r}, t = {self.t!r}, "
                "overflows double precision"
            )
        return q


def eigen_split(x) -> EigenSplit:
    """Split a triple into its zero-sum part and its diagonal coordinate.

    Refuses a non-finite triple with ValueError, an overflow with OverflowError.
    """
    x1, x2, x3 = _finite_triple(x)
    mean = (x1 + x2 + x3) / 3.0
    message = f"the split of x = {x!r} overflows double precision"
    return EigenSplit(_held(message, x1 - mean, x2 - mean, x3 - mean), SQRT3 * mean)


def region_height(zeta) -> float:
    """Height of the boundary sheet over a point of the zero-sum plane.

    For zeta with zeta1 + zeta2 + zeta3 = 0, returns the unique t > 0 with
    Q(zeta + t*e) + 4 = 0, namely sqrt(2*|zeta|^2 + 4).  Refuses a
    non-finite zeta with ValueError and a height that overflows with
    OverflowError.
    """
    z1, z2, z3 = _finite_triple(zeta, "zeta")
    scale = max(1.0, abs(z1), abs(z2), abs(z3))
    if abs(z1 + z2 + z3) > BOUNDARY_TOL * scale:
        raise ValueError("zeta must lie in the plane x1 + x2 + x3 = 0")
    r2 = z1 * z1 + z2 * z2 + z3 * z3
    t = math.sqrt(2.0 * r2 + 4.0)
    _held(f"the height over zeta = {zeta!r} overflows double precision", t)
    # min coordinate of zeta + t*e is >= sqrt((2r^2+4)/3) - r*sqrt(2/3) > 0,
    # so the reconstructed point always stays in the open octant.
    if min(EigenSplit((z1, z2, z3), t).reconstruct()) <= 0.0:
        raise ArithmeticError("boundary point left the open octant")
    return t


def lambda_of_punctured_torus(tau) -> tuple[float, float, float]:
    """Extremal-length triple (a, b, a b^-1) of the once-punctured torus.

    The puncture is negligible for extremal length, so the values are the
    flat-torus ones: (1/Im tau, |tau|^2/Im tau, |1 - tau|^2/Im tau).
    Refuses through the slit chart's rule for tau, with ValueError, a tau
    that is not a complex number, not finite or has Im tau <= 0; refuses
    values that overflow with OverflowError.
    """
    tau = _field("tau", tau)
    y = tau.imag
    message = f"the extremal lengths at tau = {tau!r} overflow double precision"
    try:
        values = (1.0 / y, abs(tau) ** 2 / y, abs(1.0 - tau) ** 2 / y)
    except OverflowError:  # from abs or float **, whose messages name no cause
        values = (math.inf,)
    return _held(message, *values)


@dataclass(frozen=True)
class Strip:
    """Open horizontal strip {0 < Im z < height} in the upper half plane.

    height may be math.inf (the whole half plane) or 0 (the empty set).
    """

    height: float

    def __post_init__(self):
        height = _number(self.height, "strip height")
        if math.isnan(height) or height < 0.0:
            raise ValueError("strip height must be a nonnegative real or inf")

    def contains(self, tau) -> bool:
        return 0.0 < _finite(tau, "tau", complex).imag < self.height


def strip_of(lam: float) -> Strip:
    """Strip of height 1/lam, with 1/0 = inf and 1/inf = 0.

    Refuses a lam that is not a number (a string, bytes or bool among them)
    or is negative or NaN with ValueError, and raises OverflowError for a
    positive finite lam whose 1/lam overflows.
    """
    lam = _number(lam, "extremal length")
    if math.isnan(lam) or lam < 0.0:
        raise ValueError("extremal length must be a nonnegative real or inf")
    if lam == 0.0:
        return Strip(math.inf)
    if math.isinf(lam):
        return Strip(0.0)
    (height,) = _held(f"the strip height 1/lambda at lambda = {lam!r} overflows", 1.0 / lam)
    return Strip(height)


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


#: Chart tags understood by SurfaceDescriptor, each with its fields in the
#: order they are checked and serialized.  "torus" and "twice_punctured"
#: are reference fixtures rather than charts proper: a marked torus (no
#: hole), and the twice-punctured torus C/(Z + tau Z) minus {0, 1/2} with
#: marked loops described below.
CHART_FIELDS = {
    "slit": ("tau", "s"),
    "fn": ("l", "lp", "theta"),
    "lambda": ("x",),
    "torus": ("tau",),
    "twice_punctured": ("tau", "mark"),
}
#: Membership is tested against this tuple, never as a CHART_FIELDS key:
#: an unhashable chart value must read as unknown, not raise TypeError.
CHART_TAGS = tuple(CHART_FIELDS)

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
    return SurfaceDescriptor(chart="slit", tau=_number(tau, "tau", complex), s=_number(s, "s"))


def fn_descriptor(l, lp, theta) -> SurfaceDescriptor:
    return SurfaceDescriptor(
        chart="fn", l=_number(l, "l"), lp=_number(lp, "lp"), theta=_number(theta, "theta")
    )


def lambda_descriptor(x) -> SurfaceDescriptor:
    x = LambdaTriple(*(_number(v, "x") for v in _items(x, "x", 3)))
    return SurfaceDescriptor(chart="lambda", x=x)


def torus_descriptor(tau) -> SurfaceDescriptor:
    return SurfaceDescriptor(chart="torus", tau=_number(tau, "tau", complex))


def twice_punctured_descriptor(tau, mark: str) -> SurfaceDescriptor:
    return SurfaceDescriptor(chart="twice_punctured", tau=_number(tau, "tau", complex), mark=mark)


@dataclass(frozen=True)
class DescriptorReport:
    descriptor: SurfaceDescriptor
    once_punctured: bool
    notes: tuple[str, ...]


def _require(cond: bool, message: str):
    if not cond:
        raise DescriptorError(message)


#: float() and complex() accept these, but a chart coordinate must be a number.
_NOT_NUMBERS = (str, bytes, bool)


#: Iterating these would take them apart or read only their keys.
_NOT_SEQUENCES = (str, bytes, Mapping, Set)


def _sequence(value, name: str, noun: str, k: int | None = None) -> tuple:
    """value as a tuple, iterated once, of k items if k is given, or DescriptorError
    "<name> must be <noun>".  A scalar, None, str, bytes, a mapping or a set is refused."""
    try:
        items = None if isinstance(value, _NOT_SEQUENCES) else tuple(value)
    except TypeError:  # not iterable
        items = None
    if items is None or k is not None and len(items) != k:
        raise DescriptorError(f"{name} must be {noun}")
    return items


def _read_once(value):
    """value, or its items as a tuple if it is an iterator; refuses nothing."""
    return tuple(value) if isinstance(value, Iterator) else value


def _items(value, name: str, k: int, noun: str = "a triple") -> tuple:
    """_sequence of k items; an exact tuple or FNChartPoint is returned as it is."""
    if type(value) in (tuple, FNChartPoint) and len(value) == k:
        return value
    return _sequence(value, name, noun, k)


def _number(value, name: str, kind=float):
    """value as a kind, or DescriptorError if it is not a number.

    The one type test of every chart coordinate and numeric argument: a
    string, bytes or bool is refused, though kind would convert it.  An
    int too large for a double raises OverflowError.
    """
    if type(value) is kind:
        return value
    if not isinstance(value, _NOT_NUMBERS):
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    noun = "a real number" if kind is float else "a complex number"
    raise DescriptorError(f"{name} must be {noun}")


def _finite(value, name: str, kind=float, message: str = "", where=None):
    """value as a kind, or DescriptorError: _number's if it is not a number,
    else, if it is not finite or where(it) is false, message with {!r} read
    as repr(value) ("<name> must be finite" by default)."""
    try:
        number = _number(value, name, kind)
    except OverflowError:  # an int too large for a double
        number = math.nan
    finite = math.isfinite(number.real) and math.isfinite(number.imag)
    if not (finite and (where is None or where(number))):
        raise DescriptorError((message or f"{name} must be finite").format(value))
    return number


def _held(message: str, *values: float) -> tuple[float, ...]:
    """values, or OverflowError(message) if one is not finite: the result rule."""
    if not all(map(math.isfinite, values)):
        raise OverflowError(message)
    return values


def _positive(value, name: str) -> float:
    """value as a float: a real number, then positive and finite."""
    message = f"{name} must be positive and finite"
    return _finite(value, name, message=message, where=lambda v: v > 0.0)


def _check_tol(tol, nonnegative: bool = False) -> float:
    """tol as a float: finite, and positive or, for a dominance margin, nonnegative.
    Infinite or NaN, it would pass every point; negative, call equal lengths a violation."""
    sign = "nonnegative" if nonnegative else "positive"
    least = (lambda t: t >= 0.0) if nonnegative else (lambda t: t > 0.0)
    return _finite(tol, "tol", message=f"tol must be finite and {sign}, got {{!r}}", where=least)


def _counts(name: str, *values, least: int | None = None, why: str = ""):
    """DescriptorError unless each value is an integer (a bool is not one)
    and, if least is given, at least least; why ends that message."""
    for v in values:
        if type(v) is not int and (isinstance(v, bool) or not isinstance(v, numbers.Integral)):
            noun = "an integer" if len(values) == 1 else "integers"
            raise DescriptorError(f"{name} must be {noun}")
    if least is not None and min(values) < least:
        raise DescriptorError(f"{name} must be at least {least}{why}")


def _field(name: str, value):
    """Normalize one field, or raise DescriptorError: its type, then its
    finiteness, then its range.

    tau and s are the slit chart's rule, coordinate by coordinate: tau is
    every chart's tau, a complex number with Im tau > 0, and s lies in
    [0, 1).  l, lp and theta go through _fn_chart instead.
    """
    if name == "tau":
        tau = _finite(value, "tau", complex)
        _require(tau.imag > 0.0, "tau must satisfy Im tau > 0")
        return tau
    if name == "s":
        s = _finite(value, "s")
        _require(0.0 <= s < 1.0, "s must lie in [0, 1)")
        return s
    if name == "x":
        return LambdaTriple(*_finite_triple(value))
    # the one other field, the twice-punctured fixture's mark
    _require(value in TWICE_PUNCTURED_MARKS, f"mark must be one of {TWICE_PUNCTURED_MARKS}")
    return value


def _fn_chart(point, name: str = "point") -> FNChartPoint:
    """The Fenchel-Nielsen chart's rule: point as an FNChartPoint of floats,
    or DescriptorError for the first violation.

    point, called name in messages, must be a triple (l, lp, theta); then
    each coordinate must be a number, then finite, in that order; then
    l > 0 and lp >= 0.  Descriptors, fn_to_rep and every query that takes an
    FNChartPoint refuse through it.
    """
    l, lp, theta = _items(point, name, 3)
    l, lp, theta = _finite(l, "l"), _finite(lp, "lp"), _finite(theta, "theta")
    _require(l > 0.0, "l must be positive")
    _require(lp >= 0.0, "lp must be nonnegative")
    return FNChartPoint(l, lp, theta)


def validate_descriptor(desc: SurfaceDescriptor, tol: float = BOUNDARY_TOL) -> DescriptorReport:
    """Check chart invariants, normalize field types, tag boundary cases.

    Boundary-of-space cases (slit s = 0, Fenchel-Nielsen l' = 0, Lambda
    triples on the sheet Q + 4 = 0) are flagged once_punctured.  tol is
    the band around that sheet; it must be finite and positive whatever
    the chart.
    """
    _check_tol(tol)
    chart = desc.chart
    if chart not in CHART_TAGS:
        raise DescriptorError(f"unknown chart {chart!r}; expected one of {CHART_TAGS}")
    names = CHART_FIELDS[chart]
    fields = [getattr(desc, name) for name in names]
    values = _fn_chart(fields) if chart == "fn" else map(_field, names, fields)
    desc = SurfaceDescriptor(chart, **dict(zip(names, values)))
    if chart == "torus":
        note = "marked torus fixture: no hole, every trace length is zero"
        return DescriptorReport(desc, False, (note,))
    if chart == "twice_punctured":
        mark = f"b-mark variant {desc.mark!r}"
        note = f"twice-punctured torus fixture: punctures at 0 and 1/2, {mark}"
        return DescriptorReport(desc, False, (note,))
    if chart == "slit":
        edge = "s = 0" if desc.s == 0.0 else None
    elif chart == "fn":
        edge = "lp = 0" if desc.lp == 0.0 else None
    else:
        membership = region_membership(desc.x, tol)
        message = "x must lie in the region Q(x) + 4 <= 0 of the open octant"
        _require(membership != "outside", message)
        edge = "Q(x) + 4 = 0" if membership == "boundary" else None
    if edge is None:
        return DescriptorReport(desc, False, ())
    note = f"{edge}: once-punctured torus, boundary of the space"
    return DescriptorReport(desc, True, (note,))


def twice_punctured_slit_inclusion(s: float) -> bool:
    """Whether the slit torus at the same tau sits inside the fixture.

    Removing the segment [0, s] removes both punctures 0 and 1/2 exactly
    when s >= 1/2, so the slit surface is then a subset of the fixture.
    This is a set-level statement about the underlying surfaces.  s goes
    through the slit chart's rule: a number, finite, in [0, 1).
    """
    return _field("s", s) >= 0.5


def descriptor_to_json(desc: SurfaceDescriptor) -> dict:
    """Plain-JSON form of a descriptor; complex numbers become [re, im]."""
    if desc.chart not in CHART_TAGS:
        raise DescriptorError(f"unknown chart {desc.chart!r}")
    obj = {"chart": desc.chart}
    for name in CHART_FIELDS[desc.chart]:
        value = getattr(desc, name)
        if name == "tau":
            value = [value.real, value.imag]
        elif name == "x":
            value = list(value)
        obj[name] = value
    return obj


def descriptor_from_json(obj) -> SurfaceDescriptor:
    """Parse the JSON form produced by descriptor_to_json (unvalidated).

    A missing mark reads as None, which validation then refuses.
    """
    _require(isinstance(obj, dict), "descriptor must be a JSON object")
    chart = obj.get("chart")
    _require(chart in CHART_TAGS, f"unknown chart {chart!r}; expected one of {CHART_TAGS}")
    fields = {}
    for name in CHART_FIELDS[chart]:
        _require(name in obj or name == "mark", f"descriptor is missing field {name!r}")
        value = obj.get(name)
        if name == "tau":
            re, im = _items(value, "tau", 2, "a [re, im] pair")
            value = complex(_finite(re, "tau"), _finite(im, "tau"))
        elif name == "x":
            value = LambdaTriple(*_items(value, "x", 3))
        fields[name] = value
    return SurfaceDescriptor(chart, **fields)


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
    so lambda_a = lambda_inf = 0 there.  Raises OverflowError when a
    computed length overflows (1/Im tau at a tiny Im tau).
    """
    return _critical(desc)[0]


def _critical(desc: SurfaceDescriptor) -> tuple[CriticalLengths, tuple]:
    """critical_lengths' result, and (meeting tau, note) for lambda_c's ceiling line."""
    desc = validate_descriptor(desc).descriptor
    no_hyperbolic = CriticalValue(
        None, "needs the hyperbolic a-length, which this chart does not carry"
    )
    # where lambda_c's line is met, and the note saying so, unless a chart below says otherwise
    ceiling = desc.tau, "the ceiling line Im tau = 1/lambda_c is met exactly once, at tau itself"
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
        ceiling = None, "the ceiling line is met at exactly one point"
    elif desc.chart == "torus":
        la, lc = CriticalValue(0.0), CriticalValue(1.0 / desc.tau.imag)
        note = (
            "marked torus: geodesic lengths are zero by convention, "
            "so every slit torus dominates it"
        )
    else:  # twice_punctured, the last of the charts that validate_descriptor admits
        la = CriticalValue(
            None, "the hyperbolic a-length of the fixture is not computed here"
        )
        lc = CriticalValue(1.0 / desc.tau.imag)
        note = "twice-punctured fixture: the class-a extremal length is 1/Im tau"
        if desc.mark == "straight":
            ceiling = desc.tau, (
                "the ceiling line is met exactly at tau: the slit [0, 1/2] "
                "covers both punctures, so that slit torus sits inside the fixture"
            )
        else:
            ceiling = None, (
                "the ceiling line is not met: the bent b-mark admits no "
                "embedding at the critical height"
            )
    message = f"the critical lengths of {descriptor_to_json(desc)} overflow double precision"
    _held(message, *(c.value for c in (la, lc) if c.available))
    # lambda_inf coincides with lambda_a on every chart
    return CriticalLengths(lambda_a=la, lambda_c=lc, lambda_inf=la, chart_note=note), ceiling


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
    return _strips(*_critical(desc))


def _strips(crit: CriticalLengths, ceiling: tuple) -> list[StripReport]:
    """strip_report's rows, from _critical's lengths and lambda_c's ceiling line."""
    meeting, meeting_note = ceiling
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
        reports.append(StripReport("lambda_c", lc, strip_of(lc), meeting_note, meeting))
    if crit.lambda_inf.available:
        li = crit.lambda_inf.value
        note = (
            "heights below the ceiling are attained by all sufficiently "
            "long slits; the line itself is not"
        )
        reports.append(StripReport("lambda_inf", li, strip_of(li), note))
    return reports  # every chart gives lambda_a or lambda_c
