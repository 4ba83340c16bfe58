"""Every public function returns finite values or refuses.

A seeded property sweep: points, words, word lengths, tolerances, counts
and scan ranges are drawn from extreme floats (signed zeros, subnormals,
1e+-300, magnitudes near the largest double, +-inf, NaN, the theta edges
+-1420 and +-1490) and log-uniform magnitudes, and every number also from
values that convert to a float but are not numbers ("0.5", b"1", True)
and from None.  Every point, triple, pair and range is also drawn
ill-shaped: a scalar, None, a string, a mapping or a set of the right
size, one item too few or too many, or a nested pair; every sequence of
any length (a history, a list of Representations) as a scalar, None, a
mapping or a set; and every Representation as something else.  Each call
must return finite values (or one of
DOCUMENTED_INFINITIES), or raise ValueError, ArithmeticError or
EllipticTraceError with a message that names its cause: never a
TypeError or an AttributeError, never a warning, and never Python's bare
"math range error", "float division by zero", "math domain error" or
"cannot unpack".  A call given a value that is not a number, or that is
ill-shaped, must refuse.

Each sweep records, with @draws, which parameters of which public names
it draws; test_every_public_parameter_is_drawn walks holedtorus.__all__
and fails on a parameter that no sweep draws and that is not exempt.
"""

import dataclasses
import inspect
import math
import sys
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holedtorus
from holedtorus.charts import (
    CHART_FIELDS,
    SCAN_PLANES,
    EigenSplit,
    EllipticTraceError,
    FNChartPoint,
    LambdaTriple,
    Strip,
    SurfaceDescriptor,
    critical_lengths,
    descriptor_from_json,
    eigen_split,
    fn_descriptor,
    lambda_descriptor,
    lambda_of_punctured_torus,
    q_form,
    region_height,
    region_membership,
    slit_descriptor,
    strip_of,
    torus_descriptor,
    twice_punctured_descriptor,
    twice_punctured_slit_inclusion,
    validate_descriptor,
)
from holedtorus.extremal import (
    Annulus,
    annulus_from_core_length,
    annulus_quantities,
    lambda_triple_slit,
    refine_and_extrapolate,
    slit_torus_extremal_length,
)
from holedtorus.fuchsian import (
    canonical_class,
    class_spectra,
    enumerate_classes,
    fn_to_rep,
    geodesic_length,
    inverse_word,
    length_spectrum,
    reduce_word,
    twist_substitute,
    word_trace,
)
from holedtorus.regions import (
    corner_certificate,
    handle_cover,
    lambda_chain_check,
    scan_sigma_slice,
    sigma_membership,
)

SWEEP = settings(derandomize=True, max_examples=120, deadline=None, database=None)
#: each accepted slit point costs two grid solves
SOLVER_SWEEP = settings(SWEEP, max_examples=40)
REFUSALS = (ValueError, ArithmeticError, EllipticTraceError)
BARE = (
    "math range error",
    "float division by zero",
    "math domain error",
    "unpack",
    "Numerical result out of range",
    "absolute value too large",
)
#: Where a result may be infinite, as the README documents: a strip height
#: (Strip(math.inf), strip_of(0.0)) and Q, which keeps its sign (q_form,
#: EigenSplit.q_value).  A result is never NaN.
DOCUMENTED_INFINITIES = {"Strip.height", "q_form", "EigenSplit.q_value"}

EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308]
EXTREMES += [1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan]
EXTREMES += [1420.0, -1420.0, 1490.0, -1490.0, 1e-170, 1500.0, 3000.0]
#: where a sum or product of finite values overflows, which 1e308 misses
NEAR_MAX = [sys.float_info.max, -sys.float_info.max, 1.7e308, -1.7e308]
EXTREMES += NEAR_MAX
magnitudes = st.builds(
    lambda sign, exponent: sign * 10.0**exponent,
    st.sampled_from([1.0, -1.0]),
    st.floats(-320.0, 308.0),
)
reals = st.one_of(st.sampled_from(EXTREMES), magnitudes)
not_numbers = st.sampled_from(["0.5", b"1", True, False, None])
# what a caller may pass where a number belongs
scalars = st.one_of(reals, not_numbers)
# half the points, and half the coordinates of the rest, are ordinary,
# so that refusals are met past the descriptor checks too
moderate = st.floats(0.01, 4.0)
coordinates = st.one_of(moderate, scalars)
points = st.one_of(
    st.builds(FNChartPoint, moderate, moderate, moderate),
    st.builds(FNChartPoint, coordinates, coordinates, coordinates),
)
triples = st.tuples(coordinates, coordinates, coordinates)
tols = st.one_of(st.just(1e-9), scalars)
words = st.sampled_from(["u", "V", "uv", "vv", "uV", "uvUV", "uuvv", "vvvv"])
# the trivial word, a bad letter, and words that are not strings
any_words = st.one_of(words, st.sampled_from(["", "uU", "x", 5, None, b"uv", ["u"]]))


#: what a caller may pass where a Representation belongs
not_reps = st.sampled_from([5, None, "uv", (2.0, 1.0, 0.5), FNChartPoint(2.0, 1.0, 0.5)])
#: a scalar, None, a mapping and a set, where a sequence of any length belongs
NOT_SEQUENCES = ("scalar", "None", "mapping", "set")


def not_a_sequence(form, item):
    """A value of the given NOT_SEQUENCES form, made from item."""
    return {"scalar": item, "None": None, "mapping": {0: item}, "set": {item}}[form]


def counts(*ordinary):
    """Ordinary counts, or values that are not integers."""
    return st.one_of(st.sampled_from(ordinary), not_numbers)


def ill_shaped(k):
    """Values that are not a sequence of k items: a scalar, None, a string,
    a mapping and a set of k items, one item too few and one too many, and
    a nested pair."""
    values = [2.5, None, "lpt"[:k], dict.fromkeys("abc"[:k], 1.0), set(range(1, k + 1))]
    return st.sampled_from([*values, (1.0,) * (k - 1), (1.0,) * (k + 1), ((1.0, 2.0), (3.0, 4.0))])


def well(values):
    """(value, False) for each value: well-shaped."""
    return values.map(lambda v: (v, False))


def shaped(flagged, k):
    """(value, ill) from flagged, or an ill-shaped value with ill True."""
    return st.one_of(flagged, ill_shaped(k).map(lambda v: (v, True)))


def joined(*flagged):
    """The tuple of several (value, ill) draws, ill if any of them is."""
    return st.tuples(*flagged).map(lambda d: (tuple(v for v, _ in d), any(i for _, i in d)))


shaped_points = shaped(well(points), 3)
shaped_triples = shaped(well(triples), 3)
scan_range = st.tuples(st.one_of(moderate, scalars), st.one_of(moderate, scalars), counts(3))
scan_ranges = shaped(joined(*[shaped(well(scan_range), 3)] * 2), 2)


#: the parameters that some sweep draws, by public callable
DRAWN = {}


def draws(f, *parameters):
    """Record that the decorated sweep draws these parameters of f."""
    assert set(parameters) <= set(inspect.signature(f).parameters), (f, parameters)
    DRAWN.setdefault(f, set()).update(parameters)
    return lambda test: test


def call(f, *args):
    """f(*args), or None where it refuses as documented; a warning fails."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return f(*args)
    except REFUSALS as exc:
        assert not any(bare in str(exc) for bare in BARE), repr(exc)
        assert str(exc), repr(exc)
        return None


def _items(values):
    for v in values:
        if isinstance(v, (tuple, list)):
            yield from _items(v)
        else:
            yield v


def refused_if_not_a_number(f, *args, ill=False, **options):
    """call(f, *args, **options), which must refuse where some argument,
    or an item of one at any depth, is not a number, or where ill (some
    argument is ill-shaped).  Bind text arguments (a plane, a class, a
    mark) into f."""
    result = call(partial(f, **options), *args)
    values = _items([*args, *options.values()])
    if ill or any(v is None or isinstance(v, (str, bytes, bool)) for v in values):
        assert result is None, (args, options, result)
    return result


def assert_finite(value, where=""):
    """Every number in value, through dataclasses, tuples and lists, is
    finite, or is an infinity that DOCUMENTED_INFINITIES lists at where: the
    function that returned it, or Type.field for a dataclass field."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            assert_finite(getattr(value, f.name), f"{type(value).__name__}.{f.name}")
    elif isinstance(value, (tuple, list)):
        for item in value:
            assert_finite(item, where)
    elif isinstance(value, float):
        assert math.isfinite(value) or where in DOCUMENTED_INFINITIES, (where, value)
        assert not math.isnan(value), (where, value)


@draws(FNChartPoint, "l", "lp", "theta")
@draws(fn_to_rep, "point")
@draws(word_trace, "rep", "word")
@draws(geodesic_length, "rep", "word")
@SWEEP
@given(shaped_points, any_words, not_reps)
def test_per_word_functions_are_finite_or_refuse(point, word, other):
    for f in (word_trace, geodesic_length):
        assert call(f, other, word) is None, (f, other, word)
    rep = refused_if_not_a_number(fn_to_rep, point[0], ill=point[1])
    if rep is None:
        return
    # entries are never NaN; a product of finite factors may overflow to
    # inf (the point (1e-16, 1, 1400) is accepted), which the traces refuse
    assert not np.isnan(rep.A).any() and not np.isnan(rep.B).any()
    for f in (word_trace, geodesic_length):
        value = call(f, rep, word)
        assert value is None or isinstance(word, str), (word, value)
        assert_finite(value)


@draws(reduce_word, "word")
@draws(inverse_word, "word")
@draws(twist_substitute, "word")
@draws(canonical_class, "word")
@SWEEP
@given(any_words)
def test_word_algebra_takes_strings(word):
    for f in (reduce_word, inverse_word, twist_substitute, canonical_class):
        value = call(f, word)
        assert value is None or isinstance(word, str) and isinstance(value, str), (f, word)


@draws(length_spectrum, "rep", "max_len")
@draws(class_spectra, "reps", "max_len")
@draws(enumerate_classes, "max_len")
@SWEEP
@given(points, counts(1, 2, 3, 4), not_reps, st.sampled_from(NOT_SEQUENCES))
def test_length_spectrum_is_finite_or_refuses(point, max_len, other, form):
    refused_if_not_a_number(enumerate_classes, max_len)
    for f, reps in ((length_spectrum, other), (class_spectra, [other])):
        assert call(f, reps, max_len) is None, (f, reps)
    rep = call(fn_to_rep, point)
    if rep is not None:
        assert_finite(refused_if_not_a_number(length_spectrum, rep, max_len=max_len))
        spectra = refused_if_not_a_number(class_spectra, [rep], max_len=max_len)
        assert spectra is None or np.isfinite(spectra[2]).all()
        reps = not_a_sequence(form, rep)
        assert call(class_spectra, reps, max_len) is None, reps


@draws(sigma_membership, "X", "Y0", "max_len", "tol")
@SWEEP
@given(shaped_points, shaped_points, counts(2, 3, 4), tols)
def test_sigma_is_finite_or_refuses(X, y0, max_len, tol):
    ill = X[1] or y0[1]
    assert_finite(refused_if_not_a_number(sigma_membership, X[0], y0[0], max_len, tol, ill=ill))


@draws(corner_certificate, "Y0", "eps", "max_len", "tol")
@SWEEP
@given(shaped_points, st.one_of(st.floats(1e-4, 0.1), scalars), counts(4), tols)
def test_corner_is_finite_or_refuses(y0, eps, max_len, tol):
    corner = refused_if_not_a_number(corner_certificate, y0[0], eps, max_len, tol, ill=y0[1])
    assert_finite(corner)


@draws(scan_sigma_slice, "Y0", "plane", "ranges", "max_len", "tol")
@SWEEP
@given(
    shaped_points,
    st.sampled_from([*sorted(SCAN_PLANES), "l-s", None, ["l"]]),
    scan_ranges,
    counts(3),
    tols,
)
def test_scan_is_finite_or_refuses(y0, plane, ranges, max_len, tol):
    (y0, y0_ill), (ranges, ranges_ill) = y0, ranges
    scan = partial(scan_sigma_slice, plane=plane)
    options = {"ranges": ranges, "max_len": max_len, "tol": tol}
    assert_finite(refused_if_not_a_number(scan, y0, ill=y0_ill or ranges_ill, **options))


# slit points: half ordinary, the rest from extremes and values that are not numbers
taus = st.one_of(
    st.builds(complex, st.floats(-1.0, 1.0), st.floats(0.5, 2.0)),
    st.builds(complex, reals, reals),
    not_numbers,
)
slit_lengths = st.one_of(st.floats(0.0, 0.95), scalars)
curve_classes = st.sampled_from(["a", "b", "aB", "c", None, ["b"]])


@draws(slit_torus_extremal_length, "tau", "s", "curve_class", "grid_n", "levels")
@SOLVER_SWEEP
@given(taus, slit_lengths, curve_classes, counts(32), counts(2))
def test_slit_solver_is_finite_or_refuses(tau, s, curve_class, grid_n, levels):
    solve = partial(slit_torus_extremal_length, curve_class=curve_class)
    assert_finite(refused_if_not_a_number(solve, tau, s, grid_n=grid_n, levels=levels))


@draws(lambda_triple_slit, "tau", "s", "grid_n", "levels")
@SOLVER_SWEEP
@given(taus, slit_lengths, counts(32), counts(2))
def test_slit_triple_is_finite_or_refuses(tau, s, grid_n, levels):
    triple = refused_if_not_a_number(lambda_triple_slit, tau, s, grid_n=grid_n, levels=levels)
    assert_finite(triple)


@draws(lambda_of_punctured_torus, "tau")
@draws(twice_punctured_slit_inclusion, "s")
@SWEEP
@given(taus, slit_lengths)
def test_slit_chart_functions_are_finite_or_refuse(tau, s):
    assert_finite(refused_if_not_a_number(lambda_of_punctured_torus, tau))
    refused_if_not_a_number(twice_punctured_slit_inclusion, s)


@draws(q_form, "x")
@draws(region_membership, "x", "tol")
@draws(eigen_split, "x")
@draws(region_height, "zeta")
@draws(LambdaTriple, "x1", "x2", "x3")
@draws(EigenSplit, "zeta", "t")
@SWEEP
@given(shaped_triples, tols, scalars)
def test_lambda_chart_functions_are_finite_or_refuse(x, tol, t):
    x, ill = x
    # Q may be infinite, with its sign; its NaN is refused
    assert_finite(refused_if_not_a_number(q_form, x, ill=ill), "q_form")
    refused_if_not_a_number(region_membership, x, tol, ill=ill)
    if not ill:
        refused_if_not_a_number(lambda *x: LambdaTriple(*x).classify(), *x)
    split = refused_if_not_a_number(eigen_split, x, ill=ill)
    assert_finite(split)
    # an ill-shaped x has no split, so its zeta is x itself
    assert_finite(refused_if_not_a_number(region_height, split.zeta if split else x, ill=ill))
    q_value = refused_if_not_a_number(lambda zeta, t: EigenSplit(zeta, t).q_value(), x, t, ill=ill)
    assert_finite(q_value, "EigenSplit.q_value")
    refused_if_not_a_number(lambda zeta, t: EigenSplit(zeta, t).reconstruct(), x, t, ill=ill)


@draws(SurfaceDescriptor, *CHART_FIELDS["slit"], *CHART_FIELDS["fn"], "x", "mark", "chart")
@draws(validate_descriptor, "desc", "tol")
@draws(critical_lengths, "desc")
@draws(handle_cover, "desc")
@draws(descriptor_from_json, "obj")
@draws(slit_descriptor, "tau", "s")
@draws(fn_descriptor, "l", "lp", "theta")
@draws(lambda_descriptor, "x")
@draws(torus_descriptor, "tau")
@draws(twice_punctured_descriptor, "tau", "mark")
@SWEEP
@given(
    st.sampled_from([*CHART_FIELDS, "hyperbolic", None, ["fn"]]),
    taus,
    slit_lengths,
    *[coordinates] * 3,
    shaped_triples,
    st.sampled_from(["straight", "bent", "curved", None, ["bent"]]),
    tols,
)
def test_descriptors_are_valid_or_refused(chart, tau, s, l, lp, theta, x, mark, tol):
    x, ill = x
    desc = SurfaceDescriptor(chart, tau, s, l, lp, theta, x, mark)
    report = call(validate_descriptor, desc, tol)
    assert report is None or not (ill and chart == "lambda"), (x, report)
    assert_finite(call(critical_lengths, desc))
    call(handle_cover, desc)
    pair = [tau.real, tau.imag] if isinstance(tau, complex) else tau
    as_json = list(x) if isinstance(x, tuple) else x
    fields = {"tau": pair, "s": s, "l": l, "lp": lp, "theta": theta, "x": as_json, "mark": mark}
    parsed = call(descriptor_from_json, {"chart": chart, **fields})
    assert parsed is None or not (ill and chart == "lambda"), (x, parsed)
    if parsed is not None:
        call(validate_descriptor, parsed, tol)
    refused_if_not_a_number(slit_descriptor, tau, s)
    refused_if_not_a_number(fn_descriptor, l, lp, theta)
    refused_if_not_a_number(lambda_descriptor, x, ill=ill)
    refused_if_not_a_number(torus_descriptor, tau)
    refused_if_not_a_number(partial(twice_punctured_descriptor, mark=mark), tau)


@draws(lambda_chain_check, "Y0", "modulus")
@SWEEP
@given(shaped_points, st.one_of(moderate, scalars))
def test_lambda_chain_is_finite_or_refuses(y0, modulus):
    assert_finite(refused_if_not_a_number(lambda_chain_check, y0[0], modulus, ill=y0[1]))


@draws(strip_of, "lam")
@draws(Strip, "height")
@draws(refine_and_extrapolate, "values")
@draws(Annulus, "modulus")
@draws(annulus_quantities, "modulus")
@draws(annulus_from_core_length, "length")
@SWEEP
@given(scalars, st.lists(scalars, min_size=2, max_size=4), taus, st.sampled_from(NOT_SEQUENCES))
def test_scalar_functions_take_numbers(value, history, tau, form):
    for strip in (refused_if_not_a_number(strip_of, value), refused_if_not_a_number(Strip, value)):
        # 1/0 = inf and 1/inf = 0
        assert_finite(strip)
        assert strip is None or strip.height >= 0.0
        if strip is not None:
            refused_if_not_a_number(strip.contains, tau)
    assert_finite(refused_if_not_a_number(refine_and_extrapolate, history))
    refused_if_not_a_number(refine_and_extrapolate, not_a_sequence(form, 1.0), ill=True)
    assert_finite(refused_if_not_a_number(annulus_quantities, value))
    annulus = refused_if_not_a_number(Annulus, value)
    if annulus is not None:
        assert_finite((annulus.extremal_length, annulus.core_length))
    annulus = refused_if_not_a_number(annulus_from_core_length, value)
    if annulus is not None:
        assert_finite((annulus.modulus, annulus.extremal_length, annulus.core_length))


large = st.one_of(st.sampled_from(NEAR_MAX), moderate, st.sampled_from([1e300, -1e300]))


@draws(EigenSplit, "zeta", "t")
@SWEEP
@given(st.tuples(large, large, large), large)
def test_results_near_the_largest_double_are_finite_or_refused(x, t):
    # every result that double precision cannot hold is refused, not returned
    assert_finite(call(lambda: EigenSplit(x, t).reconstruct()))
    assert_finite(call(lambda: EigenSplit(x, t).q_value()), "EigenSplit.q_value")
    split = call(eigen_split, x)
    assert_finite(split)
    assert_finite(call(region_height, split.zeta if split else x))
    assert_finite(call(refine_and_extrapolate, x))
    assert_finite(call(lambda_of_punctured_torus, complex(x[0], abs(x[1]))))
    desc = SurfaceDescriptor("lambda", x=LambdaTriple(*x))
    assert_finite(call(critical_lengths, desc))
    for f in (strip_of, Annulus, annulus_quantities, annulus_from_core_length):
        assert_finite(call(f, abs(t)))
    assert_finite(call(lambda_chain_check, (abs(x[0]), abs(x[1]), x[2]), abs(t)))


#: Public names that no sweep calls: the result types the library builds
#: (a Representation is fn_to_rep's), besides exceptions.
EXEMPT_NAMES = {
    "ChainReport",
    "CornerReport",
    "CriticalLengths",
    "CriticalValue",
    "DescriptorReport",
    "ModulusEstimate",
    "ProbeResult",
    "Representation",
    "ScanGrid",
    "ScanRow",
    "SigmaVerdict",
    "SpectrumEntry",
    "StripReport",
    "TripleEstimate",
}
#: Parameters that no sweep needs to draw: a descriptor, which
#: validate_descriptor refuses or normalizes, and the scan's workers,
#: which has no effect.
EXEMPT_PARAMETERS = {"desc", "workers"}


def test_every_public_parameter_is_drawn():
    missing = []
    for name in holedtorus.__all__:
        obj = getattr(holedtorus, name)
        if name in EXEMPT_NAMES or isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        drawn = DRAWN.get(obj, set()) | EXEMPT_PARAMETERS
        missing += [f"{name}({p})" for p in inspect.signature(obj).parameters if p not in drawn]
    assert missing == []


Y0 = FNChartPoint(2.5709, 1.8978, 0.5998)
X = FNChartPoint(2.6, 1.9, 0.6)
RANGES = ((1.0, 2.0, 3), (0.5, 1.0, 2))
LP_RANGE = RANGES[1]
SLIT_DESCRIPTOR = SurfaceDescriptor("slit", tau=1j, s=0.5)

#: Arguments that raised TypeError, or were accepted, before each rule
#: was stated once; each must now be refused with a message naming it.
PROBES = {
    "sigma-tol": (lambda: sigma_membership(X, Y0, 4, "1e-9"), "tol"),
    "sigma-max_len": (lambda: sigma_membership(X, Y0, "4"), "max_len"),
    "corner-eps": (lambda: corner_certificate(Y0, "0.001"), "eps"),
    "corner-max_len": (lambda: corner_certificate(Y0, 1e-3, "4"), "max_len"),
    "corner-tol": (lambda: corner_certificate(Y0, 1e-3, 4, "1e-9"), "tol"),
    "scan-range-end": (
        lambda: scan_sigma_slice(Y0, "l-lp", (("1", 2, 3), LP_RANGE)),
        "scan range end",
    ),
    "scan-count": (lambda: scan_sigma_slice(Y0, "l-lp", ((1, 2, True), LP_RANGE)), "grid counts"),
    "scan-max_len": (lambda: scan_sigma_slice(Y0, "l-lp", RANGES, "6"), "max_len"),
    "scan-plane": (lambda: scan_sigma_slice(Y0, ["l"], RANGES), "plane"),
    "q_form": (lambda: q_form(("0", "0", "0")), "x"),
    "region_membership-x": (lambda: region_membership((1, 1, "2")), "x"),
    "region_membership-tol": (lambda: region_membership((1, 1, 2), "1e-9"), "tol"),
    "Strip-string": (lambda: Strip("1"), "strip height"),
    "Strip-bool": (lambda: Strip(True), "strip height"),
    "Strip.contains": (lambda: Strip(1.0).contains("0.5j"), "tau"),
    "eigen_split": (lambda: eigen_split(("1", 2, 3)), "x"),
    "region_height": (lambda: region_height(("1", 2, 3)), "zeta"),
    "validate_descriptor-tol": (lambda: validate_descriptor(SLIT_DESCRIPTOR, "1e-9"), "tol"),
    "solver-curve_class": (
        lambda: slit_torus_extremal_length(1j, 0.5, ["b"], 32),
        "curve_class",
    ),
    "enumerate_classes-bool": (lambda: enumerate_classes(True), "max_len"),
    "word_trace": (lambda: word_trace(fn_to_rep(Y0), 5), "word"),
    "canonical_class": (lambda: canonical_class(5), "word"),
    "refine-scalar": (lambda: refine_and_extrapolate(5), "values"),
    "refine-None": (lambda: refine_and_extrapolate(None), "values"),
    "refine-mapping": (lambda: refine_and_extrapolate({1.0: 1, 2.0: 2}), "values"),
    "refine-set": (lambda: refine_and_extrapolate({1.0, 2.0}), "values"),
    "class_spectra-scalar": (lambda: class_spectra(5, 4), "reps"),
    "class_spectra-item": (lambda: class_spectra([5], 4), "rep"),
    "length_spectrum": (lambda: length_spectrum(5, 4), "rep"),
    "word_trace-rep": (lambda: word_trace(5, "u"), "rep"),
    "geodesic_length-rep": (lambda: geodesic_length(None, "uv"), "rep"),
}


@pytest.mark.parametrize("probe, name", PROBES.values(), ids=PROBES)
def test_arguments_that_break_their_rule_are_refused_by_name(probe, name):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        probe()


#: Ill-shaped points, triples and ranges that raised TypeError,
#: AttributeError or a bare "cannot unpack" before the shape rule was
#: stated once; each must now be refused with a message naming it.
SHAPE_PROBES = {
    "lambda_descriptor": (lambda: lambda_descriptor((1, 2)), "x"),
    "validate_descriptor": (lambda: validate_descriptor(SurfaceDescriptor("lambda", x=5)), "x"),
    "q_form": (lambda: q_form(5), "x"),
    "region_height": (lambda: region_height(5), "zeta"),
    "region_membership": (lambda: region_membership((1, 2)), "x"),
    "EigenSplit.reconstruct": (lambda: EigenSplit(("1", 2, 3), 1.0).reconstruct(), "zeta"),
    "scan-ranges": (lambda: scan_sigma_slice(Y0, "l-lp", 5), "ranges"),
    "scan-range": (lambda: scan_sigma_slice(Y0, "l-lp", ((1, 2), (1, 2, 3))), "scan range"),
    "scan-Y0": (lambda: scan_sigma_slice((1.0, 2.0), "l-lp", RANGES), "Y0"),
    "fn_to_rep-pair": (lambda: fn_to_rep((1.0, 2.0)), "point"),
    "fn_to_rep-scalar": (lambda: fn_to_rep(5), "point"),
    "sigma-X": (lambda: sigma_membership((1.0, 2.0), Y0, 4), "X"),
    "corner-pair": (lambda: corner_certificate((1.0, 2.0), 1e-3), "Y0"),
    "corner-scalar": (lambda: corner_certificate(5, 1e-3), "Y0"),
    "lambda_chain_check": (lambda: lambda_chain_check((1.0, 2.0), 1.0), "Y0"),
}


@pytest.mark.parametrize("probe, name", SHAPE_PROBES.values(), ids=SHAPE_PROBES)
def test_ill_shaped_arguments_are_refused_by_name(probe, name):
    with pytest.raises(ValueError, match=f"^{name} must be ") as info:
        probe()
    assert "unpack" not in str(info.value)


#: The same point in each form that unpacks into three numbers.
POINT_FORMS = {
    "tuple": lambda: tuple(Y0),
    "list": lambda: list(Y0),
    "namedtuple": lambda: Y0,
    "array": lambda: np.array(Y0),
    "generator": lambda: (v for v in Y0),
}


@pytest.mark.parametrize("form", POINT_FORMS.values(), ids=POINT_FORMS)
def test_every_sequence_of_the_right_length_is_accepted(form):
    assert fn_to_rep(form()).source == Y0
    assert sigma_membership(form(), form(), 4) == sigma_membership(Y0, Y0, 4)
    assert corner_certificate(form(), 1e-3) == corner_certificate(Y0, 1e-3)
    assert lambda_chain_check(form(), 1.0) == lambda_chain_check(Y0, 1.0)
    # a plain-tuple Y0 and generator ranges scan as an FNChartPoint does
    ranges = (r for r in RANGES)
    assert scan_sigma_slice(form(), "l-lp", ranges) == scan_sigma_slice(Y0, "l-lp", RANGES)
    assert q_form(form()) == q_form(Y0)
    assert lambda_descriptor(form()) == lambda_descriptor(Y0)
