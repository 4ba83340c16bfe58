"""Every public function returns finite values or refuses.

A seeded property sweep: points, words, word lengths, tolerances, counts
and scan ranges are drawn from extreme floats (signed zeros, subnormals,
1e+-300, +-inf, NaN, the theta edges +-1420 and +-1490) and log-uniform
magnitudes, and every number also from values that convert to a float
but are not numbers ("0.5", b"1", True) and from None.  Each call must
return finite values (or one of the documented infinities: a strip
height, an infinite Q), or raise ValueError, ArithmeticError or
EllipticTraceError with a message that names its cause: never a
TypeError, and never Python's bare "math range error", "float division
by zero" or "math domain error".  A call given a value that is not a
number must refuse.

Each sweep records, with @draws, which parameters of which public names
it draws; test_every_public_parameter_is_drawn walks holedtorus.__all__
and fails on a parameter that no sweep draws and that is not exempt.
"""

import dataclasses
import inspect
import math
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
BARE = ("math range error", "float division by zero", "math domain error")

EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308]
EXTREMES += [1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan]
EXTREMES += [1420.0, -1420.0, 1490.0, -1490.0, 1e-170, 1500.0, 3000.0]
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


def counts(*ordinary):
    """Ordinary counts, or values that are not integers."""
    return st.one_of(st.sampled_from(ordinary), not_numbers)


#: the parameters that some sweep draws, by public callable
DRAWN = {}


def draws(f, *parameters):
    """Record that the decorated sweep draws these parameters of f."""
    assert set(parameters) <= set(inspect.signature(f).parameters), (f, parameters)
    DRAWN.setdefault(f, set()).update(parameters)
    return lambda test: test


def call(f, *args):
    """f(*args), or None where it refuses as documented."""
    try:
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


def refused_if_not_a_number(f, *args, **options):
    """call(f, *args, **options), which must refuse where some argument,
    or an item of one at any depth, is not a number.  Bind text arguments
    (a plane, a class, a mark) into f."""
    result = call(partial(f, **options), *args)
    values = _items([*args, *options.values()])
    if any(v is None or isinstance(v, (str, bytes, bool)) for v in values):
        assert result is None, (args, options, result)
    return result


def assert_finite(value):
    """Every number in value, through dataclasses, tuples and lists, is finite."""
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (tuple, list)):
        for item in value:
            assert_finite(item)
    elif isinstance(value, float):
        assert math.isfinite(value), value


@draws(FNChartPoint, "l", "lp", "theta")
@draws(fn_to_rep, "point")
@draws(word_trace, "rep", "word")
@draws(geodesic_length, "rep", "word")
@SWEEP
@given(points, any_words)
def test_per_word_functions_are_finite_or_refuse(point, word):
    rep = call(fn_to_rep, point)
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
@given(points, counts(1, 2, 3, 4))
def test_length_spectrum_is_finite_or_refuses(point, max_len):
    refused_if_not_a_number(enumerate_classes, max_len)
    rep = call(fn_to_rep, point)
    if rep is not None:
        assert_finite(refused_if_not_a_number(length_spectrum, rep, max_len=max_len))
        spectra = refused_if_not_a_number(class_spectra, [rep], max_len=max_len)
        assert spectra is None or np.isfinite(spectra[2]).all()


@draws(sigma_membership, "X", "Y0", "max_len", "tol")
@SWEEP
@given(points, points, counts(2, 3, 4), tols)
def test_sigma_is_finite_or_refuses(X, y0, max_len, tol):
    assert_finite(refused_if_not_a_number(sigma_membership, X, y0, max_len, tol))


@draws(corner_certificate, "Y0", "eps", "max_len", "tol")
@SWEEP
@given(points, st.one_of(st.floats(1e-4, 0.1), scalars), counts(4), tols)
def test_corner_is_finite_or_refuses(y0, eps, max_len, tol):
    assert_finite(refused_if_not_a_number(corner_certificate, y0, eps, max_len, tol))


@draws(scan_sigma_slice, "Y0", "plane", "ranges", "max_len", "tol")
@SWEEP
@given(
    points,
    st.sampled_from([*sorted(SCAN_PLANES), "l-s", None, ["l"]]),
    *[st.one_of(moderate, scalars)] * 4,
    counts(3),
    counts(3),
    counts(3),
    tols,
)
def test_scan_is_finite_or_refuses(y0, plane, lo1, hi1, lo2, hi2, n1, n2, max_len, tol):
    ranges = ((lo1, hi1, n1), (lo2, hi2, n2))
    scan = partial(scan_sigma_slice, plane=plane)
    assert_finite(refused_if_not_a_number(scan, y0, ranges=ranges, max_len=max_len, tol=tol))


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
@given(triples, tols, scalars)
def test_lambda_chart_functions_are_finite_or_refuse(x, tol, t):
    # Q may be infinite, with its sign; its NaN is refused
    refused_if_not_a_number(q_form, x)
    refused_if_not_a_number(region_membership, x, tol)
    refused_if_not_a_number(lambda *x: LambdaTriple(*x).classify(), *x)
    split = refused_if_not_a_number(eigen_split, x)
    assert_finite(split)
    assert_finite(refused_if_not_a_number(region_height, split.zeta if split else x))
    refused_if_not_a_number(lambda zeta, t: EigenSplit(zeta, t).q_value(), x, t)


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
    triples,
    st.sampled_from(["straight", "bent", "curved", None, ["bent"]]),
    tols,
)
def test_descriptors_are_valid_or_refused(chart, tau, s, l, lp, theta, x, mark, tol):
    desc = SurfaceDescriptor(chart, tau, s, l, lp, theta, x, mark)
    call(validate_descriptor, desc, tol)
    assert_finite(call(critical_lengths, desc))
    call(handle_cover, desc)
    pair = [tau.real, tau.imag] if isinstance(tau, complex) else tau
    fields = {"tau": pair, "s": s, "l": l, "lp": lp, "theta": theta, "x": list(x), "mark": mark}
    parsed = call(descriptor_from_json, {"chart": chart, **fields})
    if parsed is not None:
        call(validate_descriptor, parsed, tol)
    refused_if_not_a_number(slit_descriptor, tau, s)
    refused_if_not_a_number(fn_descriptor, l, lp, theta)
    refused_if_not_a_number(lambda_descriptor, x)
    refused_if_not_a_number(torus_descriptor, tau)
    refused_if_not_a_number(partial(twice_punctured_descriptor, mark=mark), tau)


@draws(lambda_chain_check, "Y0", "modulus")
@SWEEP
@given(points, st.one_of(moderate, scalars))
def test_lambda_chain_is_finite_or_refuses(y0, modulus):
    assert_finite(refused_if_not_a_number(lambda_chain_check, y0, modulus))


@draws(strip_of, "lam")
@draws(Strip, "height")
@draws(refine_and_extrapolate, "values")
@draws(Annulus, "modulus")
@draws(annulus_quantities, "modulus")
@draws(annulus_from_core_length, "length")
@SWEEP
@given(scalars, st.lists(scalars, min_size=2, max_size=4), taus)
def test_scalar_functions_take_numbers(value, history, tau):
    for strip in (refused_if_not_a_number(strip_of, value), refused_if_not_a_number(Strip, value)):
        # documented infinities: 1/0 = inf and 1/inf = 0
        assert strip is None or strip.height >= 0.0
        if strip is not None:
            refused_if_not_a_number(strip.contains, tau)
    assert_finite(refused_if_not_a_number(refine_and_extrapolate, history))
    assert_finite(refused_if_not_a_number(annulus_quantities, value))
    annulus = refused_if_not_a_number(Annulus, value)
    if annulus is not None:
        assert_finite((annulus.extremal_length, annulus.core_length))
    annulus = refused_if_not_a_number(annulus_from_core_length, value)
    if annulus is not None:
        assert_finite((annulus.modulus, annulus.extremal_length, annulus.core_length))


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
}


@pytest.mark.parametrize("probe, name", PROBES.values(), ids=PROBES)
def test_arguments_that_break_their_rule_are_refused_by_name(probe, name):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        probe()
