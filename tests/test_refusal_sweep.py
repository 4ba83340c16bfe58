"""Every spectrum-path, slit-chart and scalar entry point returns finite
values or refuses.

A seeded property sweep: points, words, word lengths, tolerances and scan
ranges are drawn from extreme floats (signed zeros, subnormals, 1e+-300,
+-inf, NaN, the theta edges +-1420 and +-1490) and log-uniform magnitudes,
and chart coordinates and scalar arguments also from values that convert
to a float but are not numbers ("0.5", b"1", True) and from None.  Each
call must return finite values, or raise ValueError, ArithmeticError or
EllipticTraceError with a message that names its cause: never a
TypeError, and never Python's bare "math range error", "float division
by zero" or "math domain error".  A call given a value that is not a
number must refuse.
"""

import dataclasses
import math
from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from holedtorus.charts import (
    SCAN_PLANES,
    EllipticTraceError,
    FNChartPoint,
    lambda_of_punctured_torus,
    strip_of,
    twice_punctured_slit_inclusion,
)
from holedtorus.extremal import (
    Annulus,
    annulus_from_core_length,
    lambda_triple_slit,
    refine_and_extrapolate,
    slit_torus_extremal_length,
)
from holedtorus.fuchsian import fn_to_rep, geodesic_length, length_spectrum, word_trace
from holedtorus.regions import (
    corner_certificate,
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
words = st.sampled_from(["u", "V", "uv", "vv", "uV", "uvUV", "uuvv", "vvvv"])


def call(f, *args):
    """f(*args), or None where it refuses as documented."""
    try:
        return f(*args)
    except REFUSALS as exc:
        assert not any(bare in str(exc) for bare in BARE), repr(exc)
        assert str(exc), repr(exc)
        return None


def refused_if_not_a_number(f, *args, **options):
    """call(f, *args, **options), which must refuse where some positional
    argument, or an item of one, is not a number."""
    result = call(partial(f, **options), *args)
    flat = [v for arg in args for v in (arg if isinstance(arg, (tuple, list)) else [arg])]
    if any(v is None or isinstance(v, (str, bytes, bool)) for v in flat):
        assert result is None, (args, result)
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


@SWEEP
@given(points, words)
def test_per_word_functions_are_finite_or_refuse(point, word):
    rep = call(fn_to_rep, point)
    if rep is None:
        return
    # entries are never NaN; a product of finite factors may overflow to
    # inf (the point (1e-16, 1, 1400) is accepted), which the traces refuse
    assert not np.isnan(rep.A).any() and not np.isnan(rep.B).any()
    assert_finite(call(word_trace, rep, word))
    assert_finite(call(geodesic_length, rep, word))


@SWEEP
@given(points, st.integers(1, 4))
def test_length_spectrum_is_finite_or_refuses(point, max_len):
    rep = call(fn_to_rep, point)
    if rep is not None:
        assert_finite(call(length_spectrum, rep, max_len))


@SWEEP
@given(points, points, st.integers(2, 4), st.one_of(st.just(1e-9), reals))
def test_sigma_is_finite_or_refuses(X, y0, max_len, tol):
    assert_finite(call(sigma_membership, X, y0, max_len, tol))


@SWEEP
@given(points, st.one_of(st.floats(1e-4, 0.1), reals))
def test_corner_is_finite_or_refuses(y0, eps):
    assert_finite(call(corner_certificate, y0, eps))


@SWEEP
@given(points, st.sampled_from(sorted(SCAN_PLANES)), *[st.one_of(moderate, reals)] * 4)
def test_scan_is_finite_or_refuses(y0, plane, lo1, hi1, lo2, hi2):
    ranges = ((lo1, hi1, 3), (lo2, hi2, 3))
    assert_finite(call(scan_sigma_slice, y0, plane, ranges, 3))


# slit points: half ordinary, the rest from extremes and values that are not numbers
taus = st.one_of(
    st.builds(complex, st.floats(-1.0, 1.0), st.floats(0.5, 2.0)),
    st.builds(complex, reals, reals),
    not_numbers,
)
slit_lengths = st.one_of(st.floats(0.0, 0.95), scalars)


@SOLVER_SWEEP
@given(taus, slit_lengths, st.sampled_from(["a", "b", "aB"]))
def test_slit_solver_is_finite_or_refuses(tau, s, curve_class):
    estimate = refused_if_not_a_number(
        slit_torus_extremal_length, tau, s, curve_class=curve_class, grid_n=32, levels=2
    )
    assert_finite(estimate)


@SOLVER_SWEEP
@given(taus, slit_lengths)
def test_slit_triple_is_finite_or_refuses(tau, s):
    triple = refused_if_not_a_number(lambda_triple_slit, tau, s, grid_n=32, levels=2)
    assert_finite(triple)


@SWEEP
@given(taus, slit_lengths)
def test_slit_chart_functions_are_finite_or_refuse(tau, s):
    assert_finite(refused_if_not_a_number(lambda_of_punctured_torus, tau))
    refused_if_not_a_number(twice_punctured_slit_inclusion, s)


@SWEEP
@given(points, st.one_of(moderate, scalars))
def test_lambda_chain_is_finite_or_refuses(y0, modulus):
    assert_finite(refused_if_not_a_number(lambda_chain_check, y0, modulus))


@SWEEP
@given(scalars, st.lists(scalars, min_size=2, max_size=4))
def test_scalar_functions_take_numbers(value, history):
    strip = refused_if_not_a_number(strip_of, value)
    # documented infinities: 1/0 = inf and 1/inf = 0
    assert strip is None or strip.height >= 0.0
    assert_finite(refused_if_not_a_number(refine_and_extrapolate, history))
    annulus = refused_if_not_a_number(Annulus, value)
    if annulus is not None:
        assert_finite((annulus.extremal_length, annulus.core_length))
    annulus = refused_if_not_a_number(annulus_from_core_length, value)
    if annulus is not None:
        assert_finite((annulus.modulus, annulus.extremal_length, annulus.core_length))
