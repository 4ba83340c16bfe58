"""Every spectrum-path entry point returns finite values or refuses.

A seeded property sweep: points, words, word lengths, tolerances and scan
ranges are drawn from extreme floats (signed zeros, subnormals, 1e+-300,
+-inf, NaN, the theta edges +-1420 and +-1490) and log-uniform magnitudes.
Each call must return finite values, or raise ValueError, ArithmeticError
or EllipticTraceError with a message that names its cause: never Python's
bare "math range error", "float division by zero" or "math domain error".
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from holedtorus.charts import SCAN_PLANES, EllipticTraceError, FNChartPoint
from holedtorus.fuchsian import fn_to_rep, geodesic_length, length_spectrum, word_trace
from holedtorus.regions import corner_certificate, scan_sigma_slice, sigma_membership

SWEEP = settings(derandomize=True, max_examples=120, deadline=None, database=None)
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
# half the points, and half the coordinates of the rest, are ordinary,
# so that refusals are met past the descriptor checks too
moderate = st.floats(0.01, 4.0)
coordinates = st.one_of(moderate, reals)
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
@given(points, st.sampled_from(sorted(SCAN_PLANES)), *[st.one_of(moderate, coordinates)] * 4)
def test_scan_is_finite_or_refuses(y0, plane, lo1, hi1, lo2, hi2):
    ranges = ((lo1, hi1, 3), (lo2, hi2, 3))
    assert_finite(call(scan_sigma_slice, y0, plane, ranges, 3))
