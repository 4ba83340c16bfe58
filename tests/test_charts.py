import json
import math

import numpy as np
import pytest

from holedtorus.charts import (
    CHART_FIELDS,
    DescriptorError,
    EigenSplit,
    FNChartPoint,
    LambdaTriple,
    Strip,
    SurfaceDescriptor,
    descriptor_from_json,
    descriptor_to_json,
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


def test_q_form_frozen_values():
    assert q_form((1.0, 1.0, 2.0)) == -4.0
    assert q_form((1.0, 1.0, 1.0)) == -3.0
    assert q_form((3.0, 4.0, 5.0)) == -44.0


def test_q_form_refuses_a_nan_from_finite_coordinates():
    # Q = -3e400 computes as inf - inf
    with pytest.raises(OverflowError, match=r"Q\(x\) at x = "):
        q_form((1e200, 1e200, 1e200))
    with pytest.raises(OverflowError, match=r"Q\(x\) at x = "):
        eigen_split((1e200, 1.0, 1.0)).q_value()
    assert q_form((1e150, 1e150, 1e150)) == pytest.approx(-3e300)
    # an infinite Q keeps its sign
    assert q_form((1e200, 1.0, 1.0)) == math.inf


@pytest.mark.parametrize("position", range(3))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_q_form_refuses_a_non_finite_triple(position, value):
    x = [1.0, 1.0, 2.0]
    x[position] = value
    with pytest.raises(ValueError, match="^x must be finite$"):
        q_form(x)


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_split_q_value_refuses_non_finite_parts(position, value):
    parts = [0.5, -1.0, 0.5, 2.0]
    parts[position] = value
    split = EigenSplit(tuple(parts[:3]), parts[3])
    name = "t" if position == 3 else "zeta"
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        split.q_value()


def test_q_form_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = tuple(rng.uniform(0.1, 5.0, size=3))
        base = q_form(x)
        assert q_form((x[1], x[2], x[0])) == pytest.approx(base, abs=1e-12)
        assert q_form((x[2], x[1], x[0])) == pytest.approx(base, abs=1e-12)


def test_region_membership_classification():
    assert region_membership((1.0, 1.0, 2.0)) == "boundary"
    assert region_membership((0.5, 2.0, 2.5)) == "boundary"
    # shifting along (1,1,1) moves inward, against it moves outward
    assert region_membership((1.1, 1.1, 2.1)) == "interior"
    assert region_membership((0.9, 0.9, 1.9)) == "outside"


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
def test_region_membership_refuses_bad_tol(tol):
    # an infinite band would call the outside point (1, 1, 5) boundary
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        region_membership((1.0, 1.0, 5.0), tol)


def test_eigen_split_reconstructs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = tuple(rng.uniform(0.1, 6.0, size=3))
        split = eigen_split(x)
        assert sum(split.zeta) == pytest.approx(0.0, abs=1e-12)
        assert split.reconstruct() == pytest.approx(x, abs=1e-12)
        assert split.q_value() == pytest.approx(q_form(x), abs=1e-9)


def test_eigen_split_frozen():
    split = eigen_split((1.0, 1.0, 2.0))
    assert split.t == pytest.approx(4.0 / math.sqrt(3.0), abs=1e-15)
    assert split.zeta == pytest.approx((-1 / 3, -1 / 3, 2 / 3), abs=1e-15)


@pytest.mark.parametrize(
    "x", [(math.inf, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, -math.inf)]
)
def test_eigen_split_refuses_a_non_finite_triple(x):
    with pytest.raises(ValueError, match="x must be finite"):
        eigen_split(x)


@pytest.mark.parametrize("x", [(1e308, 1e308, 1e308), (1e308, 1e308, -1e308)])
def test_eigen_split_refuses_an_overflowing_sum(x):
    # the second sum is 1e308, but x1 + x2 overflows on the way
    with pytest.raises(OverflowError):
        eigen_split(x)
    # a large triple whose split stays finite is still split
    assert eigen_split((1e307, 1e307, 1e307)).zeta == (0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "zeta, t", [((1.7e308, 0.0, 0.0), 1.7e308), ((-1.7976931348623157e308, 0, 0), -1e300)]
)
def test_reconstruct_refuses_an_overflowing_point(zeta, t):
    # finite parts whose sum zeta + t*e leaves double precision
    with pytest.raises(OverflowError, match="^zeta \\+ t\\*e of EigenSplit.* overflows$"):
        EigenSplit(zeta, t).reconstruct()
    assert EigenSplit(zeta, 0.0).reconstruct() == tuple(map(float, zeta))


def test_region_height_matches_boundary_points():
    # the height over the planar part of a boundary point is its own t
    rng = np.random.default_rng(13)
    for _ in range(200):
        re, im = rng.uniform(-2, 2), rng.uniform(0.1, 4)
        x = lambda_of_punctured_torus(complex(re, im))
        split = eigen_split(x)
        assert region_height(split.zeta) == pytest.approx(split.t, rel=1e-12)


def test_region_height_at_origin():
    assert region_height((0.0, 0.0, 0.0)) == pytest.approx(2.0, abs=1e-15)


def test_region_height_reconstruction_is_positive_boundary():
    rng = np.random.default_rng(17)
    e = np.ones(3) / math.sqrt(3.0)
    for _ in range(500):
        raw = rng.uniform(-5, 5, size=3)
        zeta = raw - raw.mean()
        t = region_height(tuple(zeta))
        x = tuple(zeta + t * e)
        assert min(x) > 0.0
        assert q_form(x) + 4.0 == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize(
    "x", [(math.nan, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, -math.inf)]
)
def test_region_membership_refuses_a_non_finite_triple(x):
    with pytest.raises(ValueError, match="x must be finite"):
        region_membership(x)
    with pytest.raises(ValueError, match="x must be finite"):
        LambdaTriple(*x).classify()


def test_region_membership_refuses_a_nan_q():
    # Q = -3e400 is interior, but computes as inf - inf
    with pytest.raises(OverflowError):
        region_membership((1e200, 1e200, 1e200))
    assert region_membership((1e150, 1e150, 1e150)) == "interior"
    # Q = 1e400 overflows to inf, which keeps its verdict
    assert region_membership((1e200, 1.0, 1.0)) == "outside"


@pytest.mark.parametrize("f", [eigen_split, region_height])
@pytest.mark.parametrize(
    "x, error",
    [((0.0, 0.0), ValueError), ((0.0, 0.0, 0.0, 1.0), ValueError), (("0", "0", "0"), ValueError)],
    ids=["two", "four", "strings"],
)
def test_triples_must_be_three_numbers(f, x, error):
    with pytest.raises(error):
        f(x)


def test_region_height_rejects_unbalanced_input():
    with pytest.raises(ValueError):
        region_height((1.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "zeta", [(math.nan, 0.0, 0.0), (math.inf, -math.inf, 0.0)], ids=["nan", "inf"]
)
def test_region_height_refuses_non_finite_zeta(zeta):
    # nan passes the zero-sum test, and so does inf - inf
    with pytest.raises(ValueError, match="finite"):
        region_height(zeta)


def test_region_height_refuses_an_overflowing_height():
    with pytest.raises(OverflowError):
        region_height((1e200, -1e200, 0.0))
    # a large height that stays finite is still returned
    assert region_height((1e150, -1e150, 0.0)) == math.sqrt(4e300 + 4.0)


def test_lambda_of_punctured_torus_frozen():
    assert lambda_of_punctured_torus(1j) == pytest.approx((1.0, 1.0, 2.0), abs=1e-15)
    assert lambda_of_punctured_torus(2j) == pytest.approx((0.5, 2.0, 2.5), abs=1e-15)
    assert lambda_of_punctured_torus(1 + 1j) == pytest.approx(
        (1.0, 2.0, 1.0), abs=1e-15
    )


def test_lambda_of_punctured_torus_lands_on_boundary():
    rng = np.random.default_rng(19)
    for _ in range(300):
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.05, 4))
        x = lambda_of_punctured_torus(tau)
        assert region_membership(x) == "boundary"


def test_lambda_of_punctured_torus_rejects_lower_half():
    with pytest.raises(ValueError):
        lambda_of_punctured_torus(1 - 1j)


@pytest.mark.parametrize(
    "tau", [complex(math.nan, 1.0), complex(math.inf, 1.0)], ids=["nan", "inf"]
)
def test_lambda_of_punctured_torus_refuses_non_finite_tau(tau):
    with pytest.raises(ValueError, match="finite"):
        lambda_of_punctured_torus(tau)


@pytest.mark.parametrize(
    "tau", [1e-320j, 1e200 + 1j, complex(1e308, 1e308)], ids=["1/y", "square", "abs"]
)
def test_lambda_of_punctured_torus_refuses_overflowing_lengths(tau):
    # 1 / Im tau, |tau|^2 or |tau| itself leaves double precision
    with pytest.raises(OverflowError, match="^the extremal lengths at tau = .* overflow double"):
        lambda_of_punctured_torus(tau)


def test_strip_of():
    assert strip_of(2.0).height == 0.5
    assert strip_of(0.0).height == math.inf
    assert strip_of(math.inf).height == 0.0
    # a positive finite length whose 1/lambda overflows is refused
    with pytest.raises(OverflowError):
        strip_of(1e-320)
    assert strip_of(1e-300).height == pytest.approx(1e300)


def test_strip_contains_is_open():
    strip = strip_of(2.0)
    assert strip.contains(0.3 + 0.4j)
    assert not strip.contains(0.5j)
    assert not strip.contains(0.6j)
    assert not strip.contains(-0.1j)
    assert strip_of(0.0).contains(1000j)
    assert not strip_of(math.inf).contains(1e-12j)


def test_strip_rejects_negative_height():
    with pytest.raises(ValueError):
        Strip(-1.0)


def test_lambda_triple_classify():
    assert LambdaTriple(1.0, 1.0, 2.0).classify() == "boundary"
    assert LambdaTriple(1.1, 1.1, 2.1).classify() == "interior"


def test_validate_descriptor_flags_once_punctured():
    assert validate_descriptor(slit_descriptor(1j, 0.0)).once_punctured
    assert not validate_descriptor(slit_descriptor(1j, 0.5)).once_punctured
    assert validate_descriptor(fn_descriptor(2.0, 0.0, 0.3)).once_punctured
    assert not validate_descriptor(fn_descriptor(2.0, 1.0, 0.3)).once_punctured
    assert validate_descriptor(lambda_descriptor((1.0, 1.0, 2.0))).once_punctured
    assert not validate_descriptor(lambda_descriptor((1.1, 1.1, 2.1))).once_punctured


def test_validate_descriptor_rejects_bad_input():
    for bad in [
        slit_descriptor(1j, 1.0),
        slit_descriptor(1j, -0.1),
        slit_descriptor(1 - 1j, 0.5),
        fn_descriptor(0.0, 1.0, 0.0),
        fn_descriptor(-1.0, 1.0, 0.0),
        fn_descriptor(2.0, -0.5, 0.0),
        lambda_descriptor((0.9, 0.9, 1.9)),
        lambda_descriptor((-1.0, 1.0, 2.0)),
        torus_descriptor(-2j),
        # float() and complex() read strings and bools; a number must be a number
        SurfaceDescriptor(chart="fn", l="2.0", lp=1.0, theta=0.0),
        SurfaceDescriptor(chart="fn", l=2.0, lp=True, theta=0.0),
        SurfaceDescriptor(chart="fn", l=2.0, lp=1.0, theta="-0"),
        SurfaceDescriptor(chart="slit", tau=1j, s=False),
        SurfaceDescriptor(chart="slit", tau="1j", s=0.5),
        SurfaceDescriptor(chart="lambda", x=LambdaTriple(True, True, "2")),
        SurfaceDescriptor(chart="lambda", x=LambdaTriple(1.0, 1.0, b"2")),
        # integers too large for a double are not finite numbers
        SurfaceDescriptor(chart="fn", l=10**400, lp=1.0, theta=0.0),
        SurfaceDescriptor(chart="slit", tau=10**400, s=0.5),
        SurfaceDescriptor(chart="slit", tau=1j, s=10**400),
        SurfaceDescriptor(chart="lambda", x=LambdaTriple(1.0, 1.0, 10**400)),
        SurfaceDescriptor(chart="torus", tau=-(10**400)),
        # a chart tag must be one of the strings, whatever its type
        SurfaceDescriptor(chart=["fn"]),
        SurfaceDescriptor(chart={"a": 1}),
        SurfaceDescriptor(chart=3),
    ]:
        with pytest.raises(DescriptorError):
            validate_descriptor(bad)
    with pytest.raises(DescriptorError):
        validate_descriptor(twice_punctured_descriptor(1j, "zigzag"))


@pytest.mark.parametrize(
    "tau, message",
    [
        ("1+1j", "tau must be a complex number"),
        (b"1", "tau must be a complex number"),
        (True, "tau must be a complex number"),
        (None, "tau must be a complex number"),
        ([1, 2], "tau must be a complex number"),
        (10**400, "tau must be finite"),
        (complex(math.inf, 1.0), "tau must be finite"),
        (complex(0.0, math.nan), "tau must be finite"),
        (0.5 + 0j, "tau must satisfy Im tau > 0"),
    ],
)
def test_descriptor_tau_messages(tau, message):
    # a library call on the same tau refuses through the same rule
    for refuse in (
        lambda: validate_descriptor(SurfaceDescriptor(chart="slit", tau=tau, s=0.5)),
        lambda: lambda_of_punctured_torus(tau),
    ):
        with pytest.raises(DescriptorError) as info:
            refuse()
        assert str(info.value) == message


@pytest.mark.parametrize(
    "value, message",
    [
        ("2", "lp must be a real number"),
        (True, "lp must be a real number"),
        (None, "lp must be a real number"),
        (10**400, "lp must be finite"),
        (math.inf, "lp must be finite"),
        (math.nan, "lp must be finite"),
    ],
)
def test_descriptor_real_field_messages(value, message):
    # a library call on the same point refuses through the same rule
    from holedtorus.fuchsian import fn_to_rep

    for refuse in (
        lambda: validate_descriptor(SurfaceDescriptor(chart="fn", l=2.0, lp=value, theta=0.0)),
        lambda: fn_to_rep(FNChartPoint(2.0, value, 0.0)),
    ):
        with pytest.raises(DescriptorError) as info:
            refuse()
        assert str(info.value) == message


@pytest.mark.parametrize(
    "build",
    [
        lambda: slit_descriptor("1j", 0.5),
        lambda: slit_descriptor(1j, b"1"),
        lambda: fn_descriptor(True, 1.0, 0.0),
        lambda: lambda_descriptor((1.0, "1", 2.0)),
        lambda: torus_descriptor("1j"),
        lambda: twice_punctured_descriptor(None, "bent"),
    ],
    ids=["slit-tau", "slit-s", "fn-l", "lambda-x", "torus-tau", "twice_punctured-tau"],
)
def test_descriptor_constructors_take_numbers(build):
    with pytest.raises(DescriptorError, match="must be a (real|complex) number$"):
        build()


def test_twice_punctured_marks_accepted():
    for mark in ("straight", "bent"):
        report = validate_descriptor(twice_punctured_descriptor(1j, mark))
        assert report.descriptor.mark == mark


def test_twice_punctured_slit_inclusion():
    assert twice_punctured_slit_inclusion(0.5)
    assert twice_punctured_slit_inclusion(0.7)
    assert not twice_punctured_slit_inclusion(0.49)
    with pytest.raises(ValueError):
        twice_punctured_slit_inclusion(1.0)


def test_descriptor_json_round_trip():
    descriptors = [
        slit_descriptor(0.25 + 1.5j, 0.3),
        fn_descriptor(2.0, 1.0, -0.5),
        lambda_descriptor((1.2, 1.3, 2.4)),
        torus_descriptor(0.1 + 2j),
        twice_punctured_descriptor(1j, "bent"),
    ]
    for desc in descriptors:
        payload = descriptor_to_json(desc)
        # key order sets the bytes of the chart command's output
        assert list(payload) == ["chart", *CHART_FIELDS[desc.chart]]
        text = json.dumps(payload)
        back = descriptor_from_json(json.loads(text))
        assert back == desc


def test_descriptor_from_json_rejects_malformed():
    for payload in [
        {},
        {"chart": "slit"},
        {"chart": "slit", "tau": [0.0, 1.0]},
        {"chart": "slit", "tau": "i", "s": 0.1},
        {"chart": "fn", "l": 2.0, "lp": 1.0},
        {"chart": "lambda", "x": [1.0, 1.0]},
        {"chart": "nope"},
        {"chart": ["fn"]},
        {"chart": {"a": 1}},
        {"chart": 3},
        [1, 2, 3],
    ]:
        with pytest.raises(DescriptorError):
            descriptor_from_json(payload)


def test_descriptor_to_json_refuses_an_unknown_chart():
    with pytest.raises(DescriptorError, match="^unknown chart 'nope'$"):
        descriptor_to_json(SurfaceDescriptor("nope"))


def test_fn_chart_point_fields():
    point = FNChartPoint(2.0, 1.0, 0.5)
    assert (point.l, point.lp, point.theta) == (2.0, 1.0, 0.5)


def test_fn_chart_point_repr_and_immutability():
    point = FNChartPoint(2.0, 1.0, 0.5)
    assert repr(point) == "FNChartPoint(l=2.0, lp=1.0, theta=0.5)"
    with pytest.raises(AttributeError):
        point.l = 3.0
