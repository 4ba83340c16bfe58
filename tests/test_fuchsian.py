import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from holedtorus.charts import FNChartPoint
from holedtorus.fuchsian import (
    ARCCOSH_REL_ERR,
    EllipticTraceError,
    Representation,
    SpectrumEntry,
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
from holedtorus import fuchsian
from holedtorus.fuchsian import (
    _approx_lengths,
    _checked_traces,
    _class_table,
    _exact_lengths,
    _grid_letters,
    _letters,
)
from holedtorus.regions import SCAN_PLANES

LETTERS = "uUvV"

#: tr uvUV = -1.9999847..., inside the elliptic window
ELLIPTIC = FNChartPoint(25.0, 1e-3, 0.0)
#: tr vvv overflows to inf
OVERFLOW = FNChartPoint(1.0, 1400.0, 0.0)
#: tr v overflows to inf and tr uv to NaN (inf * 0)
TWISTED = FNChartPoint(1e-16, 1.0, 1400.0)


def _letterwise(word):
    return tuple(map(LETTERS.index, word))


@pytest.fixture(scope="session")
def brute_force_classes():
    # independent oracle: canonicalize every reduced word up to length 8,
    # grown letter by letter, and dedup; by length, then letterwise
    found = set()
    words = [""]
    for _ in range(8):
        words = [w + ch for w in words for ch in LETTERS if not w or ch != w[-1].swapcase()]
        found.update(map(canonical_class, words))
    return sorted(found, key=lambda w: (len(w), _letterwise(w)))


def matrix_of(rep, word):
    # independent oracle: dense numpy products with true inverses
    letters = {
        "u": np.asarray(rep.A, dtype=float),
        "v": np.asarray(rep.B, dtype=float),
    }
    letters["U"] = np.linalg.inv(letters["u"])
    letters["V"] = np.linalg.inv(letters["v"])
    out = np.eye(2)
    for ch in word:
        out = out @ letters[ch]
    return out


def test_reduce_word():
    assert reduce_word("uU") == ""
    assert reduce_word("uvVU") == ""
    assert reduce_word("uvu") == "uvu"
    assert reduce_word("uUvVuv") == "uv"
    assert reduce_word("") == ""


def test_reduce_word_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(200):
        word = "".join(rng.choice(list(LETTERS), size=rng.integers(1, 12)))
        once = reduce_word(word)
        assert reduce_word(once) == once


def test_reduce_word_rejects_bad_letters():
    with pytest.raises(ValueError):
        reduce_word("uxv")


def test_inverse_word():
    assert inverse_word("uv") == "VU"
    assert inverse_word("uvUV") == "vuVU"
    rng = np.random.default_rng(5)
    for _ in range(100):
        word = reduce_word("".join(rng.choice(list(LETTERS), size=8)))
        assert reduce_word(word + inverse_word(word)) == ""


def test_canonical_class_frozen():
    assert canonical_class("vuV") == "u"
    assert canonical_class("U") == "u"
    assert canonical_class("uvUV") == "uvUV"
    assert canonical_class("VuvU") == "uvUV"
    assert canonical_class("vuVU") == "uvUV"


def test_canonical_class_rejects_unit():
    with pytest.raises(ValueError):
        canonical_class("")
    with pytest.raises(ValueError):
        canonical_class("uU")


def test_canonical_class_invariance():
    rng = np.random.default_rng(9)
    for _ in range(200):
        word = reduce_word("".join(rng.choice(list(LETTERS), size=7)))
        if not word:
            continue
        rep = canonical_class(word)
        assert canonical_class(inverse_word(word)) == rep
        k = int(rng.integers(0, len(word)))
        assert canonical_class(word[k:] + word[:k]) == rep


def test_enumerate_classes_frozen():
    assert enumerate_classes(1) == ["u", "v"]
    assert enumerate_classes(2) == ["u", "v", "uu", "uv", "uV", "vv"]


def test_enumerate_classes_matches_brute_force(brute_force_classes):
    for n in range(1, 9):
        listed = enumerate_classes(n)
        assert len(listed) == len(set(listed))
        assert set(listed) == {w for w in brute_force_classes if len(w) <= n}
        lengths = [len(w) for w in listed]
        assert lengths == sorted(lengths)


def test_enumerate_classes_beyond_the_brute_force():
    # N = 9 and 10: canonical, distinct and in order; the counts per length
    # are those of a brute force over all reduced words up to length 10
    listed = enumerate_classes(10)
    assert all(canonical_class(w) == w for w in listed)
    assert listed == sorted(set(listed), key=lambda w: (len(w), _letterwise(w)))
    counts = collections.Counter(map(len, listed))
    assert (counts[9], counts[10]) == (1098, 2968)
    assert enumerate_classes(9) == [w for w in listed if len(w) <= 9]


def test_class_table_is_the_trie_of_the_classes_prefixes(brute_force_classes):
    # each max_len's classes are a filter of the longest
    for n in range(1, 9):
        expected = [w for w in brute_force_classes if len(w) <= n]
        table = _class_table(n)
        assert enumerate_classes(n) == expected
        assert table.classes == tuple(expected)
        position = {w: k for k, w in enumerate(sorted(expected, key=_letterwise))}
        assert table.rank.tolist() == [position[w] for w in expected]
        assert len(table.depths) == n
        above = [""]
        for d, depth in enumerate(table.depths, 1):
            # node words spelled from parent and letter: the classes of
            # length d, then the other distinct length-d prefixes of the
            # classes, each letterwise
            nodes = [above[p] + LETTERS[k] for p, k in zip(depth.parent, depth.letter)]
            here = [w for w in expected if len(w) == d]
            others = {w[:d] for w in expected if len(w) > d} - set(here)
            assert nodes == here + sorted(others, key=_letterwise)
            assert table.classes[depth.classes] == tuple(here)
            above = nodes
        arrays = [table.rank]
        for depth in table.depths:
            arrays += [depth.parent, depth.letter]
        for array in arrays:
            assert array.dtype == np.intp
            assert not array.flags.writeable
    # the last depth is the widest, and sizes the trace kernel's workspace
    widths = []
    for n in range(1, 11):
        nodes = [len(depth.parent) for depth in _class_table(n).depths]
        assert nodes[-1] == max(nodes)
        widths.append(nodes[-1])
    assert widths == [2, 4, 6, 13, 26, 66, 158, 418, 1098, 2968]


def test_enumerate_classes_cap():
    with pytest.raises(ValueError):
        enumerate_classes(11)


def test_enumerate_classes_refuses_a_non_integral_length():
    # a ValueError, not range's TypeError
    with pytest.raises(ValueError, match="max_len must be an integer"):
        enumerate_classes(6.0)
    assert enumerate_classes(np.int64(2)) == enumerate_classes(2)


def test_length_spectrum_refuses_a_non_integral_length():
    with pytest.raises(ValueError, match="max_len must be an integer"):
        length_spectrum(fn_to_rep(FNChartPoint(2.0, 1.0, 0.0)), 3.5)


def test_enumerate_classes_returns_independent_lists():
    first = enumerate_classes(6)
    second = enumerate_classes(6)
    assert first == second
    assert first is not second
    first.append("x")
    assert enumerate_classes(6) == second
    with pytest.raises(ValueError):
        enumerate_classes(11)


def test_twist_substitute():
    assert twist_substitute("u") == "u"
    assert twist_substitute("v") == "vu"
    assert twist_substitute("V") == "UV"
    assert twist_substitute("uvUV") == "uvUV"


def test_fn_to_rep_unit_determinants():
    rng = np.random.default_rng(21)
    for _ in range(100):
        point = FNChartPoint(rng.uniform(0.2, 6), rng.uniform(0, 6), rng.uniform(-3, 3))
        rep = fn_to_rep(point)
        for mat in (rep.A, rep.B):
            a, b = mat[0]
            c, d = mat[1]
            assert a * d - b * c == pytest.approx(1.0, abs=1e-12)


def test_fn_to_rep_frozen_traces():
    l = 2.0 * math.acosh(1.5)
    rep = fn_to_rep(FNChartPoint(l, 0.0, 0.0))
    assert word_trace(rep, "u") == pytest.approx(3.0, abs=1e-12)
    assert word_trace(rep, "uu") == pytest.approx(7.0, abs=1e-12)
    assert word_trace(rep, "v") == pytest.approx(2.6832815729997477, abs=1e-14)
    assert word_trace(rep, "uvUV") == pytest.approx(-2.0, abs=1e-14)


def test_fn_to_rep_rejects_bad_points():
    for point in [
        FNChartPoint(0.0, 1.0, 0.0),
        FNChartPoint(-1.0, 1.0, 0.0),
        FNChartPoint(2.0, -1.0, 0.0),
    ]:
        with pytest.raises(ValueError):
            fn_to_rep(point)


def test_fn_to_rep_refuses_cancelled_sinh():
    # sinh^2(m/2) = cosh^2(lp/4)/sinh^2(l/2); y^2/4 - 1 reads exactly 0
    # at l = 40 and 2.2e-16 (true 1.6e-43) at l = 100
    for l in (40.0, 100.0):
        with pytest.raises(FloatingPointError):
            fn_to_rep(FNChartPoint(l, 1.0, 0.0))
    rep = fn_to_rep(FNChartPoint(30.0, 1.0, 0.0))
    assert rep.B[0, 1] > 0.0


def test_word_trace_against_numpy_oracle():
    rng = np.random.default_rng(23)
    for _ in range(50):
        point = FNChartPoint(rng.uniform(0.3, 5), rng.uniform(0, 5), rng.uniform(-3, 3))
        rep = fn_to_rep(point)
        for _ in range(5):
            word = reduce_word("".join(rng.choice(list(LETTERS), size=6)))
            if not word:
                continue
            expected = float(np.trace(matrix_of(rep, word)))
            assert word_trace(rep, word) == pytest.approx(expected, abs=1e-9)


def test_word_trace_returns_python_float():
    rep = fn_to_rep(FNChartPoint(2.0, 1.0, 0.0))
    assert type(word_trace(rep, "uvUV")) is float
    with pytest.raises(EllipticTraceError) as info:
        word_trace(fn_to_rep(ELLIPTIC), "uvUV")
    assert type(info.value.trace) is float


def test_word_trace_rejects_trivial_word():
    rep = fn_to_rep(FNChartPoint(2.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        word_trace(rep, "uU")


def test_trace_identity_sample():
    rng = np.random.default_rng(27)
    for _ in range(200):
        point = FNChartPoint(
            rng.uniform(0.1, 8), rng.uniform(0, 8), rng.uniform(-4, 4)
        )
        rep = fn_to_rep(point)
        x = word_trace(rep, "u")
        y = word_trace(rep, "v")
        z = word_trace(rep, "uv")
        lhs = word_trace(rep, "uvUV")
        assert lhs == pytest.approx(x * x + y * y + z * z - x * y * z - 2.0, abs=1e-9)


def test_geodesic_length_coordinates():
    point = FNChartPoint(1.7, 0.9, 0.4)
    rep = fn_to_rep(point)
    assert geodesic_length(rep, "u") == pytest.approx(1.7, abs=1e-12)
    assert geodesic_length(rep, "uu") == pytest.approx(3.4, abs=1e-12)
    assert geodesic_length(rep, "uuu") == pytest.approx(5.1, abs=1e-12)
    assert geodesic_length(rep, "uvUV") == pytest.approx(0.9, abs=1e-12)


def test_geodesic_length_class_invariance():
    rep = fn_to_rep(FNChartPoint(2.0, 1.0, 0.7))
    base = geodesic_length(rep, "uvv")
    assert geodesic_length(rep, "vvu") == pytest.approx(base, abs=0.0)
    assert geodesic_length(rep, inverse_word("uvv")) == pytest.approx(base, abs=0.0)


def test_geodesic_length_parabolic_window():
    rep = fn_to_rep(FNChartPoint(2.0, 0.0, 0.3))
    assert geodesic_length(rep, "uvUV") == 0.0


def test_elliptic_trace_raises():
    c, s = math.cos(0.5), math.sin(0.5)
    rotation = ((c, -s), (s, c))
    rep = Representation(A=rotation, B=((1.0, 1.0), (0.0, 1.0)), source=None)
    with pytest.raises(EllipticTraceError) as info:
        geodesic_length(rep, "u")
    assert info.value.word == "u"
    assert abs(info.value.trace) < 2.0


def test_representations_compare_and_hash_by_identity():
    point = FNChartPoint(2.0, 1.0, 0.7)
    rep = fn_to_rep(point)
    other = fn_to_rep(point)
    assert rep == rep
    assert rep != other
    assert rep in [other, rep]
    assert len({rep, rep}) == 1
    assert len({rep, other}) == 2
    # the letter matrices are still computed once per representation
    assert rep._letter_matrices is rep._letter_matrices


def test_length_spectrum_sorted_and_complete():
    rep = fn_to_rep(FNChartPoint(2.0, 1.0, 0.0))
    entries = length_spectrum(rep, 2)
    assert [e.word for e in entries] == ["v", "u", "uv", "uV", "vv", "uu"]
    lengths = [e.length for e in entries]
    assert lengths == sorted(lengths)
    for e in entries:
        assert type(e) is SpectrumEntry
        assert e == SpectrumEntry(e.word, word_trace(rep, e.word), geodesic_length(rep, e.word))


def test_length_spectrum_breaks_ties_letterwise():
    # theta = 0 and lp = 0 surfaces have many equal lengths; the order must
    # be (length, then word letterwise in u < U < v < V)
    for point in [
        FNChartPoint(1.3, 0.7, 0.0),
        FNChartPoint(1.5, 0.0, 0.4),
        FNChartPoint(2.0, 1.0, 0.0),
    ]:
        rep = fn_to_rep(point)
        for max_len in range(1, 9):
            entries = length_spectrum(rep, max_len)
            expected = sorted(
                entries, key=lambda e: (e.length, [LETTERS.index(ch) for ch in e.word])
            )
            assert entries == expected
        lengths = [e.length for e in entries]
        assert len(set(lengths)) < len(lengths)


def test_twist_equivariance_trace_level():
    rng = np.random.default_rng(31)
    classes = enumerate_classes(4)
    for _ in range(30):
        l = rng.uniform(0.5, 4)
        lp = rng.uniform(0.1, 4)
        theta = rng.uniform(-2, 2)
        twisted = fn_to_rep(FNChartPoint(l, lp, theta + l))
        rep = fn_to_rep(FNChartPoint(l, lp, theta))
        for word in classes:
            lhs = word_trace(twisted, word)
            rhs = word_trace(rep, twist_substitute(word))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_class_spectra_equals_per_word_functions():
    # the criterion-11 box, plus once-punctured surfaces (lp = 0), whose
    # commutator trace lands in the parabolic window and has length 0.0
    rng = np.random.default_rng(61)
    points = [
        FNChartPoint(rng.uniform(0.5, 4), rng.uniform(0.1, 3), rng.uniform(-2, 2))
        for _ in range(12)
    ]
    points += [
        FNChartPoint(rng.uniform(0.5, 4), 0.0, rng.uniform(-2, 2)) for _ in range(3)
    ]
    reps = [fn_to_rep(p) for p in points]
    # the longest words on the three once-punctured surfaces
    cases = [(n, reps) for n in range(1, 9)] + [(n, reps[-3:]) for n in (9, 10)]
    for max_len, some in cases:
        classes, traces, lengths = class_spectra(some, max_len)
        assert list(classes) == enumerate_classes(max_len)
        assert traces.shape == lengths.shape == (len(classes), len(some))
        for b, rep in enumerate(some):
            for i, word in enumerate(classes):
                assert traces[i, b] == word_trace(rep, word)
                assert lengths[i, b] == geodesic_length(rep, word)
    commutator = classes.index("uvUV")
    assert (lengths[commutator, -3:] == 0.0).all()


def test_class_spectra_elliptic_trace_propagates():
    c, s = math.cos(0.5), math.sin(0.5)
    rotation = Representation(
        A=((c, -s), (s, c)), B=((1.0, 1.0), (0.0, 1.0)), source=None
    )
    good = fn_to_rep(FNChartPoint(2.0, 1.0, 0.0))
    with pytest.raises(EllipticTraceError) as batched:
        class_spectra([good, rotation], 4)
    with pytest.raises(EllipticTraceError) as single:
        geodesic_length(rotation, "u")
    assert batched.value.word == single.value.word == "u"
    assert batched.value.trace == single.value.trace


@pytest.mark.parametrize("swap", [False, True])
def test_class_spectra_refuses_first_bad_surface_first(swap):
    # ELLIPTIC has an elliptic commutator, OVERFLOW an infinite vvv trace:
    # the surface that comes first is the one refused, whatever the kinds
    reps = [fn_to_rep(ELLIPTIC), fn_to_rep(OVERFLOW)]
    if swap:
        reps.reverse()
    with pytest.raises(ArithmeticError if swap else EllipticTraceError) as info:
        class_spectra(reps, 4)
    assert str(info.value) == (
        "non-finite trace inf for word 'vvv': the word product overflows double precision"
        if swap
        else "elliptic trace -1.9999847268935596 for word 'uvUV'"
    )


def test_class_spectra_refuses_non_finite_before_elliptic_on_one_surface():
    # a 2x2 rotation by 0.5 is elliptic in u; a huge B overflows vvvv
    c, s = math.cos(0.5), math.sin(0.5)
    rep = Representation(
        A=((c, -s), (s, c)), B=((1e80, 0.0), (0.0, 1e-80)), source=None
    )
    with pytest.raises(FloatingPointError, match="'vvvv'"):
        class_spectra([rep], 4)


def test_class_spectra_refuses_non_finite_traces():
    # tr u = exp(200): the product uuuu overflows to an infinite trace.
    # fn_to_rep refuses l = 400, where y^2/4 - 1 cancels, so the pair is
    # built from the closed form sinh(m/2) = cosh(lp/4) / sinh(l/2).
    l, lp = 400.0, 1.0
    sh = math.cosh(lp / 4.0) / math.sinh(l / 2.0)
    ch = math.sqrt(1.0 + sh * sh)
    rep = Representation(
        A=np.diag([math.exp(l / 2.0), math.exp(-l / 2.0)]),
        B=np.array([[ch, sh], [sh, ch]]),
        source=FNChartPoint(l, lp, 0.0),
    )
    with pytest.raises(FloatingPointError):
        class_spectra([rep], 6)
    with pytest.raises(ArithmeticError):
        length_spectrum(rep, 6)
    # short words stay finite
    assert class_spectra([rep], 2)[2][0, 0] == pytest.approx(400.0)


@pytest.mark.parametrize("word", ["v", "uv"])
def test_per_word_functions_refuse_non_finite_traces(word):
    rep = fn_to_rep(TWISTED)
    for f in (word_trace, geodesic_length):
        with pytest.raises(FloatingPointError, match=f"^non-finite trace .* for word '{word}':"):
            f(rep, word)


def test_word_trace_refuses_as_the_kernel_does():
    rep = fn_to_rep(TWISTED)
    with pytest.raises(FloatingPointError) as kernel:
        length_spectrum(rep, 1)
    with pytest.raises(FloatingPointError) as single:
        word_trace(rep, "v")
    assert str(single.value) == str(kernel.value)


def test_np_arccosh_within_bound_of_math_acosh():
    # the scan certifies its np.arccosh lengths with ARCCOSH_REL_ERR; a
    # platform whose arccosh is worse fails here instead of drifting.
    # Half the values lie near 1, from the parabolic window's edge 1 + 5e-10.
    rng = np.random.default_rng(71)
    near = 1.0 + np.exp(rng.uniform(math.log(5e-10), 0.0, 500_000))
    far = np.exp(rng.uniform(math.log(2.0), 300.0, 500_000))
    x = np.concatenate([near, far])
    exact = np.fromiter(map(math.acosh, x.tolist()), float, len(x))
    assert (np.abs(np.arccosh(x) - exact) <= ARCCOSH_REL_ERR * exact).all()


def test_approx_lengths_keep_parabolic_zeros():
    traces = np.array([[2.0, -2.0 - 1e-9, 2.0 + 2e-9, -3.0, 1e30]])
    approx, exact = _approx_lengths(traces), _exact_lengths(traces)
    assert approx[0, :2].tolist() == exact[0, :2].tolist() == [0.0, 0.0]
    assert (np.abs(approx - exact) <= ARCCOSH_REL_ERR * exact).all()


def letter_points():
    rng = np.random.default_rng(73)
    points = [
        FNChartPoint(rng.uniform(0.05, 30), rng.uniform(0, 6), rng.uniform(-5, 5))
        for _ in range(60)
    ]
    return points + [FNChartPoint(rng.uniform(0.5, 4), 0.0, 0.0) for _ in range(4)]


def test_letters_equal_fn_to_rep_bit_for_bit():
    points = letter_points()
    letters = _letters(points)
    assert letters.shape == (2, 2, len(LETTERS), len(points))
    for b, point in enumerate(points):
        mats = fn_to_rep(point)._letter_matrices
        for k, ch in enumerate(LETTERS):
            # bytes, so that -0.0 and 0.0 differ
            assert letters[:, :, k, b].tobytes() == np.array(mats[ch]).tobytes()


def test_letters_give_class_spectra_traces():
    points = letter_points()
    traces = _checked_traces(_letters(points), 6)
    expected = class_spectra([fn_to_rep(p) for p in points], 6)[1]
    assert traces.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "bad",
    [
        FNChartPoint(0.0, 1.0, 0.0),
        FNChartPoint(-1.0, 1.0, 0.0),
        FNChartPoint(math.nan, 1.0, 0.0),
        FNChartPoint(math.inf, 1.0, 0.0),
        FNChartPoint(2.0, -1.0, 0.0),
        FNChartPoint(2.0, math.inf, 0.0),
        FNChartPoint(2.0, 1.0, math.nan),
        FNChartPoint(40.0, 1.0, 0.0),  # sinh^2(m/2) cancels
    ],
)
def test_letters_raise_as_fn_to_rep(bad):
    with pytest.raises((ValueError, FloatingPointError)) as single:
        fn_to_rep(bad)
    # the first bad point raises, as a loop over fn_to_rep would
    if isinstance(single.value, FloatingPointError):
        later = FNChartPoint(2.0, -1.0, 0.0)
    else:
        later = FNChartPoint(100.0, 1.0, 0.0)
    with pytest.raises(type(single.value)) as batched:
        _letters([FNChartPoint(2.0, 1.0, 0.0), bad, later])
    assert str(batched.value) == str(single.value)


def grid_axes(y0, plane, axis1, axis2):
    # the scan's coordinate arrays: the plane's two broadcast, Y0's third
    first, second = SCAN_PLANES[plane]
    axes = {c: np.array(getattr(y0, c)) for c in FNChartPoint._fields}
    axes[first], axes[second] = np.reshape(axis1, (-1, 1)), np.asarray(axis2)
    cells = [
        y0._replace(**{first: c1, second: c2})
        for c1 in np.asarray(axis1).tolist()
        for c2 in np.asarray(axis2).tolist()
    ]
    return [axes[c] for c in FNChartPoint._fields], cells


@pytest.mark.parametrize("plane", sorted(SCAN_PLANES))
def test_grid_letters_equal_letters_bit_for_bit(plane):
    # off-dyadic Y0s, and every lp axis starts at lp = 0
    rng = np.random.default_rng(61)
    for _ in range(20):
        y0 = FNChartPoint(rng.uniform(0.05, 6), rng.uniform(0, 4), rng.uniform(-3, 3))
        n1, n2 = rng.integers(1, 12, size=2)
        axis1, axis2 = (
            np.linspace(0.0 if c == "lp" else getattr(y0, c) - 0.04, getattr(y0, c) + 2, n)
            for c, n in zip(SCAN_PLANES[plane], (n1, n2))
        )
        axes, cells = grid_axes(y0, plane, axis1, axis2)
        letters = _grid_letters(*axes)
        assert letters.shape == (2, 2, len(LETTERS), n1, n2)
        # bytes, so that -0.0 and 0.0 differ
        expected = _letters(cells)
        assert letters.reshape(expected.shape).tobytes() == expected.tobytes()


def test_grid_letters_are_not_finite_where_pair_entries_refuses():
    # domain edges, cosh and sinh^2 overflow, sinh^2 underflow, the
    # SINH2_FLOOR cliff, exp(theta/2) overflow and underflow
    ls = [5e-324, 1e-200, 1e-5, 1.0, 35.0, 100.0, 710.3, 710.45, 710.5, 1500.0]
    ls += [0.0, -1.0, math.inf, math.nan]
    lps = [0.0, -0.0, 1e-300, 3.0, 1419.0, 1420.0, -1e-3, math.inf, math.nan]
    thetas = [-3000.0, -1490.0, -1400.0, -0.0, 1.3, 1419.0, 1420.0, math.inf, math.nan]
    letters = _grid_letters(
        np.reshape(ls, (-1, 1, 1)), np.reshape(lps, (-1, 1)), np.array(thetas)
    )
    assert letters.shape == (2, 2, len(LETTERS), len(ls), len(lps), len(thetas))
    refused = 0
    for index in itertools.product(*map(range, letters.shape[3:])):
        point = FNChartPoint(ls[index[0]], lps[index[1]], thetas[index[2]])
        cell = letters[(...,) + index]
        try:
            expected = _letters([point])
        except (ValueError, ArithmeticError):
            refused += 1
            assert not np.isfinite(cell).all(), point
            # so the kernel refuses the cell too, and a scan replays it
            with pytest.raises(FloatingPointError):
                _checked_traces(cell[..., None], 2)
        else:
            # accepted letters may still be infinite: (1e-5, lp, -1490)
            assert cell.tobytes() == expected[..., 0].tobytes(), point
    assert 0 < refused < letters[0, 0, 0].size


def test_trie_kernel_reuses_one_workspace_across_blocks(monkeypatch):
    rng = np.random.default_rng(67)
    points = [
        FNChartPoint(rng.uniform(0.5, 4), rng.uniform(0, 3), rng.uniform(-2, 2))
        for _ in range(23)
    ]
    letters = _letters(points)
    whole = _checked_traces(letters, 6)
    works = []
    trie_traces = fuchsian._trie_traces

    def spy(depths, block, out, work):
        works.append((block.shape[-1], work))
        trie_traces(depths, block, out, work)

    monkeypatch.setattr(fuchsian, "_trie_traces", spy)
    monkeypatch.setattr(fuchsian, "KERNEL_BLOCK", 10)
    assert _checked_traces(letters, 6).tobytes() == whole.tobytes()
    assert [surfaces for surfaces, _ in works] == [10, 10, 3]
    work = works[0][1]
    assert all(w is work for _, w in works)
    assert work.shape == (4, 4 * len(_class_table(6).depths[-1].parent) * 10)


def test_trie_kernel_allocates_no_depth_sized_array():
    # every depth's arrays are views of the workspace; numpy's ufunc
    # buffers (at most a few 8192-element ones) are all that is allocated
    rng = np.random.default_rng(71)
    points = [
        FNChartPoint(rng.uniform(0.5, 4), rng.uniform(0, 3), rng.uniform(-2, 2))
        for _ in range(fuchsian.KERNEL_BLOCK)
    ]
    letters = _letters(points)
    depths = _class_table(8).depths
    work = np.empty((4, 4 * len(depths[-1].parent) * len(points)))
    out = np.empty((len(_class_table(8).classes), len(points)))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        fuchsian._trie_traces(depths, letters, out, work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < work[0].nbytes // 4
    assert out.tobytes() == _checked_traces(letters, 8).tobytes()


def test_trie_kernel_workspace_is_bounded(monkeypatch):
    # at N = 10 a full block's workspace alone would be 97 MB; blocks shrink
    # to KERNEL_WORKSPACE and give the traces of one surface per block
    rng = np.random.default_rng(73)
    points = [
        FNChartPoint(rng.uniform(0.5, 4), rng.uniform(0, 3), rng.uniform(-2, 2))
        for _ in range(fuchsian.KERNEL_BLOCK)
    ]
    letters = _letters(points)
    tracemalloc.start()
    try:
        traces = _checked_traces(letters, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    monkeypatch.setattr(fuchsian, "KERNEL_BLOCK", 1)
    assert traces.tobytes() == _checked_traces(letters, 10).tobytes()
