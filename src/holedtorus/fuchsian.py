"""Free-group words and hyperbolic length spectra of once-holed tori.

Words in the rank-two free group on the handle generators are strings
over u, U, v, V, a capital letter denoting the inverse of its lowercase
partner.  Conjugacy classes (simple or not) get a canonical
representative: cyclically reduced and minimal, in the letter order
u < U < v < V, over all rotations of the word and of its inverse.

A Fenchel-Nielsen point (l, lp, theta) is realized by a pair of
unit-determinant matrices

    A = [[exp(l/2), 0], [0, exp(-l/2)]],
    B = T_theta * B0,   T_theta = [[exp(theta/2), 0], [0, exp(-theta/2)]],
    B0 = [[cosh(m/2), sinh(m/2)], [sinh(m/2), cosh(m/2)]],

with m >= 0 chosen so the commutator A B A^-1 B^-1 has trace
-2 cosh(lp/2).  Writing x = tr A and y = tr B0, the required value is
y^2 = 2 (cosh l + cosh(lp/2)) / sinh(l/2)^2, always >= 4, so the chart is
realized for every l > 0, lp >= 0.  In floating point sinh^2(m/2) =
y^2/4 - 1 cancels as l grows, and fn_to_rep refuses a point once it is
within SINH2_FLOOR of zero (from l of about 35 at lp = 1), or once cosh,
sinh^2 or exp leaves double precision on the way.  The geodesic
length of a class of trace t is 2 arccosh(|t|/2); absolute traces in
[2 - TRACE_TOL, 2 + TRACE_TOL] count as parabolic (length zero) and traces
below that window are reported as an elliptic anomaly, which a faithful
discrete realization never produces.

Spectra over all classes up to a word length come from one batched
kernel, class_spectra, which evaluates many surfaces at once with the
same floating-point operations as word_trace and geodesic_length, so
its values are bit-for-bit those of the per-word functions.  It walks
the trie of the classes' prefixes one depth at a time: all prefixes of
one length, on all surfaces, are multiplied by their last letters in a
few array operations.  Each kernel call allocates one workspace, which
every depth of every block of surfaces reuses: no depth allocates arrays
of its own.  The letter matrices of a grid of points are built per
coordinate, not per point: math runs once per value of each coordinate,
and numpy combines the values with the same correctly rounded
operations: bit for bit those of fn_to_rep, or not finite where it refuses.

The class table is built once per word length, in two steps.  A
depth-first search over reduced prefixes that the prenecklace rule
prunes lists the classes letterwise: it visits only prefixes of words
minimal among their rotations, not all 3^n strings.  It keeps the
cyclically reduced necklaces that are least among their inverses'
rotations too.  The trie is then a function of that list: depth d holds
the classes of length d first, then the other length-d prefixes of
longer classes, each letterwise and pointing at its parent one depth up.
Classes are enumerated up to the fixed word length MAX_CLASS_LENGTH = 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

import numpy as np

from .charts import EllipticTraceError, FNChartPoint, _counts, _fn_chart

__all__ = [
    "Representation",
    "SpectrumEntry",
    "canonical_class",
    "class_spectra",
    "enumerate_classes",
    "fn_to_rep",
    "geodesic_length",
    "inverse_word",
    "length_spectrum",
    "reduce_word",
    "twist_substitute",
    "word_trace",
]

#: Letter order used for canonical representatives.
LETTERS = "uUvV"

_RANK = {ch: k for k, ch in enumerate(LETTERS)}
#: words translated by _ORDER compare as strings in the letter order
_ORDER = str.maketrans(LETTERS, "0123")
_INVERSE = str.maketrans("uUvV", "UuVv")
_TWIST = {"u": "u", "U": "U", "v": "vu", "V": "UV"}

#: Largest class length enumerate_classes, class_spectra and
#: length_spectrum accept: the class count grows like 3^n / n, and with it
#: the class table and the kernel's memory (classes times surfaces per array).
MAX_CLASS_LENGTH = 10

#: Surfaces per block of class_spectra.  One trie depth of a block holds
#: 4 * nodes * block doubles per array.  Each kernel call allocates one
#: workspace of four such arrays at the last depth, the widest, which
#: every depth of every block reuses; blocks of this size keep it small
#: enough for the cache.  One block of 9026 surfaces (a 95 x 95 scan) made the traces
#: 2.0x slower at N = 6 and 1.6x at N = 8 (2 vCPUs).
KERNEL_BLOCK = 256

#: Half-width of the window of absolute traces around 2 treated as parabolic.
TRACE_TOL = 1e-9

#: Relative error bound of np.arccosh against math.acosh, with a wide
#: margin: the SIMD arccosh differs by at most 2 ulp (2^-51 relative) over
#: [1 + 5e-10, e^300].  A test sweeps that range and fails, rather than
#: letting a scan drift, on a platform whose arccosh is worse.
ARCCOSH_REL_ERR = 2.0**-44

#: fn_to_rep refuses a point whose sinh^2(m/2) = y^2/4 - 1 is within a few
#: ulps of y^2/4 (about 1): it has cancelled to noise or to zero.
SINH2_FLOOR = 8 * 2.0**-52


def _check_letters(word: str):
    if not isinstance(word, str):
        raise ValueError(f"word must be a string, got {word!r}")
    for ch in word:
        if ch not in _RANK:
            raise ValueError(f"invalid letter {ch!r}; words use u, U, v, V")


def reduce_word(word: str) -> str:
    """Cancel adjacent inverse pairs until none remain."""
    _check_letters(word)
    out: list[str] = []
    for ch in word:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def inverse_word(word: str) -> str:
    _check_letters(word)
    return word[::-1].translate(_INVERSE)


def canonical_class(word: str) -> str:
    """Canonical representative of the conjugacy class of word.

    The representative is cyclically reduced and minimal over all
    rotations of the word and of its inverse, comparing letterwise in the
    order u < U < v < V.  The trivial class is rejected.
    """
    w = reduce_word(word)
    while len(w) >= 2 and w[0] == w[-1].swapcase():
        w = w[1:-1]
    if not w:
        raise ValueError("the trivial class has no canonical representative")
    n = len(w)
    candidates = [s[k : k + n] for s in (w + w, inverse_word(w) * 2) for k in range(n)]
    return min(candidates, key=lambda c: c.translate(_ORDER))


def enumerate_classes(max_len: int) -> list[str]:
    """All conjugacy classes of cyclically reduced length <= max_len.

    Classes are returned as canonical representatives sorted by length,
    then letterwise.  max_len beyond MAX_CLASS_LENGTH = 10 is refused: the
    class count grows like 3^n / n.  The search runs once per max_len;
    every call returns a fresh list.
    """
    _check_max_len(max_len)
    return list(_class_table(max_len).classes)


def _check_max_len(max_len: int):
    _counts("max_len", max_len, least=1)
    if max_len > MAX_CLASS_LENGTH:
        raise ValueError(
            f"max_len {max_len} exceeds the cap {MAX_CLASS_LENGTH}; the class "
            "count grows like 3^n/n and so does the kernel's memory"
        )


class _Depth(NamedTuple):
    #: index of each node's parent among the nodes one letter shorter
    parent: np.ndarray
    #: index into LETTERS of each node's last letter
    letter: np.ndarray
    #: the classes of this length, which are this depth's first nodes
    classes: slice


class _ClassTable(NamedTuple):
    #: canonical representatives, sorted by length, then letterwise
    classes: tuple[str, ...]
    #: the trie of the classes' prefixes, one entry per depth 1..max_len;
    #: a node's parent is the node without its last letter
    depths: tuple[_Depth, ...]
    #: position of each class in letterwise order
    rank: np.ndarray


@lru_cache(maxsize=None)
def _class_table(max_len: int) -> _ClassTable:
    # First the classes: depth first over reduced prefixes, letters in
    # order, so they come out letterwise.  A canonical representative is
    # minimal among its rotations, so each of its prefixes is a
    # prenecklace; with p the period of a prenecklace w, a next letter below
    # w[-p] leaves the prenecklaces and cuts the branch (the FKM rule;
    # Ruskey, Savage and Wang, J. Algorithms 13, 1992).
    found = []

    def grow(word: str, p: int):
        n = len(word)
        lowest = _RANK[word[n - p]] if n else 0
        for ch in LETTERS[lowest:]:
            if n and ch == word[-1].swapcase():
                continue
            child = word + ch
            period = p if n and ch == word[n - p] else n + 1
            # a prenecklace whose period divides its length is a necklace,
            # least among its rotations; a class is least among its
            # inverse's rotations too
            if child[0] != ch.swapcase() and (n + 1) % period == 0:
                key = child.translate(_ORDER)
                inverse = inverse_word(child).translate(_ORDER) * 2
                if all(key <= inverse[k : k + n + 1] for k in range(n + 1)):
                    found.append(child)
            if n + 1 < max_len:
                grow(child, period)

    grow("", 0)
    # by length, then letterwise (sorted is stable): class i is found[rank[i]]
    rank = sorted(range(len(found)), key=lambda k: len(found[k]))
    # Then the trie, a function of that list: depth d's nodes are the
    # classes of length d, then the other distinct length-d prefixes of the
    # classes in first-seen order; both letterwise, since found is.
    depths = []
    above = {"": 0}  # node index by word, one depth up
    start = 0
    for d in range(1, max_len + 1):
        here = [w for w in found if len(w) == d]
        prefixes = dict.fromkeys(here + [w[:d] for w in found if len(w) > d])
        nodes = {w: k for k, w in enumerate(prefixes)}
        parent = [above[w[:-1]] for w in nodes]
        letter = [_RANK[w[-1]] for w in nodes]
        span = slice(start, start + len(here))
        start = span.stop
        depths.append(_Depth(_frozen(parent), _frozen(letter), span))
        above = nodes
    return _ClassTable(tuple(found[k] for k in rank), tuple(depths), _frozen(rank))


def _frozen(values: list[int]) -> np.ndarray:
    array = np.array(values, dtype=np.intp)
    array.flags.writeable = False
    return array


def twist_substitute(word: str) -> str:
    """Image of a word under the Dehn twist u -> u, v -> v u, reduced."""
    _check_letters(word)
    return reduce_word("".join(_TWIST[ch] for ch in word))


class SpectrumEntry(NamedTuple):
    word: str
    trace: float
    length: float


#: SpectrumEntry of a (word, trace, length) tuple, built in C: no Python
#: frame per entry.
_spectrum_entry = partial(tuple.__new__, SpectrumEntry)


@dataclass(frozen=True, eq=False)
class Representation:
    """Matrix pair realizing a Fenchel-Nielsen point.

    Invariants: det A = det B = 1, tr A = 2 cosh(l/2), and the commutator
    trace is -2 cosh(lp/2) (so always <= -2).  Representations compare and
    hash by identity, as A and B are arrays: two realizations of the same
    point are different objects.
    """

    A: np.ndarray
    B: np.ndarray
    source: FNChartPoint

    @cached_property
    def _letter_matrices(self) -> dict[str, tuple[float, float, float, float]]:
        # tolist: Python floats, so word_trace returns float, not np.float64
        a = tuple(np.asarray(self.A, dtype=float).ravel().tolist())
        b = tuple(np.asarray(self.B, dtype=float).ravel().tolist())
        return {"u": a, "v": b, "U": _adjugate(a), "V": _adjugate(b)}


def _adjugate(m: tuple[float, ...]) -> tuple[float, ...]:
    """Inverse of a unit-determinant matrix (a, b, c, d), row-major."""
    return (m[3], -m[1], -m[2], m[0])


def _pair_entries(l: float, lp: float, theta: float) -> tuple[tuple[float, ...], ...]:
    """Entries of A and of B, each row-major, realizing (l, lp, theta).

    Raises fn_to_rep's refusals.  No entry is checked: a product of
    finite factors may still overflow to inf.
    """
    l, lp, theta = _fn_chart(l, lp, theta)
    try:
        y2 = 2.0 * (math.cosh(l) + math.cosh(lp / 2.0)) / math.sinh(l / 2.0) ** 2
        c = math.sqrt(y2) / 2.0  # cosh(m/2)
        s2 = y2 / 4.0 - 1.0  # sinh^2(m/2), which cancels as l grows
        if s2 <= SINH2_FLOOR:
            raise FloatingPointError(
                f"sinh^2(m/2) cancels to {s2!r} at l = {l!r}: the matrix pair is not resolved"
            )
        s = math.sqrt(s2)  # sinh(m/2)
        el = math.exp(l / 2.0)
        et = math.exp(theta / 2.0)
        return (el, 0.0, 0.0, 1.0 / el), (et * c, et * s, s / et, c / et)
    except (OverflowError, ZeroDivisionError):
        raise FloatingPointError(
            f"the matrix pair at (l, lp, theta) = ({l!r}, {lp!r}, {theta!r}) "
            "leaves double precision"
        ) from None


def fn_to_rep(point: FNChartPoint) -> Representation:
    """Realize a Fenchel-Nielsen point as a matrix pair.

    Refuses a point outside the chart with the chart's DescriptorError, a
    ValueError: a coordinate that is not a number (a string, bytes, bool
    or None among them), that is not finite, l <= 0 or lp < 0.  Refuses
    with FloatingPointError a point whose pair leaves double
    precision: cosh(l) or cosh(lp/2) overflows (l above about 710, lp
    above about 1421), exp(theta/2) overflows (theta above about 1420) or
    underflows to 0 (below about -1490), sinh^2(l/2) underflows to 0 (l
    below about 3e-162), or sinh^2(m/2) cancels.
    """
    A, B = np.array(_pair_entries(*point)).reshape(2, 2, 2)
    return Representation(A=A, B=B, source=point)


def _letters(points: list[FNChartPoint]) -> np.ndarray:
    """Letter matrices of many points at once, as the trace kernel reads them.

    Bit for bit those of fn_to_rep(point) for each point, and the first
    bad point raises what fn_to_rep would.  No Representation is built.
    """
    rows = []
    for p in points:
        a, b = _pair_entries(*p)
        rows.append(a + _adjugate(a) + b + _adjugate(b))
    return _letter_array(rows)


def _grid_letters(l, lp, theta) -> np.ndarray:
    """Letters of the points of three coordinate arrays that broadcast together.

    math runs once per value of each array, as _pair_entries calls it, and
    numpy does the rest: its +, *, / and sqrt round as Python's do, so
    letters[..., i] is bit for bit what _letters writes for the point at
    index i of the broadcast shape wherever _pair_entries accepts it.
    Where it refuses, some letter is not finite, and so is the trace of
    u, v, uu or vv; replaying the point through _letters raises the refusal.
    """
    l, lp, theta = (np.asarray(x, dtype=float) for x in (l, lp, theta))
    cl = _per_value(math.cosh, l)
    sh2 = _per_value(lambda v: math.sinh(v / 2.0) ** 2, l)
    el = _per_value(lambda v: math.exp(v / 2.0), l)
    clp = _per_value(lambda v: math.cosh(v / 2.0), lp)
    et = _per_value(lambda v: math.exp(v / 2.0), theta)
    # refused points compute NaNs and infinities quietly: math overflows to NaN,
    # underflows divide to inf, and the where NaNs the domain and SINH2_FLOOR
    with np.errstate(all="ignore"):
        y2 = 2.0 * (cl + clp) / sh2
        c = np.sqrt(y2) / 2.0
        s2 = y2 / 4.0 - 1.0
        s = np.sqrt(np.where((l > 0.0) & (lp >= 0.0) & (s2 > SINH2_FLOOR), s2, np.nan))
        a = (el, 0.0, 0.0, 1.0 / el)
        b = (et * c, et * s, s / et, c / et)
    shape = np.broadcast_shapes(l.shape, lp.shape, theta.shape)
    entries = np.empty((4, len(LETTERS), *shape))  # entry (i, j) at 2 i + j
    for k, matrix in enumerate((a, _adjugate(a), b, _adjugate(b))):
        for e, entry in enumerate(matrix):
            entries[e, k] = entry
    return entries.reshape(2, 2, len(LETTERS), *shape)


def _per_value(f, values: np.ndarray) -> np.ndarray:
    """f(v) for each value v of an array, shaped like it; NaN where f overflows."""
    out = []
    for v in values.ravel().tolist():
        try:
            out.append(f(v))
        except OverflowError:
            out.append(math.nan)
    return np.array(out).reshape(values.shape)


def _letter_array(rows: list[tuple[float, ...]]) -> np.ndarray:
    """The kernel's letters from one row per surface: u, U, v, V, row-major.

    letters[i, j, k, b] is entry (i, j) of letter LETTERS[k] on surface b.
    """
    entries = np.array(rows, dtype=float).reshape(len(rows), len(LETTERS), 2, 2)
    # surfaces last and contiguous, as the kernel's gathers and products run
    return np.ascontiguousarray(entries.transpose(2, 3, 1, 0))


def _product_trace(rep: Representation, word: str) -> float:
    mats = rep._letter_matrices
    a, b, c, d = mats[word[0]]
    for ch in word[1:]:
        e, f, g, h = mats[ch]
        a, b, c, d = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    return a + d


def _check_trace(word: str, trace: float):
    if not math.isfinite(trace):
        raise FloatingPointError(
            f"non-finite trace {trace!r} for word {word!r}: "
            "the word product overflows double precision"
        )
    if abs(trace) < 2.0 - TRACE_TOL:
        raise EllipticTraceError(word, trace)


def word_trace(rep: Representation, word: str) -> float:
    """Trace of the matrix product spelled by the (reduced) word.

    Rejects the trivial word.  Refuses, as class_spectra does, a trace that
    is not finite with FloatingPointError, and one strictly inside
    (-(2 - TRACE_TOL), 2 - TRACE_TOL) with EllipticTraceError.
    """
    w = reduce_word(word)
    if not w:
        raise ValueError("the trivial word has no geodesic class")
    trace = _product_trace(rep, w)
    _check_trace(w, trace)
    return trace


def geodesic_length(rep: Representation, word: str) -> float:
    """Geodesic length 2 arccosh(|trace|/2) of the class of word.

    Traces within TRACE_TOL of +/-2 give length 0 (parabolic window).
    Refuses what word_trace refuses, with the same exceptions.
    """
    t = abs(word_trace(rep, word))
    if t <= 2.0 + TRACE_TOL:
        return 0.0
    return 2.0 * math.acosh(t / 2.0)


def class_spectra(
    reps: list[Representation], max_len: int
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Traces and geodesic lengths of every class up to max_len, batched.

    max_len is at most MAX_CLASS_LENGTH = 10.  Returns (classes, traces,
    lengths): classes in enumerate_classes order, and two arrays of shape
    (len(classes), len(reps)) whose column b belongs to reps[b].  Entries
    equal word_trace and geodesic_length bit for bit: each product is
    accumulated left to right with the same formula, and every length is
    the exact math.acosh one, since callers print them.  The classes'
    prefixes form a trie, evaluated one depth at a time: the products of
    all prefixes of length d, on all surfaces, are their parents' products
    times their last letters, in a fixed number of numpy operations, so a
    prefix shared by many classes is multiplied once.

    Refuses the first surface, in order, that has a refused trace: with
    FloatingPointError if any of its traces is not finite (then neither
    is its length), instead of letting an overflowed product through as
    a length or a NaN margin; otherwise with EllipticTraceError for its
    first elliptic class.  Both refusals are word_trace's, word for word.
    """
    letters = _letter_array(
        [sum((rep._letter_matrices[ch] for ch in LETTERS), ()) for rep in reps]
    )
    traces = _checked_traces(letters, max_len)
    return _class_table(max_len).classes, traces, _exact_lengths(traces)


def _checked_traces(letters: np.ndarray, max_len: int) -> np.ndarray:
    """Traces of every class up to max_len on the surfaces of letters.

    letters is laid out as _letter_array writes it.  Refuses non-finite
    and elliptic traces, as class_spectra documents.
    """
    _check_max_len(max_len)
    table = _class_table(max_len)
    surfaces = letters.shape[-1]
    traces = np.empty((len(table.classes), surfaces))
    # one workspace for every depth of every block, sized at the last depth,
    # the widest: see _trie_traces
    work = np.empty((4, 4 * len(table.depths[-1].parent) * min(surfaces, KERNEL_BLOCK)))
    # an overflowed product is refused below, once every block is done
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, surfaces, KERNEL_BLOCK):
            block = slice(start, start + KERNEL_BLOCK)
            _trie_traces(table.depths, letters[..., block], traces[:, block], work)

    bad = ~np.isfinite(traces)
    elliptic = np.abs(traces) < 2.0 - TRACE_TOL
    if bad.any() or elliptic.any():
        # the first surface with a refused trace; within it, non-finite first
        b = int(np.flatnonzero((bad | elliptic).any(axis=0))[0])
        i = int(np.flatnonzero(bad[:, b] if bad[:, b].any() else elliptic[:, b])[0])
        _check_trace(table.classes[i], float(traces[i, b]))
    return traces


def _exact_lengths(traces: np.ndarray) -> np.ndarray:
    """Lengths of checked traces, each equal to geodesic_length's."""
    t = np.abs(traces)
    lengths = np.zeros_like(t)
    hyperbolic = t > 2.0 + TRACE_TOL
    # math.acosh, not np.arccosh, whose last bits differ from geodesic_length
    halves = (t[hyperbolic] / 2.0).tolist()
    lengths[hyperbolic] = 2.0 * np.fromiter(map(math.acosh, halves), float, len(halves))
    return lengths


def _approx_lengths(traces: np.ndarray) -> np.ndarray:
    """Lengths of checked traces by np.arccosh, within ARCCOSH_REL_ERR of exact.

    Parabolic entries are exactly 0.0, as in _exact_lengths; the others
    may differ from it in the last bits.
    """
    t = np.abs(traces)
    halves = np.where(t > 2.0 + TRACE_TOL, t / 2.0, 1.0)
    lengths = np.arccosh(halves, out=halves)
    lengths *= 2.0
    return lengths


def _trie_traces(
    depths: tuple[_Depth, ...], letters: np.ndarray, out: np.ndarray, work: np.ndarray
):
    """Write into out the trace of every class, on every surface of letters.

    work holds four rows (product, factor, prefix, second term), each at
    least 4 * nodes * surfaces long at the widest depth.  Every depth runs
    in contiguous views of them, so no depth allocates arrays of its own: a
    kernel that let numpy allocate each depth's arrays took 193 minor page
    faults per 9 x 9 scan at N = 6, against 3.6 with the workspace, and
    scanned about 48 k cells/s against 69 k (2 vCPUs).  The class table's indices are
    valid by construction: take's mode="clip" writes straight into out=,
    where mode="raise" copies through a temporary.  A depth's classes are
    its first nodes, so their traces are summed straight into out.
    """
    surfaces = letters.shape[-1]
    product = None
    for depth in depths:
        # this depth's product, factor, prefix and second term
        rows = work[:, : 4 * len(depth.parent) * surfaces].reshape(4, 2, 2, -1, surfaces)
        # take, not fancy indexing, which is several times slower on axis 2
        if product is None:
            product = letters.take(depth.letter, 2, rows[0], "clip")
        else:
            factor = letters.take(depth.letter, 2, rows[1], "clip")
            prefix = product.take(depth.parent, 2, rows[2], "clip")
            # the old product is gathered, so its row takes the new one.
            # [[a, b], [c, d]] [[e, f], [g, h]]: a*e + b*g, a*f + b*h, ...
            product = np.multiply(prefix[:, :1], factor[:1], rows[0])
            product += np.multiply(prefix[:, 1:], factor[1:], rows[3])
        # the traces of this depth's classes, its first nodes
        traces = out[depth.classes]
        np.add(product[0, 0, : len(traces)], product[1, 1, : len(traces)], traces)


def length_spectrum(rep: Representation, max_len: int) -> list[SpectrumEntry]:
    """Spectrum over all classes of length <= max_len (at most MAX_CLASS_LENGTH).

    Entries are sorted by geodesic length, ties broken by word order, so
    the output is deterministic.
    """
    classes, traces, lengths = class_spectra([rep], max_len)
    order = np.lexsort((_class_table(max_len).rank, lengths[:, 0]))
    words = map(classes.__getitem__, order.tolist())
    columns = zip(words, traces[order, 0].tolist(), lengths[order, 0].tolist())
    return list(map(_spectrum_entry, columns))
