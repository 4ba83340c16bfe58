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
within SINH2_FLOOR of zero (from l of about 35 at lp = 1).  The geodesic
length of a class of trace t is 2 arccosh(|t|/2); traces in
[2 - tol, 2 + tol] count as parabolic (length zero) and traces below that
window are reported as an elliptic anomaly, which a faithful discrete
realization never produces.

Spectra over all classes up to a word length come from one batched
kernel, class_spectra, which evaluates many surfaces at once with the
same floating-point operations as word_trace and geodesic_length, so
its values are bit-for-bit those of the per-word functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .charts import FNChartPoint

__all__ = [
    "EllipticTraceError",
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
_INVERSE = str.maketrans("uUvV", "UuVv")
_TWIST = {"u": "u", "U": "U", "v": "vu", "V": "UV"}

#: Largest class length enumerate_classes accepts by default; the number
#: of reduced strings grows like 3^n.
MAX_CLASS_LENGTH = 10

#: Half-width of the trace window around 2 treated as parabolic.
TRACE_TOL = 1e-9

#: fn_to_rep refuses a point whose sinh^2(m/2) = y^2/4 - 1 is within a few
#: ulps of y^2/4 (about 1): it has cancelled to noise or to zero.
SINH2_FLOOR = 8 * 2.0**-52


class EllipticTraceError(RuntimeError):
    """A word trace fell strictly inside (-2, 2): no geodesic exists."""

    def __init__(self, word: str, trace: float):
        super().__init__(f"elliptic trace {trace!r} for word {word!r}")
        self.word = word
        self.trace = trace


def _check_letters(word: str):
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


def _rank_key(word: str) -> tuple[int, ...]:
    return tuple(_RANK[ch] for ch in word)


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
    doubled = w + w
    candidates = [doubled[k : k + len(w)] for k in range(len(w))]
    wi = inverse_word(w)
    doubled = wi + wi
    candidates += [doubled[k : k + len(w)] for k in range(len(w))]
    return min(candidates, key=_rank_key)


def enumerate_classes(max_len: int, cap: int = MAX_CLASS_LENGTH) -> list[str]:
    """All conjugacy classes of cyclically reduced length <= max_len.

    Classes are returned as canonical representatives sorted by length,
    then letterwise.  max_len beyond cap is refused: the search walks
    every cyclically reduced string of each length.  The search runs once
    per max_len; every call returns a fresh list.
    """
    _check_max_len(max_len, cap)
    return list(_class_table(max_len).classes)


def _check_max_len(max_len: int, cap: int):
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if max_len > cap:
        raise ValueError(
            f"max_len {max_len} exceeds the cap {cap}; "
            "raise cap explicitly if the 3^n walk is intended"
        )


class _ClassTable(NamedTuple):
    #: canonical representatives, sorted by length, then letterwise
    classes: tuple[str, ...]
    #: the classes in letterwise order as (kept prefix length, letters to
    #: append, index into classes): consecutive classes share the kept prefix
    walk: tuple[tuple[int, str, int], ...]


@lru_cache(maxsize=None)
def _class_table(max_len: int) -> _ClassTable:
    found: set[str] = set()
    for n in range(1, max_len + 1):
        _walk_cyclically_reduced("", n, found)
    classes = tuple(sorted(found, key=lambda w: (len(w), _rank_key(w))))
    walk = []
    previous = ""
    for index in sorted(range(len(classes)), key=lambda i: _rank_key(classes[i])):
        word = classes[index]
        keep = 0
        while keep < min(len(word), len(previous)) and word[keep] == previous[keep]:
            keep += 1
        walk.append((keep, word[keep:], index))
        previous = word
    return _ClassTable(classes, tuple(walk))


def _walk_cyclically_reduced(prefix: str, n: int, found: set[str]):
    if len(prefix) == n:
        found.add(canonical_class(prefix))
        return
    for ch in LETTERS:
        if prefix and prefix[-1] == ch.swapcase():
            continue
        if len(prefix) == n - 1 and prefix and ch == prefix[0].swapcase():
            continue
        _walk_cyclically_reduced(prefix + ch, n, found)


def twist_substitute(word: str) -> str:
    """Image of a word under the Dehn twist u -> u, v -> v u, reduced."""
    _check_letters(word)
    return reduce_word("".join(_TWIST[ch] for ch in word))


class SpectrumEntry(NamedTuple):
    word: str
    trace: float
    length: float


@dataclass(frozen=True)
class Representation:
    """Matrix pair realizing a Fenchel-Nielsen point.

    Invariants: det A = det B = 1, tr A = 2 cosh(l/2), and the commutator
    trace is -2 cosh(lp/2) (so always <= -2).
    """

    A: np.ndarray
    B: np.ndarray
    source: FNChartPoint

    @cached_property
    def _letter_matrices(self) -> dict[str, tuple[float, float, float, float]]:
        a = tuple(np.asarray(self.A, dtype=float).ravel())
        b = tuple(np.asarray(self.B, dtype=float).ravel())
        return {
            "u": a,
            "v": b,
            # adjugate inverse: determinants are exactly 1
            "U": (a[3], -a[1], -a[2], a[0]),
            "V": (b[3], -b[1], -b[2], b[0]),
        }


def fn_to_rep(point: FNChartPoint) -> Representation:
    """Realize a Fenchel-Nielsen point as a matrix pair."""
    l, lp, theta = point.l, point.lp, point.theta
    if not (l > 0.0 and math.isfinite(l)):
        raise ValueError("l must be positive and finite")
    if not (lp >= 0.0 and math.isfinite(lp)):
        raise ValueError("lp must be nonnegative and finite")
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
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
    A = np.array([[el, 0.0], [0.0, 1.0 / el]])
    B = np.array([[et * c, et * s], [s / et, c / et]])
    return Representation(A=A, B=B, source=point)


def _product_trace(rep: Representation, word: str) -> float:
    mats = rep._letter_matrices
    a, b, c, d = mats[word[0]]
    for ch in word[1:]:
        e, f, g, h = mats[ch]
        a, b, c, d = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    return a + d


def word_trace(rep: Representation, word: str, tol: float = TRACE_TOL) -> float:
    """Trace of the matrix product spelled by the (reduced) word.

    Rejects the trivial word, and reports an elliptic anomaly if the
    trace lands strictly inside the interval (-(2 - tol), 2 - tol).
    """
    w = reduce_word(word)
    if not w:
        raise ValueError("the trivial word has no geodesic class")
    trace = _product_trace(rep, w)
    if abs(trace) < 2.0 - tol:
        raise EllipticTraceError(w, trace)
    return trace


def geodesic_length(rep: Representation, word: str, tol: float = TRACE_TOL) -> float:
    """Geodesic length 2 arccosh(|trace|/2) of the class of word.

    Traces within tol of +/-2 give length 0 (parabolic window).
    """
    t = abs(word_trace(rep, word, tol))
    if t <= 2.0 + tol:
        return 0.0
    return 2.0 * math.acosh(t / 2.0)


def class_spectra(
    reps: list[Representation], max_len: int, cap: int = MAX_CLASS_LENGTH
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Traces and geodesic lengths of every class up to max_len, batched.

    Returns (classes, traces, lengths): classes in enumerate_classes
    order, and two arrays of shape (len(classes), len(reps)) whose column
    b belongs to reps[b].  Entries equal word_trace and geodesic_length
    bit for bit: each product is accumulated left to right with the same
    formula, on numpy columns of one value per surface.  Classes are
    walked letterwise so that a prefix shared by consecutive classes is
    multiplied once, and only the products along the current word are
    kept.

    Raises EllipticTraceError as word_trace would (first surface, then
    first class, in that order), and FloatingPointError if any trace is
    not finite (then neither is its length), instead of letting an
    overflowed product through as a length or a NaN margin.
    """
    _check_max_len(max_len, cap)
    table = _class_table(max_len)
    count = len(reps)
    # letter -> its (2, 2, B) array, entry [i, j, b] on reps[b], and its rows;
    # these views, like those of path below, are taken once, outside the walk
    rows = {}
    for ch in LETTERS:
        m = np.array([rep._letter_matrices[ch] for rep in reps]).T.reshape(2, 2, count)
        rows[ch] = (m, m[0], m[1])
    # path[d] is the product of the first d + 1 letters of the current word
    path = np.empty((max_len, 2, 2, count))
    columns = [(p[:, :1], p[:, 1:]) for p in path]
    diagonals = [(p[0, 0], p[1, 1]) for p in path]
    scratch = np.empty((2, 2, count))
    traces = np.empty((len(table.classes), count))
    # an overflowed product is refused below, once the walk is done
    with np.errstate(over="ignore", invalid="ignore"):
        for keep, suffix, index in table.walk:
            depth = keep
            for ch in suffix:
                matrix, row0, row1 = rows[ch]
                out = path[depth]
                if depth == 0:
                    out[...] = matrix
                else:
                    # [[a, b], [c, d]] [[e, f], [g, h]]: a*e + b*g, a*f + b*h, ...
                    col0, col1 = columns[depth - 1]
                    np.multiply(col0, row0, out=out)
                    np.multiply(col1, row1, out=scratch)
                    np.add(out, scratch, out=out)
                depth += 1
            np.add(*diagonals[depth - 1], out=traces[index])

    bad = ~np.isfinite(traces)
    if bad.any():
        i, b = _first_hit(bad)
        raise FloatingPointError(
            f"non-finite trace {float(traces[i, b])!r} for word "
            f"{table.classes[i]!r}: the word product overflows double precision"
        )
    t = np.abs(traces)
    elliptic = t < 2.0 - TRACE_TOL
    if elliptic.any():
        i, b = _first_hit(elliptic)
        raise EllipticTraceError(table.classes[i], traces[i, b])
    lengths = np.zeros_like(traces)
    hyperbolic = t > 2.0 + TRACE_TOL
    # math.acosh, not np.arccosh, whose last bits differ from geodesic_length
    halves = (t[hyperbolic] / 2.0).tolist()
    lengths[hyperbolic] = 2.0 * np.fromiter(map(math.acosh, halves), float, len(halves))
    return table.classes, traces, lengths


def _first_hit(mask: np.ndarray) -> tuple[int, int]:
    """(class, surface) of the first True entry, surfaces taken in order."""
    b = int(np.flatnonzero(mask.any(axis=0))[0])
    return int(np.flatnonzero(mask[:, b])[0]), b


def length_spectrum(
    rep: Representation, max_len: int, cap: int = MAX_CLASS_LENGTH
) -> list[SpectrumEntry]:
    """Spectrum over all classes of length <= max_len.

    Entries are sorted by geodesic length, ties broken by word order, so
    the output is deterministic.
    """
    classes, traces, lengths = class_spectra([rep], max_len, cap)
    entries = [
        SpectrumEntry(word=w, trace=t, length=l)
        for w, t, l in zip(classes, traces[:, 0].tolist(), lengths[:, 0].tolist())
    ]
    entries.sort(key=lambda e: (e.length, _rank_key(e.word)))
    return entries
