import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from holedtorus import extremal
from holedtorus.charts import FNChartPoint, ResourceLimitError, q_form
from holedtorus.extremal import (
    CLASS_PERIODS,
    GRID_CAP,
    Annulus,
    annulus_from_core_length,
    annulus_quantities,
    lambda_triple_slit,
    refine_and_extrapolate,
    slit_torus_extremal_length,
)
from holedtorus.regions import lambda_chain_check

SRC = Path(__file__).resolve().parent.parent / "src"

# solver-generated regression anchor, frozen from a converged run
TRIPLE_I_HALF = (1.0, 1.2255762249169524, 2.2255762249169524)


def test_annulus_quantities():
    ann = Annulus(2.0)
    assert ann.extremal_length == 0.5
    assert ann.core_length == math.pi / 2.0
    assert annulus_quantities(2.0) == (0.5, math.pi / 2.0)


def test_annulus_rejects_bad_modulus():
    with pytest.raises(ValueError):
        Annulus(0.0)
    with pytest.raises(ValueError):
        Annulus(-1.0)


def test_annulus_from_core_length_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(200):
        modulus = float(np.exp(rng.uniform(-6, 6)))
        ann = Annulus(modulus)
        back = annulus_from_core_length(ann.core_length)
        assert back.modulus == pytest.approx(modulus, rel=1e-15)
        # the core length to extremal length ratio is the same constant
        assert ann.core_length / ann.extremal_length == pytest.approx(
            math.pi, rel=1e-14
        )


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: Annulus(math.inf), ValueError, id="annulus-inf"),
        pytest.param(lambda: Annulus(math.nan), ValueError, id="annulus-nan"),
        pytest.param(lambda: Annulus(1e-320), OverflowError, id="annulus-core"),
        pytest.param(lambda: annulus_quantities(1e-320), OverflowError, id="quantities"),
        pytest.param(lambda: annulus_from_core_length(math.inf), ValueError, id="core-inf"),
        pytest.param(lambda: annulus_from_core_length(1e-320), OverflowError, id="core-tiny"),
        pytest.param(
            lambda: refine_and_extrapolate([1.0, math.nan, 2.0]), ValueError, id="refine-nan"
        ),
        pytest.param(
            lambda: refine_and_extrapolate([-1e308, 1e308]), OverflowError, id="refine-error"
        ),
        pytest.param(
            lambda: refine_and_extrapolate([0.0, 1e308, 1.7e308]),
            OverflowError,
            id="refine-extrapolated",
        ),
        pytest.param(
            lambda: lambda_chain_check(FNChartPoint(math.inf, 1.0, 0.0), 1.0),
            ValueError,
            id="chain-l-inf",
        ),
        pytest.param(
            lambda: lambda_chain_check(FNChartPoint(2.0, 1.0, 0.0), math.inf),
            ValueError,
            id="chain-modulus-inf",
        ),
        pytest.param(
            lambda: lambda_chain_check(FNChartPoint(2.0, 1.0, 0.0), 1e-320),
            OverflowError,
            id="chain-modulus-tiny",
        ),
    ],
)
def test_numeric_helpers_refuse_non_finite_input_and_overflow(call, error):
    with pytest.raises(error, match="finite|overflows"):
        call()


def test_refine_and_extrapolate_geometric():
    extrapolated, err = refine_and_extrapolate([1.5, 1.25, 1.125])
    assert extrapolated == pytest.approx(1.0, abs=1e-12)
    assert err == pytest.approx(0.125, abs=1e-15)


def test_refine_and_extrapolate_short_history():
    extrapolated, err = refine_and_extrapolate([2.0, 1.5])
    assert extrapolated is None
    assert err == 0.5


def test_refine_and_extrapolate_needs_two_levels():
    with pytest.raises(ValueError, match="^need at least two refinement levels$"):
        refine_and_extrapolate([1.0])


def test_refine_and_extrapolate_non_geometric():
    # growing differences: no extrapolation, finest value stands
    extrapolated, _ = refine_and_extrapolate([1.0, 1.1, 1.3])
    assert extrapolated == 1.3


@pytest.mark.parametrize(
    "values, error, message",
    [
        (5, ValueError, "values must be a sequence of refinement values"),
        ("ab", ValueError, "values must be a sequence of refinement values"),
        (None, ValueError, "values must be a sequence of refinement values"),
        ({1: 2}, ValueError, "values must be a sequence of refinement values"),
        (["x", 1.0], ValueError, "refinement value must be a real number"),
        ([True, 1.0], ValueError, "refinement value must be a real number"),
        ([1.0, None], ValueError, "refinement value must be a real number"),
        ([1 + 1j, 2.0], ValueError, "refinement value must be a real number"),
        ([1.0], ValueError, "need at least two refinement levels"),
        ([math.nan], ValueError, "need at least two refinement levels"),
        ([1.0, math.nan], ValueError, "refinement values must be finite"),
        ([1.0, -math.inf, 2.0], ValueError, "refinement values must be finite"),
        (
            [-1e308, 1e308],
            OverflowError,
            "the difference of [-1e+308, 1e+308] overflows double precision",
        ),
        (
            (0.0, 1e308, 1.7e308),
            OverflowError,
            "the extrapolation of [0.0, 1e+308, 1.7e+308] overflows double precision",
        ),
    ],
)
def test_refine_and_extrapolate_keeps_every_refusal(values, error, message):
    # the public function checks its input, then runs the solver's _extrapolate
    with pytest.raises(error) as refused:
        refine_and_extrapolate(values)
    assert str(refused.value) == message


def test_estimates_keep_the_extrapolations_refusal(monkeypatch):
    # the solver's energies skip the input checks, not the result checks:
    # an extrapolation that overflows is refused by the same message
    history = {16: 1e300, 32: 1.5e308, 64: 1.79e308}
    monkeypatch.setattr(extremal, "_solve_grid", lambda tau, s, periods, n: [history[n]])
    with pytest.raises(OverflowError) as refused:
        slit_torus_extremal_length(1j, 0.5, "b", 64, levels=3)
    with pytest.raises(OverflowError) as public:
        refine_and_extrapolate(list(history.values()))
    assert str(refused.value) == str(public.value)
    assert str(refused.value).startswith("the extrapolation of [1e+300, ")


# the sheared tau are where the linear part's load, zero in exact arithmetic,
# summed in floats to about 1e-18
ANCHOR_TAUS = (1j, 2j, 1 + 1j, 0.3 + 0.8j, -0.21 + 0.68j)

#: Seeded tau in the slit_solver workload's range.
SEEDED_TAUS = tuple(
    complex(re, im)
    for re, im in np.random.default_rng(0).uniform((-0.5, 0.6), (0.5, 2.0), (4, 2))
)


def test_flat_torus_anchors_class_a():
    for tau in ANCHOR_TAUS:
        for s in (0.0, 0.25, 0.5):
            est = slit_torus_extremal_length(tau, s, "a", 64, levels=2)
            assert est.estimate == pytest.approx(1.0 / tau.imag, abs=1e-12)


def test_flat_torus_anchors_at_zero_slit():
    for tau in ANCHOR_TAUS:
        im = tau.imag
        b = slit_torus_extremal_length(tau, 0.0, "b", 64, levels=2)
        assert b.estimate == pytest.approx(abs(tau) ** 2 / im, abs=1e-10)
        ab = slit_torus_extremal_length(tau, 0.0, "aB", 64, levels=2)
        assert ab.estimate == pytest.approx(abs(1 - tau) ** 2 / im, abs=1e-10)


def test_estimates_decrease_under_refinement():
    # s = 0.5 keeps the discrete slit identical on every level, so the
    # nested finite-element spaces give monotone-from-above estimates
    est = slit_torus_extremal_length(1j, 0.5, "b", 128, levels=3)
    values = [value for _, value in est.history]
    assert values == sorted(values, reverse=True)
    assert est.error_indicator == pytest.approx(abs(values[-1] - values[-2]), abs=0.0)


@pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j])
@pytest.mark.parametrize("s", [0.25, 0.5])
def test_histories_on_a_fixed_slit_do_not_increase(tau, s):
    # s * 32 is an integer: the slit is the same on every level and the
    # spaces nest, so no class's history can rise under refinement
    for estimate in lambda_triple_slit(tau, s, 128, levels=3).estimates:
        values = [value for _, value in estimate.history]
        assert values == sorted(values, reverse=True), estimate.curve_class


def test_grid_cap_refused_before_any_solve(monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved past the cap")

    monkeypatch.setattr(extremal, "_solve_grid", no_solve)
    for call in (
        lambda n: slit_torus_extremal_length(1j, 0.5, "b", n),
        lambda n: lambda_triple_slit(1j, 0.5, n),
    ):
        with pytest.raises(ResourceLimitError, match="exceeds the cap 512"):
            call(2 * GRID_CAP)
        with pytest.raises(ResourceLimitError):
            call(65536)


def test_huge_levels_refused_without_a_huge_int():
    # 1 << (levels - 1) would be a 10^14-bit integer
    with pytest.raises(ValueError, match="multiple of 2"):
        slit_torus_extremal_length(1j, 0.5, "b", 128, levels=10**14)


def test_slit_monotone_in_length():
    # a longer slit blocks the b flux more, raising its extremal length
    values = [
        slit_torus_extremal_length(1j, s, "b", 64, levels=2).estimate
        for s in (0.0, 0.2, 0.4, 0.6)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_solver_validation():
    for tau, s, grid_n, levels in [
        (1j, 1.0, 64, 3),
        (1j, -0.1, 64, 3),
        (1 - 1j, 0.3, 64, 3),
        (1j, 0.3, 64, 1),
        (1j, 0.3, 24, 2),
        (1j, 0.3, 16, 2),
        (complex(math.nan, 1.0), 0.3, 64, 3),
        (complex(math.inf, 1.0), 0.3, 64, 3),
        (complex(0.0, math.inf), 0.3, 64, 3),
        (complex(0.0, math.nan), 0.3, 64, 3),
        (1j, 0.3, 32.0, 2),
        (1j, 0.3, 64, 2.0),
    ]:
        with pytest.raises(ValueError) as single:
            slit_torus_extremal_length(tau, s, "a", grid_n, levels=levels)
        # the triple goes through the same validation
        with pytest.raises(ValueError) as triple:
            lambda_triple_slit(tau, s, grid_n, levels=levels)
        assert str(triple.value) == str(single.value)
    with pytest.raises(ValueError):
        slit_torus_extremal_length(1j, 0.3, "c", 64)


#: Its metric form is finite, but the stencil's centre 2 (f00 + f11 - f01) overflows.
OVERFLOWING_STENCIL_TAU = complex(-1.157961173222321e79, 8.756291946270664e-151)


@pytest.mark.parametrize(
    "tau, match",
    [
        (1e200 + 1j, "metric form"),
        (1e300j, "metric form"),
        (1e100 + 1j, "energies"),
        (OVERFLOWING_STENCIL_TAU, "^the stencil of tau = .* at n = 16 overflows$"),
        (1e-300j, r"at tau = 1e-300j, n = 16: the metric form underflows \("),
    ],
)
def test_extreme_tau_is_a_numeric_failure(tau, match):
    with pytest.raises(FloatingPointError, match=match):
        slit_torus_extremal_length(tau, 0.5, "b", 32, levels=2)


def test_a_stencil_that_overflows_is_refused_by_its_tau_and_n():
    # a numeric failure named by tau and n, before the row sum's fsum meets
    # [inf, -1.5e308, ...] and raises ValueError, which reads as an input error
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError, match=r"at n = 64 overflows$"):
            extremal._stencil(OVERFLOWING_STENCIL_TAU, 64)
    # class a needs no stencil: its energy 1/Im tau is exact
    est = slit_torus_extremal_length(OVERFLOWING_STENCIL_TAU, 0.5, "a", 32, levels=2)
    assert est.estimate == 1.0 / OVERFLOWING_STENCIL_TAU.imag


def test_an_underflowed_metric_form_is_named():
    # |tau|^2 = 1e-600 underflows, so f00 = 0.0: every class with a period
    # around the slit's cycle is refused, class a keeps its exact 1/Im tau
    assert extremal._metric_form(1e-300j)[0] == 0.0
    for s in (0.0, 0.5):
        with pytest.raises(FloatingPointError, match=r"n = 16: the metric form underflows \("):
            lambda_triple_slit(1e-300j, s, 32, levels=2)
    assert slit_torus_extremal_length(1e-300j, 0.5, "a", 32, levels=2).estimate == 1.0 / 1e-300


def _form_matrix(tau):
    """_metric_form's three entries as the symmetric 2 x 2 matrix F."""
    f00, f01, f11 = extremal._metric_form(tau)
    return np.array([[f00, f01], [f01, f11]])


def _flat_energy(tau, curve_class):
    p = np.array(CLASS_PERIODS[curve_class])
    return float(p @ _form_matrix(tau) @ p)


#: Finite metric forms at the edge: f00 = 1e300 (whose G row is inf), Im tau
#: near 1e-150 with F near 1e155 and 1e191 (finite G rows), and f00 = 4.8e307,
#: where 4 c1 overflows and 4 c1 sin^2(0) would read nan.
EDGE_FORM_TAUS = (
    1e150 + 1j,
    complex(-280.6767565198529, 3.917597392605901e-151),
    complex(1.3100215480671646e16, 6.651746037454335e-160),
    complex(3.1127839516702564e114, 2.0237204260580682e-79),
)


def test_singular_factor_is_a_numeric_failure(monkeypatch):
    def singular(matrix):
        raise RuntimeError("pivot 0.0 at row 1 is not positive")

    monkeypatch.setattr(extremal, "splu", singular)
    with pytest.raises(FloatingPointError, match="singular"):
        slit_torus_extremal_length(1j, 0.5, "b", 32, levels=2)
    # a solve that needs no factorization never meets the refusal, and its
    # p^T F p, summed in Python floats, is numpy's p @ F @ p bit for bit
    for tau in (1j, 0.3 + 0.8j) + SEEDED_TAUS + EDGE_FORM_TAUS[:2]:
        est = slit_torus_extremal_length(tau, 0.5, "a", 32, levels=2)
        assert est.estimate == _flat_energy(tau, "a")
        for curve_class in CLASS_PERIODS:
            est = slit_torus_extremal_length(tau, 0.0, curve_class, 32, levels=2)
            assert est.estimate == _flat_energy(tau, curve_class)


def _local_stiffness(verts, form):
    """One triangle's area grads^T F grads as a 2-D np.matmul: _stencil stacks the two."""
    scaled, grads = extremal._gradients(verts)
    return scaled @ form @ grads


def _triangle_stiffness(tau, n):
    """The per-triangle COO assembly that the stencil replaced: the oracle."""
    from scipy import sparse

    h = 1.0 / n
    re, im = tau.real, tau.imag
    form = np.array([[re * re + im * im, -re], [-re, 1.0]]) / im
    k1 = _local_stiffness(np.array([[0, 0], [h, 0], [h, h]], float), form)
    k2 = _local_stiffness(np.array([[0, 0], [h, h], [0, h]], float), form)
    idx = np.arange(n * n).reshape(n, n)  # idx[j, i], row-major in j
    right = np.roll(idx, -1, axis=1)
    up = np.roll(idx, -1, axis=0)
    upright = np.roll(right, -1, axis=0)
    rows, cols, vals = [], [], []
    for conn, kloc in (((idx, right, upright), k1), ((idx, upright, up), k2)):
        for alpha in range(3):
            for beta in range(3):
                rows.append(conn[alpha].ravel())
                cols.append(conn[beta].ravel())
                vals.append(np.full(n * n, kloc[alpha, beta]))
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * n, n * n),
    ).tocsr()


#: Node offsets (di, dj) of K's seven-point stencil, and the _stencil
#: coefficient of each: -d couples as +d.
OFFSETS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))
COEFFICIENT = [0, 1, 1, 2, 2, 3, 3]


def _stencil_stiffness(tau, n):
    """The scipy CSR assembly of the stencil: K of _per_class_solve's LU oracle."""
    from scipy import sparse

    j, i = np.divmod(np.arange(n * n), n)
    cols = np.stack([(j + dj) % n * n + (i + di) % n for di, dj in OFFSETS], axis=1)
    order = np.argsort(cols, axis=1)
    data = extremal._stencil(tau, n)[COEFFICIENT][order].ravel()
    indices = np.take_along_axis(cols, order, axis=1).ravel()
    indptr = np.arange(0, cols.size + 1, len(OFFSETS))
    return sparse.csr_matrix((data, indices, indptr), shape=(n * n, n * n))


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("tau", SEEDED_TAUS)
def test_stencil_matches_triangle_assembly(tau, n):
    # same pattern, explicit zeros included, so the LU oracle orders the same
    # columns; entries differ at most by the order of the diagonal's sum
    got, want = _stencil_stiffness(tau, n), _triangle_stiffness(tau, n)
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_allclose(got.data, want.data, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n", [32, 64, 128])
def test_stencil_is_bit_identical_at_tau_i(n):
    """The two assemblies round alike at these n, though the sums are not exact.

    np.linalg.det is numpy's sign exp(sum log|u_ii|), so a triangle's
    doubled area is exp(log h + log h): 0x1.0000000000003p-12 at h = 1/64.
    np.linalg.inv of the edge matrices is exact at power-of-two n.  So the
    stencil is (4, -1, -1, 0)(1 + k 2^-52), with k = 1, 0, 3, 2, 2 at
    n = 16, 32, 64, 128, 256, and at n = 128 the centre's six terms sum
    to 4.000000000000001 or 4.000000000000002 depending on their order.
    """
    got, want = _stencil_stiffness(1j, n), _triangle_stiffness(1j, n)
    for field in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


#: (tau, n) where the stencil's +d and -d sums round apart.
UNEVEN_SUMS = (
    (0.5 + 1j, 322),
    (1.3310402612950973 + 4.537990663795906j, 93),
    (-2.378300009384361 + 15.511759367059096j, 99),
)


@pytest.mark.parametrize(
    "tau, n",
    [(tau, n) for tau in (1j,) + SEEDED_TAUS for n in (16, 32, 64, 128)] + [UNEVEN_SUMS[1]],
)
def test_green_row_matches_the_reference_csc(tau, n):
    # The reference G is the 2-D inverse FFT of 1 / K's eigenvalues, read
    # off the scipy CSR assembly's first column, constant mode dropped; it
    # inverts K on the mean-zero fields.  Its row j = 0 is _green_row, up
    # to the digits that c0 + 2 sum c cos(theta) loses on the small
    # eigenvalues (measured worst 2.7e-14 here).  Each slit block that
    # _solve_grid takes from the row is SPD: solve's rows are L^-1 of its
    # rhs rows, so of the identity's they are the rows of L^-T, and L^-1
    # is lower triangular, positive on its diagonal, and whitens the block
    # (measured worst 2.2e-15), at an odd grid too
    stencil = _stencil_stiffness(tau, n)
    eigenvalues = np.fft.fft2(stencil[:, 0].toarray().reshape(n, n))
    eigenvalues[0, 0] = np.inf
    green = np.fft.ifft2(1.0 / eigenvalues).real
    delta = np.full(n * n, -1.0 / (n * n))
    delta[0] += 1.0
    np.testing.assert_allclose(stencil @ green.ravel(), delta, rtol=0.0, atol=1e-13)
    row = extremal._green_row(tau, n)
    assert row.shape == (n,)
    np.testing.assert_allclose(row, green[0], rtol=0.0, atol=1e-13 * np.max(np.abs(green[0])))
    for s in (0.01, 0.25, 0.9):
        nslit = int(math.floor(s * n + 1e-12)) + 1
        i = np.arange(nslit)
        block = row[abs(i[:, None] - i)]
        inverse = extremal.splu(block).solve(np.eye(nslit)).T
        np.testing.assert_array_equal(inverse, np.tril(inverse), err_msg=f"{s}")
        assert (np.diag(inverse) > 0).all(), s
        np.testing.assert_allclose(
            inverse @ block @ inverse.T, np.eye(nslit), rtol=0.0, atol=1e-13, err_msg=f"{s}"
        )


@pytest.mark.parametrize("tau", (1j,) + SEEDED_TAUS)
def test_every_mesh_row_holds_the_stencil_up_to_its_centres_order(tau):
    # The Green's-function solve assumes K is circulant.  The mesh's own
    # per-triangle assembly is, at every node of the n = 128 grid: each
    # coupling is the same two local terms, so it is _stencil's bit for
    # bit.  scipy sums a centre's six positive terms in an order that
    # varies by row (at SEEDED_TAUS[2] two rows differ by one ulp), so
    # the centre may differ from _stencil's by reordering: 10 u c0.
    n = 128
    mesh, stencil = _triangle_stiffness(tau, n), _stencil_stiffness(tau, n)
    np.testing.assert_array_equal(mesh.indptr, stencil.indptr)
    np.testing.assert_array_equal(mesh.indices, stencil.indices)
    centre = mesh.indices == np.repeat(np.arange(n * n), np.diff(mesh.indptr))
    np.testing.assert_array_equal(mesh.data[~centre], stencil.data[~centre])
    c0 = extremal._stencil(tau, n)[0]
    np.testing.assert_allclose(mesh.data[centre], c0, rtol=0.0, atol=10 * 2.0**-53 * c0)


def _node_sums(tau, n):
    """The node's assembly: the two triangles' local terms summed at each of OFFSETS."""
    form = _form_matrix(tau)
    sums = dict.fromkeys(OFFSETS, 0.0)
    for corners in (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1))):
        kloc = _local_stiffness(np.array(corners, float) / n, form)
        for a, (ia, ja) in enumerate(corners):
            for b, (ib, jb) in enumerate(corners):
                sums[ib - ia, jb - ja] += kloc[a, b]
    return sums


@pytest.mark.parametrize("tau", (1j,) + SEEDED_TAUS + tuple(tau for tau, _ in UNEVEN_SUMS))
def test_stencil_is_the_node_assembly_bit_for_bit(tau):
    # _stencil is the node's +d sums on every grid a solve accepts, so K
    # is symmetric bit for bit; each tau has grids, UNEVEN_SUMS among them,
    # where the sums made for -d round apart from them
    for n in range(extremal.MIN_GRID, GRID_CAP + 1):
        sums = _node_sums(tau, n)
        want = [sums[d].hex() for d in ((0, 0), (1, 0), (0, 1), (1, 1))]
        assert [c.hex() for c in extremal._stencil(tau, n)] == want, n
        if (tau, n) in UNEVEN_SUMS:
            assert [sums[d] for d in OFFSETS[2::2]] != [sums[d] for d in OFFSETS[1::2]]
    # the per-grid memo is bounded by the grids a solve accepts
    assert extremal._cell_triangles.cache_info().currsize <= GRID_CAP - extremal.MIN_GRID + 1


@pytest.mark.parametrize("n", [64, UNEVEN_SUMS[1][1]])
def test_the_stencils_per_grid_memo_holds_nothing_of_tau(n):
    # a tau after another tau, and after the memo is cleared, gets the
    # node assembly's bits: only what n fixes is kept between calls.  The
    # Green's row's sines are kept too: read-only, and the bits of the
    # expression each call took before the memo held them
    tau1, tau2 = UNEVEN_SUMS[1][0], SEEDED_TAUS[0]
    sines = (4.0 * np.sin(np.pi * np.arange(n) / n) ** 2).tobytes()
    for tau, clear in ((tau1, False), (tau2, False), (tau1, False), (tau2, True)):
        if clear:
            extremal._cell_triangles.cache_clear()
        sums = _node_sums(tau, n)
        want = [sums[d].hex() for d in ((0, 0), (1, 0), (0, 1), (1, 1))]
        assert [c.hex() for c in extremal._stencil(tau, n)] == want, (tau, clear)
        np.testing.assert_array_equal(extremal._green_row(tau, n), _gathered_green_row(tau, n))
        memo = extremal._cell_triangles(n)
        assert memo[3].tobytes() == sines, (tau, clear)
        for array in memo[:2] + memo[3:]:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


@pytest.mark.parametrize(
    "n, s, m", [(16, 1 / 16, 2), (32, 0.5, 17), (256, 0.3, 77), (512, 0.5, 257), (512, 0.999, 512)]
)
def test_the_slit_block_is_the_gathered_green_row_bit_for_bit(monkeypatch, n, s, m):
    # _solve_grid reads G[|i - j|] through strides over one copy of the
    # row's first m entries, not through an m x m index gather; the
    # elimination copies the block and writes neither it nor the row
    rows, blocks = [], []
    green_row, splu = extremal._green_row, extremal.splu

    def recorded_row(tau, n):
        row = green_row(tau, n)
        rows.append((row, row.tobytes()))
        return row

    def recorded_splu(block):
        blocks.append(block)
        return splu(block)

    monkeypatch.setattr(extremal, "_green_row", recorded_row)
    monkeypatch.setattr(extremal, "splu", recorded_splu)
    extremal._solve_grid(0.2 + 0.7j, s, list(CLASS_PERIODS.values()), n)
    ((row, row_bytes),), (block,) = rows, blocks
    assert row.tobytes() == row_bytes
    i = np.arange(m)
    assert block.shape == (m, m)
    assert block.tobytes() == row[abs(i[:, None] - i)].tobytes()


def _hex_fields(estimate):
    extrapolated = estimate.extrapolated
    return (
        [(n, value.hex()) for n, value in estimate.history],
        estimate.estimate.hex(),
        estimate.error_indicator.hex(),
        None if extrapolated is None else extrapolated.hex(),
    )


@pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j, 1 + 1j])
@pytest.mark.parametrize("s", [0.0, 0.25, 0.5])
def test_triple_shares_factorization_bit_for_bit(tau, s):
    # one factorization per grid serves the three classes; each class
    # alone must give the very same floats
    triple = lambda_triple_slit(tau, s, 128, 3)
    for curve_class, estimate in zip(("a", "b", "aB"), triple.estimates):
        alone = slit_torus_extremal_length(tau, s, curve_class, 128, 3)
        assert estimate.curve_class == curve_class
        assert _hex_fields(estimate) == _hex_fields(alone)


def _per_class_solve(tau, s, periods_list, n):
    """One sparse LU of K's free block, then one back-solve per class, zero
    data included: an oracle for the Green's function that shares only the
    stencil with it."""
    from scipy.sparse.linalg import splu

    stiffness = _stencil_stiffness(tau, n)
    nslit = int(math.floor(s * n + 1e-12)) + 1
    lu = splu(stiffness[nslit:, nslit:].tocsc())
    coupling = stiffness[nslit:, :nslit]
    energies = []
    for p in map(np.array, periods_list):
        slit = -p[0] * (1.0 / n) * np.arange(nslit)
        phi = np.concatenate([slit, lu.solve(-(coupling @ slit))])
        quad = np.sum(phi * (stiffness @ phi))  # numpy's pairwise sum, as _solve_grid's
        energies.append(float(quad + p @ _form_matrix(tau) @ p))
    return energies


class _SpyFactor:
    """splu stand-in that counts factorizations and forward solves."""

    def __init__(self, splu):
        self.splu, self.factors, self.solves = splu, 0, 0

    def __call__(self, matrix):
        self.factors += 1
        self.lu = self.splu(matrix)
        return self

    def solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)


CLASS_SETS = (("a",), ("b",), ("aB",), ("a", "b", "aB"))


# s = 0.01 is a one-node slit on every grid up to n = 99
@pytest.mark.parametrize("s", [0.0, 0.01, 0.1, 0.25, 0.5, 0.9])
@pytest.mark.parametrize("tau", (1j,) + SEEDED_TAUS)
def test_solve_grid_matches_per_class_lu_solves(monkeypatch, tau, s):
    # the oracle is scipy's own CSR products and public splu on K's free
    # block, within 7.0e-12 relative of the Green's function on 245 cases
    # to n = 256; a grid factors one slit block and solves it once,
    # whatever the classes
    spy = _SpyFactor(extremal.splu)
    monkeypatch.setattr(extremal, "splu", spy)
    # the modulus golden's point also at its finest grid
    for n in (16, 32, 64) + ((128,) if (tau, s) == (1j, 0.5) else ()):
        # the oracle's classes do not interact: one call serves every set
        want = dict(zip(CLASS_PERIODS, _per_class_solve(tau, s, CLASS_PERIODS.values(), n)))
        for classes in CLASS_SETS:
            before = spy.factors, spy.solves
            got = extremal._solve_grid(tau, s, [CLASS_PERIODS[c] for c in classes], n)
            crosses = math.floor(s * n) > 0 and classes != ("a",)
            assert (spy.factors, spy.solves) == (before[0] + crosses, before[1] + crosses)
            want_classes = [want[c] for c in classes]
            np.testing.assert_allclose(got, want_classes, rtol=2e-11, atol=0.0, err_msg=f"{n}")


@pytest.mark.parametrize("n", [16, 32, 128])
def test_a_slit_near_one_stays_in_its_row(n):
    # floor(s n + 1e-12) reaches n within 1e-12/n of s = 1; snapped, the
    # slit is the full row 0, as at s = 0.999, and node (0, 1) stays free
    periods = [(1.0, 0.0), (1.0, 1.0)]
    want = [e.hex() for e in extremal._solve_grid(0.2 + 0.7j, 0.999, periods, n)]
    for s in (math.nextafter(1.0, 0.0), 1 - 1e-14):
        assert [e.hex() for e in extremal._solve_grid(0.2 + 0.7j, s, periods, n)] == want, s


def _gathered_green_row(tau, n):
    """_green_row as an n^2 index gather, separate temporaries, 4 after the sums: the reference."""
    c = extremal._stencil(tau, n)  # centre, then +-(1, 0), +-(0, 1), +-(1, 1)
    k = np.arange(n)
    half = np.sin(np.pi * k / n) ** 2  # (1 - cos(2 pi k / n)) / 2
    # the row sum is rounded once: at n = 128 the smallest symbols are 1e-3 of
    # the centre, and a naive sum's rounding moved Q by up to 4e-14 relative
    symbol = math.fsum([c[0], 2 * c[1], 2 * c[2], 2 * c[3]]) - 4 * (
        c[1] * half[:, None] + c[2] * half + c[3] * half[(k[:, None] + k) % n]
    )
    symbol[0, 0] = np.inf
    return np.fft.ifft((1.0 / symbol).sum(axis=1)).real / n


class _SummedCholesky:
    """splu as two np.sum calls a column, and its forward solve as one."""

    def __init__(self, block):
        m = len(block)
        lower = np.zeros((m, m))
        for j in range(m):
            row = lower[j, :j]
            pivot = block[j, j] - np.sum(row * row)
            if pivot <= 0.0:
                raise RuntimeError(f"pivot {pivot!r} at row {j} is not positive")
            lower[j, j] = math.sqrt(pivot)
            dots = np.sum(lower[j + 1 :, :j] * row, axis=1)
            lower[j + 1 :, j] = (block[j + 1 :, j] - dots) * (1.0 / lower[j, j])
        self.lower = lower

    def solve(self, rhs):
        lower = self.lower
        y = np.zeros_like(rhs)
        for j in range(len(lower)):
            y[:, j] = (rhs[:, j] - np.sum(lower[j, :j] * y[:, :j], axis=1)) * (1.0 / lower[j, j])
        return y


#: (tau, s, n): seeded points of the slit_solver workload's box at its grids,
#: the grids whose stencil sums round unevenly, and the capped grid's full row.
SAME_BITS_CASES = (
    [
        (complex(re, im), s, n)
        for (re, im, s), n in zip(
            np.random.default_rng(33).uniform((-0.5, 0.6, 0.0), (0.5, 2.0, 0.3), (6, 3)),
            (32, 64, 128, 128, 256, 256),
        )
    ]
    + [(tau, s, n) for tau, n in UNEVEN_SUMS for s in (0.3, 0.9)]
    + [(0.2 + 0.7j, math.nextafter(1.0, 0.0), GRID_CAP), (-0.3 + 1.4j, 0.45, GRID_CAP)]
)


@pytest.mark.parametrize("tau, s, n", SAME_BITS_CASES)
def test_green_row_and_cholesky_match_their_references_bit_for_bit(monkeypatch, tau, s, n):
    # every product and every pairwise sum along a contiguous axis is the
    # reference's, so no bit moves; a numpy that reduced in another order
    # fails here before it moves a golden byte.  The edge forms pin the 4 of
    # the symbol to the sines: on c, 4 c overflows at the last of them
    with np.errstate(all="ignore"):  # the edge forms' rows hold inf and nan
        for edge in EDGE_FORM_TAUS:
            want = _gathered_green_row(edge, n)
            np.testing.assert_array_equal(extremal._green_row(edge, n), want, err_msg=f"{edge}")
    row = extremal._green_row(tau, n)
    np.testing.assert_array_equal(row, _gathered_green_row(tau, n))
    nslit = min(math.floor(s * n + 1e-12), n - 1) + 1
    i = np.arange(nslit)
    block = row[abs(i[:, None] - i)]
    rhs = np.stack([-(1.0 / n) * i, np.ones(nslit)])
    want = _SummedCholesky(block).solve(rhs)
    np.testing.assert_array_equal(extremal.splu(block).solve(rhs), want)
    periods = list(CLASS_PERIODS.values())
    got = [e.hex() for e in extremal._solve_grid(tau, s, periods, n)]
    monkeypatch.setattr(extremal, "_green_row", _gathered_green_row)
    monkeypatch.setattr(extremal, "splu", _SummedCholesky)
    assert got == [e.hex() for e in extremal._solve_grid(tau, s, periods, n)]


@pytest.mark.parametrize(
    "block, row",
    [
        ([[1.0, 2.0], [2.0, 1.0]], 1),  # symmetric indefinite: 1 - 2^2 under the second
        ([[0.0, 1.0], [1.0, 1.0]], 0),
        ([[4.0, 2.0, 2.0], [2.0, 2.0, 1.0], [2.0, 1.0, 1.0]], 2),  # singular: pivot 0.0
    ],
)
def test_splu_refuses_a_pivot_that_is_not_positive(block, row):
    factor = extremal.splu(np.array(block))  # only holds the block: solve() eliminates it
    with pytest.raises(RuntimeError, match=f"at row {row} is not positive"):
        factor.solve(np.ones((2, len(block))))


def test_a_green_row_with_an_indefinite_slit_block_is_a_numeric_failure(monkeypatch):
    # the real elimination meets the pivot 1 - 2^2 at row 1 of the block
    # [[1, 2, 0, ...], [2, 1, 2, ...], ...]; _solve_grid's try covers solve()
    def indefinite(tau, n):
        return np.concatenate([[1.0, 2.0], np.zeros(n - 2)])

    monkeypatch.setattr(extremal, "_green_row", indefinite)
    with pytest.raises(FloatingPointError, match="singular slit block"):
        extremal._solve_grid(1j, 0.5, [(1.0, 0.0)], 32)


def test_a_factoring_solve_loads_no_scipy_module(tmp_path):
    # a fresh interpreter: the CLI, a non-solver command and a solve that
    # factors import no scipy, and the solve gives the golden's n = 32 value
    desc = tmp_path / "fn.json"
    desc.write_text(json.dumps({"chart": "fn", "l": 2.0, "lp": 1.0, "theta": 0.0}))
    code = f"""
import sys
from holedtorus import cli

def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

assert cli.main(["chart", "--input", {str(desc)!r}, "--out", {str(tmp_path / "out")!r}]) == 0
from holedtorus import extremal
est = extremal.slit_torus_extremal_length(1j, 0.5, "b", 32, 2)
assert abs(est.estimate - 1.2425507518982426) <= 1e-9 * 1.2425507518982426, est
assert scipy_modules() == [], scipy_modules()
print("ok")
"""
    assert _fresh_python(code) == "ok"


def _fresh_python(code, **variables):
    """stdout of code run in a new interpreter on SRC, with extra environment variables."""
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


def test_energy_does_not_depend_on_the_blas_thread_count():
    """One and two OpenBLAS threads give the same bits.

    The one elimination, which gives the Cholesky factor and L^-1 [slit; 1],
    and Q, the squared norm of a projection residual, are numpy elementwise
    products and np.add.reduce reductions, and p^T F p is Python float
    arithmetic: no BLAS thread count reaches them.  A BLAS dot
    is split across threads: the sparse LU's phi @ K phi read
    0x1.1040b840f8871p+1 with one thread and ...8872p+1 with two at
    (0.3+0.8i, 0.9, 128).  (0.3+0.8i, 0.3, 256) is slit_solver's largest
    slit block.  On a one-core host OpenBLAS may not split a dot at all,
    so there this test cannot fail.
    """
    code = (
        "from holedtorus import extremal\n"
        "for s, n in ((0.9, 128), (0.3, 256)):\n"
        "    print(extremal._solve_grid(0.3 + 0.8j, s, [(1.0, 0.0)], n)[0].hex())"
    )
    one, two = (_fresh_python(code, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
    assert one == two


@pytest.mark.parametrize("scipy_found", [False, True], ids=["no-scipy", "empty-scipy"])
def test_a_factoring_solve_needs_no_scipy(monkeypatch, tmp_path, scipy_found):
    # scipy blocked from import, or a scipy package found at tmp_path that
    # holds nothing: the solve imports none of it and keeps the modulus
    # golden's n = 32 and 64 values bit for bit
    for name in [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]:
        monkeypatch.delitem(sys.modules, name)
    if scipy_found:
        (tmp_path / "scipy").mkdir()
        (tmp_path / "scipy" / "__init__.py").write_text("")
        monkeypatch.syspath_prepend(str(tmp_path))
    else:
        monkeypatch.setitem(sys.modules, "scipy", None)
    est = slit_torus_extremal_length(1j, 0.5, "b", 64, levels=2)
    assert est.history == ((32, 1.2425507518982426), (64, 1.2311726733501331))
    assert [m for m in sys.modules if m.startswith("scipy.")] == []
    assert sys.modules.get("scipy", "absent") == (None if not scipy_found else "absent")


def test_lambda_triple_slit_regression():
    triple = lambda_triple_slit(1j, 0.5, 128, levels=3)
    assert triple.triple == pytest.approx(TRIPLE_I_HALF, rel=1e-9)
    assert triple.q_plus_4 == pytest.approx(-0.9023048996678096, abs=1e-6)
    assert triple.converged
    assert triple.error_indicator < 6e-3


def test_lambda_triple_slit_zero_slit_is_flat():
    triple = lambda_triple_slit(1j, 0.0, 64, levels=2)
    assert triple.triple == pytest.approx((1.0, 1.0, 2.0), abs=1e-10)
    assert q_form(triple.triple) + 4.0 == pytest.approx(0.0, abs=1e-9)


def _exact_class_b(t, s):
    """Exact class-b extremal length of the slit torus (i t, s), at 30 digits.

    sn(., k) with K'/K = 2t maps the quarter cell [s/2, s/2 + 1/2] x [0, t/2]
    onto the upper half plane, its four arc ends to z below; their cross-ratio
    c fixes the elliptic modulus mu of the image quadrilateral.
    """
    with mp.workdps(30):
        k = mp.kfrom(q=mp.exp(-2 * mp.pi * t))
        m = k**2  # mpmath's ellipk and ellipfun take the parameter m = k^2
        alpha = mp.ellipfun("sn", (2 * s - 1) * mp.ellipk(m), m=m)
        z1, z2, z3, z4 = -1 / k, alpha, 1, 1 / k
        c = (z3 - z2) * (z4 - z1) / ((z3 - z1) * (z4 - z2))
        mu = (2 - c - 2 * mp.sqrt(1 - c)) / c
        return float(mp.ellipk(1 - mu**2) / (2 * mp.ellipk(mu**2)))


def test_exact_class_b_oracle():
    assert _exact_class_b(1.0, 0.5) == pytest.approx(1.22004159128346, rel=1e-12)
    assert _exact_class_b(1.0, 0.9) == pytest.approx(2.1787445132796, rel=1e-12)
    assert _exact_class_b(2.0, 0.5) == pytest.approx(2.22063449009855, rel=1e-12)
    # a vanishing slit leaves the flat torus, whose class-b length is t
    assert _exact_class_b(1.0, 1e-4) == pytest.approx(1.0, abs=1e-7)


def _class_b_history(t, s):
    periods = [CLASS_PERIODS["b"]]
    return [extremal._solve_grid(1j * t, s, periods, n)[0] for n in (16, 32, 64, 128)]


@pytest.mark.parametrize("t, s", [(1.0, 0.5), (1.0, 0.25), (2.0, 0.5), (1.25, 0.75)])
def test_class_b_converges_to_the_exact_value_at_first_order(t, s):
    # dyadic s: every grid holds the slit exactly
    exact = _exact_class_b(t, s)
    values = _class_b_history(t, s)
    errors = [v - exact for v in values]
    # the conforming discrete energy bounds the continuous minimum from above
    assert all(e > 0.0 for e in errors)
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.9 <= coarse / fine <= 2.2
    extrapolated, _ = refine_and_extrapolate(values)
    assert abs(extrapolated - exact) < errors[-1]


@pytest.mark.parametrize("s", [0.3, 0.9])
def test_class_b_bounds_the_exact_value_of_its_snapped_slit(s):
    # the n x n grid holds the slit [0, floor(s n) / n]
    for n, value in zip((16, 32, 64, 128), _class_b_history(1.0, s)):
        assert value > _exact_class_b(1.0, math.floor(s * n) / n)


def _green_quad(tau, s, n):
    """Q for p1 = 1 from the Green's function of _stencil's circulant K.

    G is K's pseudo-inverse: its symbol is 1 / K's, with the constant mode
    dropped, and _gathered_green_row gives G between node 0 and node i of
    the slit's row.  The slit's m nodes then carry charges q summing to
    zero with G q + const = phi on the slit: a bordered (m + 1)-square
    solve, and Q = phi . q on the slit.
    """
    row = _gathered_green_row(tau, n)
    m = min(math.floor(s * n + 1e-12), n - 1) + 1
    i = np.arange(m)
    bordered = np.ones((m + 1, m + 1))
    bordered[m, m] = 0.0
    bordered[:m, :m] = row[abs(i[:, None] - i)]
    slit = -i / n
    charges = np.linalg.solve(bordered, np.append(slit, 0.0))[:m]
    return float(slit @ charges)


def _green_energies(tau, s, n):
    """The class-b and class-aB energies on _green_quad's Q, as _solve_grid forms them."""
    quad, form = _green_quad(tau, s, n), _form_matrix(tau)
    periods = (CLASS_PERIODS["b"], CLASS_PERIODS["aB"])
    return [float(p[0] * p[0] * quad + p @ form @ p) for p in map(np.array, periods)]


def _mp_green_quad(tau, s, n):
    """_green_quad at 40 digits on the float stencil's exact coefficients:
    the exact discrete minimum, the constant mode dropped."""
    with mp.workdps(40):
        c = [mp.mpf(float(x)) for x in extremal._stencil(tau, n)]
        cos = [mp.cos(2 * mp.pi * k / n) for k in range(n)]

        def symbol(k1, k2):
            return c[0] + 2 * (c[1] * cos[k1] + c[2] * cos[k2] + c[3] * cos[(k1 + k2) % n])

        summed = [mp.fsum(1 / symbol(k1, k2) for k2 in range(n) if k1 or k2) for k1 in range(n)]
        m = min(math.floor(s * n + 1e-12), n - 1) + 1
        row = [mp.fsum(h * cos[k * i % n] for k, h in enumerate(summed)) / n**2 for i in range(m)]
        bordered = mp.matrix(m + 1, m + 1)
        for a in range(m):
            bordered[a, m] = bordered[m, a] = 1
            for b in range(m):
                bordered[a, b] = row[abs(a - b)]
        slit = [-mp.mpf(i) / n for i in range(m)]
        charges = mp.lu_solve(bordered, mp.matrix(slit + [0]))
        return mp.fsum(x * q for x, q in zip(slit, charges))


GREEN_SLITS = (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999)


@pytest.mark.parametrize(
    "tau", [1j, 1 + 1j, 0.3 + 0.8j, -0.4 + 1.7j, 0.2 + 0.7j, 2 + 0.5j, UNEVEN_SUMS[1][0]]
)
def test_green_function_energies_match_the_solver(tau):
    # _green_quad's bordered np.linalg.solve is the reference for the
    # library's Cholesky on the same symbol: these taus and slits at
    # n = 16 ... 256, 245 cases, agree within 4.6e-15 relative
    periods = [CLASS_PERIODS["b"], CLASS_PERIODS["aB"]]
    for n, slits in ((16, GREEN_SLITS), (32, GREEN_SLITS), (64, (0.1, 0.5, 0.9))):
        for s in slits:
            got, want = _green_energies(tau, s, n), extremal._solve_grid(tau, s, periods, n)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0, err_msg=f"{s} {n}")


#: Exact discrete class-b energies at the modulus golden's point (i, 0.5);
#: n = 128 gives 1.2255762249169521.
EXACT_GOLDEN = {32: "1.24255075189824224", 64: "1.2311726733501331"}


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j, -0.4 + 1.7j])
def test_float_solves_lie_near_the_exact_discrete_minimum(tau, n):
    """The library's and _green_quad's float Q lie near the 40-digit one,
    relative in Q.

    Measured at s = 0.25, 0.5 and 0.9 on these taus: _green_quad within
    1.8e-15 at n <= 128 and the library within 3.7e-15 at n <= 64, its
    worst at (i, 0.9, 64), and within 2.6e-15 at the s this test runs.  The
    sparse LU that the library used before was within 1.8e-13 at n <= 64
    and, at n = 128, 3.0e-12 to 5.4e-12 at 0.3+0.8i: the float stencil's
    row sum, K's eigenvalue on the constants, is 1.1e-15 there, and the
    Green's function drops that mode.  At the golden point the energies
    are within 3.6e-16 of EXACT_GOLDEN's, n = 128 included.
    """
    for s in (0.25, 0.5):
        exact = _mp_green_quad(tau, s, n)
        got = extremal._solve_grid(tau, s, [CLASS_PERIODS["b"]], n)[0] - _flat_energy(tau, "b")
        assert abs(_green_quad(tau, s, n) - exact) <= 1e-14 * exact, s
        assert abs(got - exact) <= 1e-14 * exact, s
        if (tau, s) == (1j, 0.5):
            with mp.workdps(40):
                assert mp.nstr(exact + 1, 18) == EXACT_GOLDEN[n]
