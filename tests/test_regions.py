import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from holedtorus.charts import (
    MARGIN_TOL,
    FNChartPoint,
    critical_lengths,
    fn_descriptor,
    lambda_descriptor,
    slit_descriptor,
    strip_report,
    torus_descriptor,
    twice_punctured_descriptor,
)
from holedtorus import fuchsian, regions
from holedtorus.fuchsian import (
    EllipticTraceError,
    _approx_lengths,
    _checked_traces,
    _class_table,
    _exact_lengths,
    _letters,
    canonical_class,
    class_spectra,
    enumerate_classes,
    fn_to_rep,
    geodesic_length,
)
from holedtorus.regions import (
    SCAN_PLANES,
    ResourceLimitError,
    UnsupportedSurfaceError,
    corner_certificate,
    handle_cover,
    lambda_chain_check,
    scan_sigma_slice,
    sigma_membership,
)

Y0 = FNChartPoint(2.0, 1.0, 0.0)


def reference_witness(X, Y0, max_len, tol=1e-9):
    # independent recomputation of the witness rule from raw spectra
    rep_x = fn_to_rep(X)
    rep_y = fn_to_rep(Y0)
    classes = enumerate_classes(max_len)
    ly = {w: geodesic_length(rep_y, w) for w in classes}
    violators = [
        w for w in classes if geodesic_length(rep_x, w) - ly[w] < -tol
    ]
    if not violators:
        return None
    ranked = sorted(violators, key=lambda w: (ly[w], len(w), w))
    best_len = ly[ranked[0]]
    # rank ties on the geodesic length only: secondary keys are checked
    # against the library through word length
    ties = [w for w in ranked if ly[w] <= best_len + 1e-12]
    return min(ties, key=lambda w: (len(w), _rank(w)))


def _rank(word):
    order = {"u": 0, "U": 1, "v": 2, "V": 3}
    return tuple(order[ch] for ch in word)


def test_sigma_reflexive():
    verdict = sigma_membership(Y0, Y0, 6)
    assert verdict.status == "in_up_to_N"
    assert verdict.witness is None
    assert verdict.min_margin == 0.0


def test_sigma_l_decrease_is_out_with_witness_u():
    X = FNChartPoint(1.9, 1.0, 0.0)
    verdict = sigma_membership(X, Y0, 4)
    assert verdict.status == "out"
    assert verdict.witness == "u"
    assert verdict.min_margin < 0.0


def test_sigma_lp_decrease_is_out_with_commutator_witness():
    X = FNChartPoint(2.0, 0.999, 0.0)
    verdict = sigma_membership(X, Y0, 4)
    assert verdict.status == "out"
    assert verdict.witness == "uvUV"


def test_sigma_short_truncation_notes_commutator():
    X = FNChartPoint(2.0, 0.999, 0.0)
    verdict = sigma_membership(X, Y0, 2)
    assert verdict.note is not None
    # without the commutator the violation is still visible through v
    assert verdict.status == "out"
    assert verdict.witness == "v"


def test_sigma_witness_matches_reference_rule():
    rng = np.random.default_rng(47)
    for _ in range(100):
        X = FNChartPoint(rng.uniform(0.5, 4), rng.uniform(0.1, 3), rng.uniform(-2, 2))
        base = FNChartPoint(
            rng.uniform(0.5, 4), rng.uniform(0.1, 3), rng.uniform(-2, 2)
        )
        n = int(rng.integers(2, 7))
        verdict = sigma_membership(X, base, n)
        assert verdict.witness == reference_witness(X, base, n)


def test_sigma_truncation_monotone():
    rng = np.random.default_rng(53)
    for _ in range(50):
        X = FNChartPoint(rng.uniform(0.5, 4), rng.uniform(0.1, 3), rng.uniform(-2, 2))
        coarse = sigma_membership(X, Y0, 3)
        fine = sigma_membership(X, Y0, 5)
        if coarse.status == "out":
            assert fine.status == "out"
        assert fine.min_margin <= coarse.min_margin + 1e-15


def test_sigma_rejects_tiny_word_length():
    with pytest.raises(ValueError):
        sigma_membership(Y0, Y0, 1)


def test_corner_certificate_at_interior_point():
    report = corner_certificate(Y0, 1e-3)
    assert report.active_constraints == ("u", "uvUV")
    assert report.independent
    by_probe = {(p.coordinate, p.delta < 0): p for p in report.probes}
    down_l = by_probe[("l", True)]
    assert down_l.status == "out" and down_l.witness == "u"
    down_lp = by_probe[("lp", True)]
    assert down_lp.status == "out" and down_lp.witness == "uvUV"


def test_corner_certificate_rejects_once_punctured():
    with pytest.raises(UnsupportedSurfaceError):
        corner_certificate(FNChartPoint(2.0, 0.0, 0.0), 1e-3)


def test_corner_certificate_rejects_bad_parameters():
    with pytest.raises(ValueError):
        corner_certificate(Y0, 0.8)
    with pytest.raises(ValueError):
        corner_certificate(Y0, -1e-3)
    with pytest.raises(ValueError):
        corner_certificate(Y0, 1e-3, max_len=3)


def test_critical_lengths_fn():
    crit = critical_lengths(fn_descriptor(math.pi, 1.0, 0.0))
    assert crit.lambda_a.value == pytest.approx(1.0, abs=1e-15)
    assert crit.lambda_inf.value == crit.lambda_a.value
    assert not crit.lambda_c.available
    assert crit.lambda_c.reason


def test_critical_lengths_slit():
    crit = critical_lengths(slit_descriptor(1j, 0.5))
    assert crit.lambda_c.value == pytest.approx(1.0, abs=1e-15)
    assert not crit.lambda_a.available
    assert not crit.lambda_inf.available


def test_critical_lengths_lambda_chart():
    crit = critical_lengths(lambda_descriptor((1.0, 1.0, 2.0)))
    assert crit.lambda_c.value == 1.0
    assert not crit.lambda_a.available


def test_critical_lengths_torus():
    crit = critical_lengths(torus_descriptor(0.3 + 1.7j))
    assert crit.lambda_a.value == 0.0
    assert crit.lambda_inf.value == 0.0
    assert crit.lambda_c.value == pytest.approx(1.0 / 1.7, abs=1e-15)


def test_critical_lengths_twice_punctured():
    crit = critical_lengths(twice_punctured_descriptor(2j, "bent"))
    assert crit.lambda_c.value == pytest.approx(0.5, abs=1e-15)
    assert not crit.lambda_a.available


@pytest.mark.parametrize(
    "desc",
    [
        slit_descriptor(1e-320j, 0.5),
        torus_descriptor(1e-320j),
        twice_punctured_descriptor(0.2 + 1e-320j, "bent"),
    ],
)
def test_critical_lengths_refuse_an_overflowing_length(desc):
    # 1/Im tau is inf
    with pytest.raises(OverflowError):
        critical_lengths(desc)
    assert critical_lengths(replace(desc, tau=1e-300j)).lambda_c.value == pytest.approx(1e300)


def test_strip_report_fn():
    reports = {r.quantity: r for r in strip_report(fn_descriptor(math.pi, 1.0, 0.0))}
    assert set(reports) == {"lambda_a", "lambda_inf"}
    assert reports["lambda_a"].strip.height == pytest.approx(1.0)
    assert not reports["lambda_a"].strip.contains(1.0j)
    assert reports["lambda_a"].strip.contains(0.99j)


def test_strip_report_torus_half_plane():
    reports = {r.quantity: r for r in strip_report(torus_descriptor(1.7j))}
    assert reports["lambda_a"].strip.height == math.inf
    assert reports["lambda_a"].strip.contains(1000j)
    assert reports["lambda_c"].strip.height == pytest.approx(1.7)
    assert reports["lambda_c"].meeting_tau == 1.7j


def test_strip_report_slit_meets_at_itself():
    tau = 0.25 + 1.25j
    reports = {r.quantity: r for r in strip_report(slit_descriptor(tau, 0.4))}
    assert reports["lambda_c"].meeting_tau == tau


def test_strip_report_lambda_meets_at_one_unnamed_point():
    (report,) = strip_report(lambda_descriptor((1.0, 1.0, 2.0)))
    assert (report.quantity, report.value, report.meeting_tau) == ("lambda_c", 1.0, None)
    assert report.note == "the ceiling line is met at exactly one point"


def test_strip_report_fixture_marks_differ():
    tau = 0.1 + 1.3j
    straight = {
        r.quantity: r for r in strip_report(twice_punctured_descriptor(tau, "straight"))
    }
    bent = {
        r.quantity: r for r in strip_report(twice_punctured_descriptor(tau, "bent"))
    }
    assert straight["lambda_c"].meeting_tau == tau
    assert bent["lambda_c"].meeting_tau is None
    assert straight["lambda_c"].strip.height == bent["lambda_c"].strip.height


def test_handle_cover_identity_and_refusal():
    desc = fn_descriptor(2.0, 1.0, 0.0)
    assert handle_cover(desc) == desc
    assert handle_cover(torus_descriptor(2j)).chart == "torus"
    with pytest.raises(UnsupportedSurfaceError):
        handle_cover(twice_punctured_descriptor(1j, "straight"))


def test_scan_center_cell_and_u_constraint():
    grid = scan_sigma_slice(Y0, "l-lp", ((1.8, 2.2, 3), (0.8, 1.2, 3)), max_len=4)
    rows = {(round(r.coord1, 6), round(r.coord2, 6)): r for r in grid.rows}
    center = rows[(2.0, 1.0)]
    assert center.status == "in_up_to_N"
    assert center.min_margin == 0.0
    for (c1, _), row in rows.items():
        if c1 < 2.0:
            assert row.status == "out"


def test_scan_row_major_and_deterministic():
    args = (Y0, "l-lp", ((1.9, 2.1, 2), (0.9, 1.1, 2)))
    first = scan_sigma_slice(*args, max_len=3)
    second = scan_sigma_slice(*args, max_len=3)
    assert first == second
    coords = [(r.coord1, r.coord2) for r in first.rows]
    assert coords == sorted(coords)


def test_scan_workers_match_serial():
    args = (Y0, "l-lp", ((1.9, 2.1, 2), (0.9, 1.1, 2)))
    serial = scan_sigma_slice(*args, max_len=3, workers=1)
    parallel = scan_sigma_slice(*args, max_len=3, workers=2)
    assert serial.rows == parallel.rows


def test_scan_rows_equal_sigma_verdicts():
    y0 = FNChartPoint(2.5709, 1.8978, 0.5998)
    for plane, ranges in (
        ("l-lp", ((2.0, 3.0, 9), (1.5, 2.3, 9))),
        ("lp-theta", ((1.5, 2.3, 9), (0.1, 1.1, 9))),
    ):
        grid = scan_sigma_slice(y0, plane, ranges, max_len=6)
        assert len(grid.rows) == 81
        first, second = plane.split("-")
        for row in grid.rows:
            assert type(row) is regions.ScanRow
            fields = {"l": y0.l, "lp": y0.lp, "theta": y0.theta}
            fields[first], fields[second] = row.coord1, row.coord2
            verdict = sigma_membership(FNChartPoint(**fields), y0, 6)
            assert (row.status, row.witness, row.min_margin) == (
                verdict.status,
                verdict.witness or "",
                verdict.min_margin,
            )


def test_scan_in_batches_matches_one_batch(monkeypatch):
    args = (Y0, "l-theta", ((1.8, 2.2, 3), (-0.2, 0.2, 4)))
    whole = scan_sigma_slice(*args, max_len=5)
    monkeypatch.setattr(regions, "KERNEL_BLOCK", 2)  # Y0 and one cell per kernel call
    assert scan_sigma_slice(*args, max_len=5) == whole


def test_probe_witness_is_shortest_violated_class():
    # lowering l (lp) violates u (uvUV), but shorter classes on Y0 go first
    y0 = FNChartPoint(2.5709, 1.8978, 0.5998)
    report = corner_certificate(y0, 1e-3)
    assert report.independent
    assert (report.probes[0].witness, report.probes[2].witness) == ("uV", "v")


def test_corner_with_all_probes_in_is_not_independent():
    # tol above eps reads every probe in, though the margins moved by -eps
    report = corner_certificate(Y0, 1e-3, tol=1000.0)
    assert {probe.status for probe in report.probes} == {"in_up_to_N"}
    assert not report.independent


def test_sigma_non_finite_is_refused():
    # tr u = exp(200) overflows by uuuu; NaN margins must never read as in_up_to_N
    X, base = FNChartPoint(400.0, 1.0, 0.0), FNChartPoint(400.0, 1.5, 0.0)
    with pytest.raises(ArithmeticError):
        sigma_membership(X, base, 6)


def test_scan_guards(monkeypatch):
    with pytest.raises(ValueError):
        scan_sigma_slice(Y0, "l-s", ((1, 2, 2), (1, 2, 2)))
    with pytest.raises(ValueError):
        scan_sigma_slice(Y0, "l-lp", ((1, 2, 0), (1, 2, 2)))
    with pytest.raises(ValueError):
        scan_sigma_slice(Y0, "l-lp", ((-1.0, 2, 4), (0.5, 1, 2)))
    monkeypatch.setattr(regions, "SCAN_CELL_CAP", 10)
    with pytest.raises(ResourceLimitError):
        scan_sigma_slice(Y0, "l-lp", ((1, 2, 50), (1, 2, 50)), max_len=6)


@pytest.mark.parametrize("ranges", [((1, 2, 3.0), (1, 2, 2)), ((1, 2, 2), (1, 2, 2.5))])
def test_scan_refuses_non_integral_counts(ranges):
    with pytest.raises(ValueError, match="grid counts must be integers"):
        scan_sigma_slice(Y0, "l-lp", ranges)


def test_sigma_refuses_a_non_integral_length():
    with pytest.raises(ValueError, match="max_len must be an integer"):
        sigma_membership(FNChartPoint(2.1, 1.0, 0.0), Y0, 6.0)


def test_corner_refuses_a_non_integral_length():
    with pytest.raises(ValueError, match="max_len must be an integer"):
        corner_certificate(Y0, 1e-3, 4.0)


@pytest.mark.parametrize("tol", [-1.0, math.inf, math.nan])
def test_bad_tol_is_refused(tol):
    # a negative tol calls equal lengths a violation; inf and NaN pass everything
    with pytest.raises(ValueError, match="tol"):
        sigma_membership(Y0, Y0, 4, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        scan_sigma_slice(Y0, "l-lp", ((1.5, 2.5, 2), (0.5, 1.5, 2)), max_len=4, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        corner_certificate(Y0, 1e-3, tol=tol)


def test_zero_tol_is_valid():
    verdict = sigma_membership(Y0, Y0, 4, tol=0.0)
    assert (verdict.status, verdict.min_margin) == ("in_up_to_N", 0.0)
    grid = scan_sigma_slice(Y0, "l-lp", ((1.0, 2.0, 2), (1.0, 1.0, 1)), max_len=4, tol=0.0)
    assert [r.status for r in grid.rows] == ["out", "in_up_to_N"]
    report = corner_certificate(Y0, 1e-3, tol=0.0)
    assert report.probes[0].status == report.probes[2].status == "out"


def test_scan_theta_plane():
    grid = scan_sigma_slice(Y0, "lp-theta", ((0.9, 1.1, 3), (-0.1, 0.1, 3)), max_len=4)
    rows = {(round(r.coord1, 6), round(r.coord2, 6)): r for r in grid.rows}
    assert rows[(1.0, 0.0)].status == "in_up_to_N"


def test_lambda_chain_check():
    assert lambda_chain_check(FNChartPoint(2.0, 1.0, 0.0), 1.0).consistent
    assert not lambda_chain_check(FNChartPoint(3.2, 1.0, 0.0), 1.0).consistent
    # the chain is strict: equality fails
    assert not lambda_chain_check(FNChartPoint(math.pi, 1.0, 0.0), 1.0).consistent
    report = lambda_chain_check(FNChartPoint(2.0, 1.0, 0.0), 2.0)
    assert report.lambda_a == pytest.approx(2.0 / math.pi)
    assert report.annulus_extremal_length == 0.5
    with pytest.raises(ValueError):
        lambda_chain_check(Y0, 0.0)


def cell_point(y0, plane, row):
    fields = {"l": y0.l, "lp": y0.lp, "theta": y0.theta}
    first, second = SCAN_PLANES[plane]
    fields[first], fields[second] = row.coord1, row.coord2
    return FNChartPoint(**fields)


def assert_rows_are_sigma_verdicts(grid, y0, tol):
    # status, witness and the bits of min margin, cell by cell
    for row in grid.rows:
        verdict = sigma_membership(
            cell_point(y0, grid.plane, row), y0, grid.max_word_len, tol
        )
        assert (row.status, row.witness, row.min_margin.hex()) == (
            verdict.status,
            verdict.witness or "",
            verdict.min_margin.hex(),
        )


def seeded_scan_args(plane, seed):
    # ranges through Y0; every plane with lp starts at lp = 0, where the
    # commutator is parabolic and has length 0.0
    rng = np.random.default_rng(seed)
    y0 = FNChartPoint(rng.uniform(1.0, 3.0), rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
    ranges = tuple(
        (0.0, 2.0 * y0.lp, 7) if c == "lp" else (getattr(y0, c) - 0.5, getattr(y0, c) + 0.5, 7)
        for c in SCAN_PLANES[plane]
    )
    return y0, plane, ranges


@pytest.mark.parametrize("plane", sorted(SCAN_PLANES))
@pytest.mark.parametrize("tol", [1e-9, 0.0])
def test_scan_rows_equal_sigma_on_seeded_grids(plane, tol):
    for seed in (81, 82):
        y0, plane, ranges = seeded_scan_args(plane, seed)
        grid = scan_sigma_slice(y0, plane, ranges, max_len=6, tol=tol)
        assert_rows_are_sigma_verdicts(grid, y0, tol)


@pytest.mark.parametrize("plane", sorted(SCAN_PLANES))
def test_scan_split_by_batch_equals_sigma(monkeypatch, plane):
    y0, plane, ranges = seeded_scan_args(plane, 83)
    whole = scan_sigma_slice(y0, plane, ranges, max_len=6)
    # five cells per kernel call, the last call short
    monkeypatch.setattr(regions, "KERNEL_BLOCK", 6)
    split = scan_sigma_slice(y0, plane, ranges, max_len=6)
    assert split == whole
    assert_rows_are_sigma_verdicts(split, y0, 1e-9)


@pytest.mark.parametrize("plane", sorted(SCAN_PLANES))
def test_scan_survives_an_arccosh_worse_than_its_bound(monkeypatch, plane):
    # np.arccosh off by 2^-20 relative, far beyond ARCCOSH_REL_ERR = 2^-44,
    # with alternating signs across classes: the margins certified against
    # the bound would move minima and verdicts, so the scan must notice and
    # recompute every margin exactly
    def skewed(traces):
        lengths = _approx_lengths(traces)
        lengths *= 1.0 + 2.0**-20 * (-1.0) ** np.arange(len(lengths))[:, None]
        return lengths

    monkeypatch.setattr(regions, "_approx_lengths", skewed)
    y0, plane, ranges = seeded_scan_args(plane, 85)
    grid = scan_sigma_slice(y0, plane, ranges, max_len=6)
    assert_rows_are_sigma_verdicts(grid, y0, 1e-9)


def test_scan_over_one_kernel_block_equals_sigma(monkeypatch):
    # 289 cells: Y0 and 255 cells fill the first kernel call, 34 cells the second
    calls = []

    def spy(letters, max_len):
        calls.append(letters.shape[-1])
        return _checked_traces(letters, max_len)

    monkeypatch.setattr(regions, "_checked_traces", spy)
    y0 = FNChartPoint(2.5709, 1.8978, 0.5998)
    grid = scan_sigma_slice(y0, "l-lp", ((2.0, 3.0, 17), (1.5, 2.3, 17)), max_len=6)
    assert calls == [regions.KERNEL_BLOCK, 35]
    assert_rows_are_sigma_verdicts(grid, y0, 1e-9)


def test_scan_kernel_blocks_share_one_workspace_per_call(monkeypatch):
    # kernel blocks of 100 surfaces: the scan's first call (Y0 and 255
    # cells) runs three blocks in one workspace, its second (Y0 and 34) one
    works = []
    trie_traces = fuchsian._trie_traces

    def spy(depths, letters, out, work):
        works.append((letters.shape[-1], work))
        trie_traces(depths, letters, out, work)

    monkeypatch.setattr(fuchsian, "_trie_traces", spy)
    monkeypatch.setattr(fuchsian, "KERNEL_BLOCK", 100)
    y0 = FNChartPoint(2.5709, 1.8978, 0.5998)
    grid = scan_sigma_slice(y0, "l-theta", ((2.0, 3.0, 17), (0.1, 1.1, 17)), max_len=6)
    assert [surfaces for surfaces, _ in works] == [100, 100, 56, 35]
    assert works[0][1] is works[1][1] is works[2][1]
    assert works[3][1] is not works[0][1]
    assert works[3][1].shape[1] * 100 == works[0][1].shape[1] * 35
    assert_rows_are_sigma_verdicts(grid, y0, 1e-9)


def first_refusal(y0, plane, ranges, max_len):
    """What a scan must raise: Y0, then its cells row-major, one point at
    a time, each point's chart before its traces."""
    first, second = SCAN_PLANES[plane]
    (lo1, hi1, n1), (lo2, hi2, n2) = ranges
    cells = [
        y0._replace(**{first: c1, second: c2})
        for c1 in np.linspace(lo1, hi1, n1).tolist()
        for c2 in np.linspace(lo2, hi2, n2).tolist()
    ]
    for point in [y0, *cells]:
        try:
            _checked_traces(_letters([point]), max_len)
        except (ValueError, ArithmeticError, EllipticTraceError) as exc:
            return exc
    return None


SCAN_REFUSALS = pytest.mark.parametrize(
    "y0, plane, ranges",
    [
        # the chart domain: a cell's in its turn, Y0's before any cell's
        (Y0, "l-lp", ((-1.0, 2.0, 4), (0.5, 1.5, 3))),
        (Y0, "lp-theta", ((-0.5, 1.0, 3), (0.0, 1.0, 2))),
        (FNChartPoint(0.0, 1.0, 0.0), "lp-theta", ((0.5, 1.0, 3), (0.0, 1.0, 2))),
        (FNChartPoint(2.0, -1.0, 0.0), "l-theta", ((1.0, 2.0, 3), (0.0, 1.0, 2))),
        # Y0 itself, before its cells
        (FNChartPoint(2.0, math.nan, 0.0), "l-theta", ((1.0, 2.0, 3), (0.0, 1.0, 2))),
        (FNChartPoint(2.0, 1.0, math.inf), "l-lp", ((1.0, 2.0, 3), (0.5, 1.0, 2))),
        (FNChartPoint(2.0, 1.0, 10**400), "l-lp", ((1.0, 2.0, 3), (0.5, 1.0, 2))),
        # Y0's own trace of vv overflows, and comes before any cell's chart
        (FNChartPoint(2.0, 1.0, 1400.0), "l-theta", ((1.0, 3.0, 3), (1300.0, 1500.0, 5))),
        # the SINH2_FLOOR cliff, in the first kernel call and in a later one
        (Y0, "l-lp", ((30.0, 800.0, 9), (0.5, 1.5, 9))),
        (Y0, "l-lp", ((30.0, 800.0, 30), (0.0, 1.5, 30))),
        (Y0, "l-lp", ((10.0, 40.0, 300), (0.5, 1.5, 3))),
        # an elliptic trace in the first call, before the cliff in the second
        (Y0, "l-lp", ((34.0, 36.0, 200), (1.0, 1.0, 2))),
        # sinh(l/2)^2 underflows, or cosh(l) overflows
        (Y0, "l-lp", ((1e-320, 1e-300, 300), (0.5, 1.5, 3))),
        (Y0, "l-lp", ((700.0, 712.0, 300), (0.5, 1.5, 3))),
        # exp(theta/2) overflows, or underflows to 0
        (Y0, "l-theta", ((1.0, 3.0, 9), (0.0, 3000.0, 9))),
        (Y0, "l-theta", ((1.0, 3.0, 30), (-3000.0, 0.0, 30))),
        # an overflowed trace in the first call, before exp overflows in the second
        (Y0, "l-theta", ((1.0, 3.0, 2), (0.0, 3000.0, 550))),
        (Y0, "lp-theta", ((0.0, 2000.0, 30), (0.0, 1.0, 30))),
        # Y0's chart, then Y0's traces, come before cells off the chart
        (FNChartPoint(-1.0, 1.0, 0.0), "lp-theta", ((-1.0, 1.0, 3), (0.0, 1.0, 2))),
        (FNChartPoint(2.0, 1.0, 1400.0), "l-lp", ((-1.0, 2.0, 4), (0.5, 1.0, 2))),
    ],
)


def assert_scan_refuses_as(expected, y0, plane, ranges, max_len):
    assert expected is not None
    with pytest.raises(type(expected)) as refused:
        scan_sigma_slice(y0, plane, ranges, max_len=max_len)
    assert type(refused.value) is type(expected)
    assert str(refused.value) == str(expected)


@SCAN_REFUSALS
@pytest.mark.parametrize("max_len", [2, 6])
def test_scan_refuses_the_first_bad_cell_after_y0(y0, plane, ranges, max_len):
    expected = first_refusal(y0, plane, ranges, max_len)
    assert_scan_refuses_as(expected, y0, plane, ranges, max_len)


@SCAN_REFUSALS
@pytest.mark.parametrize("max_len", [2, 6])
def test_scan_refusal_does_not_depend_on_kernel_block(monkeypatch, y0, plane, ranges, max_len):
    expected = first_refusal(y0, plane, ranges, max_len)
    for block in (2, 3):
        monkeypatch.setattr(fuchsian, "KERNEL_BLOCK", block)
        monkeypatch.setattr(regions, "KERNEL_BLOCK", block)
        assert_scan_refuses_as(expected, y0, plane, ranges, max_len)


@pytest.mark.parametrize("block", [2, regions.KERNEL_BLOCK])
def test_scan_refuses_y0_then_tol_then_cells(monkeypatch, block):
    # each scan's first cell has no matrix pair (cosh(800) overflows, or
    # exp(1500 / 2) does); Y0's refusal comes first, then tol's
    monkeypatch.setattr(regions, "KERNEL_BLOCK", block)
    with pytest.raises(ValueError, match="^tol must be finite"):
        scan_sigma_slice(Y0, "l-lp", ((800.0, 30.0, 9), (0.5, 1.5, 9)), tol=math.inf)
    y0 = FNChartPoint(2.0, 1.0, 1400.0)  # its trace of vv overflows
    with pytest.raises(FloatingPointError, match="^non-finite trace inf for word 'vv'"):
        scan_sigma_slice(y0, "l-theta", ((1.0, 3.0, 3), (1500.0, 1300.0, 5)), tol=math.inf)
    # the first cell is off the chart, l = -1: tol's refusal still comes first
    with pytest.raises(ValueError, match="^tol must be finite"):
        scan_sigma_slice(Y0, "l-lp", ((-1.0, 2.0, 4), (0.5, 1.5, 3)), tol=-1.0)


def test_scan_margin_exactly_at_minus_tol():
    # tol is minus the exact margin of a cell's witness that is not its
    # minimum: the witness then sits exactly at -tol, is not violated, and
    # another class takes its place.  Cases whose np.arccosh length is
    # not exact come first, so an uncertified margin would flip the witness.
    y0, plane, ranges = seeded_scan_args("l-lp", 84)
    classes = enumerate_classes(6)
    grid = scan_sigma_slice(y0, plane, ranges, max_len=6)
    cases = []
    for row in grid.rows:
        X = cell_point(y0, plane, row)
        verdict = sigma_membership(X, y0, 6)
        if verdict.status != "out":
            continue
        i = classes.index(verdict.witness)
        margin = verdict.margins[i][1]
        if margin > verdict.min_margin:
            _, traces, _ = class_spectra([fn_to_rep(X)], 6)
            exact = _approx_lengths(traces)[i, 0] == _exact_lengths(traces)[i, 0]
            cases.append((exact, -margin))
    assert cases
    for _, tol in sorted(cases)[:4]:
        grid = scan_sigma_slice(y0, plane, ranges, max_len=6, tol=tol)
        assert_rows_are_sigma_verdicts(grid, y0, tol)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4a: no error bound on the margins yet")
def test_a_margin_rounded_past_minus_tol_is_not_an_out_verdict():
    # l(uvUV) = lp, so uvUV's exact margin is X.lp - Y0.lp =
    # -9.999996386511611e-10, above -tol, and the 50-digit verdict is
    # in_up_to_4; the float margin reads -1.00000274727563e-09, and the
    # verdict is out with witness uvUV.  Item 4a's fix removes the marker.
    y0 = FNChartPoint(1.4065297210041576, 2.087248179597157, 0.7363276720644429)
    X = FNChartPoint(y0.l, 2.0872481785971573, y0.theta)
    assert X.lp - y0.lp > -MARGIN_TOL
    try:
        verdict = sigma_membership(X, y0, 4)
    except ArithmeticError:
        return  # an undecidable margin refused
    assert verdict.status == "in_up_to_N", (verdict.witness, verdict.min_margin)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4a: no error bound on the lengths yet")
def test_large_l_lengths_lie_within_a_quarter_margin_of_the_oracle_or_are_refused():
    # the FN chart's large-l face exits 0 with wrong lengths: at (25, 1, 0)
    # l(uvUV) is 2.7e-5 off the 50-digit oracle and l(vvvv) 6.1e-5, and at
    # (20, 0.1, 0) l(uvUV) is 5.6e-7 off, where MARGIN_TOL/4 is 2.5e-10.
    # Item 4a's fix refuses them, or bounds them, and removes the marker
    for point in ((25.0, 1.0, 0.0), (20.0, 0.1, 0.0)):
        X = FNChartPoint(*point)
        try:
            _, _, lengths = class_spectra([fn_to_rep(X)], 6)
        except ArithmeticError:
            continue  # a length that its bound cannot hold refused
        exact = _mp_lengths(X, 6)
        errors = [abs(float(e - x)) for e, x in zip(exact, lengths[:, 0].tolist())]
        assert max(errors) <= MARGIN_TOL / 4, (point, max(errors))


def reference_verdict(X, y0, max_len, tol=1e-9):
    # one class_spectra call per surface, then the library's verdict rule
    classes, _, lx = class_spectra([fn_to_rep(X)], max_len)
    _, _, ly = class_spectra([fn_to_rep(y0)], max_len)
    margins = lx - ly
    out, witness, min_margin = regions._verdicts(margins, ly[:, 0], tol)
    return (
        "out" if out[0] else "in_up_to_N",
        classes[witness[0]] if out[0] else None,
        float(min_margin[0]).hex(),
        [(w, m.hex()) for w, m in zip(classes, margins[:, 0].tolist())],
        "boundary (commutator) class has length 4 and was not checked"
        if max_len < 4
        else None,
    )


def verdict_bits(verdict):
    return (
        verdict.status,
        verdict.witness,
        verdict.min_margin.hex(),
        [(w, m.hex()) for w, m in verdict.margins],
        verdict.note,
    )


def box_point(rng, lp=None):
    # the criterion-11 box; lp = 0 is a once-punctured surface
    return FNChartPoint(
        float(rng.uniform(0.5, 4.0)),
        float(rng.uniform(0.1, 3.0)) if lp is None else lp,
        float(rng.uniform(-2.0, 2.0)),
    )


@pytest.mark.parametrize("max_len", range(2, 9))
def test_sigma_equals_per_surface_reference(max_len):
    rng = np.random.default_rng(900 + max_len)
    pairs = [(box_point(rng), box_point(rng)) for _ in range(12)]
    pairs += [(box_point(rng, 0.0), box_point(rng)), (box_point(rng), box_point(rng, 0.0))]
    pairs += [(y0, y0) for _, y0 in pairs[:2]]
    for tol in (1e-9, 0.0):
        for X, y0 in pairs:
            verdict = sigma_membership(X, y0, max_len, tol)
            assert verdict.max_word_len == max_len
            assert verdict_bits(verdict) == reference_verdict(X, y0, max_len, tol)


@pytest.mark.parametrize("max_len", [4, 6, 8])
def test_corner_equals_four_reference_sigmas(max_len):
    rng = np.random.default_rng(910 + max_len)
    for tol in (1e-9, 0.0, 1000.0):
        y0 = box_point(rng)
        eps = float(rng.uniform(1e-4, 0.04))
        report = corner_certificate(y0, eps, max_len, tol)
        steps = [("l", -eps), ("l", eps), ("lp", -eps), ("lp", eps)]
        assert [(p.coordinate, p.delta) for p in report.probes] == steps
        for probe, (coordinate, delta) in zip(report.probes, steps):
            fields = {"l": y0.l, "lp": y0.lp, "theta": y0.theta}
            fields[coordinate] += delta
            X = FNChartPoint(**fields)
            want = reference_verdict(X, y0, max_len, tol)
            assert verdict_bits(probe.verdict) == want
            assert (probe.status, probe.witness) == want[:2]


def test_one_kernel_call_per_sigma_and_corner(monkeypatch):
    calls = []

    def counted(letters, max_len):
        calls.append(letters.shape[-1])
        return _checked_traces(letters, max_len)

    monkeypatch.setattr(regions, "_checked_traces", counted)
    sigma_membership(FNChartPoint(1.9, 1.0, 0.0), Y0, 6)
    assert calls == [2]
    calls.clear()
    corner_certificate(Y0, 1e-3, 6)
    assert calls == [5]


ELLIPTIC = FNChartPoint(25.0, 1e-3, 0.0)  # tr uvUV inside the elliptic window
OVERFLOW = FNChartPoint(1.0, 1400.0, 0.0)  # tr vvv overflows
CANCELLED = FNChartPoint(40.0, 1.0, 0.0)  # sinh^2(m/2) cancels: no matrix pair
ELLIPTIC_MESSAGE = "elliptic trace -1.9999847268935596 for word 'uvUV'"
OVERFLOW_MESSAGE = (
    "non-finite trace inf for word 'vvv': the word product overflows double precision"
)


@pytest.mark.parametrize(
    "X, y0, error, message",
    [
        (ELLIPTIC, OVERFLOW, EllipticTraceError, ELLIPTIC_MESSAGE),
        (OVERFLOW, ELLIPTIC, FloatingPointError, OVERFLOW_MESSAGE),
        (ELLIPTIC, CANCELLED, EllipticTraceError, ELLIPTIC_MESSAGE),
        (CANCELLED, ELLIPTIC, FloatingPointError, "sinh^2(m/2) cancels to 0.0 at l = 40.0"),
        (Y0, ELLIPTIC, EllipticTraceError, ELLIPTIC_MESSAGE),
    ],
)
def test_sigma_refuses_x_before_y0(X, y0, error, message):
    # X is checked first, its chart then its traces, and Y0 after it
    with pytest.raises(error) as info:
        sigma_membership(X, y0, 4)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize(
    "X, y0",
    [
        # uvUV reads length 0 on both, so X read in_up_to_6 with margin 0
        (FNChartPoint(2.0, 3e-5, 0.0), FNChartPoint(2.0, 5e-5, 0.0)),
        # u reads length 0 on both, so X read out with witness uu, not u
        (FNChartPoint(3e-5, 1.0, 0.0), FNChartPoint(5e-5, 1.0, 0.0)),
    ],
)
def test_sigma_refuses_lengths_below_the_floor(X, y0):
    with pytest.raises(FloatingPointError) as info:
        sigma_membership(X, y0, 6)
    message = f"(l, lp, theta) = {tuple(X)!r} has a nonzero length below LENGTH_FLOOR"
    assert str(info.value).startswith(message)


def test_scan_refuses_the_first_cell_below_the_floor():
    # lp = 0 is on the chart, and lp = 5e-5 is the first cell refused, row-major
    with pytest.raises(FloatingPointError) as info:
        scan_sigma_slice(Y0, "l-lp", ((2.0, 2.5, 2), (0.0, 1e-4, 3)), max_len=4)
    assert str(info.value).startswith("(l, lp, theta) = (2.0, 5e-05, 0.0) has a nonzero length")


def test_sigma_refuses_surfaces_before_tol_and_cap():
    with pytest.raises(EllipticTraceError):
        sigma_membership(ELLIPTIC, Y0, 4, tol=math.inf)
    with pytest.raises(ValueError, match="exceeds the cap"):
        sigma_membership(Y0, CANCELLED, 11)


def test_corner_refuses_in_probe_order():
    # the probe l + eps has no matrix pair, but the probe l - eps and Y0
    # are checked first, and then tol
    y0 = FNChartPoint(38.8, 10.0, 0.0)
    with pytest.raises(ValueError, match="tol must be finite"):
        corner_certificate(y0, 0.1, tol=math.inf)
    with pytest.raises(FloatingPointError, match="at l = 38.9"):
        corner_certificate(y0, 0.1)


@pytest.mark.parametrize("which", ["X", "Y0"])
def test_sigma_reads_a_one_pass_point_once(which):
    # the kernel refuses the point, and the refusal is replayed on the same
    # items, not on a used-up iterator that would read as "not a triple"
    bad = FNChartPoint(1.0, 1.0, 1500.0)  # exp(theta/2) overflows
    points = {"X": Y0, "Y0": Y0, which: bad}
    with pytest.raises(FloatingPointError) as expected:
        sigma_membership(points["X"], points["Y0"], 4)
    points[which] = (v for v in tuple(bad))
    with pytest.raises(FloatingPointError) as info:
        sigma_membership(points["X"], points["Y0"], 4)
    assert str(info.value) == str(expected.value)
    assert str(info.value).startswith("the matrix pair at (l, lp, theta) = (1.0, 1.0, 1500.0)")


def _christoffel(p, q, inverse_v):
    """The Christoffel word of slope p/q: p letters v (V if inverse_v) and q letters u."""
    v = "V" if inverse_v else "v"
    return "".join(v if (i + 1) * p // (p + q) > i * p // (p + q) else "u" for i in range(p + q))


def _simple_classes(N):
    """The simple classes up to word length N >= 4, as canonical_class writes
    them: one primitive class per slope p/q and sign, and the boundary class uvUV."""
    words = ["u", "v", "uvUV"]
    for k in range(2, N + 1):
        for p in range(1, k):
            if math.gcd(p, k) == 1:
                words += [_christoffel(p, k - p, False), _christoffel(p, k - p, True)]
    return {canonical_class(w) for w in words}


@pytest.mark.parametrize("N, count", [(6, 25), (8, 45), (10, 65)])
def test_simple_classes_are_counted(N, count):
    # 2 + 2 * (sum of phi(k), k = 2..N) primitive classes, and uvUV
    simple = _simple_classes(N)
    assert len(simple) == count
    assert simple <= set(enumerate_classes(N))


def _seeded_pair(rng):
    """(X, Y0): Y0 in box_point's box (the benchmark's FN_BOX too), X in the box
    or Y0 plus half-normal steps in l and lp and a normal step in theta."""
    y0 = box_point(rng)
    if rng.random() < 0.5:
        return box_point(rng), y0
    scale = 10.0 ** rng.uniform(-3.0, math.log10(2.0))
    dl, dlp, dtheta = scale * rng.normal(size=3)
    return FNChartPoint(y0.l + abs(dl), y0.lp + abs(dlp), y0.theta + dtheta), y0


@pytest.mark.parametrize("N", [6, 8, 10])
def test_simple_classes_decide_status_and_witness(N):
    # on seeded pairs, the simple classes alone give every verdict's status and
    # witness; a pair that broke this would be a counterexample to record
    rng = np.random.default_rng(1200 + N)
    simple = _simple_classes(N)
    classes = enumerate_classes(N)
    outs = 0
    for _ in range(200):
        X, y0 = _seeded_pair(rng)
        verdict = sigma_membership(X, y0, N)
        ly = class_spectra([fn_to_rep(y0)], N)[2][:, 0]
        violated = [
            i for i, (w, m) in enumerate(verdict.margins) if w in simple and m < -MARGIN_TOL
        ]
        # the witness rule: shortest on Y0, ties in enumerate_classes order
        witness = classes[min(violated, key=ly.__getitem__)] if violated else None
        status = "out" if violated else "in_up_to_N"
        assert (status, witness) == (verdict.status, verdict.witness), (X, y0)
        outs += status == "out"
    # in-verdicts are rare (about 1 % of such pairs), and agree trivially
    assert outs > 150, outs


@pytest.mark.parametrize("N", [6, 8, 10])
def test_minimum_margin_falls_on_a_simple_class_or_a_power_of_one(N):
    # for most out verdicts the minimum is on a power w^k, whose exact margin is k
    # times w's; a pair whose argmin is another class would be a counterexample
    rng = np.random.default_rng(1300 + N)
    powers = {canonical_class(w * k) for w in _simple_classes(N) for k in range(1, N // len(w) + 1)}
    for _ in range(200):
        X, y0 = _seeded_pair(rng)
        words, margins = zip(*sigma_membership(X, y0, N).margins)
        assert words[int(np.argmin(margins))] in powers, (X, y0)


def _farey_traces(traces, N):
    """Canonical primitive class -> its traces, by the Farey recursion from the
    traces of u, v, uv and uV, one entry per surface; tr(LR) = tr L tr R - tr(LR^-1)."""
    out = {w: traces[w] for w in ("u", "v")}
    # (L, R, tr L, tr R, tr(L R^-1)): the roots (u, v) and (u, V)
    stack = [
        ("u", "v", traces["u"], traces["v"], traces["uV"]),
        ("u", "V", traces["u"], traces["v"], traces["uv"]),
    ]
    while stack:
        left, right, t_left, t_right, opposite = stack.pop()
        if len(left) + len(right) > N:
            continue
        t_lr = t_left * t_right - opposite
        out[canonical_class(left + right)] = t_lr
        stack += [
            (left, left + right, t_left, t_lr, t_right),
            (left + right, right, t_lr, t_right, t_left),
        ]
    return out


@pytest.mark.parametrize("N", [6, 8, 10])
def test_farey_recursion_gives_the_primitive_classes_and_their_traces(N):
    rng = np.random.default_rng(1400 + N)
    kernel = _checked_traces(_letters([box_point(rng) for _ in range(150)]), N)
    row = {w: kernel[i] for i, w in enumerate(enumerate_classes(N))}
    farey = _farey_traces({w: row[canonical_class(w)] for w in ("u", "v", "uv", "uV")}, N)
    assert set(farey) == _simple_classes(N) - {"uvUV"}
    # both sides round, and tr L tr R - tr(LR^-1) cancels at every node: at N = 10
    # the worst seen was 121 eps relative here and 103 eps over 40 other seeds
    for w, traces in farey.items():
        assert np.all(np.abs(traces - row[w]) <= 256 * np.finfo(float).eps * np.abs(row[w])), w


# An independent 50-digit oracle for the spectrum path.  It builds A and B
# from the Fenchel-Nielsen formulas in mpmath, with sinh(m/2) =
# cosh(lp/4)/sinh(l/2) in closed form where fn_to_rep subtracts, walks the
# class table's trie once per surface, and takes every class's length as
# 2 acosh(|t|/2).  class_spectra, sigma_membership and a scan are compared
# with it on seeded pairs from criterion 11's box.

ORACLE_DIGITS = 50
#: Largest |class_spectra length - oracle length| allowed.  The worst
#: measured is 1.7e-13 over 201 seeded pairs at N <= 10, 6.9e-14 on these.
ORACLE_LENGTH_ERR = 1e-12
#: Pairs whose exact margins lie within this of -tol are not drawn: the
#: float verdict may differ from the exact one there (ROADMAP item 4a).
NEAR_TOL = 1e-12


def _mp_letters(point):
    """u, U, v, V at (l, lp, theta), each a row-major 4-tuple of mpf."""
    l, lp, theta = map(mp.mpf, point)
    s = mp.cosh(lp / 4) / mp.sinh(l / 2)  # sinh(m/2)
    c = mp.sqrt(1 + s * s)  # cosh(m/2)
    el, et = mp.exp(l / 2), mp.exp(theta / 2)
    a = (el, mp.mpf(0), mp.mpf(0), 1 / el)
    b = (et * c, et * s, s / et, c / et)
    return a, (a[3], -a[1], -a[2], a[0]), b, (b[3], -b[1], -b[2], b[0])


def _mp_lengths(point, max_len):
    """Every class's length at point, in enumerate_classes order, at ORACLE_DIGITS digits."""
    with mp.workdps(ORACLE_DIGITS):
        letters = _mp_letters(point)
        traces = []
        above = None
        for depth in _class_table(max_len).depths:
            if above is None:
                here = [letters[k] for k in depth.letter.tolist()]
            else:
                here = []
                for p, k in zip(depth.parent.tolist(), depth.letter.tolist()):
                    (a, b, c, d), (e, f, g, h) = above[p], letters[k]
                    here.append((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))
            # this depth's classes are its first nodes
            count = depth.classes.stop - depth.classes.start
            traces += [m[0] + m[3] for m in here[:count]]
            above = here
        return [2 * mp.acosh(abs(t) / 2) for t in traces]


def _mp_verdict(lx, ly, tol):
    """Status, witness index (or None) and min margin, as sigma_membership defines them."""
    margins = [x - y for x, y in zip(lx, ly)]
    violators = [i for i, m in enumerate(margins) if m < -tol]
    if not violators:
        return "in_up_to_N", None, min(margins)
    # the shortest violator on Y0; among equal lengths, the first class
    return "out", min(violators, key=lambda i: ly[i]), min(margins)


def _decidable(lx, ly, tol):
    return min(abs(x - y + tol) for x, y in zip(lx, ly)) > NEAR_TOL


def _oracle_pairs(seed, count, max_len):
    """count seeded (X, Y0) pairs from the box, with the oracle's lengths of each.

    Every other X is Y0 with a longer boundary, so that both verdicts
    occur; two independent points are nearly always out.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        Y0 = box_point(rng)
        if len(pairs) % 2:
            X = Y0._replace(lp=min(3.0, Y0.lp + float(rng.uniform(0.0, 0.5))))
        else:
            X = box_point(rng)
        lx, ly = _mp_lengths(X, max_len), _mp_lengths(Y0, max_len)
        if _decidable(lx, ly, MARGIN_TOL):
            pairs.append((X, Y0, lx, ly))
    return pairs


@pytest.mark.parametrize("max_len, count, seed", [(6, 40, 1601), (8, 10, 1602)])
def test_spectra_and_verdicts_match_the_oracle(max_len, count, seed):
    classes = _class_table(max_len).classes
    u, boundary = classes.index("u"), classes.index("uvUV")
    statuses = set()
    for X, Y0, lx, ly in _oracle_pairs(seed, count, max_len):
        _, _, lengths = class_spectra([fn_to_rep(X), fn_to_rep(Y0)], max_len)
        for point, exact, column in ((X, lx, 0), (Y0, ly, 1)):
            # the oracle holds the chart's contract: l(u) = l and l(uvUV) = lp
            assert abs(exact[u] - point.l) < 1e-40 and abs(exact[boundary] - point.lp) < 1e-40
            errors = [abs(float(e - x)) for e, x in zip(exact, lengths[:, column].tolist())]
            assert max(errors) <= ORACLE_LENGTH_ERR, (point, max(errors))
        status, witness, min_margin = _mp_verdict(lx, ly, MARGIN_TOL)
        verdict = sigma_membership(X, Y0, max_len)
        assert verdict.status == status, (X, Y0)
        assert verdict.witness == (None if witness is None else classes[witness]), (X, Y0)
        assert abs(verdict.min_margin - float(min_margin)) <= 2 * ORACLE_LENGTH_ERR
        statuses.add(status)
    assert statuses == {"in_up_to_N", "out"}


def test_scan_rows_match_the_oracle():
    Y0 = FNChartPoint(1.8, 1.2, 0.4)
    grid = scan_sigma_slice(Y0, "l-lp", ((1.5, 2.1, 3), (0.9, 1.5, 3)), max_len=6)
    classes = _class_table(6).classes
    ly = _mp_lengths(Y0, 6)
    for row in grid.rows:
        lx = _mp_lengths(Y0._replace(l=row.coord1, lp=row.coord2), 6)
        assert _decidable(lx, ly, MARGIN_TOL), row
        status, witness, min_margin = _mp_verdict(lx, ly, MARGIN_TOL)
        assert (row.status, row.witness) == (
            status,
            "" if witness is None else classes[witness],
        ), row
        assert abs(row.min_margin - float(min_margin)) <= 2 * ORACLE_LENGTH_ERR, row
    assert {row.status for row in grid.rows} == {"in_up_to_N", "out"}
