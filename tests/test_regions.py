import math

import numpy as np
import pytest

from holedtorus.charts import (
    FNChartPoint,
    fn_descriptor,
    lambda_descriptor,
    slit_descriptor,
    torus_descriptor,
    twice_punctured_descriptor,
)
from holedtorus import regions
from holedtorus.fuchsian import (
    _approx_lengths,
    _exact_lengths,
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
    critical_lengths,
    handle_cover,
    lambda_chain_check,
    scan_sigma_slice,
    sigma_membership,
    strip_report,
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
    monkeypatch.setattr(regions, "SCAN_BATCH", 1)  # one cell per kernel call
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
    monkeypatch.setattr(regions, "SCAN_BATCH", 5 * len(enumerate_classes(6)))
    split = scan_sigma_slice(y0, plane, ranges, max_len=6)
    assert split == whole
    assert_rows_are_sigma_verdicts(split, y0, 1e-9)


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
