import math

import numpy as np
import pytest

from holedtorus.charts import (
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
    _exact_lengths,
    _letters,
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
    """What a scan must raise: the cells row-major, each kernel call taking
    Y0 and the next KERNEL_BLOCK - 1 cells, letters before traces."""
    first, second = SCAN_PLANES[plane]
    (lo1, hi1, n1), (lo2, hi2, n2) = ranges
    cells = [
        y0._replace(**{first: c1, second: c2})
        for c1 in np.linspace(lo1, hi1, n1).tolist()
        for c2 in np.linspace(lo2, hi2, n2).tolist()
    ]
    if any(not cell.l > 0.0 or cell.lp < 0.0 for cell in cells):
        return ValueError("scan ranges leave the chart domain")
    batch = regions.KERNEL_BLOCK - 1
    for start in range(0, len(cells), batch):
        try:
            _checked_traces(_letters([y0, *cells[start : start + batch]]), max_len)
        except (ValueError, ArithmeticError, EllipticTraceError) as exc:
            return exc
    return None


@pytest.mark.parametrize(
    "y0, plane, ranges",
    [
        # the chart domain, checked over every cell before any letter
        (Y0, "l-lp", ((-1.0, 2.0, 4), (0.5, 1.5, 3))),
        (Y0, "lp-theta", ((-0.5, 1.0, 3), (0.0, 1.0, 2))),
        (FNChartPoint(0.0, 1.0, 0.0), "lp-theta", ((0.5, 1.0, 3), (0.0, 1.0, 2))),
        (FNChartPoint(2.0, -1.0, 0.0), "l-theta", ((1.0, 2.0, 3), (0.0, 1.0, 2))),
        # Y0 itself, before its cells
        (FNChartPoint(2.0, math.nan, 0.0), "l-theta", ((1.0, 2.0, 3), (0.0, 1.0, 2))),
        (FNChartPoint(2.0, 1.0, math.inf), "l-lp", ((1.0, 2.0, 3), (0.5, 1.0, 2))),
        (FNChartPoint(2.0, 1.0, 10**400), "l-lp", ((1.0, 2.0, 3), (0.5, 1.0, 2))),
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
    ],
)
@pytest.mark.parametrize("max_len", [2, 6])
def test_scan_refuses_the_first_bad_cell_after_y0(y0, plane, ranges, max_len):
    expected = first_refusal(y0, plane, ranges, max_len)
    assert expected is not None
    with pytest.raises(type(expected)) as refused:
        scan_sigma_slice(y0, plane, ranges, max_len=max_len)
    assert type(refused.value) is type(expected)
    assert str(refused.value) == str(expected)


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
