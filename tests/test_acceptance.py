"""End-to-end acceptance suite.

Each test is one gate criterion; the conftest hook prints a PASS/FAIL
line per criterion after the run.  Budgets are asserted with generous
wall-clock limits so slow machines do not flake, while still catching
complexity regressions.
"""

import itertools
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from holedtorus.charts import (
    FNChartPoint,
    UnsupportedSurfaceError,
    critical_lengths,
    fn_descriptor,
    lambda_of_punctured_torus,
    q_form,
    region_height,
    slit_descriptor,
    strip_report,
    torus_descriptor,
    twice_punctured_descriptor,
)
from holedtorus.cli import main
from holedtorus.extremal import (
    Annulus,
    annulus_from_core_length,
    lambda_triple_slit,
    slit_torus_extremal_length,
)
from holedtorus.fuchsian import (
    canonical_class,
    enumerate_classes,
    fn_to_rep,
    geodesic_length,
    reduce_word,
    twist_substitute,
    word_trace,
)
from holedtorus.regions import corner_certificate, sigma_membership


def test_criterion_01_lambda_region_suite():
    rng = np.random.default_rng(1001)
    start = perf_counter()
    res = rng.uniform(-2.0, 2.0, size=10_000)
    ims = rng.uniform(0.05, 4.0, size=10_000)
    for re, im in zip(res, ims):
        x = lambda_of_punctured_torus(complex(re, im))
        assert abs(q_form(x) + 4.0) <= 1e-9
    e = np.ones(3) / math.sqrt(3.0)
    raws = rng.uniform(-4.0, 4.0, size=(10_000, 3))
    for raw in raws:
        zeta = raw - raw.mean()
        t = region_height(tuple(zeta))
        x = tuple(zeta + t * e)
        assert min(x) > 0.0
        assert abs(q_form(x) + 4.0) <= 1e-9
    assert perf_counter() - start < 1.0


def test_criterion_02_annulus_identity():
    rng = np.random.default_rng(1002)
    start = perf_counter()
    moduli = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=1000))
    for m in moduli:
        ann = Annulus(float(m))
        assert ann.extremal_length * math.pi == ann.core_length
        back = annulus_from_core_length(ann.core_length)
        assert abs(back.modulus - m) / m < 1e-12
    assert perf_counter() - start < 1.0


def test_criterion_03_trace_identity():
    rng = np.random.default_rng(1003)
    start = perf_counter()
    ls = rng.uniform(0.1, 8.0, size=10_000)
    lps = rng.uniform(0.0, 8.0, size=10_000)
    thetas = rng.uniform(-4.0, 4.0, size=10_000)
    for l, lp, theta in zip(ls, lps, thetas):
        rep = fn_to_rep(FNChartPoint(l, lp, theta))
        x = word_trace(rep, "u")
        y = word_trace(rep, "v")
        z = word_trace(rep, "uv")
        commutator = word_trace(rep, "uvUV")
        assert abs(commutator - (x * x + y * y + z * z - x * y * z - 2.0)) <= 1e-9
    assert perf_counter() - start < 5.0


def test_criterion_04_fn_contract_grid():
    ls = np.linspace(0.1, 8.0, 10)
    lps = np.concatenate([[0.0], np.linspace(0.1, 8.0, 9)])
    thetas = np.linspace(-4.0, 4.0, 5)
    for l, lp, theta in itertools.product(ls, lps, thetas):
        rep = fn_to_rep(FNChartPoint(float(l), float(lp), float(theta)))
        assert abs(geodesic_length(rep, "u") - l) <= 1e-9
        assert abs(geodesic_length(rep, "uvUV") - lp) <= 1e-9
        if lp == 0.0:
            assert abs(word_trace(rep, "uvUV") + 2.0) <= 1e-10


def test_criterion_05_class_counts_vs_brute_force():
    start = perf_counter()
    found = set()
    for n in range(1, 9):
        for letters in itertools.product("uUvV", repeat=n):
            word = "".join(letters)
            if reduce_word(word):
                found.add(canonical_class(word))
    found = {w for w in found if len(w) <= 8}
    listed = enumerate_classes(8)
    assert len(listed) == len(set(listed))
    assert set(listed) == found
    assert perf_counter() - start < 10.0


def test_criterion_06_twist_equivariance():
    rng = np.random.default_rng(1006)
    classes = enumerate_classes(5)
    for _ in range(100):
        l = float(rng.uniform(0.3, 5.0))
        lp = float(rng.uniform(0.1, 5.0))
        theta = float(rng.uniform(-3.0, 3.0))
        twisted = fn_to_rep(FNChartPoint(l, lp, theta + l))
        rep = fn_to_rep(FNChartPoint(l, lp, theta))
        for word in classes:
            lhs = geodesic_length(twisted, word)
            rhs = geodesic_length(rep, twist_substitute(word))
            assert abs(lhs - rhs) <= 1e-8


def test_criterion_07_solver_anchors():
    start = perf_counter()
    anchors = []
    for tau in (1j, 2j, 1 + 1j):
        for s in (0.0, 0.25, 0.5):
            anchors.append((tau, s, "a", 1.0 / tau.imag))
        anchors.append((tau, 0.0, "b", abs(tau) ** 2 / tau.imag))
        anchors.append((tau, 0.0, "aB", abs(1 - tau) ** 2 / tau.imag))
    for tau, s, cls, exact in anchors:
        est = slit_torus_extremal_length(tau, s, cls, 256, levels=3)
        assert est.error_indicator / est.estimate < 5e-3
        assert abs(est.estimate - exact) / exact < 1e-2
    assert perf_counter() - start < 120.0


def test_criterion_08_numerical_triple_region_trend():
    by_s = {
        s: lambda_triple_slit(1j, s, 128, levels=3) for s in (0.1, 0.3, 0.5)
    }
    for s, triple in by_s.items():
        assert triple.q_plus_4 <= 3.0 * triple.error_indicator
    assert by_s[0.5].q_plus_4 < by_s[0.3].q_plus_4 < by_s[0.1].q_plus_4 < 0.0


def test_criterion_09_critical_lengths_native_charts():
    crit = critical_lengths(fn_descriptor(math.pi, 1.0, 0.0))
    assert crit.lambda_a.value == 1.0
    assert crit.lambda_inf.value == 1.0

    crit = critical_lengths(slit_descriptor(1j, 0.5))
    assert crit.lambda_c.value == 1.0

    tau0 = 0.25 + 1.6j
    crit = critical_lengths(torus_descriptor(tau0))
    assert crit.lambda_a.value == 0.0
    strips = {r.quantity: r for r in strip_report(torus_descriptor(tau0))}
    assert strips["lambda_a"].strip.height == math.inf
    assert strips["lambda_a"].strip.contains(1e6j)

    for mark in ("straight", "bent"):
        crit = critical_lengths(twice_punctured_descriptor(tau0, mark))
        assert crit.lambda_c.value == 1.0 / tau0.imag


def test_criterion_10_corner_certificates():
    for l in np.linspace(1.2, 2.2, 5):
        for lp in np.linspace(0.3, 1.1, 5):
            report = corner_certificate(
                FNChartPoint(float(l), float(lp), 0.0), 1e-3
            )
            down = {
                (p.coordinate, p.delta < 0): p for p in report.probes
            }
            l_probe = down[("l", True)]
            assert l_probe.status == "out" and l_probe.witness == "u"
            lp_probe = down[("lp", True)]
            assert lp_probe.status == "out" and lp_probe.witness == "uvUV"
            assert report.independent
    with pytest.raises(UnsupportedSurfaceError):
        corner_certificate(FNChartPoint(2.0, 0.0, 0.0), 1e-3)


def test_criterion_11_sigma_suite_and_cli_determinism(tmp_path):
    rng = np.random.default_rng(1011)

    def random_point():
        return FNChartPoint(
            float(rng.uniform(0.5, 4.0)),
            float(rng.uniform(0.1, 3.0)),
            float(rng.uniform(-2.0, 2.0)),
        )

    for _ in range(400):
        Y = random_point()
        n = int(rng.integers(2, 7))
        verdict = sigma_membership(Y, Y, n)
        assert verdict.status == "in_up_to_N"
        assert verdict.min_margin == 0.0

    for _ in range(300):
        X, Y = random_point(), random_point()
        n = int(rng.integers(2, 7))
        verdict = sigma_membership(X, Y, n)
        if verdict.status == "out":
            rep_y = fn_to_rep(Y)
            margins = dict(verdict.margins)
            assert margins[verdict.witness] < -1e-9
            witness_ly = geodesic_length(rep_y, verdict.witness)
            for word, margin in verdict.margins:
                if margin < -1e-9:
                    ly = geodesic_length(rep_y, word)
                    assert witness_ly <= ly + 1e-12
                    if ly < witness_ly - 1e-12:
                        raise AssertionError("witness is not geodesic-minimal")

    for _ in range(300):
        X, Y = random_point(), random_point()
        n = int(rng.integers(2, 6))
        coarse = sigma_membership(X, Y, n)
        fine = sigma_membership(X, Y, n + 1)
        if coarse.status == "out":
            assert fine.status == "out"
        assert fine.min_margin <= coarse.min_margin + 1e-15

    y0 = tmp_path / "y0.json"
    y0.write_text('{"chart": "fn", "l": 2.0, "lp": 1.0, "theta": 0.0}')
    slit = tmp_path / "slit.json"
    slit.write_text('{"chart": "slit", "tau": [0.0, 1.0], "s": 0.5}')
    scan_argv = [
        "scan",
        "--y0",
        str(y0),
        "--plane",
        "l-lp",
        "--ranges",
        "1.8:2.2:5,0.8:1.2:5",
        "--max-word-len",
        "5",
    ]
    modulus_argv = ["modulus", "--input", str(slit), "--cls", "b", "--grid-n", "128"]
    outputs = []
    for tag in ("first", "second"):
        scan_out = tmp_path / f"scan_{tag}.csv"
        modulus_out = tmp_path / f"modulus_{tag}.json"
        assert main(scan_argv + ["--out", str(scan_out)]) == 0
        assert main(modulus_argv + ["--out", str(modulus_out)]) == 0
        outputs.append((scan_out.read_bytes(), modulus_out.read_bytes()))
    assert outputs[0] == outputs[1]
