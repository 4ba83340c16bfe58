import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from holedtorus.charts import q_form
from holedtorus.extremal import (
    Annulus,
    annulus_from_core_length,
    annulus_quantities,
    lambda_triple_slit,
    refine_and_extrapolate,
    slit_torus_extremal_length,
)

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


def test_refine_and_extrapolate_geometric():
    extrapolated, err = refine_and_extrapolate([1.5, 1.25, 1.125])
    assert extrapolated == pytest.approx(1.0, abs=1e-12)
    assert err == pytest.approx(0.125, abs=1e-15)


def test_refine_and_extrapolate_short_history():
    extrapolated, err = refine_and_extrapolate([2.0, 1.5])
    assert extrapolated is None
    assert err == 0.5


def test_refine_and_extrapolate_non_geometric():
    # growing differences: no extrapolation, finest value stands
    extrapolated, _ = refine_and_extrapolate([1.0, 1.1, 1.3])
    assert extrapolated == 1.3


def test_flat_torus_anchors_class_a():
    for tau in (1j, 2j, 1 + 1j):
        for s in (0.0, 0.25, 0.5):
            est = slit_torus_extremal_length(tau, s, "a", 64, levels=2)
            assert est.estimate == pytest.approx(1.0 / tau.imag, abs=1e-12)


def test_flat_torus_anchors_at_zero_slit():
    for tau in (1j, 2j, 1 + 1j):
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
    ]:
        with pytest.raises(ValueError) as single:
            slit_torus_extremal_length(tau, s, "a", grid_n, levels=levels)
        # the triple goes through the same validation
        with pytest.raises(ValueError) as triple:
            lambda_triple_slit(tau, s, grid_n, levels=levels)
        assert str(triple.value) == str(single.value)
    with pytest.raises(ValueError):
        slit_torus_extremal_length(1j, 0.3, "c", 64)


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


def test_scipy_loads_at_first_solve(tmp_path):
    # a fresh interpreter: the CLI and a non-solver command import no
    # scipy; extremal.splu still resolves, and a solve then works
    desc = tmp_path / "fn.json"
    desc.write_text(json.dumps({"chart": "fn", "l": 2.0, "lp": 1.0, "theta": 0.0}))
    code = f"""
import sys
from holedtorus import cli

def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

assert scipy_modules() == [], scipy_modules()
assert cli.main(["chart", "--input", {str(desc)!r}, "--out", {str(tmp_path / "out")!r}]) == 0
assert scipy_modules() == [], scipy_modules()
from holedtorus import extremal
assert callable(extremal.splu) and extremal.sparse.__name__ == "scipy.sparse"
assert scipy_modules()
est = extremal.slit_torus_extremal_length(1j, 0.0, "b", 32, 2)
assert abs(est.estimate - 1.0) < 1e-12, est
print("ok")
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ok"


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
