"""Each CLI command imports only the modules it runs.

Every check starts a fresh interpreter, runs one command through cli.main
and reads sys.modules afterwards: `chart`, `critical`, `--help` and the
refusals before any computation load no numpy, the spectrum commands no
solver, and `modulus` none of the length-spectrum modules and no scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import holedtorus
from holedtorus import cli, extremal, fuchsian, regions

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).resolve().parent / "data"

# writes the exit code and the loaded modules to argv[1], runs cli.main on the rest
PROBE = """
import json, sys
from holedtorus import cli
try:
    code = cli.main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
with open(sys.argv[1], "w") as handle:
    json.dump([code, sorted(sys.modules)], handle)
"""

NUMPY_FREE = ("numpy", "scipy", "holedtorus.fuchsian", "holedtorus.regions", "holedtorus.extremal")
NO_SOLVER = ("scipy", "holedtorus.extremal")
NO_SPECTRA = ("holedtorus.fuchsian", "holedtorus.regions")

DESCRIPTORS = {
    "fn": {"chart": "fn", "l": 2.0, "lp": 1.0, "theta": 0.0},
    "slit": {"chart": "slit", "tau": [0.1, 1.2], "s": 0.3},
    "lambda": {"chart": "lambda", "x": [1.3, 1.4, 2.9]},
    "torus": {"chart": "torus", "tau": [0.2, 0.9]},
    "twice_punctured": {"chart": "twice_punctured", "tau": [0.0, 1.0], "mark": "bent"},
}


def env():
    out = dict(os.environ)
    out["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), out.get("PYTHONPATH")) if p)
    return out


def loaded(modules, banned):
    return [m for m in modules if any(m == b or m.startswith(b + ".") for b in banned)]


def run_cold(tmp_path, argv):
    """Exit code and sorted module names of cli.main(argv) in a fresh interpreter."""
    record = tmp_path / "modules.json"
    argv = [str(a) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(record), *argv],
        capture_output=True,
        env=env(),
        check=False,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(record.read_text())


def descriptor(tmp_path, chart):
    path = tmp_path / f"{chart}.json"
    path.write_text(json.dumps(DESCRIPTORS[chart]))
    return path


@pytest.mark.parametrize("chart", sorted(DESCRIPTORS))
@pytest.mark.parametrize("command", ["chart", "critical"])
def test_chart_and_critical_load_no_numpy(tmp_path, command, chart):
    argv = [command, "--input", descriptor(tmp_path, chart), "--out", tmp_path / "out"]
    code, modules = run_cold(tmp_path, argv)
    assert code == 0
    assert loaded(modules, NUMPY_FREE) == []


@pytest.mark.parametrize(
    "argv, want",
    [
        (["--help"], 0),
        (["--version"], 0),
        (["chart", "--help"], 0),
        (["scan", "--y0", DATA / "y0.json", "--plane", "xy", "--ranges", "0:1:2,0:1:2"], 2),
        (["critical", "--input", "bad"], 2),
    ],
    ids=["help", "version", "chart-help", "usage-error", "bad-descriptor"],
)
def test_help_and_refusals_load_no_numpy(tmp_path, argv, want):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"chart": "fn", "l": -1.0, "lp": 1.0, "theta": 0.0}))
    code, modules = run_cold(tmp_path, [bad if a == "bad" else a for a in argv])
    assert code == want
    assert loaded(modules, NUMPY_FREE) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--input", DATA / "y0.json", "--max-word-len", "4"],
        ["sigma", "--input", DATA / "y0.json", "--y0", DATA / "y0.json"],
        ["scan", "--y0", DATA / "y0.json", "--plane", "l-lp", "--ranges", "1.6:2.4:2,0.6:1.4:2"],
        ["corner", "--y0", DATA / "y0.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_spectrum_commands_load_no_solver(tmp_path, argv):
    code, modules = run_cold(tmp_path, argv + ["--out", tmp_path / "out"])
    assert code == 0
    assert "numpy" in modules
    assert loaded(modules, NO_SOLVER) == []


def modulus_argv(tmp_path, cls):
    # the smallest two-level grid at which class b converges at (i, 0.5)
    argv = ["modulus", "--input", DATA / "slit_i_half.json", "--cls", cls]
    return argv + ["--grid-n", "128", "--levels", "2", "--out", tmp_path / "out"]


def test_modulus_loads_no_spectrum_modules(tmp_path):
    # class b factors the Green's function's slit block in numpy alone
    code, modules = run_cold(tmp_path, modulus_argv(tmp_path, "b"))
    assert code == 0
    assert loaded(modules, ("scipy",) + NO_SPECTRA) == []


def test_modulus_class_a_loads_no_scipy(tmp_path):
    # class a's values are exact with no factorization
    code, modules = run_cold(tmp_path, modulus_argv(tmp_path, "a"))
    assert code == 0
    assert "holedtorus.extremal" in modules
    assert loaded(modules, ("scipy",) + NO_SPECTRA) == []


def test_package_import_loads_no_numpy():
    code = """
import sys
import holedtorus
assert "numpy" not in sys.modules, "numpy"
import holedtorus.cli
assert not hasattr(holedtorus.cli, "_x")  # a private name asks no module for it
assert "numpy" not in sys.modules, "numpy after cli"
assert holedtorus.sigma_membership.__module__ == "holedtorus.regions"
assert holedtorus.regions.__name__ == "holedtorus.regions"
names = {}
exec("from holedtorus import *", names)
assert set(holedtorus.__all__) <= set(names) and "regions" in dir(holedtorus)
print("ok")
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env(), check=False
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ok"


#: The public names holedtorus.cli had when it imported every layer eagerly.
CLI_NAMES = (
    "BOUNDARY_TOL",
    "CURVE_CLASSES",
    "DescriptorError",
    "DescriptorReport",
    "EllipticTraceError",
    "FNChartPoint",
    "MARGIN_TOL",
    "SCAN_PLANES",
    "TOOL",
    "build_parser",
    "cmd_chart",
    "cmd_corner",
    "cmd_critical",
    "cmd_modulus",
    "cmd_scan",
    "cmd_sigma",
    "cmd_spectrum",
    "corner_certificate",
    "critical_lengths",
    "descriptor_from_json",
    "descriptor_to_json",
    "dumps17",
    "eigen_split",
    "fmt17",
    "fn_to_rep",
    "length_spectrum",
    "main",
    "q_form",
    "region_membership",
    "scan_sigma_slice",
    "sigma_membership",
    "slit_torus_extremal_length",
    "strip_report",
    "validate_descriptor",
)


def test_cli_names_still_resolve():
    for name in CLI_NAMES:
        assert hasattr(cli, name), name
    assert cli.fn_to_rep is fuchsian.fn_to_rep
    assert cli.length_spectrum is fuchsian.length_spectrum
    for name in ("corner_certificate", "scan_sigma_slice", "sigma_membership"):
        assert getattr(cli, name) is getattr(regions, name), name
    assert cli.slit_torus_extremal_length is extremal.slit_torus_extremal_length
    assert cli.EllipticTraceError is fuchsian.EllipticTraceError
    # every library name resolves through the package's loader
    for name in holedtorus.__all__:
        assert getattr(cli, name) is getattr(holedtorus, name), name
    for name in ("no_such_name", "_LIBRARY", "_anything"):
        with pytest.raises(AttributeError, match="holedtorus.cli"):
            getattr(cli, name)
