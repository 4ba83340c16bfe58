import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holedtorus import extremal
from holedtorus.cli import main

DATA = Path(__file__).parent / "data"


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def fn_file(tmp_path):
    return write_json(
        tmp_path / "fn.json", {"chart": "fn", "l": 2.0, "lp": 1.0, "theta": 0.0}
    )


@pytest.fixture
def slit_file(tmp_path):
    return write_json(
        tmp_path / "slit.json", {"chart": "slit", "tau": [0.0, 1.0], "s": 0.5}
    )


def run_to_file(tmp_path, argv, name="out.txt"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_text()


def test_chart_boundary_classification(tmp_path):
    path = write_json(
        tmp_path / "lam.json", {"chart": "lambda", "x": [1.0, 1.0, 2.0]}
    )
    code, text = run_to_file(tmp_path, ["chart", "--input", path])
    assert code == 0
    report = json.loads(text)
    assert report["tool"] == "holedtorus"
    assert report["command"] == "chart"
    assert report["result"]["region"] == "boundary"
    assert report["result"]["once_punctured"] is True
    assert report["result"]["q_plus_4"] == 0.0
    zeta = report["result"]["eigen_split"]["zeta"]
    assert sum(zeta) == pytest.approx(0.0, abs=1e-12)


# x = (1, 1, 5) lies outside Q + 4 <= 0; an infinite band called it boundary.
# An fn descriptor has no band, but the echoed tol must still be a valid one.
LAMBDA_OUTSIDE = {"chart": "lambda", "x": [1.0, 1.0, 5.0]}
FN_POINT = {"chart": "fn", "l": 2.0, "lp": 1.0, "theta": 0.0}


@pytest.mark.parametrize(
    "payload, tol",
    [pytest.param(LAMBDA_OUTSIDE, tol, id=tol) for tol in ["inf", "0", "-1", "nan"]]
    + [pytest.param(FN_POINT, tol, id=f"fn-{tol}") for tol in ["inf", "0", "-1", "nan"]],
)
def test_chart_bad_tol_exits_2(tmp_path, capsys, payload, tol):
    path = write_json(tmp_path / "desc.json", payload)
    assert main(["chart", "--input", path, f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tol must be finite and positive" in captured.err


def test_chart_lambda_overflowing_q_exits_1(tmp_path, capsys):
    # Q = -3e400 at 1e200 is interior, but overflows to inf - inf = NaN:
    # a numeric failure, not the input error "x must lie in the region"
    path = write_json(tmp_path / "lam.json", {"chart": "lambda", "x": [1e200] * 3})
    assert main(["chart", "--input", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("holedtorus: Q(x)") and captured.err.count("\n") == 1
    # at 1e150, Q = -3e300 stays finite
    path = write_json(tmp_path / "lam.json", {"chart": "lambda", "x": [1e150] * 3})
    code, text = run_to_file(tmp_path, ["chart", "--input", path])
    assert code == 0
    assert json.loads(text)["result"]["region"] == "interior"


@pytest.mark.parametrize(
    "payload",
    [
        {"chart": "fn", "l": "2.0", "lp": True, "theta": "-0"},
        {"chart": "slit", "tau": ["0", "1"], "s": False},
        {"chart": "lambda", "x": [True, True, "2"]},
    ],
    ids=["fn", "slit", "lambda"],
)
def test_chart_string_or_bool_number_exits_2(tmp_path, capsys, payload):
    path = write_json(tmp_path / "desc.json", payload)
    assert main(["chart", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be a real number" in captured.err


BIG = 10**400  # a JSON integer that no double holds


@pytest.mark.parametrize(
    "command, payload",
    [
        ("chart", {"chart": "fn", "l": BIG, "lp": 1.0, "theta": 0.0}),
        ("chart", {"chart": "slit", "tau": [0.0, BIG], "s": 0.5}),
        ("chart", {"chart": "lambda", "x": [1.0, 1.0, BIG]}),
        ("critical", {"chart": "torus", "tau": [BIG, 1.0]}),
    ],
    ids=["fn", "slit", "lambda", "critical-torus"],
)
def test_huge_json_integer_exits_2(tmp_path, capsys, command, payload):
    path = write_json(tmp_path / "desc.json", payload)
    assert main([command, "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


def test_chart_slit_once_punctured_flag(tmp_path):
    path = write_json(
        tmp_path / "slit0.json", {"chart": "slit", "tau": [0.0, 1.0], "s": 0.0}
    )
    code, text = run_to_file(tmp_path, ["chart", "--input", path])
    assert code == 0
    assert json.loads(text)["result"]["once_punctured"] is True


def test_chart_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    assert main(["chart", "--input", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_chart_unknown_chart_exits_2(tmp_path, capsys):
    path = write_json(tmp_path / "bad.json", {"chart": "bogus"})
    assert main(["chart", "--input", str(path)]) == 2
    assert "chart" in capsys.readouterr().err


def test_chart_missing_file_exits_2(tmp_path, capsys):
    assert main(["chart", "--input", str(tmp_path / "nope.json")]) == 2
    assert capsys.readouterr().err


def test_spectrum_single_letter_classes(tmp_path):
    l = 2.0 * math.acosh(1.5)
    path = write_json(
        tmp_path / "fn.json", {"chart": "fn", "l": l, "lp": 0.0, "theta": 0.0}
    )
    code, text = run_to_file(
        tmp_path, ["spectrum", "--input", path, "--max-word-len", "1"]
    )
    assert code == 0
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert lines[0] == "word,trace,length"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert set(rows) == {"u", "v"}
    assert float(rows["u"][1]) == pytest.approx(3.0, abs=1e-12)
    assert float(rows["u"][2]) == pytest.approx(l, abs=1e-12)


def test_spectrum_six_classes_at_length_two(tmp_path, fn_file):
    code, text = run_to_file(
        tmp_path, ["spectrum", "--input", fn_file, "--max-word-len", "2"]
    )
    assert code == 0
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert len(lines) == 7  # header plus six classes
    lengths = [float(line.split(",")[2]) for line in lines[1:]]
    assert lengths == sorted(lengths)


def test_spectrum_requires_fn_chart(tmp_path, slit_file, capsys):
    assert main(["spectrum", "--input", slit_file]) == 2
    assert "fn-chart" in capsys.readouterr().err


def test_sigma_reflexive_and_out(tmp_path, fn_file):
    code, text = run_to_file(
        tmp_path, ["sigma", "--input", fn_file, "--y0", fn_file]
    )
    assert code == 0
    report = json.loads(text)
    assert report["result"]["status"] == "in_up_to_N"
    assert report["result"]["witness"] is None

    low = write_json(
        tmp_path / "low.json", {"chart": "fn", "l": 1.9, "lp": 1.0, "theta": 0.0}
    )
    code, text = run_to_file(
        tmp_path, ["sigma", "--input", low, "--y0", fn_file], name="out2.txt"
    )
    assert code == 0
    report = json.loads(text)
    assert report["result"]["status"] == "out"
    assert report["result"]["witness"] == "u"


@pytest.mark.parametrize("l", [400.0, 800.0])
def test_sigma_overflow_exits_1(tmp_path, capsys, l):
    # l = 400 overflows a word product, l = 800 the matrix pair itself
    x = write_json(tmp_path / "x.json", {"chart": "fn", "l": l, "lp": 1.0, "theta": 0})
    y0 = write_json(tmp_path / "y.json", {"chart": "fn", "l": l, "lp": 1.5, "theta": 0})
    assert main(["sigma", "--input", x, "--y0", y0, "--max-word-len", "6"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("holedtorus: ") and err.count("\n") == 1


@pytest.mark.parametrize("swap", [False, True])
def test_elliptic_and_overflow_report_first_surface(tmp_path, capsys, swap):
    # X is elliptic in uvUV, Y0 overflows in vvv: the input checked first
    # (X) is the one named, and the trace prints as a plain float
    x = write_json(tmp_path / "x.json", {"chart": "fn", "l": 25.0, "lp": 1e-3, "theta": 0})
    y0 = write_json(tmp_path / "y.json", {"chart": "fn", "l": 1.0, "lp": 1400.0, "theta": 0})
    if swap:
        x, y0 = y0, x
    out = str(tmp_path / "out")
    assert main(["sigma", "--input", x, "--y0", y0, "--out", out]) == 1
    assert capsys.readouterr().err == (
        "holedtorus: non-finite trace inf for word 'vvv': the word product "
        "overflows double precision\n"
        if swap
        else "holedtorus: elliptic trace -1.9999847268935596 for word 'uvUV'\n"
    )
    assert main(["spectrum", "--input", y0 if swap else x, "--out", out]) == 1
    assert capsys.readouterr().err == (
        "holedtorus: elliptic trace -1.9999847268935596 for word 'uvUV'\n"
    )


@pytest.mark.parametrize("command", ["spectrum", "sigma", "corner"])
@pytest.mark.parametrize("l", [38.0, 40.0, 60.0, 100.0, 200.0])
def test_cancelled_sinh_exits_1(tmp_path, capsys, command, l):
    # y^2/4 - 1 = sinh^2(m/2) cancels to a few ulps or to 0 at these l:
    # refused as a numeric failure, not answered and not an input error
    x = write_json(tmp_path / "x.json", {"chart": "fn", "l": l, "lp": 1.0, "theta": 0})
    argv = {
        "spectrum": ["spectrum", "--input", x],
        "sigma": ["sigma", "--input", x, "--y0", x],
        "corner": ["corner", "--y0", x],
    }[command]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("holedtorus: ") and err.count("\n") == 1
    assert "sinh" in err


@pytest.mark.parametrize("command", ["chart", "spectrum", "sigma", "scan", "corner"])
@pytest.mark.parametrize(
    "point",
    [
        (1500.0, 1.0, 0.0),
        (2.0, 3000.0, 0.0),
        (2.0, 1.0, 1500.0),
        (2.0, 1.0, -1500.0),
        (1e-170, 1.0, 0.0),
    ],
)
def test_unrepresentable_pair_exits_1_naming_the_point(tmp_path, capsys, command, point):
    # cosh(l), cosh(lp/2) or exp(theta/2) overflows, or exp(theta/2) or
    # sinh^2(l/2) underflows to 0: chart accepts the descriptor, and every
    # command that builds the matrix pair refuses it with one line
    l, lp, theta = point
    x = write_json(tmp_path / "x.json", {"chart": "fn", "l": l, "lp": lp, "theta": theta})
    argv = {
        "chart": ["chart", "--input", x],
        "spectrum": ["spectrum", "--input", x],
        "sigma": ["sigma", "--input", x, "--y0", x],
        "scan": ["scan", "--y0", x, "--plane", "l-lp", "--ranges", "1:2:2,1:2:2"],
        "corner": ["corner", "--y0", x, "--eps", str(min(l, lp) / 4.0)],
    }[command]
    code = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if command == "chart":
        assert (code, err) == (0, "")
        return
    assert code == 1
    assert err.startswith("holedtorus: the matrix pair at (l, lp, theta) = (")
    assert err.count("\n") == 1
    if command != "corner":  # corner names the probe it meets first
        assert f"= ({l!r}, {lp!r}, {theta!r}) " in err


def test_scan_matches_golden_rows(tmp_path):
    y0 = str(DATA / "y0.json")
    code, text = run_to_file(
        tmp_path,
        [
            "scan",
            "--y0",
            y0,
            "--plane",
            "l-lp",
            "--ranges",
            "1.6:2.4:9,0.6:1.4:9",
            "--max-word-len",
            "6",
        ],
        name="scan.csv",
    )
    assert code == 0
    golden = (DATA / "scan_golden.csv").read_text()

    def data_lines(body):
        return [line for line in body.splitlines() if not line.startswith("# config")]

    got, expected = data_lines(text), data_lines(golden)
    assert len(got) == len(expected)
    for mine, theirs in zip(got, expected):
        if "," not in mine or mine.startswith(("#", "coord1")):
            assert mine == theirs
            continue
        m, t = mine.split(","), theirs.split(",")
        assert m[2:4] == t[2:4]
        for a, b in zip((m[0], m[1], m[4]), (t[0], t[1], t[4])):
            assert float(a) == pytest.approx(float(b), rel=1e-9, abs=1e-12)


def test_scan_repeat_runs_are_byte_identical(tmp_path, fn_file):
    argv = [
        "scan",
        "--y0",
        fn_file,
        "--plane",
        "l-lp",
        "--ranges",
        "1.8:2.2:3,0.8:1.2:3",
        "--max-word-len",
        "4",
    ]
    _, first = run_to_file(tmp_path, argv, name="a.csv")
    _, second = run_to_file(tmp_path, argv, name="b.csv")
    assert first == second


def test_scan_workers_change_only_config_echo(tmp_path, fn_file):
    argv = [
        "scan",
        "--y0",
        fn_file,
        "--plane",
        "l-lp",
        "--ranges",
        "1.8:2.2:3,0.8:1.2:3",
        "--max-word-len",
        "4",
    ]
    _, serial = run_to_file(tmp_path, argv, name="a.csv")
    _, parallel = run_to_file(tmp_path, argv + ["--workers", "2"], name="b.csv")

    def rows(body):
        return [line for line in body.splitlines() if not line.startswith("#")]

    assert rows(serial) == rows(parallel)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_scan_workers_keep_the_bytes(tmp_path, fn_file, workers):
    argv = ["scan", "--y0", fn_file, "--plane", "l-lp", "--ranges", "1.8:2.2:3,0.8:1.2:3"]
    _, default = run_to_file(tmp_path, argv, name="a.csv")
    _, chosen = run_to_file(tmp_path, argv + ["--workers", workers], name="b.csv")
    assert chosen == default.replace(" workers=1\n", f" workers={workers}\n")


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_scan_workers_below_one_exit_2(tmp_path, fn_file, capsys, workers):
    out = tmp_path / "out.csv"
    argv = ["scan", "--y0", fn_file, "--plane", "l-lp", "--ranges", "1.8:2.2:3,0.8:1.2:3"]
    assert main(argv + [f"--workers={workers}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"holedtorus: --workers must be at least 1, got {workers}\n"
    )
    assert not out.exists()


def test_scan_workers_stop_at_the_cli(tmp_path, fn_file, monkeypatch):
    # --workers is checked and echoed, and the library scan never sees it
    from holedtorus import regions

    calls = []
    scan = regions.scan_sigma_slice

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return scan(*args, **kwargs)

    monkeypatch.setattr(regions, "scan_sigma_slice", spy)
    argv = ["scan", "--y0", fn_file, "--plane", "l-lp", "--ranges", "1.8:2.2:2,0.8:1.2:2"]
    code, _ = run_to_file(tmp_path, argv + ["--workers", "2", "--max-word-len", "3"])
    assert code == 0
    assert calls == [{"max_len": 3, "tol": regions.MARGIN_TOL}]


@pytest.mark.parametrize("max_len", ["0", "1"])
def test_scan_short_max_word_len_exits_2_like_sigma(tmp_path, fn_file, capsys, max_len):
    sigma = ["sigma", "--input", fn_file, "--y0", fn_file]
    assert main(sigma + ["--max-word-len", max_len]) == 2
    expected = capsys.readouterr().err
    scan = ["scan", "--y0", fn_file, "--plane", "l-lp", "--ranges", "1.8:2.2:3,0.8:1.2:3"]
    assert main(scan + ["--max-word-len", max_len]) == 2
    assert capsys.readouterr().err == expected
    assert "at least 2" in expected


def test_scan_bad_ranges_exit_2(tmp_path, fn_file, capsys):
    for ranges in ["1:2", "1:2:3.5,1:2:2", "1:x:3,1:2:2"]:
        assert (
            main(["scan", "--y0", fn_file, "--plane", "l-lp", "--ranges", ranges]) == 2
        )
        assert "--ranges" in capsys.readouterr().err


def test_scan_negative_ranges_need_the_equals_form(tmp_path, fn_file, capsys):
    argv = ["scan", "--y0", fn_file, "--plane", "lp-theta"]
    code, text = run_to_file(tmp_path, argv + ["--ranges=-0:1:2,-1:1:3"])
    assert code == 0
    rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    cells = [(float(row[0]), float(row[1])) for row in rows[1:]]
    assert cells == [(lp, theta) for lp in (0.0, 1.0) for theta in (-1.0, 0.0, 1.0)]
    # after a space, argparse reads the value as an option
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--ranges", "-0:1:2,-1:1:3"])
    assert exc.value.code == 2
    assert "--ranges: expected one argument" in capsys.readouterr().err


#: finite ranges off the chart: the first cell is refused in its turn, by name
OFF_THE_CHART = {"-1:2:4,0.5:1:2": "l must be positive", "-1:1:2,0:1:2": "lp must be nonnegative"}


@pytest.mark.parametrize(
    "plane, ranges",
    [
        ("l-lp", "1:inf:2,0.5:1.5:2"),
        ("l-lp", "nan:2:2,0.5:1.5:2"),
        ("l-lp", "1e400:2:2,1:2:2"),
        ("l-theta", "1:2:2,0:inf:2"),
        ("l-theta", "1:2:2,-1.7e308:1.7e308:3"),  # the width overflows
        ("l-lp", "-1:2:4,0.5:1:2"),
        ("lp-theta", "-1:1:2,0:1:2"),
    ],
)
def test_scan_ranges_off_the_domain_exit_2_without_warning(fn_file, capsys, plane, ranges):
    # numpy's linspace must not see non-finite ones: it warns from inside site-packages
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["scan", "--y0", fn_file, "--plane", plane, f"--ranges={ranges}"])
    assert code == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    message = OFF_THE_CHART.get(ranges, "scan ranges leave the chart domain")
    assert captured.err == f"holedtorus: {message}\n"


@pytest.mark.parametrize("tol", ["-1", "inf", "nan"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sigma", "--input", str(DATA / "y0.json"), "--y0", str(DATA / "y0.json")],
        ["scan", "--y0", str(DATA / "y0.json"), "--plane", "l-lp", "--ranges", "1:3:2,0.5:1.5:2"],
        # cells off the chart are refused after tol
        ["scan", "--y0", str(DATA / "y0.json"), "--plane", "l-lp", "--ranges=-1:2:4,0.5:1:2"],
        ["corner", "--y0", str(DATA / "y0.json")],
    ],
    ids=["sigma", "scan", "scan-off-the-chart", "corner"],
)
def test_bad_tol_exits_2(capsys, argv, tol):
    # unchecked, a negative tol puts every cell out and inf reads every verdict in
    assert main(argv + [f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("holedtorus: tol must be finite and nonnegative")


def test_critical_fn_unit_lambda_a(tmp_path):
    path = write_json(
        tmp_path / "fnpi.json",
        {"chart": "fn", "l": math.pi, "lp": 1.0, "theta": 0.0},
    )
    code, text = run_to_file(tmp_path, ["critical", "--input", path])
    assert code == 0
    result = json.loads(text)["result"]
    assert result["critical_lengths"]["lambda_a"]["value"] == 1.0
    assert result["critical_lengths"]["lambda_c"]["available"] is False
    assert result["critical_lengths"]["lambda_c"]["reason"]
    quantities = [s["quantity"] for s in result["strips"]]
    assert quantities == ["lambda_a", "lambda_inf"]


@pytest.mark.parametrize(
    "payload, tiny",
    [
        ({"chart": "slit", "tau": [0.0, 1e-320], "s": 0.5}, {"tau": [0.0, 1e-300]}),
        ({"chart": "fn", "l": 1e-320, "lp": 1, "theta": 0}, {"l": 1e-300}),
    ],
)
def test_critical_overflow_exits_1(tmp_path, capsys, payload, tiny):
    # 1/Im tau or the strip height 1/lambda_a overflows: a numeric failure
    path = write_json(tmp_path / "desc.json", payload)
    assert main(["critical", "--input", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("holedtorus: ") and captured.err.count("\n") == 1
    # one step up, every value is finite
    path = write_json(tmp_path / "desc.json", {**payload, **tiny})
    code, text = run_to_file(tmp_path, ["critical", "--input", path])
    assert code == 0
    strips = json.loads(text)["result"]["strips"]
    assert all(math.isfinite(s["value"]) and math.isfinite(s["strip_height"]) for s in strips)


def test_critical_torus_serializes_infinite_strip(tmp_path):
    path = write_json(tmp_path / "torus.json", {"chart": "torus", "tau": [0.0, 2.0]})
    code, text = run_to_file(tmp_path, ["critical", "--input", path])
    assert code == 0
    strips = {s["quantity"]: s for s in json.loads(text)["result"]["strips"]}
    assert strips["lambda_a"]["strip_height"] == "inf"
    assert strips["lambda_c"]["strip_height"] == 2.0
    assert strips["lambda_c"]["meeting_tau"] == [0.0, 2.0]


def test_corner_report(tmp_path, fn_file):
    code, text = run_to_file(
        tmp_path, ["corner", "--y0", fn_file, "--eps", "1e-3"]
    )
    assert code == 0
    result = json.loads(text)["result"]
    assert result["independent"] is True
    assert result["active_constraints"] == ["u", "uvUV"]
    probes = {(p["coordinate"], p["delta"] < 0): p for p in result["probes"]}
    assert probes[("l", True)]["witness"] == "u"
    assert probes[("lp", True)]["witness"] == "uvUV"


def test_corner_large_tol_is_not_independent(tmp_path):
    # tol = 1000 reads all four probes in: the corner is not certified
    code, text = run_to_file(
        tmp_path,
        ["corner", "--y0", str(DATA / "y0.json"), "--eps", "0.001", "--tol=1000"],
    )
    assert code == 0
    result = json.loads(text)["result"]
    assert {p["status"] for p in result["probes"]} == {"in_up_to_N"}
    assert result["independent"] is False


def test_corner_once_punctured_exit_2(tmp_path, capsys):
    path = write_json(
        tmp_path / "cusp.json", {"chart": "fn", "l": 2.0, "lp": 0.0, "theta": 0.0}
    )
    assert main(["corner", "--y0", str(path)]) == 2
    assert "lp" in capsys.readouterr().err


def test_modulus_exact_class_a(tmp_path, slit_file):
    code, text = run_to_file(
        tmp_path, ["modulus", "--input", slit_file, "--cls", "a", "--grid-n", "64"]
    )
    assert code == 0
    result = json.loads(text)["result"]
    assert result["estimate"] == pytest.approx(1.0, abs=1e-12)
    assert result["converged"] is True
    assert [n for n, _ in result["history"]] == [16, 32, 64]


def test_modulus_matches_golden(tmp_path, slit_file):
    code, text = run_to_file(
        tmp_path,
        ["modulus", "--input", slit_file, "--cls", "b", "--grid-n", "128"],
    )
    assert code == 0
    result = json.loads(text)["result"]
    golden = json.loads((DATA / "modulus_golden.json").read_text())["result"]
    assert result["converged"] == golden["converged"]
    for key in ("estimate", "error_indicator", "extrapolated"):
        assert result[key] == pytest.approx(golden[key], rel=1e-9)


def test_modulus_nonconverged_exits_1(tmp_path, capsys):
    path = write_json(
        tmp_path / "long.json", {"chart": "slit", "tau": [0.0, 1.0], "s": 0.9}
    )
    out = tmp_path / "mod.json"
    code = main(
        [
            "modulus",
            "--input",
            str(path),
            "--cls",
            "b",
            "--grid-n",
            "32",
            "--levels",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 1
    assert "converge" in capsys.readouterr().err
    assert json.loads(out.read_text())["result"]["converged"] is False


@pytest.mark.parametrize(
    "option, expected",
    [
        ("--grid-n=65536", "grid_n 65536 exceeds the cap 512"),
        ("--levels=100000000000000", "grid_n must be a multiple of 2^(levels-1)"),
    ],
)
def test_modulus_oversized_grid_exits_2(slit_file, capsys, monkeypatch, option, expected):
    def no_solve(*args):
        raise AssertionError("an oversized grid reached the solver")

    # refused before any allocation: were it not, a 65536 grid would take GBs
    monkeypatch.setattr(extremal, "_solve_grid", no_solve)
    assert main(["modulus", "--input", slit_file, "--cls", "b", option]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"holedtorus: {expected}")


@pytest.mark.parametrize(
    "tau",
    [
        [1e200, 1.0],
        [1e300, 1.0],
        [0.0, 1e300],
        [1e100, 1.0],
        [1e150, 1.0],
        [0.0, 1e-320],
        [0.2, 1e-320],
    ],
)
def test_modulus_extreme_tau_exits_without_traceback(tmp_path, capsys, tau):
    # the metric form or the energy overflows: a numeric failure, not a traceback
    path = write_json(tmp_path / "slit.json", {"chart": "slit", "tau": tau, "s": 0.5})
    code = main(["modulus", "--input", path, "--cls", "b", "--out", str(tmp_path / "out")])
    assert code in (1, 2)
    err = capsys.readouterr().err
    assert err.startswith("holedtorus: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "tau, message",
    [
        (
            [-1.157961173222321e79, 8.756291946270664e-151],
            "the stencil of tau = (-1.157961173222321e+79+8.756291946270664e-151j) at n = 16 "
            "overflows",
        ),
        (
            [0.0, 1e-300],
            "discrete energies [nan] at tau = 1e-300j, n = 16: the metric form underflows "
            "(|tau|^2 / Im tau = 0.0)",
        ),
    ],
)
def test_modulus_past_the_solvers_range_exits_1_by_name(tmp_path, capsys, tau, message):
    # the stencil's centre overflows, or |tau|^2 does: a numeric failure that
    # names its cause (the first read "-inf + inf in fsum" with exit 2), while
    # class a, which needs no stencil, is exactly 1/Im tau
    path = write_json(tmp_path / "slit.json", {"chart": "slit", "tau": tau, "s": 0.5})
    argv = ["modulus", "--input", path, "--grid-n", "32", "--levels", "2"]
    assert main(argv + ["--cls", "b"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"holedtorus: {message}\n"
    code, text = run_to_file(tmp_path, argv + ["--cls", "a"])
    assert code == 0
    assert json.loads(text)["result"]["estimate"] == 1.0 / tau[1]


def test_modulus_requires_slit_chart(tmp_path, fn_file, capsys):
    assert main(["modulus", "--input", fn_file, "--cls", "a"]) == 2
    assert "slit" in capsys.readouterr().err


def test_stdin_descriptor(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO('{"chart": "torus", "tau": [0.0, 2.0]}')
    )
    assert main(["chart", "--input", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["descriptor"]["chart"] == "torus"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "holedtorus" in capsys.readouterr().out


# Every option of each subcommand but --out, in declaration order, each set
# to a value other than its default.  FN and SLIT stand for descriptor paths.
CONFIG_ECHO = {
    "chart": [("input", "FN"), ("tol", 0.25)],
    "spectrum": [("input", "FN"), ("max_word_len", 3)],
    "sigma": [("input", "FN"), ("y0", "FN"), ("max_word_len", 3), ("tol", 0.25)],
    "scan": [
        ("y0", "FN"),
        ("plane", "l-theta"),
        ("ranges", "1.8:2.2:2,-0.1:0.1:2"),
        ("max_word_len", 3),
        ("tol", 0.25),
        ("workers", 2),
    ],
    "critical": [("input", "FN")],
    "corner": [("y0", "FN"), ("eps", 0.125), ("max_word_len", 5), ("tol", 0.25)],
    "modulus": [("input", "SLIT"), ("cls", "aB"), ("grid_n", 32), ("levels", 2)],
}


@pytest.mark.parametrize("command", list(CONFIG_ECHO))
def test_config_echoes_every_option_but_out(tmp_path, fn_file, slit_file, command):
    paths = {"FN": fn_file, "SLIT": slit_file}
    expected = [(name, paths.get(value, value)) for name, value in CONFIG_ECHO[command]]
    argv = [command]
    for name, value in expected:
        argv += ["--" + name.replace("_", "-"), str(value)]
    code, text = run_to_file(tmp_path, argv)
    assert code in (0, 1)  # modulus at grid 32 need not converge; it still reports
    if command in ("spectrum", "scan"):
        (config,) = [line for line in text.splitlines() if line.startswith("# config: ")]
        assert config == "# config: " + " ".join(f"{k}={v}" for k, v in expected)
    else:
        assert list(json.loads(text)["config"].items()) == expected


# The CLI twin of tests/test_refusal_sweep.py: every subcommand on generated
# descriptors, in process.  Half the command lines are ordinary.  In the
# rest, numbers also come from chart edges, values JSON holds but no chart
# takes (1e300, NaN, Infinity) and values that are not numbers, a Lambda
# triple and a tau pair come ill-shaped, and options take extreme values.
json_numbers = st.one_of(
    st.floats(0.05, 3.0),
    st.sampled_from([0.0, -1.0, 1e-320, 1e-170, 1e300, 1500.0, math.inf, math.nan]),
    st.sampled_from(["0.5", True, None, [1.0]]),
)
ordinary_fn = st.fixed_dictionaries(
    {
        "chart": st.just("fn"),
        "l": st.floats(1.5, 3.0),
        "lp": st.floats(1.0, 2.5),
        "theta": st.floats(-1.0, 1.0),
    }
)
ordinary_taus = st.tuples(st.floats(-1.0, 1.0), st.floats(0.5, 2.0)).map(list)
ordinary_slit = st.fixed_dictionaries(
    {"chart": st.just("slit"), "tau": ordinary_taus, "s": st.floats(0.0, 0.95)}
)
ill_shaped = st.sampled_from([5, None, "abc", {"a": 1}, [], [1.0], [1.0, 2.0, 3.0, 4.0]])
taus = st.one_of(ordinary_taus, ill_shaped)
descriptors = st.one_of(
    st.fixed_dictionaries(
        {"chart": st.just("fn"), "l": json_numbers, "lp": json_numbers, "theta": json_numbers}
    ),
    st.fixed_dictionaries(
        {"chart": st.just("slit"), "tau": taus, "s": st.one_of(st.floats(0.0, 0.95), json_numbers)}
    ),
    st.fixed_dictionaries(
        {"chart": st.just("lambda"), "x": st.one_of(st.just([1.0, 1.0, 5.0]), ill_shaped)}
    ),
    st.fixed_dictionaries({"chart": st.just("torus"), "tau": taus}),
    st.fixed_dictionaries(
        {"chart": st.just("twice_punctured"), "tau": taus, "mark": st.just("bent")}
    ),
    st.sampled_from([{"chart": "hyperbolic"}, {"chart": "fn"}, [], "fn"]),
)


@st.composite
def command_lines(draw):
    """A command line and the descriptors its --input and --y0 name."""
    command = draw(st.sampled_from(sorted(CONFIG_ECHO)))
    ordinary = draw(st.booleans())

    def pick(usual, extreme):
        return draw(usual if ordinary else st.one_of(usual, extreme))

    numbers = st.sampled_from(["0", "-1", "inf", "nan"])
    usual = ordinary_slit if command == "modulus" else ordinary_fn
    files = {"--input": pick(usual, descriptors)}
    if command in ("sigma", "scan", "corner"):
        files["--y0"] = pick(ordinary_fn, descriptors)
    if command in ("scan", "corner"):
        del files["--input"]
    argv = [command]
    if command in ("chart", "sigma", "scan", "corner"):
        argv += ["--tol", pick(st.just("1e-9"), numbers)]
    if command in ("spectrum", "sigma", "scan"):
        argv += ["--max-word-len", str(draw(st.integers(1, 4)))]
    if command == "scan":
        ends = st.sampled_from(["0.5", "1", "1.5", "2"])
        count = st.integers(1, 3)
        ranges = [f"{pick(ends, numbers)}:{pick(ends, numbers)}:{draw(count)}" for _ in range(2)]
        argv += ["--plane", draw(st.sampled_from(["l-lp", "l-theta", "lp-theta"]))]
        argv += ["--ranges=" + ",".join(ranges)]
    if command == "corner":
        argv += ["--eps", pick(st.just("1e-3"), numbers)]
    if command == "modulus":
        argv += ["--cls", draw(st.sampled_from(["a", "b", "aB"]))]
        argv += ["--grid-n", "32", "--levels", "2"]
    return argv, files


def _numbers_are_finite(value):
    """Every number in a parsed report is finite; an infinity is the string "inf"."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return all(map(_numbers_are_finite, value))
    if isinstance(value, str):
        try:
            number = float(value)
        except ValueError:
            return True
        return math.isfinite(number) or value == "inf"
    return not isinstance(value, float) or math.isfinite(value)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(command_lines())
def test_every_command_exits_0_1_or_2_with_one_line(command_line):
    argv, files = command_line
    with tempfile.TemporaryDirectory() as tmp:
        for option, payload in files.items():
            argv += [option, write_json(Path(tmp) / f"{option[2:]}.json", payload)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), argv
    lines = err.getvalue().splitlines()
    if code:
        assert len(lines) == 1 and lines[0].startswith("holedtorus: "), (argv, lines)
        return
    assert lines == [], (argv, lines)
    text = out.getvalue()
    if argv[0] in ("spectrum", "scan"):
        rows = [line.split(",") for line in text.splitlines()[4:]]  # past the header
        assert rows and _numbers_are_finite(rows), (argv, text)
    else:
        assert _numbers_are_finite(json.loads(text)), (argv, text)
