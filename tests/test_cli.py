import ast
import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

GOLDEN = Path(__file__).parent / "data" / "sweep_duffing_default.csv"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "oscaudit", *args],
        capture_output=True,
        text=True,
        env=child_env(),
    )


def test_analyze_unit_cubic_single_shape():
    result = run_cli(
        "analyze", "--preset", "duffing", "--A", "1", "--eps", "1",
        "--space", "al-single", "--format", "json",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["versions"] == {"schema": 1}
    points = payload["stationary_points"]
    assert len(points) == 1
    assert points[0]["omega"] == pytest.approx(math.sqrt(1.75), rel=1e-10)
    assert points[0]["B"] == [0.0]


def test_analyze_markdown_table_contains_frequency():
    result = run_cli(
        "analyze", "--preset", "duffing", "--A", "1", "--eps", "1",
        "--space", "al-single",
    )
    assert result.returncode == 0
    assert "1.3228756" in result.stdout
    assert "| omega | B |" in result.stdout


def test_analyze_linear_limit():
    result = run_cli(
        "analyze", "--preset", "duffing", "--A", "1", "--eps", "0",
        "--space", "al-single", "--format", "json",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["stationary_points"][0]["omega"] == pytest.approx(1.0, rel=1e-12)


def test_malformed_poly_is_config_error():
    result = run_cli("analyze", "--poly", "3:1,oops", "--space", "al-single")
    assert result.returncode == 2
    assert "oops" in result.stderr


def test_unknown_space_is_config_error():
    result = run_cli("analyze", "--space", "al-triple")
    assert result.returncode == 2
    assert "al-triple" in result.stderr


def test_custom_space_requires_shapes():
    result = run_cli("analyze", "--space", "custom")
    assert result.returncode == 2


@pytest.mark.parametrize(
    "args, field",
    [
        (("--eps", "nan"), "epsilon"),
        (("--eps", "inf"), "epsilon"),
        (("--omega0sq", "nan"), "omega0_sq"),
        (("--A", "inf"), "amplitude"),
        (("--poly", "3:nan"), "poly coefficient of power 3"),
        (("--space", "custom", "--shape", "1:1,5:nan"), "shape harmonic 5"),
        (("--bracket", "0.5:nan"), "bracket high"),
    ],
)
def test_non_finite_input_is_config_error(args, field):
    result = run_cli("audit", *args)
    assert result.returncode == 2
    assert field in result.stderr
    assert "finite" in result.stderr
    assert "Traceback" not in result.stderr


def test_shape_without_fundamental_is_domain_error():
    result = run_cli("audit", "--space", "custom", "--shape", "3:1")
    assert result.returncode == 3
    assert "no stationary point" in result.stderr


def test_audit_double_shape_reports_violations():
    result = run_cli(
        "audit", "--preset", "duffing", "--A", "1", "--eps", "1",
        "--space", "al-double", "--format", "json",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    codes = [f["code"] for f in payload["audit"]["findings"]]
    assert "BC_VIOLATION" in codes
    assert "AMPLITUDE_MISMATCH" in codes
    assert payload["audit"]["amplitude_mismatch"] == payload["audit"]["bc"]["u1_at_0"]


def test_audit_single_shape_reports_trivial_correction():
    result = run_cli(
        "audit", "--preset", "duffing", "--A", "1", "--eps", "1",
        "--space", "al-single", "--format", "json",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    codes = [f["code"] for f in payload["audit"]["findings"]]
    assert "TRIVIAL_CORRECTION" in codes
    assert payload["audit"]["trivial"]["flag"] is True


def test_audit_fail_on_findings_flips_exit_code():
    result = run_cli(
        "audit", "--preset", "duffing", "--A", "1", "--eps", "1",
        "--space", "al-single", "--fail-on-findings",
    )
    assert result.returncode == 4


def test_audit_findings_are_data_by_default():
    result = run_cli(
        "audit", "--preset", "duffing", "--A", "1", "--eps", "1",
        "--space", "al-single",
    )
    assert result.returncode == 0


def test_audit_json_round_trip_identical(tmp_path):
    out = tmp_path / "report.json"
    first = run_cli(
        "audit", "--preset", "duffing", "--A", "1", "--eps", "1",
        "--space", "al-double", "--format", "json", "--out", str(out),
    )
    assert first.returncode == 0
    text = out.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert json.loads(json.dumps(payload)) == payload
    second = run_cli(
        "audit", "--preset", "duffing", "--A", "1", "--eps", "1",
        "--space", "al-double", "--format", "json",
    )
    assert second.stdout == text


def test_audit_markdown_sections(tmp_path):
    result = run_cli(
        "audit", "--preset", "duffing", "--A", "1", "--eps", "1",
        "--space", "al-double", "--format", "md",
    )
    assert result.returncode == 0
    assert "### BC_VIOLATION" in result.stdout
    assert "### AMPLITUDE_MISMATCH" in result.stdout
    assert "## Frequency table" in result.stdout


def test_sweep_shape_and_columns(tmp_path):
    out = tmp_path / "grid.csv"
    result = run_cli(
        "sweep", "--preset", "duffing", "--space", "al-single",
        "--eps-grid", "0,1", "--A-grid", "1", "--out", str(out),
    )
    assert result.returncode == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "eps,amplitude,omega_solver,omega_closed_single,omega_closed_double,"
        "omega_exact,rel_err_solver,rel_err_closed_single,rel_err_closed_double,"
        "trivial,u1_at_0"
    )
    assert len(lines) == 3  # header + 2 rows
    linear_row = lines[1].split(",")
    assert float(linear_row[6]) <= 1e-10  # eps = 0: solver matches exact


def test_sweep_golden_default_run(tmp_path):
    out = tmp_path / "sweep.csv"
    result = run_cli(
        "sweep", "--preset", "duffing", "--space", "al-single", "--out", str(out),
    )
    assert result.returncode == 0
    produced = out.read_text(encoding="utf-8").splitlines()
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert produced[0] == golden[0]
    assert len(produced) == len(golden) == 10  # header + 3x3 grid
    for got, want in zip(produced[1:], golden[1:]):
        got_fields = got.split(",")
        want_fields = want.split(",")
        assert got_fields[9] == want_fields[9]  # trivial flag
        numeric = list(range(9)) + [10]
        for idx in numeric:
            assert float(got_fields[idx]) == float(want_fields[idx])
    assert out.read_bytes() == GOLDEN.read_bytes()


@pytest.mark.parametrize(
    "flag, values, grid, field",
    [
        ("--A-grid", "0.5,-1", "A grid", "amplitude"),
        ("--A-grid", "1,inf", "A grid", "finite"),
        ("--eps-grid", "nan", "eps grid", "finite"),
    ],
)
def test_sweep_bad_grid_cell_is_config_error(flag, values, grid, field):
    result = run_cli("sweep", flag, values)
    assert result.returncode == 2
    assert grid in result.stderr
    assert field in result.stderr
    assert "Traceback" not in result.stderr


# A problem whose solve fails with exit 3: a format error must win over it.
SOLVE_FAILS = {
    "analyze": ("--preset", "duffing", "--eps", "-2", "--A", "1"),
    "audit": ("--preset", "duffing", "--eps", "-2", "--A", "1"),
    "sweep": ("--preset", "duffing", "--eps-grid", "-2", "--A-grid", "1"),
    "exact": ("--preset", "duffing", "--eps", "-2", "--A", "1"),
}


@pytest.mark.parametrize(
    "verb, fmt", [("analyze", "xml"), ("audit", "xml"), ("sweep", "md"), ("exact", "md")]
)
def test_format_is_checked_per_verb_before_the_solve(verb, fmt):
    result = run_cli(verb, *SOLVE_FAILS[verb], "--format", fmt)
    assert result.returncode == 2
    assert "format" in result.stderr
    assert repr(fmt) in result.stderr
    assert result.stdout == ""
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "args, code, message",
    [
        # the two-shape radical overflows: its row becomes null with a note
        (("audit", "--eps", "1e200"), 0, ""),
        # J grows like A^3 and overflows
        (("audit", "--space", "al-double", "--A", "1e120"), 3, "stationary_points[0].J"),
        (("analyze", "--A", "1e160"), 3, "A^2 overflows"),
        (("audit", "--A", "1e160"), 3, "A^2 overflows"),
        # the ODE route takes its time scale and unit coefficients from the
        # exact D, so neither A^2 nor c_3 A^2 has to be a double
        (("exact", "--A", "1e160"), 0, ""),
    ],
)
def test_overflow_is_a_domain_error_or_a_null(args, code, message):
    result = run_cli(*args)
    assert result.returncode == code
    assert message in result.stderr
    assert "Traceback" not in result.stderr
    assert "Infinity" not in result.stdout
    assert "NaN" not in result.stdout
    if args[0] == "exact":
        quad, ode = (row["period"] for row in json.loads(result.stdout)["results"])
        assert math.isfinite(quad) and abs(ode - quad) <= 1e-8 * quad
    elif code == 0:
        row = json.loads(result.stdout)["audit"]["freq_table"][2]
        assert row["source"] == "closed_form_double"
        assert row["omega"] is None
        assert row["note"].startswith("unavailable: ")


@pytest.mark.parametrize(
    "args, omega",
    [
        # B, J and dJ/dw are formed exactly, so none of them overflows
        (("audit", "--space", "al-double", "--A", "1e100"), 8.487523537560453e99),
        # the ray's forcing overflows, silently on floats, but the exact
        # quadratic's root does not
        (("audit", "--eps", "1e308"), 8.660254037844386e153),
    ],
    ids=["al-double-A-1e100", "al-single-eps-1e308"],
)
def test_overflow_inside_the_exact_model_is_a_finite_report(args, omega):
    result = run_cli(*args)
    assert result.returncode == 0
    assert result.stderr == ""
    assert "Infinity" not in result.stdout
    assert "NaN" not in result.stdout
    assert json.loads(result.stdout)["audit"]["selected_omega"] == omega


def _md_sections(text):
    """A Markdown report as {section title: its non-empty lines}."""
    sections, title = {}, None
    for line in text.splitlines():
        if line.startswith("## "):
            title = line[3:]
            sections[title] = []
        elif title is not None and line:
            sections[title].append(line)
    return sections


def _md_rows(lines):
    """The cells of a Markdown table's body rows."""
    rows = [line.strip("|").split("|") for line in lines if line.startswith("|")]
    return [[cell.strip() for cell in row] for row in rows[2:]]


def _md_bullets(lines):
    bullets = [line[2:] for line in lines if line.startswith("- ")]
    return dict(bullet.split(" = ", 1) for bullet in bullets if " = " in bullet)


def _g(value, digits=12):
    return "" if value is None else format(value, f".{digits}g")


def _md_points(points):
    return [
        [_g(p["omega"]), ", ".join(_g(b) for b in p["B"]), _g(p["J"]),
         _g(p["grad_norm"], 3), p["branch"]]
        for p in points
    ]


def _formats(*args):
    outputs = {fmt: run_cli(*args, "--format", fmt) for fmt in ("json", "csv", "md")}
    assert all(out.returncode == 0 for out in outputs.values())
    return (
        json.loads(outputs["json"].stdout),
        list(csv.reader(io.StringIO(outputs["csv"].stdout))),
        _md_sections(outputs["md"].stdout),
    )


def test_analyze_formats_carry_the_json_numbers():
    data, rows, md = _formats(
        "analyze", "--preset", "duffing", "--A", "1", "--eps", "1", "--space", "al-double"
    )
    points = data["stationary_points"]
    assert rows[0] == ["omega", "B", "J", "grad_norm", "branch"]
    assert [
        [float(r[0]), [float(b) for b in r[1].split()], float(r[2]), float(r[3]), r[4]]
        for r in rows[1:]
    ] == [[p["omega"], p["B"], p["J"], p["grad_norm"], p["branch"]] for p in points]
    bullets = _md_bullets(md["Problem"])
    for key in ("omega0_sq", "eps", "amplitude"):
        assert bullets[key] == _g(data["problem"][key])
    assert bullets["nonlinearity"] == "1 u^3"
    assert _md_rows(md["Stationary points"]) == _md_points(points)


def test_audit_formats_carry_the_json_numbers():
    data, rows, md = _formats(
        "audit", "--preset", "duffing", "--A", "1", "--eps", "1", "--space", "al-double"
    )
    audit = data["audit"]

    # CSV: 17 significant digits, so every number is the JSON's exactly
    assert rows[0] == ["section", "key", "value"]
    values = {(section, key): value for section, key, value in rows[1:]}
    number = lambda text: None if text == "" else float(text)  # noqa: E731
    assert number(values["bc", "u1_at_0"]) == audit["bc"]["u1_at_0"]
    assert number(values["bc", "du1_at_0"]) == audit["bc"]["du1_at_0"]
    assert number(values["audit", "amplitude_mismatch"]) == audit["amplitude_mismatch"]
    assert values["audit", "trivial"] == str(audit["trivial"]["flag"]).lower()
    for row in audit["freq_table"]:
        assert number(values["freq", row["source"]]) == row["omega"]
    assert [(k, v) for s, k, v in rows[1:] if s == "finding"] == [
        (f["code"], f["message"]) for f in audit["findings"]
    ]

    # Markdown: 12 significant digits, fewer where the column says so
    problem = _md_bullets(md["Problem"])
    for key, value in data["problem"].items():
        assert ast.literal_eval(problem[key]) == value
    assert _md_rows(md["Stationary points"]) == _md_points(data["stationary_points"])
    boundary = _md_bullets(md["Boundary and amplitude"])
    assert boundary["u1(0)"] == _g(audit["bc"]["u1_at_0"])
    assert boundary["u1'(0)"] == _g(audit["bc"]["du1_at_0"])
    assert boundary["amplitude mismatch u_app(0) - A"] == _g(audit["amplitude_mismatch"])
    assert f"(threshold {_g(audit['trivial']['threshold'], 3)})" in md[
        "Boundary and amplitude"
    ][-1]
    assert _md_rows(md["Frequency table"]) == [
        [r["source"], _g(r["omega"]), _g(r["rel_err_vs_exact"], 6), r["note"]]
        for r in audit["freq_table"]
    ]
    findings = md["Findings"]
    assert [line[4:] for line in findings if line.startswith("### ")] == [
        f["code"] for f in audit["findings"]
    ]
    shown = _md_bullets(findings)
    for finding in audit["findings"]:
        assert finding["message"] in findings
        for key, value in finding["data"].items():
            assert ast.literal_eval(shown[key]) == value


def test_exact_verb_agreement():
    result = run_cli("exact", "--preset", "duffing", "--A", "1", "--eps", "1")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    methods = {entry["method"]: entry for entry in payload["results"]}
    assert set(methods) == {"quadrature", "ode-event"}
    assert methods["quadrature"]["frequency"] == pytest.approx(
        methods["ode-event"]["frequency"], rel=1e-8
    )


def test_exact_non_oscillatory_is_domain_error():
    result = run_cli("exact", "--preset", "duffing", "--A", "1", "--eps", "-2")
    assert result.returncode == 3
    assert "domain error" in result.stderr


def test_exact_verb_at_a_tiny_amplitude():
    # the ODE route integrates x = u / A: its tolerances scale with A, and
    # neither V(A) nor the energy drift underflows
    result = run_cli("exact", "--preset", "duffing", "--A", "1e-200", "--eps", "1")
    assert result.returncode == 0, result.stderr
    assert "Warning" not in result.stderr
    quad, ode = (entry["period"] for entry in json.loads(result.stdout)["results"])
    assert abs(ode - quad) <= 1e-8 * quad


def test_exact_verb_at_a_huge_amplitude():
    # the ODE route integrates in tau = lam t, lam^2 = 2 V(1) of the unit
    # well, so its steps scale with the period and nothing overflows
    result = run_cli("exact", "--preset", "duffing", "--A", "1e100", "--eps", "1")
    assert result.returncode == 0, result.stderr
    rows = json.loads(result.stdout)["results"]
    assert [row["method"] for row in rows] == ["quadrature", "ode-event"]
    assert all(math.isfinite(value) for row in rows for value in row.values()
               if not isinstance(value, str))


def test_single_shape_closed_form_is_checked_only_without_a_fifth_harmonic():
    # cos - cos5/3 also meets c_5 of f(A cos theta), so the resonance balance
    # is its closed form only where c_5 = 0
    common = ("audit", "--eps", "0.7", "--A", "1.3", "--omega0sq", "2.3")
    quintic = json.loads(run_cli(*common, "--poly", "3:1,5:0.2").stdout)["audit"]
    assert "omega_rel_err_vs_closed_single" not in quintic["closed_form_residuals"]
    assert "CLOSED_FORM_MISMATCH" not in [f["code"] for f in quintic["findings"]]
    cubic = json.loads(run_cli(*common, "--poly", "3:1").stdout)["audit"]
    assert cubic["closed_form_residuals"]["omega_rel_err_vs_closed_single"] <= 1e-10


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        "[problem]\n"
        "preset = duffing\n"
        "eps = 1.0\n"
        "A = 2.0\n"
        "\n"
        "[space]\n"
        "preset = al-single\n"
        "\n"
        "[output]\n"
        "format = json\n",
        encoding="utf-8",
    )
    from_file = run_cli("analyze", "--config", str(config))
    assert from_file.returncode == 0
    payload = json.loads(from_file.stdout)
    assert payload["problem"]["amplitude"] == 2.0
    # flags win over the file
    overridden = run_cli("analyze", "--config", str(config), "--A", "1")
    assert json.loads(overridden.stdout)["problem"]["amplitude"] == 1.0


def test_config_file_custom_space(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        "[problem]\n"
        "preset = duffing\n"
        "\n"
        "[space]\n"
        "preset = custom\n"
        "shapes = 1:1,5:-0.3333333333333333 | 3:0.2,5:-0.14285714285714285\n"
        "\n"
        "[output]\n"
        "format = json\n",
        encoding="utf-8",
    )
    result = run_cli("analyze", "--config", str(config))
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["trial_space"]["name"] == "custom"
    assert len(payload["trial_space"]["shapes"]) == 2


def test_bad_bracket_is_config_error():
    result = run_cli("analyze", "--bracket", "oops")
    assert result.returncode == 2


@pytest.mark.parametrize(
    "args, code, message",
    [
        (("audit", "--eps", "nan"), 2, "finite"),
        (("audit", "--format", "xml"), 2, "format"),
        (("exact", "--preset", "duffing", "--eps", "-2"), 3, "does not dominate"),
        (("exact", "--preset", "duffing", "--eps", "-1"), 3, "V'(A) <= 0"),
        (("audit", "--poly", "3:-1,5:1", "--eps", "10", "--A", "2"), 3, "bracket"),
        # the float series algebra of the zero-amplitude ray stops at harmonic 64
        (("analyze", "--poly", "65:1"), 3, "harmonic 65"),
        (("audit", "--poly", "65:1"), 3, "harmonic 65"),
        (("sweep", "--poly", "65:1"), 3, "harmonic 65"),
        (("audit", "--space", "custom", "--shape", "1:1,65:-0.01"), 2, "harmonic 65"),
        # V(A) - V(u) = (A^2 - u^2) (u^2 - 1/2)^2 / 4 touches 0 at u^2 = 1/2
        (("exact", "--omega0sq", "0.625", "--poly", "3:-2,5:1.5"), 3, "does not dominate"),
    ],
    ids=["non-finite", "format", "no-well", "eps-minus-1", "no-bracket", "analyze-poly-65",
         "audit-poly-65", "sweep-poly-65", "shape-65", "touching-well"],
)
def test_every_error_exit_is_documented_and_has_no_traceback(args, code, message):
    result = run_cli(*args)
    assert result.returncode == code, result.stderr
    assert result.stderr.startswith(("config error: ", "numeric domain error: "))
    assert message in result.stderr
    assert "Traceback" not in result.stderr
