"""Command-line front end.

Verbs:

* ``analyze`` - stationary points of the functional for one problem/space;
* ``audit``   - the full consistency report (findings are data, not
  failures; ``--fail-on-findings`` opts into exit code 4);
* ``sweep``   - CSV over (eps, A) grids;
* ``exact``   - exact period/frequency from both oracle routes.

Problems and trial spaces come from an INI-style config file and/or flags;
flags win. Exit codes: 0 ok, 2 config error, 3 numeric domain error,
4 findings present (opt-in).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace

from .models import OscillatorProblem, Polynomial
from .action import (
    BracketError,
    SingularMatrixError,
    TrialSpace,
    preset_space,
    solve_stationary,
)
from .audit import (
    AuditReport,
    ClosedFormDomainError,
    NoStationaryPointError,
    full_audit,
)
from .oracle import (
    DivergenceError,
    NonOscillatoryError,
    QuadratureConvergenceError,
    exact_period_ode,
    exact_period_quadrature,
)

DOMAIN_ERRORS = (
    BracketError,
    SingularMatrixError,
    ClosedFormDomainError,
    NoStationaryPointError,
    NonOscillatoryError,
    DivergenceError,
    QuadratureConvergenceError,
)

DEFAULT_EPS_GRID = (0.1, 1.0, 10.0)
DEFAULT_A_GRID = (0.5, 1.0, 2.0)

SWEEP_COLUMNS = [
    "eps",
    "amplitude",
    "omega_solver",
    "omega_closed_single",
    "omega_closed_double",
    "omega_exact",
    "rel_err_solver",
    "rel_err_closed_single",
    "rel_err_closed_double",
    "trivial",
    "u1_at_0",
]


class ConfigError(ValueError):
    """Unusable configuration; the message names the offending field."""


@dataclass
class RunConfig:
    problem: OscillatorProblem
    space: TrialSpace
    bracket: tuple[float, float] | None
    grid_points: int | None
    rho: float | None
    fmt: str
    out: str | None
    fail_on_findings: bool
    cells: tuple[OscillatorProblem, ...]  # sweep cells, eps outer, in grid order


# -- parsing helpers ---------------------------------------------------------


def _parse_float(text, label):
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise ConfigError(f"{label}: expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{label}: expected a finite number, got {text!r}")
    return value


def _parse_poly(text, label="poly"):
    terms = {}
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            continue
        power, _, coeff = token.partition(":")
        if not _ or not power.strip() or not coeff.strip():
            raise ConfigError(f"{label}: term {token!r} is not POWER:COEFF")
        try:
            p = int(power)
        except ValueError:
            raise ConfigError(f"{label}: power {power!r} is not an integer") from None
        c = _parse_float(coeff, f"{label} coefficient of power {p}")
        terms[p] = terms.get(p, 0.0) + c
    try:
        return Polynomial(terms)
    except ValueError as err:
        raise ConfigError(f"{label}: {err}") from None


def _parse_shape(text, label="shape"):
    entries = {}
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            continue
        harmonic, _, coeff = token.partition(":")
        if not _ or not harmonic.strip() or not coeff.strip():
            raise ConfigError(f"{label}: term {token!r} is not HARMONIC:COEFF")
        try:
            k = int(harmonic)
        except ValueError:
            raise ConfigError(f"{label}: harmonic {harmonic!r} is not an integer") from None
        entries[k] = entries.get(k, 0.0) + _parse_float(coeff, f"{label} harmonic {k}")
    return entries


def _parse_bracket(text):
    lo, _, hi = str(text).partition(":")
    if not _:
        raise ConfigError(f"bracket: expected LO:HI, got {text!r}")
    return (_parse_float(lo, "bracket low"), _parse_float(hi, "bracket high"))


def _parse_grid(text, label):
    values = tuple(
        _parse_float(token, label) for token in str(text).split(",") if token.strip()
    )
    if not values:
        raise ConfigError(f"{label}: grid is empty")
    return values


def _sweep_cells(problem, eps_grid, a_grid):
    """The problem of every (eps, A) cell, eps outer; a bad value names its grid."""

    def cell(base, label, **change):
        try:
            return replace(base, **change)
        except ValueError as err:
            raise ConfigError(f"{label}: {err}") from None

    cells = []
    for eps in eps_grid:
        row = cell(problem, "eps grid", epsilon=eps)
        cells.extend(cell(row, "A grid", amplitude=amplitude) for amplitude in a_grid)
    return tuple(cells)


def _read_config_file(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    except configparser.Error as err:
        raise ConfigError(f"config file {path}: {err}") from None
    return parser


def _build_run_config(args) -> RunConfig:
    file_cfg = _read_config_file(args.config) if args.config else None

    def cfg_get(section, key, default=None):
        if file_cfg is not None and file_cfg.has_option(section, key):
            return file_cfg.get(section, key)
        return default

    # problem: flags win over file values; the standard cubic is the default
    preset = args.preset or cfg_get("problem", "preset")
    if preset is not None and preset != "duffing":
        raise ConfigError(f"problem preset: unknown preset {preset!r}")
    omega0_sq = args.omega0sq if args.omega0sq is not None else _parse_float(
        cfg_get("problem", "omega0_sq", 1.0), "omega0_sq"
    )
    eps = args.eps if args.eps is not None else _parse_float(
        cfg_get("problem", "eps", 1.0), "eps"
    )
    amplitude = args.A if args.A is not None else _parse_float(
        cfg_get("problem", "A", 1.0), "A"
    )
    poly_text = args.poly if args.poly is not None else cfg_get("problem", "poly")
    if preset == "duffing":
        omega0_sq = 1.0 if args.omega0sq is None else omega0_sq
        poly = Polynomial({3: 1.0}) if args.poly is None else _parse_poly(args.poly)
    else:
        poly = _parse_poly(poly_text) if poly_text is not None else Polynomial({3: 1.0})
    try:
        problem = OscillatorProblem(omega0_sq, eps, poly, amplitude)
    except ValueError as err:
        raise ConfigError(f"problem: {err}") from None

    # trial space
    space_name = args.space or cfg_get("space", "preset", "al-single")
    shape_texts = list(args.shape or [])
    if not shape_texts:
        file_shapes = cfg_get("space", "shapes")
        if file_shapes:
            shape_texts = [part for part in file_shapes.split("|") if part.strip()]
    if space_name == "custom":
        if not shape_texts:
            raise ConfigError("space: custom space requires at least one shape")
        try:
            space = TrialSpace(
                "custom", tuple(_parse_shape(text) for text in shape_texts)
            )
        except ValueError as err:
            raise ConfigError(f"space: {err}") from None
    else:
        try:
            space = preset_space(space_name)
        except ValueError as err:
            raise ConfigError(f"space: {err}") from None

    bracket_text = args.bracket or cfg_get("solver", "bracket")
    bracket = _parse_bracket(bracket_text) if bracket_text else None
    grid_text = args.grid_points or cfg_get("solver", "grid_points")
    grid_points = None
    if grid_text is not None:
        try:
            grid_points = int(grid_text)
        except ValueError:
            raise ConfigError(f"grid_points: expected an integer, got {grid_text!r}") from None

    rho_text = args.rho if args.rho is not None else cfg_get("audit", "rho")
    rho = _parse_float(rho_text, "rho") if rho_text is not None else None

    fmt = args.format or cfg_get("output", "format")
    out = args.out or cfg_get("output", "path")

    eps_grid = (
        _parse_grid(args.eps_grid, "eps grid")
        if args.eps_grid
        else (
            _parse_grid(cfg_get("sweep", "eps"), "eps grid")
            if cfg_get("sweep", "eps")
            else DEFAULT_EPS_GRID
        )
    )
    a_grid = (
        _parse_grid(args.a_grid, "A grid")
        if args.a_grid
        else (
            _parse_grid(cfg_get("sweep", "A"), "A grid")
            if cfg_get("sweep", "A")
            else DEFAULT_A_GRID
        )
    )

    return RunConfig(
        problem=problem,
        space=space,
        bracket=bracket,
        grid_points=grid_points,
        rho=rho,
        fmt=fmt,
        out=out,
        fail_on_findings=bool(args.fail_on_findings),
        cells=_sweep_cells(problem, eps_grid, a_grid),
    )


# -- rendering ---------------------------------------------------------------


def _fmt_num(x):
    return "" if x is None else format(float(x), ".17g")


def _problem_dict(problem):
    return {
        "omega0_sq": float(problem.omega0_sq),
        "eps": float(problem.epsilon),
        "amplitude": float(problem.amplitude),
        "poly": {
            str(p): float(c)
            for p, c in sorted(problem.nonlinearity.coefficients.items())
        },
    }


def _space_dict(space):
    return {
        "name": space.name,
        "shapes": [
            {str(k): float(v) for k, v in sorted(shape.items())}
            for shape in space.shapes
        ],
    }


def _points_list(points):
    return [
        {
            "omega": float(p.omega),
            "B": [float(b) for b in p.amplitudes],
            "J": float(p.action_value),
            "grad_norm": float(p.grad_norm),
            "branch": p.branch,
        }
        for p in points
    ]


def _analyze_dict(problem, space, points):
    return {
        "versions": {"schema": 1},
        "problem": _problem_dict(problem),
        "trial_space": _space_dict(space),
        "stationary_points": _points_list(points),
        "audit": None,
    }


def _points_markdown(points):
    lines = ["| omega | B | J | grad_norm | branch |", "| --- | --- | --- | --- | --- |"]
    for p in points:
        bs = ", ".join(format(float(b), ".12g") for b in p.amplitudes)
        lines.append(
            f"| {p.omega:.12g} | {bs} | {p.action_value:.12g} "
            f"| {p.grad_norm:.3g} | {p.branch} |"
        )
    return lines


def _render_analyze_md(problem, space, points):
    lines = ["# Stationary-point analysis", "", "## Problem", ""]
    lines.append(f"- omega0_sq = {problem.omega0_sq:.12g}")
    lines.append(f"- eps = {problem.epsilon:.12g}")
    lines.append(f"- amplitude = {problem.amplitude:.12g}")
    poly = ", ".join(
        f"{c:.12g} u^{p}"
        for p, c in sorted(problem.nonlinearity.coefficients.items())
    )
    lines.append(f"- nonlinearity = {poly or '0'}")
    lines.append(f"- trial space = {space.name}")
    lines += ["", "## Stationary points", ""]
    if points:
        lines += _points_markdown(points)
    else:
        lines.append("(none found in bracket)")
    return "\n".join(lines) + "\n"


def _render_analyze_csv(points):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["omega", "B", "J", "grad_norm", "branch"])
    for p in points:
        writer.writerow(
            [
                _fmt_num(p.omega),
                " ".join(_fmt_num(b) for b in p.amplitudes),
                _fmt_num(p.action_value),
                _fmt_num(p.grad_norm),
                p.branch,
            ]
        )
    return buffer.getvalue()


def _render_audit_md(report: AuditReport):
    data = report.to_dict()
    lines = ["# Consistency audit", "", "## Problem", ""]
    for key, value in data["problem"].items():
        lines.append(f"- {key} = {value}")
    lines.append(f"- trial space = {data['trial_space']['name']}")
    lines += ["", "## Stationary points", ""]
    lines += _points_markdown(report.points)
    lines += ["", "## Boundary and amplitude", ""]
    lines.append(f"- u1(0) = {report.bc_u1_at_0:.12g}")
    lines.append(f"- u1'(0) = {report.bc_du1_at_0:.12g}")
    lines.append(f"- amplitude mismatch u_app(0) - A = {report.amplitude_mismatch:.12g}")
    lines.append(
        f"- trivial correction: {str(report.trivial).lower()} "
        f"(threshold {report.triviality_threshold:.3g})"
    )
    lines += ["", "## Frequency table", ""]
    lines.append("| source | omega | rel_err_vs_exact | note |")
    lines.append("| --- | --- | --- | --- |")
    for row in report.freq_table:
        omega = "" if row.omega is None else f"{row.omega:.12g}"
        rel = "" if row.rel_err_vs_exact is None else f"{row.rel_err_vs_exact:.6g}"
        lines.append(f"| {row.source} | {omega} | {rel} | {row.note} |")
    lines += ["", "## Findings", ""]
    if not report.findings:
        lines.append("No findings.")
    for finding in report.findings:
        lines += [f"### {finding.code}", "", finding.message, ""]
        for key, value in sorted(finding.data.items()):
            lines.append(f"- {key} = {value}")
        lines.append("")
    return "\n".join(lines) + "\n"


def _render_audit_csv(report: AuditReport):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["section", "key", "value"])
    writer.writerow(["bc", "u1_at_0", _fmt_num(report.bc_u1_at_0)])
    writer.writerow(["bc", "du1_at_0", _fmt_num(report.bc_du1_at_0)])
    writer.writerow(["audit", "trivial", str(report.trivial).lower()])
    writer.writerow(["audit", "amplitude_mismatch", _fmt_num(report.amplitude_mismatch)])
    for row in report.freq_table:
        writer.writerow(["freq", row.source, _fmt_num(row.omega)])
    for finding in report.findings:
        writer.writerow(["finding", finding.code, finding.message])
    return buffer.getvalue()


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# -- verbs -------------------------------------------------------------------


def cmd_analyze(run: RunConfig) -> int:
    kwargs = {} if run.grid_points is None else {"grid_points": run.grid_points}
    points = solve_stationary(run.problem, run.space, run.bracket, **kwargs)
    fmt = run.fmt or "md"
    if fmt == "json":
        text = json.dumps(_analyze_dict(run.problem, run.space, points), indent=2) + "\n"
    elif fmt == "csv":
        text = _render_analyze_csv(points)
    elif fmt == "md":
        text = _render_analyze_md(run.problem, run.space, points)
    else:
        raise ConfigError(f"format: unknown format {run.fmt!r}")
    _emit(text, run.out)
    return 0


def cmd_audit(run: RunConfig) -> int:
    report = full_audit(
        run.problem,
        run.space,
        bracket=run.bracket,
        rho=run.rho,
        grid_points=run.grid_points,
    )
    fmt = run.fmt or "json"
    if fmt == "json":
        text = json.dumps(report.to_dict(), indent=2) + "\n"
    elif fmt == "md":
        text = _render_audit_md(report)
    elif fmt == "csv":
        text = _render_audit_csv(report)
    else:
        raise ConfigError(f"format: unknown format {run.fmt!r}")
    _emit(text, run.out)
    if run.fail_on_findings and report.findings:
        return 4
    return 0


def cmd_sweep(run: RunConfig) -> int:
    """One CSV row per (eps, A) cell, eps outer loop, in grid order."""
    fmt = run.fmt or "csv"
    if fmt != "csv":
        raise ConfigError("format: sweep output is CSV only")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for problem in run.cells:
        report = full_audit(
            problem,
            run.space,
            bracket=run.bracket,
            rho=run.rho,
            grid_points=run.grid_points,
        )
        table = {row.source: row for row in report.freq_table}
        writer.writerow(
            [
                _fmt_num(problem.epsilon),
                _fmt_num(problem.amplitude),
                _fmt_num(table["solver"].omega),
                _fmt_num(table["closed_form_single"].omega),
                _fmt_num(table["closed_form_double"].omega),
                _fmt_num(table["exact"].omega),
                _fmt_num(table["solver"].rel_err_vs_exact),
                _fmt_num(table["closed_form_single"].rel_err_vs_exact),
                _fmt_num(table["closed_form_double"].rel_err_vs_exact),
                str(report.trivial).lower(),
                _fmt_num(report.bc_u1_at_0),
            ]
        )
    _emit(buffer.getvalue(), run.out)
    return 0


def cmd_exact(run: RunConfig) -> int:
    results = [exact_period_quadrature(run.problem), exact_period_ode(run.problem)]
    payload = {
        "problem": _problem_dict(run.problem),
        "results": [
            {
                "method": r.method,
                "period": float(r.period),
                "frequency": float(r.frequency),
                "est_error": float(r.est_error),
            }
            for r in results
        ],
    }
    _emit(json.dumps(payload, indent=2) + "\n", run.out)
    return 0


# -- entry point -------------------------------------------------------------


def _make_parser():
    parser = argparse.ArgumentParser(
        prog="oscaudit",
        description=(
            "Stationary variational corrections for odd nonlinear oscillators "
            "and their consistency audit"
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("analyze", "audit", "sweep", "exact"):
        p = sub.add_parser(verb)
        p.add_argument("--config", help="INI-style config file")
        p.add_argument("--preset", help="problem preset (duffing)")
        p.add_argument("--A", type=float, default=None, help="initial amplitude")
        p.add_argument("--eps", type=float, default=None, help="nonlinearity strength")
        p.add_argument(
            "--omega0sq", type=float, default=None, help="linear stiffness omega0^2"
        )
        p.add_argument("--poly", default=None, help="nonlinearity, e.g. 3:1,5:0")
        p.add_argument(
            "--space",
            default=None,
            help="trial space: al-single | al-double | custom",
        )
        p.add_argument(
            "--shape",
            action="append",
            default=None,
            help="custom shape, e.g. 1:1,5:-0.3333 (repeatable)",
        )
        p.add_argument("--format", default=None, help="json | csv | md")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--bracket", default=None, help="frequency bracket LO:HI")
        p.add_argument("--grid-points", dest="grid_points", default=None)
        p.add_argument("--rho", default=None, help="override the combined strength")
        p.add_argument("--fail-on-findings", action="store_true")
        p.add_argument("--eps-grid", dest="eps_grid", default=None)
        p.add_argument("--A-grid", dest="a_grid", default=None)
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        run = _build_run_config(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    handler = {
        "analyze": cmd_analyze,
        "audit": cmd_audit,
        "sweep": cmd_sweep,
        "exact": cmd_exact,
    }[args.verb]
    try:
        return handler(run)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as err:
        print(f"numeric domain error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
