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
from collections.abc import Callable
from functools import partial

from .fourier import HarmonicRangeError
from .models import OscillatorProblem, Polynomial
from .action import (
    BracketError,
    SingularMatrixError,
    TrialSpace,
    preset_space,
    solve_stationary,
)
from .audit import (
    ClosedFormDomainError,
    NonFiniteValueError,
    NoStationaryPointError,
    check_finite,
    full_audit,
    report_dict,
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
    NonFiniteValueError,
    NonOscillatoryError,
    DivergenceError,
    QuadratureConvergenceError,
    HarmonicRangeError,
    OverflowError,
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
    render: Callable  # the verb's renderer for the chosen format, from RENDERERS
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


def _parse_pairs(text, label, key_name, coeff_label):
    """``KEY:COEFF,...`` as an int -> summed float map (poly powers, shape harmonics)."""
    pairs = {}
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            continue
        key, sep, coeff = token.partition(":")
        if not sep or not key.strip() or not coeff.strip():
            raise ConfigError(f"{label}: term {token!r} is not {key_name.upper()}:COEFF")
        try:
            k = int(key)
        except ValueError:
            raise ConfigError(f"{label}: {key_name} {key!r} is not an integer") from None
        pairs[k] = pairs.get(k, 0.0) + _parse_float(coeff, f"{label} {coeff_label} {k}")
    return pairs


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

    def setting(flag, section, key, parse=str, default=None):
        """The flag, else the file's [section] key, else the default.

        An empty value counts as unset; text is parsed, a typed flag is not.
        ``section`` None ignores the file.
        """
        value = flag
        if value is None or value == "":
            if file_cfg is None or section is None:
                return default
            value = file_cfg.get(section, key, fallback="")
            if value == "":
                return default
        return parse(value) if isinstance(value, str) else value

    # problem: the duffing preset fixes omega0_sq and f, which only flags override
    preset = setting(args.preset, "problem", "preset")
    if preset is not None and preset != "duffing":
        raise ConfigError(f"problem preset: unknown preset {preset!r}")
    stiffness = None if preset == "duffing" else "problem"
    omega0_sq = setting(
        args.omega0sq, stiffness, "omega0_sq", partial(_parse_float, label="omega0_sq"), 1.0
    )
    eps = setting(args.eps, "problem", "eps", partial(_parse_float, label="eps"), 1.0)
    amplitude = setting(args.A, "problem", "A", partial(_parse_float, label="A"), 1.0)
    poly_terms = partial(
        _parse_pairs, label="poly", key_name="power", coeff_label="coefficient of power"
    )
    terms = setting(args.poly, stiffness, "poly", poly_terms, {3: 1.0})
    try:
        problem = OscillatorProblem(omega0_sq, eps, Polynomial(terms), amplitude)
    except ValueError as err:
        raise ConfigError(f"problem: {err}") from None

    # trial space
    space_name = setting(args.space, "space", "preset", default="al-single")
    shape_texts = setting(args.shape, "space", "shapes", lambda text: text.split("|"), [])
    shape_texts = [text for text in shape_texts if text.strip()]
    if space_name == "custom" and not shape_texts:
        raise ConfigError("space: custom space requires at least one shape")
    try:
        if space_name == "custom":
            shapes = (_parse_pairs(t, "shape", "harmonic", "harmonic") for t in shape_texts)
            space = TrialSpace("custom", tuple(shapes))
        else:
            space = preset_space(space_name)
    except ValueError as err:
        raise ConfigError(f"space: {err}") from None

    fmt = setting(args.format, "output", "format", default=DEFAULT_FORMATS[args.verb])
    render = RENDERERS.get((args.verb, fmt))
    if render is None:
        allowed = " | ".join(f for verb, f in RENDERERS if verb == args.verb)
        raise ConfigError(f"format: {args.verb} does not write {fmt!r} (use {allowed})")

    eps_grid = setting(
        args.eps_grid, "sweep", "eps", partial(_parse_grid, label="eps grid"),
        DEFAULT_EPS_GRID,
    )
    a_grid = setting(
        args.a_grid, "sweep", "A", partial(_parse_grid, label="A grid"), DEFAULT_A_GRID
    )
    return RunConfig(
        problem=problem,
        space=space,
        bracket=setting(args.bracket, "solver", "bracket", _parse_bracket),
        render=render,
        out=setting(args.out, "output", "path"),
        fail_on_findings=bool(args.fail_on_findings),
        cells=_sweep_cells(problem, eps_grid, a_grid),
    )


# -- rendering ---------------------------------------------------------------
#
# Every renderer takes the plain-type report built by ``audit.report_dict``
# (a list of them for ``sweep``), so all formats carry the same numbers.


def _fmt_num(x):
    return "" if x is None else format(x, ".17g")


def _csv_text(rows):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _render_json(data):
    return json.dumps(data, indent=2, allow_nan=False) + "\n"


def _points_markdown(points):
    lines = ["| omega | B | J | grad_norm | branch |", "| --- | --- | --- | --- | --- |"]
    for p in points:
        bs = ", ".join(format(b, ".12g") for b in p["B"])
        lines.append(
            f"| {p['omega']:.12g} | {bs} | {p['J']:.12g} "
            f"| {p['grad_norm']:.3g} | {p['branch']} |"
        )
    return lines


def _render_analyze_md(data):
    problem = data["problem"]
    lines = ["# Stationary-point analysis", "", "## Problem", ""]
    for key in ("omega0_sq", "eps", "amplitude"):
        lines.append(f"- {key} = {problem[key]:.12g}")
    poly = ", ".join(f"{c:.12g} u^{p}" for p, c in problem["poly"].items())
    lines.append(f"- nonlinearity = {poly or '0'}")
    lines.append(f"- trial space = {data['trial_space']['name']}")
    lines += ["", "## Stationary points", ""]
    if data["stationary_points"]:
        lines += _points_markdown(data["stationary_points"])
    else:
        lines.append("(none found in bracket)")
    return "\n".join(lines) + "\n"


def _render_analyze_csv(data):
    rows = [["omega", "B", "J", "grad_norm", "branch"]]
    for p in data["stationary_points"]:
        rows.append(
            [
                _fmt_num(p["omega"]),
                " ".join(_fmt_num(b) for b in p["B"]),
                _fmt_num(p["J"]),
                _fmt_num(p["grad_norm"]),
                p["branch"],
            ]
        )
    return _csv_text(rows)


def _render_audit_md(data):
    audit = data["audit"]
    lines = ["# Consistency audit", "", "## Problem", ""]
    for key, value in data["problem"].items():
        lines.append(f"- {key} = {value}")
    lines.append(f"- trial space = {data['trial_space']['name']}")
    lines += ["", "## Stationary points", ""]
    lines += _points_markdown(data["stationary_points"])
    lines += ["", "## Boundary and amplitude", ""]
    lines.append(f"- u1(0) = {audit['bc']['u1_at_0']:.12g}")
    lines.append(f"- u1'(0) = {audit['bc']['du1_at_0']:.12g}")
    lines.append(f"- amplitude mismatch u_app(0) - A = {audit['amplitude_mismatch']:.12g}")
    lines.append(
        f"- trivial correction: {str(audit['trivial']['flag']).lower()} "
        f"(threshold {audit['trivial']['threshold']:.3g})"
    )
    lines += ["", "## Frequency table", ""]
    lines.append("| source | omega | rel_err_vs_exact | note |")
    lines.append("| --- | --- | --- | --- |")
    for row in audit["freq_table"]:
        omega = "" if row["omega"] is None else f"{row['omega']:.12g}"
        rel = "" if row["rel_err_vs_exact"] is None else f"{row['rel_err_vs_exact']:.6g}"
        lines.append(f"| {row['source']} | {omega} | {rel} | {row['note']} |")
    lines += ["", "## Findings", ""]
    if not audit["findings"]:
        lines.append("No findings.")
    for finding in audit["findings"]:
        lines += [f"### {finding['code']}", "", finding["message"], ""]
        for key, value in sorted(finding["data"].items()):
            lines.append(f"- {key} = {value}")
        lines.append("")
    return "\n".join(lines) + "\n"


def _render_audit_csv(data):
    audit = data["audit"]
    rows = [
        ["section", "key", "value"],
        ["bc", "u1_at_0", _fmt_num(audit["bc"]["u1_at_0"])],
        ["bc", "du1_at_0", _fmt_num(audit["bc"]["du1_at_0"])],
        ["audit", "trivial", str(audit["trivial"]["flag"]).lower()],
        ["audit", "amplitude_mismatch", _fmt_num(audit["amplitude_mismatch"])],
    ]
    rows += [["freq", row["source"], _fmt_num(row["omega"])] for row in audit["freq_table"]]
    rows += [["finding", f["code"], f["message"]] for f in audit["findings"]]
    return _csv_text(rows)


def _sweep_row(data):
    audit = data["audit"]
    table = {row["source"]: row for row in audit["freq_table"]}
    sources = ("solver", "closed_form_single", "closed_form_double")
    return (
        [_fmt_num(data["problem"]["eps"]), _fmt_num(data["problem"]["amplitude"])]
        + [_fmt_num(table[source]["omega"]) for source in sources + ("exact",)]
        + [_fmt_num(table[source]["rel_err_vs_exact"]) for source in sources]
        + [str(audit["trivial"]["flag"]).lower(), _fmt_num(audit["bc"]["u1_at_0"])]
    )


def _render_sweep_csv(cells):
    """One row per (eps, A) cell, eps outer loop, in grid order."""
    return _csv_text([SWEEP_COLUMNS] + [_sweep_row(data) for data in cells])


DEFAULT_FORMATS = {"analyze": "md", "audit": "json", "sweep": "csv", "exact": "json"}

#: (verb, format) -> renderer; the only place a format is chosen.
RENDERERS = {
    ("analyze", "json"): _render_json,
    ("analyze", "md"): _render_analyze_md,
    ("analyze", "csv"): _render_analyze_csv,
    ("audit", "json"): _render_json,
    ("audit", "md"): _render_audit_md,
    ("audit", "csv"): _render_audit_csv,
    ("sweep", "csv"): _render_sweep_csv,
    ("exact", "json"): _render_json,
}


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# -- verbs -------------------------------------------------------------------


def cmd_analyze(run: RunConfig) -> int:
    points = solve_stationary(run.problem, run.space, run.bracket)
    _emit(run.render(report_dict(run.problem, run.space, points)), run.out)
    return 0


def cmd_audit(run: RunConfig) -> int:
    report = full_audit(run.problem, run.space, bracket=run.bracket)
    _emit(run.render(report.to_dict()), run.out)
    if run.fail_on_findings and report.findings:
        return 4
    return 0


def cmd_sweep(run: RunConfig) -> int:
    cells = [
        full_audit(problem, run.space, bracket=run.bracket).to_dict()
        for problem in run.cells
    ]
    _emit(run.render(cells), run.out)
    return 0


def cmd_exact(run: RunConfig) -> int:
    results = [exact_period_quadrature(run.problem), exact_period_ode(run.problem)]
    data = {
        "problem": report_dict(run.problem, run.space, [])["problem"],
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
    _emit(run.render(check_finite(data)), run.out)
    return 0


VERBS = {"analyze": cmd_analyze, "audit": cmd_audit, "sweep": cmd_sweep, "exact": cmd_exact}

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
    for verb in VERBS:
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
    try:
        return VERBS[args.verb](run)
    except DOMAIN_ERRORS as err:
        print(f"numeric domain error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
