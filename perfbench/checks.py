"""Output checks for every benchmark op, against ``reference``.

Each tolerance is one the program or its tests already state:

* ``QUAD_REL_TOL`` (1e-13): the quadrature oracle's convergence tolerance;
* ``CLOSED_FORM_TOL`` (1e-10): closed-form reproduction in the acceptance
  criteria 1 and 4;
* ``ODE_AGREEMENT_TOL`` (1e-8): quadrature against ODE, criterion 7;
* ``BC_SCALE`` (1e-10): the audit's boundary-violation threshold, times A.

Values printed with fewer digits (the Markdown reports use 12) are also
allowed half a unit in their last printed digit.
"""

from __future__ import annotations

import csv
import io
import json
import math

import reference
from workloads import CUBIC, CUSTOM3, SWEEP_A, SWEEP_EPS

QUAD_REL_TOL = 1e-13
CLOSED_FORM_TOL = 1e-10
ODE_AGREEMENT_TOL = 1e-8
BC_SCALE = 1e-10
MD_DIGITS = 12

#: Finding codes the paper predicts for the cubic oscillator per space.
EXPECTED_CODES = {
    "al-single": {"TRIVIAL_CORRECTION", "FREQ_ACCURACY"},
    "al-double": {"BC_VIOLATION", "AMPLITUDE_MISMATCH", "FREQ_ACCURACY"},
}

#: The sweep CSV columns, in the order the README documents.
SWEEP_COLUMNS = [
    "eps", "amplitude", "omega_solver", "omega_closed_single",
    "omega_closed_double", "omega_exact", "rel_err_solver",
    "rel_err_closed_single", "rel_err_closed_double", "trivial", "u1_at_0",
]


def _shapes(space):
    return CUSTOM3 if space == "custom3" else reference.PRESET_SHAPES[space]


class Checker:
    """Checks op outputs; caches each reference by its problem."""

    def __init__(self):
        self._cache = {}

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def exact(self, eps, poly, amplitude):
        poly = tuple(tuple(t) for t in poly)
        return self._memo(("exact", eps, poly, amplitude),
                          lambda: reference.exact_frequency(1.0, eps, poly, amplitude))

    def stationary(self, eps, poly, amplitude, space):
        poly = tuple(tuple(t) for t in poly)
        return self._memo(
            ("stationary", eps, poly, amplitude, space),
            lambda: reference.stationary_frequency(1.0, eps, poly, amplitude, _shapes(space)),
        )

    # -- dispatch -----------------------------------------------------------

    def check(self, op, out):
        """Failure messages for one op's output; empty when it is correct."""
        kind = op["kind"]
        if kind == "audit":
            return self._audit(op, out["omega"], out["exact"], out["codes"], out["u1_at_0"])
        if kind == "sweep":
            return self._sweep(op, out)
        if kind == "oracle":
            return self._oracle(op, out["quad_frequency"], out["quad_period"],
                                out["ode_period"])
        return self._cli(op, out)

    # -- shared -------------------------------------------------------------

    @staticmethod
    def _close(label, value, ref, tol, digits=None):
        if value is None or not math.isfinite(value):
            return [f"{label}: got {value!r}"]
        allowed = tol * abs(float(ref))
        if digits is not None and ref != 0:
            allowed += 0.5 * 10.0 ** (math.floor(math.log10(abs(float(ref)))) - digits + 1)
        error = reference.rel_error(value, ref) * abs(float(ref))
        if error > allowed:
            return [f"{label}: {value!r} vs reference {float(ref)!r} "
                    f"(error {error:.3g}, allowed {allowed:.3g})"]
        return []

    def _audit(self, op, omega, exact, codes, u1_at_0, digits=None):
        eps, amplitude, space = op["eps"], op["A"], op["space"]
        poly = op.get("poly", CUBIC)
        ref_omega = self.stationary(eps, poly, amplitude, space)
        fails = self._close("exact frequency", exact, self.exact(eps, poly, amplitude),
                            QUAD_REL_TOL, digits)
        fails += self._close("solver frequency", omega, ref_omega, CLOSED_FORM_TOL, digits)
        codes = set(codes)
        if space == "al-single" and ("TRIVIAL_CORRECTION" not in codes
                                     or "BC_VIOLATION" in codes):
            fails.append(f"finding codes {sorted(codes)}: the single-shape "
                         "correction must be trivial and satisfy u1(0) = 0")
        duffing = reference.is_duffing(1.0, poly)
        if duffing and space in EXPECTED_CODES and codes != EXPECTED_CODES[space]:
            fails.append(f"finding codes {sorted(codes)} != "
                         f"{sorted(EXPECTED_CODES[space])}")
        if duffing and space == "al-double":
            fails += self._close("u1(0)", u1_at_0,
                                 reference.paper_u1_at_0(eps, amplitude, ref_omega),
                                 CLOSED_FORM_TOL, digits)
        return fails

    # -- in-process ops -----------------------------------------------------

    def _oracle(self, op, frequency, quad_period, ode_period):
        fails = self._close("quadrature frequency", frequency,
                            self.exact(op["eps"], op["poly"], op["A"]), QUAD_REL_TOL)
        if abs(ode_period - quad_period) > ODE_AGREEMENT_TOL * quad_period:
            fails.append(f"ODE period {ode_period!r} vs quadrature {quad_period!r}")
        return fails

    @staticmethod
    def sweep_cells(text):
        """Rows of a sweep CSV keyed by (eps, A); raises ValueError if malformed."""
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != SWEEP_COLUMNS:
            raise ValueError(f"sweep CSV header {rows[:1]!r}")
        cells = {}
        for row in rows[1:]:
            if len(row) != len(SWEEP_COLUMNS):
                raise ValueError(f"sweep CSV row {row!r}")
            cell = dict(zip(SWEEP_COLUMNS, row))
            key = (float(cell["eps"]), float(cell["amplitude"]))
            if key in cells:
                raise ValueError(f"sweep CSV repeats cell {key}")
            cells[key] = cell
        return cells

    def _sweep(self, op, out):
        if out["code"] != 0:
            return [f"sweep exited with {out['code']}"]
        try:
            return self._sweep_cells_match(op, self.sweep_cells(out["csv"]))
        except ValueError as err:
            return [f"unparseable sweep CSV ({err})"]

    def _sweep_cells_match(self, op, cells):
        expected = {(e, a) for e in op["eps"] for a in op["A"]}
        if set(cells) != expected:
            return [f"sweep cells {sorted(cells)} != {sorted(expected)}"]
        fails = []
        for (eps, amplitude), cell in sorted(cells.items()):
            where = f"cell eps={eps} A={amplitude}"
            single = reference.resonance_frequency(eps, amplitude)
            fails += self._close(f"{where} omega_exact", float(cell["omega_exact"]),
                                 self.exact(eps, CUBIC, amplitude), QUAD_REL_TOL)
            fails += self._close(f"{where} omega_solver", float(cell["omega_solver"]),
                                 single, CLOSED_FORM_TOL)
            fails += self._close(f"{where} omega_closed_single",
                                 float(cell["omega_closed_single"]), single, CLOSED_FORM_TOL)
            fails += self._close(f"{where} omega_closed_double",
                                 float(cell["omega_closed_double"]),
                                 reference.two_shape_frequency(eps, amplitude),
                                 CLOSED_FORM_TOL)
            if cell["trivial"] != "true":
                fails.append(f"{where}: trivial is {cell['trivial']!r}")
            if abs(float(cell["u1_at_0"])) > BC_SCALE * amplitude:
                fails.append(f"{where}: u1_at_0 is {cell['u1_at_0']}")
        return fails

    # -- CLI processes ------------------------------------------------------

    def _cli(self, op, out):
        if out["code"] != op["expect"]:
            return [f"{' '.join(op['argv'])}: exit code {out['code']}, "
                    f"expected {op['expect']}"]
        if op["expect"] != 0:
            return []
        try:
            if op["verb"] == "exact":
                results = json.loads(out["stdout"])["results"]
                quad = next(r for r in results if r["method"] == "quadrature")
                ode = next(r for r in results if r["method"] == "ode-event")
                return self._oracle({**op, "poly": CUBIC}, quad["frequency"],
                                    quad["period"], ode["period"])
            if op["verb"] == "analyze":
                points = json.loads(out["stdout"])["stationary_points"]
                omega = next(p["omega"] for p in points
                             if p["branch"] == "continued-from-linear")
                return self._close("analyze frequency", omega,
                                   self.stationary(op["eps"], CUBIC, op["A"], op["space"]),
                                   CLOSED_FORM_TOL)
            parse = {"json": _audit_json, "csv": _audit_csv, "md": _audit_md}[op["format"]]
            values = parse(out["stdout"])
        except (ValueError, KeyError, StopIteration, IndexError, TypeError) as err:
            return [f"{' '.join(op['argv'])}: unparseable output ({err!r})"]
        digits = MD_DIGITS if op["format"] == "md" else None
        return self._audit(op, *values, digits=digits)

    # -- quality of the oracle and the solver on the fixed grid ---------------

    def quality(self, cells):
        """Metrics, failures and per-cell ulps on the 25 fixed grid cells.

        ``cells`` holds (eps, A, omega_solver, omega_exact) for the
        single-shape Duffing audit at every cell of SWEEP_EPS x SWEEP_A;
        either frequency may be None when it was not measured.
        """
        expected = {(e, a) for e in SWEEP_EPS for a in SWEEP_A}
        if {(e, a) for e, a, _, _ in cells} != expected or len(cells) != len(expected):
            return {}, ["quality cells do not cover the fixed grid"], []
        fails, table = [], []
        for eps, amplitude, solver, exact in sorted(cells):
            where = f"grid cell eps={eps} A={amplitude}"
            row = {"eps": eps, "A": amplitude}
            if exact is not None:
                exact_ref = self.exact(eps, CUBIC, amplitude)
                fails += self._close(f"{where} oracle", exact, exact_ref, QUAD_REL_TOL)
                row["oracle_ulp"] = reference.ulp_error(exact, exact_ref)
            if solver is not None:
                closed_ref = reference.resonance_frequency(eps, amplitude)
                fails += self._close(f"{where} solver", solver, closed_ref, CLOSED_FORM_TOL)
                row["solver_ulp"] = reference.ulp_error(solver, closed_ref)
            table.append(row)
        metrics = {}
        if all("oracle_ulp" in row for row in table):
            oracle = [abs(row["oracle_ulp"]) for row in table]
            metrics["oracle_max_ulp"] = max(oracle)
            metrics["oracle_cr_share"] = sum(u <= 0.5 for u in oracle) / len(oracle)
        if all("solver_ulp" in row for row in table):
            metrics["solver_max_ulp_vs_closed"] = max(abs(row["solver_ulp"]) for row in table)
        return metrics, fails, table


def _audit_json(text):
    data = json.loads(text)["audit"]
    exact = next(row["omega"] for row in data["freq_table"] if row["source"] == "exact")
    codes = [finding["code"] for finding in data["findings"]]
    return data["selected_omega"], exact, codes, data["bc"]["u1_at_0"]


def _audit_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["section", "key", "value"]:
        raise ValueError(f"audit CSV header {rows[:1]!r}")
    table = {(row[0], row[1]): row[2] for row in rows[1:] if row[0] != "finding"}
    codes = [row[1] for row in rows[1:] if row[0] == "finding"]
    return (float(table[("freq", "solver")]), float(table[("freq", "exact")]), codes,
            float(table[("bc", "u1_at_0")]))


def _audit_md(text):
    lines = text.splitlines()
    if not lines or lines[0] != "# Consistency audit":
        raise ValueError(f"Markdown title {lines[:1]!r}")
    freq = {}
    u1_at_0 = None
    for line in lines:
        cols = [c.strip() for c in line.strip("|").split("|")]
        if line.startswith("| ") and len(cols) == 4 and cols[0] in ("solver", "exact"):
            freq[cols[0]] = float(cols[1])
        if line.startswith("- u1(0) = "):
            u1_at_0 = float(line.split("=", 1)[1])
    codes = [line[4:].strip() for line in lines if line.startswith("### ")]
    return freq["solver"], freq["exact"], codes, u1_at_0
