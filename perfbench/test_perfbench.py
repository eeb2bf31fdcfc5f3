"""Self-tests of the benchmark: inputs, checker and tracing.

    python3 -m pytest perfbench -q

The tracing tests start ``run.py --trace 1`` on every workload, which
takes about a minute and a half on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import reference
from checks import EXPECTED_CODES, Checker
from workloads import WORKLOADS, cycle

HERE = Path(__file__).resolve().parent

ACTION = (
    "action.solve_stationary_ms", "action.assemble_calls", "action.assemble_self_ms",
    "action.d_omega_calls", "action.d_omega_self_ms", "action.solve_B_calls",
    "action.assemble_per_point",
)
ALGEBRA = (
    "models.of_series_calls", "models.of_series_self_ms", "hpm.order1_forcing_calls",
    "fourier.product_calls", "fourier.product_self_ms",
    "fourier.inner_product_calls", "fourier.inner_product_self_ms",
)
QUADRATURE = ("oracle.quadrature_ms", "oracle.quadrature_levels", "oracle.quadrature_nodes")
ODE = ("oracle.ode_ms", "oracle.ode_nfev")
EVERYWHERE = ("cli.import_s", "cli.import_scipy_integrate_s", "trace.overhead_ratio")

#: Per-layer metrics that must be nonzero on each workload.
FIRES = {
    "audit-mix": ACTION + ALGEBRA + QUADRATURE + ("audit.full_audit_self_ms",),
    "sweep-grid": ACTION + ALGEBRA + QUADRATURE + ("audit.full_audit_self_ms",
                                                    "cli.main_self_ms"),
    "oracle-wells": QUADRATURE + ODE,
    "cli-cold": ACTION + ALGEBRA + QUADRATURE + ODE + ("audit.full_audit_self_ms",
                                                       "cli.main_self_ms"),
}
#: Per-layer metrics that must be exactly zero on each workload.
SILENT = {
    "oracle-wells": ACTION + ALGEBRA + ("audit.full_audit_self_ms", "cli.main_self_ms"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    for index in range(3):
        assert cycle(workload, 11, index) == cycle(workload, 11, index)
    assert [cycle(workload, 11, i) for i in range(3)] != [
        cycle(workload, 12, i) for i in range(3)]


def _double_shape_output(op):
    """The output a correct program gives for an al-double Duffing audit."""
    omega = reference.stationary_frequency(
        1.0, op["eps"], op["poly"], op["A"], reference.PRESET_SHAPES["al-double"])
    return {
        "omega": float(omega),
        "exact": float(reference.duffing_frequency(op["eps"], op["A"])),
        "codes": sorted(EXPECTED_CODES["al-double"]),
        "u1_at_0": float(reference.paper_u1_at_0(op["eps"], op["A"], omega)),
    }


def test_checker_rejects_perturbed_audits():
    op = {"kind": "audit", "space": "al-double", "poly": [[3, 1.0]], "eps": 1.0, "A": 1.0}
    checker = Checker()
    good = _double_shape_output(op)
    assert checker.check(op, good) == []
    assert checker.check(op, {**good, "omega": good["omega"] * (1 + 1e-9)})
    assert checker.check(op, {**good, "exact": good["exact"] * (1 + 1e-12)})
    assert checker.check(op, {**good, "codes": ["TRIVIAL_CORRECTION", "FREQ_ACCURACY"]})
    assert checker.check(op, {**good, "u1_at_0": -good["u1_at_0"]})


def test_checker_rejects_wrong_exit_code():
    ops = [op for op in cycle("cli-cold", 1, 0) if op["expect"] != 0]
    assert sorted(op["expect"] for op in ops) == [2, 3]
    checker = Checker()
    for op in ops:
        assert checker.check(op, {"code": op["expect"], "stdout": "", "stderr": ""}) == []
        for wrong in (0, 1, 4, 5 - op["expect"]):
            assert checker.check(op, {"code": wrong, "stdout": "", "stderr": ""})


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_fire(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    for name in FIRES[workload] + EVERYWHERE:
        assert values[name] > 0, name
    for name in SILENT.get(workload, ()):
        assert values[name] == 0, name
    if workload == "audit-mix":
        saved = json.loads((HERE.parent / ".perfbench_out"
                            / "audit-mix-seed3-trace1.json").read_text(encoding="utf-8"))
        stats = saved["detail"]["stats"]
        share = stats["action.solve_stationary"]["total_s"] / stats["op"]["total_s"]
        assert share > 0.5, share
