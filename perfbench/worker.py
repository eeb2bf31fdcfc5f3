"""Benchmark worker: every measurement starts in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; not meant to be run by hand.

    worker.py setup WORKLOAD
        import oscaudit.cli, run the warm-up op, print READY and exit
    worker.py run WORKLOAD SEED SECONDS TRACE OUTDIR
        as ``setup``, then run whole cycles of ops for SECONDS (with TRACE,
        SECONDS/2 untraced and SECONDS/2 traced on the same ops) and print
        one JSON line with every op's latency and output
    worker.py cli-traced OUTFILE ARG...
        one traced ``oscaudit`` CLI call; statistics go to OUTFILE
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import CUSTOM3, SWEEP_A, SWEEP_EPS, WARMUP, cycle

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 120


def _import_program():
    """Import oscaudit.cli from the checkout; return the seconds it took."""
    start = time.perf_counter()
    import oscaudit.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    import oscaudit

    src = (HERE.parent / "src").resolve()
    if src not in Path(oscaudit.__file__).resolve().parents:
        raise SystemExit(f"oscaudit was imported from {oscaudit.__file__}, not from {src}")
    return elapsed


def _space(name):
    import oscaudit

    if name == "al-single":
        return oscaudit.single_shape_space()
    if name == "al-double":
        return oscaudit.double_shape_space()
    return oscaudit.TrialSpace("custom", tuple(dict(shape) for shape in CUSTOM3))


def _problem(op):
    import oscaudit

    return oscaudit.OscillatorProblem(1.0, op["eps"], oscaudit.Polynomial(dict(op["poly"])),
                                      op["A"])


class Ops:
    """Turns an op into the call to time and its output into plain data."""

    def __init__(self, out_dir=None, tracer=None):
        self.out_dir = out_dir
        self.tracer = tracer

    def prepare(self, op, op_id):
        import oscaudit
        import oscaudit.cli

        kind = op["kind"]
        if kind == "audit":
            problem, space = _problem(op), _space(op["space"])
            return lambda: oscaudit.full_audit(problem, space)
        if kind == "oracle":
            problem = _problem(op)
            return lambda: (oscaudit.exact_period_quadrature(problem),
                            oscaudit.exact_period_ode(problem))
        if kind == "sweep":
            argv = ["sweep", "--preset", "duffing", "--space", "al-single",
                    "--eps-grid", ",".join(map(repr, op["eps"])),
                    "--A-grid", ",".join(map(repr, op["A"]))]

            def sweep():
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    code = oscaudit.cli.main(argv)
                return code, buffer.getvalue()

            return sweep
        if self.tracer is None:
            command = [sys.executable, "-m", "oscaudit", *op["argv"]]
        else:
            trace_file = self.out_dir / f"cli-{os.getpid()}-{op_id}.json"
            command = [sys.executable, "-X", "importtime", str(HERE / "worker.py"),
                       "cli-traced", str(trace_file), *op["argv"]]
        return lambda: subprocess.run(command, capture_output=True, text=True,
                                      timeout=CLI_TIMEOUT_S)

    def summarize(self, op, result, op_id):
        kind = op["kind"]
        if kind == "audit":
            exact = next(row.omega for row in result.freq_table if row.source == "exact")
            return {"omega": result.selected.omega, "exact": exact,
                    "codes": result.finding_codes(), "u1_at_0": result.bc_u1_at_0}
        if kind == "oracle":
            quad, ode = result
            return {"quad_frequency": quad.frequency, "quad_period": quad.period,
                    "ode_period": ode.period}
        if kind == "sweep":
            return {"code": result[0], "csv": result[1]}
        out = {"code": result.returncode, "stdout": result.stdout}
        if self.tracer is None:
            out["stderr"] = result.stderr
            return out
        trace_file = self.out_dir / f"cli-{os.getpid()}-{op_id}.json"
        child = json.loads(trace_file.read_text(encoding="utf-8"))
        trace_file.unlink()
        self.tracer.merge(child["stats"], child["spans"], op_id)
        out["import_s"] = child["import_s"]
        out["scipy_integrate_import_s"] = scipy_integrate_import_s(result.stderr)
        out["stderr"] = "\n".join(line for line in result.stderr.splitlines()
                                  if not line.startswith("import time:"))
        return out


def scipy_integrate_import_s(importtime_log):
    """Cumulative import time of scipy.integrate from ``-X importtime``."""
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 \
                and parts[2].strip() == "scipy.integrate":
            return int(parts[1]) / 1e6
    return 0.0


def loop(workload, seed, seconds, ops):
    """Run whole cycles until ``seconds`` have passed; one record per op."""
    records = []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        for op in cycle(workload, seed, index):
            op_id = len(records)
            call = ops.prepare(op, op_id)
            began = time.perf_counter()
            try:
                if ops.tracer is None:
                    result = call()
                else:
                    result = ops.tracer.run_op(op_id, call)
                error = None
            except Exception:  # an op that raises is counted as failed
                error = traceback.format_exc(limit=4)
            elapsed_ms = (time.perf_counter() - began) * 1e3
            record = {"op": op, "ms": elapsed_ms, "error": error}
            if error is None:
                record["out"] = ops.summarize(op, result, op_id)
            records.append(record)
        index += 1
    return records, time.perf_counter() - start


GRID = tuple((eps, amplitude) for eps in SWEEP_EPS for amplitude in SWEEP_A)


def audit_cells(cells):
    """Solver and oracle frequency of the single-shape Duffing audit on each
    grid cell: (eps, A, omega_solver, omega_exact)."""
    import oscaudit

    out = []
    for eps, amplitude in cells:
        report = oscaudit.full_audit(oscaudit.duffing(amplitude, eps),
                                     oscaudit.single_shape_space())
        exact = next(row.omega for row in report.freq_table if row.source == "exact")
        out.append((eps, amplitude, report.selected.omega, exact))
    return out


def oracle_cells():
    """The quadrature oracle on every fixed grid cell: (eps, A, None, omega_exact)."""
    import oscaudit

    return [(eps, amplitude, None,
             oscaudit.exact_period_quadrature(oscaudit.duffing(amplitude, eps)).frequency)
            for eps, amplitude in GRID]


def _peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _setup(workload):
    import_s = _import_program()
    if WARMUP[workload] is not None:
        ops = Ops()
        ops.prepare(WARMUP[workload], -1)()
    print("READY", flush=True)
    return import_s


def cmd_run(workload, seed, seconds, trace, out_dir):
    result = {"import_s": _setup(workload)}
    # sweep-grid's own op covers the fixed grid; the other workloads run the
    # oracle on it (cheap) in every run, and the solver (25 audits) only in
    # traced runs, where the solver's ulp metric is reported.
    if not trace:
        result["records"], result["wall_s"] = loop(workload, seed, seconds, Ops(out_dir))
        result["peak_rss_mb"] = _peak_rss_mb(workload)
        if workload != "sweep-grid":
            result["grid"] = oracle_cells()
    else:
        from tracing import Tracer

        result["untraced"], _ = loop(workload, seed, seconds / 2, Ops(out_dir))
        if workload != "sweep-grid":
            result["grid"] = audit_cells(GRID)
        tracer = Tracer()
        result["traced_names"] = tracer.install()
        result["records"], result["wall_s"] = loop(workload, seed, seconds / 2,
                                                   Ops(out_dir, tracer))
        result["stats"] = tracer.stats_dict()
        result["spans"] = tracer.spans
    print(json.dumps(result))


def cmd_cli_traced(trace_file, argv):
    from tracing import Tracer

    import_s = _import_program()
    import oscaudit.cli

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.run_op(0, lambda: oscaudit.cli.main(argv))
    finally:
        Path(trace_file).write_text(json.dumps({
            "import_s": import_s, "stats": tracer.stats_dict(), "spans": tracer.spans,
        }), encoding="utf-8")


def main(argv):
    command = argv[0]
    if command == "setup":
        _setup(argv[1])
        return 0
    if command == "run":
        workload, seed, seconds, trace, out_dir = argv[1:6]
        cmd_run(workload, int(seed), float(seconds), trace == "1", Path(out_dir))
        return 0
    if command == "cli-traced":
        return cmd_cli_traced(argv[1], argv[2:])
    raise SystemExit(f"unknown worker command {command!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
