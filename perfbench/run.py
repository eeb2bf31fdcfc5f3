#!/usr/bin/env python3
"""oscaudit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is audit-mix, sweep-grid, oracle-wells, cli-cold, or ``all`` for each
in turn. Run from anywhere; the program is imported from the ``src`` next
to this directory, never from an installed copy.

With ``--trace 0`` the end-to-end metrics come from an untraced worker;
``--trace 1`` runs the same ops untraced and then traced and reports the
per-layer metrics. Every op's output is checked against independent
references (``checks.py``) outside the timed regions. Lines before the last
are for people (provenance, each metric with its unit, failures); the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The run exits 1 when a check fails and 2 when it cannot run.
Full results, including spans of traced runs, go to ``.perfbench_out/``.
See NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import Checker  # noqa: E402
from workloads import WORKLOADS, WHY, cells  # noqa: E402
from worker import scipy_integrate_import_s  # noqa: E402

#: Fresh workers timed for ``setup_s``; the last also runs the ops.
SETUP_SAMPLES = 3
#: Every run ends within this many seconds, or fails.
RUN_DEADLINE_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
    "oracle_max_ulp": "ulp",
    "oracle_cr_share": "share",
}

PER_LAYER_UNITS = {
    "action.solve_stationary_ms": "ms/op",
    "action.assemble_calls": "count/op",
    "action.assemble_self_ms": "ms/op",
    "action.d_omega_calls": "count/op",
    "action.d_omega_self_ms": "ms/op",
    "action.solve_B_calls": "count/op",
    "action.singular_errors": "count/op",
    "action.assemble_per_point": "count/point",
    "models.of_series_calls": "count/op",
    "models.of_series_self_ms": "ms/op",
    "hpm.order1_forcing_calls": "count/op",
    "fourier.product_calls": "count/op",
    "fourier.product_self_ms": "ms/op",
    "fourier.inner_product_calls": "count/op",
    "fourier.inner_product_self_ms": "ms/op",
    "oracle.quadrature_ms": "ms/call",
    "oracle.quadrature_levels": "count/call",
    "oracle.quadrature_nodes": "count/call",
    "oracle.ode_ms": "ms/call",
    "oracle.ode_nfev": "count/call",
    "oracle.errors": "count/op",
    "audit.full_audit_self_ms": "ms/op",
    "cli.import_s": "s",
    "cli.import_scipy_integrate_s": "s",
    "cli.main_self_ms": "ms/op",
    "trace.overhead_ratio": "ratio",
    "solver_max_ulp_vs_closed": "ulp",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def percentile(values, q):
    """Linear interpolation between closest ranks (q in [0, 100])."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload, seed, seconds, trace):
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "platform": platform.platform(), "git_commit": _git_commit(),
    }


class Run:
    """One workload run: workers, checks, metrics."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.out_dir = ROOT / ".perfbench_out"
        self.tag = f"{workload}-seed{seed}-trace{int(trace)}"
        src = str(ROOT / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))

    def _remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchmarkError(f"run exceeded {RUN_DEADLINE_S} s")
        return left

    def _worker(self, args, importtime=False, stderr=None):
        """Start a worker; return (process, seconds until it printed READY)."""
        command = [sys.executable] + (["-X", "importtime"] if importtime else [])
        command += [str(HERE / "worker.py"), *args]
        started = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=stderr,
                                text=True, env=self.env, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - started
            if line.strip() != "READY":
                out, _ = proc.communicate(timeout=self._remaining())
                raise BenchmarkError(f"worker failed to start: {line}{out}")
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        return proc, ready

    def _finish(self, proc):
        try:
            out, _ = proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchmarkError(f"worker did not finish within {RUN_DEADLINE_S} s") from None
        if proc.returncode != 0:
            raise BenchmarkError(f"worker exited with {proc.returncode}")
        return out

    def execute(self):
        self.out_dir.mkdir(exist_ok=True)
        setups = []
        if not self.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, ready = self._worker(["setup", self.workload])
                self._finish(proc)
                setups.append(ready)
        args = ["run", self.workload, str(self.seed), str(self.seconds),
                "1" if self.trace else "0", str(self.out_dir)]
        if not self.trace:
            proc, ready = self._worker(args)
            data = json.loads(self._finish(proc).splitlines()[-1])
            setups.append(ready)
            return self.evaluate(data, setups, "")
        # A traced worker runs under -X importtime; its stderr is that log.
        log_path = self.out_dir / f"{self.tag}.stderr"
        try:
            with open(log_path, "w", encoding="utf-8") as log:
                proc, _ = self._worker(args, importtime=True, stderr=log)
                data = json.loads(self._finish(proc).splitlines()[-1])
        except BenchmarkError:
            sys.stderr.write(log_path.read_text(encoding="utf-8")[-4000:])
            raise
        finally:
            importtime_log = log_path.read_text(encoding="utf-8")
            log_path.unlink()
        return self.evaluate(data, setups, importtime_log)

    def evaluate(self, data, setups, importtime_log):
        checker = Checker()
        records = data.get("untraced", []) + data["records"]
        failures = []
        completed = 0
        for index, record in enumerate(records):
            op = record["op"]
            problems = [record["error"]] if record["error"] else checker.check(op, record["out"])
            if problems:
                failures.append((index, op, problems))
            else:
                completed += cells(op)
        latencies = [r["ms"] for r in data["records"]]
        if self.workload == "sweep-grid":
            first = (data.get("untraced") or data["records"])[0]
            grid = _sweep_quality_cells(first.get("out"))
        else:
            grid = [tuple(cell) for cell in data["grid"]]
        quality, quality_problems, grid_table = checker.quality(grid)
        if not self.trace:
            metrics = {
                "setup_s": statistics.median(setups),
                "op_p50_ms": percentile(latencies, 50),
                "op_p90_ms": percentile(latencies, 90),
                "cells_per_s": completed / data["wall_s"],
                "peak_rss_mb": data["peak_rss_mb"],
                "oracle_max_ulp": quality.get("oracle_max_ulp"),
                "oracle_cr_share": quality.get("oracle_cr_share"),
            }
            units = END_TO_END_UNITS
            detail = {"setup_samples_s": setups, "grid_cells": grid_table}
        else:
            metrics = self.layer_metrics(data, importtime_log)
            metrics["solver_max_ulp_vs_closed"] = quality.get("solver_max_ulp_vs_closed")
            units = PER_LAYER_UNITS
            detail = {"traced_names": data["traced_names"], "stats": data["stats"],
                      "spans": data["spans"], "grid_cells": grid_table}
        attempted, failed = len(records), len(failures)
        correct = failed == 0 and not quality_problems
        return {
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics.get(name), "unit": unit}
                        for name, unit in units.items()},
            "samples": len(latencies),
            "failures": [{"op_index": i, "op": op, "problems": p} for i, op, p in failures]
            + ([{"quality": quality_problems}] if quality_problems else []),
            "detail": detail,
            "latencies_ms": latencies,
        }

    def layer_metrics(self, data, importtime_log):
        stats = data["stats"]
        records = data["records"]
        n_ops = len(records)

        def get(name, field):
            return stats.get(name, {}).get(field, 0)

        def per_op(name, field, scale=1.0):
            return get(name, field) * scale / n_ops

        def per_call(value, name):
            calls = get(name, "calls")
            return value / calls if calls else 0.0

        quad, ode = "oracle.exact_period_quadrature", "oracle.exact_period_ode"
        points = get("action.solve_stationary", "extra")
        if self.workload == "cli-cold":
            outs = [r["out"] for r in records if r.get("out")]
            import_s = statistics.fmean(o["import_s"] for o in outs)
            scipy_s = statistics.fmean(o["scipy_integrate_import_s"] for o in outs)
        else:
            import_s = data["import_s"]
            scipy_s = scipy_integrate_import_s(importtime_log)
        untraced = [r["ms"] for r in data["untraced"]]
        traced = [r["ms"] for r in records]
        return {
            "action.solve_stationary_ms": per_op("action.solve_stationary", "total_s", 1e3),
            "action.assemble_calls": per_op("action.assemble", "calls"),
            "action.assemble_self_ms": per_op("action.assemble", "self_s", 1e3),
            "action.d_omega_calls": per_op("action.d_omega", "calls"),
            "action.d_omega_self_ms": per_op("action.d_omega", "self_s", 1e3),
            "action.solve_B_calls": per_op("action.solve_B", "calls"),
            "action.singular_errors": per_op("action.solve_B", "errors"),
            "action.assemble_per_point":
                get("action.assemble", "calls") / points if points else 0.0,
            "models.of_series_calls": per_op("models.of_series", "calls"),
            "models.of_series_self_ms": per_op("models.of_series", "self_s", 1e3),
            "hpm.order1_forcing_calls": per_op("hpm.order1_forcing", "calls"),
            "fourier.product_calls": per_op("fourier.product", "calls"),
            "fourier.product_self_ms": per_op("fourier.product", "self_s", 1e3),
            "fourier.inner_product_calls": per_op("fourier.inner_product", "calls"),
            "fourier.inner_product_self_ms": per_op("fourier.inner_product", "self_s", 1e3),
            "oracle.quadrature_ms": per_call(get(quad, "total_s") * 1e3, quad),
            "oracle.quadrature_levels": per_call(get("oracle.leggauss", "calls"), quad),
            "oracle.quadrature_nodes": per_call(get("oracle.leggauss", "extra"), quad),
            "oracle.ode_ms": per_call(get(ode, "total_s") * 1e3, ode),
            "oracle.ode_nfev": per_call(get("oracle.solve_ivp", "extra"), ode),
            "oracle.errors": (get(quad, "errors") + get(ode, "errors")) / n_ops,
            "audit.full_audit_self_ms": per_op("audit.full_audit", "self_s", 1e3),
            "cli.import_s": import_s,
            "cli.import_scipy_integrate_s": scipy_s,
            "cli.main_self_ms": per_op("cli.main", "self_s", 1e3),
            "trace.overhead_ratio": percentile(traced, 50) / percentile(untraced, 50),
        }


def _sweep_quality_cells(out):
    """(eps, A, omega_solver, omega_exact) per cell of a sweep op's CSV."""
    try:
        grid = Checker.sweep_cells(out["csv"]) if out and out["code"] == 0 else {}
        return [(eps, a, float(c["omega_solver"]), float(c["omega_exact"]))
                for (eps, a), c in grid.items()]
    except ValueError:
        return []  # the op's own check reports the malformed CSV


def report(workload, seed, seconds, trace):
    """Run one workload, print its lines, return whether it was correct."""
    run = Run(workload, seed, seconds, trace)
    result = run.execute()
    prov = provenance(workload, seed, seconds, int(trace))
    print(f"workload {workload}: {WHY[workload]}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, metric in result["metrics"].items():
        value = "n/a" if metric["value"] is None else format(metric["value"], ".6g")
        print(f"  {name} = {value} {metric['unit']}")
    print(f"  samples = {result['samples']} ops timed")
    print(f"  failed_ratio = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    for failure in result["failures"][:10]:
        print("  FAILED " + json.dumps(failure)[:2000])
    (run.out_dir / f"{run.tag}.json").write_text(
        json.dumps({"provenance": prov, **result}, indent=1), encoding="utf-8")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return result["correct"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "oscaudit" / "__init__.py").is_file():
        print(f"perfbench: no oscaudit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    try:
        for workload in workloads:
            correct = report(workload, args.seed, args.seconds, bool(args.trace)) and correct
    except BenchmarkError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
