"""Per-layer tracing of the oscaudit modules, installed from outside.

The tracer wraps the public functions of each module of the program and
the few methods and third-party calls the per-layer metrics need. A
wrapper is installed on every binding a caller uses: the defining module,
every ``oscaudit`` module that imported the function by name, and the
package itself; methods are replaced on their class. A target that cannot
be found raises ``TraceTargetError``, so a rename fails loudly instead of
reporting zeros.

Every call is counted, with its inclusive time, its self time (inclusive
minus the time of wrapped calls made inside it) and the exceptions it
raised. Calls of the coarse layers in ``SPAN_NAMES`` are also kept as
spans: name, start, end, the nearest enclosing kept span and the op id.
The algebra runs hundreds of thousands of calls per op, so those are
aggregated rather than kept one by one. Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = ("fourier", "models", "hpm", "action", "oracle", "audit", "cli")

#: (module, class, method, traced name)
METHODS = (
    ("fourier", "TrigSeries", "_product", "fourier.product"),
    ("fourier", "TrigSeries", "inner_product", "fourier.inner_product"),
    ("models", "Polynomial", "of_series", "models.of_series"),
)

#: Third-party functions as bound in the module that calls them.
EXTERNAL = (("oracle", "leggauss"), ("oracle", "solve_ivp"))

#: Names the per-layer metrics read; each must exist after installation.
REQUIRED = (
    "action.solve_stationary", "action.assemble", "action.d_omega",
    "action.solve_B", "models.of_series", "hpm.order1_forcing",
    "fourier.product", "fourier.inner_product",
    "oracle.exact_period_quadrature", "oracle.exact_period_ode",
    "oracle.leggauss", "oracle.solve_ivp", "audit.full_audit", "cli.main",
)

SPAN_NAMES = frozenset({
    "op", "cli.main", "audit.full_audit", "action.solve_stationary",
    "oracle.exact_period_quadrature", "oracle.exact_period_ode",
    "oracle.leggauss", "oracle.solve_ivp",
})


class TraceTargetError(LookupError):
    """A function the per-layer metrics depend on was not found."""


class Stat:
    __slots__ = ("calls", "errors", "total", "self_time", "extra")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.total = 0.0
        self.self_time = 0.0
        self.extra = 0  # nodes for leggauss, nfev for solve_ivp, points for solve_stationary

    def to_dict(self):
        return {"calls": self.calls, "errors": self.errors, "total_s": self.total,
                "self_s": self.self_time, "extra": self.extra}


def _observe_nodes(args, result):
    return int(args[0])


def _observe_nfev(args, result):
    return int(result.nfev)


def _observe_points(args, result):
    return len(result)


def _call(call):
    return call()


OBSERVERS = {
    "oracle.leggauss": _observe_nodes,
    "oracle.solve_ivp": _observe_nfev,
    "action.solve_stationary": _observe_points,
}


class Tracer:
    """Call statistics and spans for one traced run."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.op_id = None
        # Each frame: [child seconds, span id of the nearest kept span].
        self._stack: list[list] = []
        self._op = self.wrap("op", _call)

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        observe = OBSERVERS.get(name)
        keep = name in SPAN_NAMES
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else None
            span_id = len(spans) if keep else parent_span
            if keep:
                spans.append(None)  # reserve the id; filled in on exit
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent[0] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]
                if keep:
                    spans[span_id] = (name, start, end, parent_span, self.op_id)
            if observe is not None:
                stat.extra += observe(args, result)
            return result

        return traced

    def run_op(self, op_id, call):
        """Run one op under a root span named ``op``."""
        self.op_id = op_id
        try:
            return self._op(call)
        finally:
            self.op_id = None

    def install(self):
        """Wrap every target on every binding; return the traced names."""
        modules = {name: importlib.import_module(f"oscaudit.{name}") for name in MODULES}
        originals = {}  # id(original) -> (original, wrapper)
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    originals[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for short, attr in EXTERNAL:
            obj = getattr(modules[short], attr, None)
            if obj is None:
                raise TraceTargetError(f"oscaudit.{short} has no binding {attr!r}")
            originals[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        namespaces = [sys.modules["oscaudit"]] + [
            module for name, module in sorted(sys.modules.items())
            if name.startswith("oscaudit.") and module is not None
        ]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                entry = originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(namespace, attr, entry[1])
        for short, cls_name, method, name in METHODS:
            cls = getattr(modules[short], cls_name, None)
            original = vars(cls).get(method) if cls is not None else None
            if original is None:
                raise TraceTargetError(f"oscaudit.{short}.{cls_name}.{method} not found")
            setattr(cls, method, self.wrap(name, original))
        missing = [name for name in REQUIRED if name not in self.stats]
        if missing:
            raise TraceTargetError(f"trace targets not found: {', '.join(missing)}")
        return sorted(self.stats)

    def merge(self, stats, spans, op_id):
        """Add the statistics and spans one op recorded in another process."""
        offset = len(self.spans)
        for name, start, end, parent, _ in spans:
            parent = None if parent is None else parent + offset
            self.spans.append((name, start, end, parent, op_id))
        for name, data in stats.items():
            stat = self.stats.setdefault(name, Stat())
            stat.calls += data["calls"]
            stat.errors += data["errors"]
            stat.total += data["total_s"]
            stat.self_time += data["self_s"]
            stat.extra += data["extra"]

    def stats_dict(self):
        return {name: stat.to_dict() for name, stat in sorted(self.stats.items())}
