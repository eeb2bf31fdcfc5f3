"""Seeded inputs for the benchmark workloads.

Every workload is a closed loop with one client: ops run one after another
in a single process, grouped in cycles. A cycle holds the same mix of op
kinds in every run, so the latency percentiles of two seeds compare like
with like. Continuous parameters follow a fixed Latin-hypercube design:
each range is cut into n equal strata, draw j comes from stratum
(stride * j) mod n, and the seed only places each draw inside its stratum
and orders the ops. Two seeds thus run problems of the same spread, which
keeps the run-to-run spread of the percentiles small.

Standard library only: the worker imports this module before it imports
the program, and the checker imports it without the program at all.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("audit-mix", "sweep-grid", "oracle-wells", "cli-cold")

#: One line per workload: why the benchmark runs it.
WHY = {
    "audit-mix": "full_audit on seeded problems no two alike; the stationary "
    "solver does nearly all the work and nothing can be shared between ops",
    "sweep-grid": "in-process CLI sweep over a fixed 5x5 grid; every cell "
    "shares space and f, and the CSV serialiser runs",
    "oracle-wells": "quadrature and ODE oracles only, on hardening, quintic "
    "and near-separatrix softening wells; the action module does no work",
    "cli-cold": "one fresh python -m oscaudit process per op, imports "
    "included, with the documented error exits",
}

CUBIC = ((3, 1.0),)
CUBIC_QUINTIC = ((3, 1.0), (5, 0.2))
QUINTIC_WELL = ((3, 1.0), (5, 1.0))

#: The 3-shape custom space [1:1,3:-0.2 | 3:0.2,5:-1/7 | 5:1/7,7:-1/9].
CUSTOM3 = (
    ((1, 1.0), (3, -0.2)),
    ((3, 0.2), (5, -1.0 / 7.0)),
    ((5, 1.0 / 7.0), (7, -1.0 / 9.0)),
)

SWEEP_EPS = (0.1, 0.3, 1.0, 3.0, 10.0)
SWEEP_A = (0.5, 0.75, 1.0, 1.5, 2.0)

#: Distinct problems per kind of well in oracle-wells; ops cycle through
#: them, so independent references are computed for 3 x POOL problems.
ORACLE_POOL = 8

#: Untimed warm-up op on a fixed small input; it ends the set-up phase.
WARMUP = {
    "audit-mix": {"kind": "audit", "space": "al-single", "poly": CUBIC,
                  "eps": 1.0, "A": 1.0},
    "sweep-grid": {"kind": "sweep", "eps": (1.0,), "A": (1.0,)},
    "oracle-wells": {"kind": "oracle", "well": "hardening", "poly": CUBIC,
                     "eps": 1.0, "A": 1.0},
    "cli-cold": None,  # set-up is a fresh-interpreter import of oscaudit.cli
}


def latin(rng, n, lo, hi, log=False, stride=1):
    """n draws from [lo, hi]; draw j is uniform (log-uniform with ``log``)
    in stratum (stride * j) mod n of n equal strata. ``stride`` must be
    coprime with n."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    values = [a + (b - a) * ((stride * j) % n + rng.random()) / n for j in range(n)]
    return [math.exp(v) for v in values] if log else values


AUDIT_COMBOS = tuple(
    (space, poly)
    for space in ("al-single", "al-double", "custom3")
    for poly in (CUBIC, CUBIC_QUINTIC)
)
#: Cycles per Latin-hypercube block of audit-mix (about one run): within a
#: block each combo meets strata spread over the whole range of eps and A.
AUDIT_BLOCK = 4


def _audit_mix(rng, seed, index):
    block, part = divmod(index, AUDIT_BLOCK)
    design = random.Random(f"audit-mix/{seed}/block{block}")
    n = AUDIT_BLOCK * len(AUDIT_COMBOS)
    eps = latin(design, n, 0.05, 10.0, log=True, stride=5)
    amp = latin(design, n, 0.3, 2.0, stride=7)
    ops = []
    for j in range(part * len(AUDIT_COMBOS), (part + 1) * len(AUDIT_COMBOS)):
        space, poly = AUDIT_COMBOS[j % len(AUDIT_COMBOS)]
        ops.append({"kind": "audit", "space": space, "poly": poly,
                    "eps": eps[j], "A": amp[j]})
    rng.shuffle(ops)
    return ops


def _sweep_grid(rng, seed, index):
    eps, amp = list(SWEEP_EPS), list(SWEEP_A)
    rng.shuffle(eps)
    rng.shuffle(amp)
    return [{"kind": "sweep", "eps": tuple(eps), "A": tuple(amp)}]


def _oracle_pool(seed):
    """The seeded problems of oracle-wells, ORACLE_POOL per kind of well."""
    rng = random.Random(f"oracle-wells/{seed}/pool")
    n = ORACLE_POOL
    hard = zip(latin(rng, n, 0.05, 10.0, log=True), latin(rng, n, 0.3, 2.0, stride=3))
    quint = zip(latin(rng, n, 0.1, 100.0, log=True), latin(rng, n, 0.3, 2.0, stride=3))
    soft = latin(rng, n, -0.999, -0.5)
    return {
        "hardening": [{"kind": "oracle", "well": "hardening", "poly": CUBIC,
                       "eps": e, "A": a} for e, a in hard],
        "quintic": [{"kind": "oracle", "well": "quintic", "poly": QUINTIC_WELL,
                     "eps": e, "A": a} for e, a in quint],
        "softening": [{"kind": "oracle", "well": "softening", "poly": CUBIC,
                       "eps": e, "A": 1.0} for e in soft],
    }


def _oracle_wells(rng, seed, index):
    pool = _oracle_pool(seed)
    kinds = sorted(pool)
    rng.shuffle(kinds)
    return [pool[kind][index % ORACLE_POOL] for kind in kinds]


def _cli_cold(rng, seed, index):
    formats = ("json", "md", "csv")
    eps = latin(rng, 7, 0.05, 10.0, log=True)
    amp = latin(rng, 7, 0.3, 2.0, stride=3)
    # Six ops that pay for a solve and three that do not: the median then
    # falls well inside the cluster of the single-shape solves, not in the
    # gap between the clusters.
    problems = [("audit", "al-single", fmt) for fmt in formats] + [
        ("audit", "al-double", fmt) for fmt in rng.sample(formats, 2)
    ] + [("analyze", "al-single", "json"), ("exact", None, "json")]
    ops = []
    for (verb, space, fmt), e, a in zip(problems, eps, amp):
        argv = [verb, "--preset", "duffing", "--eps", repr(e), "--A", repr(a)]
        if space is not None:
            argv += ["--space", space, "--format", fmt]
        ops.append({"kind": "cli", "verb": verb, "space": space, "format": fmt,
                    "eps": e, "A": a, "argv": argv, "expect": 0})
    # The documented error exits: a non-oscillatory well is a numeric domain
    # error (3); a custom space without shapes is a configuration error (2).
    ops.append({"kind": "cli", "verb": "exact", "argv":
                ["exact", "--preset", "duffing", "--eps", "-2"], "expect": 3})
    ops.append({"kind": "cli", "verb": "audit", "argv":
                ["audit", "--preset", "duffing", "--space", "custom"], "expect": 2})
    rng.shuffle(ops)
    return ops


_CYCLES = {
    "audit-mix": _audit_mix,
    "sweep-grid": _sweep_grid,
    "oracle-wells": _oracle_wells,
    "cli-cold": _cli_cold,
}


def cycle(workload, seed, index):
    """The ops of cycle ``index``; the same arguments give the same ops."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    return _CYCLES[workload](rng, seed, index)


def cells(op):
    """The (eps, A, space) problems an op completes when it succeeds."""
    if op["kind"] == "sweep":
        return len(op["eps"]) * len(op["A"])
    return 1 if op.get("expect", 0) == 0 else 0
