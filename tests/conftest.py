"""Shared helpers for the test suite.

The Gauss-Legendre helper provides an integration oracle that is
independent of the package's closed-form coefficient arithmetic.
``child_env`` lets a fresh interpreter import the package from ``src``
without installing it.
"""

import os
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss

SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env():
    """This process's environment with ``src`` first on PYTHONPATH."""
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + old if old else ""))


def gauss_integral(fn, a, b, panels=16, nodes=24):
    """Composite Gauss-Legendre quadrature of a callable over [a, b]."""
    x, w = leggauss(nodes)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        pts = mid + half * x
        total += half * float(w @ np.array([fn(t) for t in pts]))
    return total


def series_evaluator(base_freq, cos_map, sin_map=None):
    """Pointwise evaluator built directly from coefficient maps."""
    sin_map = sin_map or {}

    def fn(t):
        value = 0.0
        for k, c in cos_map.items():
            value += c * np.cos(k * base_freq * t)
        for k, s in sin_map.items():
            value += s * np.sin(k * base_freq * t)
        return value

    return fn


def random_series_maps(rng, max_harmonic=8, terms=5):
    """Random cosine/sine coefficient maps for property tests."""
    cos_map = {
        int(k): float(rng.uniform(-2.0, 2.0))
        for k in rng.choice(max_harmonic + 1, size=terms, replace=False)
    }
    sin_map = {
        int(k): float(rng.uniform(-2.0, 2.0))
        for k in rng.choice(np.arange(1, max_harmonic + 1), size=terms - 1, replace=False)
    }
    return cos_map, sin_map
