"""Oscillator problem definitions.

The family treated here is  u'' + w0^2 u + eps f(u) = 0  with u(0) = A,
u'(0) = 0, where f is a polynomial containing only odd powers >= 3. The
odd-power restriction keeps the restoring force symmetric, which both the
cosine-only trial spaces and the exact-period oracle rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fourier import TrigSeries


class Polynomial:
    """Sparse real polynomial, stored as a power -> coefficient map."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients=None):
        cleaned = {}
        for p, c in (coefficients or {}).items():
            if p != int(p) or p < 0:
                raise ValueError(f"power must be a non-negative integer, got {p!r}")
            c = float(c)
            if c != 0.0:
                cleaned[int(p)] = c
        self.coefficients = cleaned

    def __call__(self, u):
        total = 0.0 * u
        for p, c in self.coefficients.items():
            total = total + c * u**p
        return total

    def derivative(self):
        return Polynomial({p - 1: p * c for p, c in self.coefficients.items() if p > 0})

    def antiderivative(self):
        """Antiderivative normalised to vanish at zero."""
        return Polynomial({p + 1: c / (p + 1) for p, c in self.coefficients.items()})

    def of_series(self, series: TrigSeries) -> TrigSeries:
        """Substitute a trigonometric series for the variable."""
        result = TrigSeries.zero(series.base_freq)
        constant = self.coefficients.get(0, 0.0)
        if constant:
            result = result + TrigSeries.constant(series.base_freq, constant)
        running = TrigSeries.constant(series.base_freq, 1.0)
        reached = 0
        for p in sorted(self.coefficients):
            if p == 0:
                continue
            for _ in range(p - reached):
                running = running * series
            reached = p
            result = result + self.coefficients[p] * running
        return result

    def has_only_odd_powers(self, minimum=3):
        return all(p % 2 == 1 and p >= minimum for p in self.coefficients)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        merged = dict(self.coefficients)
        for p, c in other.coefficients.items():
            merged[p] = merged.get(p, 0.0) + c
        return Polynomial(merged)

    def scale(self, factor):
        return Polynomial({p: factor * c for p, c in self.coefficients.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash(tuple(sorted(self.coefficients.items())))

    def __repr__(self):
        return f"Polynomial({self.coefficients!r})"


@dataclass(frozen=True)
class OscillatorProblem:
    """Conservative oscillator  u'' + omega0_sq u + epsilon f(u) = 0."""

    omega0_sq: float
    epsilon: float
    nonlinearity: Polynomial
    amplitude: float

    def __post_init__(self):
        for name in ("omega0_sq", "epsilon", "amplitude"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for p, c in self.nonlinearity.coefficients.items():
            if not math.isfinite(c):
                raise ValueError(
                    f"nonlinearity coefficient of u^{p} must be finite, got {c}"
                )
        if not self.amplitude > 0.0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")
        if self.omega0_sq < 0.0:
            raise ValueError(f"omega0_sq must be non-negative, got {self.omega0_sq}")
        if not self.nonlinearity.has_only_odd_powers(3):
            raise ValueError(
                "nonlinearity must contain only odd powers >= 3 "
                f"(got powers {sorted(self.nonlinearity.coefficients)})"
            )

    def acceleration(self, u):
        """Right-hand side of u'' = -(omega0_sq u + epsilon f(u))."""
        return -self.omega0_sq * u - self.epsilon * self.nonlinearity(u)


def duffing(amplitude, eps) -> OscillatorProblem:
    """Cubic oscillator u'' + u + eps u^3 = 0 with u(0) = amplitude."""
    return OscillatorProblem(1.0, eps, Polynomial({3: 1.0}), amplitude)


def potential(f: Polynomial) -> Polynomial:
    """F with dF/du = f and F(0) = 0."""
    return f.antiderivative()


def total_potential(problem: OscillatorProblem) -> Polynomial:
    """V(u) = omega0_sq u^2 / 2 + epsilon F(u)."""
    quadratic = Polynomial({2: 0.5 * problem.omega0_sq})
    return quadratic + problem.epsilon * potential(problem.nonlinearity)


def effective_omega0(problem: OscillatorProblem) -> float:
    """Heuristic linearised frequency that centres the default frequency bracket.

    Folds the leading cubic correction into the linear stiffness; returns
    0.0 when the combination is not positive (the caller must then supply a
    bracket). Raises ``OverflowError`` naming A when A^2 overflows.
    """
    cubic = problem.nonlinearity.coefficients.get(3, 0.0)
    try:
        a_sq = problem.amplitude**2
    except OverflowError:
        raise OverflowError(f"A^2 overflows a double (A = {problem.amplitude})") from None
    radicand = problem.omega0_sq + 0.75 * problem.epsilon * a_sq * cubic
    return math.sqrt(radicand) if radicand > 0.0 else 0.0
