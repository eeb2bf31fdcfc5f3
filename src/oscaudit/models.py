"""Oscillator problem definitions.

The family treated here is  u'' + w0^2 u + eps f(u) = 0  with u(0) = A,
u'(0) = 0, where f is a polynomial containing only odd powers >= 3. The
odd-power restriction keeps the restoring force symmetric, which both the
cosine-only trial spaces and the exact-period oracle rely on.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction

from .fourier import TrigSeries

# Digits of every exact value rounded to a double (the solver's roots and
# products with pi, the oracle's quadrature): far beyond a double's.
CONTEXT = decimal.Context(prec=40)
PI = decimal.Decimal("3.141592653589793238462643383279502884197169399375105820974944592")


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


def to_decimal(x: Fraction) -> decimal.Decimal:
    """The rational x rounded once to ``CONTEXT``'s digits."""
    return CONTEXT.divide(x.numerator, x.denominator)


def horner(coefficients, x):
    """The polynomial with these coefficients, lowest first, at x."""
    total = 0
    for c in reversed(coefficients):
        total = total * x + c
    return total


def _sign_changes(values):
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def positive_on(coefficients, lo, hi) -> bool:
    """Whether the polynomial with these coefficients, lowest first, is > 0
    at lo and has no real root in (lo, hi], decided exactly in rationals.

    After the shift q(x) = p(lo + x), coefficients with at most one sign
    change leave at most one positive root, a simple one (Descartes' rule of
    signs), so q(0) > 0 and q(hi - lo) > 0 decide. Otherwise q's Sturm
    sequence counts its distinct roots in (0, hi - lo] (Sturm's theorem;
    Basu, Pollack and Roy, Algorithms in Real Algebraic Geometry, 2006), in
    integer polynomials that are positive multiples of the rational ones.
    """
    q, lo = [Fraction(c) for c in coefficients], Fraction(lo)
    while q and not q[-1]:
        q.pop()
    for i in range(len(q) - 1 if lo else 0):  # Taylor shift by synthetic division
        for j in range(len(q) - 2, i - 1, -1):
            q[j] += lo * q[j + 1]
    width = Fraction(hi) - lo
    if not q or q[0] <= 0:
        return False
    changes = _sign_changes(q)
    if changes < 2:
        return changes == 0 or horner(q, width) > 0
    scale = math.lcm(*(c.denominator for c in q))  # clear denominators once
    q = [c.numerator * (scale // c.denominator) for c in q]
    sequence = [q, [k * c for k, c in enumerate(q)][1:]]
    while len(sequence[-1]) > 1:  # ends at a constant, or at [] past the gcd
        rest, divisor = sequence[-2], sequence[-1]
        lead, sign = abs(divisor[-1]), (1 if divisor[-1] > 0 else -1)
        while len(rest) >= len(divisor):  # pseudo-division, scaled by lead > 0
            factor, pad = sign * rest[-1], [0] * (len(rest) - len(divisor))
            rest = [lead * r - factor * d for r, d in zip(rest, pad + divisor)][:-1]
        while rest and not rest[-1]:
            rest.pop()
        content = math.gcd(*rest) or 1  # each remainder primitive: small integers
        sequence.append([-c // content for c in rest])
    at_lo, at_hi = ([horner(s, x) for s in sequence] for x in (0, width))
    return _sign_changes(at_lo) == _sign_changes(at_hi)

