"""Numerically exact oscillation frequency of the conservative problem.

Two independent routes provide the ground truth against which approximate
frequencies are judged:

* energy integral: for a well V with V(A) > V(u) on [0, A) the quarter
  period is  integral_0^A du / sqrt(2 (V(A) - V(u))).  V is even, so
  V(A) - V(u) = (A^2 - u^2) D(u^2) with a polynomial D (both routes first
  decide exactly that D > 0 on [0, A^2]), and substituting
  u = A (1 - t^2) gives the smooth integral
  integral_0^1 sqrt(2 / ((2 - t^2) D(u^2))) dt,  with no endpoint
  singularity and no trigonometry.  Near a separatrix D(u^2) almost
  vanishes at t = 0; a sinh map of t, scaled to that near-zero, keeps the
  integrand smooth there.  Gauss-Legendre quadrature on a node-doubling
  schedule evaluates the integral in ``CONTEXT``'s 40-digit decimal
  arithmetic: the nodes and weights come from Newton iteration on the
  Legendre recurrence, D from the problem's own doubles taken exactly, and
  the frequency 2 pi / T is rounded to a double once, at the end.  No
  LAPACK, BLAS or libm result reaches the returned bits, so the frequency
  is correctly rounded and the same on every platform;
* time integration: one run of an adaptive high-order Runge-Kutta scheme
  in x = u / A and tau = lam t, from (x, dx/dtau) = (1, 0) until the first
  zero crossing, which for odd f is a quarter period by symmetry. Its
  error estimate is the relative energy drift at that crossing.
"""

from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import TYPE_CHECKING

from .models import (
    CONTEXT,
    PI,
    OscillatorProblem,
    Polynomial,
    horner,
    positive_on,
    to_decimal,
    total_potential,
)

if TYPE_CHECKING:
    import numpy as np

QUAD_START_NODES = 16
QUAD_MAX_NODES = 1024
# Stop when two successive levels agree to this relative difference, four
# orders of magnitude below half an ulp of a double. The Gauss-Legendre
# error falls geometrically in the node count, so the finer level is then
# accurate far beyond double precision and rounds correctly.
QUAD_REL_TOL = 1e-20
ODE_TOL = 1e-12
ODE_PERIOD_BUDGET = 100.0

# Nodes and weights are polished with guard digits and rounded once to
# CONTEXT's digits, so the rule does not depend on the seeds. Newton on P_n
# converges quadratically with a constant below n^2 (at most 1024^2 here):
# after a step this small the root is exact to the polishing digits.
_POLISH = decimal.Context(prec=CONTEXT.prec + 10)
_POLISHED = Decimal(10) ** -(_POLISH.prec // 2 + 4)


class NonOscillatoryError(ValueError):
    """The potential does not confine a well of oscillation up to A."""


class DivergenceError(RuntimeError):
    """Time integration found no zero crossing within the time budget."""


class QuadratureConvergenceError(RuntimeError):
    """Node doubling did not converge within the node budget."""


@dataclass(frozen=True)
class ExactResult:
    period: float
    frequency: float
    method: str
    est_error: float


def _legendre(n: int, x):
    """P_n(x) and P_{n-1}(x) from the three-term recurrence."""
    previous, current = 1, x
    for k in range(1, n):
        previous, current = current, ((2 * k + 1) * x * current - k * previous) / (k + 1)
    return current, previous


@functools.cache
def leggauss(n: int):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule.

    Both are tuples of Decimals in ``CONTEXT``'s 40 digits. Newton iteration on
    the recurrence in doubles, started from Tricomi's asymptotic estimate,
    finds the non-negative roots; Newton steps in decimal with ten guard
    digits (two, as a rule) polish each one, and the Legendre equation
    carries P_n' to the polished root for the weight
    2 / ((1 - x^2) P_n'(x)^2). Each node and weight is then rounded once to
    ``CONTEXT``. The double seeds only pick the root, so the rule does
    not depend on them or on the platform. Rules are cached for the life of
    the process.
    """
    seeds = []
    for k in range(1, n // 2 + 1):
        x = math.cos(math.pi * (k - 0.25) / (n + 0.5)) * (1.0 - (n - 1.0) / (8.0 * n**3))
        for _ in range(10):
            p_n, p_prev = _legendre(n, x)
            step = p_n * (1.0 - x * x) / (n * (p_prev - x * p_n))
            x -= step
            if abs(step) <= 1e-15:
                break
        seeds.append(x)
    if n % 2:
        seeds.append(0.0)
    roots = []  # (node, weight), largest node first
    with decimal.localcontext(_POLISH):
        for seed in seeds:
            x = Decimal(seed)
            for _ in range(8):
                p_n, p_prev = _legendre(n, x)
                one_minus_x2 = 1 - x * x
                slope = n * (p_prev - x * p_n) / one_minus_x2
                curvature = (2 * x * slope - n * (n + 1) * p_n) / one_minus_x2
                step = p_n / slope
                x -= step
                if abs(step) < _POLISHED:
                    break
            slope -= curvature * step
            weight = 2 / ((1 - x * x) * slope * slope)
            roots.append((CONTEXT.plus(x), CONTEXT.plus(weight)))
    half = n // 2
    negative = [(x.copy_negate(), w) for x, w in roots[:half]]
    rule = negative + roots[half:] + roots[:half][::-1]
    return tuple(x for x, _ in rule), tuple(w for _, w in rule)


def _check_oscillatory(problem: OscillatorProblem):
    """Decide exactly that V(A) > V(u) on [0, A); return D, V(A) - V(u) =
    (A^2 - u^2) D(u^2), with each coefficient rounded once to ``CONTEXT``.

    With V(u) = sum_k P_k u^{2k}, D's coefficients d_m = P_{m+1} + A^2 d_{m+1}
    are rationals of the problem's own doubles, and ``positive_on`` decides
    D > 0 on [0, A^2]. V'(A) = 2 A D(A^2), so D(A^2) = 0 is the top of the well.
    """
    a_sq, eps = Fraction(problem.amplitude) ** 2, Fraction(problem.epsilon)
    halves = {1: Fraction(problem.omega0_sq) / 2}
    for p, c in problem.nonlinearity.coefficients.items():
        halves[(p + 1) // 2] = halves.get((p + 1) // 2, 0) + eps * Fraction(c) / (p + 1)
    depth = [halves[max(halves)]]
    for k in range(max(halves) - 1, 0, -1):
        depth.insert(0, halves.get(k, 0) + a_sq * depth[0])
    if not positive_on(depth, 0, a_sq):
        raise NonOscillatoryError(
            "V'(A) <= 0; the amplitude is at or beyond the top of the well"
            if horner(depth, a_sq) == 0 else
            "V(A) does not dominate V(u) on [0, A); the configuration "
            "does not oscillate with this amplitude"
        )
    return [to_decimal(d) for d in depth]


def exact_period_quadrature(problem: OscillatorProblem) -> ExactResult:
    """Energy-integral period with a node-doubling convergence schedule.

    ``est_error`` is the relative difference of the last two levels. Raises
    ``OverflowError`` when the frequency does not fit in a double.
    """
    coefficients = _check_oscillatory(problem)
    with decimal.localcontext(CONTEXT):
        a_sq = Decimal(problem.amplitude) * Decimal(problem.amplitude)
        # E(s) = D(A^2 (1 - s)^2), s = t^2: E(0) = V'(A) / (2 A), > 0 unrounded;
        # the linear model of E puts its near-zero at s = -scale^2, and the
        # sinh map is used when that lies closer to t = 0 than t = +-i
        at_turning_point = horner(coefficients, a_sq)
        derivative = [m * c for m, c in enumerate(coefficients)][1:]
        growth = -2 * a_sq * horner(derivative, a_sq)
        scale = None
        if growth > at_turning_point > 0:
            scale = (at_turning_point / growth).sqrt()
            stretch = (1 / scale + (1 / (scale * scale) + 1).sqrt()).ln()  # asinh(1/scale)
        previous = None
        nodes = QUAD_START_NODES
        while nodes <= QUAD_MAX_NODES:
            x, weights = leggauss(nodes)
            quarter = Decimal(0)
            # the integrand is even in t and the node count even: sum the
            # positive half of the rule on [-1, 1]
            for xk, wk in zip(x[nodes // 2:], weights[nodes // 2:]):
                if scale is None:
                    t, weight = xk, wk
                else:  # t = scale sinh(stretch x)
                    grow = (stretch * xk).exp()
                    t = scale * (grow - 1 / grow) / 2
                    weight = wk * scale * stretch * (grow + 1 / grow) / 2
                t_sq = t * t
                u_rel = 1 - t_sq
                depth = horner(coefficients, a_sq * u_rel * u_rel)
                if depth <= 0:
                    raise NonOscillatoryError(
                        "well slope non-positive at a quadrature node"
                    )
                quarter += weight * (2 / ((2 - t_sq) * depth)).sqrt()
            if previous is not None:
                delta = float(abs(quarter - previous) / quarter)
                if delta < QUAD_REL_TOL:
                    frequency = float(PI / (2 * quarter))
                    if not math.isfinite(frequency):
                        raise OverflowError(
                            f"the frequency overflows a double (A = {problem.amplitude})"
                        )
                    return ExactResult(
                        period=float(4 * quarter),
                        frequency=frequency,
                        method="quadrature",
                        est_error=delta,
                    )
            previous = quarter
            nodes *= 2
    raise QuadratureConvergenceError(
        f"period quadrature did not converge within {QUAD_MAX_NODES} nodes"
    )


def solve_ivp(fun, t_span, y0, **options):
    """scipy's ``solve_ivp``, imported on the first call.

    Only the time-integration routes need scipy, and importing
    ``scipy.integrate`` costs more than the rest of the package together;
    loading it here keeps it out of every run that never integrates.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(fun, t_span, y0, **options)


def _dimensionless(problem: OscillatorProblem) -> tuple[OscillatorProblem, float]:
    """The problem in x = u / A and tau = lam t, and lam.

    lam^2 = 2 V(A) / A^2 = 2 d_0 of ``_check_oscillatory``'s D is twice the
    depth of the unit well, so a period is of order 2 pi in tau at every A.
    The unit problem (strength 1, stiffness w0^2 / lam^2, coefficients
    eps c_p A^(p - 1) / lam^2) is formed in decimal, each value rounded once.
    Raises ``OverflowError`` naming A when lam is not a double.
    """
    depth = _check_oscillatory(problem)
    with decimal.localcontext(CONTEXT):
        lam_sq = 2 * depth[0]
        lam = float(lam_sq.sqrt())
        if not 0.0 < lam < math.inf:
            raise OverflowError(f"lam is not a double (A = {problem.amplitude})")
        amplitude, eps = Decimal(problem.amplitude), Decimal(problem.epsilon)
        unit = {p: float(eps * Decimal(c) * amplitude ** (p - 1) / lam_sq)
                for p, c in problem.nonlinearity.coefficients.items()}
        omega0_sq = float(Decimal(problem.omega0_sq) / lam_sq)
    return OscillatorProblem(omega0_sq, 1.0, Polynomial(unit), 1.0), lam


def _integrate(unit: OscillatorProblem, t_end: float, **options):
    """DOP853 at ``ODE_TOL`` from (x, x') = (1, 0) over [0, t_end]."""

    def rhs(_t, y):
        return (y[1], unit.acceleration(y[0]))

    return solve_ivp(
        rhs, (0.0, t_end), [1.0, 0.0], method="DOP853", rtol=ODE_TOL, atol=ODE_TOL, **options
    )


def exact_period_ode(problem: OscillatorProblem) -> ExactResult:
    """Event-detected quarter period from one adaptive time integration.

    The problem is integrated in x = u / A and tau = lam t (``_dimensionless``)
    for up to ``ODE_PERIOD_BUDGET`` times 2 pi in tau; the period is 4 tau* / lam.
    ``est_error`` is that run's relative energy drift at the crossing tau*.
    It does not bound the period's error near a separatrix: for Duffing at
    A = 1, eps = -0.9999999999999999 the period is 112.41543555584232 against
    the quadrature's 109.78891206847729, with ``est_error`` 5.4e-13.
    """
    unit, lam = _dimensionless(problem)

    def crossing(_t, y):
        return y[0]

    crossing.terminal = True
    crossing.direction = -1.0

    solution = _integrate(unit, ODE_PERIOD_BUDGET * 2.0 * math.pi, events=crossing)
    if not solution.t_events[0].size:
        raise DivergenceError(
            f"no zero crossing of u within {ODE_PERIOD_BUDGET} times 2 pi in tau = lam t"
        )
    period = 4.0 * float(solution.t_events[0][0]) / lam
    x, v = (float(y) for y in solution.y_events[0][0])
    potential = total_potential(unit)
    start = potential(1.0)
    return ExactResult(
        period=period,
        frequency=2.0 * math.pi / period,
        method="ode-event",
        est_error=abs(0.5 * v * v + potential(x) - start) / start,
    )


def trajectory(problem: OscillatorProblem, times) -> np.ndarray:
    """Displacement samples u(t) = A x(lam t) of the dimensionless integration."""
    import numpy as np

    times = np.asarray(times, dtype=float)
    unit, lam = _dimensionless(problem)
    solution = _integrate(unit, float(times[-1]) * lam, t_eval=times * lam)
    return problem.amplitude * solution.y[0]
