"""Consistency audit of first-order variational corrections.

The audit mechanises the checks that decide whether a computed correction
can be taken seriously:

* boundary conditions: the correction must satisfy u1(0) = u1'(0) = 0;
* triviality: a stationary point with all amplitudes zero corrects nothing;
* amplitude consistency: u_app(0) = A + u1(0), so any boundary violation
  shows up verbatim as an amplitude mismatch of the approximate solution;
* frequency accuracy: every candidate frequency is compared against the
  exact-period oracle.

Known closed forms for the preset trial spaces are cross-checked against
the solver: the resonance-balance frequency for the single-shape space and
the radical frequency plus amplitude formulas for the two-shape space. The
resonance balance is checked only where it applies: the single shape
cos - cos5/3 also meets the fifth harmonic c_5 of f(A cos theta), so the
check needs c_5 = 0. The two-shape formulas are checked only on the
standard cubic, where their combined strength is eps * A^2; the report
carries it as ``rho``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .models import CONTEXT, OscillatorProblem, Polynomial, to_decimal
from .action import (
    DOUBLE_SHAPES,
    SINGLE_SHAPES,
    TRIVIALITY_SCALE,
    StationaryPoint,
    TrialSpace,
    _harmonics,
    classify_triviality,
    max_abs,
    solve_stationary,
)
from .oracle import (
    ExactResult,
    NonOscillatoryError,
    QuadratureConvergenceError,
    exact_period_quadrature,
)

BC_SCALE = 1e-10  # boundary violations are judged relative to the amplitude
CLOSED_FORM_REL_TOL = 1e-6
FREQ_NOTABLE_REL = 1e-10

FINDING_TRIVIAL = "TRIVIAL_CORRECTION"
FINDING_BC = "BC_VIOLATION"
FINDING_AMPLITUDE = "AMPLITUDE_MISMATCH"
FINDING_CLOSED_FORM = "CLOSED_FORM_MISMATCH"
FINDING_FREQ = "FREQ_ACCURACY"


class ClosedFormDomainError(ValueError):
    """A closed-form frequency was requested outside its real domain."""


class NoStationaryPointError(RuntimeError):
    """The solver returned no stationary point to audit."""


class NonFiniteValueError(ArithmeticError):
    """A report value overflowed or is undefined (inf or NaN)."""


def resonance_frequency(problem: OscillatorProblem) -> float:
    """Frequency at which the fundamental forcing component cancels.

    The fundamental cosine coefficient of f(A cos) does not depend on the
    base frequency, so the balance condition is algebraic:
    w^2 = w0^2 + eps c1(A) / A. For the cubic oscillator this reduces to
    sqrt(w0^2 + 3 eps A^2 / 4). It is formed exactly and rounded once.
    """
    return _resonance_frequency(problem, _harmonics(problem))


def _resonance_frequency(problem: OscillatorProblem, harmonics: dict) -> float:
    """``resonance_frequency`` from the exact c_k of f(A cos theta)."""
    square = (Fraction(problem.omega0_sq) + Fraction(problem.epsilon)
              * harmonics.get(1, 0) / Fraction(problem.amplitude))
    if not square > 0:
        raise ClosedFormDomainError(
            f"resonance-balance radicand is not positive ({float(to_decimal(square))})"
        )
    return float(CONTEXT.sqrt(to_decimal(square)))


def two_shape_frequency(rho: float) -> float:
    """Closed-form stationary frequency of the two-shape trial space.

    ``rho`` is the combined nonlinearity strength (eps * A^2 for the
    standard cubic problem). The expression is the positive root of the
    quadratic in w^2 produced by the joint stationarity conditions.
    """
    inner = 510237.0 * rho * rho + 1416576.0 * rho + 984064.0
    if not math.isfinite(inner):
        raise ClosedFormDomainError(f"inner radicand overflows ({inner})")
    if inner < 0.0:
        raise ClosedFormDomainError(f"inner radicand negative ({inner})")
    outer = math.sqrt(inner) - 357.0 * rho - 496.0
    if outer <= 0.0:
        raise ClosedFormDomainError(f"outer radicand not positive ({outer})")
    # sqrt(31 * outer) / 124 rather than sqrt(31)/124 * sqrt(outer): at
    # rho = 0 the argument is the perfect square 15376, so the limit is
    # exactly 1.0.
    return math.sqrt(31.0 * outer) / 124.0


def two_shape_coefficients(amplitude: float, rho: float, omega: float) -> tuple[float, float]:
    """Closed-form amplitudes (B1, B3) of the two-shape space at fixed w."""
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    w_sq = omega * omega
    b1 = amplitude * (357.0 * rho - 496.0 * (w_sq - 1.0)) / (96.0 * w_sq)
    b3 = 49.0 * amplitude * (3.0 * rho - 4.0 * (w_sq - 1.0)) / (96.0 * w_sq)
    return b1, b3


def combined_strength(problem: OscillatorProblem) -> float:
    """Default interpretation of the two-shape strength parameter: eps A^2."""
    return problem.epsilon * problem.amplitude**2


def _is_standard_cubic(problem: OscillatorProblem) -> bool:
    """The two-shape closed forms assume w0^2 = 1 and f(u) = u^3 exactly."""
    return problem.omega0_sq == 1.0 and problem.nonlinearity == Polynomial({3: 1.0})


@dataclass
class Finding:
    code: str
    message: str
    data: dict = field(default_factory=dict)


@dataclass
class FreqRow:
    source: str
    omega: float | None
    rel_err_vs_exact: float | None
    note: str = ""


@dataclass
class AuditReport:
    problem: OscillatorProblem
    space: TrialSpace
    points: list[StationaryPoint]
    selected: StationaryPoint
    bc_u1_at_0: float
    bc_du1_at_0: float
    trivial: bool
    triviality_threshold: float
    amplitude_mismatch: float
    rho: float
    freq_table: list[FreqRow]
    closed_form_residuals: dict[str, float]
    findings: list[Finding]
    domega_with_period_term: float
    domega_frozen_period: float

    def finding_codes(self) -> list[str]:
        return [f.code for f in self.findings]

    def to_dict(self) -> dict:
        """Plain-type report matching the documented JSON schema."""
        return report_dict(
            self.problem,
            self.space,
            self.points,
            {
                "selected_omega": float(self.selected.omega),
                "selected_branch": self.selected.branch,
                "bc": {
                    "u1_at_0": float(self.bc_u1_at_0),
                    "du1_at_0": float(self.bc_du1_at_0),
                },
                "trivial": {
                    "flag": bool(self.trivial),
                    "threshold": float(self.triviality_threshold),
                },
                "amplitude_mismatch": float(self.amplitude_mismatch),
                "rho": float(self.rho),
                "freq_table": [asdict(row) for row in self.freq_table],
                "closed_form_residuals": {
                    k: float(v) for k, v in self.closed_form_residuals.items()
                },
                "findings": [asdict(f) for f in self.findings],
                "domega_conventions": {
                    "with_period_term": float(self.domega_with_period_term),
                    "frozen_period": float(self.domega_frozen_period),
                },
            },
        )


def report_dict(
    problem: OscillatorProblem,
    space: TrialSpace,
    points: list[StationaryPoint],
    audit: dict | None = None,
) -> dict:
    """The plain-type report every output format is rendered from.

    ``audit`` is the report's ``audit`` section; a bare stationary-point
    analysis has none. Every float is checked finite, so no format can
    carry inf or NaN.
    """
    return check_finite(
        {
            "versions": {"schema": 1},
            "problem": {
                "omega0_sq": float(problem.omega0_sq),
                "eps": float(problem.epsilon),
                "amplitude": float(problem.amplitude),
                "poly": {
                    str(p): float(c)
                    for p, c in sorted(problem.nonlinearity.coefficients.items())
                },
            },
            "trial_space": {
                "name": space.name,
                "shapes": [
                    {str(k): float(v) for k, v in sorted(shape.items())}
                    for shape in space.shapes
                ],
            },
            "stationary_points": [
                {
                    "omega": float(p.omega),
                    "B": [float(b) for b in p.amplitudes],
                    "J": float(p.action_value),
                    "grad_norm": float(p.grad_norm),
                    "branch": p.branch,
                }
                for p in points
            ],
            "audit": audit,
        }
    )


def check_finite(data):
    """Return ``data`` after checking that every float in it is finite.

    Raises ``NonFiniteValueError`` naming the key path of the first
    offending value, e.g. ``audit.domega_conventions.frozen_period``.
    """

    def walk(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}.{key}" if path else key)
        elif isinstance(value, list):
            for index, item in enumerate(value):
                walk(item, f"{path}[{index}]")
        elif isinstance(value, float) and not math.isfinite(value):
            raise NonFiniteValueError(f"report value {path} is not finite ({value})")

    walk(data, "")
    return data


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def full_audit(
    problem: OscillatorProblem,
    space: TrialSpace,
    bracket: tuple[float, float] | None = None,
) -> AuditReport:
    """Run the solver, the oracle and the closed forms; report every check.

    Findings are emitted in a fixed order with machine codes, so reports on
    identical inputs are byte-identical.
    """
    points = solve_stationary(problem, space, bracket)
    if not points:
        raise NoStationaryPointError(
            "no stationary point found in the bracket; widen it or adjust the problem"
        )
    selected = next(
        (p for p in points if p.branch == "continued-from-linear"), points[0]
    )

    trivial = classify_triviality(selected.amplitudes, problem.amplitude)
    amplitude_mismatch = selected.u1_at_0  # u_app(0) - A == u1(0), identically
    rho = combined_strength(problem)

    exact: ExactResult | None = None
    exact_note = ""
    try:
        exact = exact_period_quadrature(problem)
    except (NonOscillatoryError, QuadratureConvergenceError) as err:
        exact_note = f"unavailable: {err}"

    harmonics = _harmonics(problem)
    omega_single = None
    single_note = ""
    try:
        omega_single = _resonance_frequency(problem, harmonics)
    except ClosedFormDomainError as err:
        single_note = f"unavailable: {err}"

    omega_double = None
    double_note = ""
    if _is_standard_cubic(problem):
        try:
            omega_double = two_shape_frequency(rho)
        except ClosedFormDomainError as err:
            double_note = f"unavailable: {err}"
    else:
        double_note = "not applicable: closed form assumes omega0_sq=1 and f=u^3"

    def rel_vs_exact(omega):
        if omega is None or exact is None:
            return None
        return _rel(omega, exact.frequency)

    freq_table = [
        FreqRow("solver", float(selected.omega), rel_vs_exact(selected.omega)),
        FreqRow("closed_form_single", omega_single, rel_vs_exact(omega_single), single_note),
        FreqRow("closed_form_double", omega_double, rel_vs_exact(omega_double), double_note),
        FreqRow(
            "exact",
            None if exact is None else exact.frequency,
            None if exact is None else 0.0,
            exact_note,
        ),
    ]

    residuals: dict[str, float] = {}
    if space.shapes == SINGLE_SHAPES:
        # cos - cos5/3 also meets c_5: the resonance balance is its closed form only where c_5 = 0
        if omega_single is not None and not harmonics.get(5, 0):
            residuals["omega_rel_err_vs_closed_single"] = _rel(
                selected.omega, omega_single
            )
        residuals["b_abs_max"] = max_abs(selected.amplitudes)
    if space.shapes == DOUBLE_SHAPES and omega_double is not None:
        residuals["omega_rel_err_vs_closed_double"] = _rel(selected.omega, omega_double)
        closed_b = two_shape_coefficients(problem.amplitude, rho, selected.omega)
        deviation = max(
            abs(float(b) - cb) / max(abs(cb), TRIVIALITY_SCALE * problem.amplitude)
            for b, cb in zip(selected.amplitudes, closed_b)
        )
        residuals["b_rel_err_vs_closed_double"] = deviation

    findings: list[Finding] = []
    if trivial:
        findings.append(
            Finding(
                FINDING_TRIVIAL,
                "all stationary trial amplitudes vanish: the first-order "
                "correction is identically zero and corrects nothing",
                {"max_abs_B": max_abs(selected.amplitudes)},
            )
        )
    bc_threshold = BC_SCALE * problem.amplitude
    if abs(selected.u1_at_0) > bc_threshold:
        findings.append(
            Finding(
                FINDING_BC,
                "the correction violates the boundary condition u1(0) = 0",
                {"u1_at_0": float(selected.u1_at_0), "threshold": bc_threshold},
            )
        )
        findings.append(
            Finding(
                FINDING_AMPLITUDE,
                "the approximate solution starts from A + u1(0), an amplitude "
                "different from the one the frequency was derived for",
                {"u_app_at_0_minus_A": float(amplitude_mismatch)},
            )
        )
    closed_checks = [
        ("omega_rel_err_vs_closed_single", omega_single),
        ("omega_rel_err_vs_closed_double", omega_double),
    ]
    for key, closed_omega in closed_checks:
        value = residuals.get(key)
        if value is not None and value > CLOSED_FORM_REL_TOL:
            findings.append(
                Finding(
                    FINDING_CLOSED_FORM,
                    "solver frequency deviates from the matching closed form "
                    "beyond tolerance",
                    {
                        "residual_key": key,
                        "rel_err": float(value),
                        "omega_solver": float(selected.omega),
                        "omega_closed_form": float(closed_omega),
                    },
                )
            )
    if exact is not None:
        rel_errs = {
            row.source: row.rel_err_vs_exact
            for row in freq_table
            if row.rel_err_vs_exact is not None and row.source != "exact"
        }
        if any(v > FREQ_NOTABLE_REL for v in rel_errs.values()):
            findings.append(
                Finding(
                    FINDING_FREQ,
                    "relative error of each candidate frequency against the "
                    "exact-period oracle",
                    {k: float(v) for k, v in sorted(rel_errs.items())},
                )
            )

    return AuditReport(
        problem=problem,
        space=space,
        points=points,
        selected=selected,
        bc_u1_at_0=selected.u1_at_0,
        bc_du1_at_0=0.0,  # cosine shapes have u1'(0) = 0 by construction
        trivial=trivial,
        triviality_threshold=TRIVIALITY_SCALE * problem.amplitude,
        amplitude_mismatch=amplitude_mismatch,
        rho=rho,
        freq_table=freq_table,
        closed_form_residuals=residuals,
        findings=findings,
        domega_with_period_term=selected.domega_with_period_term,
        domega_frozen_period=selected.domega_frozen_period,
    )
