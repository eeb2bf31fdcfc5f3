"""Variational first-order corrections for odd nonlinear oscillators.

The package builds the order-0/order-1 homotopy hierarchy for oscillators
u'' + w0^2 u + eps f(u) = 0, assembles the period-action functional over
finite cosine trial spaces, solves the joint stationarity conditions in the
amplitudes and the frequency, and audits the result for internal
consistency (boundary conditions, trivial corrections, amplitude mismatch,
frequency accuracy) against an exact-period oracle.
"""

from .fourier import (
    MAX_HARMONIC,
    FrequencyMismatchError,
    HarmonicRangeError,
    TrigSeries,
)
from .models import (
    OscillatorProblem,
    Polynomial,
    duffing,
    potential,
    total_potential,
)
from .hpm import (
    HomotopyHierarchy,
    deformed_residual,
    order0_solution,
    order1_forcing,
    order1_residual,
    residual_norms,
)
from .action import (
    BracketError,
    QuadraticForm,
    SingularMatrixError,
    StationaryPoint,
    TrialSpace,
    assemble,
    d_omega,
    default_bracket,
    double_shape_space,
    preset_space,
    single_shape_space,
    solve_B,
    solve_stationary,
)
from .oracle import (
    DivergenceError,
    ExactResult,
    NonOscillatoryError,
    QuadratureConvergenceError,
    exact_period_ode,
    exact_period_quadrature,
    trajectory,
)
from .audit import (
    AuditReport,
    ClosedFormDomainError,
    Finding,
    NoStationaryPointError,
    classify_triviality,
    combined_strength,
    full_audit,
    resonance_frequency,
    two_shape_coefficients,
    two_shape_frequency,
)

__version__ = "0.1.0"
