import decimal
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.special import ellipk

from conftest import child_env
from oscaudit import oracle
from oscaudit.models import CONTEXT, OscillatorProblem, Polynomial, duffing
from oscaudit.oracle import (
    NonOscillatoryError,
    exact_period_ode,
    exact_period_quadrature,
    leggauss,
    trajectory,
)

# frozen from the node-doubled energy integral; cross-checked below against
# the Taylor integrator and the complete elliptic integral
OMEGA_EXACT_UNIT_CUBIC = 1.3177760649655266


def test_quadrature_harmonic_oscillator():
    for amplitude in (0.5, 1.0, 2.0):
        result = exact_period_quadrature(duffing(amplitude, 0.0))
        assert result.period == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert result.frequency == pytest.approx(1.0, abs=1e-13)


def test_quadrature_unit_cubic_pinned():
    result = exact_period_quadrature(duffing(1.0, 1.0))
    assert result.frequency == pytest.approx(OMEGA_EXACT_UNIT_CUBIC, abs=1e-10)
    assert result.est_error < 1e-12
    assert result.method == "quadrature"


def test_quadrature_agrees_with_elliptic_integral():
    # independent closed form for the hardening cubic:
    # w = pi sqrt(1 + eps A^2) / (2 K(m)), m = eps A^2 / (2 (1 + eps A^2))
    for eps, amplitude in ((1.0, 1.0), (0.5, 1.3), (10.0, 0.7)):
        s = eps * amplitude**2
        reference = math.pi * math.sqrt(1.0 + s) / (2.0 * ellipk(s / (2.0 * (1.0 + s))))
        result = exact_period_quadrature(duffing(amplitude, eps))
        assert result.frequency == pytest.approx(reference, rel=1e-12)


def test_quadrature_scaling_invariance():
    # u -> A v maps (eps, A) onto (eps A^2, 1): the period depends on the
    # product only
    a = exact_period_quadrature(duffing(0.5, 4.0)).frequency
    b = exact_period_quadrature(duffing(1.0, 1.0)).frequency
    assert abs(a - b) <= 1e-10 * b


def test_quadrature_rejects_non_oscillatory_well():
    # strong softening: V(u) = u^2/2 - u^4/2 has V(1) = V(0), no confining well
    with pytest.raises(NonOscillatoryError):
        exact_period_quadrature(duffing(1.0, -2.0))


def test_quadrature_handles_pure_quintic_well():
    problem = OscillatorProblem(0.0, 1.0, Polynomial({5: 1.0}), 1.0)
    result = exact_period_quadrature(problem)
    assert result.period > 0.0
    ode = exact_period_ode(problem)
    assert result.period == pytest.approx(ode.period, rel=1e-8)


def test_ode_harmonic_oscillator():
    result = exact_period_ode(duffing(1.0, 0.0))
    assert result.period == pytest.approx(2.0 * math.pi, rel=1e-11)
    assert result.method == "ode-event"


# the route integrates x = u / A, so its tolerances scale with A
TINY_AMPLITUDES = ((1.0, 1e-6), (1.0, 1e-10), (1.0, 1e-13), (1.0, 1e-200))
# and in tau = lam t, lam^2 = 2 V(1), so its step sizes scale with the period
LARGE_AMPLITUDES = ((1.0, 1e15), (1.0, 1e50), (1.0, 1e100), (1.0, 1e150))


def test_ode_agrees_with_quadrature():
    cases = ((0.1, 1.0), (1.0, 1.0), (10.0, 2.0)) + TINY_AMPLITUDES + LARGE_AMPLITUDES
    for eps, amplitude in cases:
        quad = exact_period_quadrature(duffing(amplitude, eps))
        ode = exact_period_ode(duffing(amplitude, eps))
        assert abs(quad.period - ode.period) <= 1e-8 * quad.period


def test_ode_energy_drift_bounded():
    for eps, amplitude in ((1.0, 1.0), (10.0, 2.0)) + TINY_AMPLITUDES + LARGE_AMPLITUDES:
        result = exact_period_ode(duffing(amplitude, eps))
        assert result.est_error <= 1e-8


def test_quarter_period_symmetry():
    problem = duffing(1.0, 1.0)
    period = exact_period_ode(problem).period
    u_half = trajectory(problem, [period / 2.0])[0]
    assert abs(u_half + problem.amplitude) <= 1e-8 * problem.amplitude


def test_ode_integrates_once(monkeypatch):
    calls, original = [], oracle.solve_ivp

    def counting(*args, **options):
        calls.append(options)
        return original(*args, **options)

    monkeypatch.setattr(oracle, "solve_ivp", counting)
    exact_period_ode(duffing(1.0, 1.0))
    assert len(calls) == 1


def test_error_estimates_are_floats():
    problem = duffing(1.3, 0.5)
    assert type(exact_period_quadrature(problem).est_error) is float
    assert type(exact_period_ode(problem).est_error) is float


def test_quarter_period_symmetry_at_a_tiny_amplitude():
    problem = duffing(1e-13, 1.0)
    period = exact_period_quadrature(problem).period
    u_half = trajectory(problem, [period / 2.0])[0]
    assert abs(u_half + problem.amplitude) <= 1e-8 * problem.amplitude


def test_frequency_monotone_in_strength():
    strengths = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    freqs = [exact_period_quadrature(duffing(1.0, eps)).frequency for eps in strengths]
    assert all(a < b for a, b in zip(freqs, freqs[1:]))


def test_trajectory_starts_at_amplitude():
    problem = duffing(1.3, 0.5)
    times = np.linspace(0.0, 1.0, 5)
    u = trajectory(problem, times)
    assert u[0] == pytest.approx(1.3)


# -- the Taylor route ----------------------------------------------------------

# omega0^2 = eps = 1, f = -3u^3 + 2u^5: V(A) clears the interior shoulder of
# V at u = 1/sqrt(2) by 1e-4; the 50-digit mpmath energy integral
SHOULDER_WELL = OscillatorProblem(1.0, 1.0, Polynomial({3: -3.0, 5: 2.0}), 1.118272138925472)
SHOULDER_PERIOD = 38.28524636855089903


def test_ode_on_the_shoulder_well():
    period = exact_period_ode(SHOULDER_WELL).period
    assert abs(period - SHOULDER_PERIOD) <= 1e-13 * SHOULDER_PERIOD


@pytest.mark.parametrize("eps", [-0.99, -0.999, -0.9999, -0.99999, -0.999999])
def test_ode_agrees_with_quadrature_near_the_separatrix(eps):
    quad = exact_period_quadrature(duffing(1.0, eps))
    ode = exact_period_ode(duffing(1.0, eps))
    assert abs(ode.period - quad.period) <= 1e-11 * quad.period


@pytest.mark.parametrize(
    "problem, period",
    [
        (duffing(1.0, 1.0), 4.768022029102461),
        (duffing(1.0, -0.999999), 44.957713665006686),
        (SHOULDER_WELL, 38.285246368549124),
    ],
    ids=["duffing", "near-separatrix", "shoulder"],
)
def test_ode_bits_are_pinned(problem, period):
    # float + - * / and ldexp/frexp only: the same bits on every platform
    # and Python version (a float ``sum`` would differ from Python 3.12 on)
    assert exact_period_ode(problem).period == period


def test_ode_matches_quadrature_on_seeded_wells():
    pytest.importorskip("hypothesis")
    from hypothesis import given, reject, settings, strategies as st

    coefficient = st.floats(-2.0, 2.0).filter(lambda c: c != 0.0)

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(
        st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 3.0)),
        st.dictionaries(st.sampled_from((3, 5, 7, 9)), coefficient, min_size=1, max_size=3),
        st.floats(-1.0, 8.0),
        st.floats(0.2, 2.5),
    )
    def check(omega0_sq, f, eps, amplitude):
        problem = OscillatorProblem(omega0_sq, eps, Polynomial(f), amplitude)
        try:
            quad = exact_period_quadrature(problem)
        except (NonOscillatoryError, oracle.QuadratureConvergenceError):
            reject()
        ode = exact_period_ode(problem)
        assert abs(ode.period - quad.period) <= 1e-12 * quad.period

    check()


# -- correctly rounded against 50-digit references ---------------------------

REFERENCE_DIGITS = 50
GOLDEN_CELLS = [(eps, a) for eps in (0.1, 1.0, 10.0) for a in (0.5, 1.0, 2.0)]
SOFTENING_CELLS = [(eps, 1.0) for eps in (-0.9, -0.99, -0.999)]


def _elliptic_frequency(mpmath, eps, amplitude):
    """pi sqrt(1 + rho) / (2 K(m)), m = rho / (2 (1 + rho)), rho = eps A^2."""
    with mpmath.workdps(REFERENCE_DIGITS):
        rho = mpmath.mpf(eps) * mpmath.mpf(amplitude) ** 2
        m = rho / (2 * (1 + rho))
        return float(mpmath.pi * mpmath.sqrt(1 + rho) / (2 * mpmath.ellipk(m)))


def _energy_integral_frequency(mpmath, problem):
    """pi / (2 Q), Q = int_0^{pi/2} dtheta / sqrt(2 R(A sin theta)), where
    V(A) - V(u) = (A^2 - u^2) R(u) for the even potential V."""
    with mpmath.workdps(REFERENCE_DIGITS):
        a = mpmath.mpf(problem.amplitude)
        potential = {2: mpmath.mpf(problem.omega0_sq) / 2}
        for p, c in problem.nonlinearity.coefficients.items():
            potential[p + 1] = potential.get(p + 1, 0) + (
                mpmath.mpf(problem.epsilon) * mpmath.mpf(c) / (p + 1)
            )

        def r(u):
            return sum(
                c * sum(a ** (2 * j) * u ** (q - 2 - 2 * j) for j in range(q // 2))
                for q, c in potential.items()
            )

        quarter = mpmath.quad(
            lambda theta: 1 / mpmath.sqrt(2 * r(a * mpmath.sin(theta))),
            [0, mpmath.pi / 4, mpmath.pi / 2],
        )
        return float(mpmath.pi / (2 * quarter))


@pytest.mark.parametrize("eps, amplitude", GOLDEN_CELLS + SOFTENING_CELLS)
def test_quadrature_correctly_rounded_duffing(eps, amplitude):
    mpmath = pytest.importorskip("mpmath")
    result = exact_period_quadrature(duffing(amplitude, eps))
    assert result.frequency == _elliptic_frequency(mpmath, eps, amplitude)


@pytest.mark.parametrize(
    "problem",
    [
        OscillatorProblem(0.0, 1.0, Polynomial({5: 1.0}), 1.0),
        OscillatorProblem(1.0, 0.7, Polynomial({3: 1.0, 5: 0.2}), 1.3),
    ],
    ids=["pure-quintic", "cubic-quintic"],
)
def test_quadrature_correctly_rounded_quintic_well(problem):
    mpmath = pytest.importorskip("mpmath")
    result = exact_period_quadrature(problem)
    assert result.frequency == _energy_integral_frequency(mpmath, problem)


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
def test_leggauss_matches_mpmath_legendre_roots(n):
    mpmath = pytest.importorskip("mpmath")
    nodes, weights = leggauss(n)
    assert len(nodes) == len(weights) == n
    assert list(nodes) == sorted(nodes)
    half = n // 2
    assert [x.copy_negate() for x in nodes[:half]] == list(nodes[half:][::-1])
    assert list(weights[:half]) == list(weights[half:][::-1])
    digits = REFERENCE_DIGITS + 10

    def rounded(value):  # the correctly rounded value in CONTEXT's digits
        return CONTEXT.plus(decimal.Decimal(mpmath.nstr(value, digits)))

    with mpmath.workdps(digits):
        for x, w in zip(nodes[half:], weights[half:]):
            root = mpmath.mpf(str(x))
            for _ in range(3):  # Newton from the node onto the root of P_n
                p_n = mpmath.legendre(n, root)
                slope = n * (mpmath.legendre(n - 1, root) - root * p_n) / (1 - root**2)
                root -= p_n / slope
            weight = 2 / ((1 - root**2) * slope**2)
            assert (x, w) == (rounded(root), rounded(weight))


def test_quadrature_rejects_separatrix_amplitude():
    # V(u) = u^2/2 - u^4/4 has its barrier top at u = 1: V'(1) = 0, the
    # motion from A = 1 never returns and has no finite period
    with pytest.raises(NonOscillatoryError):
        exact_period_quadrature(duffing(1.0, -1.0))


def test_quadrature_oscillation_check_does_not_overflow():
    # A^2 = 1e320 is not a double; D is sampled through scaled coefficients,
    # and any RuntimeWarning would fail the suite
    result = exact_period_quadrature(duffing(1e160, 1.0))
    assert result.frequency == 8.47213084793979e159


def test_quadrature_raises_when_the_frequency_overflows():
    problem = OscillatorProblem(1.0, 1.0, Polynomial({3: -1.0, 5: 1.0}), 1e160)
    with pytest.raises(OverflowError, match="frequency overflows"):
        exact_period_quadrature(problem)


def test_no_route_loads_scipy_and_the_ode_route_loads_no_numpy():
    # the CLI, an audit, a sweep and both oracle routes run on floats
    script = (
        "import contextlib, io, sys\n"
        "def loaded():\n"
        "    print('scipy' in sys.modules, 'numpy' in sys.modules)\n"
        "import oscaudit.cli\n"
        "from oscaudit import duffing, exact_period_ode, full_audit, single_shape_space\n"
        "loaded()\n"
        "full_audit(duffing(1.0, 1.0), single_shape_space())\n"
        "loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = oscaudit.cli.main(['sweep', '--eps-grid', '1', '--A-grid', '1'])\n"
        "assert code == 0, code\n"
        "loaded()\n"
        "exact_period_ode(duffing(1.0, 1.0))\n"
        "loaded()\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"] * 8


# -- the exact decision: no sampling ------------------------------------------

# D(v) = (v - 1/2)^2 / 4 exactly: V(A) - V(u) touches 0 at u^2 = 1/2
TOUCHING_WELL = OscillatorProblem(0.625, 1.0, Polynomial({3: -2.0, 5: 1.5}), 1.0)


def _sliver(delta):
    """A = eps = 1 well whose D dips to -delta / 6 at v0, between two of the
    512 points (j / 512)^2 that a sampled check would look at."""
    v0 = ((362 / 512) ** 2 + (363 / 512) ** 2) / 2
    f = Polynomial({3: -(2 / 3) * (1 + 2 * v0), 5: 1.0})
    return OscillatorProblem((v0 * v0 + 2 * v0 - delta) / 3, 1.0, f, 1.0)


@pytest.mark.parametrize("route", [exact_period_quadrature, exact_period_ode])
def test_touching_well_is_rejected_at_once(route):
    started = time.perf_counter()
    with pytest.raises(NonOscillatoryError, match="does not dominate"):
        route(TOUCHING_WELL)
    assert time.perf_counter() - started < 0.05


@pytest.mark.parametrize("route", [exact_period_quadrature, exact_period_ode])
def test_sliver_between_samples_is_rejected(route):
    with pytest.raises(NonOscillatoryError, match="does not dominate"):
        route(_sliver(1e-8))


def test_mirror_of_the_sliver_oscillates():
    depth = oracle._check_oscillatory(_sliver(-1e-8))
    assert min(depth) < 0 < depth[0]


def test_amplitude_at_the_top_of_the_well_names_the_slope():
    # Duffing eps = -1, A = 1: D(A^2) = 0 exactly, D > 0 on [0, A^2)
    with pytest.raises(NonOscillatoryError, match=r"V'\(A\) <= 0"):
        exact_period_ode(duffing(1.0, -1.0))
