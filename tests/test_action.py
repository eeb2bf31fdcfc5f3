import math

import numpy as np
import pytest

from oscaudit.models import OscillatorProblem, Polynomial, duffing
from oscaudit.action import (
    BracketError,
    QuadraticForm,
    SingularMatrixError,
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
from oscaudit.audit import full_audit, two_shape_frequency

from conftest import gauss_integral


def _integrand_factory(problem, shape, omega):
    """Pointwise basis shape and derivative, independent of the series algebra."""

    def phi(t):
        return sum(c * math.cos(k * omega * t) for k, c in shape.items())

    def dphi(t):
        return sum(-c * k * omega * math.sin(k * omega * t) for k, c in shape.items())

    def forcing(t):
        u0 = problem.amplitude * math.cos(omega * t)
        return problem.epsilon * problem.nonlinearity(u0) + (
            problem.omega0_sq - omega**2
        ) * u0

    return phi, dphi, forcing


def test_trial_space_presets():
    single = preset_space("al-single")
    assert single.dimension == 1
    assert single.shapes[0] == {1: 1.0, 5: -1.0 / 3.0}
    double = preset_space("al-double")
    assert double.dimension == 2
    assert double.shapes[0] == {1: 1.0, 3: -0.2}
    assert double.shapes[1] == {3: 0.2, 5: -1.0 / 7.0}
    with pytest.raises(ValueError):
        preset_space("al-triple")


def test_trial_space_rejects_empty_shape():
    with pytest.raises(ValueError):
        TrialSpace("bad", ({},))
    with pytest.raises(ValueError):
        TrialSpace("bad", ({1: 0.0},))
    with pytest.raises(ValueError, match="no shapes"):
        TrialSpace("bad", ())


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_trial_space_rejects_non_finite_coefficient(value):
    with pytest.raises(ValueError, match="harmonic 5"):
        TrialSpace("bad", ({1: 1.0, 5: value},))


def test_trial_space_rejects_dependent_shapes():
    with pytest.raises(ValueError):
        TrialSpace("bad", ({1: 1.0, 3: -0.5}, {1: 2.0, 3: -1.0}))


def test_assemble_linear_problem_has_zero_forcing():
    problem = duffing(1.0, 0.0)
    form = assemble(problem, single_shape_space(), 1.0)
    assert form.vector[0] == 0.0
    assert solve_B(form) == pytest.approx([0.0])


def test_assemble_closed_forms():
    problem = duffing(1.3, 2.1)
    omega = 1.37
    form = assemble(problem, single_shape_space(), omega)
    g_expected = (math.pi / omega) * (
        (1.0 - omega**2) * 1.3 + 0.75 * 2.1 * 1.3**3
    )
    m_expected = -(8.0 / 3.0) * math.pi * omega
    assert form.vector[0] == pytest.approx(g_expected, rel=1e-14)
    assert form.matrix[0, 0] == pytest.approx(m_expected, rel=1e-14)


def test_assemble_matches_quadrature_randomised():
    rng = np.random.default_rng(321)
    for space in (single_shape_space(), double_shape_space()):
        for _ in range(4):
            omega = rng.uniform(0.5, 3.0)
            amplitude = rng.uniform(0.5, 2.0)
            eps = rng.uniform(0.0, 10.0)
            problem = duffing(amplitude, eps)
            form = assemble(problem, space, omega)
            period = 2.0 * math.pi / omega
            pieces = [
                _integrand_factory(problem, shape, omega) for shape in space.shapes
            ]
            for i, (phi_i, dphi_i, forcing) in enumerate(pieces):
                g_ref = gauss_integral(
                    lambda t: forcing(t) * phi_i(t), 0.0, period
                )
                assert abs(form.vector[i] - g_ref) <= 1e-12 * (1.0 + abs(g_ref))
                for j, (phi_j, dphi_j, _) in enumerate(pieces):
                    m_ref = gauss_integral(
                        lambda t: -dphi_i(t) * dphi_j(t)
                        + omega**2 * phi_i(t) * phi_j(t),
                        0.0,
                        period,
                    )
                    assert abs(form.matrix[i, j] - m_ref) <= 1e-12 * (1.0 + abs(m_ref))


def test_assemble_matrix_exactly_symmetric():
    form = assemble(duffing(1.1, 3.0), double_shape_space(), 1.7)
    assert np.array_equal(form.matrix, form.matrix.T)


def test_assemble_rejects_nonpositive_omega():
    with pytest.raises(ValueError):
        assemble(duffing(1.0, 1.0), single_shape_space(), 0.0)


def test_solve_B_homogeneous():
    form = QuadraticForm(np.array([[2.0, 0.0], [0.0, 3.0]]), np.zeros(2))
    assert solve_B(form) == pytest.approx([0.0, 0.0])


def test_solve_B_scalar():
    form = QuadraticForm(np.array([[-4.0]]), np.array([2.0]))
    assert solve_B(form) == pytest.approx([0.5])


def test_solve_B_singular_for_pure_fundamental_shape():
    # A lone cos(w t) shape annihilates the quadratic part of the
    # functional, so the form degenerates at every frequency.
    space = TrialSpace("fundamental", ({1: 1.0},))
    form = assemble(duffing(1.0, 1.0), space, 1.2)
    with pytest.raises(SingularMatrixError):
        solve_B(form)


def test_solve_B_rejects_a_matrix_that_is_only_rounding():
    # Harmonic 1 has weight 1 - 1^2 = 0 in M, so M is exactly zero here; a
    # matrix summed from inner products leaves a rounding residue instead,
    # which a solve turns into a huge B.
    space = TrialSpace("fundamental", ({1: -0.01171875},))
    problem = OscillatorProblem(1.0, 1.0, Polynomial({5: 1.0}), 1.0)
    form = assemble(problem, space, 1.2747548783981963)
    assert form.matrix[0, 0] == 0.0
    with pytest.raises(SingularMatrixError):
        solve_B(form)


def test_d_omega_zero_on_linear_trivial_ray():
    problem = duffing(1.0, 0.0)
    for omega in (0.6, 1.0, 2.4):
        assert d_omega(problem, single_shape_space(), omega, [0.0]) == 0.0


def test_d_omega_joint_stationarity_at_resonance_balance():
    problem = duffing(1.0, 1.0)
    omega = math.sqrt(1.75)
    space = single_shape_space()
    assert d_omega(problem, space, omega, [0.0]) == 0.0
    form = assemble(problem, space, omega)
    assert abs(form.gradient([0.0])[0]) <= 1e-14


def test_d_omega_matches_analytic_derivative():
    # M(w) = pi w Mhat with constant Mhat, and g(w) = (pi/w) K + pi A a1
    # (w0^2/w - w); differentiating those closed forms term-wise in floats
    # gives an independent reference, off by a few ulps of its terms.
    rng = np.random.default_rng(42)
    for trial in range(10):
        amplitude = rng.uniform(0.5, 2.0)
        eps = rng.uniform(0.0, 10.0)
        omega = rng.uniform(0.8, 3.0)
        problem = duffing(amplitude, eps)
        space = double_shape_space() if trial % 2 else single_shape_space()
        b = rng.uniform(-1.0, 1.0, space.dimension)
        form = assemble(problem, space, omega)
        mhat = form.matrix / (math.pi * omega)
        a1 = np.array([shape.get(1, 0.0) for shape in space.shapes])
        k_const = (omega / math.pi) * form.vector - amplitude * a1 * (
            problem.omega0_sq - omega**2
        )
        analytic = 0.5 * math.pi * (b @ mhat @ b) + float(
            b
            @ (
                -math.pi * k_const / omega**2
                + math.pi * amplitude * a1 * (-problem.omega0_sq / omega**2 - 1.0)
            )
        )
        # K carries the rounding of g and of the linear part it cancels
        linear = amplitude * np.abs(a1) * abs(problem.omega0_sq - omega**2)
        magnitude = 0.5 * math.pi * (np.abs(b) @ np.abs(mhat) @ np.abs(b)) + float(
            np.abs(b)
            @ (
                math.pi * (np.abs(k_const) + 2.0 * linear) / omega**2
                + math.pi * amplitude * np.abs(a1) * (problem.omega0_sq / omega**2 + 1.0)
            )
        )
        exact = d_omega(problem, space, omega, b)
        assert abs(exact - analytic) <= 16.0 * 2.0**-52 * magnitude


def test_d_omega_rejects_nonpositive_omega():
    with pytest.raises(ValueError):
        d_omega(duffing(1.0, 1.0), single_shape_space(), -1.0, [0.0])


def test_solve_stationary_single_shape_trivial_branch():
    points = solve_stationary(duffing(1.0, 1.0), single_shape_space())
    assert len(points) == 1
    point = points[0]
    assert point.omega == pytest.approx(math.sqrt(1.75), rel=1e-12)
    assert np.max(np.abs(point.amplitudes)) == 0.0
    assert point.action_value == 0.0
    assert point.branch == "continued-from-linear"


def test_solve_stationary_linear_limit():
    points = solve_stationary(duffing(1.0, 0.0), single_shape_space())
    assert len(points) == 1
    assert points[0].omega == pytest.approx(1.0, rel=1e-12)
    assert np.max(np.abs(points[0].amplitudes)) <= 1e-12


def test_solve_stationary_double_shape_matches_radical():
    points = solve_stationary(duffing(1.0, 1.0), double_shape_space())
    assert len(points) == 1
    point = points[0]
    assert point.omega == pytest.approx(two_shape_frequency(1.0), rel=1e-9)
    assert np.max(np.abs(point.amplitudes)) > 1e-3  # non-trivial correction
    assert point.branch == "continued-from-linear"


def test_solve_stationary_grad_norm_within_tolerance():
    for space in (single_shape_space(), double_shape_space()):
        for point in solve_stationary(duffing(1.0, 1.0), space):
            assert point.grad_norm <= 1e-10 * (1.0 + abs(point.action_value))


def test_solve_stationary_envelope_property():
    # with dJ/dB = 0 at the point, the total derivative along B(w) equals
    # the partial derivative at frozen B
    problem = duffing(1.0, 1.0)
    for space in (single_shape_space(), double_shape_space()):
        for point in solve_stationary(problem, space):
            h = 1e-4 * point.omega

            def j_on_curve(w):
                form = assemble(problem, space, w)
                return form.value(solve_B(form))

            def central(hh):
                return (
                    j_on_curve(point.omega + hh) - j_on_curve(point.omega - hh)
                ) / (2.0 * hh)

            total = (4.0 * central(0.5 * h) - central(h)) / 3.0
            partial = d_omega(problem, space, point.omega, point.amplitudes)
            assert abs(total - partial) <= 1e-10 * (1.0 + abs(point.action_value))


def test_solve_stationary_empty_region():
    # no stationary point beyond the resonance-balance frequency
    points = solve_stationary(duffing(1.0, 1.0), single_shape_space(), bracket=(5.0, 6.0))
    assert points == []


def test_solve_stationary_pure_fundamental_shape_stays_on_trivial_ray():
    # M = 0 for a shape with harmonic 1 only; the one stationary point lies on
    # the B = 0 ray at the resonance-balance frequency
    points = solve_stationary(duffing(1.0, 1.0), TrialSpace("custom", ({1: 1.0},)))
    assert len(points) == 1
    point = points[0]
    assert point.branch == "trivial-B"
    assert list(point.amplitudes) == [0.0]
    assert point.action_value == 0.0
    assert point.omega == pytest.approx(math.sqrt(1.75), rel=1e-12)


def test_solve_stationary_shape_without_fundamental_has_no_point():
    # no shape carries harmonic 1, so the forcing's w-dependence never
    # reaches J and w is not stationary anywhere
    points = solve_stationary(duffing(1.0, 1.0), TrialSpace("custom", ({3: 1.0},)))
    assert points == []


def test_solve_stationary_invalid_bracket():
    with pytest.raises(BracketError):
        solve_stationary(duffing(1.0, 1.0), single_shape_space(), bracket=(2.0, 1.0))
    with pytest.raises(BracketError):
        solve_stationary(duffing(1.0, 1.0), single_shape_space(), bracket=(-1.0, 1.0))


def test_default_bracket_requires_positive_scale():
    assert default_bracket(duffing(1.0, 0.0)) == (0.5, 3.0)
    problem = duffing(1.0, 1.0)
    lo, hi = default_bracket(problem)
    assert 0.0 < lo < math.sqrt(1.75) < hi
    with pytest.raises(BracketError):
        default_bracket(duffing(1.0, -2.0))  # softened past the linear stiffness


# f = -u^3 + u^5 softens, then hardens. On the single shape the root
# continued from the linear limit is s = q / g1 with q = eps g0 + w0^2 g1,
# which reaches s = 0 where q does; past that the only positive root is
# s = -3 q / g1, the continuation of s = -3 w0^2.
SOFT_HARD = Polynomial({3: -1.0, 5: 1.0})


def test_label_far_past_the_death_of_the_linear_branch():
    # the linear branch reaches s = 0 at eps = -0.594 (w0^2 = 2, A = 1.75)
    problem = OscillatorProblem(2.0, -10.0, SOFT_HARD, 1.75)
    points = solve_stationary(problem, single_shape_space())
    assert len(points) == 1
    assert points[0].omega == pytest.approx(9.7512268859, rel=1e-10)
    assert points[0].branch == "stationary"


def test_label_just_past_the_death_of_the_linear_branch():
    # the linear branch reaches s = 0 at eps = -0.222 (w0^2 = 1, A = 1.85)
    problem = OscillatorProblem(1.0, -0.36, SOFT_HARD, 1.85)
    points = solve_stationary(problem, single_shape_space())
    assert len(points) == 1
    assert points[0].branch == "stationary"


def test_label_follows_the_linear_branch_at_any_strength():
    points = solve_stationary(duffing(1.0, 1e200), single_shape_space())
    assert len(points) == 1
    assert points[0].omega == pytest.approx(math.sqrt(0.75) * 1e100, rel=1e-12)
    assert points[0].branch == "continued-from-linear"


REFERENCE_DIGITS = 50


def _reference_frequencies(mpmath, problem, space):
    """Positive roots w of (alpha/2) s^2 + beta s - (3/2) gamma = 0, s = w^2,
    at 50 digits, from Mhat, g0 and g1 formed in mpmath."""
    with mpmath.workdps(REFERENCE_DIGITS):
        amplitude = mpmath.mpf(problem.amplitude)
        harmonics = {}
        for p, c in problem.nonlinearity.coefficients.items():
            for j in range((p + 1) // 2):
                harmonics[p - 2 * j] = harmonics.get(p - 2 * j, 0) + (
                    mpmath.mpf(c) * amplitude**p * math.comb(p, j) / mpmath.mpf(2) ** (p - 1)
                )
        shapes = [{k: mpmath.mpf(a) for k, a in s.items()} for s in space.shapes]
        n = len(shapes)
        mhat = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                mhat[i, j] = sum(
                    (2 if k == 0 else 1) * (1 - k * k) * a * shapes[j].get(k, 0)
                    for k, a in shapes[i].items()
                )
        g1 = mpmath.matrix([amplitude * s.get(1, 0) for s in shapes])
        g0 = mpmath.matrix([
            sum((2 if k == 0 else 1) * a * harmonics.get(k, 0) for k, a in s.items())
            for s in shapes
        ])
        q = mpmath.mpf(problem.epsilon) * g0 + mpmath.mpf(problem.omega0_sq) * g1
        inverse = mpmath.inverse(mhat)
        alpha = (g1.T * inverse * g1)[0]
        beta = (q.T * inverse * g1)[0]
        gamma = (q.T * inverse * q)[0]
        root = mpmath.sqrt(beta**2 + 3 * alpha * gamma)
        squares = [(-beta + root) / alpha, (-beta - root) / alpha]
        return sorted(float(mpmath.sqrt(s)) for s in squares if s > 0)


@pytest.mark.parametrize(
    "problem, space, bracket",
    [
        (duffing(1.0, 1.0), double_shape_space(), None),
        # eps < 0 puts the ray's root at s < 0: the point is s = -3 q / g1
        (
            OscillatorProblem(1.0, -2.0, Polynomial({3: 1.0, 5: 0.2}), 1.0),
            single_shape_space(),
            (0.5, 3.0),
        ),
        (
            duffing(1.0, 1.0),
            TrialSpace(
                "three",
                (
                    {1: 1.0, 3: -0.2},
                    {3: 0.2, 5: -1.0 / 7.0},
                    {5: 1.0 / 7.0, 7: -1.0 / 9.0},
                ),
            ),
            None,
        ),
    ],
    ids=["al-double-duffing", "al-single-cubic-quintic", "three-shapes"],
)
def test_solve_stationary_frequency_is_correctly_rounded(problem, space, bracket):
    mpmath = pytest.importorskip("mpmath")
    points = solve_stationary(problem, space, bracket)
    off_ray = [p for p in points if any(b != 0.0 for b in p.amplitudes)]
    assert off_ray
    reference = _reference_frequencies(mpmath, problem, space)
    for point in off_ray:
        assert point.omega in reference


def test_solve_stationary_double_shape_duffing_bits():
    (point,) = solve_stationary(duffing(1.0, 1.0), double_shape_space())
    assert point.omega == 1.3114948107911968


THREE_SHAPES = TrialSpace(
    "three",
    ({1: 1.0, 3: -0.2}, {3: 0.2, 5: -1.0 / 7.0}, {5: 1.0 / 7.0, 7: -1.0 / 9.0}),
)


def _quadrature_reference(mpmath, problem, space, omega, amplitudes):
    """B, J, dJ/dw (moving and frozen window) and u1(0) from 50-digit
    quadratures of the definitions.

    M and g are integrated over one period at ``omega`` and B solves
    M B = -g; J integrates the Lagrangian at that B. Both derivatives
    differentiate the integrated Lagrangian at the reported ``amplitudes``:
    over [0, 2 pi / w] and over the window frozen at [0, 2 pi / omega].
    u1(0) sums the shapes at t = 0 with the reported ``amplitudes``.
    """
    with mpmath.workdps(REFERENCE_DIGITS):
        w_point = mpmath.mpf(omega)
        shapes = [{k: mpmath.mpf(a) for k, a in s.items()} for s in space.shapes]
        f = {p: mpmath.mpf(c) for p, c in problem.nonlinearity.coefficients.items()}
        amplitude, eps, w0_sq = (
            mpmath.mpf(x) for x in (problem.amplitude, problem.epsilon, problem.omega0_sq)
        )

        def phi(shape, w, t):
            return sum(a * mpmath.cos(k * w * t) for k, a in shape.items())

        def dphi(shape, w, t):
            return -sum(a * k * w * mpmath.sin(k * w * t) for k, a in shape.items())

        def forcing(w, t):
            u0 = amplitude * mpmath.cos(w * t)
            return eps * sum(c * u0**p for p, c in f.items()) + (w0_sq - w * w) * u0

        def integral(fn, end):
            return mpmath.quad(fn, [0, end], method="gauss-legendre")

        def action(b, w, end):
            def lagrangian(t):
                u1 = sum(y * phi(s, w, t) for y, s in zip(b, shapes))
                du1 = sum(y * dphi(s, w, t) for y, s in zip(b, shapes))
                return -du1**2 / 2 + w * w * u1**2 / 2 + forcing(w, t) * u1

            return integral(lagrangian, end)

        period = 2 * mpmath.pi / w_point
        n = len(shapes)
        m, g = mpmath.matrix(n, n), mpmath.matrix(n, 1)
        for i, s_i in enumerate(shapes):
            g[i] = integral(lambda t: forcing(w_point, t) * phi(s_i, w_point, t), period)
            for j, s_j in enumerate(shapes):
                m[i, j] = integral(
                    lambda t: -dphi(s_i, w_point, t) * dphi(s_j, w_point, t)
                    + w_point**2 * phi(s_i, w_point, t) * phi(s_j, w_point, t),
                    period,
                )
        b = list(mpmath.lu_solve(m, -g))
        reported = [mpmath.mpf(float(x)) for x in amplitudes]
        total = mpmath.diff(lambda w: action(reported, w, 2 * mpmath.pi / w), w_point)
        frozen = mpmath.diff(lambda w: action(reported, w, period), w_point)
        u1_0 = sum(y * phi(s, w_point, 0) for y, s in zip(reported, shapes))
        return ([float(x) for x in b], float(action(b, w_point, period)), float(total),
                float(frozen), float(u1_0))


@pytest.mark.parametrize(
    "problem, space, omega, amplitudes, action, with_period_term, frozen_period, u1_at_0",
    [
        (
            duffing(1.0, 1.0),
            double_shape_space(),
            1.3114948107911968,
            [-0.0007827241439374342, 0.03558795500425494],
            0.002149977527375229,
            7.249499233991661e-16,
            0.001445680862923615,
            0.0014074181136646215,
        ),
        (
            OscillatorProblem(1.0, 1.0, Polynomial({3: 1.0, 5: 0.2}), 1.0),
            THREE_SHAPES,
            1.3588061907117877,
            [-0.001416675001121147, 0.05588249927283401, 0.026181150922825056],
            0.004031682845979171,
            4.099094930583652e-15,
            0.0035055867447453355,
            0.0028910933201801076,
        ),
    ],
    ids=["al-double-duffing", "three-shapes-cubic-quintic"],
)
def test_point_values_are_correctly_rounded(
    problem, space, omega, amplitudes, action, with_period_term, frozen_period, u1_at_0
):
    mpmath = pytest.importorskip("mpmath")
    (point,) = solve_stationary(problem, space)
    assert point.omega == omega
    reference = _quadrature_reference(mpmath, problem, space, omega, point.amplitudes)
    assert reference == (amplitudes, action, with_period_term, frozen_period, u1_at_0)
    assert list(point.amplitudes) == amplitudes
    assert point.action_value == action
    assert d_omega(problem, space, omega, point.amplitudes) == with_period_term
    assert (
        d_omega(problem, space, omega, point.amplitudes, include_period_term=False)
        == frozen_period
    )
    report = full_audit(problem, space)
    assert report.bc_u1_at_0 == u1_at_0
    assert report.domega_with_period_term == with_period_term
    assert report.domega_frozen_period == frozen_period
