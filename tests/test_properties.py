"""Property tests of the stationary solver on random problems and spaces.

Each draw is an odd f with powers 3, 5 and 7, a strength, an amplitude and
one to three cosine shapes on harmonics 1-9. At every point the solver
returns, the closed-form assembly must match brute-force quadrature, the
frequency derivative at the reported point must vanish to within the
rounding of that point, and it must match a Richardson difference of the
assembled J.
"""

import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings, strategies as st  # noqa: E402

from oscaudit.action import (  # noqa: E402
    TrialSpace,
    assemble,
    d_omega,
    solve_B,
    solve_stationary,
)
from oscaudit.models import OscillatorProblem, Polynomial  # noqa: E402

from conftest import gauss_integral  # noqa: E402

UNIT_ROUNDOFF = 2.0**-52
FD_STEP_REL = 1e-4

SHAPE = st.dictionaries(
    st.integers(1, 9),
    st.builds(lambda sign, size: sign * size, st.sampled_from((-1.0, 1.0)), st.floats(0.01, 1.0)),
    min_size=1,
    max_size=3,
)


@st.composite
def problems(draw):
    f = Polynomial({p: draw(st.floats(0.0, 2.0)) for p in (3, 5, 7)})
    return OscillatorProblem(1.0, draw(st.floats(0.05, 10.0)), f, draw(st.floats(0.3, 2.0)))


@st.composite
def spaces(draw):
    shapes = draw(st.lists(SHAPE, min_size=1, max_size=3))
    try:
        return TrialSpace("drawn", tuple(shapes))
    except ValueError:
        reject()


def _fundamental_is_free(space):
    """Whether Mh_ij = sum_k (1 - k^2) a_ik a_jk is exactly singular.

    Harmonic 1 has weight 0 in Mh, so a space whose span holds cos(w t)
    makes J independent of that direction at every w. The determinant is
    taken exactly from the shapes' doubles (harmonics >= 1 here).
    """
    shapes = [{k: Fraction(a) for k, a in shape.items()} for shape in space.shapes]
    mhat = [[sum((1 - k * k) * a * t.get(k, 0) for k, a in s.items()) for t in shapes]
            for s in shapes]
    n = len(mhat)
    det = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        det += (-1) ** inversions * math.prod(mhat[i][perm[i]] for i in range(n))
    return det == 0


def _pointwise(problem, shape, omega):
    """Shape, its derivative and the order-1 forcing as plain functions of t."""

    def phi(t):
        return sum(a * math.cos(k * omega * t) for k, a in shape.items())

    def dphi(t):
        return sum(-a * k * omega * math.sin(k * omega * t) for k, a in shape.items())

    def forcing(t):
        u0 = problem.amplitude * math.cos(omega * t)
        return problem.epsilon * problem.nonlinearity(u0) + (
            problem.omega0_sq - omega**2
        ) * u0

    return phi, dphi, forcing


def _magnitude(problem, space, omega, amplitudes):
    """Sum of the magnitudes of the terms that make up J(B, w) near omega.

    Per harmonic k the matrix part contributes (pi w / 2) (1 + k^2) b_k^2
    and the forcing part (pi / w) F_k b_k, where b_k = sum_i |B_i a_ik| and
    F_k bounds the forcing's k-th coefficient.
    """
    b = {}
    for amplitude, shape in zip(amplitudes, space.shapes):
        for k, a in shape.items():
            b[k] = b.get(k, 0.0) + abs(amplitude * a)
    nonlinear = abs(problem.epsilon) * sum(
        abs(c) * problem.amplitude**p for p, c in problem.nonlinearity.coefficients.items()
    )
    linear = (problem.omega0_sq + omega**2) * problem.amplitude
    return math.pi * sum(
        0.5 * omega * (1 + k * k) * v * v + (nonlinear + (linear if k == 1 else 0.0)) * v / omega
        for k, v in b.items()
    )


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(problems(), spaces())
def test_stationary_points_satisfy_both_conditions(problem, space):
    for point in solve_stationary(problem, space):
        omega = point.omega
        form = assemble(problem, space, omega)
        period = 2.0 * math.pi / omega
        pieces = [_pointwise(problem, shape, omega) for shape in space.shapes]
        for i, (phi_i, dphi_i, forcing) in enumerate(pieces):
            g_ref = gauss_integral(lambda t: forcing(t) * phi_i(t), 0.0, period)
            assert abs(form.vector[i] - g_ref) <= 1e-12 * (1.0 + abs(g_ref))
            for j, (phi_j, dphi_j, _) in enumerate(pieces):
                m_ref = gauss_integral(
                    lambda t: -dphi_i(t) * dphi_j(t) + omega**2 * phi_i(t) * phi_j(t),
                    0.0,
                    period,
                )
                assert abs(form.matrix[i, j] - m_ref) <= 1e-12 * (1.0 + abs(m_ref))

        if _fundamental_is_free(space):
            # no B solves M B = -g uniquely: only the ray's B = 0 is a
            # point, and J vanishes there at every w
            assert not np.any(point.amplitudes)
            assert d_omega(problem, space, omega, point.amplitudes) == 0.0
            continue
        b = point.amplitudes

        def on_curve(w):
            return d_omega(problem, space, w, solve_B(assemble(problem, space, w)))

        def central(hh):
            return (
                assemble(problem, space, omega + hh).value(b)
                - assemble(problem, space, omega - hh).value(b)
            ) / (2.0 * hh)

        # The reported point misses the exact one by the rounding of w (the
        # ray's bisection root, or the correctly rounded quadratic root),
        # which the slope of dJ/dw along B(w) carries into the value, and by
        # the rounding of each B_i, to which dJ/dw responds by at most twice
        # the magnitudes summed into it, S / w.
        delta = 1e-6 * omega
        slope = (on_curve(omega + delta) - on_curve(omega - delta)) / (2.0 * delta)
        magnitude = _magnitude(problem, space, omega, b)
        exact = d_omega(problem, space, omega, b)
        assert abs(exact) <= 16.0 * UNIT_ROUNDOFF * (magnitude / omega + omega * abs(slope))

        # Cross-check: each J(w +- h) a difference uses is off by a few ulps
        # of its terms' magnitude, amplified by 1/h.
        h = FD_STEP_REL * omega
        richardson = (4.0 * central(0.5 * h) - central(h)) / 3.0
        tolerance = 16.0 * UNIT_ROUNDOFF * (magnitude / h + omega * abs(slope))
        assert abs(richardson - exact) <= tolerance
