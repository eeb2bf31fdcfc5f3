"""Property tests of the exact oscillation decision against 50-digit mpmath.

The reference takes the minimum of a polynomial over an interval at the
interval's ends and at the real parts of every root of its derivative
(``mpmath.polyroots``); a minimum > 0 means positive there. Draws whose
minimum lies within 1e-30 of 0 are skipped: there 50 digits do not decide.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from oscaudit.models import OscillatorProblem, Polynomial, positive_on  # noqa: E402
from oscaudit.oracle import NonOscillatoryError, _check_oscillatory  # noqa: E402

REFERENCE_DIGITS = 50
UNDECIDED = 1e-30
SETTINGS = settings(max_examples=200, derandomize=True, deadline=None, database=None)


def _mpf(x):
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def _minimum(p, lo, hi):
    """min over [lo, hi] of the polynomial with mpf coefficients p, lowest first."""
    while p and p[-1] == 0:
        p = p[:-1]
    points = [lo, hi]
    slope = [k * c for k, c in enumerate(p)][1:]
    if len(slope) > 1:
        roots = mpmath.polyroots(slope[::-1], maxsteps=200, extraprec=200)
        points += [mpmath.re(r) for r in roots if lo <= mpmath.re(r) <= hi]
    return min(mpmath.polyval(p[::-1], x) for x in points) if p else mpmath.mpf(0)


def _depth_minimum(problem):
    """min over [0, A^2] of D, V(A) - V(u) = (A^2 - u^2) D(u^2), with D's
    coefficients d_m = sum_{k > m} P_k A^(2 (k - 1 - m)) from the problem's doubles."""
    a_sq = _mpf(problem.amplitude) ** 2
    halves = {1: _mpf(problem.omega0_sq) / 2}
    for p, c in problem.nonlinearity.coefficients.items():
        k = (p + 1) // 2
        halves[k] = halves.get(k, 0) + _mpf(problem.epsilon) * _mpf(c) / (p + 1)
    top = max(halves)
    depth = [sum(halves.get(k, 0) * a_sq ** (k - 1 - m) for k in range(m + 1, top + 1))
             for m in range(top)]
    return _minimum(depth, mpmath.mpf(0), a_sq)


# magnitudes from 1e-3 up: a coefficient many orders below the rest puts
# roots of D' so far apart that polyroots does not converge
COEFFICIENT = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, size: sign * size, st.sampled_from((-1.0, 1.0)), st.floats(1e-3, 5.0)),
)


@st.composite
def problems(draw):
    f = Polynomial({p: draw(COEFFICIENT) for p in (3, 5, 7, 9)})
    return OscillatorProblem(
        draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0))),
        draw(st.floats(-10.0, 10.0)),
        f,
        draw(st.floats(0.05, 3.0)),
    )


@SETTINGS
@given(problems())
def test_oscillation_verdict_matches_the_reference(problem):
    with mpmath.workdps(REFERENCE_DIGITS):
        minimum = _depth_minimum(problem)
    assume(abs(minimum) > UNDECIDED)
    try:
        _check_oscillatory(problem)
        oscillates = True
    except NonOscillatoryError:
        oscillates = False
    assert oscillates == (minimum > 0)


RATIONAL = st.fractions(min_value=-10, max_value=10, max_denominator=50)


@SETTINGS
@given(st.lists(RATIONAL, min_size=1, max_size=7), RATIONAL, RATIONAL)
def test_positive_on_matches_the_reference(coefficients, a, b):
    lo, hi = min(a, b), max(a, b)
    with mpmath.workdps(REFERENCE_DIGITS):
        minimum = _minimum([_mpf(c) for c in coefficients], _mpf(lo), _mpf(hi))
    assume(abs(minimum) > UNDECIDED)
    assert positive_on(coefficients, lo, hi) == (minimum > 0)
