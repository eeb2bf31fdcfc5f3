import random
from fractions import Fraction

import numpy as np
import pytest

from oscaudit.models import (
    OscillatorProblem,
    Polynomial,
    duffing,
    positive_on,
    potential,
    total_potential,
)


def test_duffing_preset():
    problem = duffing(1.0, 1.0)
    assert problem.omega0_sq == 1.0
    assert problem.epsilon == 1.0
    assert problem.amplitude == 1.0
    assert problem.nonlinearity == Polynomial({3: 1.0})


def test_duffing_linear_limit():
    problem = duffing(1.0, 0.0)
    assert problem.epsilon == 0.0


def test_duffing_rejects_nonpositive_amplitude():
    with pytest.raises(ValueError):
        duffing(-1.0, 1.0)
    with pytest.raises(ValueError):
        duffing(0.0, 1.0)


def test_potential_of_cube():
    assert potential(Polynomial({3: 1.0})) == Polynomial({4: 0.25})


def test_potential_of_zero():
    assert potential(Polynomial({})) == Polynomial({})


def test_potential_termwise():
    f = Polynomial({3: 1.0, 5: 2.0})
    assert potential(f) == Polynomial({4: 0.25, 6: 2.0 / 6.0})


def test_total_potential_duffing():
    v = total_potential(duffing(2.0, 3.0))
    assert v == Polynomial({2: 0.5, 4: 0.75})


def test_total_potential_linear():
    v = total_potential(OscillatorProblem(4.0, 0.0, Polynomial({3: 1.0}), 1.0))
    assert v == Polynomial({2: 2.0})


def test_total_potential_quintic():
    problem = OscillatorProblem(1.0, 2.0, Polynomial({5: 1.0}), 1.0)
    assert total_potential(problem) == Polynomial({2: 0.5, 6: 1.0 / 3.0})


def test_potential_derivative_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(10):
        powers = rng.choice([3, 5, 7, 9], size=2, replace=False)
        f = Polynomial({int(p): float(rng.uniform(-3, 3)) for p in powers})
        assert potential(f).derivative() == f


def test_total_potential_is_even():
    problem = OscillatorProblem(2.0, 1.5, Polynomial({3: 1.0, 5: -0.25}), 1.0)
    v = total_potential(problem)
    assert all(p % 2 == 0 for p in v.coefficients)
    u = np.linspace(-2.0, 2.0, 41)
    assert v(u) == pytest.approx(v(-u))


def test_nonlinearity_must_be_odd_cubic_or_higher():
    with pytest.raises(ValueError):
        OscillatorProblem(1.0, 1.0, Polynomial({2: 1.0}), 1.0)
    with pytest.raises(ValueError):
        OscillatorProblem(1.0, 1.0, Polynomial({1: 1.0}), 1.0)
    OscillatorProblem(1.0, 1.0, Polynomial({3: 1.0, 7: 0.5}), 1.0)


def test_negative_linear_stiffness_rejected():
    with pytest.raises(ValueError):
        OscillatorProblem(-1.0, 1.0, Polynomial({3: 1.0}), 1.0)


@pytest.mark.parametrize(
    "omega0_sq, eps, poly, amplitude, field",
    [
        (float("nan"), 1.0, {3: 1.0}, 1.0, "omega0_sq"),
        (float("inf"), 1.0, {3: 1.0}, 1.0, "omega0_sq"),
        (1.0, float("nan"), {3: 1.0}, 1.0, "epsilon"),
        (1.0, float("-inf"), {3: 1.0}, 1.0, "epsilon"),
        (1.0, 1.0, {3: 1.0}, float("inf"), "amplitude"),
        (1.0, 1.0, {3: 1.0, 5: float("nan")}, 1.0, r"coefficient of u\^5"),
    ],
)
def test_non_finite_parameters_rejected(omega0_sq, eps, poly, amplitude, field):
    with pytest.raises(ValueError, match=field):
        OscillatorProblem(omega0_sq, eps, Polynomial(poly), amplitude)


def test_acceleration():
    problem = duffing(1.0, 2.0)
    assert problem.acceleration(0.5) == pytest.approx(-0.5 - 2.0 * 0.125)


def test_polynomial_rejects_bad_powers():
    with pytest.raises(ValueError):
        Polynomial({-1: 1.0})
    with pytest.raises(ValueError):
        Polynomial({1.5: 1.0})


def test_polynomial_drops_zero_coefficients():
    assert Polynomial({3: 1.0, 5: 0.0}) == Polynomial({3: 1.0})


# -- exact positivity on an interval -----------------------------------------


def _times(*factors):
    """Coefficients, lowest first, of the product of coefficient lists."""
    product = [Fraction(1)]
    for factor in factors:
        out = [Fraction(0)] * (len(product) + len(factor) - 1)
        for i, a in enumerate(product):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        product = out
    return product


def _depth(halves, a_sq):
    """D, lowest first, with V(A) - V(u) = (A^2 - u^2) D(u^2) for
    V(u) = sum_k halves[k - 1] u^(2k)."""
    depth = []
    for half in reversed(halves):
        depth.insert(0, half + a_sq * (depth[0] if depth else 0))
    return depth


HALF, TINY = Fraction(1, 2), Fraction(1, 10**12)
TOUCHING = _times([-HALF, 1], [-HALF, 1])  # (x - 1/2)^2
# w0^2 = eps = 1, f = -u^3 + 0.3u^5 + 0.05u^7 + 0.01u^9, A = 1.2: D has
# degree 4 and signs + - + + +, so only the Sturm count decides
A_SQ = Fraction(1.2) ** 2
WELL = _depth(
    [HALF, Fraction(-1, 4), Fraction(0.3) / 6, Fraction(0.05) / 8, Fraction(0.01) / 10], A_SQ
)


@pytest.mark.parametrize(
    "coefficients, lo, hi, expected",
    [
        # degree 0, and the zero polynomial
        ([3], 0, 1, True),
        ([0], 0, 1, False),
        ([-1], 0, 1, False),
        ([], 0, 1, False),
        # degree 1: a root exactly at hi or at lo
        ([1, -1], 0, HALF, True),
        ([1, -1], 0, 1, False),
        ([0, 1], 0, 1, False),
        ([0, 1], TINY, 1, True),
        # degree 2: a double root inside, and the intervals either side of it
        (TOUCHING, 0, 1, False),
        (TOUCHING, 0, Fraction(1, 4), True),
        (TOUCHING, Fraction(3, 4), 1, True),
        (TOUCHING + [0], -1, Fraction(2, 5), True),
        # degree 3: -(x - 1)(x - 2)(x - 3), between and at its roots
        (_times([1, -1], [-2, 1], [-3, 1]), 0, HALF, True),
        (_times([1, -1], [-2, 1], [-3, 1]), 0, 1, False),
        (_times([1, -1], [-2, 1], [-3, 1]), Fraction(5, 2), Fraction(29, 10), True),
        (_times([1, -1], [-2, 1], [-3, 1]), Fraction(3, 2), 2, False),
        # degree 4: a sliver of depth 1e-12 at x = 1/2, and its mirror
        (_times([Fraction(1, 4) - TINY, -1, 1], [1, 0, 1]), 0, 1, False),
        (_times([Fraction(1, 4) + TINY, -1, 1], [1, 0, 1]), 0, 1, True),
        # degree 5: -(x - 3)(x^2 + 1)^2 reaches 0 at hi = 3 only
        (_times([3, -1], [1, 0, 1], [1, 0, 1]), 0, 2, True),
        (_times([3, -1], [1, 0, 1], [1, 0, 1]), 0, 3, False),
        # lo == hi: the value there decides
        ([1, -1], 1, 1, False),
        ([1, -1], HALF, HALF, True),
        # trailing zeros, as D has at eps = 0: D(v) = w0^2 / 2
        ([HALF, 0, 0], 0, 4, True),
        ([1, 2, 0, 0], -HALF, 1, False),
        # the D of a well with long binary fractions in its coefficients
        (WELL, 0, A_SQ, True),
    ],
)
def test_positive_on(coefficients, lo, hi, expected):
    assert positive_on(coefficients, lo, hi) is expected


def _vertex_test(quadratic, lo, hi):
    """Positivity of a quadratic on [lo, hi] at its endpoints and its vertex."""
    c0, c1, c2 = quadratic
    vertex = -c1 / (2 * c2) if c2 > 0 else lo
    at = min(max(vertex, lo), hi)
    return all(c0 + c1 * x + c2 * x * x > 0 for x in (lo, hi, at))


def test_positive_on_agrees_with_the_vertex_test_on_quadratics():
    # the solver's discriminant and gamma are quadratics in the strength,
    # decided on [min(eps, 0), max(eps, 0)]
    rng = random.Random(7)
    for _ in range(2000):
        quadratic = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(3)]
        lo, hi = sorted(Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(2))
        for interval in ((lo, hi), (min(lo, 0), max(lo, 0))):
            assert positive_on(quadratic, *interval) == _vertex_test(quadratic, *interval)
