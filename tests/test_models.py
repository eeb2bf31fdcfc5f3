import numpy as np
import pytest

from oscaudit.models import (
    OscillatorProblem,
    Polynomial,
    duffing,
    effective_omega0,
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
    assert effective_omega0(problem) == 1.0


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
