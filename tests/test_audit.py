import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from oscaudit import action, audit
from oscaudit.models import OscillatorProblem, Polynomial, duffing
from oscaudit.hpm import order1_forcing
from oscaudit.action import TrialSpace, double_shape_space, single_shape_space
from oscaudit.audit import (
    ClosedFormDomainError,
    classify_triviality,
    combined_strength,
    full_audit,
    resonance_frequency,
    two_shape_coefficients,
    two_shape_frequency,
)

# frozen from the two-shape radical at rho = 1
TWO_SHAPE_OMEGA_RHO1 = 1.3114948107911968


THREE_SHAPES = TrialSpace(
    "three",
    ({1: 1.0, 3: -0.2}, {3: 0.2, 5: -1.0 / 7.0}, {5: 1.0 / 7.0, 7: -1.0 / 9.0}),
)


def closed_form_u1_at_0(amplitude, rho, omega):
    return -amplitude * (68.0 * omega**2 - 49.0 * rho - 68.0) / (16.0 * omega**2)


def test_audit_u1_at_0_matches_double_shape_closed_form():
    # the paper's closed form for u1(0), at the audited frequency
    rng = np.random.default_rng(17)
    for _ in range(8):
        amplitude = rng.uniform(0.5, 2.0)
        rho = rng.uniform(0.0, 5.0)
        report = full_audit(duffing(amplitude, rho / amplitude**2), double_shape_space())
        expected = closed_form_u1_at_0(amplitude, report.rho, report.selected.omega)
        assert report.bc_u1_at_0 == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("space", [double_shape_space(), THREE_SHAPES], ids=["al-double", "three"])
def test_full_audit_u1_at_0_is_the_exact_sum_rounded_once(space):
    rng = np.random.default_rng(5)
    cases = [(1.0, 1.0), (3.0, 0.7)] + [
        (rng.uniform(-0.5, 10.0), rng.uniform(0.2, 3.0)) for _ in range(10)
    ]
    for eps, amplitude in cases:
        report = full_audit(duffing(amplitude, eps), space)
        exact = sum(
            Fraction(b) * sum(Fraction(a) for a in shape.values())
            for b, shape in zip(report.selected.amplitudes, space.shapes)
        )
        assert report.bc_u1_at_0 == float(exact), (eps, amplitude)
        assert report.bc_du1_at_0 == 0.0
        assert report.amplitude_mismatch == report.bc_u1_at_0


def test_full_audit_runs_the_series_algebra_only_on_the_ray(monkeypatch):
    calls = {"of_series": 0, "order1_forcing": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Polynomial, "of_series", counting("of_series", Polynomial.of_series))
    monkeypatch.setattr(
        action, "order1_forcing", counting("order1_forcing", action.order1_forcing)
    )
    for space in (single_shape_space(), double_shape_space(), THREE_SHAPES):
        full_audit(duffing(1.0, 1.0), space)
    assert calls["order1_forcing"] > 0
    assert calls["of_series"] == calls["order1_forcing"]


def test_classify_triviality():
    assert classify_triviality([0.0, 0.0], 1.0) is True
    assert classify_triviality([1e-12], 1.0) is True
    assert classify_triviality([1e-3, 0.0], 1.0) is False
    assert classify_triviality(1e-12, 1.0) is True
    # a NaN amplitude is never trivial, wherever it stands
    assert classify_triviality([0.0, math.nan], 1.0) is False
    assert classify_triviality([math.nan, 0.0], 1.0) is False
    with pytest.raises(ValueError):
        classify_triviality([0.0], 0.0)


def test_resonance_frequency_examples():
    assert resonance_frequency(duffing(1.0, 1.0)) == pytest.approx(
        math.sqrt(1.75), rel=1e-15
    )
    assert resonance_frequency(duffing(1.0, 0.0)) == 1.0
    assert resonance_frequency(duffing(2.0, 1.0)) == 2.0


def test_resonance_frequency_domain_error():
    with pytest.raises(ClosedFormDomainError):
        resonance_frequency(duffing(1.0, -2.0))


def _reference_resonance(mpmath, problem):
    """sqrt(w0^2 + eps c_1 / A) in 50 digits, with c_1 the fundamental of
    f(A cos theta): C(p, (p - 1) / 2) A^p / 2^(p - 1) per power p."""
    with mpmath.workdps(50):
        amplitude = mpmath.mpf(problem.amplitude)
        c_1 = sum(
            mpmath.mpf(c) * math.comb(p, (p - 1) // 2) * amplitude**p / 2 ** (p - 1)
            for p, c in problem.nonlinearity.coefficients.items()
        )
        return mpmath.mpf(problem.omega0_sq) + mpmath.mpf(problem.epsilon) * c_1 / amplitude


def test_resonance_frequency_is_correctly_rounded():
    mpmath = pytest.importorskip("mpmath")
    assert resonance_frequency(duffing(2.5941277805319243, 0.3814284842584953)) == (
        1.7102973238217085
    )
    rng = np.random.default_rng(29)
    for f in (Polynomial({3: 1.0}), Polynomial({3: 1.0, 5: 0.2})):
        for _ in range(100):
            problem = OscillatorProblem(
                float(rng.choice([0.7, 1.0, 2.3])),
                rng.uniform(-1.0, 5.0),
                f,
                rng.uniform(0.1, 3.0),
            )
            square = _reference_resonance(mpmath, problem)
            if square <= 0:
                with pytest.raises(ClosedFormDomainError):
                    resonance_frequency(problem)
            else:
                with mpmath.workdps(50):
                    expected = float(mpmath.sqrt(square))
                assert resonance_frequency(problem) == expected, problem


def test_resonance_frequency_equals_forcing_root():
    # independent route: solve for the w that zeroes the fundamental
    # forcing component numerically
    for problem in (
        duffing(1.0, 1.0),
        duffing(2.0, 0.1),
        OscillatorProblem(1.0, 0.5, Polynomial({3: 1.0, 5: 0.3}), 1.2),
    ):
        def fundamental(w):
            return order1_forcing(problem, w).cos_coeff(1)

        root = brentq(fundamental, 0.5, 6.0, xtol=1e-15, rtol=8.9e-16)
        assert abs(resonance_frequency(problem) - root) <= 1e-12 * root


def test_two_shape_frequency_linear_limit_exact():
    assert abs(two_shape_frequency(0.0) - 1.0) <= 1e-15


def test_two_shape_frequency_pinned_at_unit_strength():
    assert two_shape_frequency(1.0) == pytest.approx(TWO_SHAPE_OMEGA_RHO1, abs=1e-10)


def test_two_shape_frequency_monotone():
    rhos = np.linspace(0.0, 50.0, 201)
    values = [two_shape_frequency(r) for r in rhos]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_two_shape_frequency_sqrt_growth():
    # for large rho the radical grows like sqrt(rho) with the leading
    # coefficient sqrt(31 (sqrt(510237) - 357)) / 124
    lead = math.sqrt(31.0 * (math.sqrt(510237.0) - 357.0)) / 124.0
    for rho in (1e4, 1e6):
        assert two_shape_frequency(rho) / math.sqrt(rho) == pytest.approx(
            lead, rel=1e-2
        )


def test_two_shape_coefficients_linear_limit():
    assert two_shape_coefficients(1.0, 0.0, 1.0) == (0.0, 0.0)


def test_two_shape_coefficients_boundary_identity():
    # algebraic identity: (4/5) B1 + (2/35) B3 reproduces the closed-form
    # u1(0) expression for any (A, rho, w)
    rng = np.random.default_rng(23)
    for _ in range(12):
        amplitude = rng.uniform(0.5, 2.0)
        rho = rng.uniform(0.0, 8.0)
        omega = rng.uniform(0.5, 3.0)
        b1, b3 = two_shape_coefficients(amplitude, rho, omega)
        lhs = 0.8 * b1 + (2.0 / 35.0) * b3
        rhs = closed_form_u1_at_0(amplitude, rho, omega)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_two_shape_coefficients_require_positive_omega():
    with pytest.raises(ValueError):
        two_shape_coefficients(1.0, 1.0, 0.0)


def test_combined_strength_default():
    assert combined_strength(duffing(2.0, 0.5)) == 2.0


def test_combined_strength_names_the_amplitude_when_its_square_overflows():
    # the same check and message as the default bracket's
    with pytest.raises(OverflowError, match=r"A\^2 overflows a double \(A = 1e\+160\)"):
        combined_strength(duffing(1e160, 1.0))


def test_full_audit_single_shape_findings():
    report = full_audit(duffing(1.0, 1.0), single_shape_space())
    codes = report.finding_codes()
    assert "TRIVIAL_CORRECTION" in codes
    assert "BC_VIOLATION" not in codes
    assert report.trivial is True
    assert report.bc_u1_at_0 == 0.0
    assert report.bc_du1_at_0 == 0.0
    table = {row.source: row for row in report.freq_table}
    assert table["closed_form_single"].rel_err_vs_exact == pytest.approx(
        0.00387, abs=5e-4
    )
    assert table["exact"].omega is not None


def test_full_audit_double_shape_findings():
    report = full_audit(duffing(1.0, 1.0), double_shape_space())
    codes = report.finding_codes()
    assert "BC_VIOLATION" in codes
    assert "AMPLITUDE_MISMATCH" in codes
    assert "TRIVIAL_CORRECTION" not in codes
    assert report.trivial is False
    expected = closed_form_u1_at_0(1.0, 1.0, report.selected.omega)
    assert report.bc_u1_at_0 == pytest.approx(expected, rel=1e-10)
    assert abs(report.bc_u1_at_0) > report.triviality_threshold


def test_full_audit_linear_problem_only_trivial_finding():
    report = full_audit(duffing(1.0, 0.0), single_shape_space())
    assert report.finding_codes() == ["TRIVIAL_CORRECTION"]
    table = {row.source: row for row in report.freq_table}
    assert table["solver"].rel_err_vs_exact <= 1e-10


def test_full_audit_amplitude_mismatch_identity():
    for space in (single_shape_space(), double_shape_space()):
        for eps in (0.0, 1.0):
            report = full_audit(duffing(1.0, eps), space)
            assert report.amplitude_mismatch == report.bc_u1_at_0


def test_full_audit_oracle_row_present_when_unavailable():
    # strong softening: V(1) = V(0), so the well does not confine and the
    # oracle preconditions fail; the row stays in the table with a note
    problem = duffing(1.0, -2.0)
    report = full_audit(problem, single_shape_space(), bracket=(0.5, 3.0))
    table = {row.source: row for row in report.freq_table}
    assert table["exact"].omega is None
    assert "unavailable" in table["exact"].note
    assert table["closed_form_single"].omega is None  # negative radicand
    assert all(row.rel_err_vs_exact is None for row in report.freq_table)


def test_full_audit_reports_both_derivative_conventions():
    report = full_audit(duffing(1.0, 1.0), double_shape_space())
    assert abs(report.domega_with_period_term) <= 1e-9
    assert abs(report.domega_frozen_period) > 1e-4  # conventions disagree here


def test_full_audit_closed_form_residuals():
    single = full_audit(duffing(1.0, 1.0), single_shape_space())
    assert single.closed_form_residuals["omega_rel_err_vs_closed_single"] <= 1e-10
    assert single.closed_form_residuals["b_abs_max"] <= 1e-10
    double = full_audit(duffing(1.0, 1.0), double_shape_space())
    assert double.closed_form_residuals["omega_rel_err_vs_closed_double"] <= 1e-6
    assert double.closed_form_residuals["b_rel_err_vs_closed_double"] <= 1e-8


def test_full_audit_deterministic_reports():
    first = full_audit(duffing(1.0, 1.0), double_shape_space())
    second = full_audit(duffing(1.0, 1.0), double_shape_space())
    assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())


@pytest.mark.parametrize(
    "problem",
    [duffing(1.0, 1.0), OscillatorProblem(1.0, 1.0, Polynomial({3: 1.0, 5: 0.2}), 1.0)],
    ids=["duffing", "cubic-quintic"],
)
@pytest.mark.parametrize("space", [single_shape_space(), double_shape_space(), THREE_SHAPES],
                         ids=["al-single", "al-double", "three"])
def test_full_audit_reads_the_solvers_model(monkeypatch, problem, space):
    # one exact model per audit: the audit takes u1(0) and both dJ/dw from
    # the solver's points, and recognises the presets without building them
    counts = dict.fromkeys(("model", "space", "harmonics", "derivatives"), 0)

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(action, "_Model", counting("model", action._Model))
    monkeypatch.setattr(TrialSpace, "__post_init__", counting("space", TrialSpace.__post_init__))
    harmonics = counting("harmonics", action._harmonics)
    monkeypatch.setattr(action, "_harmonics", harmonics)
    monkeypatch.setattr(audit, "_harmonics", harmonics)
    monkeypatch.setattr(action, "_derivatives", counting("derivatives", action._derivatives))
    action.solve_stationary(problem, space)
    solver_derivatives = counts["derivatives"]
    counts.update(dict.fromkeys(counts, 0))
    full_audit(problem, space)
    assert counts["model"] == 1
    assert counts["space"] == 0
    assert counts["harmonics"] <= 2
    assert counts["derivatives"] == solver_derivatives


def test_full_audit_custom_space_skips_closed_forms():
    custom = TrialSpace("custom", ({1: 1.0, 3: -0.5},))
    report = full_audit(duffing(1.0, 1.0), custom)
    assert "omega_rel_err_vs_closed_single" not in report.closed_form_residuals
    assert "omega_rel_err_vs_closed_double" not in report.closed_form_residuals
    table = {row.source: row for row in report.freq_table}
    assert table["closed_form_double"].omega is not None  # standard cubic problem
