"""Independent reference values for the benchmark's output checks.

Nothing here imports oscaudit. Each value is computed with mpmath at
``DIGITS`` significant digits from a formula that is stated in the paper
or derived here from the equation of motion

    u'' + omega0_sq u + eps f(u) = 0,   u(0) = A,  u'(0) = 0,

so a defect in the program cannot hide in its own reference. Inputs are
the doubles the program receives, converted exactly.
"""

from __future__ import annotations

import math
from math import comb

import mpmath

DIGITS = 50

#: The paper's trial spaces, with exact rational coefficients.
PRESET_SHAPES = {
    "al-single": ({1: (1, 1), 5: (-1, 3)},),
    "al-double": ({1: (1, 1), 3: (-1, 5)}, {3: (1, 5), 5: (-1, 7)}),
}


def _num(value):
    """Exact mpf of a double, or of a (numerator, denominator) pair."""
    if isinstance(value, tuple):
        return mpmath.mpf(value[0]) / value[1]
    return mpmath.mpf(value)


def is_duffing(omega0_sq, poly):
    """Whether the problem is u'' + u + eps u^3 = 0."""
    return omega0_sq == 1.0 and [tuple(t) for t in poly] == [(3, 1.0)]


def duffing_frequency(eps, amplitude):
    """pi sqrt(1 + eps A^2) / (2 K(m)),  m = eps A^2 / (2 (1 + eps A^2)).

    Exact frequency of u'' + u + eps u^3 = 0, softening or hardening.
    """
    with mpmath.workdps(DIGITS):
        rho = _num(eps) * _num(amplitude) ** 2
        m = rho / (2 * (1 + rho))
        return +(mpmath.pi * mpmath.sqrt(1 + rho) / (2 * mpmath.ellipk(m)))


def well_frequency(omega0_sq, eps, poly, amplitude):
    """Exact frequency of any odd polynomial well from its energy integral.

    V is even, so V(A) - V(u) = (A^2 - u^2) R(u) with a polynomial R; with
    u = A sin(theta) the quarter period is the smooth integral
    int_0^{pi/2} dtheta / sqrt(2 R(A sin theta)).
    """
    with mpmath.workdps(DIGITS):
        a = _num(amplitude)
        potential = {2: _num(omega0_sq) / 2}
        for p, c in poly:
            potential[p + 1] = potential.get(p + 1, 0) + _num(eps) * _num(c) / (p + 1)

        def r(u):
            return sum(
                c * sum(a ** (2 * j) * u ** (q - 2 - 2 * j) for j in range(q // 2))
                for q, c in potential.items()
            )

        quarter = mpmath.quad(
            lambda theta: 1 / mpmath.sqrt(2 * r(a * mpmath.sin(theta))),
            [0, mpmath.pi / 4, mpmath.pi / 2],
        )
        return +(mpmath.pi / (2 * quarter))


def exact_frequency(omega0_sq, eps, poly, amplitude):
    """The elliptic closed form for the Duffing oscillator, else the integral."""
    if is_duffing(omega0_sq, poly):
        return duffing_frequency(eps, amplitude)
    return well_frequency(omega0_sq, eps, poly, amplitude)


def harmonic_coefficients(poly, amplitude):
    """Cosine coefficients c_k of f(A cos theta), from the binomial expansion
    cos^p = 2^(1-p) sum_j C(p, j) cos((p - 2j) theta) for odd p."""
    coeffs = {}
    for p, c in poly:
        for j in range((p + 1) // 2):
            k = p - 2 * j
            coeffs[k] = coeffs.get(k, 0) + (
                _num(c) * _num(amplitude) ** p * comb(p, j) / mpmath.mpf(2) ** (p - 1)
            )
    return coeffs


def stationary_frequency(omega0_sq, eps, poly, amplitude, shapes):
    """Frequency of the stationary point continued from the linear limit.

    Over one period, with u1 = sum_i B_i sum_k a_ik cos(k w t):
      M(w) = pi w Mh,  Mh_ij = sum_k (1 - k^2) a_ik a_jk,
      g(w) = (pi / w) (g0 + (omega0_sq - w^2) g1),  g0 = eps a c,  g1 = A a_.1.
    Eliminating B = -M^-1 g leaves J(w) = -(pi/2) w^-3 h' N h with
    h = q - s g1, q = g0 + omega0_sq g1, s = w^2, N = Mh^-1; dJ/dw = 0 is
      (1/2) al s^2 + be s - (3/2) ga = 0,
    al = g1'Ng1, be = q'Ng1, ga = q'Nq. At eps = 0 its roots are omega0_sq
    and -3 omega0_sq; the first is the branch continued from the linear
    limit.
    """
    with mpmath.workdps(DIGITS):
        c = harmonic_coefficients(poly, amplitude)
        shapes = [{int(k): _num(v) for k, v in dict(shape).items()} for shape in shapes]
        n = len(shapes)
        weight = {0: 2}
        mhat = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                mhat[i, j] = sum(
                    weight.get(k, 1) * (1 - k * k) * a * shapes[j].get(k, 0)
                    for k, a in shapes[i].items()
                )
        g0 = [_num(eps) * sum(weight.get(k, 1) * a * c.get(k, 0) for k, a in s.items())
              for s in shapes]
        g1 = [_num(amplitude) * s.get(1, 0) for s in shapes]
        q = [g0[i] + _num(omega0_sq) * g1[i] for i in range(n)]
        inv = mhat ** -1

        def form(x, y):
            return sum(x[i] * inv[i, j] * y[j] for i in range(n) for j in range(n))

        al, be, ga = form(g1, g1), form(q, g1), form(q, q)
        s = (-be + mpmath.sign(al) * mpmath.sqrt(be * be + 3 * al * ga)) / al
        return +mpmath.sqrt(s)


def resonance_frequency(eps, amplitude):
    """sqrt(1 + 3 eps A^2 / 4): the paper's single-shape frequency."""
    with mpmath.workdps(DIGITS):
        return +mpmath.sqrt(1 + 3 * _num(eps) * _num(amplitude) ** 2 / 4)


def two_shape_frequency(eps, amplitude):
    """sqrt(31 (sqrt(510237 rho^2 + 1416576 rho + 984064) - 357 rho - 496)) / 124
    with rho = eps A^2: the paper's two-shape frequency."""
    with mpmath.workdps(DIGITS):
        rho = _num(eps) * _num(amplitude) ** 2
        inner = mpmath.sqrt(510237 * rho**2 + 1416576 * rho + 984064)
        return +(mpmath.sqrt(31 * (inner - 357 * rho - 496)) / 124)


def paper_u1_at_0(eps, amplitude, omega):
    """-A (68 w^2 - 49 rho - 68) / (16 w^2), rho = eps A^2: the paper's
    boundary residual of the two-shape correction."""
    with mpmath.workdps(DIGITS):
        a, w2 = _num(amplitude), omega * omega
        rho = _num(eps) * a * a
        return +(-a * (68 * w2 - 49 * rho - 68) / (16 * w2))


def rel_error(value, reference):
    """|value - reference| / |reference| as a float."""
    with mpmath.workdps(DIGITS):
        return float(abs(_num(value) - reference) / abs(reference))


def ulp_error(value, reference):
    """Signed distance from the exact reference, in ulps of the double
    nearest to it."""
    with mpmath.workdps(DIGITS):
        return float((_num(value) - reference) / math.ulp(float(reference)))
