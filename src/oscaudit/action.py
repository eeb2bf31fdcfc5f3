"""Variational functional over trial corrections and its stationary points.

The first-order correction is sought in a finite trial space
u1 = sum_i B_i phi_i(w t) of fixed cosine-harmonic shapes. Over one period
T = 2 pi / w the functional

    J(u1) = integral_0^T [ -u1'^2/2 + w^2 u1^2/2
                           + (w0^2 - w^2) u0 u1 + eps f(u0) u1 ] dt

is exactly quadratic in the amplitudes, J(B) = B'MB/2 + g'B, with every
entry available in closed form through the series algebra. Stationary
points solve M B = -g jointly with dJ/dw = 0, where the frequency
derivative includes the dependence of the integration limit T on w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import TrigSeries
from .models import OscillatorProblem, effective_omega0
from .hpm import order1_forcing

# Solver policy. The scan grid and bracket factors cover the hardening
# cubic cases with ample margin; tolerances are relative so they survive
# parameter sweeps.
GRID_POINTS = 512
BRACKET_FACTORS = (0.5, 3.0)
FD_STEP_REL = 1e-5
FD_VERIFY_STEP_REL = 1e-4  # wider step for residual checks, below FD noise
OMEGA_REL_TOL = 1e-12
GRAD_TOL_SCALE = 1e-10
TRIVIALITY_SCALE = 1e-10
CONTINUATION_STEPS = 8
COND_LIMIT = 1e12
MERGE_REL_TOL = 1e-9
JOINT_RAY_TOL = 1e-9


class SingularMatrixError(ArithmeticError):
    """The quadratic form is degenerate for this trial space at this w."""


class BracketError(ValueError):
    """Unusable frequency bracket."""


@dataclass(frozen=True)
class TrialSpace:
    """Ordered basis of fixed cosine-harmonic shapes with free amplitudes.

    Each shape is a harmonic -> coefficient map; the shapes are
    instantiated at a concrete base frequency only when evaluated. Shapes
    must be linearly independent.
    """

    name: str
    shapes: tuple

    def __post_init__(self):
        cleaned = []
        for idx, shape in enumerate(self.shapes):
            entries = {}
            for k, v in shape.items():
                if k != int(k) or k < 0:
                    raise ValueError(
                        f"shape {idx}: harmonic must be a non-negative integer, got {k!r}"
                    )
                v = float(v)
                if not math.isfinite(v):
                    raise ValueError(
                        f"shape {idx}: coefficient of harmonic {k} must be finite, got {v}"
                    )
                if v != 0.0:
                    entries[int(k)] = v
            if not entries:
                raise ValueError(f"shape {idx} has no nonzero harmonic coefficient")
            cleaned.append(entries)
        harmonics = sorted({k for shape in cleaned for k in shape})
        matrix = np.array(
            [[shape.get(k, 0.0) for k in harmonics] for shape in cleaned]
        )
        if np.linalg.matrix_rank(matrix) < len(cleaned):
            raise ValueError(f"trial space '{self.name}': shapes are linearly dependent")
        object.__setattr__(self, "shapes", tuple(cleaned))

    @property
    def dimension(self):
        return len(self.shapes)

    def basis_series(self, omega: float) -> list[TrigSeries]:
        return [TrigSeries(omega, shape) for shape in self.shapes]

    def correction(self, omega: float, amplitudes) -> TrigSeries:
        """u1 = sum_i B_i phi_i at the given base frequency."""
        total = TrigSeries.zero(omega)
        for b, phi in zip(amplitudes, self.basis_series(omega)):
            total = total + float(b) * phi
        return total


def single_shape_space() -> TrialSpace:
    """One-parameter trial shape cos(w t) - cos(5 w t)/3."""
    return TrialSpace("al-single", ({1: 1.0, 5: -1.0 / 3.0},))


def double_shape_space() -> TrialSpace:
    """Two-parameter trial shapes [cos - cos3/5, cos3/5 - cos5/7]."""
    return TrialSpace(
        "al-double",
        ({1: 1.0, 3: -1.0 / 5.0}, {3: 1.0 / 5.0, 5: -1.0 / 7.0}),
    )


SPACE_PRESETS = {
    "al-single": single_shape_space,
    "al-double": double_shape_space,
}


def preset_space(name: str) -> TrialSpace:
    try:
        return SPACE_PRESETS[name]()
    except KeyError:
        raise ValueError(
            f"unknown trial-space preset {name!r}; expected one of {sorted(SPACE_PRESETS)}"
        ) from None


@dataclass
class QuadraticForm:
    """J(B) = B'MB/2 + g'B with symmetric M."""

    matrix: np.ndarray
    vector: np.ndarray

    def value(self, amplitudes) -> float:
        b = np.asarray(amplitudes, dtype=float)
        return float(0.5 * b @ self.matrix @ b + self.vector @ b)

    def gradient(self, amplitudes) -> np.ndarray:
        b = np.asarray(amplitudes, dtype=float)
        return self.matrix @ b + self.vector


def assemble(problem: OscillatorProblem, space: TrialSpace, omega: float) -> QuadraticForm:
    """Build M and g in closed form from period inner products.

    M_ij = integral_0^T [-phi_i' phi_j' + w^2 phi_i phi_j] dt and
    g_i = integral_0^T forcing * phi_i dt, with the order-1 forcing
    eps f(u0) + (w0^2 - w^2) u0.
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    forcing = order1_forcing(problem, omega)
    phis = space.basis_series(omega)
    dphis = [phi.differentiate() for phi in phis]
    n = space.dimension
    matrix = np.zeros((n, n))
    vector = np.zeros(n)
    w_sq = omega * omega
    for i in range(n):
        for j in range(i, n):
            entry = -dphis[i].inner_product(dphis[j]) + w_sq * phis[i].inner_product(
                phis[j]
            )
            matrix[i, j] = entry
            matrix[j, i] = entry
        vector[i] = forcing.inner_product(phis[i])
    return QuadraticForm(matrix, vector)


def solve_B(form: QuadraticForm) -> np.ndarray:
    """Unique stationary amplitudes at fixed w: solve M B = -g."""
    try:
        cond = np.linalg.cond(form.matrix)
    except np.linalg.LinAlgError as err:  # SVD fails on overflowed entries
        raise SingularMatrixError(f"quadratic form is singular ({err})") from None
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularMatrixError(
            f"quadratic form is singular (condition number {cond:.3g})"
        )
    return np.linalg.solve(form.matrix, -form.vector)


def action_integrand(
    problem: OscillatorProblem, space: TrialSpace, omega: float, amplitudes
) -> TrigSeries:
    """The functional's integrand as a series; its period integral is J(B)."""
    u1 = space.correction(omega, amplitudes)
    du1 = u1.differentiate()
    forcing = order1_forcing(problem, omega)
    return -0.5 * (du1 * du1) + (0.5 * omega * omega) * (u1 * u1) + forcing * u1


def d_omega(
    problem: OscillatorProblem,
    space: TrialSpace,
    omega: float,
    amplitudes,
    step_rel: float = FD_STEP_REL,
    include_period_term: bool = True,
) -> float:
    """Total dJ/dw at fixed amplitudes by Richardson-extrapolated central
    differences on the closed-form assembly.

    The default includes the dependence of the upper limit T = 2 pi / w on
    w. With ``include_period_term`` false, the boundary contribution
    L(T) dT/dw is removed, which answers what the derivative would be if
    the integration window were frozen at the current period.
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    h = step_rel * omega
    if h == 0.0 or omega + h == omega or omega - h <= 0.0:
        raise ValueError(f"finite-difference step underflow at omega={omega}")
    b = np.asarray(amplitudes, dtype=float)

    def j_at(w):
        return assemble(problem, space, w).value(b)

    def central(hh):
        return (j_at(omega + hh) - j_at(omega - hh)) / (2.0 * hh)

    derivative = (4.0 * central(0.5 * h) - central(h)) / 3.0
    if include_period_term:
        return derivative
    boundary = action_integrand(problem, space, omega, b).evaluate(2.0 * math.pi / omega)
    return derivative + (2.0 * math.pi / omega**2) * boundary


@dataclass
class StationaryPoint:
    """Joint stationary point of J in (B, w)."""

    omega: float
    amplitudes: np.ndarray
    action_value: float
    grad_norm: float
    branch: str


def default_bracket(problem: OscillatorProblem) -> tuple[float, float]:
    w_eff = effective_omega0(problem)
    if w_eff <= 0.0:
        raise BracketError(
            "no usable default bracket for this problem; pass one explicitly"
        )
    return (BRACKET_FACTORS[0] * w_eff, BRACKET_FACTORS[1] * w_eff)


def _refine_sign_change(fn, lo, hi, f_lo, f_hi, rel_tol, max_iter=200):
    """Bracketed root polishing alternating bisection and secant steps."""
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    for iteration in range(max_iter):
        if hi - lo <= rel_tol * max(abs(lo), abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        x = mid
        if iteration % 2 == 1:
            denom = f_hi - f_lo
            if denom != 0.0:
                secant = hi - f_hi * (hi - lo) / denom
                span = hi - lo
                if lo + 0.01 * span < secant < hi - 0.01 * span:
                    x = secant
        fx = fn(x)
        if fx == 0.0:
            return x
        if (f_lo < 0.0) == (fx < 0.0):
            lo, f_lo = x, fx
        else:
            hi, f_hi = x, fx
    return 0.5 * (lo + hi)


def _sign_change_candidates(grid, values):
    """Bracket indices where values change sign; isolated exact zeros count.

    Plateaus of exact zeros are ignored: they indicate a degenerate flat
    direction rather than isolated stationary points.
    """
    brackets = []
    zeros = []
    n = len(grid)
    for k in range(n - 1):
        a, b = values[k], values[k + 1]
        if a is None or b is None:
            continue
        if a == 0.0:
            prev = values[k - 1] if k > 0 else None
            if b != 0.0 and (prev is None or prev != 0.0):
                zeros.append(k)
            continue
        if b == 0.0:
            continue  # handled as the left endpoint of the next pair
        if (a < 0.0) != (b < 0.0):
            brackets.append(k)
    if n and values[-1] == 0.0 and (n < 2 or (values[-2] not in (None, 0.0))):
        zeros.append(n - 1)
    return brackets, zeros


def _scan_function(problem, space, omega):
    form = assemble(problem, space, omega)
    return d_omega(problem, space, omega, solve_B(form))


def _newton_polish(problem, space, omega, span):
    """One secant-Newton correction using the wider verification step.

    The bisection stage locates the root of the noisy default-step
    derivative; this relocates it on the quieter wide-step estimate.
    """
    delta = 1e-6 * omega

    def fn(w):
        return d_omega(
            problem, space, w, solve_B(assemble(problem, space, w)),
            step_rel=FD_VERIFY_STEP_REL,
        )

    slope = (fn(omega + delta) - fn(omega - delta)) / (2.0 * delta)
    if slope == 0.0 or not math.isfinite(slope):
        return omega
    correction = -fn(omega) / slope
    if abs(correction) > span:
        return omega
    return omega + correction


def solve_stationary(
    problem: OscillatorProblem,
    space: TrialSpace,
    bracket: tuple[float, float] | None = None,
) -> list[StationaryPoint]:
    """All joint stationary points of J inside the frequency bracket.

    Two routes are combined deterministically:

    * a scan of dJ/dw along the curve B(w) solving M B = -g, with sign
      changes polished by bisection plus secant steps;
    * the zero-amplitude ray, on which stationarity reduces to the joint
      vanishing of every forcing projection g_i(w).

    Coincident roots are merged (the exact ray root wins) and each point is
    labelled: the one continuously connected to the linear limit as the
    nonlinearity is switched off is tagged ``continued-from-linear``,
    remaining points ``trivial-B`` or ``stationary``.
    """
    if bracket is None:
        bracket = default_bracket(problem)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi):
        raise BracketError(f"bracket must satisfy 0 < low < high, got ({lo}, {hi})")

    grid = np.linspace(lo, hi, GRID_POINTS)
    forms = [assemble(problem, space, w) for w in grid]

    scan_vals = []
    for w, form in zip(grid, forms):
        try:
            scan_vals.append(d_omega(problem, space, w, solve_B(form)))
        except SingularMatrixError:
            scan_vals.append(None)

    candidates = []  # (omega, source)
    span = (hi - lo) / (GRID_POINTS - 1)
    brackets, zeros = _sign_change_candidates(grid, scan_vals)
    for k in brackets:
        root = _refine_sign_change(
            lambda w: _scan_function(problem, space, w),
            grid[k], grid[k + 1], scan_vals[k], scan_vals[k + 1], OMEGA_REL_TOL,
        )
        candidates.append((_newton_polish(problem, space, root, span), "scan"))
    for k in zeros:
        candidates.append((float(grid[k]), "scan"))

    # Zero-amplitude ray: roots of each projection, kept only when every
    # component vanishes there jointly.
    gmat = np.array([form.vector for form in forms])
    g_scale = max(1.0, float(np.max(np.abs(gmat))) if gmat.size else 0.0)
    ray_roots = []
    for i in range(space.dimension):
        column = [float(v) for v in gmat[:, i]]
        if max(abs(v) for v in column) <= 1e-13 * g_scale:
            continue  # projection vanishes identically: no isolated roots
        col_brackets, col_zeros = _sign_change_candidates(grid, column)
        for k in col_brackets:
            root = _refine_sign_change(
                lambda w, ii=i: float(assemble(problem, space, w).vector[ii]),
                grid[k], grid[k + 1], column[k], column[k + 1], 4e-16,
            )
            ray_roots.append(root)
        ray_roots.extend(float(grid[k]) for k in col_zeros)
    for root in ray_roots:
        g_here = assemble(problem, space, root).vector
        if float(np.max(np.abs(g_here))) <= JOINT_RAY_TOL * g_scale:
            candidates.append((root, "ray"))

    points = []
    for omega_c, source in sorted(candidates):
        form = assemble(problem, space, omega_c)
        if source == "ray":
            b = np.zeros(space.dimension)
        else:
            try:
                b = solve_B(form)
            except SingularMatrixError:
                continue
        grad_b = float(np.max(np.abs(form.gradient(b)))) if space.dimension else 0.0
        grad_w = abs(
            d_omega(problem, space, omega_c, b, step_rel=FD_VERIFY_STEP_REL)
        )
        points.append(
            (
                StationaryPoint(
                    omega=float(omega_c),
                    amplitudes=b,
                    action_value=form.value(b),
                    grad_norm=max(grad_b, grad_w),
                    branch="stationary",
                ),
                source,
            )
        )

    merged: list[tuple[StationaryPoint, str]] = []
    for point, source in points:
        if merged:
            last, last_source = merged[-1]
            if point.omega - last.omega <= MERGE_REL_TOL * last.omega:
                keep_new = (source == "ray" and last_source != "ray") or (
                    source == last_source and point.grad_norm < last.grad_norm
                )
                if keep_new:
                    merged[-1] = (point, source)
                continue
        merged.append((point, source))

    result = [point for point, _ in merged]
    _label_branches(problem, space, result)
    return result


def _track_local(problem, space, omega_guess):
    """Locate the stationary w nearest to a guess, widening the window as
    needed; None when no sign change is found."""
    for factor in (1.1, 1.35, 1.8, 2.5, 4.0):
        lo = omega_guess / factor
        hi = omega_guess * factor
        window = np.linspace(lo, hi, 25)
        values = []
        for w in window:
            try:
                values.append(_scan_function(problem, space, w))
            except SingularMatrixError:
                values.append(None)
        brackets, zeros = _sign_change_candidates(window, values)
        roots = []
        for k in brackets:
            roots.append(
                _refine_sign_change(
                    lambda w: _scan_function(problem, space, w),
                    window[k], window[k + 1], values[k], values[k + 1], 1e-10,
                )
            )
        roots.extend(float(window[k]) for k in zeros)
        if roots:
            return min(roots, key=lambda r: abs(r - omega_guess))
    return None


def _label_branches(problem, space, points):
    """Tag the branch continuously connected to the linear limit.

    The connection is traced by switching the nonlinearity on in
    CONTINUATION_STEPS equal increments and following the nearest
    stationary frequency from w0.
    """
    for point in points:
        trivial = (
            float(np.max(np.abs(point.amplitudes))) if point.amplitudes.size else 0.0
        ) <= TRIVIALITY_SCALE * problem.amplitude
        point.branch = "trivial-B" if trivial else "stationary"
    if not points or problem.omega0_sq <= 0.0:
        return
    tracked = math.sqrt(problem.omega0_sq)
    if problem.epsilon != 0.0:
        for step in range(1, CONTINUATION_STEPS + 1):
            scaled = OscillatorProblem(
                problem.omega0_sq,
                problem.epsilon * step / CONTINUATION_STEPS,
                problem.nonlinearity,
                problem.amplitude,
            )
            tracked = _track_local(scaled, space, tracked)
            if tracked is None:
                return
    nearest = min(points, key=lambda p: abs(p.omega - tracked))
    if abs(nearest.omega - tracked) <= 0.05 * tracked:
        nearest.branch = "continued-from-linear"
