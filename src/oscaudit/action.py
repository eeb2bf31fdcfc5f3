"""Variational functional over trial corrections and its stationary points.

The first-order correction is sought in a finite trial space
u1 = sum_i B_i phi_i(w t) of fixed cosine-harmonic shapes. Over one period
T = 2 pi / w the functional

    J(u1) = integral_0^T [ -u1'^2/2 + w^2 u1^2/2
                           + (w0^2 - w^2) u0 u1 + eps f(u0) u1 ] dt

is exactly quadratic in the amplitudes, J(B) = B'MB/2 + g'B, with
M(w) = pi w Mh and g(w) = (pi / w) (q - w^2 g1) for constant Mh, g1 and q.
Stationary points solve M B = -g jointly with dJ/dw = 0, where the
frequency derivative includes the dependence of the integration limit T on
w. Mh, g1 and q are formed exactly from the input doubles, and every value
reported at a point (w, B, J and the derivatives) is derived from them and
rounded once.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .fourier import MAX_HARMONIC, TrigSeries
from .models import CONTEXT, PI, OscillatorProblem, horner, positive_on, to_decimal
from .hpm import order1_forcing

if TYPE_CHECKING:
    import numpy as np

# Solver policy. The zero-amplitude ray's grid and the bracket factors
# cover the hardening cubic cases with ample margin; tolerances are
# relative so they survive parameter sweeps.
GRID_POINTS = 512
BRACKET_FACTORS = (0.5, 3.0)
TRIVIALITY_SCALE = 1e-10
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
    must be linearly independent, which is decided exactly. Harmonics are
    >= 1: an odd f forces no constant term, and a constant in a shape would
    only make Mh indefinite.
    """

    name: str
    shapes: tuple

    def __post_init__(self):
        if not self.shapes:
            raise ValueError(f"trial space '{self.name}' has no shapes")
        cleaned = []
        for idx, shape in enumerate(self.shapes):
            entries = {}
            for k, v in shape.items():
                if k != int(k) or k < 1:
                    raise ValueError(
                        f"shape {idx}: harmonic must be a positive integer, got {k!r}"
                    )
                if k > MAX_HARMONIC:
                    raise ValueError(f"shape {idx}: harmonic {k} exceeds {MAX_HARMONIC}")
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
        exact = [{k: Fraction(a) for k, a in shape.items()} for shape in cleaned]
        gram = [[sum(a * t.get(k, 0) for k, a in s.items()) for t in exact] for s in exact]
        if _solve_exact(gram, ()) is None:
            raise ValueError(f"trial space '{self.name}': shapes are linearly dependent")
        # Mh of M(w) = pi w Mh: Mh = S'WS with W = diag(1 - k^2) <= 0 for k >= 1
        mhat = [[sum((1 - k * k) * a * t.get(k, 0) for k, a in s.items()) for t in exact]
                for s in exact]
        object.__setattr__(self, "shapes", tuple(cleaned))
        object.__setattr__(self, "_exact", exact)
        object.__setattr__(self, "_mhat", mhat)

    @property
    def dimension(self):
        return len(self.shapes)

    def basis_series(self, omega: float) -> list[TrigSeries]:
        return [TrigSeries(omega, shape) for shape in self.shapes]


# A space is a preset exactly when its cleaned ``shapes`` equal these.
SINGLE_SHAPES = ({1: 1.0, 5: -1.0 / 3.0},)
DOUBLE_SHAPES = ({1: 1.0, 3: -1.0 / 5.0}, {3: 1.0 / 5.0, 5: -1.0 / 7.0})


SPACE_PRESETS = {"al-single": SINGLE_SHAPES, "al-double": DOUBLE_SHAPES}


def preset_space(name: str) -> TrialSpace:
    if name not in SPACE_PRESETS:
        raise ValueError(
            f"unknown trial-space preset {name!r}; expected one of {sorted(SPACE_PRESETS)}"
        )
    return TrialSpace(name, SPACE_PRESETS[name])


def single_shape_space() -> TrialSpace:
    """One-parameter trial shape cos(w t) - cos(5 w t)/3."""
    return preset_space("al-single")


def double_shape_space() -> TrialSpace:
    """Two-parameter trial shapes [cos - cos3/5, cos3/5 - cos5/7]."""
    return preset_space("al-double")


@dataclass
class QuadraticForm:
    """J(B) = B'MB/2 + g'B with symmetric M."""

    matrix: np.ndarray
    vector: np.ndarray

    def value(self, amplitudes) -> float:
        import numpy as np

        b = np.asarray(amplitudes, dtype=float)
        return float(0.5 * b @ self.matrix @ b + self.vector @ b)

    def gradient(self, amplitudes) -> np.ndarray:
        import numpy as np

        b = np.asarray(amplitudes, dtype=float)
        return self.matrix @ b + self.vector


def _forcing_projections(problem: OscillatorProblem, space: TrialSpace, omega: float):
    """g_i = integral_0^T forcing * phi_i dt on the series algebra, with the
    order-1 forcing eps f(u0) + (w0^2 - w^2) u0."""
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    forcing = order1_forcing(problem, omega)
    return [forcing.inner_product(phi) for phi in space.basis_series(omega)]


def assemble(problem: OscillatorProblem, space: TrialSpace, omega: float) -> QuadraticForm:
    """Build M and g in closed form.

    M = pi w Mh from the space's exact Mh, and g from
    ``_forcing_projections``.
    """
    import numpy as np

    vector = np.array(_forcing_projections(problem, space, omega))
    mhat = np.array(space._mhat, dtype=float).reshape(space.dimension, -1)
    return QuadraticForm((math.pi * omega) * mhat, vector)


def solve_B(form: QuadraticForm) -> np.ndarray:
    """Unique stationary amplitudes at fixed w: solve M B = -g exactly from
    the form's doubles, rounding each component once."""
    import numpy as np

    if not (np.all(np.isfinite(form.matrix)) and np.all(np.isfinite(form.vector))):
        raise SingularMatrixError("quadratic form has a non-finite entry")
    matrix = [[Fraction(v) for v in row] for row in form.matrix.tolist()]
    solved = _solve_exact(matrix, ([-Fraction(v) for v in form.vector.tolist()],))
    if solved is None:
        raise SingularMatrixError("quadratic form is singular")
    return np.array([float(b) for b in solved[0]])


def _times_pi(x) -> float:
    """pi x for an exact x, rounded once to a double (inf past the range)."""
    return float(CONTEXT.multiply(to_decimal(x), PI))


def _harmonics(problem: OscillatorProblem) -> dict:
    """Exact cosine coefficients c_k of f(A cos theta)."""
    amplitude = Fraction(problem.amplitude)
    c = {}  # cos^p = 2^(1-p) sum_j C(p, j) cos((p - 2j) theta); f is odd, so c_0 = 0
    for p, coefficient in problem.nonlinearity.coefficients.items():
        scale = Fraction(coefficient) * amplitude**p / 2 ** (p - 1)
        for j in range((p + 1) // 2):
            c[p - 2 * j] = c.get(p - 2 * j, 0) + math.comb(p, j) * scale
    return c


class _Model:
    """Exact rationals of one (problem, space): c_k of f(A cos theta), g1, g0,
    q = eps g0 + w0^2 g1, N g1, N g0 (N = Mh^-1; None when singular), and
    alpha = g1'N g1 with beta(e) = q'N g1 and gamma(e) = q'N q as coefficient
    tuples in the strength e, lowest first (all None when N is)."""

    def __init__(self, problem: OscillatorProblem, space: TrialSpace):
        self.problem, self.space, self.harmonics = problem, space, _harmonics(problem)
        self.eps, self.w0_sq = Fraction(problem.epsilon), Fraction(problem.omega0_sq)
        self.g1 = [Fraction(problem.amplitude) * s.get(1, 0) for s in space._exact]
        self.g0 = [sum(a * self.harmonics.get(k, 0) for k, a in s.items()) for s in space._exact]
        self.q = [self.eps * x + self.w0_sq * y for x, y in zip(self.g0, self.g1)]
        self.n_g1, self.n_g0 = _solve_exact(space._mhat, (self.g1, self.g0)) or (None, None)
        self.alpha = self.beta = self.gamma = None
        if self.n_g1 is not None:
            alpha, cross, square = (sum(x * y for x, y in zip(u, v)) for u, v in (
                (self.g1, self.n_g1), (self.g0, self.n_g1), (self.g0, self.n_g0)))
            self.alpha, self.beta = alpha, (self.w0_sq * alpha, cross)
            self.gamma = (self.w0_sq**2 * alpha, 2 * self.w0_sq * cross, square)


def _derivatives(model: _Model, omega: float, amplitudes):
    """dJ/dB, dJ/dw and the frozen window's extra term, each over pi, and
    u1(0), exactly at the given doubles.

    dJ/dB = pi (w Mh B + (q - w^2 g1) / w) and dJ/dw = pi (B'Mh B / 2 -
    q'B / w^2 - g1'B). Freezing the window at T removes L(T) dT/dw, i.e.
    adds (2 pi / w^2) L(T); for cosine shapes L(T) = L(0) =
    w^2 u1(0)^2 / 2 + (w0^2 - w^2) A u1(0) + eps f(A) u1(0), with
    u1(0) = sum_i B_i sum_k a_ik and f(A) = sum_k c_k.
    """
    w, b = Fraction(omega), [Fraction(float(x)) for x in amplitudes]
    s, amplitude = w * w, Fraction(model.problem.amplitude)
    mb = [sum(m * y for m, y in zip(row, b)) for row in model.space._mhat]
    gradient = [w * x + (qi - s * gi) / w for x, qi, gi in zip(mb, model.q, model.g1)]
    slope = sum(y * (x / 2 - qi / s - gi) for y, x, qi, gi in zip(b, mb, model.q, model.g1))
    u1_0 = sum(y * sum(shape.values()) for y, shape in zip(b, model.space._exact))
    f_a = sum(model.harmonics.values())
    boundary = (s * u1_0 / 2 + (model.w0_sq - s) * amplitude + model.eps * f_a) * u1_0
    return gradient, slope, 2 * boundary / s, u1_0


def d_omega(
    problem: OscillatorProblem,
    space: TrialSpace,
    omega: float,
    amplitudes,
    include_period_term: bool = True,
) -> float:
    """Total dJ/dw at fixed amplitudes, in closed form and rounded once.

    The default includes the dependence of the upper limit T = 2 pi / w on
    w. With ``include_period_term`` false, the boundary contribution
    L(T) dT/dw is removed, which answers what the derivative would be if
    the integration window were frozen at the current period.
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    _, slope, frozen, _ = _derivatives(_Model(problem, space), omega, amplitudes)
    return _times_pi(slope + (0 if include_period_term else frozen))


@dataclass
class StationaryPoint:
    """Joint stationary point of J in (B, w)."""

    omega: float
    amplitudes: tuple
    action_value: float
    grad_norm: float
    branch: str
    # u1(0) and both dJ/dw conventions, each rounded once; only the audit reads them
    u1_at_0: float
    domega_with_period_term: float
    domega_frozen_period: float


def default_bracket(problem: OscillatorProblem) -> tuple[float, float]:
    """``BRACKET_FACTORS`` times sqrt(w0^2 + 3 eps c_3 A^2 / 4), a heuristic
    that folds in the cubic term only: other wells may need a bracket."""
    cubic = problem.nonlinearity.coefficients.get(3, 0.0)
    radicand = problem.omega0_sq + 0.75 * problem.epsilon * problem.amplitude_sq * cubic
    if not radicand > 0.0:
        raise BracketError(
            "no usable default bracket for this problem; pass one explicitly"
        )
    w_eff = math.sqrt(radicand)
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
        if a == 0.0:
            prev = values[k - 1] if k > 0 else None
            if b != 0.0 and (prev is None or prev != 0.0):
                zeros.append(k)
            continue
        if b == 0.0:
            continue  # handled as the left endpoint of the next pair
        if (a < 0.0) != (b < 0.0):
            brackets.append(k)
    if n and values[-1] == 0.0 and (n < 2 or values[-2] != 0.0):
        zeros.append(n - 1)
    return brackets, zeros


def _linspace(lo, hi, count):
    """``count`` evenly spaced points from lo to hi: lo + k step, with the
    last point set to hi, bit for bit as ``numpy.linspace`` unless the step
    underflows to zero."""
    step = (hi - lo) / (count - 1)
    return [k * step + lo for k in range(count - 1)] + [hi]


def max_abs(values) -> float:
    """Largest |v| (0.0 for none); NaN if any v is NaN, as numpy's max."""
    magnitudes = [abs(v) for v in values]
    if any(math.isnan(m) for m in magnitudes):
        return math.nan
    return max(magnitudes, default=0.0)


def _solve_exact(matrix, columns):
    """matrix^-1 @ column for each column, exactly; None if matrix is singular."""
    n = len(matrix)
    rows = [row + [column[i] for column in columns] for i, row in enumerate(matrix)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c:
                rows[r] = [v - rows[r][c] * p for v, p in zip(rows[r], rows[c])]
    return [[row[n + j] for row in rows] for j in range(len(columns))]


def _stationary_frequencies(model: _Model, bracket):
    """The stationary point at B = -M^-1 g inside the bracket as (w, B, J,
    continued), or None; ``continued`` is whether it lies on the branch
    continued from the linear limit.

    With M(w) = pi w Mh and g(w) = (pi / w) (q - w^2 g1), q = eps g0 + w0^2 g1,
    eliminating B turns dJ/dw = 0 into (alpha / 2) s^2 + beta s -
    (3 / 2) gamma = 0 in s = w^2: alpha = g1'N g1, beta = q'N g1,
    gamma = q'N q, N = Mh^-1. Mh = S'WS with W = diag(1 - k^2) <= 0 (a
    congruence), so N is negative definite where it exists: alpha < 0 unless
    g1 = 0, and gamma <= 0 with equality only at q = 0, where beta = 0 too.
    With g1 and q non-zero the roots' product -3 gamma / alpha is negative,
    so exactly one root is positive, and otherwise none is. That root is
    w0^2 at e = 0 and stays positive, i.e. continues the linear branch to
    eps, exactly while gamma(e) < 0. Every quantity is formed exactly. At
    the rounded w, B = -(N q - s N g1) / s and J = g'B / 2 =
    -pi (gamma - 2 s beta + s^2 alpha) / (2 w s), each rounded once.
    """
    alpha, eps = model.alpha, model.eps
    if not alpha:  # N singular, or g1 = 0
        return None
    b, g = horner(model.beta, eps), horner(model.gamma, eps)
    if not g:  # q = 0
        return None
    with decimal.localcontext(CONTEXT):  # without cancellation; D > 0
        lead = -(to_decimal(b) + (1 if b >= 0 else -1) * to_decimal(b * b + 3 * alpha * g).sqrt())
        square = lead / to_decimal(alpha) if b >= 0 else to_decimal(-3 * g) / lead
        omega = float(square.sqrt())
    if not bracket[0] <= omega <= bracket[1]:
        return None
    w0_sq, w = model.w0_sq, Fraction(omega)
    s = w * w
    n_q = [eps * n0 + w0_sq * n1 for n1, n0 in zip(model.n_g1, model.n_g0)]
    amplitudes = [float((s * n1 - nq) / s) for n1, nq in zip(model.n_g1, n_q)]
    action = _times_pi((2 * s * b - g - s * s * alpha) / (2 * w * s))
    continued = w0_sq > 0 and positive_on([-x for x in model.gamma], min(eps, 0), max(eps, 0))
    return omega, tuple(amplitudes), action, continued


def solve_stationary(
    problem: OscillatorProblem,
    space: TrialSpace,
    bracket: tuple[float, float] | None = None,
) -> list[StationaryPoint]:
    """All joint stationary points of J inside the frequency bracket.

    Two routes are combined deterministically:

    * the one positive root of the exact quadratic in w^2 to which joint
      stationarity reduces (see ``_stationary_frequencies``), at B solving
      M B = -g;
    * the zero-amplitude ray, on which stationarity reduces to the joint
      vanishing of every forcing projection g_i(w).

    Coincident roots are merged (the exact ray root wins) and each point is
    labelled: the quadratic's root, when it lies on the branch continued
    from the linear limit as the nonlinearity is switched on, is tagged
    ``continued-from-linear``, and so is the point it merges into; remaining
    points are ``trivial-B`` or ``stationary``.
    """
    if bracket is None:
        bracket = default_bracket(problem)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi):
        raise BracketError(f"bracket must satisfy 0 < low < high, got ({lo}, {hi})")

    model = _Model(problem, space)
    quadratic = _stationary_frequencies(model, (lo, hi))
    candidates = [] if quadratic is None else [(quadratic[0], "quadratic", *quadratic[1:])]

    # Zero-amplitude ray: roots of each projection, kept only when every
    # component vanishes there jointly.
    grid = _linspace(lo, hi, GRID_POINTS)
    gmat = [_forcing_projections(problem, space, w) for w in grid]
    g_scale = max(1.0, max_abs([g for row in gmat for g in row]))
    ray_roots = []
    for i in range(space.dimension):
        column = [row[i] for row in gmat]
        if max(abs(v) for v in column) <= 1e-13 * g_scale:
            continue  # projection vanishes identically: no isolated roots
        col_brackets, col_zeros = _sign_change_candidates(grid, column)
        for k in col_brackets:
            root = _refine_sign_change(
                lambda w, ii=i: _forcing_projections(problem, space, w)[ii],
                grid[k], grid[k + 1], column[k], column[k + 1], 4e-16,
            )
            ray_roots.append(root)
        ray_roots.extend(grid[k] for k in col_zeros)
    for root in ray_roots:
        if max_abs(_forcing_projections(problem, space, root)) <= JOINT_RAY_TOL * g_scale:
            candidates.append((root, "ray", (0.0,) * space.dimension, 0.0, False))

    merged: list[tuple[StationaryPoint, str]] = []
    for omega_c, source, b, j, continued in sorted(candidates, key=lambda c: c[:2]):
        gradient, slope, frozen, u1_0 = _derivatives(model, omega_c, b)
        branch = "trivial-B" if classify_triviality(b, problem.amplitude) else "stationary"
        point = StationaryPoint(
            omega=float(omega_c),
            amplitudes=b,
            action_value=j,
            grad_norm=max(abs(_times_pi(x)) for x in [*gradient, slope]),
            branch="continued-from-linear" if continued else branch,
            u1_at_0=float(u1_0),
            domega_with_period_term=_times_pi(slope),
            domega_frozen_period=_times_pi(slope + frozen),
        )
        if merged:
            last, last_source = merged[-1]
            if point.omega - last.omega <= MERGE_REL_TOL * last.omega:
                keep_new = (source == "ray" and last_source != "ray") or (
                    source == last_source and point.grad_norm < last.grad_norm
                )
                if keep_new:
                    merged[-1] = (point, source)
                if "continued-from-linear" in (point.branch, last.branch):
                    merged[-1][0].branch = "continued-from-linear"
                continue
        merged.append((point, source))
    return [point for point, _ in merged]


def classify_triviality(amplitudes, amplitude: float) -> bool:
    """True iff every trial amplitude is zero at the working scale."""
    if not amplitude > 0.0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    try:
        values = [float(b) for b in amplitudes]
    except TypeError:  # a scalar
        values = [float(amplitudes)]
    return max_abs(values) <= TRIVIALITY_SCALE * amplitude
