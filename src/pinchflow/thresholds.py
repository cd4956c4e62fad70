"""Curvature-pinching threshold functions for hypersurfaces in spherical space forms.

Everything here is a function of x = H^2 for a fixed ambient dimension n and
curvature c > 0.  The threshold gamma is the C^2 join of a radical branch
(alpha, active for x >= x0) and its second-order Taylor polynomial about x0
(beta, active below).  The weight omega enters the slack term of the pinching
monitor; its printed closed form only covers x >= x0 and is extended below x0
by its own second-order Taylor polynomial, with positivity verified once per n.

All four are homogeneous of degree 1 in (x, c): f(x; c) = c f(x/c; 1), so the
j-th x-derivative is c^(1-j) times the c = 1 derivative at u = x/c.  Each n is
built once, at c = 1, and every evaluation runs at u = x/c and scales back.
Only u is ever squared, so c from 1e-300 to 1e300 evaluates without overflow.

The distinguished abscissa x0 = y_n * c comes from a trigonometric closed
form.  y_n and k_n are evaluated in mpmath, which stays a dependency while
perfbench reads its version, and y_n is certified against an independent
bisection of the defining cubic.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, replace

import numpy as np
from mpmath import mp, mpf
from mpmath import atan as _matan
from mpmath import cos as _mcos
from mpmath import sqrt as _msqrt
from scipy.optimize import brentq

from .errors import DerivativeAtZero, DomainError, RootMismatch
from .jets import variable

__all__ = [
    "Branch",
    "PinchingParams",
    "CriticalConstants",
    "ThresholdBundle",
    "ThresholdFamily",
    "family",
    "eval_alpha",
    "eval_beta",
    "eval_gamma",
    "eval_omega",
    "compute_y_n",
    "compute_k_n",
]

_MP_DPS = 50
_ROOT_SCAN_POINTS = 8192
_ROOT_AGREEMENT_RTOL = 1e-9
_EXTENSION_SCAN_POINTS = 4001


class Branch(enum.Enum):
    """Which branch of the threshold is active at a given x."""

    ALPHA = "alpha"
    BETA = "beta"


@dataclass(frozen=True)
class PinchingParams:
    """Ambient data: dimension n >= 3 and sectional curvature c > 0."""

    n: int
    c: float = 1.0

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 3:
            raise DomainError(f"dimension n must be an integer >= 3, got {self.n!r}")
        if not (self.c > 0.0) or not np.isfinite(self.c):
            raise DomainError(f"ambient curvature c must be positive, got {self.c!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "c", float(self.c))


@dataclass(frozen=True)
class CriticalConstants:
    """Distinguished constants of the threshold family.

    y_n is the unique positive root of the defining cubic; x0 = y_n * c is the
    branch point of gamma; x1 is the minimizer of alpha; k_n * c is the sharp
    constant-pinching level.  k_n_branch records which of the two printed
    formulas produced k_n (Taylor value at zero for n = 3, parabola vertex for
    n >= 4).
    """

    y_n: float
    x0: float
    x1: float
    k_n: float
    k_n_branch: str
    bneq_residual: float


@dataclass(frozen=True)
class ThresholdBundle:
    """All threshold values and derivatives at a single x = H^2.

    alpha derivatives are NaN at x = 0, where the radical is singular.
    """

    x: float
    alpha: float
    beta: float
    gamma: float
    alpha_d1: float
    alpha_d2: float
    alpha_d3: float
    gamma_d1: float
    gamma_d2: float
    omega: float
    omega_d1: float
    omega_d2: float
    active_branch: Branch


def _abscissa(x, name: str) -> np.ndarray:
    """x as a float array; DomainError unless every entry is finite and >= 0."""
    x = np.asarray(x, dtype=float)
    if not ((x >= 0.0) & (x < np.inf)).all():
        raise DomainError(f"{name} is defined for finite x >= 0 only")
    return x


def _cubic_residual(n: int, y):
    """Defining cubic for y_n: vanishing identifies the branch point."""
    ratio = (n * n - 4.0 * n + 6.0) / (n * n - 4.0)
    lhs = y * (y + 6.0 * (n - 1.0)) ** 2
    rhs = ratio * ratio * (y + 4.0 * (n - 1.0)) ** 3
    return lhs - rhs


def _y_n_bisection(n: int) -> float:
    """Certify y_n by sign-change scan plus bisection on (0, sqrt(8) n^2)."""
    upper = np.sqrt(8.0) * n * n
    ys = np.linspace(1e-9, upper, _ROOT_SCAN_POINTS)
    vals = _cubic_residual(n, ys)
    sign_changes = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if len(sign_changes) != 1:
        raise RootMismatch(
            f"expected exactly one positive root of the y_n cubic for n={n}, "
            f"found {len(sign_changes)} sign changes"
        )
    i = sign_changes[0]
    return brentq(lambda y: _cubic_residual(n, y), ys[i], ys[i + 1], xtol=1e-13, rtol=1e-15)


def _closed_forms(n: int) -> tuple[float, float, str]:
    """(y_n, k_n, k_n branch) in extended precision, from one evaluation of y_n.

    y_n comes from its trigonometric closed form; k_n from the normalized
    (c = 1) threshold at x0 = y_n.
    """
    with mp.workdps(_MP_DPS):
        m = mpf(n)
        angle = _matan((m * m - 4 * m + 6) / (2 * (m - 1) * _msqrt(2 * m - 5))) / 3
        y = 4 * (1 - m) + (2 * (m * m - 4) / _msqrt(2 * m - 5)) * _mcos(angle)
        radical = _msqrt(y * y + 4 * (m - 1) * y)
        a = m + m / (2 * (m - 1)) * y - (m - 2) / (2 * (m - 1)) * radical
        d1 = m / (2 * (m - 1)) - (m - 2) / (2 * (m - 1)) * (y + 2 * (m - 1)) / radical
        d2 = 2 * (m - 2) * (m - 1) / (y * y + 4 * (m - 1) * y) ** mpf("1.5")
        if n == 3:
            value = a - d1 * y + d2 * y * y / 2
            branch = "taylor_at_zero"
        else:
            value = a - d1 * d1 / (2 * d2)
            branch = "vertex"
        return float(y), float(value), branch


def _alpha(n: int, u, order: int) -> list:
    """alpha at c = 1 and its first `order` derivatives; NaN derivatives at u = 0."""
    s = u * u + 4.0 * (n - 1.0) * u
    radical = np.sqrt(s)
    out = [n + n / (2.0 * (n - 1.0)) * u - (n - 2.0) / (2.0 * (n - 1.0)) * radical]
    with np.errstate(divide="ignore", invalid="ignore"):
        if order >= 1:
            slope = (n - 2.0) / (2.0 * (n - 1.0)) * (u + 2.0 * (n - 1.0)) / radical
            out.append(n / (2.0 * (n - 1.0)) - slope)
        if order >= 2:
            out.append(2.0 * (n - 2.0) * (n - 1.0) / s ** 1.5)
        if order >= 3:
            out.append(-6.0 * (n - 2.0) * (n - 1.0) * (u + 2.0 * (n - 1.0)) / s ** 2.5)
    return [out[0]] + [np.where(u > 0.0, d, np.nan) for d in out[1:]]


def _omega(n: int, u):
    """Printed closed form of omega at c = 1, valid for u >= y_n: (omega, d1, d2)."""
    uj = variable(u)
    radical = (uj * uj + 4.0 * (n - 1.0) * uj).sqrt()
    v = uj / radical
    ratio = n / (n - 2.0)
    bracket = (1.0 + (n * n) / uj) * ((ratio - v) / (ratio + v))
    w = (uj * uj / radical) * bracket * bracket
    return w.f, w.d1, w.d2


def _taylor(coeffs, du):
    """Quadratic Taylor polynomial with coefficients (f, f', f'') at offset du."""
    f0, f1, f2 = coeffs
    return f0 + f1 * du + 0.5 * f2 * du * du, f1 + f2 * du, np.full(np.shape(du), f2)


def _to_x(jet, c: float) -> tuple:
    """A c = 1 jet at u = x/c, scaled back to x: the j-th entry times c^(1-j).

    Divides by c one step at a time: c^(j-1) itself may leave the double range.
    """
    value, *derivs = jet
    out = [value * c]
    for j, d in enumerate(derivs):
        for _ in range(j):
            d = d / c
        out.append(d)
    return tuple(out)


@functools.cache
def _unit(n: int) -> tuple[CriticalConstants, tuple, tuple]:
    """Constants of n at c = 1, certified, and the Taylor data of alpha and omega at y_n.

    Also checks once that omega's Taylor extension stays positive on [0, y_n].
    """
    y_closed, k_n, k_branch = _closed_forms(n)
    y_root = _y_n_bisection(n)
    if abs(y_closed - y_root) > _ROOT_AGREEMENT_RTOL * max(1.0, abs(y_closed)):
        raise RootMismatch(
            f"closed-form y_n={y_closed!r} and bisection root {y_root!r} disagree for n={n}"
        )
    residual = _cubic_residual(n, y_closed)
    scale = abs(y_closed * (y_closed + 6.0 * (n - 1.0)) ** 2)
    x1 = n * np.sqrt(n - 1.0) - 2.0 * n + 2.0
    constants = CriticalConstants(y_closed, y_closed, x1, k_n, k_branch, abs(residual) / scale)
    y = np.asarray(y_closed)
    omega_taylor = tuple(float(v) for v in _omega(n, y))
    us = np.linspace(0.0, y_closed, _EXTENSION_SCAN_POINTS)
    if not np.all(_taylor(omega_taylor, us - y_closed)[0] > 0.0):
        raise DomainError(f"omega Taylor extension loses positivity on [0, y_n] for n={n}")
    return constants, tuple(float(v) for v in _alpha(n, y, 2)), omega_taylor


class ThresholdFamily:
    """Threshold evaluations for one (n, c): the c = 1 data of n, scaled by c.

    Array arguments are accepted everywhere and evaluated elementwise.
    """

    def __init__(self, params: PinchingParams):
        self.params = params
        unit, self._alpha_taylor, self._omega_taylor = _unit(params.n)
        c = params.c
        self.constants = replace(unit, x0=unit.x0 * c, x1=unit.x1 * c)
        self.y_n = self.constants.y_n
        self.x0 = self.constants.x0
        self.x1 = self.constants.x1
        self.k_n = self.constants.k_n

    def alpha(self, x, order: int = 3):
        """Radical threshold branch and derivatives up to the requested order.

        Returns (alpha, d1, d2, d3) truncated to order+1 entries.  Derivative
        entries at x = 0 are NaN.
        """
        x = _abscissa(x, "alpha")
        n, c = self.params.n, self.params.c
        return _to_x(_alpha(n, x / c, order), c)

    def beta(self, x):
        """Taylor branch about x0: returns (beta, d1, d2)."""
        x = _abscissa(x, "beta")
        c = self.params.c
        return _to_x(_taylor(self._alpha_taylor, x / c - self.y_n), c)

    def gamma(self, x):
        """Pinching threshold: alpha for x >= x0, beta below.

        Returns (gamma, d1, d2, alpha_mask).  First derivatives use the beta
        polynomial below x0, so they are finite at x = 0.
        """
        return self._join(x, "gamma", self._alpha_taylor, lambda n, u: _alpha(n, u, 2))

    def omega(self, x):
        """Positive pinching weight: returns (omega, d1, d2).

        Closed form for x >= x0; second-order Taylor extension below.
        """
        return self._join(x, "omega", self._omega_taylor, _omega)[:3]

    def _join(self, x, name: str, taylor, closed):
        """closed(n, u) from x0 on, the Taylor polynomial about x0 below: (f, d1, d2, on_closed).

        Both run at c = 1 on u = x/c; the closed form only on the entries it keeps.
        """
        x = _abscissa(x, name)
        c = self.params.c
        u = np.asarray(x / c)
        f, d1, d2 = (np.asarray(v) for v in _taylor(taylor, u - self.y_n))
        on_closed = x >= self.x0
        for out, v in zip((f, d1, d2), closed(self.params.n, u[on_closed])):
            out[on_closed] = v
        return (*_to_x((f, d1, d2), c), on_closed)

    def bundle(self, x: float) -> ThresholdBundle:
        """Everything at one abscissa; alpha derivatives are NaN at x = 0."""
        xf = float(_abscissa(x, "thresholds"))
        a, a1, a2, a3 = self.alpha(xf)
        b, _, _ = self.beta(xf)
        g, g1, g2, on_alpha = self.gamma(xf)
        w, w1, w2 = self.omega(xf)
        return ThresholdBundle(
            x=xf,
            alpha=float(a),
            beta=float(b),
            gamma=float(g),
            alpha_d1=float(a1),
            alpha_d2=float(a2),
            alpha_d3=float(a3),
            gamma_d1=float(g1),
            gamma_d2=float(g2),
            omega=float(w),
            omega_d1=float(w1),
            omega_d2=float(w2),
            active_branch=Branch.ALPHA if on_alpha else Branch.BETA,
        )

    def default_grid(self, points: int = 10_000, x_max_factor: float = 100.0):
        """Log-spaced below c, linear above, plus the distinguished abscissas.

        Needs points >= 3, the fewest that leave both parts non-empty.
        """
        if points < 3:
            raise DomainError(f"default grid needs at least 3 points, got {points!r}")
        n, c = self.params.n, self.params.c
        n_log = points // 3
        log_part = np.geomspace(1e-8 * c, c, n_log, endpoint=False)
        lin_part = np.linspace(c, x_max_factor * c, points - n_log)
        x2 = np.sqrt(2.0 * (n - 1.0)) * (np.sqrt(n - 1.0) - 1.0 / np.sqrt(2.0)) ** 2 * c
        marked = np.array([self.x0, self.x1, (n - 2.0) ** 2 * c, x2])
        marked = marked[(marked >= 1e-8 * c) & (marked <= x_max_factor * c)]
        return np.unique(np.concatenate([log_part, lin_part, marked]))


@functools.cache
def family(params: PinchingParams) -> ThresholdFamily:
    """Cached ThresholdFamily for the given parameters."""
    return ThresholdFamily(params)


# ------------------------------------------------------------ operation API


def eval_alpha(params: PinchingParams, x: float, order: int = 3):
    """alpha(x) and its first `order` derivatives as a tuple of floats.

    Raises DerivativeAtZero when derivatives are requested at x = 0.
    """
    if x == 0.0 and order > 0:
        raise DerivativeAtZero("alpha derivatives are singular at x = 0")
    return tuple(float(v) for v in family(params).alpha(x, order=order))


def eval_beta(params: PinchingParams, x: float):
    """beta(x), beta'(x), beta''(x) as floats."""
    return tuple(float(v) for v in family(params).beta(x))


def eval_gamma(params: PinchingParams, x: float) -> ThresholdBundle:
    """Full ThresholdBundle at x."""
    return family(params).bundle(x)


def eval_omega(params: PinchingParams, x: float):
    """omega(x), omega'(x), omega''(x) as floats."""
    return tuple(float(v) for v in family(params).omega(x))


def compute_y_n(params: PinchingParams) -> CriticalConstants:
    """Certified constants (y_n, x0, x1, k_n) for the family."""
    return family(params).constants


def compute_k_n(params: PinchingParams) -> float:
    """Sharp constant-pinching level k_n (unitless multiple of c)."""
    return family(params).k_n
