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

``family(params)`` is the one way to evaluate them: its methods alpha, beta,
gamma and omega take x as a float or an array, and ``.constants`` holds the
certified constants.  Each method returns finite values or raises a
DomainError: for x < 0, x not finite, or x/c past _U_MAX; DerivativeAtZero for
alpha's derivatives at x = 0, where the radical has its branch point; and for
a derivative that leaves the double range (alpha's near x = 0, or any at an
extreme c).  gamma and omega use the Taylor branch below x0, so they are
finite from x = 0 on.

The distinguished abscissa x0 = y_n * c comes from a trigonometric closed
form.  y_n and k_n are evaluated in mpmath, which stays a dependency while
perfbench reads its version, and y_n is certified against an independent
bisection of the defining cubic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np
from mpmath import mp, mpf
from mpmath import atan as _matan
from mpmath import cos as _mcos
from mpmath import sqrt as _msqrt

from .errors import DerivativeAtZero, DomainError, RootMismatch, double_range

__all__ = [
    "PinchingParams",
    "CriticalConstants",
    "ThresholdFamily",
    "family",
]

_MP_DPS = 50
_ROOT_SCAN_POINTS = 8192
_ROOT_AGREEMENT_RTOL = 1e-9
_EXTENSION_SCAN_POINTS = 4001
_U_MAX = 1e60  # largest x/c; from ~1e62 on, s**2.5 (s ~ u^2) in alpha's d3 overflows
GRID_X_MAX = 100.0  # times c, the top of default_grid
_C_MIN = float(np.finfo(float).tiny)  # the smallest normal double


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
        if self.c < _C_MIN:  # a subnormal c carries fewer digits
            raise DomainError(
                f"ambient curvature c must be a normal double >= {_C_MIN!r}, got {self.c!r}"
            )
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
    a, b = float(ys[i]), float(ys[i + 1])
    negative_at_a = _cubic_residual(n, a) < 0.0
    # Bisect to a width of 1e-13 + 1e-15 |b|, which stays above one ulp of b,
    # so the loop ends.
    while b - a > 1e-13 + 1e-15 * abs(b):
        mid = 0.5 * (a + b)
        if (_cubic_residual(n, mid) < 0.0) == negative_at_a:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


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
    """alpha at c = 1 and its first `order` derivatives, which need u > 0."""
    s = u * u + 4.0 * (n - 1.0) * u
    radical = np.sqrt(s)
    out = [n + n / (2.0 * (n - 1.0)) * u - (n - 2.0) / (2.0 * (n - 1.0)) * radical]
    if order >= 1:
        slope = (n - 2.0) / (2.0 * (n - 1.0)) * (u + 2.0 * (n - 1.0)) / radical
        out.append(n / (2.0 * (n - 1.0)) - slope)
    if order >= 2:
        out.append(2.0 * (n - 2.0) * (n - 1.0) / s ** 1.5)
    if order >= 3:
        out.append(-6.0 * (n - 2.0) * (n - 1.0) * (u + 2.0 * (n - 1.0)) / s ** 2.5)
    return out


def _omega(n: int, u, order: int = 2) -> list:
    """Printed closed form of omega at c = 1 for u >= y_n: [omega] at order 0, else [omega, d1, d2].

    omega = u^2 b^2 / sqrt(s) with s = u^2 + 4(n-1)u, b = (1 + n^2/u)(R - v)/(R + v),
    v = u/sqrt(s) and R = n/(n-2).  Its derivatives are omega L1 and omega (L2 + L1^2),
    with L1, L2 those of log omega = 2 log(u + n^2) - log(s)/2 + 2 log((R - v)/(R + v)).
    """
    m = n - 1.0
    ratio = n / (n - 2.0)
    s = u * u + 4.0 * m * u
    inv_r = 1.0 / np.sqrt(s)
    v = u * inv_r
    q = 1.0 / (ratio + v)
    # these products of reciprocals, in this order, fix omega's last bits on x >= x0
    b = (1.0 + n * n * (1.0 / u)) * ((ratio - v) * q)
    w = u * u * inv_r * b * b
    if order == 0:
        return [w]
    p = 1.0 / (ratio - v)
    v1 = 2.0 * m * v / s  # v'
    e, h = 1.0 / (u + n * n), (u + 2.0 * m) / s  # (log(u + n^2))', (log s)' / 2
    l1 = 2.0 * e - h - 2.0 * v1 * (p + q)
    v2 = -2.0 * v1 * (u + m) / s  # v''
    l2 = -2.0 * e * e - 1.0 / s + 2.0 * h * h - 2.0 * (v2 + v1 * v1 * (p - q)) * (p + q)
    return [w, w * l1, w * (l2 + l1 * l1)]


def _taylor(coeffs, du):
    """Quadratic Taylor polynomial with coefficients (f, f', f'') at offset du."""
    f0, f1, f2 = coeffs
    return f0 + f1 * du + 0.5 * f2 * du * du, f1 + f2 * du, np.full(np.shape(du), f2)


def _to_x(values, c: float) -> tuple:
    """(f, f', ...) at c = 1 and u = x/c, scaled back to x: the j-th entry times c^(1-j).

    Divides by c one step at a time: c^(j-1) itself may leave the double range.
    DomainError when a finite entry overflows (alpha''' ~ c^-2 at c = 1e-300).
    """
    value, *derivs = values
    with double_range("a derivative", c):
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
        with double_range("the threshold family", params.c):
            x0, x1 = np.multiply((unit.x0, unit.x1), params.c)
        if min(x0, x1) < _C_MIN:
            raise DomainError(
                f"the threshold family leaves the normal double range at c = {params.c!r}"
            )
        self.constants = replace(unit, x0=float(x0), x1=x1)
        self.y_n = self.constants.y_n
        self.x0 = self.constants.x0
        self.x1 = self.constants.x1
        self.k_n = self.constants.k_n

    def alpha(self, x, order: int = 3):
        """Radical threshold branch and derivatives up to the requested order.

        Returns (alpha, d1, d2, d3) truncated to order+1 entries.  Derivatives
        at x = 0, where the radical has its branch point, raise
        DerivativeAtZero; near 0, where s^(j - 1/2) in the j-th derivative
        leaves the double range, they raise DomainError.
        """
        u = self._u(x, "alpha")
        if order > 0 and (np.asarray(x) == 0.0).any():
            raise DerivativeAtZero("alpha's derivatives are singular at x = 0")
        # s^1.5 and s^2.5 turn subnormal, then 0, long before u does: dividing by
        # them overflows or divides by zero, and both raise
        with double_range("a derivative", self.params.c), np.errstate(divide="raise"):
            values = _alpha(self.params.n, u, order)
        return _to_x(values, self.params.c)

    def beta(self, x):
        """Taylor branch about x0: returns (beta, d1, d2)."""
        u = self._u(x, "beta")
        return _to_x(_taylor(self._alpha_taylor, u - self.y_n), self.params.c)

    def gamma(self, x, order: int = 2):
        """Pinching threshold: alpha for x >= x0, beta below.

        Returns (gamma, d1, d2, alpha_mask), the derivatives truncated to the
        requested order <= 2.  First derivatives use the beta polynomial below
        x0, so they are finite at x = 0.
        """
        return self._join(x, "gamma", self._alpha_taylor, _alpha, order)

    def omega(self, x, order: int = 2):
        """Positive pinching weight: returns (omega, d1, d2) truncated to order+1 entries.

        Closed form for x >= x0; second-order Taylor extension below.
        """
        return self._join(x, "omega", self._omega_taylor, _omega, order)[:-1]

    def _join(self, x, name: str, taylor, closed, order: int):
        """closed(n, u, order) from x0 on, the Taylor polynomial about x0 below.

        Returns (f, d1, ..., d_order, on_closed).  Both run at c = 1 on u = x/c;
        the closed form only on the entries it keeps.
        """
        u = self._u(x, name)
        parts = [np.asarray(v) for v in _taylor(taylor, u - self.y_n)[: order + 1]]
        on_closed = np.asarray(x, dtype=float) >= self.x0
        for out, v in zip(parts, closed(self.params.n, u[on_closed], order)):
            out[on_closed] = v
        return (*_to_x(parts, self.params.c), on_closed)

    def _u(self, x, name: str) -> np.ndarray:
        """u = x/c as a float array; DomainError unless x >= 0 is finite and u <= _U_MAX."""
        x = np.asarray(x, dtype=float)
        if not ((x >= 0.0) & (x < np.inf)).all():
            raise DomainError(f"{name} is defined for finite x >= 0 only")
        with np.errstate(over="ignore"):  # u = inf fails the check below
            u = np.asarray(x / self.params.c)
        if not (u <= _U_MAX).all():
            raise DomainError(f"{name} is defined for x/c <= {_U_MAX:g} only")
        return u

    def default_grid(self, points: int = 10_000):
        """c times the grid of n at c = 1, so exact for c = 2^k.

        The c = 1 grid is log-spaced on [1e-8, 1), linear on [1, GRID_X_MAX],
        plus y_n, x1, (n-2)^2 and the n-dependent marker x2 that fall inside.
        Needs points >= 3, the fewest that leave both parts non-empty.
        """
        if points < 3:
            raise DomainError(f"default grid needs at least 3 points, got {points!r}")
        n = self.params.n
        unit = _unit(n)[0]
        n_log = points // 3
        log_part = np.geomspace(1e-8, 1.0, n_log, endpoint=False)
        lin_part = np.linspace(1.0, GRID_X_MAX, points - n_log)
        x2 = np.sqrt(2.0 * (n - 1.0)) * (np.sqrt(n - 1.0) - 1.0 / np.sqrt(2.0)) ** 2
        marked = np.array([unit.x0, unit.x1, (n - 2.0) ** 2, x2])
        marked = marked[(marked >= 1e-8) & (marked <= GRID_X_MAX)]
        grid = np.unique(np.concatenate([log_part, lin_part, marked]))
        with double_range("the default grid", self.params.c):
            return grid * self.params.c


@functools.cache
def family(params: PinchingParams) -> ThresholdFamily:
    """Cached ThresholdFamily for the given parameters."""
    return ThresholdFamily(params)

