"""Batch certification of the threshold inequalities, identities, and constants.

Every check returns a CheckReport; nothing asserts.  The thresholds are
homogeneous of degree 1 in (x, c), so every check but the flow oracles takes
the dimension n alone and computes at c = 1, on the family of n and its default
grid in u = x/c.  default_suite maps the c = 1 reports of n to each c with one
_at_c, which sets c and scales the worst point and the loci by c.  Margins are
normalized by a pointwise scale max(|lhs|, |rhs|, 1), so the pass thresholds
below are dimensionless:

  * identity residuals must stay below 1e-10,
  * strict inequalities must keep a normalized margin above 1e-12 away from
    their predicted equality loci,
  * equality is declared where the normalized residual drops below 1e-8, and
    must happen within one grid cell of the predicted locus.

Approximate literature values carry explicit bands (the x0 weight combination
for n = 3 lies in [11.2, 11.6]; asymptotic limits are matched to 1% at
u = 1e6).  The flow oracles run the flows at c itself, which is what they test.

The three grid checks of one n share one evaluation of alpha and beta on its
default grid, omega on its points u >= y_n, gamma joined from alpha and beta,
and the grid's cells (_grid_values: read-only arrays, only the latest n kept).
check_derivative_oracles makes one family call per function, on its seven
stencil rows stacked, and reads the closed-form derivatives off the last row.
The reports are the bits of evaluating each check on its own, all at once: 10
family calls per n for the four lattice checks, whatever the number of c.
check_okumura draws nothing (see its docstring).  The flow oracles pose their
flows as c = 1 numbers over sqrt(c) or c, so at the c = 4^k of the default
lattice each is one c = 1 integration, run once (flow._integrate).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import double_range
from .flow import (
    FlowConfig,
    TerminalKind,
    flow_ode_numeric,
    flow_product_exact,
    product_collapse_time,
    product_r1sq_exact,
)
from .geometry import (
    GeodesicSphere,
    ProductSn1S1,
    okumura_constant,
    product_lambda_for_mean_curvature,
)
from .thresholds import PinchingParams, family

__all__ = [
    "CheckReport",
    "check_lemma_app",
    "check_wpp",
    "check_constants",
    "check_derivative_oracles",
    "check_okumura",
    "check_flow_oracles",
    "default_suite",
]

IDENTITY_RTOL = 1e-10
STRICT_MARGIN = 1e-12
EQUALITY_RTOL = 1e-8
BAND_RTOL = 0.01
DEFAULT_NS = tuple(range(3, 13))
DEFAULT_CS = (0.25, 1.0, 4.0)
DEFAULT_GRID_POINTS = 10_000
DEFAULT_SEED = 2024
ORACLE_POINTS = 100  # random abscissas of check_derivative_oracles
LAGRANGE_WIDTH = 5  # stencil of _lagrange_derivative
REACTION_GROWTH_CAP = 2.0  # reaction_residuals stops once |h|^2 grows past this


@dataclass
class CheckReport:
    """Outcome of one verification check.

    worst_margin is normalized (dimensionless); positive means the check held
    with room to spare.  equality_loci lists [start, end] runs of grid points
    where equality was detected.
    """

    check_id: str
    n: int
    c: float
    grid_size: int
    worst_margin: float
    worst_x: float
    passed: bool
    equality_loci: list = field(default_factory=list)
    message: str = ""


def _at_c(reports: list[CheckReport], params: PinchingParams) -> list[CheckReport]:
    """c = 1 lattice reports at params.c, with worst_x and the loci as x = c u.

    DomainError where an abscissa leaves the double range; NaN stays NaN.
    """
    c = params.c
    with double_range("a reported abscissa", c):
        return [
            CheckReport(
                r.check_id, r.n, c, r.grid_size, r.worst_margin,
                float(np.float64(r.worst_x) * c), r.passed,
                (np.reshape(r.equality_loci, (-1, 2)) * c).tolist() if r.equality_loci else [],
                r.message,
            )
            for r in reports
        ]


def _cells(xs: np.ndarray) -> np.ndarray:
    """Local grid cell size: the larger of the two adjacent spacings."""
    d = np.diff(xs)
    left = np.concatenate([[d[0]], d])
    right = np.concatenate([d, [d[-1]]])
    return np.maximum(left, right)


def _runs(xs: np.ndarray, mask: np.ndarray) -> list:
    """Compress a boolean mask over xs into [start, end] runs."""
    idx = np.nonzero(mask)[0]
    if len(idx) == 0:
        return []
    breaks = np.nonzero(np.diff(idx) > 1)[0]
    starts = np.concatenate([[idx[0]], idx[breaks + 1]])
    ends = np.concatenate([idx[breaks], [idx[-1]]])
    return [[float(xs[s]), float(xs[e])] for s, e in zip(starts, ends)]


def _inequality_report(
    check_id: str,
    params: PinchingParams,
    us: np.ndarray,
    cells: np.ndarray,
    margin: np.ndarray,
    scale: np.ndarray,
    loci_points: tuple = (),
    loci_intervals: tuple = (),
    strict_rtol: float = STRICT_MARGIN,
) -> CheckReport:
    """Report for 'margin >= 0 with equality exactly on the predicted loci'.

    Away from the predicted loci (more than one grid cell) the normalized
    margin must exceed strict_rtol; checks whose margin vanishes with a high
    contact order at the locus pass strict_rtol = 0 (sign strictness only),
    since any fixed threshold is crossed arbitrarily close to the locus.
    Equality must be detected within one cell of each predicted point and
    throughout each predicted interval, and the reported loci are the
    detections inside that one-cell neighborhood.  cells is _cells(us).
    """
    normalized = margin / scale
    near = np.zeros(len(us), dtype=bool)
    for p in loci_points:
        near |= np.abs(us - p) <= cells
    for a, b in loci_intervals:
        near |= (us >= a - cells) & (us <= b + cells)
    eq = np.abs(normalized) <= EQUALITY_RTOL
    strict_zone = ~near
    ok_strict = bool(np.all(normalized[strict_zone] > strict_rtol)) if strict_zone.any() else True
    ok_sign = bool(np.all(normalized >= -EQUALITY_RTOL))
    ok_loci_detected = True
    for p in loci_points:
        ok_loci_detected &= bool(np.any(eq & (np.abs(us - p) <= cells)))
    for a, b in loci_intervals:
        inside = (us >= a + cells) & (us <= b - cells)
        if inside.any():
            ok_loci_detected &= bool(np.all(eq[inside]))
    if strict_zone.any():
        i = int(np.argmin(np.where(strict_zone, normalized, np.inf)))
    else:
        i = int(np.argmin(normalized))
    return CheckReport(
        check_id=check_id,
        n=params.n,
        c=params.c,
        grid_size=len(us),
        worst_margin=float(normalized[i]),
        worst_x=float(us[i]),
        passed=ok_strict and ok_sign and ok_loci_detected,
        equality_loci=_runs(us, eq & near),
    )


def _identity_report(check_id, params, xs, lhs, rhs, scale) -> CheckReport:
    rel = np.abs(lhs - rhs) / scale
    i = int(np.argmax(rel))
    return CheckReport(
        check_id=check_id,
        n=params.n,
        c=params.c,
        grid_size=len(xs),
        worst_margin=float(IDENTITY_RTOL - rel[i]),
        worst_x=float(xs[i]),
        passed=bool(rel[i] <= IDENTITY_RTOL),
    )


def _value_report(check_id, params, ok, margin, x=float("nan"), message="") -> CheckReport:
    return CheckReport(
        check_id=check_id,
        n=params.n,
        c=params.c,
        grid_size=0,
        worst_margin=float(margin),
        worst_x=float(x),
        passed=bool(ok),
        message=message,
    )


# ------------------------------------------------------- threshold lemmas


class _GridValues(NamedTuple):
    """The default grid of n at c = 1, its _cells, and what the grid checks read on it."""

    us: np.ndarray
    cells: np.ndarray
    alpha: tuple  # (f, d1, d2)
    beta: np.ndarray  # the value only
    gamma: tuple  # (f, d1, d2)
    omega: tuple  # (f, d1) on the grid points u >= x0 only


@functools.lru_cache(maxsize=1)
def _grid_values(n: int, grid_points: int) -> _GridValues:
    """One evaluation of alpha (to order 2), beta and omega (to order 1, from x0 on) at c = 1.

    check_lemma_app, check_wpp and check_constants of one n read it in turn.
    Every array is read-only, since the cache hands the same arrays to each
    caller.  The family methods act elementwise, so a masked entry is the same
    bits as an evaluation on the masked grid: gamma, alpha from x0 on and beta
    below, is taken from the alpha and beta already evaluated.
    """
    unit = family(PinchingParams(n))
    us = unit.default_grid(points=grid_points)
    alpha, beta = unit.alpha(us, order=2), unit.beta(us)
    on_alpha = us >= unit.x0
    gamma = tuple(np.where(on_alpha, a, b) for a, b in zip(alpha, beta))
    omega = unit.omega(us[on_alpha], order=1)
    values = _GridValues(us, _cells(us), alpha, beta[0], gamma, omega)
    for arr in (us, values.cells, *alpha, values.beta, *gamma, *omega):
        arr.setflags(write=False)
    return values


def check_lemma_app(n: int, grid_points: int = DEFAULT_GRID_POINTS):
    """Items (i)-(vi) of the structural lemma, plus the two alpha identities."""
    params = PinchingParams(n)
    grid = _grid_values(n, grid_points)
    us, cells = grid.us, grid.cells
    a, a1, a2 = grid.alpha
    g, g1, g2 = grid.gamma
    y_n = family(params).x0
    closed = ((y_n, us[-1]),)
    reports = []

    # (i) 2u g'' + g' <= 3/(n+2), equality only at y_n
    lhs = 2.0 * us * g2 + g1
    rhs = np.full_like(us, 3.0 / (n + 2.0))
    scale = np.maximum(np.abs(lhs), rhs)
    reports.append(
        _inequality_report("app_i", params, us, cells, rhs - lhs, scale, loci_points=(y_n,))
    )

    # (ii) (g + n) u g' >= 2u + g^2 - ng, equality exactly on [y_n, inf)
    lhs2 = (g + n) * us * g1
    rhs2 = 2.0 * us + g * g - n * g
    scale2 = np.maximum.reduce([np.abs(lhs2), np.abs(rhs2), np.ones_like(us)])
    reports.append(
        _inequality_report("app_ii", params, us, cells, lhs2 - rhs2, scale2, loci_intervals=closed)
    )

    # (iii) g > u g'
    scale3 = np.maximum(np.abs(g), np.abs(us * g1))
    reports.append(_inequality_report("app_iii", params, us, cells, g - us * g1, scale3))

    # (iv) g = min(alpha, beta), as an identity
    b = grid.beta
    reports.append(
        _identity_report("app_iv", params, us, g, np.minimum(a, b), np.maximum(np.abs(g), 1.0))
    )

    # (v) u/(n-1) + 2 < g < u/(n-1) + n
    base = us / (n - 1.0)
    low = g - base - 2.0
    high = base + n - g
    scale5 = np.maximum(np.abs(g), np.abs(base) + n)
    reports.append(_inequality_report("app_v_lower", params, us, cells, low, scale5))
    reports.append(_inequality_report("app_v_upper", params, us, cells, high, scale5))

    # (vi) okumura-weighted radical bound, equality exactly on [y_n, inf).
    # Third-order contact at y_n from below: sign strictness only.
    lhs6 = okumura_constant(n) * np.sqrt(us * (g - us / n)) + g
    rhs6 = 2.0 * us / n + n
    scale6 = np.maximum(np.abs(lhs6), np.abs(rhs6))
    reports.append(
        _inequality_report(
            "app_vi", params, us, cells, rhs6 - lhs6, scale6,
            loci_intervals=closed, strict_rtol=0.0,
        )
    )

    # identity: (alpha + n) u alpha' = 2u + alpha^2 - n alpha
    lhs_id = (a + n) * us * a1
    rhs_id = 2.0 * us + a * a - n * a
    scale_id = np.maximum.reduce([np.abs(lhs_id), np.abs(2.0 * us), a * a, n * np.abs(a)])
    reports.append(_identity_report("alid1", params, us, lhs_id, rhs_id, scale_id))

    # identity: okumura-weighted radical identity for alpha
    lhs_id2 = okumura_constant(n) * np.sqrt(us * (a - us / n)) + a
    rhs_id2 = 2.0 * us / n + n
    reports.append(
        _identity_report(
            "alid2", params, us, lhs_id2, rhs_id2, np.maximum(np.abs(lhs_id2), np.abs(rhs_id2))
        )
    )
    return reports


def check_wpp(n: int, grid_points: int = DEFAULT_GRID_POINTS):
    """Weight function properties: log-derivative identity, y_n combination, limits."""
    params = PinchingParams(n)
    unit = family(params)
    y_n = unit.x0
    grid = _grid_values(n, grid_points)
    on_closed = grid.us >= y_n
    us = grid.us[on_closed]
    w, w1 = grid.omega
    a, a1 = (v[on_closed] for v in grid.alpha[:2])
    reports = []

    # log-derivative identity on the closed-form branch
    lhs = w1 * us * (a + n)
    rhs = w * (2.0 * a - us * a1 - 3.0 * n)
    scale = np.maximum.reduce([np.abs(lhs), np.abs(rhs), n * w])
    reports.append(_identity_report("wpp_dlnw", params, us, lhs, rhs, scale))

    # positivity of the y_n combination; for n = 3 it sits in the printed band
    w0, w10, w20 = (float(v) for v in unit.omega(y_n))
    combo = 2.0 * y_n * w20 + w10
    ok = combo > 0.0
    message = f"2*x0*w''(x0)+w'(x0) = {combo:.6f}"
    if n == 3:
        ok = ok and 11.2 <= combo <= 11.6
        message += " (band [11.2, 11.6])"
    reports.append(_value_report("wpp_x0_positive", params, ok, combo, y_n, message))

    # asymptotics at u = 1e6, matched to 1%
    u_far = 1e6
    wf, wf1, wf2 = (float(v) for v in unit.omega(u_far))
    lim1 = 2.0 * u_far * wf2 + wf1
    target1 = 1.0 / (n - 1.0) ** 2
    err1 = abs(lim1 - target1) / target1
    reports.append(
        _value_report(
            "wpp_limit_second", params, err1 <= BAND_RTOL, BAND_RTOL - err1, u_far,
            f"2x w''+w' = {lim1:.8f} vs {target1:.8f}",
        )
    )
    lim2 = wf - u_far * wf1
    target2 = 2.0 * (2.0 * n - 1.0) / (n - 1.0)
    err2 = abs(lim2 - target2) / target2
    reports.append(
        _value_report(
            "wpp_limit_support", params, err2 <= BAND_RTOL, BAND_RTOL - err2, u_far,
            f"w - x w' = {lim2:.8f} vs {target2:.8f}",
        )
    )

    # boundedness of w - u w' over the grid
    support = w - us * w1
    ok_bounded = bool(np.all(np.isfinite(support)))
    reports.append(
        _value_report(
            "wpp_support_bounded", params, ok_bounded,
            float(np.max(np.abs(support))), float(us[np.argmax(np.abs(support))]),
            "sup |w - x w'| over grid",
        )
    )
    return reports


def check_constants(n: int, grid_points: int = DEFAULT_GRID_POINTS):
    """Distinguished constants: root certification, k_n bounds, minima, floors."""
    params = PinchingParams(n)
    unit = family(params)
    consts = unit.constants
    reports = []

    reports.append(
        _value_report(
            "const_bneq_residual", params, consts.bneq_residual <= IDENTITY_RTOL,
            IDENTITY_RTOL - consts.bneq_residual, consts.y_n,
            f"relative cubic residual {consts.bneq_residual:.3e}",
        )
    )
    ok_bounds = (
        consts.y_n < np.sqrt(8.0) * n * n
        and consts.y_n < 2.0 / 15.0 * n * (n + 2.0)
        and consts.x0 >= consts.x1
    )
    reports.append(
        _value_report(
            "const_yn_bounds", params, ok_bounds,
            min(np.sqrt(8.0) * n * n - consts.y_n, 2.0 / 15.0 * n * (n + 2.0) - consts.y_n,
                consts.x0 - consts.x1),
            consts.y_n,
            "y_n < sqrt(8) n^2, y_n < (2/15) n(n+2), x0 >= x1",
        )
    )

    k = consts.k_n
    ok_k = k > 1.8 * np.sqrt(n - 1.0)
    msgs = [f"k_n = {k:.9f}"]
    if n == 10:
        ok_k = ok_k and abs(k - 6.0) <= 1e-9
        msgs.append("k_10 = 6 within 1e-9")
    if n == 4:
        ok_k = ok_k and k > 3.443
    if n == 5:
        ok_k = ok_k and k > 3.998
    if 5 <= n <= 9:
        ok_k = ok_k and k > 1.999 * np.sqrt(n - 1.0)
    reports.append(
        _value_report(
            "const_kn", params, ok_k, k - 1.8 * np.sqrt(n - 1.0), consts.y_n, "; ".join(msgs)
        )
    )

    grid = _grid_values(n, grid_points)
    us, g, a = grid.us, grid.gamma[0], grid.alpha[0]
    floor = 1.8 * np.sqrt(n - 1.0)
    margin = g - floor
    i = int(np.argmin(margin))
    reports.append(
        _value_report(
            "const_gamma_floor", params, margin[i] > 0.0, float(margin[i] / (abs(floor) + 1.0)),
            float(us[i]), "gamma > (9/5) sqrt(n-1) c on grid",
        )
    )

    # global minimum of alpha: value 2 sqrt(n-1), attained at x1 with alpha' = 0
    a_x1, a1_x1, a2_x1, _ = (float(v) for v in unit.alpha(consts.x1))
    target_min = 2.0 * np.sqrt(n - 1.0)
    i_min = int(np.argmin(a))
    cell = grid.cells[i_min]
    ok_min = (
        abs(a_x1 - target_min) <= 1e-9
        and abs(a1_x1) <= 1e-9
        and abs(us[i_min] - consts.x1) <= cell
        and a[i_min] >= a_x1 - 1e-12
    )
    reports.append(
        _value_report(
            "const_alpha_min", params, ok_min, a_x1 - target_min, consts.x1,
            f"min alpha = {a_x1!r} at x1; grid argmin at u = {float(us[i_min])!r}",
        )
    )

    # closed-form markers at x1 and (n-2)^2
    combo_x1 = 2.0 * consts.x1 * a2_x1 + a1_x1
    target_combo = 4.0 / (2.0 * np.sqrt(n - 1.0) + n)
    target_curv = 2.0 / ((n - 2.0) ** 2 * np.sqrt(n - 1.0))
    a_mark = float(unit.alpha((n - 2.0) ** 2, order=0)[0])
    ok_marks = (
        abs(combo_x1 - target_combo) <= IDENTITY_RTOL * target_combo
        and abs(a2_x1 - target_curv) <= IDENTITY_RTOL * target_curv
        and abs(a_mark - n) <= IDENTITY_RTOL * n
    )
    reports.append(
        _value_report(
            "const_alpha_marks", params, ok_marks,
            IDENTITY_RTOL - abs(combo_x1 - target_combo) / target_combo, consts.x1,
            "2x1 a''+a' and a''(x1) and alpha((n-2)^2 c) match closed forms",
        )
    )

    # k_n is a lower bound for gamma
    ok_inf = k <= float(g.min()) + 1e-9
    reports.append(
        _value_report(
            "const_kn_floor", params, ok_inf, float(g.min()) - k, float(us[np.argmin(g)]),
            "k_n c <= min gamma on grid",
        )
    )
    return reports


# ----------------------------------------------------- derivative oracles


def _fd_derivatives(rows, h):
    """4th-order centered finite differences for the first three derivatives.

    rows are the values at x - 3h, x - 2h, x - h, x + h, x + 2h, x + 3h and x.
    """
    fm3, fm2, fm1, fp1, fp2, fp3, f0 = rows
    d1 = (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * h)
    d2 = (-(fp2 + fm2) + 16.0 * (fp1 + fm1) - 30.0 * f0) / (12.0 * h * h)
    d3 = (-fp3 + 8.0 * fp2 - 13.0 * fp1 + 13.0 * fm1 - 8.0 * fm2 + fm3) / (8.0 * h ** 3)
    return d1, d2, d3


def check_derivative_oracles(n: int, seed: int = DEFAULT_SEED):
    """Closed-form derivatives vs centered finite differences at random abscissas u = x/c."""
    params = PinchingParams(n)
    unit = family(params)
    rng = np.random.default_rng(seed + 1000 * n)
    us = rng.uniform(0.2, 90.0, ORACLE_POINTS)
    # The radical varies on the scale of u itself, so steps follow u.  Keep
    # stencils away from the branch point, where only C^2 holds.
    h = 0.004 * us
    us = us[np.abs(us - unit.x0) > 4.0 * h]
    h = 0.004 * us
    # The family acts elementwise: one call per function on the stencil rows
    # stacked, whose last row is us, where the closed-form derivatives are read.
    stencil = np.stack([us - 3 * h, us - 2 * h, us - h, us + h, us + 2 * h, us + 3 * h, us])
    worst = 0.0
    worst_x = float("nan")
    for f, *closed in (unit.alpha(stencil), unit.gamma(stencil)[:3], unit.omega(stencil)):
        for fd, exact in zip(_fd_derivatives(f, h), closed):
            exact = exact[-1]
            rel = np.abs(fd - exact) / np.maximum(np.abs(exact), 1e-3)
            i = int(np.argmax(rel))
            if rel[i] > worst:
                worst, worst_x = float(rel[i]), float(us[i])
    return [
        _value_report(
            "derivative_oracles", params, worst <= 1e-6, 1e-6 - worst, worst_x,
            f"worst relative FD mismatch {worst:.3e} over {len(us)} points",
        )
    ]


def check_okumura(n: int):
    """Okumura's |sum lam^3| <= C |lam|^3 on sum lam = 0, C = okumura_constant(n), exactly.

    On the compact set {sum lam = 0, |lam| = 1} the maximum of |sum lam^3| is
    attained at a critical point, where Lagrange gives 3 lam_i^2 = mu + 2 nu lam_i:
    lam takes two values, so up to scale k entries n - k and n - k entries -k,
    k = 1 .. n - 1.  The check passes when the largest ratio over these n - 1
    multisets (weighted sums) is within 1e-12 of C: the bound holds and is
    attained.  worst_x is the k of the largest ratio.
    """
    params = PinchingParams(n)
    k = np.arange(1.0, n)
    a, b = n - k, -k
    cube = np.abs(k * a ** 3 + (n - k) * b ** 3)
    ratio = cube / (k * a ** 2 + (n - k) * b ** 2) ** 1.5
    i = int(np.argmax(ratio))
    gap = abs(float(ratio[i]) - okumura_constant(n))
    return [
        _value_report(
            "okumura_bound", params, gap <= 1e-12, 1e-12 - gap, float(k[i]),
            f"largest ratio over the {n - 1} critical multisets is {gap:.3e} from the constant",
        )
    ]


# ------------------------------------------------------------ flow oracles


def _lagrange_derivative(ts: np.ndarray, *series: np.ndarray) -> tuple:
    """Derivatives of sampled series on one nonuniform grid (local polynomials).

    Returns one array per series.  The stencil weights of ts, a numerator and
    a denominator per stencil point, are built once and applied to every
    series.  Vectorized over the sample index; the products and sums over the
    stencil keep the order of a per-sample loop, so each entry equals that
    loop's result bit for bit.
    """
    m = len(ts)
    half = LAGRANGE_WIDTH // 2
    centers = np.arange(half, m - half)
    window = centers[:, None] + np.arange(-half, half + 1)
    tau = ts[window] - ts[centers, None]
    weights = []
    for j in range(LAGRANGE_WIDTH):
        denom = np.ones(len(centers))
        for k in range(LAGRANGE_WIDTH):
            if k != j:
                denom *= tau[:, j] - tau[:, k]
        num = np.zeros(len(centers))
        for k in range(LAGRANGE_WIDTH):
            if k == j:
                continue
            prod = np.ones(len(centers))
            for l in range(LAGRANGE_WIDTH):
                if l != j and l != k:
                    prod *= -tau[:, l]
            num += prod
        weights.append((num, denom))
    derivatives = []
    for ys in series:
        y = ys[window]
        acc = np.zeros(len(centers))
        for j, (num, denom) in enumerate(weights):
            acc += y[:, j] * num / denom
        out = np.full(m, np.nan)
        out[half : m - half] = acc
        derivatives.append(out)
    return tuple(derivatives)


def reaction_residuals(trace, params: PinchingParams):
    """Relative residuals of the homogeneous reaction equations along a trace.

    The trace is compared at c = 1, as times ct, H/sqrt(c) and |h|^2/c.
    Returns (res_H, res_h2): finite-difference d/dt of H and |h|^2 against
    H(|h|^2 + n) and 4H^2 + 2|h|^4 - 2n|h|^2.  The comparison stops once
    |h|^2 exceeds REACTION_GROWTH_CAP times its initial scale, where the sampled
    series no longer resolves the approach to the singularity.
    """
    n, c = params.n, params.c
    ts, H, h2 = trace.times * c, trace.curvature.H / np.sqrt(c), trace.curvature.h_norm2 / c
    dH, dh2 = _lagrange_derivative(ts, H, h2)
    rhs_H = H * (h2 + n)
    rhs_h2 = 4.0 * H ** 2 + 2.0 * h2 ** 2 - 2.0 * n * h2
    ok = ~np.isnan(dH) & (h2 <= REACTION_GROWTH_CAP * (h2[0] + n))
    scale_H = np.maximum(np.abs(rhs_H), n)
    scale_h2 = np.maximum(np.abs(rhs_h2), n)
    res_H = np.abs(dH - rhs_H)[ok] / scale_H[ok]
    res_h2 = np.abs(dh2 - rhs_h2)[ok] / scale_h2[ok]
    return res_H, res_h2


def check_flow_oracles(params: PinchingParams):
    """Numeric flows vs exact solutions, reaction consistency, weak equality."""
    n, c = params.n, params.c
    reports = []
    config = FlowConfig(epsilon=0.0, tol=1e-12, t_max=10.0 / c)

    # numeric product trajectory vs closed form
    r1sq0 = 0.8 * (n - 1.0) / (n * c)
    initial = ProductSn1S1.from_r1sq(r1sq0, params)
    numeric = flow_ode_numeric(initial, params, config)
    exact = product_r1sq_exact(r1sq0, params, numeric.times)
    r1sq_num = numeric.state.r1sq_exact
    err = float(np.max(np.abs(r1sq_num - exact)) * c)
    reports.append(
        _value_report(
            "flow_product_exact_match", params, err <= 1e-8, 1e-8 - err,
            float(numeric.times[int(np.argmax(np.abs(r1sq_num - exact)))]),
            f"max |r1^2 - exact| * c = {err:.3e}",
        )
    )
    T_exact = float(product_collapse_time(r1sq0, params))
    T_num = numeric.terminal.time
    ok_T = (
        numeric.terminal.kind == TerminalKind.GREAT_CIRCLE_COLLAPSE
        and abs(T_num - T_exact) * c <= 1e-7
    )
    reports.append(
        _value_report(
            "flow_collapse_time", params, ok_T, 1e-7 - abs(T_num - T_exact) * c, T_exact,
            f"T_num = {T_num!r}, T_exact = {T_exact!r}",
        )
    )

    # geodesic sphere collapse time vs analytic solution
    rho0 = 0.4 * np.pi / np.sqrt(c)
    sphere = flow_ode_numeric(GeodesicSphere(rho=rho0), params, config)
    T_sphere = float(-np.log(np.cos(np.sqrt(c) * rho0)) / (n * c))
    ok_s = (
        sphere.terminal.kind == TerminalKind.ROUND_POINT
        and abs(sphere.terminal.time - T_sphere) * c <= 1e-8
    )
    reports.append(
        _value_report(
            "flow_sphere_collapse", params, ok_s,
            1e-8 - abs(sphere.terminal.time - T_sphere) * c, T_sphere,
            f"T_num = {sphere.terminal.time!r}, analytic = {T_sphere!r}",
        )
    )

    # reaction-equation consistency; the step cap pins the stencil accuracy
    cfg_fd = FlowConfig(epsilon=0.0, tol=1e-12, t_max=10.0 / c, dt_initial=1.0 / (500.0 * n * c))
    worst = 0.0
    for trace in (
        flow_ode_numeric(initial, params, cfg_fd),
        flow_ode_numeric(GeodesicSphere(rho=rho0), params, cfg_fd),
    ):
        res_H, res_h2 = reaction_residuals(trace, params)
        worst = max(worst, float(res_H.max()), float(res_h2.max()))
    reports.append(
        _value_report(
            "flow_reaction_consistency", params, worst <= 1e-6, 1e-6 - worst, float("nan"),
            f"worst relative reaction residual {worst:.3e}",
        )
    )

    # weak-equality branch: |h|^2 tracks gamma(H^2) along the exact flow
    lam0 = product_lambda_for_mean_curvature(params, np.sqrt(family(params).x0))
    boundary = ProductSn1S1(lam=lam0)
    tr = flow_product_exact(boundary, params, config)
    h2, gam = tr.monitors.h2_max, tr.monitors.gamma_min
    rel = float(np.max(np.abs(h2 - gam) / gam))
    reports.append(
        _value_report(
            "flow_weak_equality", params, rel <= 1e-7, 1e-7 - rel, float("nan"),
            f"max relative |h|^2 - gamma deviation {rel:.3e}",
        )
    )

    # minimal torus is a floating-point fixed point at the reference parameters
    if n == 10 and c == 1.0:
        minimal = ProductSn1S1.from_r1sq((n - 1.0) / (n * c), params)
        drift_cfg = FlowConfig(epsilon=0.0, tol=1e-12, t_max=1.0 / c)
        tr_min = flow_ode_numeric(minimal, params, drift_cfg)
        drift = float(np.max(np.abs(tr_min.state.r1sq_exact - 0.9)) * c)
        reports.append(
            _value_report(
                "flow_minimal_torus", params, drift <= 1e-10, 1e-10 - drift, 0.9,
                f"max |r1^2 - 0.9| = {drift:.3e} over [0, 1/c]",
            )
        )
    return reports


# ------------------------------------------------------------ the full suite


def default_suite(
    ns=DEFAULT_NS,
    cs=DEFAULT_CS,
    grid_points: int = DEFAULT_GRID_POINTS,
    seed: int = DEFAULT_SEED,
) -> list[CheckReport]:
    """Run every check over the (n, c) lattice, serially on the calling thread.

    Deterministic given the seed: the reports always come in the same order,
    n-major.  The checks of n run once per n, at c = 1 (10 family calls per n
    for the four lattice checks, whatever the number of c), and one _at_c per
    (n, c) maps the lattice reports to c, which also validates c.  The Okumura
    reports stay at c = 1.  The flow oracles run at each c; at the c = 4^k of
    the default lattice they share their integrations.
    """
    reports: list[CheckReport] = []
    for n in ns:
        at_one = check_lemma_app(n, grid_points) + check_wpp(n, grid_points)
        at_one += check_constants(n, grid_points) + check_derivative_oracles(n, seed)
        for c in cs:
            reports += _at_c(at_one, PinchingParams(n, c))
    for n in ns:
        reports += check_okumura(n)
    for c in cs:
        reports += check_flow_oracles(PinchingParams(n=10, c=c))
    reports += check_flow_oracles(PinchingParams(n=3, c=1.0))
    return reports
