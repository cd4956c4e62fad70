"""Batch certification of the threshold inequalities, identities, and constants.

Every check returns a CheckReport; nothing asserts.  Margins are normalized by
a pointwise scale max(|lhs|, |rhs|, c), so the pass thresholds below are
dimensionless:

  * identity residuals must stay below 1e-10,
  * strict inequalities must keep a normalized margin above 1e-12 away from
    their predicted equality loci,
  * equality is declared where the normalized residual drops below 1e-8, and
    must happen within one grid cell of the predicted locus.

Approximate literature values carry explicit bands (the x0 weight combination
for n = 3 lies in [11.2, 11.6]; asymptotic limits are matched to 1% at
x = 1e6 c).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np

from .errors import CheckFailure
from .flow import (
    FlowConfig,
    TerminalKind,
    flow_ode_numeric,
    flow_product_exact,
    product_r1sq_exact,
)
from .geometry import GeodesicSphere, ProductSn1S1, product_lambda_for_mean_curvature
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
    "raise_on_failure",
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
OKUMURA_SAMPLES = 100_000  # random multisets per check_okumura call


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


def raise_on_failure(reports: list[CheckReport]):
    for r in reports:
        if not r.passed:
            raise CheckFailure(r.check_id, r.worst_x, r.worst_margin, r.message)


def _cells(xs: np.ndarray) -> np.ndarray:
    """Local grid cell size: the larger of the two adjacent spacings."""
    d = np.diff(xs)
    left = np.concatenate([[d[0]], d])
    right = np.concatenate([d, [d[-1]]])
    return np.maximum(left, right)


def _runs(xs: np.ndarray, mask: np.ndarray) -> list:
    """Compress a boolean mask over xs into [start, end] runs."""
    out = []
    idx = np.nonzero(mask)[0]
    if len(idx) == 0:
        return out
    breaks = np.nonzero(np.diff(idx) > 1)[0]
    starts = np.concatenate([[idx[0]], idx[breaks + 1]])
    ends = np.concatenate([idx[breaks], [idx[-1]]])
    for s, e in zip(starts, ends):
        out.append([float(xs[s]), float(xs[e])])
    return out


def _inequality_report(
    check_id: str,
    params: PinchingParams,
    xs: np.ndarray,
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
    detections inside that one-cell neighborhood.
    """
    normalized = margin / scale
    cells = _cells(xs)
    near = np.zeros(len(xs), dtype=bool)
    for p in loci_points:
        near |= np.abs(xs - p) <= cells
    for a, b in loci_intervals:
        near |= (xs >= a - cells) & (xs <= b + cells)
    eq = np.abs(normalized) <= EQUALITY_RTOL
    strict_zone = ~near
    ok_strict = bool(np.all(normalized[strict_zone] > strict_rtol)) if strict_zone.any() else True
    ok_sign = bool(np.all(normalized >= -EQUALITY_RTOL))
    ok_loci_detected = True
    for p in loci_points:
        ok_loci_detected &= bool(np.any(eq & (np.abs(xs - p) <= cells)))
    for a, b in loci_intervals:
        inside = (xs >= a + cells) & (xs <= b - cells)
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
        grid_size=len(xs),
        worst_margin=float(normalized[i]),
        worst_x=float(xs[i]),
        passed=ok_strict and ok_sign and ok_loci_detected,
        equality_loci=_runs(xs, eq & near),
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


def check_lemma_app(params: PinchingParams, grid_points: int = DEFAULT_GRID_POINTS):
    """Items (i)-(vi) of the structural lemma, plus the two alpha identities."""
    fam = family(params)
    n, c = params.n, params.c
    xs = fam.default_grid(points=grid_points)
    a, a1, a2, _ = fam.alpha(xs)
    g, g1, g2, _ = fam.gamma(xs)
    x_max = xs[-1]
    reports = []

    # (i) 2x g'' + g' <= 3/(n+2), equality only at x0
    lhs = 2.0 * xs * g2 + g1
    rhs = np.full_like(xs, 3.0 / (n + 2.0))
    scale = np.maximum(np.abs(lhs), rhs)
    reports.append(
        _inequality_report("app_i", params, xs, rhs - lhs, scale, loci_points=(fam.x0,))
    )

    # (ii) (g + nc) x g' >= 2cx + g^2 - ncg, equality exactly on [x0, inf)
    lhs2 = (g + n * c) * xs * g1
    rhs2 = 2.0 * c * xs + g * g - n * c * g
    scale2 = np.maximum.reduce([np.abs(lhs2), np.abs(rhs2), np.full_like(xs, c * c)])
    reports.append(
        _inequality_report(
            "app_ii", params, xs, lhs2 - rhs2, scale2, loci_intervals=((fam.x0, x_max),)
        )
    )

    # (iii) g > x g'
    scale3 = np.maximum(np.abs(g), np.abs(xs * g1))
    reports.append(_inequality_report("app_iii", params, xs, g - xs * g1, scale3))

    # (iv) g = min(alpha, beta), as an identity
    b, _, _ = fam.beta(xs)
    reports.append(
        _identity_report("app_iv", params, xs, g, np.minimum(a, b), np.maximum(np.abs(g), c))
    )

    # (v) x/(n-1) + 2c < g < x/(n-1) + nc
    base = xs / (n - 1.0)
    low = g - base - 2.0 * c
    high = base + n * c - g
    scale5 = np.maximum(np.abs(g), np.abs(base) + n * c)
    reports.append(_inequality_report("app_v_lower", params, xs, low, scale5))
    reports.append(_inequality_report("app_v_upper", params, xs, high, scale5))

    # (vi) okumura-weighted radical bound, equality exactly on [x0, inf).
    # Third-order contact at x0 from below: sign strictness only.
    okumura = (n - 2.0) / np.sqrt(n * (n - 1.0))
    lhs6 = okumura * np.sqrt(xs * (g - xs / n)) + g
    rhs6 = 2.0 * xs / n + n * c
    scale6 = np.maximum(np.abs(lhs6), np.abs(rhs6))
    reports.append(
        _inequality_report(
            "app_vi", params, xs, rhs6 - lhs6, scale6,
            loci_intervals=((fam.x0, x_max),), strict_rtol=0.0,
        )
    )

    # identity: (alpha + nc) x alpha' = 2cx + alpha^2 - nc alpha
    lhs_id = (a + n * c) * xs * a1
    rhs_id = 2.0 * c * xs + a * a - n * c * a
    scale_id = np.maximum.reduce(
        [np.abs(lhs_id), np.abs(2.0 * c * xs), a * a, n * c * np.abs(a)]
    )
    reports.append(_identity_report("alid1", params, xs, lhs_id, rhs_id, scale_id))

    # identity: okumura-weighted radical identity for alpha
    lhs_id2 = okumura * np.sqrt(xs * (a - xs / n)) + a
    rhs_id2 = 2.0 * xs / n + n * c
    reports.append(
        _identity_report(
            "alid2", params, xs, lhs_id2, rhs_id2, np.maximum(np.abs(lhs_id2), np.abs(rhs_id2))
        )
    )
    return reports


def check_wpp(params: PinchingParams, grid_points: int = DEFAULT_GRID_POINTS):
    """Weight function properties: log-derivative identity, x0 combination, limits."""
    fam = family(params)
    n, c = params.n, params.c
    xs = fam.default_grid(points=grid_points)
    xs = xs[xs >= fam.x0]
    w, w1, w2 = fam.omega(xs)
    a, a1, _, _ = fam.alpha(xs)
    reports = []

    # log-derivative identity on the closed-form branch
    lhs = w1 * xs * (a + n * c)
    rhs = w * (2.0 * a - xs * a1 - 3.0 * n * c)
    scale = np.maximum.reduce([np.abs(lhs), np.abs(rhs), n * c * w])
    reports.append(_identity_report("wpp_dlnw", params, xs, lhs, rhs, scale))

    # positivity of the x0 combination; for n = 3 it sits in the printed band
    w0, w10, w20 = (float(v) for v in fam.omega(fam.x0))
    combo = 2.0 * fam.x0 * w20 + w10
    ok = combo > 0.0
    message = f"2*x0*w''(x0)+w'(x0) = {combo:.6f}"
    if n == 3:
        ok = ok and 11.2 <= combo <= 11.6
        message += " (band [11.2, 11.6])"
    reports.append(_value_report("wpp_x0_positive", params, ok, combo, fam.x0, message))

    # asymptotics at x = 1e6 c, matched to 1%
    x_far = 1e6 * c
    wf, wf1, wf2 = (float(v) for v in fam.omega(x_far))
    lim1 = 2.0 * x_far * wf2 + wf1
    target1 = 1.0 / (n - 1.0) ** 2
    err1 = abs(lim1 - target1) / target1
    reports.append(
        _value_report(
            "wpp_limit_second", params, err1 <= BAND_RTOL, BAND_RTOL - err1, x_far,
            f"2x w''+w' = {lim1:.8f} vs {target1:.8f}",
        )
    )
    lim2 = wf - x_far * wf1
    target2 = 2.0 * (2.0 * n - 1.0) * c / (n - 1.0)
    err2 = abs(lim2 - target2) / target2
    reports.append(
        _value_report(
            "wpp_limit_support", params, err2 <= BAND_RTOL, BAND_RTOL - err2, x_far,
            f"w - x w' = {lim2:.8f} vs {target2:.8f}",
        )
    )

    # boundedness of w - x w' over the grid
    support = w - xs * w1
    ok_bounded = bool(np.all(np.isfinite(support)))
    reports.append(
        _value_report(
            "wpp_support_bounded", params, ok_bounded,
            float(np.max(np.abs(support))), float(xs[np.argmax(np.abs(support))]),
            "sup |w - x w'| over grid",
        )
    )
    return reports


def check_constants(params: PinchingParams, grid_points: int = DEFAULT_GRID_POINTS):
    """Distinguished constants: root certification, k_n bounds, minima, floors."""
    fam = family(params)
    n, c = params.n, params.c
    consts = fam.constants
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

    xs = fam.default_grid(points=grid_points)
    g, _, _, _ = fam.gamma(xs)
    floor = 1.8 * np.sqrt(n - 1.0) * c
    margin = g - floor
    i = int(np.argmin(margin))
    reports.append(
        _value_report(
            "const_gamma_floor", params, margin[i] > 0.0, float(margin[i] / (abs(floor) + c)),
            float(xs[i]), "gamma > (9/5) sqrt(n-1) c on grid",
        )
    )

    # global minimum of alpha: value 2 sqrt(n-1) c, attained at x1 with alpha' = 0
    a, a1, a2, _ = fam.alpha(xs)
    a_x1, a1_x1, a2_x1, _ = (float(v) for v in fam.alpha(consts.x1))
    target_min = 2.0 * np.sqrt(n - 1.0) * c
    i_min = int(np.argmin(a))
    cell = _cells(xs)[i_min]
    ok_min = (
        abs(a_x1 - target_min) <= 1e-9 * max(1.0, c)
        and abs(a1_x1) <= 1e-9
        and abs(xs[i_min] - consts.x1) <= cell
        and a[i_min] >= a_x1 - 1e-12 * c
    )
    reports.append(
        _value_report(
            "const_alpha_min", params, ok_min, a_x1 - target_min, consts.x1,
            f"min alpha = {a_x1!r} at x1; grid argmin at {xs[i_min]!r}",
        )
    )

    # closed-form markers at x1 and (n-2)^2 c
    combo_x1 = 2.0 * consts.x1 * a2_x1 + a1_x1
    target_combo = 4.0 / (2.0 * np.sqrt(n - 1.0) + n)
    target_curv = 2.0 / ((n - 2.0) ** 2 * np.sqrt(n - 1.0) * c)
    a_mark = float(fam.alpha((n - 2.0) ** 2 * c, order=0)[0])
    ok_marks = (
        abs(combo_x1 - target_combo) <= IDENTITY_RTOL * target_combo
        and abs(a2_x1 - target_curv) <= IDENTITY_RTOL * target_curv
        and abs(a_mark - n * c) <= IDENTITY_RTOL * n * c
    )
    reports.append(
        _value_report(
            "const_alpha_marks", params, ok_marks,
            IDENTITY_RTOL - abs(combo_x1 - target_combo) / target_combo, consts.x1,
            "2x1 a''+a' and a''(x1) and alpha((n-2)^2 c) match closed forms",
        )
    )

    # k_n c is a lower bound for gamma
    ok_inf = k * c <= float(g.min()) + 1e-9 * c
    reports.append(
        _value_report(
            "const_kn_floor", params, ok_inf, float(g.min()) - k * c, float(xs[np.argmin(g)]),
            "k_n c <= min gamma on grid",
        )
    )
    return reports


# ----------------------------------------------------- derivative oracles


def _fd_derivatives(f, x, h):
    """4th-order centered finite differences for the first three derivatives."""
    fm3, fm2, fm1 = f(x - 3 * h), f(x - 2 * h), f(x - h)
    fp1, fp2, fp3 = f(x + h), f(x + 2 * h), f(x + 3 * h)
    f0 = f(x)
    d1 = (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * h)
    d2 = (-(fp2 + fm2) + 16.0 * (fp1 + fm1) - 30.0 * f0) / (12.0 * h * h)
    d3 = (-fp3 + 8.0 * fp2 - 13.0 * fp1 + 13.0 * fm1 - 8.0 * fm2 + fm3) / (8.0 * h ** 3)
    return d1, d2, d3


def check_derivative_oracles(params: PinchingParams, seed: int = DEFAULT_SEED):
    """Closed-form derivatives vs centered finite differences at random abscissas."""
    fam = family(params)
    n, c = params.n, params.c
    rng = np.random.default_rng(seed + 1000 * n)
    xs = rng.uniform(0.2 * c, 90.0 * c, ORACLE_POINTS)
    # The radical varies on the scale of x itself, so steps follow x.  Keep
    # stencils away from the branch point, where only C^2 holds.
    h = 0.004 * xs
    xs = xs[np.abs(xs - fam.x0) > 4.0 * h]
    h = 0.004 * xs

    worst = 0.0
    worst_x = float("nan")

    def track(rel, where):
        nonlocal worst, worst_x
        i = int(np.argmax(rel))
        if rel[i] > worst:
            worst, worst_x = float(rel[i]), float(where[i])

    a, a1, a2, a3 = fam.alpha(xs)
    d1, d2, d3 = _fd_derivatives(lambda t: fam.alpha(t, order=0)[0], xs, h)
    track(np.abs(d1 - a1) / np.maximum(np.abs(a1), 1e-3), xs)
    track(np.abs(d2 - a2) / np.maximum(np.abs(a2), 1e-3 / c), xs)
    track(np.abs(d3 - a3) / np.maximum(np.abs(a3), 1e-3 / c ** 2), xs)

    g, g1, g2, _ = fam.gamma(xs)
    e1, e2, _ = _fd_derivatives(lambda t: fam.gamma(t)[0], xs, h)
    track(np.abs(e1 - g1) / np.maximum(np.abs(g1), 1e-3), xs)
    track(np.abs(e2 - g2) / np.maximum(np.abs(g2), 1e-3 / c), xs)

    w, w1, w2 = fam.omega(xs)
    o1, o2, _ = _fd_derivatives(lambda t: fam.omega(t)[0], xs, h)
    track(np.abs(o1 - w1) / np.maximum(np.abs(w1), 1e-3), xs)
    track(np.abs(o2 - w2) / np.maximum(np.abs(w2), 1e-3 / c), xs)

    return [
        _value_report(
            "derivative_oracles", params, worst <= 1e-6, 1e-6 - worst, worst_x,
            f"worst relative FD mismatch {worst:.3e} over {len(xs)} points",
        )
    ]


def check_okumura(params: PinchingParams, seed: int = DEFAULT_SEED):
    """Traceless cube-sum bound on random principal-curvature multisets."""
    n, c = params.n, params.c
    rng = np.random.default_rng(seed + n)
    lam = rng.uniform(-10.0 * np.sqrt(c), 10.0 * np.sqrt(c), size=(OKUMURA_SAMPLES, n))
    lam -= lam.mean(axis=1, keepdims=True)  # the traceless part, in place
    # einsum sums the products row by row without (samples, n) temporaries
    cube = np.abs(np.einsum("ij,ij,ij->i", lam, lam, lam))
    s2 = np.einsum("ij,ij->i", lam, lam)
    norm3 = s2 * np.sqrt(s2)
    bound = (n - 2.0) / np.sqrt(n * (n - 1.0)) * norm3
    margin = (bound - cube) / np.maximum(norm3, 1e-30)
    i = int(np.argmin(margin))
    return [
        _value_report(
            "okumura_bound", params, margin[i] >= -1e-12, float(margin[i]), float(i),
            f"{OKUMURA_SAMPLES} random multisets",
        )
    ]


# ------------------------------------------------------------ flow oracles


def _lagrange_derivative(ts: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Derivative of a sampled series on a nonuniform grid (local polynomials).

    Vectorized over the sample index.  The products and sums over the stencil
    keep the order of a per-sample loop, so each entry equals that loop's
    result bit for bit.
    """
    m = len(ts)
    half = LAGRANGE_WIDTH // 2
    out = np.full(m, np.nan)
    centers = np.arange(half, m - half)
    window = centers[:, None] + np.arange(-half, half + 1)
    tau = ts[window] - ts[centers, None]
    y = ys[window]
    acc = np.zeros(len(centers))
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
        acc += y[:, j] * num / denom
    out[half : m - half] = acc
    return out


def reaction_residuals(trace, params: PinchingParams):
    """Relative residuals of the homogeneous reaction equations along a trace.

    Returns (res_H, res_h2): finite-difference d/dt of H and |h|^2 against
    H(|h|^2 + nc) and 4cH^2 + 2|h|^4 - 2nc|h|^2.  The comparison stops once
    |h|^2 exceeds REACTION_GROWTH_CAP times its initial scale, where the sampled
    series no longer resolves the approach to the singularity.
    """
    n, c = params.n, params.c
    ts, H, h2 = trace.times, trace.curvature.H, trace.curvature.h_norm2
    dH = _lagrange_derivative(ts, H)
    dh2 = _lagrange_derivative(ts, h2)
    rhs_H = H * (h2 + n * c)
    rhs_h2 = 4.0 * c * H ** 2 + 2.0 * h2 ** 2 - 2.0 * n * c * h2
    ok = ~np.isnan(dH) & (h2 <= REACTION_GROWTH_CAP * (h2[0] + n * c))
    scale_H = np.maximum(np.abs(rhs_H), n * c * np.sqrt(c))
    scale_h2 = np.maximum(np.abs(rhs_h2), n * c * c)
    res_H = np.abs(dH - rhs_H)[ok] / scale_H[ok]
    res_h2 = np.abs(dh2 - rhs_h2)[ok] / scale_h2[ok]
    return res_H, res_h2


def check_flow_oracles(params: PinchingParams):
    """Numeric flows vs exact solutions, reaction consistency, weak equality."""
    n, c = params.n, params.c
    reports = []
    config = FlowConfig(epsilon=0.0, tol=1e-12, t_max=10.0 / c)

    # numeric product trajectory vs closed form
    initial = ProductSn1S1.from_r1sq(0.8 * (n - 1.0) / (n * c), params)
    numeric = flow_ode_numeric(initial, params, config)
    exact = product_r1sq_exact(initial, params, numeric.times)
    r1sq_num = numeric.state.r1sq_exact
    err = float(np.max(np.abs(r1sq_num - exact)) * c)
    reports.append(
        _value_report(
            "flow_product_exact_match", params, err <= 1e-8, 1e-8 - err,
            float(numeric.times[int(np.argmax(np.abs(r1sq_num - exact)))]),
            f"max |r1^2 - exact| * c = {err:.3e}",
        )
    )
    exact_trace = flow_product_exact(initial, params, config)
    T_exact = exact_trace.terminal.time
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
    T_sphere = -np.log(np.cos(np.sqrt(c) * rho0)) / (n * c)
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

    Deterministic given the seed: the reports always come in the same order.
    """
    reports: list[CheckReport] = []
    for n, c in iter_product(ns, cs):
        params = PinchingParams(n=n, c=c)
        reports += check_lemma_app(params, grid_points)
        reports += check_wpp(params, grid_points)
        reports += check_constants(params, grid_points)
        reports += check_derivative_oracles(params, seed)
    for n in ns:
        reports += check_okumura(PinchingParams(n=n, c=1.0), seed)
    for c in cs:
        reports += check_flow_oracles(PinchingParams(n=10, c=c))
    reports += check_flow_oracles(PinchingParams(n=3, c=1.0))
    return reports
