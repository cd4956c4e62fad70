"""Finite-difference curvature engine for rotationally invariant hypersurfaces.

A hypersurface invariant under the block rotation group is described by a
closed profile curve in the orbit space, a round hemisphere of radius
1/sqrt(c) with coordinates (phi, xi) and metric (dphi^2 + cos^2(phi) dxi^2)/c.
The ambient embedding is

    X = (sin(phi) * w, cos(phi) cos(xi), cos(phi) sin(xi)) / sqrt(c),

with w on the unit (n-1)-sphere.  The shape operator splits into one profile
direction and n-1 equal orbit directions, so the full curvature of the
hypersurface reduces to two scalars per profile sample:

    kappa_orbit   = xi' cos^2(phi) / (w sin(phi)),
    kappa_profile = [cos(phi)(phi' xi'' - xi' phi'')
                     - xi' sin(phi)(xi'^2 cos^2(phi) + 2 phi'^2)] / (c w^3),

where primes are derivatives in the (arbitrary) curve parameter and
w = sqrt((phi'^2 + cos^2(phi) xi'^2)/c) is the parametric speed.  Both
formulas are parametrization invariant; derivatives are taken with 4th-order
centered differences on a uniform periodic grid in the curve parameter, which
needs to be close to arc length only for accuracy.  A profile whose chords
differ by more than MAX_CHORD_RATIO (max/min) is redistributed to uniform arc
length (chordal estimate, periodic cubic spline resampling) before
differencing; a profile within the bound is differenced as it is.

Sign conventions: the unit normal is the clockwise rotation of the tangent in
the orbit space, which makes the latitude circle phi = const (traversed with
increasing xi) carry kappa_orbit = sqrt(c) cot(phi) > 0 and
kappa_profile = -sqrt(c) tan(phi), matching the product-family conventions
used by the flow.

Torus-type profiles keep phi strictly inside (0, pi/2).  The engine itself
only needs sin(phi) != 0 at the samples, which lets tests drive it with
signed-phi closed curves crossing the axis (geodesic spheres); the public
state type enforces the torus-type restriction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import GeometryError, MeshDegenerate, NonEmbedded
from .thresholds import PinchingParams

__all__ = [
    "CurvatureData",
    "ProfileGeometry",
    "curvature_data",
    "resample_profile",
    "profile_geometry",
    "product_profile",
    "sphere_profile",
    "perturbed_product_profile",
    "validate_profile",
    "self_intersects",
]

MAX_CHORD_RATIO = 1.02  # max/min chord ratio a profile keeps without redistribution
MIN_SPACING_FRACTION = 1e-3


@dataclass
class CurvatureData:
    """Pointwise curvature of a hypersurface with two principal curvatures.

    kappa_orbit has multiplicity n-1 and kappa_profile multiplicity 1, which
    covers every family here: all are invariant under the rotations of
    S^{n-1}.  Scalar-valued for one homogeneous state; array-valued for a
    homogeneous trajectory (one entry per time) and for a profile (one entry
    per sample).
    """

    kappa_orbit: float | np.ndarray
    kappa_profile: float | np.ndarray
    H: float | np.ndarray
    h_norm2: float | np.ndarray
    h0_norm2: float | np.ndarray


@dataclass
class ProfileGeometry(CurvatureData):
    """Per-sample curvature data of a profile curve (arrays of length N), with its unit normal."""

    nu_phi: np.ndarray
    nu_xi: np.ndarray


def _invariants(n: int, kappa_orbit, kappa_profile):
    """H, |h|^2 and |h0|^2; |h0|^2 = (n-1)/n (kappa_orbit - kappa_profile)^2 cancels nothing."""
    H = (n - 1.0) * kappa_orbit + kappa_profile
    h2 = (n - 1.0) * kappa_orbit ** 2 + kappa_profile ** 2
    h0_2 = (n - 1.0) / n * (kappa_orbit - kappa_profile) ** 2
    return H, h2, h0_2


def curvature_data(n: int, kappa_orbit, kappa_profile) -> CurvatureData:
    """Curvature data of principal curvatures kappa_orbit (n-1 times) and kappa_profile."""
    return CurvatureData(kappa_orbit, kappa_profile, *_invariants(n, kappa_orbit, kappa_profile))


def embed(phi: np.ndarray, xi: np.ndarray, c: float) -> np.ndarray:
    """Orbit-space points on the radius-1/sqrt(c) hemisphere in R^3."""
    return np.stack(
        [np.sin(phi), np.cos(phi) * np.cos(xi), np.cos(phi) * np.sin(xi)], axis=1
    ) / np.sqrt(c)


def winding_of(xi: np.ndarray) -> int:
    """Number of 2*pi turns the unwrapped xi makes over one period."""
    return _turns(np.unwrap(xi))


def _turns(xi: np.ndarray) -> int:
    """winding_of for an xi that is already unwrapped."""
    # Signed closing increment from the last sample back to the first.
    closing = (xi[0] - xi[-1] + np.pi) % (2.0 * np.pi) - np.pi
    total = (xi[-1] - xi[0]) + closing
    return int(np.round(total / (2.0 * np.pi)))


def periodic_derivatives(vals: np.ndarray, spacing: float, ramp: float = 0.0):
    """4th-order centered first and second derivatives on a periodic grid.

    ramp is the total increase of vals over one period (winding coordinates).
    """
    n = len(vals)
    padded = np.empty(n + 4)
    padded[2:-2] = vals
    padded[:2] = vals[-2:] - ramp
    padded[-2:] = vals[:2] + ramp
    m2, m1 = padded[0:n], padded[1 : n + 1]
    p1, p2 = padded[3 : n + 3], padded[4 : n + 4]
    d1 = (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * spacing)
    d2 = (-(p2 + m2) + 16.0 * (p1 + m1) - 30.0 * vals) / (12.0 * spacing * spacing)
    return d1, d2


def second_difference_symbol(n_points: int, spacing: float) -> np.ndarray:
    """Eigenvalues of the second-difference stencil above on the rfft modes.

    Mode k (theta = 2 pi k / n_points) gets
    (-2 cos(2 theta) + 32 cos(theta) - 30) / (12 spacing^2), all <= 0.
    """
    theta = 2.0 * np.pi * np.arange(n_points // 2 + 1) / n_points
    return (-2.0 * np.cos(2.0 * theta) + 32.0 * np.cos(theta) - 30.0) / (12.0 * spacing ** 2)


def _chord_arclength(phi: np.ndarray, xi: np.ndarray, c: float):
    """Cumulative chordal arc length (closed), in the orbit-space metric."""
    pts = embed(phi, xi, c)
    closed = np.vstack([pts, pts[:1]])
    chords = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(chords)])


def _periodic_spline(x, y, x_new):
    """Periodic cubic spline through (x, y), evaluated at x_new.

    x is strictly increasing with at least 4 knots, y has shape (len(x), m)
    with y[-1] == y[0], and x_new lies in [x[0], x[-1]).  The arithmetic is
    scipy's CubicSpline(x, y, bc_type="periodic")(x_new) step for step, so
    the result is the same to the bit (up to the sign of a zero).
    """
    dx = np.diff(x)
    dx_prev = np.roll(dx, 1)
    dxr, dxr_prev = dx[:, None], dx_prev[:, None]
    slope = np.diff(y, axis=0) / dxr
    # Row i of the cyclic slope system, i = 0..k-1 with k = len(dx):
    # dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1] = rhs[i].
    # Solve rows 0..k-2 for s[k-1] = 0 and for a unit s[k-1], then fix s[k-1]
    # from the last row.
    rhs = 3 * (dxr * np.roll(slope, 1, axis=0) + dxr_prev * slope)
    diag = 2 * (dx_prev + dx)
    ab = np.zeros((3, len(dx) - 1))
    ab[0, 1:] = dx_prev[:-2]
    ab[1] = diag[:-1]
    ab[2, :-1] = dx[1:-1]
    b2 = np.zeros_like(rhs[:-1])
    b2[0] = -dx[0]
    b2[-1] = -dx[-3]
    s1 = solve_banded((1, 1), ab, rhs[:-1], check_finite=False)
    s2 = solve_banded((1, 1), ab, b2, check_finite=False)
    s_m1 = (rhs[-1] - dx[-2] * s1[0] - dx[-1] * s1[-1]) / (
        diag[-1] + dx[-2] * s2[0] + dx[-1] * s2[-1]
    )
    d = np.empty_like(y)
    d[:-2] = s1 + s_m1 * s2
    d[-2] = s_m1
    d[-1] = d[0]
    # Hermite cubic on each interval, summed in PPoly's power-basis order.
    t = (d[:-1] + d[1:] - 2 * slope) / dxr
    c0, c1 = t / dxr, (slope - d[:-1]) / dxr - t
    i = np.searchsorted(x, x_new, side="right") - 1
    h = (x_new - x[i])[:, None]
    return y[i] + d[i] * h + c1[i] * (h * h) + c0[i] * (h * h * h)


def resample_profile(phi, xi, params: PinchingParams):
    """Redistribute a closed profile to uniform arc length once its mesh has drifted.

    Returns (phi_u, xi_u, spacing, length, winding) with the input's sample
    count, length the closed chordal length and spacing = length / N.  A
    profile whose max/min chord ratio is at most MAX_CHORD_RATIO is passed
    through untouched, so exactly represented profiles stay exact; any other
    is refit by a periodic cubic spline in chordal arc length and sampled at N
    equal steps.  A zero chord raises GeometryError, and a chord below
    MIN_SPACING_FRACTION of the mean raises MeshDegenerate.
    """
    phi = np.asarray(phi, dtype=float)
    xi = np.unwrap(np.asarray(xi, dtype=float))
    n_in = len(phi)
    s = _chord_arclength(phi, xi, params.c)
    length = s[-1]
    if length <= 0.0:
        raise GeometryError("profile has zero length")
    w = _turns(xi)
    ramp = 2.0 * np.pi * w
    segments = np.diff(s)
    if segments.max() <= MAX_CHORD_RATIO * segments.min():
        return phi.copy(), xi.copy(), length / n_in, length, w
    if n_in < 3:
        raise GeometryError("resampling needs at least 3 samples")
    if segments.min() <= 0.0:
        raise GeometryError("profile repeats a sample: zero chord between neighbours")
    if segments.min() < MIN_SPACING_FRACTION * segments.mean():
        raise MeshDegenerate(
            f"adjacent profile samples closer than {MIN_SPACING_FRACTION!r} of the mean chord"
        )
    both = np.empty((n_in + 1, 2))
    both[:-1, 0] = phi
    both[-1, 0] = phi[0]
    both[:-1, 1] = xi
    both[-1, 1] = xi[0] + ramp
    both[:, 1] -= ramp * s / length
    # Mathematically periodic; make it bit-exact, as the periodic spline assumes.
    both[-1, 1] = both[0, 1]
    s_new = np.arange(n_in) * (length / n_in)
    resampled = _periodic_spline(s, both, s_new)
    phi_u = resampled[:, 0]
    xi_u = resampled[:, 1] + ramp * s_new / length
    return phi_u, xi_u, length / n_in, length, w


def profile_geometry(
    phi: np.ndarray,
    xi: np.ndarray,
    params: PinchingParams,
    spacing: float,
    winding: int,
) -> ProfileGeometry:
    """Curvature data of a uniformly parametrized closed profile."""
    n, c = params.n, params.c
    sin_phi = np.sin(phi)
    cos_phi = np.cos(phi)
    if np.any(sin_phi == 0.0):
        raise GeometryError("profile sample on the rotation axis (sin(phi) = 0)")
    ramp = 2.0 * np.pi * winding
    ph1, ph2 = periodic_derivatives(phi, spacing)
    xi1, xi2 = periodic_derivatives(xi, spacing, ramp)
    speed = np.sqrt((ph1 ** 2 + cos_phi ** 2 * xi1 ** 2) / c)
    kappa_o = xi1 * cos_phi ** 2 / (speed * sin_phi)
    kappa_p = (
        cos_phi * (ph1 * xi2 - xi1 * ph2)
        - xi1 * sin_phi * (xi1 ** 2 * cos_phi ** 2 + 2.0 * ph1 ** 2)
    ) / (c * speed ** 3)
    nu_phi = -cos_phi * xi1 / speed
    nu_xi = ph1 / (speed * cos_phi)
    return ProfileGeometry(kappa_o, kappa_p, *_invariants(n, kappa_o, kappa_p), nu_phi, nu_xi)


def curvature_of_profile(phi, xi, params: PinchingParams) -> ProfileGeometry:
    """Resample to uniform arc length, then evaluate the curvature."""
    phi_u, xi_u, spacing, _, w = resample_profile(phi, xi, params)
    return profile_geometry(phi_u, xi_u, params, spacing, w)


# -------------------------------------------------------- profile builders


def product_profile(params: PinchingParams, r1sq: float, n_points: int = 256):
    """Latitude circle phi = const matching a product hypersurface.

    r1sq is the squared radius of the large factor; sin(phi)^2 = c * r1sq.
    """
    c = params.c
    if not 0.0 < r1sq < 1.0 / c:
        raise GeometryError(f"product profile needs 0 < r1sq < 1/c, got {r1sq!r}")
    phi0 = np.arcsin(np.sqrt(c * r1sq))
    xi = np.arange(n_points) * (2.0 * np.pi / n_points)
    return np.full(n_points, phi0), xi


def perturbed_product_profile(
    params: PinchingParams,
    r1sq: float,
    amplitude: float,
    mode: int = 2,
    n_points: int = 256,
):
    """Latitude circle with a relative cosine ripple in phi (zero-mean mode >= 1)."""
    phi, xi = product_profile(params, r1sq, n_points)
    return phi * (1.0 + amplitude * np.cos(mode * xi)), xi


def sphere_profile(params: PinchingParams, rho: float, n_points: int = 512, warp: float = 0.0):
    """Signed-phi closed profile of a geodesic sphere of radius rho.

    The curve is the metric circle of radius rho about a point of the axis;
    it crosses the axis twice, so phi takes both signs.  Samples are offset to
    keep sin(phi) != 0.  This is an engine-level representation used for
    cross-checks; it is not a valid torus-type state.  A nonzero warp skews
    the sampling so the resampling path is exercised.
    """
    c = params.c
    if not 0.0 < rho < np.pi / np.sqrt(c):
        raise GeometryError(f"sphere radius must lie in (0, pi/sqrt(c)), got {rho!r}")
    theta = (np.arange(n_points) + 0.5) * (2.0 * np.pi / n_points)
    if warp:
        theta = theta + warp * np.sin(theta) + 0.4 * warp * np.sin(2.0 * theta)
    r = np.sqrt(c) * rho
    a = np.sin(r) * np.cos(theta)
    v = np.cos(r) * np.ones_like(theta)
    w = np.sin(r) * np.sin(theta)
    return np.arcsin(a), np.arctan2(w, v)


# ------------------------------------------------------------- validation


def _segments_intersect(p, q, r, s):
    """Vectorized proper-intersection test for 2-D segments pq vs rs."""

    def cross(o, a, b):
        return (a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1]) - (
            a[..., 1] - o[..., 1]
        ) * (b[..., 0] - o[..., 0])

    d1 = cross(r, s, p)
    d2 = cross(r, s, q)
    d3 = cross(p, q, r)
    d4 = cross(p, q, s)
    return ((d1 * d2) < 0) & ((d3 * d4) < 0)


def self_intersects(phi: np.ndarray, xi: np.ndarray) -> bool:
    """Segment test for profile self-intersection on the (xi, phi) cylinder."""
    xi = np.unwrap(np.asarray(xi, dtype=float))
    pts = np.stack([xi, np.asarray(phi, dtype=float)], axis=1)
    n = len(pts)
    start = pts
    end = np.roll(pts, -1, axis=0)
    end[-1, 0] = pts[0, 0] + (_turns(xi) * 2.0 * np.pi)
    end[-1, 1] = pts[0, 1]
    idx_i, idx_j = np.triu_indices(n, k=2)
    # Skip the wrap-adjacent pair (segment n-1 followed by segment 0).
    keep = ~((idx_i == 0) & (idx_j == n - 1))
    idx_i, idx_j = idx_i[keep], idx_j[keep]
    for shift in (-2.0 * np.pi, 0.0, 2.0 * np.pi):
        offset = np.array([shift, 0.0])
        hit = _segments_intersect(
            start[idx_i], end[idx_i], start[idx_j] + offset, end[idx_j] + offset
        )
        if np.any(hit):
            return True
    return False


def validate_profile(phi: np.ndarray, xi: np.ndarray):
    """Torus-type admissibility: finite samples, phi strictly inside (0, pi/2), embedded."""
    phi = np.asarray(phi, dtype=float)
    if len(phi) < 8:
        raise GeometryError("profile needs at least 8 samples")
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(xi))):
        raise GeometryError("profile has a non-finite sample")
    if np.any(phi <= 0.0) or np.any(phi >= np.pi / 2.0):
        raise GeometryError("profile sample violates phi in (0, pi/2)")
    if self_intersects(phi, xi):
        raise NonEmbedded("profile curve self-intersects")
