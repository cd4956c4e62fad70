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
centered differences on a uniform periodic grid.  Profiles are redistributed
to uniform arc length (chordal estimate, periodic cubic spline resampling)
before differencing; redistribution is skipped when the input is already
uniform.

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
from scipy.interpolate import CubicSpline

from .errors import GeometryError, NonEmbedded
from .thresholds import PinchingParams

__all__ = [
    "ProfileGeometry",
    "resample_profile",
    "profile_geometry",
    "product_profile",
    "sphere_profile",
    "perturbed_product_profile",
    "validate_profile",
    "self_intersects",
]

UNIFORM_SKIP_RTOL = 1e-9
MIN_SPACING_FRACTION = 1e-3


@dataclass
class ProfileGeometry:
    """Per-sample curvature data of a profile curve (arrays of length N)."""

    kappa_orbit: np.ndarray
    kappa_profile: np.ndarray
    H: np.ndarray
    h_norm2: np.ndarray
    h0_norm2: np.ndarray
    nu_phi: np.ndarray
    nu_xi: np.ndarray

    def principal(self, n: int) -> np.ndarray:
        """(N, n) principal curvatures: kappa_orbit n-1 times, then kappa_profile."""
        return np.concatenate(
            [np.repeat(self.kappa_orbit[:, None], n - 1, axis=1), self.kappa_profile[:, None]],
            axis=1,
        )


def embed(phi: np.ndarray, xi: np.ndarray, c: float) -> np.ndarray:
    """Orbit-space points on the radius-1/sqrt(c) hemisphere in R^3."""
    return np.stack(
        [np.sin(phi), np.cos(phi) * np.cos(xi), np.cos(phi) * np.sin(xi)], axis=1
    ) / np.sqrt(c)


def winding_of(xi: np.ndarray) -> int:
    """Number of 2*pi turns the unwrapped xi makes over one period."""
    xi = np.unwrap(xi)
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


def resample_profile(phi, xi, params: PinchingParams, n_points: int | None = None):
    """Redistribute a closed profile to uniform arc length.

    Returns (phi_u, xi_u, spacing, length, winding).  A grid that is already
    uniform (relative spread below UNIFORM_SKIP_RTOL) is passed through
    untouched, so exactly represented profiles stay exact.
    """
    phi = np.asarray(phi, dtype=float)
    xi = np.unwrap(np.asarray(xi, dtype=float))
    n_in = len(phi)
    n_out = n_points or n_in
    s = _chord_arclength(phi, xi, params.c)
    length = s[-1]
    if length <= 0.0:
        raise GeometryError("profile has zero length")
    w = winding_of(xi)
    ramp = 2.0 * np.pi * w
    segments = np.diff(s)
    uniform = segments.max() - segments.min() <= UNIFORM_SKIP_RTOL * segments.mean()
    if uniform and n_out == n_in:
        return phi.copy(), xi.copy(), length / n_in, length, w
    both = np.empty((n_in + 1, 2))
    both[:-1, 0] = phi
    both[-1, 0] = phi[0]
    both[:-1, 1] = xi
    both[-1, 1] = xi[0] + ramp
    both[:, 1] -= ramp * s / length
    # Mathematically periodic; make it bit-exact for the spline validation.
    both[-1, 1] = both[0, 1]
    s_new = np.arange(n_out) * (length / n_out)
    resampled = CubicSpline(s, both, bc_type="periodic")(s_new)
    phi_u = resampled[:, 0]
    xi_u = resampled[:, 1] + ramp * s_new / length
    return phi_u, xi_u, length / n_out, length, w


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
    H = (n - 1.0) * kappa_o + kappa_p
    h2 = (n - 1.0) * kappa_o ** 2 + kappa_p ** 2
    h0_2 = np.maximum(h2 - H ** 2 / n, 0.0)
    nu_phi = -cos_phi * xi1 / speed
    nu_xi = ph1 / (speed * cos_phi)
    return ProfileGeometry(
        kappa_orbit=kappa_o,
        kappa_profile=kappa_p,
        H=H,
        h_norm2=h2,
        h0_norm2=h0_2,
        nu_phi=nu_phi,
        nu_xi=nu_xi,
    )


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
    end[-1, 0] = pts[0, 0] + (winding_of(xi) * 2.0 * np.pi)
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
