"""Finite-difference curvature engine for rotationally invariant hypersurfaces.

A hypersurface invariant under the block rotation group is described by a
closed profile curve in the orbit space.  The engine works at c = 1, where
the orbit space is the unit hemisphere with coordinates (phi, xi) and metric
dphi^2 + cos^2(phi) dxi^2, and the ambient embedding is

    X = (sin(phi) * w, cos(phi) cos(xi), cos(phi) sin(xi)),

with w on the unit (n-1)-sphere.  The shape operator splits into one profile
direction and n-1 equal orbit directions, so the full curvature of the
hypersurface reduces to two scalars per profile sample:

    kappa_orbit   = xi' cos^2(phi) / (w sin(phi)),
    kappa_profile = [cos(phi)(phi' xi'' - xi' phi'')
                     - xi' sin(phi)(xi'^2 cos^2(phi) + 2 phi'^2)] / w^3,

where primes are derivatives in the (arbitrary) curve parameter and
w = sqrt(phi'^2 + cos^2(phi) xi'^2) is the parametric speed.  Both
formulas are parametrization invariant; derivatives are taken with 4th-order
centered differences on a uniform periodic grid in the curve parameter, which
needs to be close to arc length only for accuracy.  A profile whose chords
differ by more than MAX_CHORD_RATIO (max/min) is redistributed to uniform arc
length (chordal estimate, periodic cubic spline resampling) before
differencing; a profile within the bound is differenced as it is.

The same (phi, xi) describe the hypersurface in S^{n+1}(1/sqrt(c)), whose
orbit space is the hemisphere of radius 1/sqrt(c): lengths there are 1/sqrt(c)
times those above and curvatures sqrt(c) times, which curvature_of_profile applies.

Sign conventions: the unit normal is the clockwise rotation of the tangent in
the orbit space, which makes the latitude circle phi = const (traversed with
increasing xi) carry kappa_orbit = cot(phi) > 0 and kappa_profile = -tan(phi),
matching the product-family conventions used by the flow.

Torus-type profiles keep phi strictly inside (0, pi/2).  The engine itself
only needs sin(phi) != 0 at the samples, which lets tests drive it with
signed-phi closed curves crossing the axis (geodesic spheres); the public
state type enforces the torus-type restriction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import DomainError, GeometryError, MeshDegenerate, NonEmbedded
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
SWEEP_CHUNK = 1 << 14  # segment pairs self_intersects tests at once


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


def _mean_curvature(n: int, kappa_orbit, kappa_profile):
    return (n - 1.0) * kappa_orbit + kappa_profile


def _invariants(n: int, kappa_orbit, kappa_profile):
    """H, |h|^2 and |h0|^2; |h0|^2 = (n-1)/n (kappa_orbit - kappa_profile)^2 cancels nothing."""
    H = _mean_curvature(n, kappa_orbit, kappa_profile)
    h2 = (n - 1.0) * kappa_orbit ** 2 + kappa_profile ** 2
    h0_2 = (n - 1.0) / n * (kappa_orbit - kappa_profile) ** 2
    return H, h2, h0_2


def curvature_data(n: int, kappa_orbit, kappa_profile) -> CurvatureData:
    """Curvature data of principal curvatures kappa_orbit (n-1 times) and kappa_profile.

    DomainError where a curvature is not finite or an invariant leaves the double range.
    """
    if not (np.isfinite(kappa_orbit).all() and np.isfinite(kappa_profile).all()):
        raise DomainError("principal curvatures must be finite")
    try:
        with np.errstate(over="raise"):
            invariants = _invariants(n, kappa_orbit, kappa_profile)
        # Python floats: a sum or product in |h|^2 overflows to inf silently
        # (then |h|^2 is the invariant that does), a power raises OverflowError
        if isinstance(invariants[1], float) and invariants[1] == np.inf:
            raise OverflowError
    except (FloatingPointError, OverflowError):
        raise DomainError("the curvature invariants leave the double range") from None
    return CurvatureData(kappa_orbit, kappa_profile, *invariants)


def winding_of(xi: np.ndarray) -> int:
    """Number of 2*pi turns the unwrapped xi makes over one period."""
    return _turns(np.unwrap(xi))


def _turns(xi: np.ndarray) -> int:
    """winding_of for an xi that is already unwrapped."""
    # Signed closing increment from the last sample back to the first.
    closing = (xi[0] - xi[-1] + np.pi) % (2.0 * np.pi) - np.pi
    total = (xi[-1] - xi[0]) + closing
    return int(np.round(total / (2.0 * np.pi)))


def periodic_derivatives(vals: np.ndarray, spacing: float, ramp=0.0):
    """4th-order centered first and second derivatives on a periodic grid.

    vals holds one or more rows along its last axis; ramp is the total
    increase of a row over one period (winding coordinates), a float or one
    entry per row broadcast as ``vals[..., :1]``.
    """
    n = vals.shape[-1]
    padded = np.empty(vals.shape[:-1] + (n + 4,))
    padded[..., 2:-2] = vals
    np.subtract(vals[..., -2:], ramp, out=padded[..., :2])
    np.add(vals[..., :2], ramp, out=padded[..., -2:])
    m2, m1 = padded[..., 0:n], padded[..., 1 : n + 1]
    p1, p2 = padded[..., 3 : n + 3], padded[..., 4 : n + 4]
    d1 = (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * spacing)
    d2 = (16.0 * (p1 + m1) - (p2 + m2) - 30.0 * vals) / (12.0 * spacing * spacing)
    return d1, d2


@functools.lru_cache(maxsize=8)
def _stencil_cosines(n_points: int) -> np.ndarray:
    """-2 cos(2 theta) + 32 cos(theta) - 30 on the rfft modes of n_points samples (read-only)."""
    theta = 2.0 * np.pi * np.arange(n_points // 2 + 1) / n_points
    out = -2.0 * np.cos(2.0 * theta) + 32.0 * np.cos(theta) - 30.0
    out.setflags(write=False)
    return out


def second_difference_symbol(n_points: int, spacing: float) -> np.ndarray:
    """Eigenvalues of the second-difference stencil above on the rfft modes.

    Mode k (theta = 2 pi k / n_points) gets
    (-2 cos(2 theta) + 32 cos(theta) - 30) / (12 spacing^2), all <= 0; the
    theta part is computed once per n_points.  The stencil is 4th order: on
    the AC8 ripple each doubling of n_points from 48 to 384 cuts the error of
    the profile flow by at least 12x (~16x measured).
    """
    return _stencil_cosines(n_points) / (12.0 * spacing ** 2)


def _chord_arclength(phi: np.ndarray, xi: np.ndarray):
    """Cumulative chordal arc length (closed), in the orbit-space metric."""
    n = len(phi)
    # the embedded points as columns, the first repeated to close the polygon
    pts = np.empty((3, n + 1))
    cos_phi = np.cos(phi)
    np.sin(phi, out=pts[0, :-1])
    np.multiply(cos_phi, np.cos(xi), out=pts[1, :-1])
    np.multiply(cos_phi, np.sin(xi), out=pts[2, :-1])
    pts[:, -1] = pts[:, 0]
    d = pts[:, 1:] - pts[:, :-1]
    d *= d
    s = np.empty(n + 1)
    s[0] = 0.0
    # (dx^2 + dy^2) + dz^2, the order of np.linalg.norm over the rows of the embedding
    np.cumsum(np.sqrt(d[0] + d[1] + d[2]), out=s[1:])
    return s


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


def resample_profile(phi, xi):
    """Redistribute a closed profile to uniform arc length once its mesh has drifted.

    Returns (phi_u, xi_u, spacing, winding) with the input's sample count and
    spacing = length / N, length the closed chordal length on the unit
    hemisphere.  A profile whose max/min chord ratio is at most MAX_CHORD_RATIO
    is passed through untouched, so exactly represented profiles stay exact;
    any other is refit by a periodic cubic spline in chordal arc length and
    sampled at N equal steps.  A zero chord raises GeometryError, and a chord
    below MIN_SPACING_FRACTION of the mean raises MeshDegenerate.
    """
    phi = np.asarray(phi, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if not (np.abs(xi[1:] - xi[:-1]) < np.pi).all():  # np.unwrap corrects no smaller step
        xi = np.unwrap(xi)
    n_in = len(phi)
    s = _chord_arclength(phi, xi)
    length = s[-1]
    if length <= 0.0:
        raise GeometryError("profile has zero length")
    w = _turns(xi)
    ramp = 2.0 * np.pi * w
    segments = s[1:] - s[:-1]
    if segments.max() <= MAX_CHORD_RATIO * segments.min():
        return phi.copy(), xi.copy(), length / n_in, w
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
    return phi_u, xi_u, length / n_in, w


def _curvatures(profile: np.ndarray, spacing: float, winding: int):
    """kappa_orbit, kappa_profile and the unit normal of a profile at c = 1.

    profile stacks the rows phi and xi of a uniformly parametrized closed
    curve; the normal comes as the rows (nu_phi, nu_xi) of one (2, N) array.
    """
    sin_phi = np.sin(profile[0])
    cos_phi = np.cos(profile[0])
    if not sin_phi.all():  # also a -0.0
        raise GeometryError("profile sample on the rotation axis (sin(phi) = 0)")
    # phi and xi in one pass; phi has no ramp
    ramps = np.array([[0.0], [2.0 * np.pi * winding]])
    (ph1, xi1), (ph2, xi2) = periodic_derivatives(profile, spacing, ramps)
    cos2, ph1_2 = cos_phi ** 2, ph1 ** 2
    cos2_xi1_2 = cos2 * xi1 ** 2
    speed = np.sqrt(ph1_2 + cos2_xi1_2)
    kappa_o = xi1 * cos2 / (speed * sin_phi)
    kappa_p = (
        cos_phi * (ph1 * xi2 - xi1 * ph2) - xi1 * sin_phi * (cos2_xi1_2 + 2.0 * ph1_2)
    ) / speed ** 3
    nu = np.empty(profile.shape)
    np.divide(-cos_phi * xi1, speed, out=nu[0])
    np.divide(ph1, speed * cos_phi, out=nu[1])
    return kappa_o, kappa_p, nu


def profile_geometry(
    phi: np.ndarray, xi: np.ndarray, n: int, spacing: float, winding: int
) -> ProfileGeometry:
    """Curvature data at c = 1 of a uniformly parametrized closed profile in dimension n."""
    kappa_o, kappa_p, nu = _curvatures(np.array([phi, xi]), spacing, winding)
    return ProfileGeometry(kappa_o, kappa_p, *_invariants(n, kappa_o, kappa_p), nu[0], nu[1])


def _normal_velocity(profile: np.ndarray, n: int, spacing: float, winding: int) -> np.ndarray:
    """H nu of stacked (phi, xi) rows: the (2, N) rows H nu_phi and H nu_xi of profile_geometry.

    The same bits as profile_geometry's, without |h|^2, |h0|^2 or a
    ProfileGeometry: the velocity of the flow's inner stages.
    """
    kappa_o, kappa_p, nu = _curvatures(profile, spacing, winding)
    return _mean_curvature(n, kappa_o, kappa_p) * nu


def curvature_of_profile(phi, xi, params: PinchingParams) -> CurvatureData:
    """Resample to uniform arc length, then evaluate the curvature at params.c."""
    phi_u, xi_u, spacing, w = resample_profile(phi, xi)
    geom, root_c = profile_geometry(phi_u, xi_u, params.n, spacing, w), np.sqrt(params.c)
    return curvature_data(params.n, geom.kappa_orbit * root_c, geom.kappa_profile * root_c)


# -------------------------------------------------------- profile builders


def product_profile(params: PinchingParams, r1sq: float, n_points: int = 256):
    """Latitude circle phi = const matching a product hypersurface.

    r1sq is the squared radius of the large factor; sin(phi)^2 = c * r1sq.
    """
    c = params.c
    if not 0.0 < r1sq < 1.0 / c:
        raise GeometryError(f"product profile needs 0 < r1sq < 1/c, got {r1sq!r}")
    if n_points < 1:
        raise GeometryError(f"a profile needs n_points >= 1, got {n_points!r}")
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
    if n_points < 1:
        raise GeometryError(f"a profile needs n_points >= 1, got {n_points!r}")
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
    """Vectorized test for 2-D segments pq and rs that cross or touch.

    They cross where each separates the endpoints of the other strictly, and
    touch where an endpoint lies on the other segment: its orientation is
    exactly 0 and it lies in the bounding box of that segment (Cormen et
    al., *Introduction to Algorithms*, sec. 33.1).  A sample the curve visits
    twice is a touch.
    """

    def cross(o, a, b):
        return (a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1]) - (
            a[..., 1] - o[..., 1]
        ) * (b[..., 0] - o[..., 0])

    d1 = cross(r, s, p)
    d2 = cross(r, s, q)
    d3 = cross(p, q, r)
    d4 = cross(p, q, s)
    meet = ((d1 * d2) < 0) & ((d3 * d4) < 0)
    for a, b, point, orientation in ((r, s, p, d1), (r, s, q, d2), (p, q, r, d3), (p, q, s, d4)):
        on = orientation == 0.0
        if on.any():  # rare but for collinear runs, such as a latitude circle
            for k in (0, 1):
                lo, hi = np.minimum(a[..., k], b[..., k]), np.maximum(a[..., k], b[..., k])
                on &= (lo <= point[..., k]) & (point[..., k] <= hi)
            meet |= on
    return meet


def _meeting_pairs(lo, hi, shift):
    """Index pairs (i, j) whose xi-extents [lo_i, hi_i] and [lo_j + shift, hi_j + shift] meet.

    Sort and sweep: with both lists sorted by their start, a pair meets when
    the later start lies in the other's extent, which searchsorted finds as
    one range per segment.  Yields chunks of about SWEEP_CHUNK pairs (more
    only for a single segment that meets more), so memory stays bounded when
    every pair meets.
    """
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    lo_s, hi_s = lo + shift, hi + shift  # rounding is monotone, so still sorted
    # j starts in [lo_i, hi_i], then i starts in (lo_j', hi_j']: each pair once
    for lo_a, hi_a, starts, side, swap in ((lo, hi, lo_s, "left", False),
                                           (lo_s, hi_s, lo, "right", True)):
        first = np.searchsorted(starts, lo_a, side=side)
        counts = np.searchsorted(starts, hi_a, side="right") - first  # >= 0 as lo_a <= hi_a
        ends = np.cumsum(counts)
        row = 0
        while row < len(counts):
            stop = max(row + 1, int(np.searchsorted(ends, ends[row] - counts[row] + SWEEP_CHUNK,
                                                    side="right")))
            k = counts[row:stop]
            a = np.repeat(np.arange(row, stop), k)
            b = np.arange(len(a)) - np.repeat(np.cumsum(k) - k, k) + np.repeat(first[row:stop], k)
            row = stop
            yield (order[b], order[a]) if swap else (order[a], order[b])


def self_intersects(phi: np.ndarray, xi: np.ndarray) -> bool:
    """Segment test for profile self-intersection on the (xi, phi) cylinder.

    Segment i runs from sample i to sample i + 1 (the last closes the curve
    with its winding).  Each pair of non-adjacent segments i < j is tested
    with segment j shifted by -2 pi, 0 and 2 pi in xi, but only where their
    xi-extents meet, found by a sort and sweep (Shamos & Hoey, FOCS 1976):
    segments whose extents are apart cannot cross.  Segments that touch
    count as meeting too.  A sample repeated at once is a zero chord, which
    resample_profile reports, so its empty segment is left out and its two
    neighbours count as adjacent.
    """
    xi = np.unwrap(np.asarray(xi, dtype=float))
    pts = np.stack([xi, np.asarray(phi, dtype=float)], axis=1)
    end = np.roll(pts, -1, axis=0)
    end[-1, 0] = pts[0, 0] + (_turns(xi) * 2.0 * np.pi)
    end[-1, 1] = pts[0, 1]
    moves = (pts != end).any(axis=1)
    start, end = pts[moves], end[moves]
    n = len(start)
    lo, hi = np.minimum(start[:, 0], end[:, 0]), np.maximum(start[:, 0], end[:, 0])
    for shift in (-2.0 * np.pi, 0.0, 2.0 * np.pi):
        offset = np.array([shift, 0.0])
        for i, j in _meeting_pairs(lo, hi, shift):
            # i < j and not adjacent, nor the wrap-adjacent pair (n-1, 0)
            keep = (j >= i + 2) & ~((i == 0) & (j == n - 1))
            i, j = i[keep], j[keep]
            if len(i) and np.any(
                _segments_intersect(start[i], end[i], start[j] + offset, end[j] + offset)
            ):
                return True
    return False


def validate_profile(phi: np.ndarray, xi: np.ndarray):
    """Torus-type admissibility: finite samples, phi strictly inside (0, pi/2), embedded.

    An embedded closed curve on the annulus winds 0 or +-1 times around it,
    so a profile that winds more often is not embedded, even where its
    sheets only touch at samples.
    """
    phi = np.asarray(phi, dtype=float)
    if len(phi) < 8:
        raise GeometryError("profile needs at least 8 samples")
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(xi))):
        raise GeometryError("profile has a non-finite sample")
    if np.any(phi <= 0.0) or np.any(phi >= np.pi / 2.0):
        raise GeometryError("profile sample violates phi in (0, pi/2)")
    winding = winding_of(np.asarray(xi, dtype=float))
    if abs(winding) >= 2:
        raise NonEmbedded(
            f"profile winds {winding} times around the axis; an embedded one winds at most once"
        )
    if self_intersects(phi, xi):
        raise NonEmbedded("profile curve self-intersects")
