"""Finite-difference curvature engine: closed-form reproduction and convergence."""

import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline  # reference only

from pinchflow import GeometryError, MeshDegenerate, NonEmbedded, PinchingParams
from pinchflow import axisym
from pinchflow.axisym import (
    _chord_arclength,
    _normal_velocity,
    _periodic_spline,
    _segments_intersect,
    _turns,
    curvature_of_profile,
    periodic_derivatives,
    perturbed_product_profile,
    product_profile,
    profile_geometry,
    resample_profile,
    self_intersects,
    sphere_profile,
    validate_profile,
    winding_of,
)


@pytest.mark.parametrize(
    "build",
    [
        lambda p, k: product_profile(p, 0.75, n_points=k),
        lambda p, k: perturbed_product_profile(p, 0.75, 0.01, n_points=k),
        lambda p, k: sphere_profile(p, 0.5, n_points=k),
    ],
    ids=["product", "perturbed", "sphere"],
)
def test_profile_builders_need_a_sample(build):
    params = PinchingParams(n=10, c=1.0)
    assert len(build(params, 1)[0]) == 1
    for n_points in (0, -3):
        with pytest.raises(GeometryError, match="n_points >= 1"):
            build(params, n_points)


def sphere_principal(params, rho):
    return np.sqrt(params.c) / np.tan(np.sqrt(params.c) * rho)


@pytest.mark.parametrize("n,c,r1sq", [(10, 1.0, 0.75), (10, 1.0, 0.9), (5, 4.0, 0.15)])
def test_product_circle_reproduced_exactly(n, c, r1sq):
    params = PinchingParams(n=n, c=c)
    lam = np.sqrt(1.0 / r1sq - c)
    phi, xi = product_profile(params, r1sq, n_points=512)
    geom = curvature_of_profile(phi, xi, params)
    assert np.max(np.abs(geom.kappa_orbit - lam)) < 1e-12
    assert np.max(np.abs(geom.kappa_profile + c / lam)) < 1e-12
    assert np.max(np.abs(geom.H - ((n - 1) * lam - c / lam))) < 1e-6
    assert np.max(np.abs(geom.h_norm2 - ((n - 1) * lam ** 2 + c ** 2 / lam ** 2))) < 1e-6


@pytest.mark.parametrize(
    "n,c,rho", [(10, 1.0, 0.9), (3, 1.0, 0.7), (10, 4.0, 0.45), (6, 0.25, 1.6)]
)
def test_geodesic_sphere_reproduced_at_512(n, c, rho):
    # engine-level signed-phi representation of the umbilic family
    params = PinchingParams(n=n, c=c)
    phi, xi = sphere_profile(params, rho, n_points=512)
    geom = curvature_of_profile(phi, xi, params)
    k = sphere_principal(params, rho)
    assert np.max(np.abs(geom.kappa_orbit - k)) < 1e-6
    assert np.max(np.abs(geom.kappa_profile - k)) < 1e-6


def test_second_order_convergence_under_refinement():
    # warped sampling forces the redistribution path; its spline second
    # derivatives carry the leading error term, one order of h^2
    params = PinchingParams(n=10, c=1.0)
    rho = 0.9
    k = sphere_principal(params, rho)
    errors = {}
    for n_points in (256, 512, 1024, 2048):
        phi, xi = sphere_profile(params, rho, n_points=n_points, warp=0.25)
        geom = curvature_of_profile(phi, xi, params)
        errors[n_points] = max(
            np.max(np.abs(geom.kappa_orbit - k)), np.max(np.abs(geom.kappa_profile - k))
        )
    sizes = sorted(errors)
    ratios = [errors[a] / errors[b] for a, b in zip(sizes, sizes[1:])]
    for ratio in ratios:
        assert 3.5 <= ratio <= 4.5, (ratios, errors)


def test_resample_skips_uniform_grids():
    params = PinchingParams(n=10, c=1.0)
    phi, xi = product_profile(params, 0.75, n_points=128)
    phi_u, xi_u, spacing, winding = resample_profile(phi, xi)
    assert winding == 1
    assert np.array_equal(phi_u, phi)
    assert np.array_equal(xi_u, xi)
    assert spacing * len(phi) == pytest.approx(_chord_arclength(phi, xi)[-1], rel=1e-14)


@pytest.mark.parametrize("skew, redistributed", [(0.005, False), (0.02, True)])
def test_resample_redistributes_only_past_the_chord_bound(skew, redistributed):
    # xi = theta + skew sin(theta) spreads the chords of a latitude circle by a
    # max/min ratio of about (1 + skew)/(1 - skew): 1.010 and 1.041
    from pinchflow.axisym import MAX_CHORD_RATIO

    params = PinchingParams(n=10, c=1.0)
    phi, theta = product_profile(params, 0.75, n_points=128)
    xi = theta + skew * np.sin(theta)
    phi_u, xi_u, spacing, _ = resample_profile(phi, xi)
    assert spacing * len(phi) == pytest.approx(_chord_arclength(phi, xi)[-1], rel=1e-14)
    assert np.array_equal(xi_u, xi) == (not redistributed)
    chords = np.diff(_chord_arclength(phi_u, xi_u))
    assert chords.max() <= MAX_CHORD_RATIO * chords.min()


@pytest.mark.parametrize("skew", [0.0, 0.02])
def test_resample_of_wrapped_xi_is_bits_of_unwrapped_copy(skew):
    # skew 0 passes the profile through, skew 0.02 redistributes it
    params = PinchingParams(n=10, c=1.0)
    phi, theta = product_profile(params, 0.75, n_points=96)
    wrapped = (theta + skew * np.sin(theta) + np.pi) % (2.0 * np.pi) - np.pi
    assert np.abs(np.diff(wrapped)).max() >= np.pi  # wraps at +-pi
    got = resample_profile(phi, wrapped)
    ref = resample_profile(phi, np.unwrap(wrapped))
    assert np.array_equal(got[1], np.unwrap(wrapped)) == (skew == 0.0)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


def embed(phi, xi):
    """Orbit-space points (phi, xi) on the unit hemisphere in R^3, one row each."""
    return np.stack([np.sin(phi), np.cos(phi) * np.cos(xi), np.cos(phi) * np.sin(xi)], axis=1)


def embedded_arclength(phi, xi):
    """Reference: norms of the chords of the (N, 3) embedding closed by its first row, summed."""
    pts = embed(phi, xi)
    chords = np.linalg.norm(np.diff(np.vstack([pts, pts[:1]]), axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(chords)])


def test_chord_arclength_is_the_bits_of_a_norm_over_the_closed_polygon():
    params = PinchingParams(n=10, c=4.0)
    phi, xi = perturbed_product_profile(params, 0.2, 0.05, n_points=97)
    assert np.array_equal(_chord_arclength(phi, xi), embedded_arclength(phi, xi))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    n_points=st.integers(8, 300),
    amplitude=st.floats(0.0, 0.2),
    mode=st.integers(1, 6),
    winding=st.sampled_from([1, -1]),
    reverse=st.booleans(),
    n=st.integers(2, 40),
)
def test_stage_velocity_and_chords_are_the_bits_of_their_references(
    n_points, amplitude, mode, winding, reverse, n
):
    # rippled latitude circles, either way round the axis and traversed either way
    params = PinchingParams(n=10, c=1.0)
    phi, xi = perturbed_product_profile(params, 0.75, amplitude, mode, n_points)
    xi = winding * xi
    if reverse:
        phi, xi = phi[::-1].copy(), xi[::-1].copy()
    assert np.array_equal(_chord_arclength(phi, xi), embedded_arclength(phi, xi))
    phi, xi, spacing, w = resample_profile(phi, xi)
    assert w == (-winding if reverse else winding)
    geom = profile_geometry(phi, xi, n, spacing, w)
    velocity = _normal_velocity(np.array([phi, xi]), n, spacing, w)
    assert np.array_equal(velocity, np.array([geom.H * geom.nu_phi, geom.H * geom.nu_xi]))


def test_resample_rejects_collapsed_neighbours():
    params = PinchingParams(n=10, c=1.0)
    phi, xi = perturbed_product_profile(params, 0.75, 0.05, n_points=32)
    # a sample 1e-5 of a chord away from its neighbour: far below MIN_SPACING_FRACTION
    near_phi = phi[3] + 1e-5 * (phi[4] - phi[3])
    near_xi = xi[3] + 1e-5 * (xi[4] - xi[3])
    with pytest.raises(MeshDegenerate, match="closer than 0.001 of the mean chord"):
        resample_profile(np.insert(phi, 4, near_phi), np.insert(xi, 4, near_xi))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    knots=st.integers(4, 600),
    n_out=st.integers(1, 700),
    spread=st.floats(0.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_periodic_spline_is_scipy_cubic_spline_to_the_bit(knots, n_out, spread, seed):
    rng = np.random.default_rng(seed)
    chords = 10.0 ** rng.uniform(-spread, 0.0, knots - 1)  # uneven by up to 10^spread
    x = np.concatenate([[0.0], np.cumsum(chords)])
    y = rng.normal(size=(knots, 2))
    y[-1] = y[0]
    x_new = np.arange(n_out) * (x[-1] / n_out)
    ref = CubicSpline(x, y, bc_type="periodic")(x_new)
    assert np.array_equal(_periodic_spline(x, y, x_new), ref)


def test_resample_rejects_repeated_samples():
    params = PinchingParams(n=10, c=1.0)
    phi, xi = perturbed_product_profile(params, 0.75, 0.05, n_points=32)
    with pytest.raises(GeometryError, match="repeats a sample"):
        resample_profile(np.insert(phi, 3, phi[3]), np.insert(xi, 3, xi[3]))


def test_resample_rejects_an_empty_profile():
    with pytest.raises(GeometryError, match="zero length"):
        resample_profile([], [])


def test_resample_recovers_uniform_spacing():
    params = PinchingParams(n=10, c=1.0)
    rng = np.random.default_rng(3)
    base = np.sort(rng.uniform(0.0, 2.0 * np.pi, 160))
    phi = np.full_like(base, 0.9) + 0.05 * np.sin(3.0 * base)
    phi_u, xi_u, spacing, winding = resample_profile(phi, base)
    # spacings in the orbit metric are uniform after redistribution, up to
    # the interpolation error of the redistribution itself
    s = _chord_arclength(phi_u, xi_u)
    seg = np.diff(s)
    assert seg.max() - seg.min() < 1e-2 * seg.mean()


def test_winding_numbers():
    xi_wrap = np.arange(64) * (2.0 * np.pi / 64)
    assert winding_of(xi_wrap) == 1
    params = PinchingParams(n=4, c=1.0)
    phi, xi = sphere_profile(params, 0.8, n_points=64)
    assert winding_of(xi) == 0


def test_self_intersection_detection():
    # each verdict also holds for the all-pairs reference below
    theta = np.arange(200) * (2.0 * np.pi / 200)
    # limacon with an inner loop: one guaranteed crossing in the strip
    r = 0.25 * (1.0 + 2.0 * np.cos(theta))
    phi = 0.8 + r * np.sin(theta)
    xi = 2.0 + r * np.cos(theta)
    assert self_intersects(phi, xi)
    with pytest.raises(NonEmbedded):
        validate_profile(phi, xi)
    phi_ok, xi_ok = 0.8 + 0.05 * np.sin(2.0 * theta), theta
    assert not self_intersects(phi_ok, xi_ok)
    validate_profile(phi_ok, xi_ok)


def wound_twice(ripple=0.0):
    """A latitude circle of the minimal torus traversed twice, rippled by sin(xi/2)."""
    xi = 4.0 * np.pi * np.arange(96) / 96
    return np.arcsin(np.sqrt(0.9)) * (1.0 + ripple * np.sin(xi / 2.0)), xi


@pytest.mark.parametrize("ripple", [0.0, 0.01])
def test_a_profile_wound_twice_is_not_embedded(ripple):
    phi, xi = wound_twice(ripple)
    assert winding_of(xi) == 2
    # the sheets meet at samples 0 and 48 (all along for the plain circle): a touch
    assert self_intersects(phi, xi)
    with pytest.raises(NonEmbedded, match="winds 2 times"):
        validate_profile(phi, xi)
    with pytest.raises(NonEmbedded, match="winds -2 times"):
        validate_profile(phi[::-1], xi[::-1])


def test_a_profile_that_touches_itself_at_a_sample_is_not_embedded():
    # a latitude circle with a triangular loop that leaves sample 10 and returns to it:
    # no two segments cross, but the curve visits that sample twice
    phi, xi = product_profile(PinchingParams(n=10, c=1.0), 0.5, n_points=64)
    phi = np.insert(phi, 11, phi[10] + np.array([0.1, 0.1, 0.0]))
    xi = np.insert(xi, 11, xi[10] + np.array([0.05, -0.05, 0.0]))
    assert winding_of(xi) == 1
    assert self_intersects(phi, xi)
    with pytest.raises(NonEmbedded, match="self-intersects"):
        validate_profile(phi, xi)


@pytest.mark.parametrize("winding", [1, -1])
@pytest.mark.parametrize("reverse", [False, True])
def test_embedded_profiles_stay_admissible(winding, reverse):
    # the AC8 ripple either way round the axis, traversed either way
    phi, xi = perturbed_product_profile(PinchingParams(n=10, c=1.0), 0.9, 0.005, n_points=96)
    xi = winding * xi
    if reverse:
        phi, xi = phi[::-1], xi[::-1]
    assert not self_intersects(phi, xi)
    validate_profile(phi, xi)
    # a sample repeated at once is a zero chord, which resample_profile reports
    validate_profile(np.insert(phi, 5, phi[5]), np.insert(xi, 5, xi[5]))


def test_perturbed_profile_zero_mean_mode():
    params = PinchingParams(n=10, c=1.0)
    phi, xi = perturbed_product_profile(params, 0.9, amplitude=0.02, mode=2, n_points=128)
    base = np.arcsin(np.sqrt(0.9))
    assert np.mean(phi) == pytest.approx(base, rel=1e-12)
    assert phi.max() > base > phi.min()


def all_pairs_self_intersects(phi, xi):
    """Reference: the exact segment test on every pair of non-adjacent segments, O(N^2)."""
    xi = np.unwrap(np.asarray(xi, dtype=float))
    pts = np.stack([xi, np.asarray(phi, dtype=float)], axis=1)
    start = pts
    end = np.roll(pts, -1, axis=0)
    end[-1, 0] = pts[0, 0] + (_turns(xi) * 2.0 * np.pi)
    end[-1, 1] = pts[0, 1]
    moves = (start != end).any(axis=1)  # zero chords left out, as in self_intersects
    start, end = start[moves], end[moves]
    n = len(start)
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


def random_polygon(kind, n, seed):
    """Closed polygon (phi, xi) of n samples: a rippled band around the cylinder, a
    loop that may wander across the seam xi = 0 = 2 pi, or a scribble with crossings."""
    rng = np.random.default_rng(seed)
    base = np.arange(n) * (2.0 * np.pi / n)
    if kind == "band":  # winding 1, crossings only where the jitter folds it back
        xi = base + rng.normal(0.0, rng.choice([0.01, 0.3, 1.0]) * 2.0 * np.pi / n, n)
        phi = 0.8 + 0.2 * np.sin(rng.integers(1, 5) * base) + rng.normal(0.0, 0.05, n)
    elif kind == "seam":  # winding 1, starting anywhere, folding back across the seam
        xi = base + rng.normal(0.0, 0.7 * 2.0 * np.pi / n, n) - rng.uniform(0.0, 2.0 * np.pi)
        xi[rng.integers(0, n, 3)] += rng.choice([0.0, 2.0 * np.pi, -2.0 * np.pi], 3)
        phi = 0.8 + 0.3 * rng.uniform(-1.0, 1.0) * np.cos(rng.integers(1, 4) * base)
    elif kind == "loop":  # winding 0: an ellipse about the seam, maybe with a limacon loop
        r = 0.3 * (1.0 + rng.uniform(0.0, 2.5) * np.cos(base))
        xi = rng.choice([0.0, 2.0 * np.pi, 6.0]) + r * np.cos(base)
        phi = 0.8 + rng.uniform(0.2, 1.0) * r * np.sin(base)
    else:  # scribble: random points in a strip, shifted copies meeting across the seam
        xi = rng.uniform(-1.0, 2.0 * np.pi + 1.0, n)
        phi = rng.uniform(0.1, 1.4, n)
    return phi, xi


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["band", "seam", "loop", "scribble"]),
    n=st.integers(3, 80),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([1, 5, 64, axisym.SWEEP_CHUNK]),
)
def test_sweep_self_intersects_is_the_all_pairs_test(kind, n, seed, chunk):
    phi, xi = random_polygon(kind, n, seed)
    with mock.patch.object(axisym, "SWEEP_CHUNK", chunk):  # chunks of a few pairs, too
        assert self_intersects(phi, xi) == all_pairs_self_intersects(phi, xi)


def test_random_polygons_meet_both_verdicts():
    # the property above is not vacuous: each kind gives both verdicts
    for kind in ("band", "seam", "loop", "scribble"):
        verdicts = {all_pairs_self_intersects(*random_polygon(kind, n, seed))
                    for n in (6, 12, 24) for seed in range(20)}
        assert verdicts == {True, False}, kind


def test_sweep_memory_stays_bounded_when_every_pair_meets():
    # a zigzag between xi = 0 and 1, closed through xi = 1.5: every pair of its
    # 1000 zigzag segments has meeting xi-extents, and none crosses
    k = 1000
    zig_xi = np.arange(k) % 2.0
    zig_phi = np.arange(k) * 1e-3
    phi = np.concatenate([zig_phi, [zig_phi[-1], 0.0]])
    xi = np.concatenate([zig_xi, [1.5, 1.5]])
    tracemalloc.start()
    try:
        assert not self_intersects(phi, xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak  # the all-pairs test needs ~70 MB here
    phi[k // 2] = 2.0  # one sample lifted through the zigzag above it
    assert self_intersects(phi, xi)


def test_validate_profile_is_fast_and_small_at_4096():
    params = PinchingParams(n=10, c=1.0)
    phi, xi = perturbed_product_profile(params, 0.9, amplitude=0.005, mode=2, n_points=4096)
    validate_profile(phi, xi)
    tracemalloc.start()
    try:
        validate_profile(phi, xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6, peak  # 1.1 GB for the all-pairs test
    start = time.perf_counter()
    validate_profile(phi, xi)
    assert time.perf_counter() - start < 1.0  # ~3 ms on a 2-core Xeon; 8 s for all pairs


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 4),
    n=st.integers(5, 300),
    winding=st.integers(-3, 3),
    spacing=st.floats(1e-4, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_derivative_rows_are_the_bits_of_per_row_calls(rows, n, winding, spacing, seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(rows, n))
    ramps = 2.0 * np.pi * winding * rng.integers(0, 2, rows).astype(float)
    d1, d2 = periodic_derivatives(vals, spacing, ramps[:, None])
    for row, ramp in enumerate(ramps):
        r1, r2 = periodic_derivatives(vals[row], spacing, float(ramp))
        assert np.array_equal(d1[row], r1) and np.array_equal(d2[row], r2)
    # a ramp of 0 is the default
    assert all(np.array_equal(a, b) for a, b in zip(
        periodic_derivatives(vals[0], spacing), periodic_derivatives(vals[0], spacing, 0.0)))
