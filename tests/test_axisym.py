"""Finite-difference curvature engine: closed-form reproduction and convergence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline  # reference only

from pinchflow import GeometryError, MeshDegenerate, NonEmbedded, PinchingParams
from pinchflow.axisym import (
    _periodic_spline,
    curvature_of_profile,
    perturbed_product_profile,
    product_profile,
    resample_profile,
    self_intersects,
    sphere_profile,
    validate_profile,
    winding_of,
)


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
    phi_u, xi_u, spacing, length, winding = resample_profile(phi, xi, params)
    assert winding == 1
    assert np.array_equal(phi_u, phi)
    assert np.array_equal(xi_u, xi)
    assert spacing * 128 == pytest.approx(length, rel=1e-14)


@pytest.mark.parametrize("skew, redistributed", [(0.005, False), (0.02, True)])
def test_resample_redistributes_only_past_the_chord_bound(skew, redistributed):
    # xi = theta + skew sin(theta) spreads the chords of a latitude circle by a
    # max/min ratio of about (1 + skew)/(1 - skew): 1.010 and 1.041
    from pinchflow.axisym import MAX_CHORD_RATIO, _chord_arclength

    params = PinchingParams(n=10, c=1.0)
    phi, theta = product_profile(params, 0.75, n_points=128)
    xi = theta + skew * np.sin(theta)
    phi_u, xi_u, spacing, length, _ = resample_profile(phi, xi, params)
    assert spacing * 128 == pytest.approx(length, rel=1e-14)
    assert np.array_equal(xi_u, xi) == (not redistributed)
    chords = np.diff(_chord_arclength(phi_u, xi_u, params.c))
    assert chords.max() <= MAX_CHORD_RATIO * chords.min()


def test_resample_rejects_collapsed_neighbours():
    params = PinchingParams(n=10, c=1.0)
    phi, xi = perturbed_product_profile(params, 0.75, 0.05, n_points=32)
    # a sample 1e-5 of a chord away from its neighbour: far below MIN_SPACING_FRACTION
    near_phi = phi[3] + 1e-5 * (phi[4] - phi[3])
    near_xi = xi[3] + 1e-5 * (xi[4] - xi[3])
    with pytest.raises(MeshDegenerate, match="closer than 0.001 of the mean chord"):
        resample_profile(np.insert(phi, 4, near_phi), np.insert(xi, 4, near_xi), params)


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
        resample_profile(np.insert(phi, 3, phi[3]), np.insert(xi, 3, xi[3]), params)


def test_resample_recovers_uniform_spacing():
    params = PinchingParams(n=10, c=1.0)
    rng = np.random.default_rng(3)
    base = np.sort(rng.uniform(0.0, 2.0 * np.pi, 160))
    phi = np.full_like(base, 0.9) + 0.05 * np.sin(3.0 * base)
    phi_u, xi_u, spacing, length, winding = resample_profile(phi, base, params)
    # spacings in the orbit metric are uniform after redistribution, up to
    # the interpolation error of the redistribution itself
    from pinchflow.axisym import _chord_arclength

    s = _chord_arclength(phi_u, xi_u, params.c)
    seg = np.diff(s)
    assert seg.max() - seg.min() < 1e-2 * seg.mean()


def test_winding_numbers():
    xi_wrap = np.arange(64) * (2.0 * np.pi / 64)
    assert winding_of(xi_wrap) == 1
    params = PinchingParams(n=4, c=1.0)
    phi, xi = sphere_profile(params, 0.8, n_points=64)
    assert winding_of(xi) == 0


def test_self_intersection_detection():
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


def test_perturbed_profile_zero_mean_mode():
    params = PinchingParams(n=10, c=1.0)
    phi, xi = perturbed_product_profile(params, 0.9, amplitude=0.02, mode=2, n_points=128)
    base = np.arcsin(np.sqrt(0.9))
    assert np.mean(phi) == pytest.approx(base, rel=1e-12)
    assert phi.max() > base > phi.min()
