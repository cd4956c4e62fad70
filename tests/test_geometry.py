"""Curvature data of the hypersurface families and pinching classification."""

import numpy as np
import pytest

from pinchflow import (
    Axisymmetric,
    GeodesicSphere,
    GeometryError,
    PinchingClass,
    PinchingParams,
    ProductSn1S1,
    classify_pinching,
    curvature_of,
    product_lambda_for_mean_curvature,
    ricci_lower_bound,
    simons_W,
)
from pinchflow.axisym import curvature_data, product_profile
from pinchflow.thresholds import family


def test_product_curvature_reference_case():
    params = PinchingParams(n=10, c=1.0)
    data = curvature_of(ProductSn1S1(lam=np.sqrt(1.0 / 3.0)), params)
    assert data.H == pytest.approx(2.0 * np.sqrt(3.0), rel=1e-14)
    assert data.h_norm2 == pytest.approx(6.0, rel=1e-14)
    assert data.kappa_orbit == pytest.approx(np.sqrt(1.0 / 3.0), rel=1e-12)
    assert data.kappa_profile == pytest.approx(-np.sqrt(3.0), rel=1e-12)


def test_product_radii_sum():
    params = PinchingParams(n=7, c=2.0)
    state = ProductSn1S1(lam=0.8)
    r1, r2 = state.radii(params)
    assert r1 ** 2 + r2 ** 2 == pytest.approx(1.0 / params.c, rel=1e-14)


def test_equatorial_sphere_is_totally_geodesic():
    params = PinchingParams(n=6, c=1.0)
    data = curvature_of(GeodesicSphere(rho=np.pi / 2.0), params)
    assert abs(data.H) < 1e-12
    assert data.h_norm2 < 1e-24
    assert data.h0_norm2 == 0.0


def test_sphere_radius_validation():
    params = PinchingParams(n=5, c=4.0)
    with pytest.raises(GeometryError):
        curvature_of(GeodesicSphere(rho=0.0), params)
    with pytest.raises(GeometryError):
        curvature_of(GeodesicSphere(rho=np.pi / 2.0 + 0.1), params)  # pi/sqrt(c) = pi/2


def test_spheres_are_umbilic():
    params = PinchingParams(n=8, c=0.25)
    data = curvature_of(GeodesicSphere(rho=1.3), params)
    assert data.h0_norm2 == 0.0
    assert data.h_norm2 == pytest.approx(data.H ** 2 / params.n, rel=1e-12)


def test_sphere_h0_is_exactly_zero():
    # h2 - H^2/n cancelled to 2.8e-14 here; (n-1)/n (k - k)^2 is 0
    assert curvature_of(GeodesicSphere(rho=0.3), PinchingParams(n=7)).h0_norm2 == 0.0


@pytest.mark.parametrize("n", [3, 10, 40, 200])
def test_product_h0_matches_mpmath(n):
    mpmath = pytest.importorskip("mpmath")
    c = 1.0
    lams = np.geomspace(0.05, 50.0, 201)
    data = curvature_of(ProductSn1S1(lam=lams), PinchingParams(n=n, c=c))
    with mpmath.workdps(50):
        exact = [(n - 1) * (mpmath.mpf(lam) + c / mpmath.mpf(lam)) ** 2 / n for lam in lams]
        rel = [abs((mpmath.mpf(h) - e) / e) for h, e in zip(data.h0_norm2, exact)]
    assert float(max(rel)) <= 4.0 * np.finfo(float).eps


@pytest.mark.parametrize("n", [3, 4, 5])
def test_simons_reaction_term_matches_bruteforce(n):
    params = PinchingParams(n=n, c=1.0)
    rng = np.random.default_rng(100 + n)
    for _ in range(200):
        draw = rng.uniform(-3.0, 3.0, n)
        data = curvature_data(n, draw[0], draw[-1])
        lam = np.append(np.full(n - 1, draw[0]), draw[-1])  # the n-multiset
        H = lam.sum()
        h2 = (lam ** 2).sum()
        h0_2 = h2 - H ** 2 / n
        expected = H * (lam ** 3).sum() - h2 ** 2 + n * 1.0 * h0_2
        assert simons_W(data, params) == pytest.approx(expected, abs=1e-12 * max(1.0, abs(expected)))


def test_simons_W_vanishes_for_umbilic_and_boundary_states():
    params = PinchingParams(n=10, c=1.0)
    sphere = curvature_of(GeodesicSphere(rho=0.8), params)
    assert simons_W(sphere, params) == pytest.approx(0.0, abs=1e-10)
    boundary = curvature_of(ProductSn1S1(lam=np.sqrt(1.0 / 3.0)), params)
    assert simons_W(boundary, params) == pytest.approx(0.0, abs=1e-10)


def test_okumura_cube_bound_on_random_multisets():
    for n in range(3, 13):
        rng = np.random.default_rng(n)
        lam = rng.uniform(-10.0, 10.0, size=(100_000, n))
        ring = lam - lam.mean(axis=1, keepdims=True)
        cube = np.abs((ring ** 3).sum(axis=1))
        bound = (n - 2.0) / np.sqrt(n * (n - 1.0)) * (ring ** 2).sum(axis=1) ** 1.5
        assert np.all(cube <= bound * (1.0 + 1e-12) + 1e-12)


def test_traceless_identities():
    params = PinchingParams(n=9, c=2.0)
    data = curvature_of(ProductSn1S1(lam=1.1), params)
    principal = np.append(np.full(params.n - 1, data.kappa_orbit), data.kappa_profile)
    ring = principal - data.H / params.n
    assert ring.sum() == pytest.approx(0.0, abs=1e-12)
    assert (ring ** 2).sum() == pytest.approx(data.h0_norm2, rel=1e-12)


def test_ricci_bound_totally_geodesic():
    params = PinchingParams(n=7, c=1.5)
    data = curvature_of(GeodesicSphere(rho=np.pi / (2.0 * np.sqrt(1.5))), params)
    assert ricci_lower_bound(data, params) == pytest.approx((params.n - 1.0) * params.c, rel=1e-9)


def test_ricci_bound_boundary_product_is_zero():
    # regression: equality case of the bound
    params = PinchingParams(n=10, c=1.0)
    data = curvature_of(ProductSn1S1(lam=np.sqrt(1.0 / 3.0)), params)
    assert ricci_lower_bound(data, params) == pytest.approx(0.0, abs=1e-12)


def test_ricci_witness_for_pinched_states():
    params = PinchingParams(n=10, c=1.0)
    data = curvature_of(GeodesicSphere(rho=0.7), params)
    bound, witness = ricci_lower_bound(data, params, epsilon=0.01)
    assert witness is not None and witness > 0.0
    assert bound > 0.0
    fam = family(params)
    w, _, _ = fam.omega(float(data.H) ** 2)
    assert witness == pytest.approx((params.n - 1.0) / params.n * 0.01 * w, rel=1e-12)


def test_classify_sphere_strict():
    params = PinchingParams(n=5, c=1.0)
    verdict = classify_pinching(curvature_of(GeodesicSphere(rho=0.9), params), params)
    assert verdict.kind is PinchingClass.STRICT
    assert verdict.margin > 2.0 * params.c  # umbilic states sit below gamma by > 2c


def test_classify_product_branch_structure():
    params = PinchingParams(n=10, c=1.0)
    boundary = curvature_of(ProductSn1S1(lam=np.sqrt(1.0 / 3.0)), params)
    assert classify_pinching(boundary, params).kind is PinchingClass.WEAK_EQUALITY
    # the whole branch above the critical mean curvature is weak equality
    high = curvature_of(ProductSn1S1(lam=3.0), params)
    assert classify_pinching(high, params).kind is PinchingClass.WEAK_EQUALITY
    # below it, the quadratic branch of the threshold is the active one: violated
    low = curvature_of(ProductSn1S1(lam=0.5), params)
    assert classify_pinching(low, params).kind is PinchingClass.VIOLATED
    fat = curvature_of(ProductSn1S1(lam=0.1), params)
    verdict = classify_pinching(fat, params)
    assert verdict.kind is PinchingClass.VIOLATED
    assert verdict.excess == pytest.approx(88.1688888888889, rel=1e-9)


@pytest.mark.parametrize("n", [4, 10])
def test_product_sweep_weak_equality_iff_branch_point(n):
    params = PinchingParams(n=n, c=1.0)
    fam = family(params)
    lam_min = np.sqrt(params.c / (n - 1.0))
    for lam in np.linspace(1.001 * lam_min, 6.0 * lam_min, 40):
        data = curvature_of(ProductSn1S1(lam=float(lam)), params)
        H = float(data.H)
        # curvature sits exactly on the radical branch
        a, _, _, _ = fam.alpha(H * H)
        assert float(data.h_norm2) == pytest.approx(float(a), rel=1e-9)
        # reconstruction of lam from its own mean curvature
        assert product_lambda_for_mean_curvature(params, H) == pytest.approx(lam, rel=1e-10)
        verdict = classify_pinching(data, params)
        if H * H >= fam.x0 * (1.0 + 1e-9):
            assert verdict.kind is PinchingClass.WEAK_EQUALITY
        elif H * H <= fam.x0 * (1.0 - 1e-9):
            assert verdict.kind is PinchingClass.VIOLATED


def test_axisymmetric_state_matches_product():
    params = PinchingParams(n=10, c=1.0)
    phi, xi = product_profile(params, 0.75, n_points=512)
    state = Axisymmetric(np.stack([phi, xi], axis=1))
    data = curvature_of(state, params)
    lam = np.sqrt(1.0 / 0.75 - 1.0)
    assert np.max(np.abs(data.H - ((params.n - 1) * lam - 1.0 / lam))) < 1e-6
    assert np.max(np.abs(data.h_norm2 - ((params.n - 1) * lam ** 2 + 1.0 / lam ** 2))) < 1e-6
    assert classify_pinching(data, params).kind is PinchingClass.WEAK_EQUALITY


def test_axisymmetric_profile_validation():
    params = PinchingParams(n=5, c=1.0)
    bad = np.stack([np.full(32, 1.7), np.linspace(0, 2 * np.pi, 32, endpoint=False)], axis=1)
    with pytest.raises(GeometryError):
        curvature_of(Axisymmetric(bad), params)  # phi > pi/2
