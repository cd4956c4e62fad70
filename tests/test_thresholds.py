"""Threshold functions: closed forms, derivatives, constants, and branch structure."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchflow import DerivativeAtZero, DomainError, PinchingParams, RootMismatch, family
from pinchflow import thresholds
from pinchflow.thresholds import (
    _ROOT_AGREEMENT_RTOL,
    _U_MAX,
    _certify_y_n,
    _closed_forms,
    _cubic_sides,
    _taylor,
)


def test_params_validation():
    with pytest.raises(DomainError):
        PinchingParams(n=2, c=1.0)
    with pytest.raises(DomainError):
        PinchingParams(n=5, c=0.0)
    with pytest.raises(DomainError):
        PinchingParams(n=5, c=-1.0)


@pytest.mark.parametrize("n", [float("nan"), float("inf")])
def test_nonfinite_dimension_is_a_domain_error(n):
    # int(n) raised ValueError for NaN and OverflowError for inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="integer >= 3"):
            PinchingParams(n)


@pytest.mark.parametrize("n", range(3, 13))
@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_alpha_at_zero_is_nc(n, c):
    # the radical vanishes at x = 0
    (value,) = family(PinchingParams(n=n, c=c)).alpha(0.0, order=0)
    assert value == pytest.approx(n * c, rel=1e-14)


def test_alpha_derivatives_at_zero_raise():
    fam = family(PinchingParams(n=5))
    for order in (1, 2, 3):
        with pytest.raises(DerivativeAtZero):
            fam.alpha(0.0, order=order)
        with pytest.raises(DerivativeAtZero):
            fam.alpha(np.array([1.0, 0.0]), order=order)
    with pytest.raises(DomainError):
        fam.alpha(-1.0)


def test_alpha_at_branch_point_n10():
    # direct evaluation: alpha(12) = 6 with critical point there
    params = PinchingParams(n=10, c=1.0)
    a, d1, _, _ = family(params).alpha(12.0)
    assert a == pytest.approx(6.0, abs=1e-12)
    assert d1 == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", range(3, 13))
@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_alpha_minimum_at_x1(n, c):
    params = PinchingParams(n=n, c=c)
    fam = family(params)
    a, d1, d2, _ = fam.alpha(fam.x1)
    assert a == pytest.approx(2.0 * np.sqrt(n - 1.0) * c, rel=1e-12)
    assert d1 == pytest.approx(0.0, abs=1e-12)
    assert d2 == pytest.approx(2.0 / ((n - 2.0) ** 2 * np.sqrt(n - 1.0) * c), rel=1e-12)


def test_y10_is_twelve():
    consts = family(PinchingParams(n=10, c=1.0)).constants
    assert consts.y_n == pytest.approx(12.0, abs=1e-9)
    assert consts.x0 == pytest.approx(12.0, abs=1e-9)
    # for n = 10 the branch point coincides with the alpha minimizer
    assert consts.x0 == pytest.approx(consts.x1, abs=1e-9)


def _poly_mul(p, q):
    """Product of two integer polynomials, coefficients from the constant term up."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _exact_cubic(n):
    """(n^2-4)^2 y (y+6m)^2 - (n^2-4n+6)^2 (y+4m)^3 with m = n - 1, as integers."""
    m = n - 1
    lhs = _poly_mul([0, 1], _poly_mul([6 * m, 1], [6 * m, 1]))
    rhs = _poly_mul([4 * m, 1], _poly_mul([4 * m, 1], [4 * m, 1]))
    a, b = (n * n - 4) ** 2, (n * n - 4 * n + 6) ** 2
    return [a * p - b * q for p, q in zip(lhs, rhs)]


def test_y_n_cubic_has_one_coefficient_sign_change():
    # Descartes' rule of signs: exactly one positive root for every n checked
    for n in range(3, 10_001):
        signs = [k > 0 for k in _exact_cubic(n) if k != 0]
        assert sum(a != b for a, b in zip(signs, signs[1:])) == 1, n


def test_certified_bracket_contains_brentq_root():
    from scipy.optimize import brentq  # reference only

    for n in [*range(3, 401), 1000, 5000, 10000]:
        y = _closed_forms(n)[0]
        _certify_y_n(n, y)
        lo, hi = y * (1.0 - _ROOT_AGREEMENT_RTOL), y * (1.0 + _ROOT_AGREEMENT_RTOL)
        # the float signs at the bracket ends are the exact rational ones
        cubic = _exact_cubic(n)
        exact = [sum(k * Fraction(v) ** i for i, k in enumerate(cubic)) for v in (lo, hi)]
        assert exact[0] < 0 < exact[1], n
        ref = brentq(
            lambda v: np.subtract(*_cubic_sides(n, v)),
            0.0, np.sqrt(8.0) * n * n, xtol=1e-13, rtol=1e-15,
        )
        assert lo < ref < hi, n


@pytest.mark.parametrize("factor", [1.0 - 1e-8, 1.0 + 1e-8])
def test_perturbed_y_n_fails_its_bracket(monkeypatch, factor):
    closed_forms = thresholds._closed_forms

    def perturbed(n):
        y, k_n, branch = closed_forms(n)
        return y * factor, k_n, branch

    monkeypatch.setattr(thresholds, "_closed_forms", perturbed)
    thresholds._unit.cache_clear()
    for n in range(3, 13):
        with pytest.raises(RootMismatch, match=f"for n={n}"):
            thresholds._unit(n)


@pytest.mark.parametrize("n", [3, 10, 40, 200])
def test_omega_lower_orders_are_the_bits_of_order_two(n):
    # order k returns the first k + 1 entries, each computed as at order 2
    unit = family(PinchingParams(n))
    us = unit.default_grid(points=3000)
    us = np.concatenate([us[us >= unit.x0], [1e6, 1e20, 1e60]])
    full = thresholds._omega(n, us, 2)
    assert len(full) == 3
    for order in (0, 1):
        got = thresholds._omega(n, us, order)
        assert len(got) == order + 1
        for a, b in zip(got, full):
            assert np.array_equal(a, b)


def test_omega_extension_dipping_between_the_old_scan_points_fails(monkeypatch):
    # (d - d*)^2 - delta about u = y_n, with d* halfway between two points of a
    # 4001-point scan of [0, y_n]: every scan point sees a positive value
    n = 10
    y = _closed_forms(n)[0]
    us = np.linspace(0.0, y, 4001)
    d_star = 0.5 * (us[2000] + us[2001]) - y
    delta = 1e-3 * (0.5 * (us[1] - us[0])) ** 2
    coeffs = (d_star * d_star - delta, -2.0 * d_star, 2.0)
    assert _taylor(coeffs, us - y)[0].min() > 0.0
    assert _taylor(coeffs, np.array(d_star))[0] < 0.0
    monkeypatch.setattr(thresholds, "_omega", lambda n, u: [np.float64(c) for c in coeffs])
    thresholds._unit.cache_clear()
    with pytest.raises(DomainError, match="loses positivity"):
        thresholds._unit(n)


def test_y3_against_bisection_oracle():
    # frozen bisection value of the defining cubic on (0, sqrt(8) * 9)
    oracle = 1.7708286712227663
    consts = family(PinchingParams(n=3, c=1.0)).constants
    assert consts.y_n == pytest.approx(oracle, abs=1e-9)
    assert consts.y_n == pytest.approx(1.7709, abs=1e-4)
    assert consts.bneq_residual < 1e-9


@pytest.mark.parametrize("n", range(3, 13))
def test_y_n_certification(n):
    consts = family(PinchingParams(n=n, c=1.0)).constants
    assert consts.bneq_residual < 1e-10
    assert consts.y_n < np.sqrt(8.0) * n * n
    assert consts.x0 >= consts.x1 - 1e-12 * consts.x0


def test_k_n_values():
    assert family(PinchingParams(n=10)).k_n == pytest.approx(6.0, abs=1e-9)
    assert family(PinchingParams(n=4)).k_n > 3.443
    assert family(PinchingParams(n=5)).k_n > 3.998
    for n in range(5, 10):
        assert family(PinchingParams(n=n)).k_n > 1.999 * np.sqrt(n - 1.0)
    for n in range(3, 13):
        assert family(PinchingParams(n=n)).k_n > 1.8 * np.sqrt(n - 1.0)


def test_k_n_branch_exposed():
    assert family(PinchingParams(n=3)).constants.k_n_branch == "taylor_at_zero"
    assert family(PinchingParams(n=7)).constants.k_n_branch == "vertex"


def test_beta_is_taylor_polynomial_of_alpha():
    params = PinchingParams(n=7, c=2.0)
    fam = family(params)
    a0, a1, a2, _ = fam.alpha(fam.x0)
    b, b1, b2 = fam.beta(fam.x0)
    assert b == pytest.approx(a0, rel=1e-14)
    assert b1 == pytest.approx(a1, abs=1e-14)
    assert b2 == pytest.approx(a2, rel=1e-14)


def test_beta_at_zero_n10():
    # alpha(12) + alpha''(12) * 144 / 2 with alpha'(12) = 0
    b, _, _ = family(PinchingParams(n=10, c=1.0)).beta(0.0)
    assert b == pytest.approx(6.75, rel=1e-12)


def test_beta_quadratic_lower_bound_n3():
    params = PinchingParams(n=3, c=1.0)
    fam = family(params)
    xs = np.linspace(0.0, fam.x0, 4001, endpoint=False)
    b, _, _ = fam.beta(xs)
    assert np.all(b > 0.027 * xs ** 2 + 0.304 * xs + 2.661)


def test_gamma_branches_n10():
    fam = family(PinchingParams(n=10, c=1.0))
    g, _, _, on_alpha = fam.gamma(12.0)
    assert g == pytest.approx(6.0, abs=1e-12)
    assert on_alpha
    g, _, _, on_alpha = fam.gamma(0.0)
    assert g == pytest.approx(6.75, rel=1e-12)
    assert not on_alpha
    with pytest.raises(DerivativeAtZero):
        fam.alpha(0.0, order=1)


@pytest.mark.parametrize("n", [3, 6, 10])
def test_gamma_is_min_of_branches(n):
    params = PinchingParams(n=n, c=1.0)
    fam = family(params)
    xs = fam.default_grid(points=2000)
    g, _, _, _ = fam.gamma(xs)
    a, _, _, _ = fam.alpha(xs)
    b, _, _ = fam.beta(xs)
    assert np.allclose(g, np.minimum(a, b), rtol=1e-13, atol=0.0)


def test_gamma_below_x0_is_silent_at_tiny_x():
    # alpha's second derivative overflows near x = 1e-210; gamma keeps beta there
    fam = family(PinchingParams(n=3, c=1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g, g1, g2, on_alpha = fam.gamma(1e-210)
        grid = fam.gamma(np.array([0.0, 1e-300, 1e-210, fam.x0, 10.0 * fam.x0]))
    b, b1, b2 = fam.beta(1e-210)
    assert (g, g1, g2, bool(on_alpha)) == (b, b1, b2, False)
    assert grid[3].tolist() == [False, False, False, True, True]
    assert np.all(np.isfinite(np.stack(grid[:3])))


@pytest.mark.parametrize("n", [3, 5, 10, 12])
def test_gamma_asymptotic_slope(n):
    g = family(PinchingParams(n=n, c=1.0)).gamma(1e6)[0]
    assert g / 1e6 == pytest.approx(1.0 / (n - 1.0), rel=0.01)


@pytest.mark.parametrize("order", [0, 2])
def test_truncated_jets_are_the_bits_of_the_full_jets(order):
    # monitors ask gamma and omega for values only; a lower order drops
    # derivatives and changes no bit of what it returns, on both branches
    fam = family(PinchingParams(n=7, c=0.3))
    x = np.concatenate([[0.0, fam.x0], np.geomspace(1e-9, 1e3, 2001)])
    g_full, g_part = fam.gamma(x), fam.gamma(x, order=order)
    assert len(g_part) == order + 2
    for got, ref in zip(g_part, g_full[: order + 1] + g_full[-1:], strict=True):
        assert np.array_equal(got, ref)
    w_full, w_part = fam.omega(x), fam.omega(x, order=order)
    assert len(w_part) == order + 1
    for got, ref in zip(w_part, w_full[: order + 1], strict=True):
        assert np.array_equal(got, ref)


def test_gamma_is_c2_at_branch_point():
    # both branch extensions agree to third order across x0
    params = PinchingParams(n=6, c=0.5)
    fam = family(params)
    eps = 1e-4 * fam.x0
    for x in (fam.x0 - eps, fam.x0, fam.x0 + eps):
        a, a1, a2, a3 = fam.alpha(x)
        b, b1, b2 = fam.beta(x)
        assert abs(a - b) <= abs(a3) * eps ** 3
        assert abs(a1 - b1) <= abs(a3) * eps ** 2
        assert abs(a2 - b2) <= 1.5 * abs(a3) * eps


@pytest.mark.parametrize("n", range(3, 13))
@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_bundle_band_and_positivity(n, c):
    fam = family(PinchingParams(n=n, c=c))
    for x in (0.0, 0.3 * c, 3.0 * c, 40.0 * c):
        g = fam.gamma(x)[0]
        assert x / (n - 1.0) + 2.0 * c < g < x / (n - 1.0) + n * c
        assert fam.omega(x)[0] > 0.0
        assert g == pytest.approx(min(fam.alpha(x, order=0)[0], fam.beta(x)[0]), rel=1e-13)


@st.composite
def threshold_point(draw, log10_c_max=300.0):
    """(n, c, x) with n in [3, 500], log10 c in [-log10_c_max, log10_c_max], x in [0, 100 c]."""
    n = draw(st.integers(3, 500))
    c = 10.0 ** draw(st.floats(-log10_c_max, log10_c_max))
    x = draw(st.floats(0.0, 100.0 * c))
    return n, c, x


@settings(derandomize=True, max_examples=150, deadline=None)
@given(point=threshold_point())
def test_threshold_properties_hold_across_n_c_and_x(point):
    n, c, x = point
    fam = family(PinchingParams(n=n, c=c))
    g = fam.gamma(x)[0]
    a = fam.alpha(x, order=0)[0]
    b = fam.beta(x)[0]
    assert abs(g - min(a, b)) <= 1e-10 * max(abs(g), c)
    assert x / (n - 1.0) + 2.0 * c < g < x / (n - 1.0) + n * c
    assert fam.omega(x)[0] > 0.0


@settings(derandomize=True, max_examples=50, deadline=None)
@given(point=threshold_point(log10_c_max=6.0))
def test_alpha_and_beta_have_c2_contact_at_x0(point):
    # value, first and second derivative differ at the Taylor remainder's order;
    # eps^3 overflows for c beyond about 1e100
    n, c, _ = point
    fam = family(PinchingParams(n=n, c=c))
    eps = 1e-4 * fam.x0
    for x in (fam.x0 - eps, fam.x0, fam.x0 + eps):
        a, a1, a2, a3 = fam.alpha(x)
        b, b1, b2 = fam.beta(x)
        assert abs(a - b) <= abs(a3) * eps ** 3
        assert abs(a1 - b1) <= abs(a3) * eps ** 2
        assert abs(a2 - b2) <= 1.5 * abs(a3) * eps


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    n=st.integers(3, 500),
    k=st.integers(-990, 990),
    u=st.one_of(st.just(0.0), st.floats(1e-8, 100.0)),
)
def test_thresholds_are_homogeneous_in_c(n, k, u):
    # f(x; c) = c f(x/c; 1), so the j-th derivative scales by c^(1-j); exact for c = 2^k.
    # alpha to order 3 where its third derivative, ~c^-2, stays a normal double
    # alpha's derivatives raise at u = 0 at both scales, and its value is compared
    c = 2.0 ** k
    scaled, unit = family(PinchingParams(n=n, c=c)), family(PinchingParams(n=n, c=1.0))
    x = u * c
    order = 3 if abs(k) <= 400 else 1
    if u == 0.0:
        for fam, at in ((scaled, x), (unit, u)):
            with pytest.raises(DerivativeAtZero):
                fam.alpha(at, order=order)
        order = 0
    for name, got, ref in [
        ("alpha", scaled.alpha(x, order=order), unit.alpha(u, order=order)),
        ("beta", scaled.beta(x), unit.beta(u)),
        ("gamma", scaled.gamma(x)[:3], unit.gamma(u)[:3]),
        ("omega", scaled.omega(x), unit.omega(u)),
    ]:
        for j, (g, r) in enumerate(zip(got, ref)):
            np.testing.assert_array_equal(g, r * c ** (1 - j), err_msg=f"{name} order {j}")
    assert scaled.gamma(x)[3] == unit.gamma(u)[3]


def test_thresholds_finite_and_silent_for_extreme_c():
    # only x/c is ever squared, so c = 1e-300 ... 1e300 neither overflows nor warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (3, 10, 40):
            for k in range(-300, 301):
                fam = family(PinchingParams(n=n, c=float(f"1e{k}")))
                xs = fam.default_grid(points=60)
                values = [*fam.gamma(xs)[:3], *fam.omega(xs), *fam.beta(xs)]
                values += fam.alpha(xs, order=1)
                assert np.all(np.isfinite(values)), (n, k)


def test_thresholds_finite_and_silent_up_to_the_u_cap():
    # x/c = _U_MAX is the largest abscissa accepted; c = 2^k keeps x/c exact
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (3, 10, 40):
            for c in (2.0 ** -10, 1.0, 2.0 ** 10):
                fam = family(PinchingParams(n=n, c=c))
                x = _U_MAX * c
                values = [*fam.alpha(x), *fam.beta(x), *fam.gamma(x)[:3], *fam.omega(x)]
                assert np.all(np.isfinite(values)), (n, c)
                with pytest.raises(DomainError):
                    fam.gamma(np.nextafter(x, np.inf))
        # x/c overflows to inf, which is rejected without a warning
        with pytest.raises(DomainError):
            family(PinchingParams(n=10, c=1e-300)).gamma(1e10)


def test_derivative_beyond_the_double_range_is_a_domain_error():
    # alpha's third derivative ~ c^-2 is ~1e600 at c = 1e-300: a typed error, not -inf;
    # gamma stops at the second derivative, ~c^-1, and stays finite
    fam = family(PinchingParams(n=10, c=1e-300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            fam.alpha(1e-300)
        assert np.isfinite(fam.alpha(1e-300, order=1)).all()
        assert np.isfinite(fam.gamma(1e-300)[:3]).all()
        # at c = 1, s^1.5 and s^2.5 (s ~ 36x) leave the double range as x -> 0;
        # alpha' ~ x^-1/2 stays finite, and gamma takes beta there
        fam = family(PinchingParams(n=10))
        for x in (1e-150, 1e-210, 1e-300, 5e-324):
            with pytest.raises(DomainError):
                fam.alpha(x)
            assert np.isfinite(fam.alpha(x, order=1)).all()
            assert fam.gamma(x)[:3] == fam.beta(x)


def test_omega_log_derivative_identity():
    params = PinchingParams(n=4, c=2.0)
    fam = family(params)
    xs = np.linspace(fam.x0, 100.0 * params.c, 500)
    w, w1, _ = fam.omega(xs)
    a, a1, _, _ = fam.alpha(xs)
    lhs = w1 * xs * (a + params.n * params.c)
    rhs = w * (2.0 * a - xs * a1 - 3.0 * params.n * params.c)
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    assert np.max(np.abs(lhs - rhs) / scale) < 1e-10


@pytest.mark.parametrize("n", [3, 4, 10, 40])
def test_omega_derivatives_match_a_50_digit_reference(n):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp

    def omega(x, c):  # the printed closed form in x and c
        radical = mpmath.sqrt(x * x + 4 * (n - 1) * c * x)
        v, ratio = x / radical, mpmath.mpf(n) / (n - 2)
        bracket = (1 + n * n * c / x) * (ratio - v) / (ratio + v)
        return x * x / radical * bracket * bracket

    for c in (0.25, 1.0, 4.0):
        fam = family(PinchingParams(n=n, c=c))
        xs = np.geomspace(fam.x0, fam.x0 + 100.0 * c, 12)  # x0 = 187c at n = 40
        got = np.array(fam.omega(xs))
        with mp.workdps(60):
            cm = mp.mpf(c)
            ref = [list(mp.diffs(lambda t: omega(t, cm), mp.mpf(x), 2)) for x in xs]
        ref = np.array(ref, dtype=float).T
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-12, c


def test_omega_x0_combination_n3():
    # dimensionless, so independent of c
    for c in (0.25, 1.0, 4.0):
        fam = family(PinchingParams(n=3, c=c))
        w, w1, w2 = fam.omega(fam.x0)
        combo = 2.0 * fam.x0 * w2 + w1
        assert 11.2 <= combo <= 11.6


@pytest.mark.parametrize("n", [3, 7, 12])
@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_omega_asymptotics(n, c):
    params = PinchingParams(n=n, c=c)
    x = 1e6 * c
    w, w1, w2 = family(params).omega(x)
    assert 2.0 * x * w2 + w1 == pytest.approx(1.0 / (n - 1.0) ** 2, rel=0.01)
    assert w - x * w1 == pytest.approx(2.0 * (2.0 * n - 1.0) * c / (n - 1.0), rel=0.01)


def test_omega_extension_positive_below_x0():
    for n in (3, 8, 12):
        params = PinchingParams(n=n, c=1.0)
        fam = family(params)
        xs = np.linspace(0.0, fam.x0, 500)
        w, _, _ = fam.omega(xs)
        assert np.all(w > 0.0)


def test_omega_negative_x_raises():
    with pytest.raises(DomainError):
        family(PinchingParams(n=5)).omega(-0.5)


@pytest.mark.parametrize("x", [-0.5, np.nan, np.inf, -np.inf, 1e200])
def test_threshold_domain_rejects_negative_and_nonfinite_x(x):
    fam = family(PinchingParams(n=5))
    evaluations = [
        lambda: fam.alpha(x, order=0),
        lambda: fam.alpha(x),
        lambda: fam.beta(x),
        lambda: fam.gamma(x),
        lambda: fam.omega(x),
        lambda: fam.gamma(np.array([1.0, x])),
        lambda: fam.omega(np.array([1.0, x])),
    ]
    for evaluate in evaluations:
        with pytest.raises(DomainError):
            evaluate()


def test_default_grid_needs_three_points():
    fam = family(PinchingParams(n=5))
    for points in (-5, 0, 2):
        with pytest.raises(DomainError):
            fam.default_grid(points=points)
    # the log part is its first point 1e-8 c, the linear part its two ends c and 100 c
    xs = fam.default_grid(points=3)
    assert xs[0] == 1e-8 and 1.0 in xs and xs[-1] == 100.0


@pytest.mark.parametrize("n", [3, 10, 40])
def test_default_grid_is_c_times_the_unit_grid(n):
    # homogeneous like every other method, so exact at c = 2^k
    unit = family(PinchingParams(n=n)).default_grid(points=600)
    for k in range(-200, 201):
        c = 2.0 ** k
        np.testing.assert_array_equal(
            family(PinchingParams(n=n, c=c)).default_grid(points=600), unit * c, err_msg=k
        )


def test_family_past_the_double_range_is_a_domain_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="double range"):
            family(PinchingParams(n=10, c=3e307))  # x0 = 12 c
        fam = family(PinchingParams(n=10, c=1e307))  # x0 = 1.2e308 is still a double
        with pytest.raises(DomainError, match="double range"):
            fam.default_grid(points=50)  # its top, 100 c, is not
        # below the normal range: c itself, or x1 = 0.243 c at n = 3
        for c in (2.0 ** -1074, 1e-310, np.finfo(float).tiny / 2.0):
            with pytest.raises(DomainError, match="must be a normal double"):
                PinchingParams(n=3, c=c)
        for c in (np.finfo(float).tiny, 5e-308):
            with pytest.raises(DomainError, match="normal double range"):
                family(PinchingParams(n=3, c=c))
        fam = family(PinchingParams(n=3, c=1e-307))
        assert fam.x1 >= np.finfo(float).tiny and fam.x0 == fam.y_n * 1e-307


@pytest.mark.parametrize("n", [3, 7, 12])
def test_curvature_flux_combination_decreasing_with_limit(n):
    # 2x a'' + a' decreases strictly from its branch-point value to 1/(n-1)
    params = PinchingParams(n=n, c=1.0)
    fam = family(params)
    xs = np.geomspace(1e-4, 1e5, 400)
    _, a1, a2, _ = fam.alpha(xs)
    combo = 2.0 * xs * a2 + a1
    assert np.all(np.diff(combo) < 0.0)
    assert combo[-1] == pytest.approx(1.0 / (n - 1.0), rel=1e-3)
    # closed-form value at the alpha minimizer
    _, b1, b2, _ = fam.alpha(fam.x1)
    assert 2.0 * fam.x1 * b2 + b1 == pytest.approx(4.0 / (2.0 * np.sqrt(n - 1.0) + n), rel=1e-12)


def test_alpha_derivatives_match_finite_differences():
    params = PinchingParams(n=9, c=1.0)
    fam = family(params)
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.5, 80.0, 50)
    xs = xs[np.abs(xs - fam.x0) > 0.5]
    h = 1e-4 * xs
    a, a1, a2, _ = fam.alpha(xs)
    f = lambda t: fam.alpha(t, order=0)[0]
    d1 = (8.0 * (f(xs + h) - f(xs - h)) - (f(xs + 2 * h) - f(xs - 2 * h))) / (12.0 * h)
    assert np.max(np.abs(d1 - a1) / np.abs(a1)) < 1e-8
