"""Flow simulator: exact solutions, numeric integration, monitors, terminal events."""

import warnings

import numpy as np
import pytest

from pinchflow import (
    Axisymmetric,
    DomainError,
    FlowConfig,
    GeodesicSphere,
    GeometryError,
    PinchingParams,
    ProductSn1S1,
    TerminalKind,
    curvature_of,
    default_epsilon,
    flow_axisymmetric,
    flow_ode_numeric,
    flow_product_exact,
    monitors_update,
)
from pinchflow.axisym import perturbed_product_profile, product_profile
from pinchflow.flow import (
    MonitorRecord,
    TerminalEvent,
    product_collapse_time,
    product_r1sq_exact,
)
from pinchflow.verify import reaction_residuals

P10 = PinchingParams(n=10, c=1.0)


def test_exact_product_reference_trajectory():
    # d = 1/6 and collapse at log(6)/20 for the quarter-split initial radius
    initial = ProductSn1S1.from_r1sq(0.75, P10)
    trace = flow_product_exact(initial, P10, FlowConfig(epsilon=0.0, t_max=1.0))
    assert trace.terminal.kind is TerminalKind.GREAT_CIRCLE_COLLAPSE
    assert trace.terminal.time == pytest.approx(np.log(6.0) / 20.0, abs=1e-14)
    ts = trace.times
    expected = 0.9 * (1.0 - np.exp(20.0 * ts) / 6.0)
    got = trace.state.r1sq_exact
    assert np.max(np.abs(got - expected)) < 1e-12


def test_exact_product_rejects_stationary_and_fat_states():
    with pytest.raises(DomainError):
        flow_product_exact(ProductSn1S1.from_r1sq(0.9, P10), P10)
    with pytest.raises(DomainError):
        flow_product_exact(ProductSn1S1.from_r1sq(0.95, P10), P10)


@pytest.mark.parametrize("route", [flow_product_exact, flow_ode_numeric])
def test_product_radius_past_the_double_range_fails_silently(route):
    # an np.float64 radius kept by the state: c r1^2 overflows as a numpy scalar,
    # which warns where a Python float would not; the routes raise instead
    state = ProductSn1S1(lam=1.0, r1sq_exact=np.float64(1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="the product radius leaves the double range"):
            route(state, PinchingParams(10, 4.0), FlowConfig(epsilon=0.0))


@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
@pytest.mark.parametrize(
    "r1sq_of",
    [lambda s: -1.0, lambda s: 0.0, lambda s: s, lambda s: 1.05 * s, lambda s: np.nan,
     lambda s: 1e308],
    ids=["-1", "0", "stationary", "1.05 stationary", "nan", "1e308"],
)
def test_product_closed_form_rejects_r1sq_outside_its_domain(r1sq_of, c):
    # the closed form collapses only from 0 < r1^2 < (n-1)/(nc); elsewhere it
    # would take the log of d <= 0 or give a negative time.  The exact route
    # runs at c = 1, so both errors name the same c r1^2.  A radius that is not
    # finite and positive fails earlier, when the state is built.
    params = PinchingParams(n=10, c=c)
    r1sq = r1sq_of(9.0 / (10.0 * c))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="0 < c r1\\^2 < \\(n-1\\)/n") as direct:
            product_collapse_time(r1sq, params)
        if not (r1sq > 0.0 and np.isfinite(r1sq)):  # no product state keeps this radius
            with pytest.raises(GeometryError, match="r1sq_exact must be finite and positive"):
                ProductSn1S1(lam=1.0, r1sq_exact=r1sq)
            return
        with pytest.raises(DomainError) as route:
            flow_product_exact(ProductSn1S1(lam=1.0, r1sq_exact=r1sq), params)
    assert str(route.value) == str(direct.value)


@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_exact_product_runs_just_below_the_stationary_torus(c):
    # d = 1 - r1^2 nc/(n-1) = 1e-13 runs to the great circle at -log(d)/(2nc);
    # rounding 1 - d moves d by ~1e-3 relative, and so T by ~4e-5
    d = 1e-13
    params = PinchingParams(n=10, c=c)
    state = ProductSn1S1.from_r1sq((1.0 - d) * 9.0 / (10.0 * c), params)
    trace = flow_product_exact(state, params, FlowConfig(t_max=2.0 / c))
    assert trace.terminal.kind is TerminalKind.GREAT_CIRCLE_COLLAPSE
    assert trace.terminal.time == pytest.approx(-np.log(d) / (20.0 * c), rel=1e-4)


def test_product_closed_forms_read_one_deviation(monkeypatch):
    # d = 1 - n (c r1^2)/(n - 1): product_r1sq_exact formed n c r1^2 in another
    # order, which rounds differently in ~24% of draws shaped like the sweep's
    logs = []
    log = np.log
    monkeypatch.setattr(np, "log", lambda d: logs.append(d) or log(d))
    rng = np.random.default_rng(4)
    for _ in range(100):
        n, c = int(rng.integers(3, 41)), 10.0 ** rng.uniform(-1.0, 1.0)
        params = PinchingParams(n, c)
        r1sq = rng.uniform(0.3, 0.95) * (n - 1.0) / (n * c)
        product_collapse_time(r1sq, params)
        d = logs.pop()  # at t = 0, r1^2 = (n - 1)/(nc) (1 - d e^0)
        assert product_r1sq_exact(r1sq, params, 0.0) == (n - 1.0) / (n * c) * (1.0 - d)


def test_exact_product_radius_past_the_double_range_is_a_domain_error():
    # e^{2nt} overflows at t = 1e3; the closed form raises instead of returning -inf
    with pytest.raises(DomainError, match="double range"):
        product_r1sq_exact(0.75, P10, 1e3)


def test_numeric_product_matches_exact():
    initial = ProductSn1S1.from_r1sq(0.75, P10)
    config = FlowConfig(epsilon=0.0, tol=1e-12, t_max=1.0)
    trace = flow_ode_numeric(initial, P10, config)
    assert trace.terminal.kind is TerminalKind.GREAT_CIRCLE_COLLAPSE
    assert trace.terminal.time == pytest.approx(np.log(6.0) / 20.0, abs=1e-7)
    kept = trace.times <= 0.089
    exact = product_r1sq_exact(initial.r1sq(P10), P10, trace.times[kept])
    errs = np.abs(trace.state.r1sq_exact[kept] - exact)
    assert max(errs) <= 1e-8


def test_minimal_torus_is_stationary():
    minimal = ProductSn1S1.from_r1sq(0.9, P10)
    trace = flow_ode_numeric(minimal, P10, FlowConfig(epsilon=0.0, tol=1e-12, t_max=1.0))
    drift = np.max(np.abs(trace.state.r1sq_exact - 0.9))
    assert drift <= 1e-10
    assert trace.terminal.kind is TerminalKind.HORIZON_REACHED


@pytest.mark.parametrize("n,c,rho_frac", [(3, 1.0, 0.3), (10, 1.0, 0.35), (5, 0.25, 0.4)])
def test_sphere_collapse_time_analytic(n, c, rho_frac):
    params = PinchingParams(n=n, c=c)
    rho0 = rho_frac * np.pi / np.sqrt(c)
    trace = flow_ode_numeric(GeodesicSphere(rho=rho0), params, FlowConfig(tol=1e-12, t_max=10.0 / c))
    expected = -np.log(np.cos(np.sqrt(c) * rho0)) / (n * c)
    assert trace.terminal.kind is TerminalKind.ROUND_POINT
    assert trace.terminal.time == pytest.approx(expected, abs=1e-8 / c)


def test_equatorial_sphere_reports_totally_geodesic():
    params = PinchingParams(n=3, c=1.0)
    trace = flow_ode_numeric(
        GeodesicSphere(rho=np.pi / 2.0), params, FlowConfig(epsilon=0.0, t_max=2.0)
    )
    assert trace.terminal.kind is TerminalKind.TOTALLY_GEODESIC


@pytest.mark.parametrize("c", [1.0, 7.3])
@pytest.mark.parametrize("n", [3, 10, 40])
@pytest.mark.parametrize("frac", [0.1, 0.3, 0.45, 0.55, 0.9])
def test_sphere_terminal_time_is_as_accurate_as_tol(frac, n, c):
    # z = (sqrt(c) rho)^2 is regular at the round point, on both sides of the
    # equator.  At tol 1e-10 the relative error of the terminal time measured
    # 1.2e-11 to 1.0e-10 over this grid; integrating sqrt(c) rho, whose
    # derivative -n cot(sqrt(c) rho) is singular there, it was 2e-10 to 1.4e-8.
    params = PinchingParams(n=n, c=c)
    rho0 = frac * np.pi / np.sqrt(c)
    config = FlowConfig(epsilon=0.0, tol=1e-10, t_max=10.0 / c)
    trace = flow_ode_numeric(GeodesicSphere(rho=rho0), params, config)
    expected = -np.log(abs(np.cos(frac * np.pi))) / (n * c)
    assert trace.terminal.kind is TerminalKind.ROUND_POINT
    assert abs(trace.terminal.time - expected) <= 2e-10 * expected


@pytest.mark.parametrize(
    "n, kind",
    [(3, TerminalKind.TOTALLY_GEODESIC), (10, TerminalKind.ROUND_POINT),
     (40, TerminalKind.ROUND_POINT)],
)
def test_equator_drifts_to_a_round_point_only_at_rate_n(n, kind):
    # the float pi/2 lies just below the equator, where z' ~ -2n (pi/2) cot(pi/2)
    # ~ -1e-16 n; the drift grows like e^{nt}, so by t = 10 it reaches the
    # round point for n = 10 and 40 and keeps |h|^2 ~ 0 for n = 3
    trace = flow_ode_numeric(
        GeodesicSphere(rho=np.pi / 2.0), PinchingParams(n=n), FlowConfig(epsilon=0.0, t_max=10.0)
    )
    assert trace.terminal.kind is kind


def test_large_sphere_collapses_to_antipodal_point():
    params = PinchingParams(n=4, c=1.0)
    trace = flow_ode_numeric(
        GeodesicSphere(rho=0.7 * np.pi), params, FlowConfig(tol=1e-12, t_max=10.0)
    )
    assert trace.terminal.kind is TerminalKind.ROUND_POINT


def test_fat_product_blows_up():
    trace = flow_ode_numeric(
        ProductSn1S1.from_r1sq(0.95, P10), P10, FlowConfig(epsilon=0.0, tol=1e-10, t_max=5.0)
    )
    assert trace.terminal.kind is TerminalKind.BLOWUP


def test_reaction_equations_along_trajectories():
    config = FlowConfig(epsilon=0.0, tol=1e-12, t_max=10.0, dt_initial=2e-4)
    for state in (ProductSn1S1.from_r1sq(0.72, P10), GeodesicSphere(rho=1.1)):
        trace = flow_ode_numeric(state, P10, config)
        res_H, res_h2 = reaction_residuals(trace, P10)
        assert res_H.max() < 1e-6
        assert res_h2.max() < 1e-6


def test_weak_equality_preserved_along_product_flow():
    trace = flow_product_exact(
        ProductSn1S1.from_r1sq(0.75, P10), P10, FlowConfig(epsilon=0.0, t_max=1.0)
    )
    h2, gam = trace.monitors.h2_max, trace.monitors.gamma_min
    assert np.max(np.abs(h2 - gam) / gam) < 1e-7


def test_default_epsilon_gives_factor_two_slack():
    data = curvature_of(GeodesicSphere(rho=0.6), P10)
    eps = default_epsilon(data, P10)
    record = monitors_update(P10, FlowConfig(epsilon=eps), 0.0, data.H, data.h_norm2, data.h0_norm2)
    from pinchflow.thresholds import family

    x = float(data.H) ** 2
    g, _, _, _ = family(P10).gamma(x)
    assert record.U_max.shape == (1,)
    assert record.U_max[0] == pytest.approx(-0.5 * (g - float(data.h_norm2)), rel=1e-9)


def test_monitor_umbilic_state_has_zero_decay_ratio():
    data = curvature_of(GeodesicSphere(rho=0.9), P10)
    record = monitors_update(P10, FlowConfig(epsilon=0.0), 0.3, data.H, data.h_norm2, data.h0_norm2)
    assert record.f_sigma.tolist() == [0.0]
    assert record.g_sigma.tolist() == [0.0]


@pytest.mark.parametrize("n,c", [(3, 1.0), (7, 4.0), (40, 0.3)])
def test_sphere_trace_is_exactly_umbilic(n, c):
    params = PinchingParams(n=n, c=c)
    m = flow_ode_numeric(GeodesicSphere(rho=0.3 * np.pi / np.sqrt(c)), params).monitors
    assert len(m) > 1
    for column in (m.h0_2_max, m.f_sigma, m.g_sigma):
        assert not np.any(column)


def test_monitor_weak_equality_flags_epsilon_slack():
    data = curvature_of(ProductSn1S1.from_r1sq(0.75, P10), P10)
    eps = 0.02
    record = monitors_update(P10, FlowConfig(epsilon=eps), 0.0, data.H, data.h_norm2, data.h0_norm2)
    from pinchflow.thresholds import family

    w, _, _ = family(P10).omega(float(data.H) ** 2)
    assert record.U_max[0] == pytest.approx(eps * w, rel=1e-9)
    assert record.U_max[0] > 0.0  # outside the strict regime, report-only


def test_sphere_flows_preserve_pinching():
    for n, c, frac in [(3, 1.0, 0.3), (10, 1.0, 0.45), (7, 4.0, 0.25)]:
        params = PinchingParams(n=n, c=c)
        trace = flow_ode_numeric(
            GeodesicSphere(rho=frac * np.pi / np.sqrt(c)), params,
            FlowConfig(tol=1e-10, t_max=2.0 / c),
        )
        assert np.all(trace.monitors.U_max < 0.0)


def test_axisymmetric_circle_tracks_exact_product():
    phi, xi = product_profile(P10, 0.75, n_points=128)
    t_stop = np.log((1.0 - 0.1 / 0.9) / (1.0 / 6.0)) / 20.0  # r1^2 reaches 0.1
    trace = flow_axisymmetric(
        Axisymmetric(np.stack([phi, xi], axis=1)), P10, FlowConfig(epsilon=0.0, t_max=t_stop)
    )
    initial = ProductSn1S1.from_r1sq(0.75, P10)
    rel = []
    for i, snapshot in trace.snapshots.items():
        exact = product_r1sq_exact(initial.r1sq(P10), P10, trace.times[i])
        rel.append(abs(float(np.mean(np.sin(snapshot.phi) ** 2)) - exact) / exact)
    assert max(rel) <= 1e-3


def test_axisymmetric_minimal_torus_stationary():
    phi, xi = product_profile(P10, 0.9, n_points=64)
    trace = flow_axisymmetric(
        Axisymmetric(np.stack([phi, xi], axis=1)), P10, FlowConfig(epsilon=0.0, t_max=1.0)
    )
    snapshots = trace.snapshots.values()
    drift = max(abs(float(np.mean(np.sin(s.phi) ** 2)) - 0.9) for s in snapshots)
    assert drift <= 1e-5
    assert trace.terminal.kind is TerminalKind.HORIZON_REACHED


def test_axisymmetric_collapse_detected_with_accurate_time():
    phi, xi = product_profile(P10, 0.75, n_points=128)
    trace = flow_axisymmetric(
        Axisymmetric(np.stack([phi, xi], axis=1)), P10, FlowConfig(epsilon=0.0, t_max=0.2)
    )
    assert trace.terminal.kind is TerminalKind.GREAT_CIRCLE_COLLAPSE
    assert trace.terminal.time == pytest.approx(np.log(6.0) / 20.0, abs=1e-5)


def test_axisymmetric_step_count_does_not_grow_with_grid():
    # the stiff stencil is integrated exactly, so only the reaction rate bounds dt
    steps = {}
    for n_points in (64, 96, 128, 256):
        phi, xi = perturbed_product_profile(P10, 0.9, amplitude=0.005, mode=2, n_points=n_points)
        trace = flow_axisymmetric(
            Axisymmetric(np.stack([phi, xi], axis=1)), P10,
            FlowConfig(epsilon=0.0, sigma=0.1, t_max=0.25),
        )
        assert trace.terminal.kind is TerminalKind.HORIZON_REACHED
        # the per-step records join into one running maximum
        assert np.all(np.diff(trace.monitors.C0_fit) >= 0.0)
        steps[n_points] = len(trace.monitors) - 1
    assert steps[256] <= 2 * steps[64]
    assert steps[96] < 100  # the AC8 run at n = 10


def test_integrator_error_scales_at_design_order():
    # halving the step bound must shrink the numeric-vs-exact error far
    # faster than linearly (embedded 5(4) pair)
    initial = ProductSn1S1.from_r1sq(0.7, P10)
    errors = []
    for h in (4e-3, 2e-3):
        config = FlowConfig(epsilon=0.0, tol=1e-3, t_max=0.05, dt_initial=h)
        trace = flow_ode_numeric(initial, P10, config)
        exact = product_r1sq_exact(initial.r1sq(P10), P10, trace.times)
        errors.append(np.max(np.abs(trace.state.r1sq_exact - exact)))
    assert errors[0] / errors[1] > 8.0


def test_profile_route_error_falls_at_fourth_order():
    # a latitude circle has no spatial error, so the error at t = 0.06 is ETDRK4's time error
    phi, xi = product_profile(P10, 0.75, n_points=64)
    initial = ProductSn1S1.from_r1sq(0.75, P10)
    errors = []
    for cap in (2e-3, 1e-3, 5e-4):
        trace = flow_axisymmetric(
            Axisymmetric(np.stack([phi, xi], axis=1)), P10,
            FlowConfig(epsilon=0.0, t_max=0.06, dt_initial=cap),
        )
        last = max(trace.snapshots)
        r1sq = float(np.mean(np.sin(trace.snapshots[last].phi) ** 2))
        errors.append(abs(r1sq - product_r1sq_exact(initial.r1sq(P10), P10, trace.times[last])))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    assert all(14.0 <= r <= 18.0 for r in ratios), ratios


def test_perturbed_circle_is_flagged_not_strict():
    # no torus-type state can be strictly pinched; the monitor reports U > 0
    phi, xi = perturbed_product_profile(P10, 0.75, amplitude=0.05, mode=3, n_points=96)
    state = Axisymmetric(np.stack([phi, xi], axis=1))
    trace = flow_axisymmetric(state, P10, FlowConfig(epsilon=0.01, t_max=0.02))
    assert np.all(trace.monitors.U_max > 0.0)


def test_step_underflow_raises():
    from pinchflow import StepUnderflow

    phi, xi = product_profile(P10, 0.75, n_points=64)
    state = Axisymmetric(np.stack([phi, xi], axis=1))
    with pytest.raises(StepUnderflow):
        # capped below the step floor DT_MIN = 1e-12
        flow_axisymmetric(state, P10, FlowConfig(epsilon=0.0, t_max=0.1, dt_initial=1e-13))


def test_horizon_below_step_floor_is_reached():
    # a horizon shorter than DT_MIN is one short step, not an underflow
    phi, xi = product_profile(P10, 0.75, n_points=64)
    state = Axisymmetric(np.stack([phi, xi], axis=1))
    trace = flow_axisymmetric(state, P10, FlowConfig(epsilon=0.0, t_max=1e-13))
    assert trace.terminal == TerminalEvent(TerminalKind.HORIZON_REACHED, 1e-13)
    assert list(trace.times) == [0.0, 1e-13]


def test_etdrk4_weights_match_an_mpmath_reference():
    mp = pytest.importorskip("mpmath")
    from pinchflow.flow import _etdrk4_coefficients

    seam = [np.nextafter(-1.0, 0.0), -1.0, np.nextafter(-1.0, -2.0), -0.999, -1.001]
    z = np.concatenate([[0.0], seam, -np.logspace(-8.0, 3.0, 401)])
    dt = 0.37
    e, e2, *weights = _etdrk4_coefficients(z, dt)
    worst = 0.0
    with mp.workdps(50):
        for i, zi in enumerate(z.tolist()):
            if zi == 0.0:
                expected = [mp.mpf(1) / 2, mp.mpf(1) / 6, mp.mpf(1) / 6, mp.mpf(1) / 6]
            else:
                x = mp.mpf(zi)
                ex = mp.exp(x)
                expected = [
                    (mp.exp(x / 2) - 1) / x,
                    (-4 - x + ex * (4 - 3 * x + x * x)) / x ** 3,
                    (2 + x + ex * (x - 2)) / x ** 3,
                    (-4 - 3 * x - x * x + ex * (4 - x)) / x ** 3,
                ]
            for got, ref in zip(weights, expected):
                ref = ref * dt
                worst = max(worst, float(abs((mp.mpf(float(got[i])) - ref) / ref)))
    assert worst <= 1e-12
    np.testing.assert_array_equal(e, np.exp(z))
    np.testing.assert_array_equal(e2, np.exp(z / 2.0))


def etdrk4_coefficients_by_gathers(z, dt):
    """Reference: the ETDRK4 weights as first written, on gathered copies of z, e^z and e^{z/2}."""
    from pinchflow.flow import _ETD_TAYLOR

    e, e2 = np.exp(z), np.exp(z / 2.0)
    weights = np.empty((4, len(z)))
    small = np.abs(z) < 1.0
    powers = np.vander(z[small], len(_ETD_TAYLOR), increasing=True)
    weights[:, small] = (powers[:, :, None] * _ETD_TAYLOR).sum(axis=1).T
    big = ~small
    zb, eb = z[big], e[big]
    zb3 = zb ** 3
    weights[0, big] = (e2[big] - 1.0) / zb
    weights[1, big] = (-4.0 - zb + eb * (4.0 - 3.0 * zb + zb * zb)) / zb3
    weights[2, big] = (2.0 + zb + eb * (zb - 2.0)) / zb3
    weights[3, big] = (-4.0 - 3.0 * zb - zb * zb + eb * (4.0 - zb)) / zb3
    q, f1, f2, f3 = dt * weights
    return e, e2, q, f1, f2, f3


def _bits(a):
    return np.asarray(a).view(np.uint64)  # also tells -0.0 from 0.0


@pytest.mark.parametrize("n_points", [8, 96, 128, 1024])
def test_etdrk4_coefficients_are_the_bits_of_the_gathered_form(n_points):
    from pinchflow import axisym
    from pinchflow.flow import _etdrk4_coefficients

    seam = [np.nextafter(-1.0, 0.0), -1.0, np.nextafter(-1.0, -2.0), -0.999, -1.001]
    seam_z = np.concatenate([[0.0], seam, -np.logspace(-8.0, 3.0, 401)])
    # dt symbol as a step makes it: the AC8 mesh and its step size at n_points
    phi, xi = perturbed_product_profile(P10, 0.9, 0.005, n_points=n_points)
    phi, xi, spacing, winding = axisym.resample_profile(phi, xi)
    symbol = axisym.second_difference_symbol(n_points, spacing)
    theta = 2.0 * np.pi * np.arange(n_points // 2 + 1) / n_points
    first = (-2.0 * np.cos(2.0 * theta) + 32.0 * np.cos(theta) - 30.0) / (12.0 * spacing ** 2)
    assert np.array_equal(_bits(symbol), _bits(first))
    h2 = axisym.profile_geometry(phi, xi, 10, spacing, winding).h_norm2.max()
    for z, dt in ((seam_z, 0.37), (0.15 / (10 + h2) * symbol, 0.15 / (10 + h2))):
        got, ref = _etdrk4_coefficients(z, dt), etdrk4_coefficients_by_gathers(z, dt)
        for a, b in zip(got, ref):
            assert np.array_equal(_bits(a), _bits(b))


def test_etdrk4_step_is_the_bits_of_the_unstacked_step():
    # one step as first written: rfft u and v0 apart, stage velocities through profile_geometry
    from pinchflow import axisym
    from pinchflow.flow import _etdrk4_step, _winding_ramp

    phi, xi = perturbed_product_profile(P10, 0.9, 0.05, mode=3, n_points=96)
    phi, xi, spacing, winding = axisym.resample_profile(phi, xi)
    geom = axisym.profile_geometry(phi, xi, 10, spacing, winding)
    ramp = _winding_ramp(len(phi), winding)
    symbol = axisym.second_difference_symbol(len(phi), spacing)
    dt = 0.15 / (10 + geom.h_norm2.max())
    e, e2, q, f1, f2, f3 = etdrk4_coefficients_by_gathers(dt * symbol, dt)

    def nonlinear(u):
        g = axisym.profile_geometry(u[0], u[1] + ramp, 10, spacing, winding)
        return np.fft.rfft(np.array([g.H * g.nu_phi, g.H * g.nu_xi]))

    def stage(x_hat):
        return nonlinear(np.fft.irfft(x_hat, n=len(phi))) - symbol * x_hat

    u_hat = np.fft.rfft(np.array([phi, xi - ramp]))
    n_u = np.fft.rfft(np.array([geom.H * geom.nu_phi, geom.H * geom.nu_xi])) - symbol * u_hat
    a_hat = e2 * u_hat + q * n_u
    n_a = stage(a_hat)
    n_b = stage(e2 * u_hat + q * n_a)
    n_c = stage(e2 * a_hat + q * (2.0 * n_b - n_u))
    ref = np.fft.irfft(e * u_hat + f1 * n_u + 2.0 * f2 * (n_a + n_b) + f3 * n_c, n=len(phi))

    def velocity(u):
        u[1] += ramp
        return axisym._normal_velocity(u, 10, spacing, winding)

    u_v0 = np.array([[phi, xi - ramp], [geom.H * geom.nu_phi, geom.H * geom.nu_xi]])
    assert np.array_equal(_bits(_etdrk4_step(u_v0, velocity, symbol, dt)), _bits(ref))


@pytest.mark.parametrize(
    "r1sq, amplitude, n_points, t_max, kind",
    [
        (0.9, 0.05, 256, 0.25, TerminalKind.HORIZON_REACHED),
        (0.75, 0.01, 128, 0.2, TerminalKind.GREAT_CIRCLE_COLLAPSE),
    ],
)
def test_every_step_starts_from_a_mesh_within_the_chord_bound(
    r1sq, amplitude, n_points, t_max, kind, monkeypatch
):
    from pinchflow import axisym

    meshes, splines = [], []
    resample, spline = axisym.resample_profile, axisym._periodic_spline

    def recording(*args):
        out = resample(*args)
        meshes.append((args, out))
        return out

    monkeypatch.setattr(axisym, "resample_profile", recording)
    monkeypatch.setattr(axisym, "_periodic_spline", lambda *a: splines.append(1) or spline(*a))
    phi, xi = perturbed_product_profile(P10, r1sq, amplitude, mode=2, n_points=n_points)
    trace = flow_axisymmetric(
        Axisymmetric(np.stack([phi, xi], axis=1)), P10, FlowConfig(epsilon=0.0, t_max=t_max)
    )
    assert trace.terminal.kind is kind
    # the initial redistribution and at least one during the run
    assert len(splines) >= 2
    # each step starts from the mesh the previous resample returned
    assert len(meshes) == len(trace.monitors)
    for (phi_in, xi_in), (phi_m, xi_m, spacing, _) in meshes:
        chords = np.diff(axisym._chord_arclength(phi_m, xi_m))
        assert chords.max() <= axisym.MAX_CHORD_RATIO * chords.min()
        length = axisym._chord_arclength(phi_in, xi_in)[-1]
        assert spacing * len(phi_m) == pytest.approx(length, rel=1e-14)


def test_flow_config_validation():
    with pytest.raises(DomainError):
        FlowConfig(sigma=1.5).validate()
    with pytest.raises(DomainError):
        FlowConfig(epsilon=-0.1).validate()


def test_trace_times_strictly_increase():
    trace = flow_ode_numeric(
        ProductSn1S1.from_r1sq(0.75, P10), P10, FlowConfig(epsilon=0.0, tol=1e-10, t_max=1.0)
    )
    ts = trace.times
    assert np.all(np.diff(ts) > 0.0)
    # the stored h2_max is recomputable from the stored state
    mid = len(trace.monitors) // 2
    fresh = curvature_of(ProductSn1S1.from_r1sq(trace.state.r1sq_exact[mid], P10), P10)
    assert float(fresh.h_norm2) == pytest.approx(trace.monitors.h2_max[mid], rel=1e-12)


@pytest.mark.parametrize(
    "name,value",
    [
        ("t_max", -1.0), ("t_max", 0.0), ("t_max", np.inf), ("t_max", np.nan),
        ("epsilon", np.nan), ("epsilon", np.inf),
        ("tol", 0.0), ("tol", -1e-10), ("tol", np.nan), ("tol", np.inf),
        ("dt_initial", 0.0), ("dt_initial", -1e-3),
    ],
)
def test_flow_config_rejects_bad_run_parameters(name, value):
    with pytest.raises(DomainError):
        FlowConfig(**{name: value}).validate()
    # rejected before any integration
    with pytest.raises(DomainError):
        flow_ode_numeric(ProductSn1S1.from_r1sq(0.75, P10), P10, FlowConfig(**{name: value}))


def _joined(records):
    """One-column monitor records joined as the axisymmetric loop joins them."""
    names = MonitorRecord.__dataclass_fields__
    joined = MonitorRecord(**{k: np.concatenate([getattr(r, k) for r in records]) for k in names})
    joined.C0_fit = np.maximum.accumulate(joined.C0_fit)
    return joined


def _scalar_rows(trace, params):
    """Monitors of a homogeneous trace, one scalar state and call per row, joined."""
    rows = []
    for i, t in enumerate(trace.times):
        if isinstance(trace.state, GeodesicSphere):
            state = GeodesicSphere(rho=float(trace.state.rho[i]))
        else:
            state = ProductSn1S1.from_r1sq(float(trace.state.r1sq_exact[i]), params)
        data = curvature_of(state, params)
        record = monitors_update(
            params, trace.config, float(t), data.H, data.h_norm2, data.h0_norm2
        )
        assert len(record) == 1
        rows.append(record)
    return _joined(rows)


@pytest.mark.parametrize("route", ["product", "product-exact", "sphere"])
def test_batched_monitors_equal_scalar_rows(route):
    params = PinchingParams(n=6, c=0.5)
    config = FlowConfig(epsilon=0.01, tol=1e-10, t_max=4.0)
    if route == "sphere":
        trace = flow_ode_numeric(GeodesicSphere(rho=1.2), params, config)
    else:
        flow = flow_product_exact if route == "product-exact" else flow_ode_numeric
        trace = flow(ProductSn1S1.from_r1sq(1.3, params), params, config)
    rows = _scalar_rows(trace, params)
    assert len(trace.monitors) == len(rows) == len(trace.times) > 10
    for name in MonitorRecord.__dataclass_fields__:
        column = getattr(trace.monitors, name)
        assert column.ndim == 1
        np.testing.assert_array_equal(column, getattr(rows, name), err_msg=name)


def test_block_monitors_equal_joined_column_calls():
    # the axisymmetric loop makes one (points, steps) call per block: the bits of per-step calls
    rng = np.random.default_rng(7)
    points, times = 40, 25
    t = np.sort(rng.uniform(0.0, 2.0, times))
    H = rng.uniform(-3.0, 3.0, (points, times))
    h0_2 = rng.uniform(0.0, 0.5, (points, times))
    h2 = H ** 2 / P10.n + h0_2
    config = FlowConfig(epsilon=0.01, sigma=0.3)
    block = monitors_update(P10, config, t, H, h2, h0_2)
    columns = _joined([
        monitors_update(P10, config, t[j], H[:, [j]], h2[:, [j]], h0_2[:, [j]])
        for j in range(times)
    ])
    for name in MonitorRecord.__dataclass_fields__:
        column = getattr(block, name)
        assert column.shape == (times,)
        np.testing.assert_array_equal(column, getattr(columns, name), err_msg=name)
    assert np.all(np.diff(block.C0_fit) >= 0.0) and np.any(np.diff(block.C0_fit) > 0.0)


def test_default_epsilon_run_validates_the_profile_once(monkeypatch):
    from pinchflow import axisym

    validated, splines = [], []
    validate, spline = axisym.validate_profile, axisym._periodic_spline
    monkeypatch.setattr(axisym, "validate_profile", lambda *a: validated.append(1) or validate(*a))
    monkeypatch.setattr(axisym, "_periodic_spline", lambda *a: splines.append(1) or spline(*a))
    phi, xi = perturbed_product_profile(P10, 0.9, amplitude=0.005, mode=2, n_points=64)
    state = Axisymmetric(np.stack([phi, xi], axis=1))
    trace = flow_axisymmetric(state, P10, FlowConfig(t_max=0.02))
    assert trace.config.epsilon is not None
    assert len(validated) == 1
    # the ripple is redistributed at t = 0 and then only when the mesh drifts
    assert 1 <= len(splines) <= 3


def test_flows_reject_a_state_of_another_family():
    from pinchflow import GeometryError

    phi, xi = product_profile(P10, 0.75, n_points=64)
    with pytest.raises(GeometryError):
        flow_product_exact(Axisymmetric(np.stack([phi, xi], axis=1)), P10)
    with pytest.raises(GeometryError):
        flow_axisymmetric(ProductSn1S1.from_r1sq(0.75, P10), P10)


def test_axisymmetric_trace_csv_marks_snapshot_rows(tmp_path, monkeypatch):
    from pinchflow import axisym
    from pinchflow.export import write_trace_csv

    splines = []
    spline = axisym._periodic_spline
    monkeypatch.setattr(axisym, "_periodic_spline", lambda *a: splines.append(1) or spline(*a))
    phi, xi = product_profile(P10, 0.9, n_points=64)
    # long enough (~430 steps of 0.0075) for the snapshots to thin to every other step
    trace = flow_axisymmetric(
        Axisymmetric(np.stack([phi, xi], axis=1)), P10, FlowConfig(epsilon=0.0, t_max=3.2)
    )
    # a latitude circle stays uniform, so it is never redistributed
    assert len(splines) == 0
    assert len(trace.monitors) == len(trace.times)
    assert 1 < len(trace.snapshots) < len(trace.monitors)
    out = tmp_path / "trace.csv"
    write_trace_csv(out, trace, {})
    rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
    assert len(rows) == len(trace.monitors)
    marked = {i for i, row in enumerate(rows) if row[2]}
    assert marked == set(trace.snapshots)
    assert all(rows[i][2] == "64" for i in marked)
    assert [float(row[0]) for row in rows] == list(trace.times)


# Each route with default options at c = 2^k against c = 1: the flow at c is
# the flow at c = 1 under t -> ct, rho -> sqrt(c) rho, r1^2 -> c r1^2, so the
# routes take the same steps.  The sphere runs at c = 4^k, where sqrt(c) is
# exact; the profile is the same (phi, xi) at every c.
HOMOGENEITY_KS = (-200, -199, -101, -100, -37, -2, -1, 1, 2, 37, 100, 101, 199, 200)


def _default_run(route, c):
    params = PinchingParams(n=10, c=c)
    if route == "sphere":
        return flow_ode_numeric(GeodesicSphere(rho=0.3 * np.pi / np.sqrt(c)), params)
    if route == "profile":
        phi, xi = perturbed_product_profile(P10, 0.75, amplitude=0.01, n_points=64)
        return flow_axisymmetric(Axisymmetric(np.stack([phi, xi], axis=1)), params)
    flow = flow_product_exact if route == "product-exact" else flow_ode_numeric
    return flow(ProductSn1S1.from_r1sq(0.75 / c, params), params)


@pytest.mark.parametrize("route", ["sphere", "product", "product-exact", "profile"])
def test_every_route_at_c_is_the_route_at_one_scaled(route):
    ref = _default_run(route, 1.0)
    unit = ref.monitors
    for k in HOMOGENEITY_KS[::2] if route == "sphere" else HOMOGENEITY_KS:
        c = 2.0 ** (2 * k if route == "sphere" else k)
        trace = _default_run(route, c)
        m = trace.monitors
        assert trace.terminal.kind is ref.terminal.kind
        assert trace.terminal.time * c == ref.terminal.time, k
        assert np.array_equal(m.t * c, unit.t), k
        # same bits where sqrt(c) is exact; otherwise sqrt(c) and lam = sqrt(1/r1^2 - c)
        # are rounded at c, a few ulp
        for name, scale in (("H_max", np.sqrt(c)), ("h2_max", c), ("h0_2_max", c)):
            got, want = getattr(m, name) / scale, getattr(unit, name)
            if k % 2 == 0 or route == "sphere":
                assert np.array_equal(got, want), (name, k)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0, err_msg=name)
        # gamma scales as c and the sigma-weighted ratios as c^sigma, itself rounded;
        # U = |h|^2 - gamma + eps omega cancels to rounding on the product's
        # weak-equality branch, so it is held to the scale of |h|^2
        for name, scale in (("gamma_min", c), ("f_sigma", c ** 0.1), ("g_sigma", c ** 0.1),
                            ("C0_fit", c ** 0.1)):
            np.testing.assert_allclose(
                getattr(m, name) / scale, getattr(unit, name), rtol=1e-13, atol=0.0, err_msg=name
            )
        assert np.all(np.abs(m.U_max / c - unit.U_max) <= 1e-13 * unit.h2_max), k


def _ac8_state(n_points=96, amplitude=0.005):
    phi, xi = perturbed_product_profile(P10, 0.9, amplitude=amplitude, mode=2, n_points=n_points)
    return Axisymmetric(np.stack([phi, xi], axis=1))


def _ac8_g_sigma_at_horizon(n_points=96, dt_cap=None):
    config = FlowConfig(epsilon=0.0, t_max=0.25, dt_initial=dt_cap)
    trace = flow_axisymmetric(_ac8_state(n_points), P10, config)
    assert trace.terminal.kind is TerminalKind.HORIZON_REACHED
    return float(trace.monitors.g_sigma[-1])


def test_ac8_error_falls_at_fourth_order_in_time():
    from pinchflow import axisym, flow

    # the step the route takes first, 0.15/(n + max|h|^2); near the torus the
    # step stays close to it, so a cap at a fraction of it scales every step
    state = _ac8_state()
    phi, xi, spacing, winding = axisym.resample_profile(state.phi, state.xi)
    h2_max = float(axisym.profile_geometry(phi, xi, 10, spacing, winding).h_norm2.max())
    dt_first = flow._profile_dt(h2_max, 10, None)
    g = {k: _ac8_g_sigma_at_horizon(dt_cap=k * dt_first) for k in (1.0, 0.5, 0.25, 0.125)}
    err = [abs(g[k] / g[0.125] - 1.0) for k in (1.0, 0.5, 0.25)]
    # ETDRK4: 3.9e-7, 2.7e-8 and 2.4e-9 against the run at 1/8, ratios 14.6 and 11.3
    assert err[0] / err[1] >= 8.0 and err[1] / err[2] >= 8.0, err


def test_ac8_error_falls_at_fourth_order_in_space():
    g = {n_points: _ac8_g_sigma_at_horizon(n_points) for n_points in (48, 96, 192, 384, 768)}
    err = [abs(g[n_points] / g[768] - 1.0) for n_points in (48, 96, 192, 384)]
    # the five-point stencil: 1.2e-5 down to 2.8e-9 against N = 768, ratios 16.1, 16.5, 16.5
    assert all(coarse / fine >= 12.0 for coarse, fine in zip(err, err[1:])), err


def test_ac8_run_evaluates_the_monitors_in_two_calls(monkeypatch):
    from pinchflow import flow
    from pinchflow.thresholds import ThresholdFamily

    calls = {"monitors": [], "gamma": [], "omega": []}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(flow, "monitors_update", counted("monitors", flow.monitors_update))
    for name in ("gamma", "omega"):
        monkeypatch.setattr(ThresholdFamily, name, counted(name, getattr(ThresholdFamily, name)))
    trace = flow_axisymmetric(_ac8_state(), P10, FlowConfig(epsilon=0.0, t_max=0.25))
    assert len(trace.monitors) == 35  # 34 steps: the initial state, then one block
    assert {name: len(args) for name, args in calls.items()} == {
        "monitors": 2, "gamma": 2, "omega": 2
    }
    # 10x longer, the ripple collapses after 98 steps: blocks of 85 steps of 96 samples
    calls["monitors"].clear()
    trace = flow_axisymmetric(_ac8_state(), P10, FlowConfig(epsilon=0.0, t_max=2.5))
    assert trace.terminal.kind is TerminalKind.GREAT_CIRCLE_COLLAPSE
    assert [args[3].shape for args in calls["monitors"]] == [(96, 1), (96, 85), (96, 13)]


def test_block_records_are_the_bits_of_per_step_records(monkeypatch):
    from pinchflow import flow

    ripple, circle = _ac8_state(), Axisymmetric(np.stack(product_profile(P10, 0.75, 64), axis=1))
    for state, config in ((ripple, FlowConfig(epsilon=0.01, t_max=2.5)),
                          (circle, FlowConfig(epsilon=0.0, t_max=0.2))):
        blocked = flow_axisymmetric(state, P10, config)
        monkeypatch.setattr(flow, "MONITOR_BLOCK", 1)  # one step per call, as before blocks
        stepped = flow_axisymmetric(state, P10, config)
        monkeypatch.undo()
        assert blocked.terminal == stepped.terminal
        for name in MonitorRecord.__dataclass_fields__:
            assert np.array_equal(getattr(blocked.monitors, name), getattr(stepped.monitors, name))


def test_profile_monitor_memory_does_not_grow_with_the_step_count():
    import tracemalloc

    # AC8's minimal torus without its ripple stays put (the ripple collapses), at
    # 1024 points, where a block is 8 steps: AC8's length, 34 steps, and 4x that
    state = _ac8_state(n_points=1024, amplitude=0.0)
    held = {}
    for t_max in (0.25, 1.0):
        tracemalloc.start()
        try:
            trace = flow_axisymmetric(state, P10, FlowConfig(epsilon=0.0, t_max=t_max))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.terminal.kind is TerminalKind.HORIZON_REACHED
        held[len(trace.monitors) - 1] = peak - kept  # beyond the trace it returns
    assert sorted(held) == [34, 134]
    # ~0.8 MB each; holding every step's columns for one call would take ~10 MB at 134
    assert held[134] <= 1.05 * held[34], held


def test_profile_state_out_of_range_fails_before_the_first_step(monkeypatch):
    from pinchflow import flow

    def no_step(*args):
        raise AssertionError("stepped")

    monkeypatch.setattr(flow, "_etdrk4_step", no_step)
    c = 2.0 ** 1020
    with pytest.raises(DomainError, match="a derivative leaves the double range"):
        flow_axisymmetric(
            _ac8_state(), PinchingParams(10, c), FlowConfig(epsilon=0.0, t_max=0.25 / c)
        )


def test_profile_run_past_its_step_budget_fails_before_the_first_step(monkeypatch):
    from pinchflow import flow

    def no_step(*args):
        raise AssertionError("stepped")

    # the minimal torus takes ~134 steps per unit of ct: ~1.3e8 to t = 1e6
    phi, xi = product_profile(P10, 0.9, n_points=96)
    with monkeypatch.context() as mp:
        mp.setattr(flow, "_etdrk4_step", no_step)
        with pytest.raises(DomainError, match=r"t_max = 1000000.0 would take ~1.33e\+08 steps"):
            flow_axisymmetric(Axisymmetric(np.stack([phi, xi], axis=1)), P10,
                              FlowConfig(epsilon=0.0, t_max=1e6))
    # the budget bounds the estimate from the first step: 35 steps for AC8
    with monkeypatch.context() as mp:
        mp.setattr(flow, "MAX_PROFILE_STEPS", 34)
        mp.setattr(flow, "_etdrk4_step", no_step)
        with pytest.raises(DomainError, match="~35 steps"):
            flow_axisymmetric(_ac8_state(), P10, FlowConfig(epsilon=0.0, t_max=0.25))
    monkeypatch.setattr(flow, "MAX_PROFILE_STEPS", 35)
    trace = flow_axisymmetric(_ac8_state(), P10, FlowConfig(epsilon=0.0, t_max=0.25))
    assert trace.terminal.kind is TerminalKind.HORIZON_REACHED


def _collapse_error(c, patch=None):
    """The DomainError message of a circle's collapse at c, and the steps taken before it.

    patch is an optional (module, name, value) to set for the run.
    """
    from pinchflow import flow

    steps = []
    step = flow._etdrk4_step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "_etdrk4_step", lambda *a: steps.append(1) or step(*a))
        if patch is not None:
            mp.setattr(*patch)
        circle = Axisymmetric(np.stack(product_profile(P10, 0.75, 64), axis=1))
        with pytest.raises(DomainError) as err:
            flow_axisymmetric(circle, PinchingParams(10, c), FlowConfig(epsilon=0.0))
    return str(err.value), len(steps)


def test_range_error_mid_run_surfaces_at_the_end_of_its_block():
    from pinchflow import axisym, flow

    # at c = 2^1005 the collapsing circle's |h|^2 c overflows some steps before the end
    c = 2.0 ** 1005
    message, steps = _collapse_error(c)
    assert message == f"the flow's curvature leaves the double range at c = {c!r}"
    assert steps == 40  # the whole run is one block
    # step by step, the same error comes at the step that overflows
    assert _collapse_error(c, (flow, "MONITOR_BLOCK", 1)) == (message, 32)
    # a flow error later in the block comes after the error of the pending monitors
    resample = axisym.resample_profile
    calls = []

    def failing_resample(*args):
        calls.append(1)
        if len(calls) > 38:
            raise axisym.MeshDegenerate("late")
        return resample(*args)

    assert _collapse_error(c, (axisym, "resample_profile", failing_resample)) == (message, 38)
