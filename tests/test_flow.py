"""Flow simulator: exact solutions, numeric integration, monitors, terminal events."""

import numpy as np
import pytest

from pinchflow import (
    Axisymmetric,
    DomainError,
    FixedPointError,
    FlowConfig,
    GeodesicSphere,
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
from pinchflow.flow import MonitorRecord, TerminalEvent, product_r1sq_exact
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
    with pytest.raises(FixedPointError):
        flow_product_exact(ProductSn1S1.from_r1sq(0.9, P10), P10)
    with pytest.raises(DomainError):
        flow_product_exact(ProductSn1S1.from_r1sq(0.95, P10), P10)


def test_numeric_product_matches_exact():
    initial = ProductSn1S1.from_r1sq(0.75, P10)
    config = FlowConfig(epsilon=0.0, tol=1e-12, t_max=1.0)
    trace = flow_ode_numeric(initial, P10, config)
    assert trace.terminal.kind is TerminalKind.GREAT_CIRCLE_COLLAPSE
    assert trace.terminal.time == pytest.approx(np.log(6.0) / 20.0, abs=1e-7)
    kept = trace.times <= 0.089
    exact = product_r1sq_exact(initial, P10, trace.times[kept])
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
        exact = product_r1sq_exact(initial, P10, trace.times[i])
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
        exact = product_r1sq_exact(initial, P10, trace.times)
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
        errors.append(abs(r1sq - product_r1sq_exact(initial, P10, trace.times[last])))
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
        meshes.append(out)
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
    for phi_m, xi_m, spacing, length, _ in meshes:
        chords = np.diff(axisym._chord_arclength(phi_m, xi_m, P10.c))
        assert chords.max() <= axisym.MAX_CHORD_RATIO * chords.min()
        assert spacing * n_points == pytest.approx(length, rel=1e-14)


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
    # the axisymmetric loop makes one (points, 1) call per step and joins them
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
