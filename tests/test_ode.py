"""Scalar Dormand–Prince integrator: agreement with scipy's RK45, level events, failure modes."""

import signal

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp  # reference only

from pinchflow import (
    DomainError,
    FlowConfig,
    GeodesicSphere,
    GeometryError,
    PinchflowError,
    PinchingParams,
    ProductSn1S1,
    StepUnderflow,
    TerminalKind,
    flow_ode_numeric,
    flow_product_exact,
)
from pinchflow import flow
from pinchflow.flow import (
    COLLAPSE_R1SQ,
    ROUND_POINT_RHO,
    _integrate,
    _ode_rhs_and_events,
    _ode_start,
    product_collapse_time,
)
from pinchflow.ode import solve_ivp

P10 = PinchingParams(n=10, c=1.0)
STATES = {
    "sphere": GeodesicSphere(rho=0.4 * np.pi),
    "product": ProductSn1S1.from_r1sq(0.8 * 0.9, P10),
}
LATTICE = [(3, 1.0), (10, 0.25), (40, 7.3)]


def _levels(state, params):
    """rhs, (level, direction) pairs and y0 of a reduction, as flow_ode_numeric passes them."""
    kind, y0, _ = _ode_start(state, params)
    rhs, events = _ode_rhs_and_events(kind, params.n)
    return rhs, [(level, direction) for level, direction, _, _ in events], y0


def _scipy_rk45(rhs, events, y0, t_max, rtol, atol, step):
    def terminal(level, direction):
        def event(t, y):
            return y[0] - level

        event.terminal, event.direction = True, direction
        return event

    return scipy_solve_ivp(
        lambda t, y: [rhs(y[0])], (0.0, t_max), [y0], method="RK45", rtol=rtol, atol=atol,
        events=[terminal(*e) for e in events], first_step=step, max_step=step or np.inf,
    )


@pytest.mark.parametrize("step", [None, 1.0 / 5000.0])
@pytest.mark.parametrize("name", sorted(STATES))
def test_matches_scipy_rk45_at_tight_tolerance(name, step):
    rhs, events, y0 = _levels(STATES[name], P10)
    rtol, atol = 1e-12, 1e-12 * max(abs(y0), 1.0)
    ours = solve_ivp(rhs, 10.0, y0, rtol=rtol, atol=atol, events=events, max_step=step)
    ref = _scipy_rk45(rhs, events, y0, 10.0, rtol, atol, step)
    assert ref.status == 1
    assert ours.event == next(i for i, te in enumerate(ref.t_events) if len(te))
    assert ours.y.shape == ours.t.shape == (len(ours.t),)
    assert abs(len(ours.t) - len(ref.t)) <= 5
    t_end, y_end = ours.t[-1], ours.y[-1]
    assert t_end == pytest.approx(ref.t[-1], rel=1e-13, abs=0.0)
    # the run ends on the event's root, located in t to well inside 4 eps
    residual = abs(y_end - events[ours.event][0])
    assert residual <= abs(rhs(y_end)) * 8.0 * np.finfo(float).eps * (1.0 + t_end)


def test_event_fires_only_in_its_direction():
    # y' = 1 from 0 crosses y = 0.5 upward at t = 0.5 and never reaches -0.5
    def rhs(y):
        return 1.0

    down = solve_ivp(rhs, 1.0, 0.0, rtol=1e-10, atol=1e-10, events=[(-0.5, -1)])
    assert down.event is None and down.t[-1] == 1.0
    up = solve_ivp(rhs, 1.0, 0.0, rtol=1e-10, atol=1e-10, events=[(0.5, 1)])
    assert up.event == 0
    assert up.t[-1] == pytest.approx(0.5, abs=1e-15)
    assert up.y[-1] == pytest.approx(0.5, abs=1e-15)


def test_earliest_of_two_events_ends_the_run():
    # y' = -1 from 1 reaches 0.75 before 0.25, whatever the list order
    def rhs(y):
        return -1.0

    sol = solve_ivp(rhs, 2.0, 1.0, rtol=1e-10, atol=1e-10, events=[(0.25, -1), (0.75, -1)])
    assert sol.event == 1 and sol.t[-1] == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("y0, event", [(0.5, 0), (0.7, 0), (-0.5, 1), (-0.7, 1)])
def test_initial_value_on_or_past_a_level_ends_at_zero(y0, event):
    # no right-hand-side call and no step: the rhs would raise
    def rhs(y):
        raise AssertionError("rhs called")

    sol = solve_ivp(rhs, 1.0, y0, rtol=1e-10, atol=1e-10, events=[(0.5, 1), (-0.5, -1)])
    assert sol.event == event and sol.nfev == 0
    assert sol.t.tolist() == [0.0] and sol.y.tolist() == [y0]


@pytest.mark.parametrize("y0", [np.nan, np.inf, -np.inf])
def test_nonfinite_initial_value_fails_before_a_step(y0):
    # a NaN y0 gave a NaN first step, which the reject loop shrank forever
    def rhs(y):
        raise AssertionError("rhs called")

    with pytest.raises(DomainError, match="finite initial value"):
        solve_ivp(rhs, 1.0, y0, rtol=1e-10, atol=1e-10, events=[(2.0, 1)])


@pytest.mark.parametrize("slope", [np.nan, np.inf])
def test_nonfinite_initial_slope_fails_before_a_step(slope):
    calls = []

    def rhs(y):
        calls.append(y)
        return slope

    with pytest.raises(DomainError, match="right-hand side is not finite"):
        solve_ivp(rhs, 1.0, 0.5, rtol=1e-10, atol=1e-10)
    assert calls == [0.5]


def test_nan_product_radius_fails_typed_within_a_deadline():
    # this call used to run until killed
    def expire(signum, frame):
        raise TimeoutError("the run did not end within 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        with pytest.raises(PinchflowError):
            flow_ode_numeric(
                ProductSn1S1(lam=1.0, r1sq_exact=float("nan")), P10, FlowConfig(epsilon=0.0)
            )
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_product_above_stationary_torus_fattens():
    # r1^2 grows away from (n-1)/(nc): the upward fatten event ends the run, not collapse
    state = ProductSn1S1.from_r1sq(0.95, P10)
    rhs, events, y0 = _levels(state, P10)
    sol = solve_ivp(rhs, 10.0, y0, rtol=1e-10, atol=1e-10, events=events)
    assert sol.event == 1
    trace = flow_ode_numeric(state, P10, FlowConfig(epsilon=0.0, t_max=10.0))
    assert trace.terminal.kind is TerminalKind.BLOWUP
    assert trace.terminal.time == trace.times[-1]


def test_finite_time_blowup_underflows():
    # y' = y^2 from y(0) = 1 blows up at t = 1; the step shrinks below 10 ulp(t)
    with pytest.raises(StepUnderflow):
        solve_ivp(lambda y: y * y, 2.0, 1.0, rtol=1e-10, atol=1e-10)


def test_horizon_run_ends_exactly_at_t_max():
    rhs, events, y0 = _levels(STATES["product"], P10)
    sol = solve_ivp(rhs, 0.003, y0, rtol=1e-10, atol=1e-10, events=events)
    assert sol.event is None
    assert sol.t[-1] == 0.003
    assert np.all(np.diff(sol.t) > 0.0)


@pytest.mark.parametrize("name", sorted(STATES))
def test_nfev_counts_six_calls_per_step(name):
    rhs, events, y0 = _levels(STATES[name], P10)
    sol = solve_ivp(rhs, 10.0, y0, rtol=1e-12, atol=1e-12, events=events)
    assert sol.nfev >= 6 * (len(sol.t) - 1)


@pytest.mark.parametrize("name", sorted(STATES))
def test_max_step_is_the_first_step(name):
    rhs, events, y0 = _levels(STATES[name], P10)
    step = 1.0 / 5000.0
    capped = solve_ivp(rhs, 10.0, y0, rtol=1e-12, atol=1e-12, events=events, max_step=step)
    assert capped.t[1] == step
    assert (capped.nfev - 1) % 6 == 0  # the first rhs call, then six per step tried
    free = solve_ivp(rhs, 10.0, y0, rtol=1e-12, atol=1e-12, events=events)
    assert (free.nfev - 1) % 6 == 1  # plus the starting-step heuristic's probe


def _capture_solutions(monkeypatch):
    # an empty integration cache: the flows below integrate whichever test ran before
    _integrate.cache_clear()
    calls = []

    def capturing(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        calls.append(sol)
        return sol

    monkeypatch.setattr(flow, "solve_ivp", capturing)
    return calls


@pytest.mark.parametrize("n, c", LATTICE)
def test_terminal_times_keep_the_closed_form_tails(n, c, monkeypatch):
    # the tail is evaluated at the event level, not at the located y; the
    # integrator runs at c = 1, so the terminal time is (t_end + tail)/c
    params = PinchingParams(n=n, c=c)
    calls = _capture_solutions(monkeypatch)
    config = FlowConfig(epsilon=0.0, t_max=10.0 / c)
    sphere = flow_ode_numeric(GeodesicSphere(rho=0.4 * np.pi / np.sqrt(c)), params, config)
    assert sphere.terminal.kind is TerminalKind.ROUND_POINT
    assert sphere.terminal.time == float((calls[-1].t[-1] + ROUND_POINT_RHO ** 2 / (2.0 * n)) / c)
    r1sq0 = 0.8 * (n - 1.0) / (n * c)
    product = flow_ode_numeric(ProductSn1S1.from_r1sq(r1sq0, params), params, config)
    tail = -np.log(1.0 - n * COLLAPSE_R1SQ / (n - 1.0)) / (2.0 * n)
    assert product.terminal.kind is TerminalKind.GREAT_CIRCLE_COLLAPSE
    assert product.terminal.time == float((calls[-1].t[-1] + tail) / c)


@pytest.mark.parametrize("n, c", LATTICE)
@pytest.mark.parametrize("frac", [0.1, 0.5, 0.8, 0.99])
def test_product_collapse_time_is_the_exact_terminal(n, c, frac):
    params = PinchingParams(n=n, c=c)
    r1sq0 = frac * (n - 1.0) / (n * c)
    exact = flow_product_exact(ProductSn1S1.from_r1sq(r1sq0, params), params, FlowConfig())
    assert exact.terminal.kind is TerminalKind.GREAT_CIRCLE_COLLAPSE
    assert product_collapse_time(r1sq0, params) == exact.terminal.time


def test_flow_calls_the_module_level_solve_ivp(monkeypatch):
    # flow_ode_numeric integrates through flow.solve_ivp, so it can be wrapped from outside
    calls = _capture_solutions(monkeypatch)
    trace = flow_ode_numeric(STATES["sphere"], P10, FlowConfig(epsilon=0.0))
    assert len(calls) == 1
    sol = calls[0]
    assert len(trace.times) == len(sol.t) and sol.nfev > 0 and sol.event == 0


def test_round_point_steps_are_rarely_rejected(monkeypatch):
    # the sphere integrates z = (sqrt(c) rho)^2, whose right-hand side is
    # analytic through the round point; in sqrt(c) rho, -n cot behaves like
    # -n/y and this run accepted 111 of 164 attempted steps
    calls = _capture_solutions(monkeypatch)
    flow_ode_numeric(GeodesicSphere(rho=0.3 * np.pi), P10, FlowConfig(epsilon=0.0, tol=1e-10))
    sol = calls[-1]
    attempted = (sol.nfev - 2) / 6  # the first call and the starting-step probe, six per try
    assert sol.event == 0
    assert len(sol.t) - 1 >= 0.9 * attempted


@pytest.mark.parametrize("c", [1.0, 4.0])
@pytest.mark.parametrize("unit_rho", [-1.0, 0.0, np.pi, 4.0, 7.0])
def test_sphere_radius_out_of_range_fails_typed(unit_rho, c, monkeypatch):
    # epsilon = 0 reads no initial curvature; squaring w = sqrt(c) rho (or
    # pi - sqrt(c) rho) would fold each of these radii onto one in (0, pi)
    calls = _capture_solutions(monkeypatch)
    state = GeodesicSphere(rho=unit_rho / np.sqrt(c))
    with pytest.raises(GeometryError, match="geodesic sphere radius"):
        flow_ode_numeric(state, PinchingParams(n=3, c=c), FlowConfig(epsilon=0.0))
    assert calls == []


@pytest.mark.parametrize("name", sorted(STATES))
def test_flows_at_c_4k_share_one_read_only_integration(name, monkeypatch):
    # a state given in c = 1 numbers over sqrt(c) or c is one c = 1 problem at
    # every c = 4^k, integrated once; the cache hands out read-only arrays
    calls = _capture_solutions(monkeypatch)
    traces = []
    for c in (1.0, 4.0, 0.25, 1.0):
        params = PinchingParams(n=10, c=c)
        if name == "sphere":
            state = GeodesicSphere(rho=0.4 * np.pi / np.sqrt(c))
        else:
            state = ProductSn1S1.from_r1sq(0.72 / c, params)
        traces.append(flow_ode_numeric(state, params, FlowConfig(epsilon=0.0, t_max=10.0 / c)))
    assert len(calls) == 1
    sol = calls[0]
    for arr in (sol.t, sol.y):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert np.array_equal(traces[0].times, traces[3].times)
    assert np.array_equal(traces[1].times * 4.0, traces[0].times)
    assert traces[3].terminal == traces[0].terminal
