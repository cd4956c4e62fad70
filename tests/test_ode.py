"""Scalar Dormand–Prince integrator: agreement with scipy's RK45, events, failure modes."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp  # reference only

from pinchflow import (
    FlowConfig,
    GeodesicSphere,
    PinchingParams,
    ProductSn1S1,
    StepUnderflow,
    TerminalKind,
    flow_ode_numeric,
)
from pinchflow import flow
from pinchflow.flow import _ode_rhs_and_events
from pinchflow.ode import solve_ivp

P10 = PinchingParams(n=10, c=1.0)
STATES = {
    "sphere": GeodesicSphere(rho=0.4 * np.pi),
    "product": ProductSn1S1.from_r1sq(0.8 * 0.9, P10),
}


def _scipy_rk45(rhs, events, y0, t_max, rtol, atol, step):
    def terminal(g, direction):
        def event(t, y):
            return g(t, y[0])

        event.terminal, event.direction = True, direction
        return event

    return scipy_solve_ivp(
        lambda t, y: [rhs(t, y[0])], (0.0, t_max), [y0], method="RK45", rtol=rtol, atol=atol,
        events=[terminal(*e) for e in events], first_step=step, max_step=step or np.inf,
    )


@pytest.mark.parametrize("step", [None, 1.0 / 5000.0])
@pytest.mark.parametrize("name", sorted(STATES))
def test_matches_scipy_rk45_at_tight_tolerance(name, step):
    rhs, events, y0 = _ode_rhs_and_events(STATES[name], P10)
    rtol, atol = 1e-12, 1e-12 * max(abs(y0), 1.0)
    ours = solve_ivp(
        rhs, (0.0, 10.0), y0, rtol=rtol, atol=atol, events=events,
        first_step=step, max_step=step or math.inf,
    )
    ref = _scipy_rk45(rhs, events, y0, 10.0, rtol, atol, step)
    assert ours.status == ref.status == 1
    assert ours.y.shape == (1, len(ours.t))
    assert abs(len(ours.t) - len(ref.t)) <= 5
    assert [len(te) for te in ours.t_events] == [len(te) for te in ref.t_events]
    t_end, y_end = ours.t[-1], ours.y[0, -1]
    assert t_end == pytest.approx(ref.t[-1], rel=1e-13, abs=0.0)
    # the run ends on the event's root, located in t to well inside 4 eps
    fired = next(i for i, te in enumerate(ours.t_events) if len(te))
    residual = abs(events[fired][0](t_end, y_end))
    assert residual <= abs(rhs(t_end, y_end)) * 8.0 * np.finfo(float).eps * (1.0 + t_end)


def test_event_fires_only_in_its_direction():
    # y' = 1 crosses y = 0.5 upward at t = 0.5
    def rhs(t, y):
        return 1.0

    def half(t, y):
        return y - 0.5

    down = solve_ivp(rhs, (0.0, 1.0), 0.0, rtol=1e-10, atol=1e-10, events=[(half, -1)])
    assert down.status == 0 and down.t[-1] == 1.0 and len(down.t_events[0]) == 0
    up = solve_ivp(rhs, (0.0, 1.0), 0.0, rtol=1e-10, atol=1e-10, events=[(half, 1)])
    assert up.status == 1
    assert up.t_events[0][0] == pytest.approx(0.5, abs=1e-15)
    assert up.t[-1] == up.t_events[0][0] and up.y[0, -1] == pytest.approx(0.5, abs=1e-15)


def test_product_above_stationary_torus_fattens():
    # r1^2 grows away from (n-1)/(nc): the upward fatten event ends the run, not collapse
    state = ProductSn1S1.from_r1sq(0.95, P10)
    rhs, events, y0 = _ode_rhs_and_events(state, P10)
    sol = solve_ivp(rhs, (0.0, 10.0), y0, rtol=1e-10, atol=1e-10, events=events)
    assert sol.status == 1
    assert len(sol.t_events[0]) == 0 and len(sol.t_events[1]) == 1
    trace = flow_ode_numeric(state, P10, FlowConfig(epsilon=0.0, t_max=10.0))
    assert trace.terminal.kind is TerminalKind.BLOWUP


def test_finite_time_blowup_underflows():
    # y' = y^2 from y(0) = 1 blows up at t = 1; the step shrinks below 10 ulp(t)
    with pytest.raises(StepUnderflow):
        solve_ivp(lambda t, y: y * y, (0.0, 2.0), 1.0, rtol=1e-10, atol=1e-10)


def test_horizon_run_ends_exactly_at_t_max():
    rhs, events, y0 = _ode_rhs_and_events(STATES["product"], P10)
    sol = solve_ivp(rhs, (0.0, 0.003), y0, rtol=1e-10, atol=1e-10, events=events)
    assert sol.status == 0
    assert sol.t[-1] == 0.003
    assert all(len(te) == 0 for te in sol.t_events)
    assert np.all(np.diff(sol.t) > 0.0)


@pytest.mark.parametrize("name", sorted(STATES))
def test_nfev_counts_six_calls_per_step(name):
    rhs, events, y0 = _ode_rhs_and_events(STATES[name], P10)
    sol = solve_ivp(rhs, (0.0, 10.0), y0, rtol=1e-12, atol=1e-12, events=events)
    assert sol.nfev >= 6 * (len(sol.t) - 1)


def test_flow_calls_the_module_level_solve_ivp(monkeypatch):
    # flow_ode_numeric integrates through flow.solve_ivp, so it can be wrapped from outside
    calls = []

    def counting(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        calls.append(sol)
        return sol

    monkeypatch.setattr(flow, "solve_ivp", counting)
    trace = flow_ode_numeric(STATES["sphere"], P10, FlowConfig(epsilon=0.0))
    assert len(calls) == 1
    sol = calls[0]
    assert len(trace.times) == len(sol.t) and sol.nfev > 0 and sol.message
