"""Scalar Dormand–Prince integrator: agreement with scipy's RK45 and with the event-list
integrator it replaced, the bounds of y, failure modes."""

import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    _ode_rhs_and_bounds,
    _ode_start,
    product_collapse_time,
)
from pinchflow.ode import (
    E1, E3, E4, E5, E6, E7, MAX_FACTOR, MIN_FACTOR, P, SAFETY, OdeSolution, _initial_step,
    _locate, solve_ivp,
)

P10 = PinchingParams(n=10, c=1.0)
STATES = {
    "sphere": GeodesicSphere(rho=0.4 * np.pi),
    "product": ProductSn1S1.from_r1sq(0.8 * 0.9, P10),
}
LATTICE = [(3, 1.0), (10, 0.25), (40, 7.3)]


def _levels(state, params):
    """rhs, bounds {"floor": level, ...} and y0 of a reduction, as flow_ode_numeric passes them."""
    kind, y0, _ = _ode_start(state, params)
    rhs, bounds = _ode_rhs_and_bounds(kind, params.n)
    return rhs, {name: level for name, (level, _, _) in bounds.items()}, y0


def _scipy_rk45(rhs, bounds, y0, t_max, rtol, atol, step):
    """scipy's RK45 with a terminal event at each finite bound; returns it and the bound names."""
    def terminal(level, direction):
        def event(t, y):
            return y[0] - level

        event.terminal, event.direction = True, direction
        return event

    sides = {"floor": -1, "ceiling": 1}
    names = [name for name in sides if math.isfinite(bounds.get(name, math.inf))]
    sol = scipy_solve_ivp(
        lambda t, y: [rhs(y[0])], (0.0, t_max), [y0], method="RK45", rtol=rtol, atol=atol,
        events=[terminal(bounds[name], sides[name]) for name in names], first_step=step,
        max_step=step or np.inf,
    )
    return sol, names


def _past(y, level, direction):
    """Whether y lies on or past an event level, seen in the event's direction."""
    return y >= level if direction > 0 else y <= level


def event_list_solve_ivp(rhs, t_bound, y0, *, rtol, atol, events=(), max_step=None):
    """Reference: the integrator as it was with a list of (level, direction) terminal events.

    Event i fires when y reaches its level moving up (direction > 0) or down
    (< 0); the run ends at the earliest root of the events that fired, and a
    y0 already on or past a level ends it at t = 0.  ``event`` is an index.
    """
    t, y = 0.0, float(y0)
    if not math.isfinite(y):
        raise DomainError(f"the integrator needs a finite initial value, got {y!r}")
    ts, ys = [t], [y]
    event = next((i for i, (level, sense) in enumerate(events) if _past(y, level, sense)), None)
    if event is not None:
        return OdeSolution(np.array(ts), np.array(ys), 0, event)
    f = rhs(y)
    nfev = 1
    if not math.isfinite(f):
        raise DomainError(f"the right-hand side is not finite at y0 = {y!r}: {f!r}")
    if max_step is None:
        max_step = math.inf
        h_abs = _initial_step(rhs, y, f, t_bound, rtol, atol)
        nfev += 1
    else:
        h_abs = max_step
    while t < t_bound and event is None:
        min_step = 10.0 * math.ulp(t)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepUnderflow(f"integrator step fell below 10 ulp at t = {t!r}")
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            k1 = f
            k2 = rhs(y + h * (k1 / 5))
            k3 = rhs(y + h * (3 / 40 * k1 + 9 / 40 * k2))
            k4 = rhs(y + h * (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3))
            k5 = rhs(y + h * (
                19372 / 6561 * k1 - 25360 / 2187 * k2 + 64448 / 6561 * k3 - 212 / 729 * k4))
            k6 = rhs(y + h * (
                9017 / 3168 * k1 - 355 / 33 * k2 + 46732 / 5247 * k3 + 49 / 176 * k4
                - 5103 / 18656 * k5))
            y_new = y + h * (
                35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4 - 2187 / 6784 * k5 + 11 / 84 * k6)
            k7 = rhs(y_new)
            nfev += 6
            err = h * (E1 * k1 + E3 * k3 + E4 * k4 + E5 * k5 + E6 * k6 + E7 * k7)
            error_norm = abs(err) / (atol + max(abs(y), abs(y_new)) * rtol)
            if error_norm < 1.0:
                factor = min(MAX_FACTOR, SAFETY * error_norm ** -0.2) if error_norm else MAX_FACTOR
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** -0.2)
            rejected = True
        t_old, y_old, ks = t, y, (k1, k3, k4, k5, k6, k7)
        t, y, f = t_new, y_new, k7
        fired = [i for i, (level, sense) in enumerate(events) if _past(y, level, sense)]
        if fired:
            q = [sum(k * row[j] for k, row in zip(ks, P)) for j in range(4)]

            def dense(s):
                x = (s - t_old) / h
                return y_old + h * x * (q[0] + x * (q[1] + x * (q[2] + x * q[3])))

            t, event = min((_locate(events[i][0], dense, t_old, t), i) for i in fired)
            y = dense(t)
        ts.append(t)
        ys.append(y)
    return OdeSolution(np.array(ts), np.array(ys), nfev, event)


@pytest.mark.parametrize("step", [None, 1.0 / 5000.0])
@pytest.mark.parametrize("name", sorted(STATES))
def test_matches_scipy_rk45_at_tight_tolerance(name, step):
    rhs, bounds, y0 = _levels(STATES[name], P10)
    rtol, atol = 1e-12, 1e-12 * max(abs(y0), 1.0)
    ours = solve_ivp(rhs, 10.0, y0, rtol=rtol, atol=atol, max_step=step, **bounds)
    ref, names = _scipy_rk45(rhs, bounds, y0, 10.0, rtol, atol, step)
    assert ref.status == 1
    assert ours.event == next(name for name, te in zip(names, ref.t_events) if len(te))
    assert ours.y.shape == ours.t.shape == (len(ours.t),)
    assert abs(len(ours.t) - len(ref.t)) <= 5
    t_end, y_end = ours.t[-1], ours.y[-1]
    assert t_end == pytest.approx(ref.t[-1], rel=1e-13, abs=0.0)
    # the run ends on the bound's root, located in t to well inside 4 eps
    residual = abs(y_end - bounds[ours.event])
    assert residual <= abs(rhs(y_end)) * 8.0 * np.finfo(float).eps * (1.0 + t_end)


def _linear(rate):
    def rhs(y):
        return rate * y

    return rhs


RHS = {
    **{(kind, n): _ode_rhs_and_bounds(kind, n)[0] for kind in ("sphere", "product")
       for n in (3, 10, 40)},
    ("growth", 1): _linear(1.0),
    ("decay", 1): _linear(-1.0),
}


def _outcome(solve, *args, **kwargs):
    """The solution's (t, y, nfev, event), or the type of the error it raised."""
    try:
        sol = solve(*args, **kwargs)
    except (DomainError, StepUnderflow) as exc:
        return type(exc)
    return sol.t, sol.y, sol.nfev, sol.event


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    key=st.sampled_from(sorted(RHS)),
    y0=st.floats(-1.0, 2.4),
    below=st.one_of(st.just(math.inf), st.floats(-0.05, 0.6)),
    above=st.one_of(st.just(math.inf), st.floats(-0.05, 0.6)),
    t_bound=st.floats(0.01, 2.0),
    rtol_exp=st.floats(-12.0, -4.0),
    atol_exp=st.floats(-14.0, -3.0),
    step_exp=st.one_of(st.none(), st.floats(-3.0, 0.0)),
)
def test_bounds_are_the_bits_of_the_event_list(
    key, y0, below, above, t_bound, rtol_exp, atol_exp, step_exp
):
    # the interval (floor, ceiling) is the event list [(floor, -1), (ceiling, 1)]:
    # the same steps, the same located root and the same bound, bit for bit; a
    # negative distance puts y0 outside, and one bound is dropped where they cross
    floor, ceiling = y0 - below, y0 + above
    if not floor < ceiling:
        ceiling = math.inf
    max_step = None if step_exp is None else 10.0 ** step_exp
    rhs, rtol, atol = RHS[key], 10.0 ** rtol_exp, 10.0 ** atol_exp
    ours = _outcome(solve_ivp, rhs, t_bound, y0, rtol=rtol, atol=atol, floor=floor,
                    ceiling=ceiling, max_step=max_step)
    ref = _outcome(event_list_solve_ivp, rhs, t_bound, y0, rtol=rtol, atol=atol,
                   events=[(floor, -1), (ceiling, 1)], max_step=max_step)
    if isinstance(ref, type):
        assert ours is ref
        return
    t, y, nfev, event = ours
    assert np.array_equal(t, ref[0]) and np.array_equal(y, ref[1])
    assert nfev == ref[2]
    assert event == (None if ref[3] is None else ("floor", "ceiling")[ref[3]])


def test_event_fires_only_in_its_direction():
    # y' = 1 from 0 rises to the ceiling 0.5 at t = 0.5 and never falls to a floor
    def rhs(y):
        return 1.0

    down = solve_ivp(rhs, 1.0, 0.0, rtol=1e-10, atol=1e-10, floor=-0.5)
    assert down.event is None and down.t[-1] == 1.0
    up = solve_ivp(rhs, 1.0, 0.0, rtol=1e-10, atol=1e-10, floor=-0.5, ceiling=0.5)
    assert up.event == "ceiling"
    assert up.t[-1] == pytest.approx(0.5, abs=1e-15)
    assert up.y[-1] == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("slope, event", [(-1.0, "floor"), (1.0, "ceiling")])
def test_step_ending_on_a_bound_ends_the_run(slope, event):
    # steps of 0.25 at y' = +-1 from 0: the second step ends on a bound set
    # at its y, and the run ends at the bound's root on that step
    def rhs(y):
        return slope

    kwargs = dict(rtol=1e-10, atol=1e-10, max_step=0.25)
    level = solve_ivp(rhs, 2.0, 0.0, **kwargs).y[2]
    bounds = {"floor": -1.0, "ceiling": 1.0, event: level}
    sol = solve_ivp(rhs, 2.0, 0.0, **bounds, **kwargs)
    ref = event_list_solve_ivp(
        rhs, 2.0, 0.0, events=[(bounds["floor"], -1), (bounds["ceiling"], 1)], **kwargs
    )
    assert sol.event == event and ref.event == ("floor", "ceiling").index(event)
    assert np.array_equal(sol.t, ref.t) and np.array_equal(sol.y, ref.y)
    assert sol.t[:2].tolist() == [0.0, 0.25] and 0.25 < sol.t[2] <= 0.5
    assert sol.nfev == ref.nfev == 13  # the first call and two steps


@pytest.mark.parametrize("y0, side", [(0.5, 0), (0.7, 0), (-0.5, 1), (-0.7, 1)])
def test_initial_value_on_or_past_a_level_ends_at_zero(y0, side):
    # no right-hand-side call and no step: the rhs would raise
    def rhs(y):
        raise AssertionError("rhs called")

    sol = solve_ivp(rhs, 1.0, y0, rtol=1e-10, atol=1e-10, floor=-0.5, ceiling=0.5)
    assert sol.event == ("ceiling", "floor")[side] and sol.nfev == 0
    assert sol.t.tolist() == [0.0] and sol.y.tolist() == [y0]


@pytest.mark.parametrize("floor, ceiling", [(0.5, 0.5), (0.5, -0.5), (np.nan, 1.0),
                                            (-1.0, np.nan), (np.inf, np.inf)])
def test_bounds_that_leave_no_interval_fail_before_a_step(floor, ceiling):
    def rhs(y):
        raise AssertionError("rhs called")

    with pytest.raises(DomainError, match="floor < ceiling"):
        solve_ivp(rhs, 1.0, 0.0, rtol=1e-10, atol=1e-10, floor=floor, ceiling=ceiling)


@pytest.mark.parametrize("y0", [np.nan, np.inf, -np.inf])
def test_nonfinite_initial_value_fails_before_a_step(y0):
    # a NaN y0 gave a NaN first step, which the reject loop shrank forever
    def rhs(y):
        raise AssertionError("rhs called")

    with pytest.raises(DomainError, match="finite initial value"):
        solve_ivp(rhs, 1.0, y0, rtol=1e-10, atol=1e-10, ceiling=2.0)


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
    # r1^2 grows away from (n-1)/(nc): the blowup ceiling ends the run, not collapse
    state = ProductSn1S1.from_r1sq(0.95, P10)
    rhs, bounds, y0 = _levels(state, P10)
    sol = solve_ivp(rhs, 10.0, y0, rtol=1e-10, atol=1e-10, **bounds)
    assert sol.event == "ceiling"
    trace = flow_ode_numeric(state, P10, FlowConfig(epsilon=0.0, t_max=10.0))
    assert trace.terminal.kind is TerminalKind.BLOWUP
    assert trace.terminal.time == trace.times[-1]


def test_finite_time_blowup_underflows():
    # y' = y^2 from y(0) = 1 blows up at t = 1; the step shrinks below 10 ulp(t)
    with pytest.raises(StepUnderflow):
        solve_ivp(lambda y: y * y, 2.0, 1.0, rtol=1e-10, atol=1e-10)


def test_horizon_run_ends_exactly_at_t_max():
    rhs, bounds, y0 = _levels(STATES["product"], P10)
    sol = solve_ivp(rhs, 0.003, y0, rtol=1e-10, atol=1e-10, **bounds)
    assert sol.event is None
    assert sol.t[-1] == 0.003
    assert np.all(np.diff(sol.t) > 0.0)


@pytest.mark.parametrize("name", sorted(STATES))
def test_nfev_counts_six_calls_per_step(name):
    rhs, bounds, y0 = _levels(STATES[name], P10)
    sol = solve_ivp(rhs, 10.0, y0, rtol=1e-12, atol=1e-12, **bounds)
    assert sol.nfev >= 6 * (len(sol.t) - 1)


@pytest.mark.parametrize("name", sorted(STATES))
def test_max_step_is_the_first_step(name):
    rhs, bounds, y0 = _levels(STATES[name], P10)
    step = 1.0 / 5000.0
    capped = solve_ivp(rhs, 10.0, y0, rtol=1e-12, atol=1e-12, max_step=step, **bounds)
    assert capped.t[1] == step
    assert (capped.nfev - 1) % 6 == 0  # the first rhs call, then six per step tried
    free = solve_ivp(rhs, 10.0, y0, rtol=1e-12, atol=1e-12, **bounds)
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
    assert len(trace.times) == len(sol.t) and sol.nfev > 0 and sol.event == "floor"


def test_round_point_steps_are_rarely_rejected(monkeypatch):
    # the sphere integrates z = (sqrt(c) rho)^2, whose right-hand side is
    # analytic through the round point; in sqrt(c) rho, -n cot behaves like
    # -n/y and this run accepted 111 of 164 attempted steps
    calls = _capture_solutions(monkeypatch)
    flow_ode_numeric(GeodesicSphere(rho=0.3 * np.pi), P10, FlowConfig(epsilon=0.0, tol=1e-10))
    sol = calls[-1]
    attempted = (sol.nfev - 2) / 6  # the first call and the starting-step probe, six per try
    assert sol.event == "floor"
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
