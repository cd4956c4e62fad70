"""Mean curvature flow on the supported families, with pinching and decay monitors.

Every route runs at c = 1: the flow in S^{n+1}(1/sqrt(c)) is the flow at
c = 1 under t -> ct, rho -> sqrt(c) rho, r1^2 -> c r1^2 and x -> x/c (Huisken,
Math. Z. 195, 1987).  A state enters its route in those units and its trace
is mapped back where it is built, so the constants below are c = 1 numbers.
The homogeneous families reduce to scalar ODEs in y and the time ct:

    geodesic sphere:  y = z = w^2,  dz/dt = -2n w cot(w)
    product torus:    y = c r1^2,   dy/dt = 2 - 2n + 2 n y

with w = sqrt(c) rho, or pi - sqrt(c) rho beyond the equator, so w shrinks
to the round point w = 0 on either side.  In w the round point is a
square-root singularity, dw/dt ~ -n/w, which an adaptive step resolves only
by rejecting steps; w cot w = 1 - z/3 - z^2/45 - ... is analytic in z, so
dz/dt -> -2n there.  The sphere collapses at T = -log|cos(sqrt(c) rho)|/(nc),
and the product ODE has the exact solution y = (n-1)/n (1 - d e^{2nt}) and
collapse time T = -log(d)/(2n) for 0 < d = 1 - n y(0)/(n-1) < 1 only (else
product_collapse_time raises DomainError); the numeric route integrates the
reductions with the package's scalar Dormand–Prince 5(4) integrator
(``pinchflow.ode``), caching the latest c = 1 integrations (_integrate).  A
run ends where y falls to its floor (a round point or a great circle) or rises
to its ceiling (a blowup), each terminal a closed-form tail after the bound.

Torus-type profiles, the same (phi, xi) at every c, evolve by the method of
lines: normal velocity H at every sample and exponential-time-differencing
RK4 steps (ETDRK4; Cox & Matthews 2002).  ETDRK4 integrates the stiff part of
the velocity, the periodic second-difference stencil, exactly in Fourier
space, so the step is bounded only by the reaction rate 0.15/(n + |h|^2), not
by the grid spacing.  A step takes one rfft of the state stacked with its
velocity, known from the geometry of the accepted state; its three inner
stages evaluate only the velocity H nu (``axisym._normal_velocity``, the
core of ``profile_geometry`` without |h|^2, |h0|^2 or a ProfileGeometry),
and the stencil's cosines and the winding ramp are computed once per grid.
After each step ``axisym.resample_profile`` measures the chords of the new
mesh and redistributes it to uniform arc length by a periodic cubic spline
only when their max/min ratio exceeds axisym.MAX_CHORD_RATIO = 1.02.  The mesh drifts
slowly, so this is rare: once in the 34 steps of a mode-2 ripple of 0.5% on
the minimal torus at N = 96 (n = 10, t = 0.25), 11 times in 35 steps for a 5%
ripple at N = 256, and 14 times in 40 steps for a 1% ripple collapsing to the
great circle at N = 128.  Between redistributions the parameter is kept and
the spacing follows the chordal length of the curve.  A run whose step count,
estimated from its first step, passes MAX_PROFILE_STEPS raises DomainError
before that step (the minimal torus to t = 1e6 would take ~1.3e8 steps).

Monitors recorded at every accepted step, in the ambient units of c: the
pinching excess U = |h|^2 - gamma + eps*omega (pointwise max), the decay ratio
f_sigma = |h0|^2 / ring(gamma)^{1-sigma} with ring(gamma) = gamma - H^2/n, its
rescaling g_sigma = f_sigma e^{2 sigma c t}, and the running fitted constant
C0_fit of the decay bound.

A FlowTrace is columnar: one MonitorRecord of arrays, one entry per recorded
step.  A homogeneous trace keeps its trajectory as one array-valued state
(rho, or lam with the exact r1^2) and its curvature data, both evaluated once.
An axisymmetric trace keeps profile snapshots keyed by record index.  Its
step size depends on the current |h|^2, which the step reads from the c = 1
curvature; the monitors are not evaluated step by step but on the initial
state alone, so a state out of range at c fails before the first step, and
then once per block of MONITOR_BLOCK samples (points x steps).  Each column
is computed on its own, so the record has the same bits; an error in a
block, such as a range error at c, surfaces at the end of that block (or
before a flow error of a later step) with the type and message it had.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from . import axisym
from .errors import (
    DegenerateGamma,
    DomainError,
    GeometryError,
    PinchflowError,
    StepUnderflow,
    double_range,
)
from .geometry import (
    Axisymmetric,
    CurvatureData,
    GeodesicSphere,
    ProductSn1S1,
    check_sphere_radius,
    curvature_of,
)
from .ode import OdeSolution, solve_ivp
from .thresholds import PinchingParams, family

__all__ = [
    "TerminalKind",
    "TerminalEvent",
    "FlowConfig",
    "MonitorRecord",
    "FlowTrace",
    "default_epsilon",
    "flow_product_exact",
    "product_collapse_time",
    "flow_ode_numeric",
    "flow_axisymmetric",
    "monitors_update",
]

ROUND_POINT_RHO = 1e-6  # the sphere's round-point level of w; the event is z = w^2 at its square
COLLAPSE_R1SQ = 1e-8  # the ODE route's great-circle level of y = c r1^2
COLLAPSE_R1SQ_PDE = 1e-4  # min sin(phi)^2 of a profile collapse; |h|^2 blowup triggers first
GEODESIC_H2 = 1e-12  # |h|^2 of a totally geodesic end, sustained over the time 1/n
BLOWUP_H2 = 1e6  # |h|^2 of a blowup
MESH_SAMPLES_TARGET = 200
DT_MIN = 1e-12  # floor of the profile route's time step
MAX_PROFILE_STEPS = 10 ** 6  # the profile route's step budget, estimated from the first step
MONITOR_BLOCK = 8192  # curvature samples (points x steps) per monitors_update of the profile route
EXACT_SAMPLES = 400  # times sampled by the closed-form product trajectory
TOL_MIN = 100 * np.finfo(float).eps  # the smallest tol, scipy RK45's floor on rtol


class TerminalKind(enum.Enum):
    ROUND_POINT = "RoundPoint"
    TOTALLY_GEODESIC = "TotallyGeodesic"
    GREAT_CIRCLE_COLLAPSE = "GreatCircleCollapse"
    HORIZON_REACHED = "HorizonReached"
    BLOWUP = "Blowup"


@dataclass(frozen=True)
class TerminalEvent:
    kind: TerminalKind
    time: float


@dataclass
class FlowConfig:
    """Run parameters; epsilon defaults from the initial state.

    t_max and dt_initial are ambient times (the routes step in ct), and tol
    is at least TOL_MIN.  Only the adaptive ODE route (flow_ode_numeric, the
    sphere and the product) reads tol; the closed-form product and the
    profile route validate it and step without it.  dt_initial bounds the
    adaptive integrator from above as well (initial and maximum step), which
    pins the accuracy of finite differences taken on the accepted steps.
    """

    epsilon: float | None = None
    sigma: float = 0.1
    dt_initial: float | None = None
    t_max: float | None = None
    tol: float = 1e-10

    def validate(self):
        if not 0.0 < self.sigma < 1.0:
            raise DomainError(f"sigma must lie in (0, 1), got {self.sigma!r}")
        if self.epsilon is not None and not 0.0 <= self.epsilon < np.inf:
            raise DomainError(f"epsilon must be finite and >= 0, got {self.epsilon!r}")
        for name in ("t_max", "tol", "dt_initial"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < np.inf:
                raise DomainError(f"{name} must be finite and > 0, got {value!r}")
        if self.tol < TOL_MIN:
            raise DomainError(f"tol must be at least 100 eps = {TOL_MIN!r}, got {self.tol!r}")

    def resolved(self, initial: Callable[[], CurvatureData], params: PinchingParams) -> FlowConfig:
        """Validated copy with epsilon and t_max filled in.

        ``initial()`` gives the curvature data of the initial state at params;
        it is called only when epsilon is unset, under the overflow guard.
        """
        self.validate()
        with double_range("the curvature", params.c):
            eps = self.epsilon if self.epsilon is not None else default_epsilon(initial(), params)
        t_max = self.t_max if self.t_max is not None else 1.0 / params.c
        return replace(self, epsilon=eps, t_max=t_max)


@dataclass
class MonitorRecord:
    """Monitor columns: 1-D arrays with one entry per recorded time."""

    t: np.ndarray
    H_max: np.ndarray
    h2_max: np.ndarray
    h0_2_max: np.ndarray
    gamma_min: np.ndarray
    U_max: np.ndarray
    f_sigma: np.ndarray
    g_sigma: np.ndarray
    C0_fit: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


@dataclass
class FlowTrace:
    """Monitor columns plus the trajectory ``state`` (homogeneous) or ``snapshots``."""

    family: str
    params: PinchingParams
    config: FlowConfig
    monitors: MonitorRecord
    state: GeodesicSphere | ProductSn1S1 | None = None
    curvature: CurvatureData | None = None
    snapshots: dict[int, Axisymmetric] = field(default_factory=dict)
    terminal: TerminalEvent | None = None

    @property
    def times(self) -> np.ndarray:
        return self.monitors.t


def default_epsilon(data: CurvatureData, params: PinchingParams) -> float:
    """Half the worst pinching slack of the initial curvature data, clipped at zero."""
    fam = family(params)
    x = np.atleast_1d(np.asarray(data.H, dtype=float) ** 2)
    g, _ = fam.gamma(x, order=0)
    (w,) = fam.omega(x, order=0)
    slack = (g - np.atleast_1d(np.asarray(data.h_norm2, dtype=float))) / w
    return max(0.0, 0.5 * float(slack.min()))


def monitors_update(
    params: PinchingParams,
    config: FlowConfig,
    t: float | np.ndarray,
    H: np.ndarray,
    h2: np.ndarray,
    h0_2: np.ndarray,
) -> MonitorRecord:
    """Monitor columns over the times t from pointwise curvature.

    t is a float or a 1-D array.  H, h2 = |h|^2 and h0_2 = |h0|^2 have shape
    (points, len(t)), one column per time, or (len(t),) for a homogeneous
    trajectory.  Every field is a 1-D array of len(t) entries; C0_fit is the
    running maximum over them.
    """
    n, c = params.n, params.c
    fam = family(params)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    H, h2, h0_2 = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (H, h2, h0_2))
    x = H ** 2
    g, _ = fam.gamma(x, order=0)  # values only: the monitors read no derivative
    (w,) = fam.omega(x, order=0)
    gamma_ring = g - x / n
    if np.any(gamma_ring <= 0.0):
        raise DegenerateGamma("gamma - H^2/n must stay positive")
    eps = config.epsilon or 0.0
    U = h2 - g + eps * w
    growth = np.exp(2.0 * config.sigma * c * t)
    f_sigma = (h0_2 / gamma_ring ** (1.0 - config.sigma)).max(axis=0)
    decay_ratio = (h0_2 * growth / (x + c) ** (1.0 - config.sigma)).max(axis=0)
    return MonitorRecord(
        t=t,
        H_max=np.abs(H).max(axis=0),
        h2_max=h2.max(axis=0),
        h0_2_max=h0_2.max(axis=0),
        gamma_min=g.min(axis=0),
        U_max=U.max(axis=0),
        f_sigma=f_sigma,
        g_sigma=f_sigma * growth,
        C0_fit=np.maximum.accumulate(decay_ratio),
    )


def _ambient_trace(
    kind: str, y, t, params: PinchingParams, config: FlowConfig, beyond: bool = False
) -> FlowTrace:
    """Trace at c of a trajectory y at the times ct of the flow at c = 1.

    y is c r1^2 (product) or z = w^2 (sphere), mapped back to rho = sqrt(z)/sqrt(c),
    or (pi - sqrt(z))/sqrt(c) beyond the equator.
    """
    c = params.c
    with double_range("the flow's curvature", c):
        if kind == "sphere":
            w = np.sqrt(y)
            state = GeodesicSphere(rho=(math.pi - w if beyond else w) / math.sqrt(c))
        else:
            state = ProductSn1S1.from_r1sq(y / c, params)
        data = curvature_of(state, params)
        monitors = monitors_update(params, config, t / c, data.H, data.h_norm2, data.h0_norm2)
    return FlowTrace(kind, params, config, monitors, state=state, curvature=data)


# ----------------------------------------------------------- exact product


def flow_product_exact(
    initial: ProductSn1S1,
    params: PinchingParams,
    config: FlowConfig | None = None,
) -> FlowTrace:
    """Closed-form trajectory of the product family down to the great circle, at c = 1."""
    if not isinstance(initial, ProductSn1S1):
        kind = type(initial).__name__
        raise GeometryError(f"exact product flow needs a product state, got {kind}")
    config = (config or FlowConfig()).resolved(lambda: curvature_of(initial, params), params)
    c = params.c
    _, y0, _ = _ode_start(initial, params)
    unit = PinchingParams(params.n)
    T = product_collapse_time(y0, unit)
    t_max = config.t_max * c
    # Samples crowd toward the collapse time where the state varies fastest.
    u = np.linspace(0.0, 1.0, EXACT_SAMPLES)
    ts = min(t_max, T) * (1.0 - (1.0 - u) ** 2)
    y = product_r1sq_exact(y0, unit, ts)
    # The trajectory ends before the first later sample at the great circle;
    # the initial state is kept even when it lies there already.
    collapsed = y[1:] <= COLLAPSE_R1SQ
    stop = 1 + int(np.argmax(collapsed)) if collapsed.any() else len(ts)
    trace = _ambient_trace("product", y[:stop], ts[:stop], params, config)
    if T <= t_max:
        trace.terminal = TerminalEvent(TerminalKind.GREAT_CIRCLE_COLLAPSE, float(T / c))
    else:
        trace.terminal = TerminalEvent(TerminalKind.HORIZON_REACHED, float(config.t_max))
    return trace


def product_collapse_time(r1sq, params: PinchingParams):
    """Time from r1^2 = r1sq to the great circle; DomainError outside 0 < r1sq < (n-1)/(nc)."""
    n, c = params.n, params.c
    d = 1.0 - n * (c * r1sq) / (n - 1.0)
    if not (r1sq > 0.0 and d > 0.0):  # NaN fails too
        raise DomainError(f"the product collapse needs 0 < c r1^2 < (n-1)/n, got {c * r1sq!r}")
    return -np.log(d) / (2.0 * n) / c


def product_r1sq_exact(r1sq0, params: PinchingParams, t) -> np.ndarray:
    """Exact r1(t)^2 from r1(0)^2 = r1sq0; DomainError where it leaves the double range."""
    n, c = params.n, params.c
    d = 1.0 - n * (c * r1sq0) / (n - 1.0)  # as product_collapse_time forms it
    with double_range("the product radius", c):
        return (n - 1.0) / (n * c) * (1.0 - d * np.exp(2.0 * n * c * np.asarray(t, dtype=float)))


# ---------------------------------------------------------------- ODE route


def _ode_start(state, params: PinchingParams) -> tuple[str, float, bool]:
    """(kind, y0, beyond) of a homogeneous state: its reduction at c = 1 and the initial y.

    y is z = w^2 (sphere) or c r1^2 (product).  w is sqrt(c) rho, or pi -
    sqrt(c) rho when the sphere lies beyond the equator (beyond is True);
    both sides shrink to a round point at w = 0.  A radius outside
    (0, pi/sqrt(c)) is a GeometryError, since z = w^2 would fold it onto one
    inside.
    """
    if isinstance(state, GeodesicSphere):
        y = math.sqrt(params.c) * float(check_sphere_radius(state, params))
        beyond = y > math.pi / 2.0
        w = math.pi - y if beyond else y
        return "sphere", w * w, beyond
    if isinstance(state, ProductSn1S1):
        with double_range("the product radius", params.c):
            return "product", params.c * state.r1sq(params), False
    raise GeometryError(f"ODE flow supports homogeneous states only, got {state!r}")


def _ode_rhs_and_bounds(kind: str, n: int):
    """Right-hand side y' = rhs(y) of a reduction at c = 1, and the bounds of y that end it.

    ' is d/d(ct).  The bounds map "floor" and "ceiling" (none for the sphere)
    to (level, kind, tail): the run ends where y reaches level, and the flow
    ends in a ``kind`` terminal a time ``tail`` (at c = 1) later.
    """
    if kind == "sphere":

        def rhs(z):
            # dz/dt = -2n w cot w, analytic in z = w^2; below 0 (stage values
            # past the round point) its continuation -2n s coth s, s = sqrt(-z)
            if z > 0.0:
                s = math.sqrt(z)
                return -2.0 * n * s / math.tan(s)
            if z < 0.0:
                s = math.sqrt(-z)
                return -2.0 * n * s / math.tanh(s)
            return -2.0 * n

        # tail of dz/dt = -2n + O(z) from the level to 0
        level = ROUND_POINT_RHO ** 2
        return rhs, {"floor": (level, TerminalKind.ROUND_POINT, level / (2.0 * n))}

    def rhs(y):
        return 2.0 - 2.0 * n + 2.0 * n * y

    # exact linear-ODE tail from the level to y = 0
    collapse_tail = product_collapse_time(COLLAPSE_R1SQ, PinchingParams(n))
    return rhs, {
        "floor": (COLLAPSE_R1SQ, TerminalKind.GREAT_CIRCLE_COLLAPSE, collapse_tail),
        # lam^2 = 1/y - 1 small <=> |h|^2 ~ 1/lam^2 large
        "ceiling": (1.0 / (1.0 + 1.0 / BLOWUP_H2), TerminalKind.BLOWUP, 0.0),
    }


@functools.lru_cache(maxsize=8)
def _integrate(
    kind: str, n: int, y0: float, t_bound: float, rtol: float, atol: float, max_step: float | None
) -> tuple[OdeSolution, tuple | None]:
    """The c = 1 integration of a reduction, by the module-level solve_ivp.

    Returns the solution and the (kind, tail) of the bound that ended it, or
    None at the horizon.

    Cached: a state given as c = 1 numbers over sqrt(c) or c, as verify's
    flow oracles give theirs, is the same c = 1 problem, bit for bit, at every
    c = 4^k (c = 2^k for the product).  The arrays are read-only, since the
    cache hands the same solution to each caller.
    """
    rhs, bounds = _ode_rhs_and_bounds(kind, n)
    levels = {name: level for name, (level, _, _) in bounds.items()}
    sol = solve_ivp(rhs, t_bound, y0, rtol=rtol, atol=atol, max_step=max_step, **levels)
    sol.t.setflags(write=False)
    sol.y.setflags(write=False)
    return sol, None if sol.event is None else bounds[sol.event][1:]


def flow_ode_numeric(
    initial: GeodesicSphere | ProductSn1S1,
    params: PinchingParams,
    config: FlowConfig | None = None,
) -> FlowTrace:
    """Adaptive Dormand–Prince 5(4) integration of the homogeneous reductions at c = 1."""
    config = (config or FlowConfig()).resolved(lambda: curvature_of(initial, params), params)
    n, c = params.n, params.c
    kind, y0, beyond = _ode_start(initial, params)
    sol, ending = _integrate(
        kind, n, y0, config.t_max * c, config.tol, config.tol * max(abs(y0), 1.0),
        None if config.dt_initial is None else config.dt_initial * c,
    )
    trace = _ambient_trace(kind, sol.y, sol.t, params, config, beyond)
    if ending is None:
        trace.terminal = _horizon_terminal(trace.monitors, params)
    else:
        terminal, tail = ending
        trace.terminal = TerminalEvent(terminal, float((sol.t[-1] + tail) / c))
    return trace


# ---------------------------------------------------------------- PDE route


def flow_axisymmetric(
    initial: Axisymmetric,
    params: PinchingParams,
    config: FlowConfig | None = None,
) -> FlowTrace:
    """Method-of-lines flow of a torus-type profile by normal velocity H, stepped at c = 1.

    ETDRK4 in time, 4th order, and the 4th-order five-point stencil of
    axisym.second_difference_symbol in space.  On the AC8 ripple (n = 10, N =
    96, t_max = 0.25) each halving of a step cap below the first step cuts the
    error of g_sigma at the horizon by at least 8x, and each doubling of N
    from 48 to 384 by at least 12x (tests/test_flow.py pins both).
    """
    if not isinstance(initial, Axisymmetric):
        kind = type(initial).__name__
        raise GeometryError(f"axisymmetric flow needs a profile state, got {kind}")
    n, c = params.n, params.c
    axisym.validate_profile(initial.phi, initial.xi)
    phi, xi, spacing, winding = axisym.resample_profile(initial.phi, initial.xi)
    geom = axisym.profile_geometry(phi, xi, n, spacing, winding)
    root_c = math.sqrt(c)
    config = (config or FlowConfig()).resolved(
        lambda: axisym.curvature_data(n, geom.kappa_orbit * root_c, geom.kappa_profile * root_c),
        params,
    )
    t_max = config.t_max * c
    if t_max == math.inf:  # the step count estimate below needs a finite horizon
        raise DomainError(f"the flow's horizon t_max c leaves the double range at c = {c!r}")
    dt_cap = None if config.dt_initial is None else config.dt_initial * c

    t = 0.0  # the time ct
    records, snapshots, terminal = [], {}, None
    # (t, H, |h|^2, |h0|^2) at c = 1 of the steps whose monitors are pending
    pending: list[tuple] = []

    def monitor_pending():
        ts, H, h2, h0_2 = (np.stack(col, axis=-1) for col in zip(*pending))
        pending.clear()
        with double_range("the flow's curvature", c):
            H *= root_c
            h2 *= c
            h0_2 *= c
            records.append(monitors_update(params, config, ts / c, H, h2, h0_2))

    dt_first = _profile_dt(float(geom.h_norm2.max()), n, dt_cap)
    est_steps = max(1, int(t_max / max(dt_first, DT_MIN)))
    snap_every = max(1, est_steps // MESH_SAMPLES_TARGET)
    block_steps = max(1, MONITOR_BLOCK // len(phi))
    step = 0
    try:
        while True:
            pending.append((t, geom.H, geom.h_norm2, geom.h0_norm2))
            # the initial state alone, so one out of range at c fails before the first step
            if step == 0 or len(pending) == block_steps:
                monitor_pending()
            h2_max = float(geom.h_norm2.max())
            if step % snap_every == 0:
                snapshots[step] = Axisymmetric(np.stack([phi, xi], axis=1))
            if h2_max > BLOWUP_H2:
                kind = (
                    TerminalKind.GREAT_CIRCLE_COLLAPSE
                    if np.min(np.sin(phi) ** 2) < COLLAPSE_R1SQ_PDE
                    else TerminalKind.BLOWUP
                )
                terminal = TerminalEvent(kind, float(t / c))
                break
            if t >= t_max:
                break
            dt = _profile_dt(h2_max, n, dt_cap)
            if dt < DT_MIN:
                raise StepUnderflow(f"time step {dt!r} fell below DT_MIN before a terminal event")
            if step == 0 and est_steps > MAX_PROFILE_STEPS:  # a run that ends at t = 0 needs none
                raise DomainError(
                    f"the profile flow to t_max = {config.t_max!r} would take ~{est_steps:.3g} "
                    f"steps at its first step size, past the budget of {MAX_PROFILE_STEPS} steps"
                )
            dt = min(dt, t_max - t)
            # The state is phi and xi minus its winding ramp, both periodic; the
            # parametrization is frozen over the step.
            ramp = _winding_ramp(len(phi), winding)
            u_v0 = np.empty((2, 2, len(phi)))
            u_v0[0, 0] = phi
            np.subtract(xi, ramp, out=u_v0[0, 1])
            np.multiply(geom.H, geom.nu_phi, out=u_v0[1, 0])
            np.multiply(geom.H, geom.nu_xi, out=u_v0[1, 1])

            def velocity(u):
                u[1] += ramp
                return axisym._normal_velocity(u, n, spacing, winding)

            u = _etdrk4_step(
                u_v0, velocity, axisym.second_difference_symbol(len(phi), spacing), dt
            )
            phi, xi = u[0], u[1] + ramp
            if phi.min() <= 0.0 or phi.max() >= np.pi / 2.0:
                terminal = TerminalEvent(TerminalKind.BLOWUP, float(t / c))
                break
            phi, xi, spacing, winding = axisym.resample_profile(phi, xi)
            geom = axisym.profile_geometry(phi, xi, n, spacing, winding)
            t += dt
            step += 1
    except PinchflowError:
        if pending:  # a monitor error of an earlier step comes first, as it would step by step
            monitor_pending()
        raise
    if pending:
        monitor_pending()
    names = [f.name for f in fields(MonitorRecord)]
    monitors = MonitorRecord(**{k: np.concatenate([getattr(r, k) for r in records]) for k in names})
    monitors.C0_fit = np.maximum.accumulate(monitors.C0_fit)
    trace = FlowTrace("axisymmetric", params, config, monitors, snapshots=snapshots)
    trace.terminal = terminal or _horizon_terminal(monitors, params)
    return trace


def _profile_dt(h2_max: float, n: int, dt_cap: float | None) -> float:
    """Reaction-rate step bound at c = 1, capped by dt_cap; the caller clamps it to the horizon.

    Near a collapse |h|^2 ~ 1/(T - t), so the step shrinks geometrically and
    cannot overshoot the singularity.
    """
    dt = 0.15 / (n + h2_max)
    return dt if dt_cap is None else min(dt, dt_cap)


# Taylor coefficients of Q/dt, f1/dt, f2/dt and f3/dt in z, rows j = 0..19:
# 1/(2^(j+1) (j+1)!), (j+1)^2/(j+3)!, (j+1)/(j+3)! and (1-j)/(j+3)!.  For
# |z| < 1 the first omitted term is below 1e-18 of the weight.
_ETD_TAYLOR = np.array(
    [
        [
            1 / (2 ** (j + 1) * math.factorial(j + 1)),
            (j + 1) ** 2 / math.factorial(j + 3),
            (j + 1) / math.factorial(j + 3),
            (1 - j) / math.factorial(j + 3),
        ]
        for j in range(20)
    ]
)


def _etdrk4_coefficients(z: np.ndarray, dt: float):
    """exp(z), exp(z/2) and the ETDRK4 weights Q, f1, f2, f3 for real z = dt L.

    Where |z| >= 1 the weights are the closed forms of Cox & Matthews (2002),

        Q  = dt (e^{z/2} - 1)/z,
        f1 = dt (-4 - z + e^z (4 - 3z + z^2))/z^3,
        f2 = dt (2 + z + e^z (z - 2))/z^3,
        f3 = dt (-4 - 3z - z^2 + e^z (4 - z))/z^3;

    where |z| < 1, whose closed forms cancel, they are the 20-term Taylor
    series of those forms (the phi-function combinations Q = dt phi1(z/2)/2,
    f1 = dt (phi1 - 3 phi2 + 4 phi3), f2 = dt (phi2 - 2 phi3) and
    f3 = dt (4 phi3 - phi2)), summed term by term in the order of the powers
    of z.  At z = 0 they equal dt/2 and dt/6, so a mode with L = 0 steps
    by classical RK4.
    """
    e, e2 = np.exp(z), np.exp(z / 2.0)
    small = np.abs(z) < 1.0
    # The closed forms on the whole grid, at 1 in place of each z with
    # |z| < 1, whose weights the series below overwrites: no division meets
    # z = 0, and none needs a mask.
    zc = np.where(small, 1.0, z)
    zc2, zc3 = zc * zc, zc ** 3
    weights = np.empty((4, len(z)))
    np.divide(e2 - 1.0, zc, out=weights[0])
    np.divide(-4.0 - zc + e * (4.0 - 3.0 * zc + zc2), zc3, out=weights[1])
    np.divide(2.0 + zc + e * (zc - 2.0), zc3, out=weights[2])
    np.divide(-4.0 - 3.0 * zc - zc2 + e * (4.0 - zc), zc3, out=weights[3])
    # rows z^0 .. z^19 of the small z, each the previous times z
    powers = np.empty((len(_ETD_TAYLOR), np.count_nonzero(small)))
    powers[0] = 1.0
    powers[1:] = z[small]
    np.multiply.accumulate(powers[1:], axis=0, out=powers[1:])
    # A broadcast sum: @ would start numpy's BLAS and einsum allocates
    # iterator buffers, each adding 0.2-0.3 MB to the peak memory of a
    # profile run for a 20-term sum.
    weights[:, small] = (_ETD_TAYLOR.T[:, :, None] * powers).sum(axis=1)
    q, f1, f2, f3 = dt * weights
    return e, e2, q, f1, f2, f3


def _etdrk4_step(u_v0, velocity, symbol, dt):
    """One ETDRK4 step of u' = velocity(u) = L u + N(u) for periodic rows u.

    L acts on each row as the diagonal ``symbol`` on its rfft modes.  u_v0
    stacks u and velocity(u), already known from the monitors, along its
    first axis, so one rfft takes both; velocity may overwrite its argument.
    """
    size = u_v0.shape[-1]
    e, e2, q, f1, f2, f3 = _etdrk4_coefficients(dt * symbol, dt)

    def stage(x_hat):
        return np.fft.rfft(velocity(np.fft.irfft(x_hat, n=size))) - symbol * x_hat

    u_hat, v0_hat = np.fft.rfft(u_v0)
    n_u = v0_hat - symbol * u_hat
    e2_u = e2 * u_hat
    a_hat = e2_u + q * n_u
    n_a = stage(a_hat)
    n_b = stage(e2_u + q * n_a)
    n_c = stage(e2 * a_hat + q * (2.0 * n_b - n_u))
    return np.fft.irfft(e * u_hat + f1 * n_u + 2.0 * f2 * (n_a + n_b) + f3 * n_c, n=size)


@functools.lru_cache(maxsize=8)
def _winding_ramp(n_points: int, winding: int) -> np.ndarray:
    """2 pi winding i / n_points at the samples i, the non-periodic part of xi (read-only)."""
    ramp = 2.0 * np.pi * winding * np.arange(n_points) / n_points
    ramp.setflags(write=False)
    return ramp


def _horizon_terminal(monitors: MonitorRecord, params: PinchingParams) -> TerminalEvent:
    """Horizon reached: totally geodesic if |h|^2 stayed ~0 over the trailing time 1/n, at c = 1."""
    n, c = params.n, params.c
    ts = monitors.t * c
    recent = ts >= ts[-1] - 1.0 / n
    if ts[-1] >= 1.0 / n and np.all(monitors.h2_max[recent] / c < GEODESIC_H2):
        return TerminalEvent(TerminalKind.TOTALLY_GEODESIC, float(monitors.t[-1]))
    return TerminalEvent(TerminalKind.HORIZON_REACHED, float(monitors.t[-1]))
