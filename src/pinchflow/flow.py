"""Mean curvature flow on the supported families, with pinching and decay monitors.

The homogeneous families reduce to scalar ODEs:

    geodesic sphere:  d(rho)/dt   = -n sqrt(c) cot(sqrt(c) rho)
    product torus:    d(r1^2)/dt  = 2 - 2n + 2 n c r1^2

The product ODE has the exact solution r1^2 = (n-1)/(nc) (1 - d e^{2nct}) with
d fixed by the initial radius and collapse time T = -log(d)/(2nc); the numeric
route integrates the same reductions with an adaptive embedded 5(4) pair.
Torus-type profiles evolve by the method of lines: normal velocity H at every
sample, classical RK4 steps under a parabolic step-size restriction, and
uniform arc-length redistribution after every accepted step.

Monitors recorded at every accepted step: the pinching excess
U = |h|^2 - gamma + eps*omega (pointwise max), the decay ratio
f_sigma = |h0|^2 / ring(gamma)^{1-sigma} with ring(gamma) = gamma - H^2/n, its
rescaling g_sigma = f_sigma e^{2 sigma c t}, and for profile flows the
gradient proxy |grad H|^2 together with running fitted constants for the
decay and gradient bounds (reported, never asserted).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import solve_ivp

from . import axisym
from .errors import (
    DegenerateGamma,
    DomainError,
    FixedPointError,
    GeometryError,
    MeshDegenerate,
    StepUnderflow,
)
from .geometry import (
    Axisymmetric,
    CurvatureData,
    GeodesicSphere,
    HypersurfaceState,
    ProductSn1S1,
    curvature_of,
)
from .thresholds import PinchingParams, family

__all__ = [
    "TerminalKind",
    "TerminalEvent",
    "FlowConfig",
    "MonitorRecord",
    "TraceSample",
    "FlowTrace",
    "default_epsilon",
    "flow_product_exact",
    "flow_ode_numeric",
    "flow_axisymmetric",
    "monitors_update",
]

ROUND_POINT_RHO = 1e-6  # times 1/sqrt(c)
COLLAPSE_R1SQ = 1e-8  # times 1/c, ODE route
COLLAPSE_R1SQ_PDE = 1e-4  # times 1/c; |h|^2 blowup triggers first on profiles
GEODESIC_H2 = 1e-12  # times c, sustained for 1/(nc)
BLOWUP_H2 = 1e6  # times c
CFL_FACTOR = 0.2
MESH_SAMPLES_TARGET = 200


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
    """Run parameters; epsilon and eta default from the initial state.

    dt_initial bounds the adaptive integrator from above as well (initial and
    maximum step), which pins the accuracy of finite differences taken on the
    accepted steps.
    """

    epsilon: float | None = None
    sigma: float = 0.1
    eta: float | None = None
    dt_initial: float | None = None
    dt_min: float = 1e-12
    t_max: float | None = None
    tol: float = 1e-10

    def validate(self, params: PinchingParams):
        if not 0.0 < self.sigma < 1.0:
            raise DomainError(f"sigma must lie in (0, 1), got {self.sigma!r}")
        if self.eta is not None and not 0.0 < self.eta < 1.0 / params.n:
            raise DomainError(f"eta must lie in (0, 1/n), got {self.eta!r}")
        if self.epsilon is not None and self.epsilon < 0.0:
            raise DomainError(f"epsilon must be >= 0, got {self.epsilon!r}")

    def resolved(self, state: HypersurfaceState, params: PinchingParams) -> "FlowConfig":
        self.validate(params)
        eps = self.epsilon if self.epsilon is not None else default_epsilon(state, params)
        eta = self.eta if self.eta is not None else 1.0 / (2.0 * params.n)
        t_max = self.t_max if self.t_max is not None else 1.0 / params.c
        return replace(self, epsilon=eps, eta=eta, t_max=t_max)


@dataclass
class MonitorRecord:
    t: float
    H_max: float
    h2_max: float
    h0_2_max: float
    gamma_min: float
    U_max: float
    f_sigma: float
    g_sigma: float
    grad_H2_max: float = 0.0
    C0_fit: float = 0.0
    C_eta_fit: float = 0.0


@dataclass
class TraceSample:
    t: float
    state: HypersurfaceState
    curvature: CurvatureData
    monitors: MonitorRecord


@dataclass
class FlowTrace:
    family: str
    params: PinchingParams
    config: FlowConfig
    samples: list[TraceSample] = field(default_factory=list)
    monitors: list[MonitorRecord] = field(default_factory=list)
    terminal: TerminalEvent | None = None

    @property
    def times(self) -> np.ndarray:
        return np.array([m.t for m in self.monitors])


def default_epsilon(state: HypersurfaceState, params: PinchingParams) -> float:
    """Half the worst pinching slack of the initial state, clipped at zero."""
    data = curvature_of(state, params)
    fam = family(params)
    x = np.atleast_1d(np.asarray(data.H, dtype=float) ** 2)
    g, _, _, _ = fam.gamma(x)
    w, _, _ = fam.omega(x)
    slack = (g - np.atleast_1d(np.asarray(data.h_norm2, dtype=float))) / w
    return max(0.0, 0.5 * float(slack.min()))


def monitors_update(
    params: PinchingParams,
    config: FlowConfig,
    data: CurvatureData,
    t: float,
    previous: MonitorRecord | None = None,
) -> MonitorRecord:
    """Monitor record at time t from pointwise curvature data."""
    n, c = params.n, params.c
    fam = family(params)
    H = np.atleast_1d(np.asarray(data.H, dtype=float))
    h2 = np.atleast_1d(np.asarray(data.h_norm2, dtype=float))
    h0_2 = np.atleast_1d(np.asarray(data.h0_norm2, dtype=float))
    x = H ** 2
    g, _, _, _ = fam.gamma(x)
    w, _, _ = fam.omega(x)
    gamma_ring = g - x / n
    if np.any(gamma_ring <= 0.0):
        raise DegenerateGamma("gamma - H^2/n must stay positive")
    eps = config.epsilon or 0.0
    U = h2 - g + eps * w
    f_sigma = float((h0_2 / gamma_ring ** (1.0 - config.sigma)).max())
    g_sigma = f_sigma * float(np.exp(2.0 * config.sigma * c * t))
    grad = np.atleast_1d(np.asarray(data.grad_H2, dtype=float))
    decay_ratio = float(
        (h0_2 * np.exp(2.0 * config.sigma * c * t) / (x + c) ** (1.0 - config.sigma)).max()
    )
    eta = config.eta or 1.0 / (2.0 * n)
    grad_gap = grad * np.exp(config.sigma * c * t) - (eta * np.abs(H)) ** 4
    c_eta = float(np.sqrt(max(0.0, grad_gap.max())))
    record = MonitorRecord(
        t=t,
        H_max=float(np.abs(H).max()),
        h2_max=float(h2.max()),
        h0_2_max=float(h0_2.max()),
        gamma_min=float(g.min()),
        U_max=float(U.max()),
        f_sigma=f_sigma,
        g_sigma=g_sigma,
        grad_H2_max=float(grad.max()),
        C0_fit=decay_ratio,
        C_eta_fit=c_eta,
    )
    if previous is not None:
        record.C0_fit = max(record.C0_fit, previous.C0_fit)
        record.C_eta_fit = max(record.C_eta_fit, previous.C_eta_fit)
    return record


# ----------------------------------------------------------- exact product


def flow_product_exact(
    initial: ProductSn1S1,
    params: PinchingParams,
    config: FlowConfig | None = None,
    n_samples: int = 400,
) -> FlowTrace:
    """Closed-form trajectory of the product family down to the great circle."""
    config = (config or FlowConfig()).resolved(initial, params)
    n, c = params.n, params.c
    r1sq0 = initial_r1sq(initial, params)
    stationary = (n - 1.0) / (n * c)
    if np.isclose(r1sq0, stationary, rtol=1e-12, atol=0.0):
        raise FixedPointError("initial product state is the stationary minimal torus")
    if r1sq0 > stationary:
        raise DomainError(
            f"exact product flow needs r1^2 < (n-1)/(nc); got {r1sq0!r} > {stationary!r}"
        )
    d = 1.0 - n * c * r1sq0 / (n - 1.0)
    T = -np.log(d) / (2.0 * n * c)
    trace = FlowTrace(family="product", params=params, config=config)
    t_end = min(config.t_max, T)
    # Samples crowd toward the collapse time where the state varies fastest.
    u = np.linspace(0.0, 1.0, n_samples)
    ts = t_end * (1.0 - (1.0 - u) ** 2)
    prev = None
    for t in ts:
        r1sq = stationary * (1.0 - d * np.exp(2.0 * n * c * t))
        if r1sq <= COLLAPSE_R1SQ / c:
            break
        state = ProductSn1S1.from_r1sq(r1sq, params)
        data = curvature_of(state, params)
        prev = monitors_update(params, config, data, float(t), prev)
        trace.monitors.append(prev)
        trace.samples.append(TraceSample(float(t), state, data, prev))
    if T <= config.t_max:
        trace.terminal = TerminalEvent(TerminalKind.GREAT_CIRCLE_COLLAPSE, float(T))
    else:
        trace.terminal = TerminalEvent(TerminalKind.HORIZON_REACHED, float(config.t_max))
    return trace


def product_r1sq_exact(initial: ProductSn1S1, params: PinchingParams, t) -> np.ndarray:
    """Exact r1(t)^2 for comparisons."""
    n, c = params.n, params.c
    r1sq0 = initial_r1sq(initial, params)
    d = 1.0 - n * c * r1sq0 / (n - 1.0)
    return (n - 1.0) / (n * c) * (1.0 - d * np.exp(2.0 * n * c * np.asarray(t, dtype=float)))


# ---------------------------------------------------------------- ODE route


def _ode_rhs_and_events(state, params: PinchingParams):
    n, c = params.n, params.c
    root_c = np.sqrt(c)
    if isinstance(state, GeodesicSphere):

        def rhs(t, y):
            return [-n * root_c * np.cos(root_c * y[0]) / np.sin(root_c * y[0])]

        def collapse(t, y):
            return y[0] - ROUND_POINT_RHO / root_c

        def antipodal(t, y):
            return y[0] - (np.pi - ROUND_POINT_RHO) / root_c

        collapse.terminal = True
        collapse.direction = -1
        antipodal.terminal = True
        antipodal.direction = 1
        return rhs, [collapse, antipodal], float(state.rho)

    if isinstance(state, ProductSn1S1):

        def rhs(t, y):
            return [2.0 - 2.0 * n + 2.0 * n * c * y[0]]

        def collapse(t, y):
            return y[0] - COLLAPSE_R1SQ / c

        def fatten(t, y):
            # lam^2 = 1/r1^2 - c small <=> |h|^2 ~ c^2/lam^2 large
            return y[0] - 1.0 / (c + c / BLOWUP_H2)

        collapse.terminal = True
        collapse.direction = -1
        fatten.terminal = True
        fatten.direction = 1
        return rhs, [collapse, fatten], float(initial_r1sq(state, params))

    raise GeometryError(f"ODE flow supports homogeneous states only, got {state!r}")


def initial_r1sq(state: ProductSn1S1, params: PinchingParams) -> float:
    if state.r1sq_exact is not None:
        return state.r1sq_exact
    return state.radii(params)[0] ** 2


def _reconstruct_state(kind: str, y: float, params: PinchingParams) -> HypersurfaceState:
    if kind == "sphere":
        return GeodesicSphere(rho=float(y))
    return ProductSn1S1.from_r1sq(float(y), params)


def flow_ode_numeric(
    initial: GeodesicSphere | ProductSn1S1,
    params: PinchingParams,
    config: FlowConfig | None = None,
) -> FlowTrace:
    """Adaptive 5(4) integration of the homogeneous reductions."""
    config = (config or FlowConfig()).resolved(initial, params)
    n, c = params.n, params.c
    kind = "sphere" if isinstance(initial, GeodesicSphere) else "product"
    rhs, events, y0 = _ode_rhs_and_events(initial, params)
    sol = solve_ivp(
        rhs,
        (0.0, config.t_max),
        [y0],
        method="RK45",
        rtol=config.tol,
        atol=config.tol * max(abs(y0), 1.0 / c),
        events=events,
        dense_output=False,
        first_step=config.dt_initial,
        max_step=config.dt_initial or np.inf,
    )
    if sol.status == -1:
        raise StepUnderflow(f"integrator failed: {sol.message}")
    trace = FlowTrace(family=kind, params=params, config=config)
    prev = None
    for t, y in zip(sol.t, sol.y[0]):
        state = _reconstruct_state(kind, y, params)
        data = curvature_of(state, params)
        prev = monitors_update(params, config, data, float(t), prev)
        trace.monitors.append(prev)
        trace.samples.append(TraceSample(float(t), state, data, prev))
    trace.terminal = _ode_terminal(kind, sol, params, trace)
    return trace


def _ode_terminal(kind, sol, params, trace) -> TerminalEvent:
    n, c = params.n, params.c
    if sol.status == 1:  # a terminal event fired
        if kind == "sphere":
            t_hit = None
            for te in sol.t_events:
                if len(te):
                    t_hit = float(te[0])
            rho_hit = ROUND_POINT_RHO / np.sqrt(c)
            # quadratic tail of d(rho)/dt = -n/rho + O(rho)
            return TerminalEvent(TerminalKind.ROUND_POINT, float(t_hit + rho_hit ** 2 / (2.0 * n)))
        if len(sol.t_events[0]):  # great-circle collapse
            t_hit = float(sol.t_events[0][0])
            y_hit = COLLAPSE_R1SQ / c
            # exact linear-ODE tail from the event to r1^2 = 0
            tail = -np.log(1.0 - n * c * y_hit / (n - 1.0)) / (2.0 * n * c)
            return TerminalEvent(TerminalKind.GREAT_CIRCLE_COLLAPSE, float(t_hit + tail))
        return TerminalEvent(TerminalKind.BLOWUP, float(sol.t_events[1][0]))
    return _horizon_terminal(trace, params)


# ---------------------------------------------------------------- PDE route


def flow_axisymmetric(
    initial: Axisymmetric,
    params: PinchingParams,
    config: FlowConfig | None = None,
) -> FlowTrace:
    """Method-of-lines flow of a torus-type profile by normal velocity H."""
    config = (config or FlowConfig()).resolved(initial, params)
    n, c = params.n, params.c
    axisym.validate_profile(initial.phi, initial.xi)
    phi, xi, spacing, length, winding = axisym.resample_profile(initial.phi, initial.xi, params)
    n_pts = len(phi)
    trace = FlowTrace(family="axisymmetric", params=params, config=config)

    def velocity(ph, x_):
        geom = axisym.profile_geometry(ph, x_, params, spacing, winding)
        return geom.H * geom.nu_phi, geom.H * geom.nu_xi, geom

    t = 0.0
    prev = None
    geom = axisym.profile_geometry(phi, xi, params, spacing, winding)
    est_steps = max(1, int(config.t_max / max(CFL_FACTOR * spacing ** 2, config.dt_min)))
    snap_every = max(1, est_steps // MESH_SAMPLES_TARGET)
    step = 0
    while True:
        data = _geom_to_data(geom, params)
        prev = monitors_update(params, config, data, t, prev)
        trace.monitors.append(prev)
        if step % snap_every == 0:
            state = Axisymmetric(np.stack([phi, xi], axis=1))
            trace.samples.append(TraceSample(t, state, data, prev))
        if prev.h2_max > BLOWUP_H2 * c:
            min_r1sq = float(np.min(np.sin(phi) ** 2) / c)
            kind = (
                TerminalKind.GREAT_CIRCLE_COLLAPSE
                if min_r1sq < COLLAPSE_R1SQ_PDE / c
                else TerminalKind.BLOWUP
            )
            trace.terminal = TerminalEvent(kind, t)
            break
        if t >= config.t_max:
            trace.terminal = _horizon_terminal(trace, params)
            break
        # Parabolic bound from the profile diffusion plus a reaction-rate
        # bound: near a collapse |h|^2 ~ 1/(T - t), so this step shrinks
        # geometrically and cannot overshoot the singularity.
        dt = min(CFL_FACTOR * spacing ** 2, 0.15 / (n * c + prev.h2_max))
        if config.dt_initial is not None:
            dt = min(dt, config.dt_initial)
        dt = min(dt, config.t_max - t)
        if dt < config.dt_min:
            raise StepUnderflow(f"time step {dt!r} fell below dt_min before a terminal event")
        # Classical RK4 with the parametrization frozen over the step.
        k1p, k1x = geom.H * geom.nu_phi, geom.H * geom.nu_xi
        k2p, k2x, _ = velocity(phi + 0.5 * dt * k1p, xi + 0.5 * dt * k1x)
        k3p, k3x, _ = velocity(phi + 0.5 * dt * k2p, xi + 0.5 * dt * k2x)
        k4p, k4x, _ = velocity(phi + dt * k3p, xi + dt * k3x)
        phi = phi + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        xi = xi + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        if np.any(phi <= 0.0) or np.any(phi >= np.pi / 2.0):
            trace.terminal = TerminalEvent(TerminalKind.BLOWUP, t)
            break
        phi, xi, spacing, length, winding = axisym.resample_profile(phi, xi, params)
        _check_mesh(phi, xi, params)
        geom = axisym.profile_geometry(phi, xi, params, spacing, winding)
        t += dt
        step += 1
    return trace


def _check_mesh(phi, xi, params):
    s = axisym._chord_arclength(phi, xi, params.c)
    seg = np.diff(s)
    if seg.min() < axisym.MIN_SPACING_FRACTION * seg.mean():
        raise MeshDegenerate("adjacent profile samples collapsed after redistribution")


def _horizon_terminal(trace: FlowTrace, params: PinchingParams) -> TerminalEvent:
    """Horizon reached: totally geodesic if |h|^2 stayed ~0 over the trailing 1/(nc)."""
    n, c = params.n, params.c
    window = 1.0 / (n * c)
    ts = trace.times
    recent = [m for m in trace.monitors if m.t >= ts[-1] - window]
    if ts[-1] >= window and all(m.h2_max < GEODESIC_H2 * c for m in recent):
        return TerminalEvent(TerminalKind.TOTALLY_GEODESIC, float(ts[-1]))
    return TerminalEvent(TerminalKind.HORIZON_REACHED, float(ts[-1]))


def _geom_to_data(geom: axisym.ProfileGeometry, params: PinchingParams) -> CurvatureData:
    return CurvatureData(
        H=geom.H,
        h_norm2=geom.h2,
        h0_norm2=geom.h0_2,
        principal=geom.principal(params.n),
        grad_H2=geom.grad_H2,
    )
