"""Mean curvature flow on the supported families, with pinching and decay monitors.

The homogeneous families reduce to scalar ODEs:

    geodesic sphere:  d(rho)/dt   = -n sqrt(c) cot(sqrt(c) rho)
    product torus:    d(r1^2)/dt  = 2 - 2n + 2 n c r1^2

The product ODE has the exact solution r1^2 = (n-1)/(nc) (1 - d e^{2nct}) with
d fixed by the initial radius and collapse time T = -log(d)/(2nc); the numeric
route integrates the same reductions with the package's scalar Dormand–Prince
5(4) integrator (``pinchflow.ode``), whose events end the run at a round point,
a great circle or a blowup.

Torus-type profiles evolve by the method of lines: normal velocity H at every
sample and exponential-time-differencing RK4 steps (ETDRK4; Cox & Matthews
2002).  ETDRK4 integrates the stiff part of the velocity, the periodic
second-difference stencil, exactly in Fourier space, so the step is bounded
only by the reaction rate 0.15/(nc + |h|^2), not by the grid spacing.  After
each step ``axisym.resample_profile`` measures the chords of the new mesh and
redistributes it to uniform arc length by a periodic cubic spline only when
their max/min ratio exceeds axisym.MAX_CHORD_RATIO = 1.02.  The mesh drifts
slowly, so this is rare: once in the 34 steps of a mode-2 ripple of 0.5% on
the minimal torus at N = 96 (n = 10, t = 0.25), 11 times in 35 steps for a 5%
ripple at N = 256, and 14 times in 40 steps for a 1% ripple collapsing to the
great circle at N = 128.  Between redistributions the parameter is kept and
the spacing follows the chordal length of the curve.

Monitors recorded at every accepted step: the pinching excess
U = |h|^2 - gamma + eps*omega (pointwise max), the decay ratio
f_sigma = |h0|^2 / ring(gamma)^{1-sigma} with ring(gamma) = gamma - H^2/n, its
rescaling g_sigma = f_sigma e^{2 sigma c t}, and the running fitted constant
C0_fit of the decay bound.

A FlowTrace is columnar: one MonitorRecord of arrays, one entry per recorded
step.  A homogeneous trace keeps its trajectory as one array-valued state
(rho, or lam with the exact r1^2) and its curvature data, both evaluated once.
An axisymmetric trace keeps profile snapshots keyed by record index; its
step size depends on the current |h|^2, so it takes monitors step by step.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import axisym
from .errors import (
    DegenerateGamma,
    DomainError,
    FixedPointError,
    GeometryError,
    StepUnderflow,
)
from .geometry import (
    Axisymmetric,
    CurvatureData,
    GeodesicSphere,
    ProductSn1S1,
    curvature_of,
)
from .ode import solve_ivp
from .thresholds import PinchingParams, family

__all__ = [
    "TerminalKind",
    "TerminalEvent",
    "FlowConfig",
    "MonitorRecord",
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
MESH_SAMPLES_TARGET = 200
DT_MIN = 1e-12  # floor of the profile route's time step
EXACT_SAMPLES = 400  # times sampled by the closed-form product trajectory


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

    dt_initial bounds the adaptive integrator from above as well (initial and
    maximum step), which pins the accuracy of finite differences taken on the
    accepted steps.
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

    def resolved(self, initial: CurvatureData | None, params: PinchingParams) -> "FlowConfig":
        """Validated copy with epsilon and t_max filled in.

        ``initial`` is the curvature data of the initial state; it is read only
        when epsilon is unset.
        """
        self.validate()
        eps = self.epsilon if self.epsilon is not None else default_epsilon(initial, params)
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
    g, _, _, _ = fam.gamma(x)
    w, _, _ = fam.omega(x)
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
    g, _, _, _ = fam.gamma(x)
    w, _, _ = fam.omega(x)
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


def _resolved_homogeneous(
    config: FlowConfig | None, initial: GeodesicSphere | ProductSn1S1, params: PinchingParams
) -> FlowConfig:
    """Resolved config of a homogeneous route; curvature_of runs only for the default epsilon."""
    config = config or FlowConfig()
    data = curvature_of(initial, params) if config.epsilon is None else None
    return config.resolved(data, params)


# ----------------------------------------------------------- exact product


def flow_product_exact(
    initial: ProductSn1S1,
    params: PinchingParams,
    config: FlowConfig | None = None,
) -> FlowTrace:
    """Closed-form trajectory of the product family down to the great circle."""
    if not isinstance(initial, ProductSn1S1):
        kind = type(initial).__name__
        raise GeometryError(f"exact product flow needs a product state, got {kind}")
    config = _resolved_homogeneous(config, initial, params)
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
    t_end = min(config.t_max, T)
    # Samples crowd toward the collapse time where the state varies fastest.
    u = np.linspace(0.0, 1.0, EXACT_SAMPLES)
    ts = t_end * (1.0 - (1.0 - u) ** 2)
    r1sq = product_r1sq_exact(initial, params, ts)
    # The trajectory ends before the first sample at the great circle.
    collapsed = r1sq <= COLLAPSE_R1SQ / c
    stop = int(np.argmax(collapsed)) if collapsed.any() else len(ts)
    state = ProductSn1S1.from_r1sq(r1sq[:stop], params)
    data = curvature_of(state, params)
    monitors = monitors_update(params, config, ts[:stop], data.H, data.h_norm2, data.h0_norm2)
    trace = FlowTrace("product", params, config, monitors, state=state, curvature=data)
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
    """Float right-hand side, (event, direction) pairs and initial value of a reduction."""
    n, c = params.n, params.c
    root_c = math.sqrt(c)
    if isinstance(state, GeodesicSphere):

        def rhs(t, y):
            return -n * root_c * math.cos(root_c * y) / math.sin(root_c * y)

        def collapse(t, y):
            return y - ROUND_POINT_RHO / root_c

        def antipodal(t, y):
            return y - (math.pi - ROUND_POINT_RHO) / root_c

        return rhs, [(collapse, -1), (antipodal, 1)], float(state.rho)

    if isinstance(state, ProductSn1S1):

        def rhs(t, y):
            return 2.0 - 2.0 * n + 2.0 * n * c * y

        def collapse(t, y):
            return y - COLLAPSE_R1SQ / c

        def fatten(t, y):
            # lam^2 = 1/r1^2 - c small <=> |h|^2 ~ c^2/lam^2 large
            return y - 1.0 / (c + c / BLOWUP_H2)

        return rhs, [(collapse, -1), (fatten, 1)], float(initial_r1sq(state, params))

    raise GeometryError(f"ODE flow supports homogeneous states only, got {state!r}")


def initial_r1sq(state: ProductSn1S1, params: PinchingParams) -> float:
    if state.r1sq_exact is not None:
        return state.r1sq_exact
    return state.radii(params)[0] ** 2


def flow_ode_numeric(
    initial: GeodesicSphere | ProductSn1S1,
    params: PinchingParams,
    config: FlowConfig | None = None,
) -> FlowTrace:
    """Adaptive Dormand–Prince 5(4) integration of the homogeneous reductions."""
    config = _resolved_homogeneous(config, initial, params)
    kind = "sphere" if isinstance(initial, GeodesicSphere) else "product"
    rhs, events, y0 = _ode_rhs_and_events(initial, params)
    sol = solve_ivp(
        rhs,
        (0.0, config.t_max),
        y0,
        rtol=config.tol,
        atol=config.tol * max(abs(y0), 1.0 / params.c),
        events=events,
        first_step=config.dt_initial,
        max_step=config.dt_initial or math.inf,
    )
    y = sol.y[0]
    state = GeodesicSphere(rho=y) if kind == "sphere" else ProductSn1S1.from_r1sq(y, params)
    data = curvature_of(state, params)
    monitors = monitors_update(params, config, sol.t, data.H, data.h_norm2, data.h0_norm2)
    trace = FlowTrace(kind, params, config, monitors, state=state, curvature=data)
    trace.terminal = _ode_terminal(kind, sol, params, monitors)
    return trace


def _ode_terminal(kind, sol, params, monitors: MonitorRecord) -> TerminalEvent:
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
    return _horizon_terminal(monitors, params)


# ---------------------------------------------------------------- PDE route


def flow_axisymmetric(
    initial: Axisymmetric,
    params: PinchingParams,
    config: FlowConfig | None = None,
) -> FlowTrace:
    """Method-of-lines flow of a torus-type profile by normal velocity H."""
    if not isinstance(initial, Axisymmetric):
        kind = type(initial).__name__
        raise GeometryError(f"axisymmetric flow needs a profile state, got {kind}")
    c = params.c
    axisym.validate_profile(initial.phi, initial.xi)
    phi, xi, spacing, _, winding = axisym.resample_profile(initial.phi, initial.xi, params)
    geom = axisym.profile_geometry(phi, xi, params, spacing, winding)
    config = (config or FlowConfig()).resolved(geom, params)

    t = 0.0
    records, snapshots, terminal = [], {}, None
    dt_first = _profile_dt(float(geom.h_norm2.max()), params, config)
    est_steps = max(1, int(config.t_max / max(dt_first, DT_MIN)))
    snap_every = max(1, est_steps // MESH_SAMPLES_TARGET)
    step = 0
    while True:
        record = monitors_update(
            params, config, t, geom.H[:, None], geom.h_norm2[:, None], geom.h0_norm2[:, None]
        )
        records.append(record)
        h2_max = float(record.h2_max[0])
        if step % snap_every == 0:
            snapshots[step] = Axisymmetric(np.stack([phi, xi], axis=1))
        if h2_max > BLOWUP_H2 * c:
            min_r1sq = float(np.min(np.sin(phi) ** 2) / c)
            kind = (
                TerminalKind.GREAT_CIRCLE_COLLAPSE
                if min_r1sq < COLLAPSE_R1SQ_PDE / c
                else TerminalKind.BLOWUP
            )
            terminal = TerminalEvent(kind, float(t))
            break
        if t >= config.t_max:
            break
        dt = _profile_dt(h2_max, params, config)
        if dt < DT_MIN:
            raise StepUnderflow(f"time step {dt!r} fell below DT_MIN before a terminal event")
        dt = min(dt, config.t_max - t)
        # The state is phi and xi minus its winding ramp, both periodic; the
        # parametrization is frozen over the step.
        ramp = 2.0 * np.pi * winding * np.arange(len(phi)) / len(phi)

        def velocity(u):
            g = axisym.profile_geometry(u[0], u[1] + ramp, params, spacing, winding)
            return np.stack([g.H * g.nu_phi, g.H * g.nu_xi])

        u = _etdrk4_step(
            np.stack([phi, xi - ramp]),
            np.stack([geom.H * geom.nu_phi, geom.H * geom.nu_xi]),
            velocity,
            axisym.second_difference_symbol(len(phi), spacing),
            dt,
        )
        phi, xi = u[0], u[1] + ramp
        if np.any(phi <= 0.0) or np.any(phi >= np.pi / 2.0):
            terminal = TerminalEvent(TerminalKind.BLOWUP, float(t))
            break
        phi, xi, spacing, _, winding = axisym.resample_profile(phi, xi, params)
        geom = axisym.profile_geometry(phi, xi, params, spacing, winding)
        t += dt
        step += 1
    names = [f.name for f in fields(MonitorRecord)]
    monitors = MonitorRecord(**{k: np.concatenate([getattr(r, k) for r in records]) for k in names})
    monitors.C0_fit = np.maximum.accumulate(monitors.C0_fit)
    trace = FlowTrace("axisymmetric", params, config, monitors, snapshots=snapshots)
    trace.terminal = terminal or _horizon_terminal(monitors, params)
    return trace


def _profile_dt(h2_max: float, params: PinchingParams, config: FlowConfig) -> float:
    """Reaction-rate step bound, capped by dt_initial; the caller clamps it to the horizon.

    Near a collapse |h|^2 ~ 1/(T - t), so the step shrinks geometrically and
    cannot overshoot the singularity.
    """
    dt = 0.15 / (params.n * params.c + h2_max)
    if config.dt_initial is not None:
        dt = min(dt, config.dt_initial)
    return dt


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
    f3 = dt (4 phi3 - phi2)), summed as one product of the powers of z with
    _ETD_TAYLOR.  At z = 0 they equal dt/2 and dt/6, so a mode with L = 0 steps
    by classical RK4.
    """
    e, e2 = np.exp(z), np.exp(z / 2.0)
    weights = np.empty((4, len(z)))
    small = np.abs(z) < 1.0
    # The product as a broadcast sum: @ would start numpy's BLAS and einsum
    # allocates iterator buffers, each adding 0.2-0.3 MB to the peak memory of
    # a profile run for a 20-term sum.
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


def _etdrk4_step(u, v0, velocity, symbol, dt):
    """One ETDRK4 step of u' = velocity(u) = L u + N(u) for periodic rows u.

    L acts on each row as the diagonal ``symbol`` on its rfft modes; v0 is
    velocity(u), already known from the monitors.
    """
    size = u.shape[-1]
    e, e2, q, f1, f2, f3 = _etdrk4_coefficients(dt * symbol, dt)

    def nonlinear(v, x_hat):
        return np.fft.rfft(v) - symbol * x_hat

    def stage(x_hat):
        return nonlinear(velocity(np.fft.irfft(x_hat, n=size)), x_hat)

    u_hat = np.fft.rfft(u)
    n_u = nonlinear(v0, u_hat)
    a_hat = e2 * u_hat + q * n_u
    n_a = stage(a_hat)
    n_b = stage(e2 * u_hat + q * n_a)
    n_c = stage(e2 * a_hat + q * (2.0 * n_b - n_u))
    return np.fft.irfft(e * u_hat + f1 * n_u + 2.0 * f2 * (n_a + n_b) + f3 * n_c, n=size)


def _horizon_terminal(monitors: MonitorRecord, params: PinchingParams) -> TerminalEvent:
    """Horizon reached: totally geodesic if |h|^2 stayed ~0 over the trailing 1/(nc)."""
    n, c = params.n, params.c
    window = 1.0 / (n * c)
    ts = monitors.t
    recent = ts >= ts[-1] - window
    if ts[-1] >= window and np.all(monitors.h2_max[recent] < GEODESIC_H2 * c):
        return TerminalEvent(TerminalKind.TOTALLY_GEODESIC, float(ts[-1]))
    return TerminalEvent(TerminalKind.HORIZON_REACHED, float(ts[-1]))
