"""Scalar Dormand–Prince 5(4) integration with terminal events, in Python floats.

The pair is Dormand & Prince (J. Comput. Appl. Math. 6, 1980), advanced with
the 5th-order solution (local extrapolation).  Step control follows Hairer,
Nørsett & Wanner, Solving ODEs I, §II.4, with the constants of scipy's RK45:
safety factor 0.9, step factors clamped to [0.2, 10], error exponent -1/5, no
growth right after a rejection, and the same initial-step heuristic.  Events
are located on the step's 4th-order dense output (§II.6) by bisection to
adjacent floats, and every event is terminal: the solution ends at the first
root.

Both homogeneous flow reductions are scalar, so the state is one float and a
step costs six right-hand-side calls and a few dozen float operations.
Integration runs forward in time only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StepUnderflow

SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0

# Error weights of the embedded pair over k1..k7 (k2 has weight 0).
E1, E3, E4, E5, E6, E7 = -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40
# Dense output y(t_old + x h) = y_old + h sum_j (sum_i P[i][j] k_i) x^(j+1) over k1, k3..k7;
# k2's weights are zero.
P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)


@dataclass
class OdeSolution:
    """Accepted times ``t`` and states ``y`` (shape (1, m)), as scipy's solve_ivp returns them.

    status is 0 at the end of the interval and 1 after a terminal event;
    ``t_events[i]`` holds the root of event i if it ended the run.
    """

    t: np.ndarray
    y: np.ndarray
    nfev: int
    status: int
    t_events: list
    message: str


def _initial_step(rhs, t0, y0, f0, t_bound, max_step, rtol, atol):
    """Hairer–Nørsett–Wanner starting step for an error estimate of order 4."""
    span = t_bound - t0
    scale = atol + abs(y0) * rtol
    d0, d1 = abs(y0) / scale, abs(f0) / scale
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = abs(rhs(t0 + h0, y0 + h0 * f0) - f0) / scale / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span, max_step)


def _crossed(g_old, g_new, direction):
    """Whether an event value crossed zero over a step in its direction."""
    return g_old <= 0.0 <= g_new if direction > 0 else g_new <= 0.0 <= g_old


def _locate(g, dense, lo, hi):
    """Root of g(t, dense(t)) in [lo, hi], given a sign change.

    Bisection runs until lo and hi are adjacent floats, well inside 4 eps:
    near a round point |y'| reaches ~1e8, so an error in t shows in y.
    """
    g_lo = g(lo, dense(lo))
    if g_lo == 0.0:
        return lo
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        g_mid = g(mid, dense(mid))
        if (g_mid > 0.0) == (g_lo > 0.0) and g_mid != 0.0:
            lo, g_lo = mid, g_mid
        else:
            hi = mid


def solve_ivp(rhs, t_span, y0, *, rtol, atol, events=(), first_step=None, max_step=math.inf):
    """Integrate y' = rhs(t, y) for a float y over t_span = (t0, t_bound), t_bound > t0.

    ``events`` are (g, direction) pairs: g(t, y) is a float, and the event
    fires when g crosses zero upward (direction > 0) or downward (< 0).  A step
    below 10 ulp(t) raises StepUnderflow.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    y = float(y0)
    f = rhs(t, y)
    nfev = 1
    if first_step is None:
        h_abs = _initial_step(rhs, t, y, f, t_bound, max_step, rtol, atol)
        nfev += 1
    else:
        h_abs = first_step
    ts, ys = [t], [y]
    g_old = [g(t, y) for g, _ in events]
    t_events = [[] for _ in events]
    status = None
    while status is None:
        min_step = 10.0 * math.ulp(t)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepUnderflow(f"integrator step fell below 10 ulp at t = {t!r}")
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            k1 = f
            k2 = rhs(t + h / 5, y + h * (k1 / 5))
            k3 = rhs(t + 3 * h / 10, y + h * (3 / 40 * k1 + 9 / 40 * k2))
            k4 = rhs(t + 4 * h / 5, y + h * (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3))
            k5 = rhs(t + 8 * h / 9, y + h * (
                19372 / 6561 * k1 - 25360 / 2187 * k2 + 64448 / 6561 * k3 - 212 / 729 * k4))
            k6 = rhs(t_new, y + h * (
                9017 / 3168 * k1 - 355 / 33 * k2 + 46732 / 5247 * k3 + 49 / 176 * k4
                - 5103 / 18656 * k5))
            y_new = y + h * (
                35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4 - 2187 / 6784 * k5 + 11 / 84 * k6)
            k7 = rhs(t_new, y_new)
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
        if t >= t_bound:
            status = 0
        g_new = [g(t, y) for g, _ in events]
        fired = [i for i, (_, sense) in enumerate(events) if _crossed(g_old[i], g_new[i], sense)]
        if fired:
            q = [sum(k * row[j] for k, row in zip(ks, P)) for j in range(4)]

            def dense(s):
                x = (s - t_old) / h
                return y_old + h * x * (q[0] + x * (q[1] + x * (q[2] + x * q[3])))

            root, i = min((_locate(events[i][0], dense, t_old, t), i) for i in fired)
            t_events[i].append(root)
            t, y, status = root, dense(root), 1
        g_old = g_new
        ts.append(t)
        ys.append(y)
    message = "A termination event occurred." if status else "Reached the end of the interval."
    return OdeSolution(
        np.array(ts), np.array([ys]), nfev, status, [np.array(te) for te in t_events], message
    )
