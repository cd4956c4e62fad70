"""Scalar autonomous Dormand–Prince 5(4) integration with level events, in Python floats.

The pair is Dormand & Prince (J. Comput. Appl. Math. 6, 1980), advanced with
the 5th-order solution (local extrapolation).  Step control follows Hairer,
Nørsett & Wanner, Solving ODEs I, §II.4, with the constants of scipy's RK45:
safety factor 0.9, step factors clamped to [0.2, 10], error exponent -1/5, no
growth right after a rejection, and the same initial-step heuristic.  An
event is a level of y and a direction.  Events are located on the step's
4th-order dense output (§II.6) by bisection to adjacent floats, and every
event is terminal: the solution ends at the first root, and an initial value
already on or past a level ends it at t = 0.

Both homogeneous flow reductions are scalar and autonomous, so the state is
one float, the right-hand side takes y alone, and a step costs six
right-hand-side calls and a few dozen float operations.  Integration runs
forward in time from t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StepUnderflow

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


@dataclass(frozen=True)
class OdeSolution:
    """Accepted times ``t`` and states ``y`` (1-D), and the right-hand-side calls ``nfev``.

    ``event`` is the index of the event that ended the run at ``t[-1]``, or
    None when the run reached the end of the interval.
    """

    t: np.ndarray
    y: np.ndarray
    nfev: int
    event: int | None


def _initial_step(rhs, y0, f0, t_bound, rtol, atol):
    """Hairer–Nørsett–Wanner starting step for an error estimate of order 4."""
    scale = atol + abs(y0) * rtol
    d0, d1 = abs(y0) / scale, abs(f0) / scale
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound)
    d2 = abs(rhs(y0 + h0 * f0) - f0) / scale / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, t_bound)


def _past(y, level, direction):
    """Whether y lies on or past an event level, seen in the event's direction."""
    return y >= level if direction > 0 else y <= level


def _locate(level, dense, lo, hi):
    """Root of dense(t) - level in [lo, hi], given a sign change.

    Bisection runs until lo and hi are adjacent floats, well inside 4 eps:
    near a round point |y'| reaches ~1e8, so an error in t shows in y.
    """
    g_lo = dense(lo) - level
    if g_lo == 0.0:
        return lo
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        g_mid = dense(mid) - level
        if (g_mid > 0.0) == (g_lo > 0.0) and g_mid != 0.0:
            lo, g_lo = mid, g_mid
        else:
            hi = mid


def solve_ivp(rhs, t_bound, y0, *, rtol, atol, events=(), max_step=None):
    """Integrate y' = rhs(y) for a float y from t = 0 to t_bound > 0.

    ``events`` are (level, direction) pairs: event i fires when y reaches its
    level moving up (direction > 0) or down (< 0).  Before each step y lies
    strictly on the near side of every level, so an event fires exactly when
    a step ends on or past its level; a y0 already there ends the run at
    t = 0 with no step taken.  ``max_step``, when given, bounds every step and
    is the first step; otherwise the starting-step heuristic picks the first
    step.  A step below 10 ulp(t) raises StepUnderflow, and a y0 or rhs(y0)
    that is not finite raises DomainError before the first step.
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
