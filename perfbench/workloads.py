"""Seeded inputs, CLI calls and output validators of the benchmark workloads.

Everything here is standard library only, so the validators can be tested
without the package and the parent process stays light.

An operation is one CLI call; for ``verify_lattice`` each check of the report
is one more operation.  A call fails when it exits non-zero or its output
fails the validator taken from the repository's own gates.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

VERIFY_CHECKS = 691  # reports on the default lattice n = 3..12 x c in {0.25, 1, 4}
SWEEP_DRAWS = 16
TABLE_POINTS = 1001
TERMINAL_TOL = 1e-7  # |T - T_exact| * c, the verify suite's flow_collapse_time gate
AC8_G_RATIO = 1.05
PROFILE_COLLAPSE_TOL = 1e-5


@dataclass
class Call:
    """One CLI call: its argv, the files it writes, and its validator.

    ``check(exit_code)`` returns (attempted, failed, reasons).
    """

    argv: list
    outputs: tuple
    check: Callable[[int], tuple]


# ------------------------------------------------------------- validators


def _read_terminal(path):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return payload["terminal"], float(payload["T"])


def _data_rows(path):
    """Rows of a pinchflow CSV as dicts, skipping the '#' provenance header."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_terminal(path, kind, expected_time, tol, scale=1.0):
    """None when the terminal event has this kind and |T - expected| * scale <= tol."""
    try:
        got_kind, got_time = _read_terminal(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"{path}: unreadable terminal JSON ({exc})"
    if got_kind != kind:
        return f"{path}: terminal {got_kind}, expected {kind}"
    err = abs(got_time - expected_time) * scale
    if not err <= tol:
        return f"{path}: |T - {expected_time!r}| * scale = {err:.3e} > {tol:g}"
    return None


def check_threshold_table(path, rows=TABLE_POINTS):
    """None when the table has this many rows and every numeric field is finite."""
    try:
        table = _data_rows(path)
        if len(table) != rows:
            return f"{path}: {len(table)} rows, expected {rows}"
        for i, row in enumerate(table):
            for key, value in row.items():
                if key != "branch" and not math.isfinite(float(value)):
                    return f"{path}: row {i} has {key} = {value}"
    except (OSError, ValueError, TypeError) as exc:
        return f"{path}: unreadable table ({exc})"
    return None


def check_ac8(trace_path, terminal_path, t_max, t_from=0.1, bound=AC8_G_RATIO):
    """AC8: horizon reached at t_max and max g_sigma on [t_from, t_max] / g_sigma(t_from) <= bound.

    g_sigma(t_from) is the first recorded step at or after t_from, as in the
    acceptance test.
    """
    reason = check_terminal(terminal_path, "HorizonReached", t_max, 0.0)
    if reason:
        return reason
    try:
        table = _data_rows(trace_path)
        late = [float(r["g_sigma"]) for r in table if float(r["t"]) >= t_from]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"{trace_path}: unreadable trace ({exc})"
    if not late:
        return f"{trace_path}: no recorded step at t >= {t_from}"
    ratio = max(late) / late[0]
    if not ratio <= bound:
        return f"{trace_path}: g_sigma ratio {ratio!r} > {bound}"
    return None


def check_verify_report(path, exit_code, expected=VERIFY_CHECKS):
    """(attempted, failed, reasons) for one verify call and its checks."""
    reasons = []
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        reports = payload["reports"]
        passed = sum(1 for r in reports if r["passed"] is True)
        all_passed = payload["all_passed"] is True
    except (OSError, ValueError, KeyError, TypeError) as exc:
        reasons.append(f"{path}: unreadable report ({exc})")
        reports, passed, all_passed = [], 0, False
    failed_checks = expected - min(passed, expected)
    if exit_code != 0:
        reasons.append(f"verify exited {exit_code}")
    if len(reports) != expected:
        reasons.append(f"{path}: {len(reports)} reports, expected {expected}")
    if not all_passed:
        reasons.append(f"{path}: all_passed is not true")
    if failed_checks:
        reasons.append(f"{path}: {failed_checks} checks failed")
    return 1 + expected, int(bool(reasons)) + failed_checks, reasons


def _single(check: Callable[[], str | None]):
    """A validator for a call that is one operation."""

    def run(exit_code):
        reason = f"exit code {exit_code}" if exit_code != 0 else check()
        return 1, int(reason is not None), [reason] if reason else []

    return run


# ----------------------------------------------------------------- inputs


def sweep_draws(seed, draws=SWEEP_DRAWS):
    """The homogeneous_sweep parameter study: a list of (n, c, u, v)."""
    rng = random.Random(seed)
    out = []
    for _ in range(draws):
        n = rng.randint(3, 40)
        c = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        u = rng.uniform(0.3, 0.95)
        v = rng.uniform(0.1, 0.45)
        out.append((n, c, u, v))
    return out


def _profile_state(path, r1sq, n_points, amplitude=0.0, mode=2, c=1.0):
    """Write a latitude circle sin(phi)^2 = c r1sq with a relative cosine ripple."""
    phi0 = math.asin(math.sqrt(c * r1sq))
    step = 2.0 * math.pi / n_points
    profile = []
    for i in range(n_points):
        xi = i * step
        profile.append([phi0 * (1.0 + amplitude * math.cos(mode * xi)), xi])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"family": "axisymmetric", "profile": profile}, fh)


def verify_lattice(seed):
    # numpy seeds must be non-negative; the benchmark accepts any integer seed
    argv = ["verify", "--seed", str(seed % 2**32), "--output", "report.json"]
    return [Call(argv, ("report.json",), lambda code: check_verify_report("report.json", code))]


def homogeneous_sweep(seed):
    calls = []
    for i, (n, c, u, v) in enumerate(sweep_draws(seed)):
        base = ["--n", str(n), "--c", repr(c)]
        table = f"thr_{i}.csv"
        calls.append(
            Call(
                ["thresholds", *base, "--points", str(TABLE_POINTS), "--output", table],
                (table,),
                _single(lambda p=table: check_threshold_table(p)),
            )
        )
        r1sq = u * (n - 1.0) / (n * c)
        t_product = -math.log(1.0 - u) / (2.0 * n * c)
        for fam in ("product", "product-exact"):
            out, term = f"{fam}_{i}.csv", f"{fam}_{i}.json"
            calls.append(
                Call(
                    ["simulate", "--family", fam, *base, "--r1sq", repr(r1sq),
                     "--output", out, "--terminal-json", term],
                    (out, term),
                    _single(lambda p=term, t=t_product, s=c: check_terminal(
                        p, "GreatCircleCollapse", t, TERMINAL_TOL, s)),
                )
            )
        rho = v * math.pi / math.sqrt(c)
        t_sphere = -math.log(math.cos(math.sqrt(c) * rho)) / (n * c)
        out, term = f"sphere_{i}.csv", f"sphere_{i}.json"
        calls.append(
            Call(
                ["simulate", "--family", "sphere", *base, "--rho", repr(rho),
                 "--output", out, "--terminal-json", term],
                (out, term),
                _single(lambda p=term, t=t_sphere, s=c: check_terminal(
                    p, "RoundPoint", t, TERMINAL_TOL, s)),
            )
        )
    return calls


def profile_flow(seed):
    rng = random.Random(seed)
    amplitude = rng.uniform(0.004, 0.006)
    # (a) AC8: ripple on the minimal torus r1^2 = (n-1)/n, spline redistribution every step.
    _profile_state("state_a.json", 0.9, 96, amplitude)
    # (b) uniform circle to collapse at log(6)/20: redistribution passes through.
    _profile_state("state_b.json", 0.75, 128)
    flow = ["simulate", "--family", "axisymmetric", "--n", "10", "--c", "1", "--epsilon", "0"]
    return [
        Call(
            [*flow, "--profile", "state_a.json", "--t-max", "0.25",
             "--output", "ac8.csv", "--terminal-json", "ac8.json"],
            ("ac8.csv", "ac8.json"),
            _single(lambda: check_ac8("ac8.csv", "ac8.json", 0.25)),
        ),
        Call(
            [*flow, "--profile", "state_b.json", "--t-max", "0.2",
             "--output", "collapse.csv", "--terminal-json", "collapse.json"],
            ("collapse.csv", "collapse.json"),
            _single(lambda: check_terminal(
                "collapse.json", "GreatCircleCollapse", math.log(6.0) / 20.0,
                PROFILE_COLLAPSE_TOL)),
        ),
    ]


# Each builder writes its input files to the current directory and returns its calls.
BUILDERS = {
    "verify_lattice": verify_lattice,
    "homogeneous_sweep": homogeneous_sweep,
    "profile_flow": profile_flow,
}
WORKLOADS = tuple(BUILDERS)
