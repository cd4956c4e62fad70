"""Command-line interface: outputs, schemas, determinism, exit codes."""

import contextlib
import io
import itertools
import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinchflow
from pinchflow.cli import _load_state, build_parser, main
from pinchflow.flow import FlowConfig, product_collapse_time
from pinchflow.thresholds import PinchingParams
from pinchflow.verify import DEFAULT_CS, DEFAULT_NS


def test_constants_command(tmp_path, capsys):
    out = tmp_path / "constants.json"
    code = main(["constants", "--n", "10", "--c", "1", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 10
    assert payload["y_n"] == pytest.approx(12.0, abs=1e-9)
    assert payload["k_n"] == pytest.approx(6.0, abs=1e-9)
    assert payload["x1"] == pytest.approx(12.0, abs=1e-9)
    assert payload["bneq_residual"] < 1e-10
    assert payload["meta"]["tool"] == "pinchflow"


def test_thresholds_command_single_point(tmp_path):
    out = tmp_path / "thr.csv"
    code = main(["thresholds", "--n", "3", "--c", "1", "--x", "0", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# pinchflow")
    header = lines[2].split(",")
    assert header == ["n", "c", "x", "alpha", "beta", "gamma", "gamma_d1", "gamma_d2", "omega", "branch"]
    row = dict(zip(header, lines[3].split(",")))
    assert row["branch"] == "beta"
    assert float(row["gamma"]) == float(row["beta"])
    assert float(row["gamma"]) == pytest.approx(2.6614221762502215, rel=1e-12)


def test_thresholds_command_table(tmp_path):
    out = tmp_path / "thr.csv"
    code = main(
        ["thresholds", "--n", "10", "--c", "1", "--x-min", "0", "--x-max", "40",
         "--points", "81", "--output", str(out)]
    )
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 81
    branches = {r.split(",")[-1] for r in rows}
    assert branches == {"alpha", "beta"}


def test_simulate_product_collapse(tmp_path):
    trace = tmp_path / "trace.csv"
    term = tmp_path / "terminal.json"
    code = main(
        ["simulate", "--family", "product", "--n", "10", "--c", "1", "--r1sq", "0.75",
         "--tol", "1e-12", "--t-max", "1.0", "--output", str(trace),
         "--terminal-json", str(term)]
    )
    assert code == 0
    payload = json.loads(term.read_text())
    assert payload["terminal"] == "GreatCircleCollapse"
    assert payload["T"] == pytest.approx(np.log(6.0) / 20.0, abs=1e-7)
    assert payload["T"] == pytest.approx(0.0895880, abs=1e-7)
    lines = [l for l in trace.read_text().splitlines() if not l.startswith("#")]
    assert lines[0].split(",")[:4] == ["t", "family", "param", "H_max"]
    assert len(lines) > 10


@pytest.mark.parametrize("family_flag", ["product", "product-exact"])
@pytest.mark.parametrize("n", [3, 4, 10])
def test_default_product_state_collapses_for_every_n(family_flag, n, tmp_path):
    # the default r1^2 = 5(n-1)/(6nc) gives d = 1/6, so the collapse time is log(6)/(2nc)
    term = tmp_path / "terminal.json"
    code = main(["simulate", "--family", family_flag, "--n", str(n),
                 "--output", str(tmp_path / "trace.csv"), "--terminal-json", str(term)])
    assert code == 0
    payload = json.loads(term.read_text())
    assert payload["terminal"] == "GreatCircleCollapse"
    assert payload["T"] == pytest.approx(np.log(6.0) / (2.0 * n), rel=1e-6)


def test_simulate_sphere(tmp_path):
    trace = tmp_path / "trace.csv"
    code = main(
        ["simulate", "--family", "sphere", "--n", "3", "--c", "1", "--rho", "0.9",
         "--tol", "1e-10", "--t-max", "5.0", "--output", str(trace)]
    )
    assert code == 0


@pytest.mark.parametrize("rho", ["-1", "4"])
def test_simulate_sphere_radius_out_of_range_is_a_runtime_error(rho, tmp_path, capsys):
    # with --epsilon given, no curvature is read before the run; the radius is
    # still checked before z = (sqrt(c) rho)^2 folds it onto one in range
    trace = tmp_path / "trace.csv"
    code = main(
        ["simulate", "--family", "sphere", "--n", "3", "--c", "1", f"--rho={rho}",
         "--epsilon", "0", "--output", str(trace)]
    )
    assert code == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith("error:") and "geodesic sphere radius" in stderr
    assert not trace.exists()


def _write_profile(path, phi, xi):
    path.write_text(
        json.dumps({"family": "axisymmetric", "profile": np.stack([phi, xi], 1).tolist()})
    )


def test_simulate_axisymmetric_from_state_file(tmp_path):
    from pinchflow.axisym import product_profile
    from pinchflow.thresholds import PinchingParams

    state_file = tmp_path / "state.json"
    _write_profile(state_file, *product_profile(PinchingParams(n=10, c=1.0), 0.9, n_points=48))
    trace = tmp_path / "trace.csv"
    code = main(
        ["simulate", "--family", "axisymmetric", "--n", "10", "--c", "1",
         "--profile", str(state_file), "--epsilon", "0.0", "--t-max", "0.01",
         "--output", str(trace)]
    )
    assert code == 0
    assert trace.exists()


def test_simulate_axisymmetric_horizon_below_step_floor(tmp_path, capsys):
    from pinchflow.axisym import product_profile
    from pinchflow.thresholds import PinchingParams

    state_file, term = tmp_path / "state.json", tmp_path / "terminal.json"
    _write_profile(state_file, *product_profile(PinchingParams(n=10, c=1.0), 0.75, n_points=48))
    code = main(
        ["simulate", "--family", "axisymmetric", "--profile", str(state_file),
         "--t-max", "1e-13", "--output", str(tmp_path / "trace.csv"),
         "--terminal-json", str(term)]
    )
    assert code == 0
    payload = json.loads(term.read_text())
    assert (payload["terminal"], payload["T"]) == ("HorizonReached", 1e-13)


def test_simulate_axisymmetric_past_the_step_budget_exits_at_once(tmp_path, capsys):
    # the minimal torus to t = 1e6 would take ~1.3e8 steps, about a day
    from pinchflow.axisym import product_profile

    state_file, trace = tmp_path / "state.json", tmp_path / "trace.csv"
    _write_profile(state_file, *product_profile(PinchingParams(n=10, c=1.0), 0.9, n_points=96))
    start = time.perf_counter()
    code = main(
        ["simulate", "--family", "axisymmetric", "--n", "10", "--c", "1",
         "--profile", str(state_file), "--t-max", "1e6", "--output", str(trace)]
    )
    assert time.perf_counter() - start < 1.0
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "budget" in err and "Traceback" not in err
    assert not trace.exists()


def test_simulate_axisymmetric_collapse_prints_a_float_time(tmp_path, capsys):
    from pinchflow.axisym import product_profile
    from pinchflow.thresholds import PinchingParams

    state_file, term = tmp_path / "state.json", tmp_path / "terminal.json"
    _write_profile(state_file, *product_profile(PinchingParams(n=10, c=1.0), 0.75, n_points=48))
    code = main(
        ["simulate", "--family", "axisymmetric", "--n", "10", "--c", "1",
         "--profile", str(state_file), "--epsilon", "0.0", "--t-max", "0.2",
         "--output", str(tmp_path / "trace.csv"), "--terminal-json", str(term)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "terminal: GreatCircleCollapse at T = 0.0895" in stdout
    assert "np.float64" not in stdout
    payload = json.loads(term.read_text())
    assert payload["T"] == pytest.approx(np.log(6.0) / 20.0, abs=1e-5)


@pytest.mark.parametrize("column", [0, 1])
def test_simulate_nonfinite_profile_is_a_runtime_error(column, tmp_path, capsys):
    from pinchflow.axisym import product_profile
    from pinchflow.thresholds import PinchingParams

    profile = np.stack(product_profile(PinchingParams(n=10, c=1.0), 0.9, n_points=48), 1)
    profile[5, column] = np.nan
    state_file, trace = tmp_path / "state.json", tmp_path / "trace.csv"
    _write_profile(state_file, profile[:, 0], profile[:, 1])
    code = main(
        ["simulate", "--family", "axisymmetric", "--n", "10", "--c", "1",
         "--profile", str(state_file), "--epsilon", "0.0", "--t-max", "0.01",
         "--output", str(trace)]
    )
    assert code == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith("error:") and "non-finite" in stderr
    assert "Traceback" not in stderr
    assert not trace.exists()


def test_simulate_repeated_profile_sample_is_a_runtime_error(tmp_path, capsys):
    from pinchflow.axisym import perturbed_product_profile
    from pinchflow.thresholds import PinchingParams

    phi, xi = perturbed_product_profile(PinchingParams(n=10, c=1.0), 0.9, 0.05, n_points=48)
    phi, xi = np.insert(phi, 5, phi[5]), np.insert(xi, 5, xi[5])
    state_file, trace = tmp_path / "state.json", tmp_path / "trace.csv"
    _write_profile(state_file, phi, xi)
    code = main(
        ["simulate", "--family", "axisymmetric", "--profile", str(state_file),
         "--output", str(trace)]
    )
    assert code == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith("error:") and "repeats a sample" in stderr
    assert not trace.exists()


def test_simulate_collapsed_profile_neighbours_is_a_runtime_error(tmp_path, capsys):
    from pinchflow.axisym import perturbed_product_profile
    from pinchflow.thresholds import PinchingParams

    # the input of test_resample_rejects_collapsed_neighbours, never redistributed
    phi, xi = perturbed_product_profile(PinchingParams(n=10, c=1.0), 0.75, 0.05, n_points=32)
    near_phi = phi[3] + 1e-5 * (phi[4] - phi[3])
    near_xi = xi[3] + 1e-5 * (xi[4] - xi[3])
    state_file, trace = tmp_path / "state.json", tmp_path / "trace.csv"
    _write_profile(state_file, np.insert(phi, 4, near_phi), np.insert(xi, 4, near_xi))
    code = main(
        ["simulate", "--family", "axisymmetric", "--profile", str(state_file),
         "--output", str(trace)]
    )
    assert code == 1
    stderr = capsys.readouterr().err
    assert stderr == "error: adjacent profile samples closer than 0.001 of the mean chord\n"
    assert not trace.exists()


def test_verify_subset_green(tmp_path):
    report = tmp_path / "report.json"
    code = main(
        ["verify", "--n-values", "10", "--c-values", "1", "--grid-points", "3000",
         "--output", str(report)]
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["all_passed"] is True
    assert len(payload["reports"]) > 10


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_verify_report_is_strict_json(tmp_path, capsys):
    # the flow oracles have no worst point: it is written as null, not NaN
    report = tmp_path / "r.json"
    code = main(
        ["verify", "--n-values", "3", "--c-values", "1", "--grid-points", "300",
         "--output", str(report)]
    )
    assert code == 0
    payload = json.loads(report.read_text(), parse_constant=_no_constant)
    nulls = {r["check_id"] for r in payload["reports"] if r["worst_x"] is None}
    assert nulls == {"flow_reaction_consistency", "flow_weak_equality"}
    assert " nan\n" in capsys.readouterr().out  # the table keeps printing nan


def test_outputs_byte_identical(tmp_path):
    # identical config (including the echoed output path) -> identical bytes
    out = tmp_path / "table.csv"
    args = ["thresholds", "--n", "5", "--c", "1", "--points", "50",
            "--x-min", "0", "--x-max", "10", "--output", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


def test_simulate_product_from_json_state(tmp_path):
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps({"family": "product", "n": 10, "c": 1.0,
                                      "lambda": 0.57735}))
    trace = tmp_path / "trace.csv"
    curv = tmp_path / "curvature.csv"
    code = main(
        ["simulate", "--family", "product", "--n", "10", "--c", "1",
         "--profile", str(state_file), "--t-max", "0.01", "--output", str(trace),
         "--curvature-csv", str(curv)]
    )
    assert code == 0
    lines = [l for l in curv.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "s,H,h2,h0_2,gamma,margin"
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(2.0 * np.sqrt(3.0), rel=1e-4)
    assert float(row[5]) == pytest.approx(0.0, abs=1e-3)  # near-boundary datum


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--family", "nonsense"])
    assert err.value.code == 2


def test_verify_rejects_removed_workers_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--workers", "2"])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "unrecognized arguments: --workers 2" in stderr
    assert "Traceback" not in stderr


def test_simulate_rejects_removed_eta_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--eta", "0.1"])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "unrecognized arguments: --eta 0.1" in stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize(
    "payload",
    [[1, 2, 3], {"family": "product", "lambda": None}, {"family": "sphere", "rho": [0.5]}],
)
def test_simulate_malformed_state_file_is_a_runtime_error(payload, tmp_path, capsys):
    state_file, trace = tmp_path / "state.json", tmp_path / "trace.csv"
    state_file.write_text(json.dumps(payload))
    code = main(["simulate", "--profile", str(state_file), "--output", str(trace)])
    assert code == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith("error:") and "Traceback" not in stderr
    assert not trace.exists()


def test_runtime_error_exit_code(capsys):
    # axisymmetric without a profile file is a run failure, not a crash
    assert main(["simulate", "--family", "axisymmetric", "--n", "10", "--c", "1"]) == 1


@pytest.mark.parametrize("bound", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("flag", ["--x-min", "--x-max"])
def test_thresholds_nonfinite_grid_bound_is_a_runtime_error(flag, bound, tmp_path, capsys):
    # rejected before np.linspace, which would warn on it
    out = tmp_path / "thr.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["thresholds", f"{flag}={bound}", "--points", "1", "--output", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_thresholds_nan_abscissa_is_a_runtime_error(tmp_path, capsys):
    # x/c beyond 1e60 would overflow into a NaN row, so it is rejected as well
    out = tmp_path / "thr.csv"
    for c, x in (("1", "nan"), ("1", "1e200"), ("1e-160", "1")):
        assert main(["thresholds", "--n", "10", "--c", c, "--x", x, "--output", str(out)]) == 1
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, c, name",
    [
        ("thresholds", "1e200", "thr.csv"),
        ("thresholds", "1e-200", "thr.csv"),
        ("constants", "1e-200", "constants.json"),
    ],
)
def test_extreme_curvature_writes_finite_numbers(command, c, name, tmp_path, capsys):
    out = tmp_path / name
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--n", "10", "--c", c, "--output", str(out)]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if command == "constants":
        payload = json.loads(out.read_text())
        numbers = [v for v in payload.values() if isinstance(v, float)]
        assert len(numbers) == 6
    else:
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 1002 and rows[0][-1] == "branch"
        numbers = [float(v) for row in rows[1:] for v in row[:-1]]
    assert np.all(np.isfinite(numbers))


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--n", "10", "--c", "3e307", "--output", "{out}"],
        ["verify", "--n-values", "10", "--c-values", "1e307", "--grid-points", "50",
         "--output", "{out}"],
        # below it: a subnormal c, or one that makes x1 = 0.243 c subnormal at n = 3
        ["constants", "--n", "3", "--c", "1e-320", "--output", "{out}"],
        ["constants", "--n", "3", "--c", "5e-308", "--output", "{out}"],
        ["verify", "--n-values", "3", "--c-values", "1e-310", "--grid-points", "50",
         "--output", "{out}"],
        ["simulate", "--family", "sphere", "--c", "5e-324", "--output", "{out}"],
        # the profile route's horizon t_max c overflows
        ["simulate", "--family", "axisymmetric", "--c", "10", "--t-max", "1e308",
         "--profile", "{profile}", "--output", "{out}"],
        # the initial curvature the default epsilon reads overflows
        ["simulate", "--family", "axisymmetric", "--c", "8.98846567431158e307",
         "--profile", "{profile}", "--output", "{out}"],
    ],
)
def test_family_past_the_double_range_is_a_runtime_error(argv, tmp_path, capsys):
    # x0 = y_n c and the top of the grid, 100 c, overflow, c is subnormal, or the
    # horizon or the initial curvature overflows: a typed error, no warning, and
    # nothing written (no "x0": Infinity in the JSON)
    out, profile = tmp_path / "out.json", tmp_path / "circle.json"
    xi = np.arange(64) * (2.0 * np.pi / 64)
    _write_profile(profile, np.full(64, 1.0), xi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([a.format(out=out, profile=profile) for a in argv]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["thresholds", "--output", "{missing}"],
        ["constants", "--output", "{missing}"],
        ["verify", "--n-values", "3", "--c-values", "1", "--output", "{missing}"],
        ["simulate", "--output", "{missing}"],
        ["simulate", "--output", "{tmp}/trace.csv", "--terminal-json", "{missing}"],
    ],
)
def test_unwritable_output_is_a_runtime_error(argv, tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "out"
    argv = [a.format(missing=missing, tmp=tmp_path) for a in argv]
    assert main(argv) == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith(f"error: cannot write {str(missing)!r}")
    assert "Traceback" not in stderr


def test_product_radius_error_shows_a_float(capsys):
    assert main(["simulate", "--family", "product", "--r1sq", "5"]) == 1
    stderr = capsys.readouterr().err
    assert "got 5.0" in stderr and "array(" not in stderr


def test_cli_calls_in_one_process_are_independent(tmp_path, capsys):
    # main reuses one parser per process; no call may leave a value in it
    assert build_parser() is build_parser()
    assert main(["verify", "--n-values", "3", "--c-values", "1"]) == 0
    args = build_parser().parse_args(["verify"])
    assert args.n_values == list(DEFAULT_NS) and args.c_values == list(DEFAULT_CS)
    one, table = tmp_path / "one.csv", tmp_path / "table.csv"
    assert main(["thresholds", "--x", "1", "--output", str(one)]) == 0
    assert main(["thresholds", "--points", "5", "--output", str(table)]) == 0
    assert build_parser().parse_args(["thresholds"]).x is None
    assert len(table.read_text().splitlines()) == 3 + 5


@pytest.mark.parametrize(
    "argv",
    [
        ["thresholds", "--points", "-3"],
        ["thresholds", "--points", "0"],
        ["verify", "--n-values"],
        ["verify", "--c-values"],
        ["verify", "--grid-points", "-5"],
        ["verify", "--grid-points", "0"],
        ["verify", "--grid-points", "2"],
    ],
)
def test_empty_tables_and_lattices_are_usage_errors(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv + ["--output", str(tmp_path / "out")])
    assert err.value.code == 2
    assert not (tmp_path / "out").exists()
    assert "Traceback" not in capsys.readouterr().err


def test_simulate_negative_horizon_writes_nothing(tmp_path):
    trace, curv = tmp_path / "trace.csv", tmp_path / "curvature.csv"
    code = main(
        ["simulate", "--family", "product", "--r1sq", "0.75", "--t-max", "-1",
         "--output", str(trace), "--curvature-csv", str(curv)]
    )
    assert code == 1
    assert not trace.exists() and not curv.exists()


@contextlib.contextmanager
def _expires_after(seconds):
    """Fail a run that outlasts seconds with TimeoutError (SIGALRM) instead of letting it hang."""

    def expire(signum, frame):
        raise TimeoutError(f"the run did not end within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """Fail a run that outlasts 5 s with TimeoutError instead of letting it hang."""
    with _expires_after(5.0):
        yield


# States already on or past an event level, with their terminal and the exact
# time (None: a blowup, reported at t = 0).  No step can cross a level these
# states already lie past, so only the check on the initial value ends them;
# without it rho oscillates across the axis and r1^2 integrates through 0 or 1/c.
PAST_LEVEL_RUNS = [
    (["--family", "sphere", "--rho", "1e-7"], "RoundPoint", -np.log(np.cos(1e-7)) / 10.0),
    (["--family", "sphere", "--rho", "3.1415926"], "RoundPoint",
     -np.log(np.cos(np.pi - 3.1415926)) / 10.0),
    (["--family", "product", "--r1sq", "1e-9"], "GreatCircleCollapse",
     -np.log1p(-10.0 * 1e-9 / 9.0) / 20.0),
    (["--family", "product", "--r1sq", "0.99999999999"], "Blowup", None),
    (["--family", "product", "--lam", "1e-4"], "Blowup", None),
    (["--family", "product-exact", "--r1sq", "1e-9"], "GreatCircleCollapse",
     -np.log1p(-10.0 * 1e-9 / 9.0) / 20.0),
]


@pytest.mark.parametrize(
    "argv, kind, exact", PAST_LEVEL_RUNS,
    ids=["sphere-near-0", "sphere-near-pi", "product-collapsed", "product-r1sq-fat",
         "product-lam-fat", "product-exact-collapsed"],
)
def test_state_past_an_event_level_ends_at_once(argv, kind, exact, tmp_path, deadline):
    trace, term = tmp_path / "trace.csv", tmp_path / "terminal.json"
    start = time.perf_counter()
    code = main(["simulate", *argv, "--output", str(trace), "--terminal-json", str(term)])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    rows = [l for l in trace.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 1 and float(rows[0].split(",")[0]) == 0.0
    payload = json.loads(term.read_text())
    assert payload["terminal"] == kind
    if exact is None:
        assert payload["T"] == 0.0
    else:
        assert abs(payload["T"] - exact) <= 2.5e-9


# Default states at n = 10: the sphere rho = 0.3 pi/sqrt(c), the product and
# the profile circle r1^2 = 0.75/c; c times the exact collapse time of each.
UNIT_COLLAPSE_TIMES = {
    "sphere": -np.log(np.cos(0.3 * np.pi)) / 10.0,
    "product": np.log(6.0) / 20.0,
    "product-exact": np.log(6.0) / 20.0,
    "axisymmetric": np.log(6.0) / 20.0,
}


def test_every_family_runs_or_fails_typed_across_c(tmp_path, capsys, deadline):
    # c = 2^k from 2^-1000 to 2^1000: a run ends in finite rows and its closed-form
    # time, or in a typed error; no other exception leaves main
    profile = tmp_path / "circle.json"
    xi = np.arange(64) * (2.0 * np.pi / 64)
    _write_profile(profile, np.full(64, np.arcsin(np.sqrt(0.75))), xi)
    trace, term = tmp_path / "trace.csv", tmp_path / "terminal.json"
    ran = 0
    for family_flag, unit_time in UNIT_COLLAPSE_TIMES.items():
        rtol = 1e-5 if family_flag == "axisymmetric" else 1e-7
        for k in (-1074, -1060, -1000, -500, -200, -40, 0, 40, 200, 500, 1000):
            c = 2.0 ** k
            argv = ["simulate", "--family", family_flag, "--c", repr(c), "--output", str(trace),
                    "--terminal-json", str(term)]
            if family_flag == "axisymmetric":
                argv += ["--profile", str(profile)]
            code = main(argv)
            stderr = capsys.readouterr().err
            if k < -1022:  # a subnormal c fails where it enters
                assert code == 1 and "must be a normal double" in stderr, (family_flag, k)
            if code == 1:
                assert stderr.startswith("error: "), (family_flag, k, stderr)
                continue
            assert code == 0, (family_flag, k)
            rows = [l.split(",") for l in trace.read_text().splitlines() if not l.startswith("#")]
            values = [float(v) for row in rows[1:] for v in row[:1] + row[3:]]
            assert np.all(np.isfinite(values)), (family_flag, k)
            T = json.loads(term.read_text())["T"]
            assert abs(T * c - unit_time) <= rtol * unit_time, (family_flag, k, T * c)
            ran += 1
    assert ran >= 4 * 8  # every family runs to its end up to c = 2^500
    # near the top of the double range the initial state's curvature overflows
    for argv in (["--family", "sphere", "--c", "1.7e308"],
                 ["--family", "product", "--c", "1.7e308"],
                 ["--family", "product", "--lam", "0.5", "--c", "1e200"]):
        assert main(["simulate", *argv, "--output", str(trace)]) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(pinchflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = tmp_path / "constants.json"
    done = subprocess.run(
        [sys.executable, "-m", "pinchflow", "constants", "--n", "10", "--output", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(out.read_text())["k_n"] == pytest.approx(6.0, abs=1e-9)


@pytest.mark.parametrize("tol", ["1e-30", "1e-320", "2.2e-14"])
def test_tolerance_below_the_integrator_floor_is_a_runtime_error(tol, tmp_path, capsys, deadline):
    # below 100 eps the step count grows like tol^(-1/5) without gaining digits
    trace = tmp_path / "trace.csv"
    start = time.perf_counter()
    assert main(["simulate", "--family", "sphere", "--tol", tol, "--output", str(trace)]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error: tol must be at least 100 eps")
    assert not trace.exists()


@pytest.mark.parametrize("family_flag", ["product-exact", "axisymmetric"])
def test_tolerance_on_a_route_that_reads_none_is_a_usage_error(family_flag, tmp_path, capsys):
    # the closed form and the fixed-step profile route read no tol, so a given
    # one is refused before anything runs, whatever its value
    trace = tmp_path / "trace.csv"
    for tol in ("1e-3", "1e-30"):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--family", family_flag, "--n", "10", "--c", "1", "--tol", tol,
                  "--output", str(trace)])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("usage:") and "Traceback" not in stderr
        assert "--tol applies only to --family sphere and product" in stderr
    assert not trace.exists()


def test_tolerance_defaults_in_the_config_echo(tmp_path):
    # a run without --tol echoes the tol of FlowConfig, as when the flag had a default
    trace = tmp_path / "trace.csv"
    assert main(["simulate", "--family", "product-exact", "--output", str(trace)]) == 0
    echo = next(line for line in trace.read_text().splitlines() if line.startswith("# config"))
    assert '"tol": 1e-10' in echo


def test_verify_past_the_double_range_exits_without_a_traceback(tmp_path):
    # the lattice checks run at c = 1, so c = 1e-200 and 1e200 pass without a
    # warning; at 1e300 the flows' curvature leaves the double range: a typed error
    src = str(Path(pinchflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for c, code in (("1e-200", 0), ("1e200", 0), ("1e300", 1)):
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "pinchflow", "verify",
             "--n-values", "3", "10", "--c-values", c, "--grid-points", "50"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == code, (c, done.stderr)
        assert "Traceback" not in done.stderr, c
        if code == 0:
            assert done.stdout.rstrip().endswith("56/56 checks passed"), c
        else:
            assert done.stderr.startswith("error: "), c


@pytest.mark.parametrize(
    "argv",
    [
        ["thresholds", "--n", "10", "--points", "10000000000"],
        ["verify", "--n-values", "3", "--c-values", "1", "--grid-points", "3000000000"],
    ],
    ids=["thresholds", "verify"],
)
def test_a_size_past_memory_exits_without_a_traceback(tmp_path, argv):
    # the child caps its own address space at 2 GB, so numpy refuses the
    # allocation at once on any host
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from pinchflow.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(pinchflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", child, *argv], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: out of memory: "), done.stderr
    assert "Traceback" not in done.stderr


def test_cli_import_loads_no_heavy_scipy_module():
    # scipy.interpolate pulls in scipy.special and fitpack, and dominated the
    # start-up of every command; the package needs scipy.linalg alone.
    src = str(Path(pinchflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    heavy = ("scipy.interpolate", "scipy.optimize", "scipy.special")
    probe = f"import sys, pinchflow.cli; print([m for m in {heavy!r} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# ------------------------------------------------------------------ fuzzing

# Each flag takes one of a few admissible values, except up to two flags that
# take one of BAD_VALUES.  The sizes stay small: at most 50 table or grid
# points, and verify on one (n, c).
BAD_VALUES = ["0", "-1", "-2.5", "nan", "inf", "-inf"]
SIZE_VALUES = ["1", "3", "50"]
PARAM_FLAGS = {"--n": ["3", "10"], "--c": ["1", "0.25", "4", "1e-200", "1e200"]}
FUZZ_FLAGS = {
    "thresholds": {
        **PARAM_FLAGS, "--x": ["0", "2.5"], "--x-min": ["0", "1"], "--x-max": ["10", "50"],
    },
    "constants": PARAM_FLAGS,
    "verify": {"--seed": ["0", "7"]},
    "simulate": {
        **PARAM_FLAGS,
        "--family": ["sphere", "product", "product-exact", "axisymmetric"],
        "--rho": ["0.5", "2"], "--r1sq": ["0.5", "0.95"], "--lam": ["0.5", "2"],
        "--epsilon": ["0", "0.01"], "--sigma": ["0.1", "0.5"],
        # 1e6: past the profile route's step budget, which it must refuse at once (D12)
        "--t-max": ["0.01", "0.1", "1e6"],
        "--tol": ["1e-8", "1e-4"],
        "--profile": ["profile.json", "wound.json", "list.json", "null.json"],
    },
}
REQUIRED_FLAGS = {
    "thresholds": {"--points": SIZE_VALUES},
    "verify": {
        "--n-values": ["3"], "--c-values": ["1", "0.25", "1e-200", "1e200"],
        "--grid-points": SIZE_VALUES,
    },
}
OPTIONAL_OUTPUTS = {"simulate": ["--terminal-json", "--curvature-csv"]}
JSON_OUTPUTS = {"verify": "--output", "constants": "--output", "simulate": "--terminal-json"}
CSV_OUTPUTS = {"thresholds": ["--output"], "simulate": ["--output", "--curvature-csv"]}


@st.composite
def cli_argv(draw, directory):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    optional = FUZZ_FLAGS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(optional)), unique=True))
    flags = {**{f: optional[f] for f in chosen}, **REQUIRED_FLAGS.get(command, {})}
    bad = draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=2)) if flags else []
    argv = [command]
    for flag, good in flags.items():
        value = draw(st.sampled_from(BAD_VALUES if flag in bad else good))
        argv += [flag, str(directory / value) if flag == "--profile" else value]
    argv += ["--output", str(directory / "out")]
    for flag in OPTIONAL_OUTPUTS.get(command, []):
        if draw(st.booleans()):
            argv += [flag, str(directory / f"out{flag}")]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    from pinchflow.axisym import perturbed_product_profile
    from pinchflow.thresholds import PinchingParams

    path = tmp_path_factory.mktemp("fuzz")
    _write_profile(
        path / "profile.json",
        *perturbed_product_profile(PinchingParams(n=10, c=1.0), 0.9, 0.005, n_points=32),
    )
    # a latitude circle traversed twice: not embedded, though no two segments cross
    xi = 4.0 * np.pi * np.arange(96) / 96
    _write_profile(path / "wound.json", np.full(96, np.arcsin(np.sqrt(0.9))), xi)
    (path / "list.json").write_text("[1, 2, 3]")
    (path / "null.json").write_text(json.dumps({"family": "product", "lambda": None}))
    return path


@pytest.mark.parametrize(
    "family_flag, payload",
    [
        ("sphere", {"family": "product", "lambda": 0.5}),
        ("product", {"family": "sphere", "rho": 0.5}),
        ("product-exact", {"family": "sphere", "rho": 0.5}),
        ("axisymmetric", {"family": "product", "lambda": 0.5}),
    ],
)
def test_simulate_family_must_match_state_file(family_flag, payload, tmp_path, capsys):
    state_file, trace = tmp_path / "state.json", tmp_path / "trace.csv"
    state_file.write_text(json.dumps(payload))
    code = main(["simulate", "--family", family_flag, "--profile", str(state_file),
                 "--t-max", "0.01", "--output", str(trace)])
    assert code == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith(f"error: --family {family_flag} does not match")
    assert not trace.exists()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exits_0_1_or_2(fuzz_dir, data):
    _assert_cli_contract(data.draw(cli_argv(fuzz_dir)), fuzz_dir)


@pytest.mark.parametrize("t_max", FUZZ_FLAGS["simulate"]["--t-max"])
@pytest.mark.parametrize("profile", FUZZ_FLAGS["simulate"]["--profile"])
def test_every_fuzz_table_profile_meets_the_contract(fuzz_dir, profile, t_max):
    # the draws above reach --family axisymmetric seldom; its table rows all run here.
    # Only the embedded profile runs, and only within the step budget.
    argv = ["simulate", "--family", "axisymmetric", "--profile", str(fuzz_dir / profile),
            "--t-max", t_max, "--output", str(fuzz_dir / "out"),
            "--terminal-json", str(fuzz_dir / "out--terminal-json")]
    code, err = _assert_cli_contract(argv, fuzz_dir)
    assert code == (0 if profile == "profile.json" and t_max != "1e6" else 1), err
    if profile == "wound.json":
        assert "winds 2 times" in err


def _assert_cli_contract(argv, directory):
    """The command exits 0, 1 or 2 within 5 s, without a warning or traceback; its output is finite.

    Returns the exit code and the standard error.
    """
    for flag in ("", *OPTIONAL_OUTPUTS["simulate"]):  # nothing left by an earlier run
        (directory / f"out{flag}").unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(), _expires_after(5.0):
            warnings.simplefilter("error")  # no warning escapes either
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), argv
    if argv[0] == "simulate" and "--tol" in argv:
        # the closed form and the profile route read no tol and refuse one
        family = argv[argv.index("--family") + 1] if "--family" in argv else "product"
        assert code == 2 or family not in ("product-exact", "axisymmetric"), argv
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err, argv
    if code == 1:
        # a typed error prints error:, and verify names its first failed check;
        # verify also ends in a typed error, for --n-values 0 say
        failed_check = argv[0] == "verify" and "FIRST FAILURE" in out
        assert failed_check or err.startswith("error:"), argv
    if code == 0 or (code == 1 and failed_check):
        # every JSON file the command wrote is strict JSON: no NaN or Infinity
        flag = JSON_OUTPUTS.get(argv[0])
        if flag in argv:
            path = Path(argv[argv.index(flag) + 1])
            json.loads(path.read_text(), parse_constant=_no_constant)
    if code == 0:
        for flag in CSV_OUTPUTS.get(argv[0], []):
            if flag in argv:
                _assert_finite_csv(Path(argv[argv.index(flag) + 1]), argv)
        if "--terminal-json" in argv:
            _assert_closed_form_terminal(argv)
    return code, err


def _assert_finite_csv(path, argv):
    """Every field of a written CSV that parses as a number is finite."""
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")][1:]
    for row in rows:
        for value in row.split(","):
            try:
                number = float(value)
            except ValueError:  # a family or branch name, or an empty snapshot field
                continue
            assert np.isfinite(number), (argv, path.name, row)


def _assert_closed_form_terminal(argv) -> bool:
    """A sphere or product collapse time matches its closed form within 10 tol relative.

    The exact product route evaluates that closed form, so it matches to the bit.
    Returns whether the run ended in a collapse, so that a time was compared.
    """
    args = build_parser().parse_args(argv)
    payload = json.loads(Path(args.terminal_json).read_text())
    collapsed = payload["terminal"] in ("RoundPoint", "GreatCircleCollapse")
    if args.family == "axisymmetric" or not collapsed:
        return False
    params = PinchingParams(n=args.n, c=args.c)
    state = _load_state(args, params)
    if args.family == "sphere":
        T = -np.log(np.abs(np.cos(np.sqrt(params.c) * state.rho))) / (params.n * params.c)
    else:
        T = product_collapse_time(state.r1sq(params), params)
    if args.family == "product-exact":
        assert payload["T"] == T, argv
    else:
        tol = FlowConfig.tol if args.tol is None else args.tol
        assert abs(payload["T"] - T) <= 10.0 * tol * abs(T), (argv, payload["T"], T)
    return True


def test_fuzz_table_collapse_times_match_their_closed_forms(tmp_path):
    # the fuzz examples reach few collapses, so every homogeneous state of its
    # table runs here, at each (n, c) and tol, to the default horizon 1/c
    sim = FUZZ_FLAGS["simulate"]
    states = {
        "sphere": [[], *(["--rho", v] for v in sim["--rho"])],
        "product": [[], *([flag, v] for flag in ("--r1sq", "--lam") for v in sim[flag])],
    }
    states["product-exact"] = states["product"]
    terminal = tmp_path / "terminal.json"
    compared = 0
    for family, family_states in states.items():
        tols = [[]] if family == "product-exact" else [[], *(["--tol", v] for v in sim["--tol"])]
        for state, n, c, tol in itertools.product(
            family_states, PARAM_FLAGS["--n"], PARAM_FLAGS["--c"], tols
        ):
            argv = ["simulate", "--family", family, "--n", n, "--c", c, *state, *tol,
                    "--output", str(tmp_path / "trace.csv"), "--terminal-json", str(terminal)]
            terminal.unlink(missing_ok=True)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1), (argv, err.getvalue())
            if code == 0:
                _assert_finite_csv(tmp_path / "trace.csv", argv)
                compared += _assert_closed_form_terminal(argv)
    assert compared >= 100
