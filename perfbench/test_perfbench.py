"""Tests of the benchmark's own arithmetic and validators.

Run with:  python3 -m pytest perfbench -q
"""

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import spans
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


# ------------------------------------------------------------- self times


def test_self_times_two_interleaved_threads():
    # Thread 1 runs A with children over [1, 3] and [6, 8] (the second with a
    # grandchild); thread 2 runs B over [2, 9], overlapping A in time.
    tree = [
        (0, "A", 0.0, 10.0, None, 1),
        (1, "a1", 1.0, 3.0, 0, 1),
        (2, "B", 2.0, 9.0, None, 2),
        (3, "b1", 4.0, 7.0, 2, 2),
        (4, "a2", 6.0, 8.0, 0, 1),
        (5, "a2x", 6.5, 7.0, 4, 1),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 6.0, 1: 2.0, 2: 4.0, 3: 3.0, 4: 1.5, 5: 0.5})


def test_self_time_ignores_children_on_other_threads():
    # A parent blocked while another thread works keeps the wait as self time.
    tree = [(0, "wait", 0.0, 5.0, None, 1), (1, "work", 1.0, 4.0, 0, 2)]
    assert spans.self_times(tree) == pytest.approx({0: 5.0, 1: 3.0})


def test_layer_metrics_arithmetic():
    tree = [
        (0, "cli.main", 0.0, 10.0, None, 1),
        (1, "flow.flow_axisymmetric", 1.0, 9.0, 0, 1),
        (2, "axisym.resample", 2.0, 3.0, 1, 1),
        (3, "axisym.profile_geometry", 3.0, 3.5, 1, 1),
        (4, "thresholds.gamma", 4.0, 6.0, 1, 1),
        (5, "thresholds.alpha", 4.5, 5.0, 4, 1),
        (6, "export.write_trace_csv", 9.0, 9.5, 0, 1),
        (7, "thresholds.family_build", 0.2, 0.4, 0, 1),
        (8, "thresholds.family_build", 0.4, 0.7, None, 2),
    ]
    counts = {"flow.rk4_steps": 4, "thresholds.family_distinct": 1, "export.bytes_written": 123}
    m = spans.layer_metrics(tree, counts)
    assert m["thresholds.gamma_s"] == pytest.approx(1.5)
    assert m["thresholds.alpha_s"] == pytest.approx(0.5)
    assert m["axisym.resample_calls"] == 1
    assert m["flow.driver_s"] == pytest.approx(8.0 - 1.0 - 0.5 - 2.0)
    assert m["flow.step_s"] == pytest.approx(8.0 / 4)
    assert m["export.write_s"] == pytest.approx(0.5)
    assert m["cli.self_s"] == pytest.approx(10.0 - 8.0 - 0.5 - 0.2)
    assert m["thresholds.family_build_s"] == pytest.approx(0.5)
    assert (m["thresholds.family_builds"], m["thresholds.family_builds_wasted"]) == (2, 1)
    assert m["verify.okumura_s"] == 0.0 and m["flow.ode_steps"] == 0


def test_tracer_parents_are_per_thread():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    by_id = {s[0]: s for s in tracer.spans}
    inners = [s for s in tracer.spans if s[1] == "inner"]
    assert len(inners) == 2
    for s in inners:
        parent = by_id[s[4]]
        assert parent[1] == "outer" and parent[5] == s[5]


def test_install_reaches_names_imported_by_other_modules(tmp_path):
    # In a child interpreter, so the package's rebound attributes stay there.
    code = f"""
import json, sys
sys.path.insert(0, {str(Path(spans.__file__).parent)!r})
import pinchflow.cli, pinchflow.flow, pinchflow.geometry
from spans import Tracer, layer_metrics
original = pinchflow.geometry.curvature_of
t = Tracer(); t.install()
assert pinchflow.flow.curvature_of is not original
assert pinchflow.flow.curvature_of is pinchflow.geometry.curvature_of
for argv in (["thresholds", "--n", "5", "--points", "11", "--output", "t.csv"],
             ["simulate", "--family", "product", "--n", "5", "--r1sq", "0.5", "--output", "p.csv"]):
    assert pinchflow.cli.main(argv) == 0
print(json.dumps(layer_metrics(t.spans, t.counts)))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    m = json.loads(out.stdout.strip().splitlines()[-1])
    # one curvature_of per monitor record, plus one for the default epsilon
    assert m["geometry.curvature_of_calls"] == m["flow.monitors_calls"] + 1 > 1
    assert m["flow.ode_steps"] > 0 and m["flow.solve_ivp_nfev"] >= m["flow.ode_steps"]
    assert m["thresholds.family_builds"] == 1 and m["thresholds.family_builds_wasted"] == 0
    sizes = sum((tmp_path / name).stat().st_size for name in ("t.csv", "p.csv"))
    assert m["export.bytes_written"] == sizes
    assert m["cli.self_s"] > 0.0 and m["axisym.resample_calls"] == 0


# ------------------------------------------------------------- validators


def _write_csv(path, header, rows):
    lines = ["# pinchflow 0.1.0", "# config: {}", header] + [",".join(map(str, r)) for r in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _write_terminal(path, kind, time):
    Path(path).write_text(json.dumps({"terminal": kind, "T": time}))


def _write_report(path, passed, count=workloads.VERIFY_CHECKS):
    reports = [{"check_id": "x", "passed": i >= len(passed) or passed[i]} for i in range(count)]
    Path(path).write_text(json.dumps({"reports": reports, "all_passed": all(passed)}))


def test_verify_report_validator(tmp_path):
    path = tmp_path / "report.json"
    expected = workloads.VERIFY_CHECKS
    _write_report(path, [True])
    assert workloads.check_verify_report(path, 0) == (1 + expected, 0, [])
    assert workloads.check_verify_report(path, 1)[1] == 1  # non-zero exit
    _write_report(path, [True, False])
    assert workloads.check_verify_report(path, 1)[1] == 2  # the call and one check
    _write_report(path, [True], count=expected - 1)
    assert workloads.check_verify_report(path, 0)[1] == 2  # a missing report
    path.write_text("{")
    assert workloads.check_verify_report(path, 0)[1] == 1 + expected


def test_terminal_validator(tmp_path):
    path = tmp_path / "t.json"
    _write_terminal(path, "RoundPoint", 0.5 + 1e-9)
    assert workloads.check_terminal(path, "RoundPoint", 0.5, 1e-7) is None
    assert "scale" in workloads.check_terminal(path, "RoundPoint", 0.5, 1e-7, scale=1e3)
    _write_terminal(path, "Blowup", 0.5)
    assert "Blowup" in workloads.check_terminal(path, "RoundPoint", 0.5, 1e-7)
    assert workloads.check_terminal(tmp_path / "missing.json", "RoundPoint", 0.5, 1e-7)


def test_threshold_table_validator(tmp_path):
    path = tmp_path / "thr.csv"
    header = "n,c,x,alpha,beta,gamma,gamma_d1,gamma_d2,omega,branch"
    good = [[3, 1, i, 1, 1, 1, 1, 1, 1, "beta"] for i in range(5)]
    _write_csv(path, header, good)
    assert workloads.check_threshold_table(path, rows=5) is None
    assert "rows" in workloads.check_threshold_table(path, rows=6)
    _write_csv(path, header, good[:4] + [[3, 1, 4, 1, 1, "nan", 1, 1, 1, "alpha"]])
    assert "gamma" in workloads.check_threshold_table(path, rows=5)


def test_ac8_validator(tmp_path):
    trace, term = tmp_path / "ac8.csv", tmp_path / "ac8.json"
    header = "t,family,param,H_max,h2_max,h0_2_max,gamma_min,U_max,f_sigma,g_sigma"
    rows = [[t, "axisymmetric", 96, 0, 0, 0, 0, 0, 0, g]
            for t, g in ((0.0, 9.0), (0.1, 1.0), (0.2, 1.04), (0.25, 1.01))]
    _write_csv(trace, header, rows)
    _write_terminal(term, "HorizonReached", 0.25)
    assert workloads.check_ac8(trace, term, 0.25) is None
    rows[2][-1] = 1.06
    _write_csv(trace, header, rows)
    assert "ratio" in workloads.check_ac8(trace, term, 0.25)
    _write_terminal(term, "GreatCircleCollapse", 0.25)
    assert "GreatCircleCollapse" in workloads.check_ac8(trace, term, 0.25)


def test_corrupted_outputs_fail_their_calls(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = workloads.homogeneous_sweep(seed=5)
    assert len(calls) == 4 * workloads.SWEEP_DRAWS
    table, product = calls[0], calls[1]
    n, c, u, _v = workloads.sweep_draws(5)[0]
    header = "n,c,x,alpha,beta,gamma,gamma_d1,gamma_d2,omega,branch"
    rows = [[n, c, i, 1, 1, 1, 1, 1, 1, "beta"] for i in range(workloads.TABLE_POINTS)]
    _write_csv(table.outputs[0], header, rows)
    assert table.check(0) == (1, 0, [])
    assert table.check(2)[1] == 1
    rows[7][3] = "nan"
    _write_csv(table.outputs[0], header, rows)
    assert table.check(0)[1] == 1

    t_exact = -math.log(1.0 - u) / (2.0 * n * c)
    _write_terminal(product.outputs[1], "GreatCircleCollapse", t_exact)
    assert product.check(0) == (1, 0, [])
    _write_terminal(product.outputs[1], "HorizonReached", t_exact)
    assert product.check(0)[1] == 1

    calls = workloads.profile_flow(seed=5)
    collapse = calls[1]
    _write_terminal(collapse.outputs[1], "GreatCircleCollapse", math.log(6.0) / 20.0 + 2e-6)
    assert collapse.check(0) == (1, 0, [])
    _write_terminal(collapse.outputs[1], "GreatCircleCollapse", math.log(6.0) / 20.0 + 2e-5)
    assert collapse.check(0)[1] == 1


def test_inputs_depend_only_on_seed():
    assert workloads.sweep_draws(3) == workloads.sweep_draws(3)
    assert workloads.sweep_draws(3) != workloads.sweep_draws(4)
    for n, c, u, v in workloads.sweep_draws(3):
        assert 3 <= n <= 40 and 0.1 <= c <= 10 and 0.3 <= u <= 0.95 and 0.1 <= v <= 0.45
