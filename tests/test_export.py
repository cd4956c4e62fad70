"""Writers: every CSV equals the per-float ``format(v, ".17g")`` join it replaces, and the
verify report the indented ``json.dumps`` it replaces."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pinchflow import Axisymmetric, FlowConfig, GeodesicSphere, PinchingParams, ProductSn1S1
from pinchflow.axisym import perturbed_product_profile
from pinchflow.export import (
    provenance_lines,
    provenance_meta,
    write_curvature_csv,
    write_reports_json,
    write_threshold_csv,
    write_trace_csv,
)
from pinchflow.flow import MonitorRecord, flow_axisymmetric, flow_ode_numeric
from pinchflow.geometry import curvature_of
from pinchflow.thresholds import family
from pinchflow.verify import CheckReport, default_suite

MONITORS = ("t", "H_max", "h2_max", "h0_2_max", "gamma_min", "U_max", "f_sigma", "g_sigma")
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         -1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16, 1e17, 123456789012345678.0]
CONFIG = {"command": "test", "output": "100%.csv"}


def g17(v) -> str:
    return format(float(v), ".17g")


def assert_written(path, expected: str):
    """The file at `path` is `expected`; a failure names the first differing line.

    A plain `==` would make pytest diff texts of ~100 kB, which takes minutes.
    """
    text = path.read_text()
    if text != expected:
        pairs = zip(text.splitlines(keepends=True), expected.splitlines(keepends=True))
        first = next(((i, a, b) for i, (a, b) in enumerate(pairs) if a != b), "line counts differ")
        pytest.fail(f"written file differs from the reference at {first}")


def reference_csv(header, rows) -> str:
    return "\n".join(provenance_lines(CONFIG) + [header] + [",".join(r) for r in rows]) + "\n"


def reference_thresholds(fam, xs) -> str:
    n, c = fam.params.n, fam.params.c
    (a,) = fam.alpha(xs, order=0)
    b, _, _ = fam.beta(xs)
    g, g1, g2, on_alpha = fam.gamma(xs)
    (w,) = fam.omega(xs, order=0)
    rows = [
        [str(n), g17(c), g17(x), g17(a[i]), g17(b[i]), g17(g[i]), g17(g1[i]), g17(g2[i]),
         g17(w[i]), "alpha" if on_alpha[i] else "beta"]
        for i, x in enumerate(xs)
    ]
    return reference_csv("n,c,x,alpha,beta,gamma,gamma_d1,gamma_d2,omega,branch", rows)


def reference_trace(trace) -> str:
    m, state = trace.monitors, trace.state
    if state is None:
        snaps = trace.snapshots
        param = [str(len(snaps[i].profile)) if i in snaps else "" for i in range(len(m))]
    else:
        param = [g17(v) for v in (state.rho if hasattr(state, "rho") else state.lam)]
    columns = [getattr(m, name) for name in MONITORS]
    rows = [[g17(t), trace.family, p] + [g17(v) for v in values]
            for p, t, *values in zip(param, *columns)]
    header = "t,family,param,H_max,h2_max,h0_2_max,gamma_min,U_max,f_sigma,g_sigma"
    return reference_csv(header, rows)


class FixedColumns:
    """Stands in for a ThresholdFamily: hands the writer the columns it was given."""

    def __init__(self, n, c, columns, on_alpha):
        self.params = SimpleNamespace(n=n, c=c)
        self.a, self.b, self.g, self.g1, self.g2, self.w = columns
        self.on_alpha = on_alpha

    def alpha(self, xs, order):
        return (self.a,)

    def beta(self, xs):
        return self.b, None, None

    def gamma(self, xs):
        return self.g, self.g1, self.g2, self.on_alpha

    def omega(self, xs, order):
        return (self.w,)


doubles = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGES)


def table(width):
    """A (rows, width) array of doubles."""
    return arrays(float, st.tuples(st.integers(1, 20), st.just(width)), elements=doubles)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(values=table(8), c=doubles, n=st.integers(3, 10**6))
def test_threshold_csv_equals_per_float_join(values, c, n, tmp_path_factory):
    # columns: x, alpha, beta, gamma, gamma_d1, gamma_d2, omega, one whose sign picks the branch
    fam = FixedColumns(n, c, list(values[:, 1:7].T), np.signbit(values[:, 7]))
    path = tmp_path_factory.getbasetemp() / "fixed_thr.csv"
    write_threshold_csv(path, fam, values[:, 0], CONFIG)
    assert_written(path, reference_thresholds(fam, values[:, 0]))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(values=table(9), name=st.sampled_from(["sphere", "100%", "%s%d%%"]))
def test_trace_csv_equals_per_float_join(values, name, tmp_path_factory):
    columns = dict(zip(MONITORS, values[:, 1:].T))
    trace = SimpleNamespace(
        family=name,
        monitors=MonitorRecord(**columns, C0_fit=values[:, 0]),
        state=GeodesicSphere(rho=values[:, 0]),
    )
    path = tmp_path_factory.getbasetemp() / "fixed_trace.csv"
    write_trace_csv(path, trace, CONFIG)
    assert_written(path, reference_trace(trace))


def test_nonfinite_values_format_as_before(tmp_path):
    values = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.0])
    fam = FixedColumns(10, np.inf, [values] * 6, values > 0)
    write_threshold_csv(tmp_path / "thr.csv", fam, values, CONFIG)
    assert_written(tmp_path / "thr.csv", reference_thresholds(fam, values))


@pytest.mark.parametrize("n,c", [(3, 1.0), (10, 0.25), (40, 7.3)])
def test_real_tables_and_traces_equal_per_float_join(n, c, tmp_path):
    params = PinchingParams(n=n, c=c)
    fam = family(params)
    xs = np.linspace(0.0, 100.0 * c, 1001)
    write_threshold_csv(tmp_path / "thr.csv", fam, xs, CONFIG)
    assert_written(tmp_path / "thr.csv", reference_thresholds(fam, xs))
    states = [GeodesicSphere(rho=0.3 * np.pi / np.sqrt(c)),
              ProductSn1S1.from_r1sq(0.5 * (n - 1) / (n * c), params)]
    for state in states:
        trace = flow_ode_numeric(state, params, FlowConfig())
        write_trace_csv(tmp_path / "trace.csv", trace, CONFIG)
        assert_written(tmp_path / "trace.csv", reference_trace(trace))


def test_ac8_ripple_curvature_and_trace_equal_per_float_join(tmp_path):
    params = PinchingParams(n=10, c=1.0)
    phi, xi = perturbed_product_profile(params, 0.9, 0.005, n_points=96)
    state = Axisymmetric(profile=np.stack([phi, xi], axis=1))
    write_curvature_csv(tmp_path / "curv.csv", state, params, CONFIG)
    data = curvature_of(state, params)
    g, _, _, _ = family(params).gamma(data.H ** 2)
    rows = [[str(i), g17(data.H[i]), g17(data.h_norm2[i]), g17(data.h0_norm2[i]), g17(g[i]),
             g17(g[i] - data.h_norm2[i])] for i in range(len(data.H))]
    assert len(rows) == 96
    assert_written(tmp_path / "curv.csv", reference_csv("s,H,h2,h0_2,gamma,margin", rows))

    trace = flow_axisymmetric(state, params, FlowConfig(epsilon=0.0, t_max=0.25))
    write_trace_csv(tmp_path / "trace.csv", trace, CONFIG)
    assert_written(tmp_path / "trace.csv", reference_trace(trace))


def reference_reports_json(reports, config) -> str:
    """The verify report as json.dumps lays it out, a non-finite worst point as null."""
    keys = ("worst_x", "worst_margin")
    payload = {
        "reports": [vars(r) | {k: None for k in keys if not math.isfinite(getattr(r, k))}
                    for r in reports],
        "all_passed": all(r.passed for r in reports),
        "meta": provenance_meta(config),
    }
    return json.dumps(payload, indent=2, sort_keys=True, default=str, allow_nan=False) + "\n"


def assert_reports_written(path, reports, config):
    """write_reports_json writes the reference bytes, or raises its ValueError and writes nothing."""
    try:
        expected = reference_reports_json(reports, config)
    except ValueError as exc:  # allow_nan=False: a non-finite c or locus
        with pytest.raises(ValueError, match="JSON compliant") as raised:
            write_reports_json(path, reports, config)
        assert str(raised.value) == str(exc)
        assert not path.exists()
        return
    write_reports_json(path, reports, config)
    assert path.read_bytes() == expected.encode("utf-8")


# non-ASCII, control characters, quotes and backslashes all need escapes
texts = st.text() | st.sampled_from(["", "app_i", "\x00\x1f\x7f\"\\/", "\u00e9\u2028\U0001f600"])
any_doubles = st.floats() | st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308])
reports_st = st.builds(
    CheckReport,
    check_id=texts,
    n=st.integers(-(2 ** 70), 2 ** 70),
    c=any_doubles,
    grid_size=st.integers(0, 10 ** 6),
    worst_margin=any_doubles,
    worst_x=any_doubles,
    passed=st.booleans(),
    equality_loci=st.lists(st.lists(any_doubles, min_size=2, max_size=2), max_size=3),
    message=texts,
)


# the tier-1 profile (conftest.py) leaves out the explain phase, which on these
# strategies runs for minutes once an example fails
@settings(derandomize=True, max_examples=300, deadline=None)
@given(reports=st.lists(reports_st, max_size=4), output=texts)
def test_reports_json_equals_indented_json_dumps(reports, output, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "reports.json"
    path.unlink(missing_ok=True)
    assert_reports_written(path, reports, {"command": "verify", "output": output, "c": [0.25]})


def test_real_reports_json_equals_indented_json_dumps(tmp_path):
    # equality loci, messages, null worst points and the flow checks' NaN
    reports = default_suite(ns=(3, 10), cs=(0.25, 1.0, 4.0), grid_points=300)
    assert any(r.equality_loci for r in reports)
    assert any(not math.isfinite(r.worst_x) for r in reports)
    assert_reports_written(tmp_path / "report.json", reports, CONFIG)
