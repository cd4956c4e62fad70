"""Verification suite: reports, equality loci, determinism, failure paths."""

import numpy as np
import pytest

from pinchflow import CheckFailure, PinchingParams, ThresholdFamily
from pinchflow.thresholds import family
from pinchflow.verify import (
    _lagrange_derivative,
    check_constants,
    check_derivative_oracles,
    check_flow_oracles,
    check_lemma_app,
    check_okumura,
    check_wpp,
    default_suite,
    raise_on_failure,
)


def ids(reports):
    return {r.check_id: r for r in reports}


def test_lemma_app_passes_with_loci():
    params = PinchingParams(n=10, c=1.0)
    by_id = ids(check_lemma_app(params))
    assert all(r.passed for r in by_id.values())
    # equality at the branch point for item (i)
    loci = by_id["app_i"].equality_loci
    assert len(loci) == 1
    assert loci[0][0] <= 12.0 <= loci[0][1]
    assert loci[0][1] - loci[0][0] < 0.1
    # item (ii): equality along the whole radical branch
    loci2 = by_id["app_ii"].equality_loci
    assert loci2[0][0] == pytest.approx(12.0, abs=0.05)
    assert loci2[-1][1] == pytest.approx(100.0, rel=1e-12)


def test_lemma_app_small_dimension_scaled_curvature():
    reports = check_lemma_app(PinchingParams(n=3, c=4.0))
    assert all(r.passed for r in reports)


def test_identities_hold_tightly():
    by_id = ids(check_lemma_app(PinchingParams(n=7, c=0.25)))
    for name in ("alid1", "alid2", "app_iv"):
        assert by_id[name].passed
        assert by_id[name].worst_margin > 0.0  # residual below tolerance


def test_wpp_checks():
    by_id = ids(check_wpp(PinchingParams(n=3, c=1.0)))
    assert all(r.passed for r in by_id.values())
    assert "band" in by_id["wpp_x0_positive"].message
    by_id4 = ids(check_wpp(PinchingParams(n=4, c=2.0)))
    assert by_id4["wpp_dlnw"].passed


def test_constants_checks():
    for n, c in [(10, 1.0), (4, 1.0), (5, 0.25), (3, 4.0)]:
        reports = check_constants(PinchingParams(n=n, c=c))
        assert all(r.passed for r in reports), [r.check_id for r in reports if not r.passed]


def test_derivative_and_okumura_oracles():
    params = PinchingParams(n=6, c=1.0)
    assert all(r.passed for r in check_derivative_oracles(params))
    assert all(r.passed for r in check_okumura(params, samples=20_000))


def test_flow_oracles_reference_parameters():
    reports = check_flow_oracles(PinchingParams(n=10, c=1.0))
    by_id = ids(reports)
    assert all(r.passed for r in reports), [r.check_id for r in reports if not r.passed]
    assert "flow_minimal_torus" in by_id


def test_reports_deterministic():
    params = PinchingParams(n=5, c=1.0)
    a = check_derivative_oracles(params, seed=11)
    b = check_derivative_oracles(params, seed=11)
    assert a[0].worst_margin == b[0].worst_margin
    assert a[0].worst_x == b[0].worst_x


def test_small_suite_green_and_raise_on_failure():
    reports = default_suite(ns=(3, 10), cs=(1.0,), grid_points=3000)
    assert all(r.passed for r in reports)
    raise_on_failure(reports)  # no-op when green
    bad = reports[0]
    bad.passed = False
    with pytest.raises(CheckFailure):
        raise_on_failure(reports)


def test_suite_builds_each_family_once(monkeypatch):
    built = []
    init = ThresholdFamily.__init__

    def counting_init(self, params):
        built.append((params.n, params.c))
        init(self, params)

    monkeypatch.setattr(ThresholdFamily, "__init__", counting_init)
    family.cache_clear()
    default_suite(ns=(3, 10), cs=(1.0,), grid_points=3000, okumura_samples=1000)
    assert sorted(built) == [(3, 1.0), (10, 1.0)]


def _lagrange_derivative_loop(ts, ys, width=5):
    """Per-sample reference for the vectorized stencil, same arithmetic order."""
    m, half = len(ts), width // 2
    out = np.full(m, np.nan)
    for i in range(half, m - half):
        tau = ts[i - half : i + half + 1] - ts[i]
        y = ys[i - half : i + half + 1]
        acc = 0.0
        for j in range(width):
            denom = 1.0
            for k in range(width):
                if k != j:
                    denom *= tau[j] - tau[k]
            num = 0.0
            for k in range(width):
                if k != j:
                    prod = 1.0
                    for l in range(width):
                        if l != j and l != k:
                            prod *= -tau[l]
                    num += prod
            acc += y[j] * num / denom
        out[i] = acc
    return out


def test_lagrange_derivative_exact_for_quartics():
    rng = np.random.default_rng(5)
    ts = np.cumsum(rng.uniform(0.01, 0.05, 400))
    ys = 3.0 - 2.0 * ts + 0.5 * ts ** 2 - 1.5 * ts ** 3 + 0.25 * ts ** 4
    exact = -2.0 + ts - 4.5 * ts ** 2 + ts ** 3
    d = _lagrange_derivative(ts, ys)
    assert np.all(np.isnan(d[:2])) and np.all(np.isnan(d[-2:]))
    rel = np.abs(d[2:-2] - exact[2:-2]) / np.max(np.abs(exact))
    assert rel.max() <= 1e-10
    noisy = ys + rng.normal(scale=1e-3, size=len(ts))
    for m in (0, 4, 5, 50, 400):
        assert np.array_equal(
            _lagrange_derivative(ts[:m], noisy[:m]),
            _lagrange_derivative_loop(ts[:m], noisy[:m]),
            equal_nan=True,
        )


def test_grid_contains_marked_points():
    params = PinchingParams(n=10, c=1.0)
    fam = family(params)
    xs = fam.default_grid(points=5000)
    assert len(xs) >= 5000
    assert np.min(np.abs(xs - fam.x0)) == 0.0
    assert np.min(np.abs(xs - fam.x1)) == 0.0
    assert xs[0] == pytest.approx(1e-8, rel=1e-12)
    assert xs[-1] == pytest.approx(100.0, rel=1e-12)
