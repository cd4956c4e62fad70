"""Verification suite: reports, equality loci, determinism, failure paths."""

import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchflow import DomainError, PinchingParams, ThresholdFamily
from pinchflow import flow, thresholds, verify
from pinchflow.errors import double_range
from pinchflow.thresholds import family
from pinchflow.verify import (
    CheckReport,
    _at_c,
    _cells,
    _fd_derivatives,
    _grid_values,
    _lagrange_derivative,
    check_constants,
    check_derivative_oracles,
    check_flow_oracles,
    check_lemma_app,
    check_okumura,
    check_wpp,
    default_suite,
)


def ids(reports):
    return {r.check_id: r for r in reports}


def test_lemma_app_passes_with_loci():
    by_id = ids(check_lemma_app(10))
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
    reports = _at_c(check_lemma_app(3), PinchingParams(n=3, c=4.0))
    assert all(r.passed for r in reports)


def test_identities_hold_tightly():
    by_id = ids(_at_c(check_lemma_app(7), PinchingParams(n=7, c=0.25)))
    for name in ("alid1", "alid2", "app_iv"):
        assert by_id[name].passed
        assert by_id[name].worst_margin > 0.0  # residual below tolerance


def test_wpp_checks():
    by_id = ids(check_wpp(3))
    assert all(r.passed for r in by_id.values())
    assert "band" in by_id["wpp_x0_positive"].message
    by_id4 = ids(_at_c(check_wpp(4), PinchingParams(n=4, c=2.0)))
    assert by_id4["wpp_dlnw"].passed


def test_constants_checks():
    for n, c in [(10, 1.0), (4, 1.0), (5, 0.25), (3, 4.0)]:
        reports = _at_c(check_constants(n), PinchingParams(n=n, c=c))
        assert all(r.passed for r in reports), [r.check_id for r in reports if not r.passed]


def test_derivative_and_okumura_oracles():
    assert all(r.passed for r in check_derivative_oracles(6))
    assert all(r.passed for r in check_okumura(6))


def test_flow_oracles_reference_parameters():
    reports = check_flow_oracles(PinchingParams(n=10, c=1.0))
    by_id = ids(reports)
    assert all(r.passed for r in reports), [r.check_id for r in reports if not r.passed]
    assert "flow_minimal_torus" in by_id


def test_reports_deterministic():
    a = check_derivative_oracles(5, seed=11)
    b = check_derivative_oracles(5, seed=11)
    assert a[0].worst_margin == b[0].worst_margin
    assert a[0].worst_x == b[0].worst_x


def test_small_suite_green():
    reports = default_suite(ns=(3, 10), cs=(1.0,), grid_points=3000)
    assert all(r.passed for r in reports)


def test_suite_builds_each_family_once(monkeypatch):
    built = []
    init = ThresholdFamily.__init__

    def counting_init(self, params):
        built.append((params.n, params.c))
        init(self, params)

    monkeypatch.setattr(ThresholdFamily, "__init__", counting_init)
    family.cache_clear()
    default_suite(ns=(3, 10), cs=(1.0,), grid_points=3000)
    assert sorted(built) == [(3, 1.0), (10, 1.0)]


def test_suite_integrates_each_unit_problem_once(monkeypatch):
    # the flow oracles at c = 0.25, 1 and 4 pose the same c = 1 problems: four
    # at n = 10, the minimal torus at n = 10 and c = 1, and four at n = 3
    calls = []
    solve = flow.solve_ivp

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(flow, "solve_ivp", counting)
    flow._integrate.cache_clear()
    default_suite(ns=(3, 10), cs=(0.25, 1.0, 4.0), grid_points=3000)
    assert len(calls) == 9


def test_suite_certifies_each_n_once(monkeypatch):
    # the c-free constants are built once per n and scaled to every c
    certified = []
    certify = thresholds._certify_y_n

    def counting_certify(n, y):
        certified.append(n)
        return certify(n, y)

    monkeypatch.setattr(thresholds, "_certify_y_n", counting_certify)
    family.cache_clear()
    thresholds._unit.cache_clear()
    default_suite(ns=(3, 10), cs=(0.25, 1.0, 4.0), grid_points=3000)
    assert sorted(certified) == [3, 10]


def test_suite_maps_each_n_and_c_once(monkeypatch):
    # the lattice checks report at c = 1, and one _at_c maps them to each (n, c)
    mapped = []
    at_c = verify._at_c

    def counting_at_c(reports, params):
        mapped.append((params.n, params.c))
        return at_c(reports, params)

    monkeypatch.setattr(verify, "_at_c", counting_at_c)
    default_suite(ns=(3, 10), cs=(0.25, 1.0, 4.0), grid_points=300)
    assert sorted(mapped) == [(n, c) for n in (3, 10) for c in (0.25, 1.0, 4.0)]


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
    (d,) = _lagrange_derivative(ts, ys)
    assert np.all(np.isnan(d[:2])) and np.all(np.isnan(d[-2:]))
    rel = np.abs(d[2:-2] - exact[2:-2]) / np.max(np.abs(exact))
    assert rel.max() <= 1e-10
    noisy = ys + rng.normal(scale=1e-3, size=len(ts))
    for m in (0, 4, 5, 50, 400):
        # the stencil weights are built once and shared by both series: each
        # derivative is the bits of a one-series call and of the loop
        shared = _lagrange_derivative(ts[:m], noisy[:m], ys[:m])
        for got, series in zip(shared, (noisy[:m], ys[:m]), strict=True):
            assert np.array_equal(got, _lagrange_derivative(ts[:m], series)[0], equal_nan=True)
            assert np.array_equal(got, _lagrange_derivative_loop(ts[:m], series), equal_nan=True)


def _lagrange_derivative_nested(ts, *series):
    """The vectorized stencil with its weights from three nested loops over the stencil columns."""
    m = len(ts)
    half = verify.LAGRANGE_WIDTH // 2
    centers = np.arange(half, m - half)
    window = centers[:, None] + np.arange(-half, half + 1)
    tau = ts[window] - ts[centers, None]
    weights = []
    for j in range(verify.LAGRANGE_WIDTH):
        denom = np.ones(len(centers))
        for k in range(verify.LAGRANGE_WIDTH):
            if k != j:
                denom *= tau[:, j] - tau[:, k]
        num = np.zeros(len(centers))
        for k in range(verify.LAGRANGE_WIDTH):
            if k == j:
                continue
            prod = np.ones(len(centers))
            for l in range(verify.LAGRANGE_WIDTH):
                if l != j and l != k:
                    prod *= -tau[:, l]
            num += prod
        weights.append((num, denom))
    derivatives = []
    for ys in series:
        y = ys[window]
        acc = np.zeros(len(centers))
        for j, (num, denom) in enumerate(weights):
            acc += y[:, j] * num / denom
        out = np.full(m, np.nan)
        out[half : m - half] = acc
        derivatives.append(out)
    return tuple(derivatives)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    start=st.floats(-1e3, 1e3),
    steps=st.lists(
        st.tuples(st.floats(1.0, 10.0), st.integers(-6, 3)), min_size=0, max_size=40
    ),
    data=st.data(),
)
def test_lagrange_weights_from_products_are_the_bits_of_nested_loops(start, steps, data):
    # nonuniform grids whose spacings span ten decades, and two series on each
    ts = start + np.cumsum([0.0] + [m * 10.0 ** e for m, e in steps])
    values = st.lists(st.floats(-1e6, 1e6), min_size=len(ts), max_size=len(ts))
    series = [np.array(data.draw(values)) for _ in range(2)]
    got = _lagrange_derivative(ts, *series)
    for a, b in zip(got, _lagrange_derivative_nested(ts, *series), strict=True):
        assert np.array_equal(a, b, equal_nan=True)


def _at_c_by_replace(reports, params):
    """The dataclasses.replace mapping that _at_c builds directly."""
    c = params.c
    with double_range("a reported abscissa", c):
        return [
            replace(r, c=c, worst_x=float(np.float64(r.worst_x) * c),
                    equality_loci=(np.reshape(r.equality_loci, (-1, 2)) * c).tolist())
            for r in reports
        ]


def test_at_c_equals_the_replace_mapping():
    unit = check_lemma_app(3, 300) + check_wpp(3, 300)
    unit += check_constants(3, 300) + check_derivative_oracles(3)
    unit.append(CheckReport("no_worst_point", 3, 1.0, 0, 0.5, float("nan"), True, [], "nan"))
    assert any(r.equality_loci for r in unit)
    for c in (0.25, 0.3, 1.0, 4.0, 1e-300, 1e300):
        params = PinchingParams(n=3, c=c)
        got, ref = _at_c(unit, params), _at_c_by_replace(unit, params)
        assert repr(got) == repr(ref)
        assert all(type(r.worst_x) is float for r in got)
    # an abscissa past the double range: the same DomainError from both
    far = CheckReport("x", 3, 1.0, 1, 0.5, 1e300, True)
    far_locus = CheckReport("y", 3, 1.0, 1, 0.5, 1.0, True, [[1.0, 1e300]])
    for reports in ([far], [far_locus]):
        params = PinchingParams(n=3, c=1e10)
        with pytest.raises(DomainError) as got:
            _at_c(reports, params)
        with pytest.raises(DomainError) as ref:
            _at_c_by_replace(reports, params)
        assert str(got.value) == str(ref.value)
        assert str(got.value) == "a reported abscissa leaves the double range at c = 10000000000.0"


def test_grid_contains_marked_points():
    params = PinchingParams(n=10, c=1.0)
    fam = family(params)
    xs = fam.default_grid(points=5000)
    assert len(xs) >= 5000
    assert np.min(np.abs(xs - fam.x0)) == 0.0
    assert np.min(np.abs(xs - fam.x1)) == 0.0
    assert xs[0] == pytest.approx(1e-8, rel=1e-12)
    assert xs[-1] == pytest.approx(100.0, rel=1e-12)


@pytest.mark.parametrize("factor", [1.0 - 1e-9, 1.0 + 1e-9])
def test_okumura_certificate_rejects_a_perturbed_constant(monkeypatch, factor):
    # the bound must hold and be attained: a constant off by 1e-9 either way fails
    exact = verify.okumura_constant
    for n in range(3, 13):
        (report,) = check_okumura(n)
        assert report.passed and report.worst_x == 1.0
    monkeypatch.setattr(verify, "okumura_constant", lambda n: exact(n) * factor)
    for n in range(3, 13):
        (report,) = check_okumura(n)
        assert not report.passed, n


def test_okumura_certificate_memory_is_linear_in_n():
    check_okumura(100_000)  # anything loaded lazily is loaded before tracing
    tracemalloc.start()
    try:
        (report,) = check_okumura(100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 8_000_000  # a few arrays of n - 1 floats (0.8 MB each)


def test_default_suite_keeps_the_benchmark_contract():
    # perfbench's verify_lattice expects exactly these 691 reports, all passing
    reports = default_suite()
    assert len(reports) == 691 and all(r.passed for r in reports)
    lattice = (
        "app_i app_ii app_iii app_iv app_v_lower app_v_upper app_vi alid1 alid2 "
        "wpp_dlnw wpp_x0_positive wpp_limit_second wpp_limit_support wpp_support_bounded "
        "const_bneq_residual const_yn_bounds const_kn const_gamma_floor const_alpha_min "
        "const_alpha_marks const_kn_floor derivative_oracles"
    ).split()
    flows = (
        "flow_product_exact_match flow_collapse_time flow_sphere_collapse "
        "flow_reaction_consistency flow_weak_equality"
    ).split()
    expected = {name: 30 for name in lattice} | {"okumura_bound": 10}
    expected |= {name: 4 for name in flows} | {"flow_minimal_torus": 1}
    assert Counter(r.check_id for r in reports) == expected


@pytest.mark.parametrize("n", [3, 10])
@pytest.mark.parametrize("c", [0.25, 4.0])
def test_fd_stencil_in_one_call_matches_seven_calls(n, c):
    fam = family(PinchingParams(n=n, c=c))
    xs = np.random.default_rng(n).uniform(0.2 * c, 90.0 * c, 50)
    h = 0.004 * xs
    for f in (
        lambda t: fam.alpha(t, order=0)[0],
        lambda t: fam.gamma(t)[0],
        lambda t: fam.omega(t)[0],
    ):
        fm3, fm2, fm1 = f(xs - 3 * h), f(xs - 2 * h), f(xs - h)
        fp1, fp2, fp3 = f(xs + h), f(xs + 2 * h), f(xs + 3 * h)
        f0 = f(xs)
        d1 = (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * h)
        d2 = (-(fp2 + fm2) + 16.0 * (fp1 + fm1) - 30.0 * f0) / (12.0 * h * h)
        d3 = (-fp3 + 8.0 * fp2 - 13.0 * fp1 + 13.0 * fm1 - 8.0 * fm2 + fm3) / (8.0 * h ** 3)
        stencil = np.stack([xs - 3 * h, xs - 2 * h, xs - h, xs + h, xs + 2 * h, xs + 3 * h, xs])
        for got, ref in zip(_fd_derivatives(f(stencil), h), (d1, d2, d3)):
            assert np.array_equal(got, ref)


def test_derivative_oracles_make_one_family_call_per_function(monkeypatch):
    # alpha, gamma and omega once each on the stacked stencil, whose last row is xs
    calls = []
    for name in ("alpha", "beta", "gamma", "omega"):
        method = getattr(ThresholdFamily, name)

        def counting(self, x, *args, _name=name, _method=method, **kwargs):
            calls.append((_name, np.shape(x)))
            return _method(self, x, *args, **kwargs)

        monkeypatch.setattr(ThresholdFamily, name, counting)
    (report,) = check_derivative_oracles(10)
    assert report.passed
    assert [name for name, _ in calls] == ["alpha", "gamma", "omega"]
    assert all(shape[0] == 7 for _, shape in calls)


def _grid_reports(n, order):
    checks = {"lemma": check_lemma_app, "wpp": check_wpp, "constants": check_constants}
    return {name: repr(checks[name](n, 3000)) for name in order}


def test_grid_checks_do_not_depend_on_the_cache():
    _grid_values.cache_clear()
    forward = _grid_reports(7, ("lemma", "wpp", "constants"))
    _grid_values.cache_clear()
    _grid_values(4, 3000)  # another n in the cache
    backward = _grid_reports(7, ("constants", "wpp", "lemma"))
    assert forward == backward


def test_grid_values_are_the_bits_of_direct_evaluation():
    # the default grid of n at c = 1, and the family of n evaluated on it
    unit = family(PinchingParams(n=5))
    grid = _grid_values(5, 3000)
    us = unit.default_grid(points=3000)
    assert np.array_equal(grid.us, us)
    for got, ref in zip(grid.alpha, unit.alpha(us)):
        assert np.array_equal(got, ref)
    for got, ref in zip(grid.gamma, unit.gamma(us)[:3], strict=True):
        assert np.array_equal(got, ref)
    assert np.array_equal(grid.beta, unit.beta(us)[0])
    # omega and its first derivative on u >= x0 only, the bits of the whole grid's
    on_closed = us >= unit.x0
    for got, ref in zip(grid.omega, unit.omega(us)[:2], strict=True):
        assert np.array_equal(got, ref[on_closed])


@pytest.mark.parametrize("n", range(3, 13))
def test_grid_gamma_and_cells_are_the_bits_of_their_own_pass(n):
    # gamma is joined from the grid's alpha and beta, and the cells are taken once
    grid = _grid_values(n, 10_000)
    us = family(PinchingParams(n)).default_grid(points=10_000)
    for got, ref in zip(grid.gamma, family(PinchingParams(n)).gamma(us)[:3], strict=True):
        assert np.array_equal(got, ref)
    assert np.array_equal(grid.cells, _cells(us))


def test_lattice_checks_pass_silently_across_c():
    # the lattice checks compute at c = 1, so c near either end of the double
    # range neither overflows nor warns; grid points are reported in x
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit = check_lemma_app(3, 50) + check_wpp(3, 50)
        unit += check_constants(3, 50) + check_derivative_oracles(3)
        for c in (1e-300, 1e-200, 1e-100, 1e100, 1e200, 1e300):
            reports = _at_c(unit, PinchingParams(n=3, c=c))
            failed = [r.check_id for r in reports if not r.passed]
            assert not failed, (c, failed)
            grid_x = [r.worst_x for r in reports if r.grid_size]
            assert all(1e-8 * c <= x <= 100.0 * c for x in grid_x), c


def test_cached_grid_values_are_read_only():
    grid = _grid_values(6, 3000)
    for arr in (grid.us, grid.cells, *grid.alpha, grid.beta, *grid.gamma, *grid.omega):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_grid_checks_build_the_grid_once(monkeypatch):
    builds = []
    default_grid = ThresholdFamily.default_grid

    def counting_grid(self, points=10_000):
        builds.append(points)
        return default_grid(self, points)

    monkeypatch.setattr(ThresholdFamily, "default_grid", counting_grid)
    _grid_values.cache_clear()
    check_lemma_app(8, 3000)
    check_wpp(8, 3000)
    check_constants(8, 3000)
    assert builds == [3000]


def _lattice_suite(monkeypatch, cs, ns=(3, 4), grid_points=300):
    """default_suite's lattice reports, with the okumura and flow checks left out."""
    monkeypatch.setattr(verify, "check_okumura", lambda n: [])
    monkeypatch.setattr(verify, "check_flow_oracles", lambda params: [])
    return default_suite(ns=ns, cs=cs, grid_points=grid_points)


def test_lattice_reports_at_c_are_the_unit_reports_scaled(monkeypatch):
    # each lattice check runs at c = 1; at c it reports x = c u, for every c
    cs = (0.25, 0.3, 1.0, 4.0)
    reports = _lattice_suite(monkeypatch, cs)
    at_one = {(r.n, r.check_id): r for r in reports if r.c == 1.0}
    assert len(reports) == len(cs) * len(at_one)
    for r in reports:
        u = at_one[r.n, r.check_id]
        assert (r.worst_margin, r.passed, r.grid_size, r.message) == (
            u.worst_margin, u.passed, u.grid_size, u.message
        )
        assert np.array_equal(r.worst_x, u.worst_x * r.c, equal_nan=True)
        assert r.equality_loci == [[a * r.c, b * r.c] for a, b in u.equality_loci]
    # the public checks of n, mapped to c, give the same reports
    direct = check_lemma_app(4, 300) + check_wpp(4, 300)
    direct += check_constants(4, 300) + check_derivative_oracles(4)
    direct = _at_c(direct, PinchingParams(n=4, c=0.3))
    assert repr(direct) == repr([r for r in reports if (r.n, r.c) == (4, 0.3)])


def test_lattice_family_calls_do_not_grow_with_c(monkeypatch):
    # 10 family calls per n, whatever the number of c
    calls = []
    for name in ("alpha", "beta", "gamma", "omega"):
        method = getattr(ThresholdFamily, name)

        def counting(self, x, *args, _method=method, **kwargs):
            calls.append(self.params.c)
            return _method(self, x, *args, **kwargs)

        monkeypatch.setattr(ThresholdFamily, name, counting)
    counts = []
    for cs in ((1.0,), (0.25, 0.3, 1.0, 4.0)):
        _grid_values.cache_clear()
        calls.clear()
        _lattice_suite(monkeypatch, cs)
        assert set(calls) == {1.0}
        counts.append(len(calls))
    assert counts == [2 * 10, 2 * 10]
