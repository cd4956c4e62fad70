"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines.  Tolerances are pinned here and nowhere else.
"""

import numpy as np
import pytest

from pinchflow import (
    Axisymmetric,
    FlowConfig,
    GeodesicSphere,
    PinchingParams,
    ProductSn1S1,
    TerminalKind,
    flow_axisymmetric,
    flow_ode_numeric,
    flow_product_exact,
)
from pinchflow.axisym import (
    curvature_of_profile,
    perturbed_product_profile,
    product_profile,
    sphere_profile,
)
from pinchflow.geometry import product_lambda_for_mean_curvature
from pinchflow.thresholds import family
from pinchflow.verify import (
    check_constants,
    check_lemma_app,
    check_wpp,
    reaction_residuals,
)

NS = tuple(range(3, 13))
CS = (0.25, 1.0, 4.0)
GRID_POINTS = 10_000


def report(tag: str, ok: bool, detail: str):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_ac1_constants():
    consts10 = family(PinchingParams(n=10, c=1.0)).constants
    ok = abs(consts10.y_n - 12.0) <= 1e-9 and abs(consts10.k_n - 6.0) <= 1e-9
    residuals = []
    for n in NS:
        residuals.append(family(PinchingParams(n=n, c=1.0)).constants.bneq_residual)
        ok &= residuals[-1] < 1e-10
    ok &= family(PinchingParams(n=4)).k_n > 3.443
    ok &= family(PinchingParams(n=5)).k_n > 3.998
    for n in range(5, 10):
        ok &= family(PinchingParams(n=n)).k_n > 1.999 * np.sqrt(n - 1.0)
    report(
        "AC1", ok,
        f"y_10 = {consts10.y_n!r}, k_10 = {consts10.k_n!r}, "
        f"max cubic residual = {max(residuals):.2e}",
    )


def test_ac2_structural_lemma_grid():
    failures = []
    loci_checked = 0
    for n in NS:
        for c in CS:
            params = PinchingParams(n=n, c=c)
            reports = check_lemma_app(params, grid_points=GRID_POINTS)
            by_id = {r.check_id: r for r in reports}
            failures += [f"{r.check_id}(n={n},c={c})" for r in reports if not r.passed]
            x0 = family(params).x0
            li = by_id["app_i"].equality_loci
            if not (len(li) == 1 and li[0][0] <= x0 <= li[0][1]):
                failures.append(f"app_i loci (n={n},c={c})")
            lii = by_id["app_ii"].equality_loci
            if not (lii and abs(lii[0][0] - x0) < 2e-2 * 100 * c and lii[-1][1] >= 99.9 * c):
                failures.append(f"app_ii loci (n={n},c={c})")
            loci_checked += 2
    report(
        "AC2", not failures,
        f"structural lemma on {len(NS) * len(CS)} grids, {loci_checked} equality loci; "
        f"failures: {failures or 'none'}",
    )


def test_ac3_weight_function():
    failures = []
    for n in NS:
        for c in CS:
            reports = check_wpp(PinchingParams(n=n, c=c), grid_points=GRID_POINTS)
            failures += [f"{r.check_id}(n={n},c={c})" for r in reports if not r.passed]
    combo = None
    fam3 = family(PinchingParams(n=3, c=1.0))
    _, w1, w2 = (float(v) for v in fam3.omega(fam3.x0))
    combo = 2.0 * fam3.x0 * w2 + w1
    ok = not failures and 11.2 <= combo <= 11.6
    report("AC3", ok, f"weight checks green; n=3 branch-point combination = {combo:.4f}")


def test_ac4_gamma_floor_and_alpha_minimum():
    failures = []
    for n in NS:
        for c in CS:
            params = PinchingParams(n=n, c=c)
            for r in check_constants(params, grid_points=GRID_POINTS):
                if r.check_id in ("const_gamma_floor", "const_alpha_min") and not r.passed:
                    failures.append(f"{r.check_id}(n={n},c={c})")
        # minimum of the normalized threshold branch at unit curvature
        fam = family(PinchingParams(n=n, c=1.0))
        a_x1, a1_x1, _, _ = (float(v) for v in fam.alpha(fam.x1))
        if abs(a_x1 - 2.0 * np.sqrt(n - 1.0)) > 1e-9 or abs(a1_x1) > 1e-9:
            failures.append(f"alpha_min(n={n})")
    report("AC4", not failures, f"floor and minimum checks; failures: {failures or 'none'}")


def test_ac5_exact_flow_reference():
    params = PinchingParams(n=10, c=1.0)
    initial = ProductSn1S1.from_r1sq(0.75, params)
    config = FlowConfig(epsilon=0.0, tol=1e-12, t_max=1.0)
    numeric = flow_ode_numeric(initial, params, config)
    kept = numeric.times <= 0.089
    exact = 0.9 * (1.0 - np.exp(20.0 * numeric.times[kept]) / 6.0)
    errs = np.abs(numeric.state.r1sq_exact[kept] - exact)
    T = numeric.terminal.time
    minimal = ProductSn1S1.from_r1sq(0.9, params)
    drift_trace = flow_ode_numeric(minimal, params, config)
    drift = np.max(np.abs(drift_trace.state.r1sq_exact - 0.9))
    ok = (
        max(errs) <= 1e-8
        and numeric.terminal.kind is TerminalKind.GREAT_CIRCLE_COLLAPSE
        and abs(T - np.log(6.0) / 20.0) <= 1e-7
        and drift <= 1e-10
    )
    report(
        "AC5", ok,
        f"max trajectory error {max(errs):.2e}, |T - log(6)/20| = "
        f"{abs(T - np.log(6.0) / 20.0):.2e}, minimal-torus drift {drift:.2e}",
    )


def test_ac6_reaction_consistency():
    worst = 0.0
    for n, c in ((10, 1.0), (3, 1.0), (6, 0.25)):
        params = PinchingParams(n=n, c=c)
        config = FlowConfig(
            epsilon=0.0, tol=1e-12, t_max=10.0 / c, dt_initial=1.0 / (500.0 * n * c)
        )
        prod = flow_ode_numeric(
            ProductSn1S1.from_r1sq(0.8 * (n - 1.0) / (n * c), params), params, config
        )
        sph = flow_ode_numeric(
            GeodesicSphere(rho=0.4 * np.pi / np.sqrt(c)), params, config
        )
        for trace in (prod, sph):
            res_H, res_h2 = reaction_residuals(trace, params)
            worst = max(worst, float(res_H.max()), float(res_h2.max()))
    report("AC6", worst <= 1e-6, f"worst relative reaction residual {worst:.2e}")


def test_ac7_pinching_preservation():
    # Strictly pinched suite: geodesic spheres across dimension, curvature,
    # and radius.  Product states sit exactly on the threshold (their
    # curvature equals the radical branch identically), and any perturbed
    # torus-type profile leaves the strict region somewhere, so spheres are
    # the strictly pinched family; tori enter as weak-equality flows and
    # perturbed circles as report-only boundary probes.
    runs = 0
    violations = []
    for n in (3, 5, 7, 10, 12):
        for c in CS:
            for frac in (0.2, 0.42):
                params = PinchingParams(n=n, c=c)
                trace = flow_ode_numeric(
                    GeodesicSphere(rho=frac * np.pi / np.sqrt(c)), params,
                    FlowConfig(tol=1e-10, t_max=1.5 / c),
                )
                runs += 1
                U = trace.monitors.U_max
                if not np.all(U < 0.0):
                    violations.append((n, c, frac, float(U.max())))
    # weak-equality product flows: curvature tracks the threshold to 1e-7
    worst_weak = 0.0
    for n, c in ((10, 1.0), (6, 4.0), (4, 0.25)):
        params = PinchingParams(n=n, c=c)
        lam0 = product_lambda_for_mean_curvature(params, np.sqrt(family(params).x0))
        trace = flow_product_exact(
            ProductSn1S1(lam=lam0), params, FlowConfig(epsilon=0.0, t_max=10.0 / c)
        )
        h2, gam = trace.monitors.h2_max, trace.monitors.gamma_min
        worst_weak = max(worst_weak, float(np.max(np.abs(h2 - gam) / gam)))
    # 5%-perturbed circles: correctly flagged as outside the strict regime
    params = PinchingParams(n=10, c=1.0)
    phi, xi = perturbed_product_profile(params, 0.75, amplitude=0.05, mode=3, n_points=96)
    probe = flow_axisymmetric(
        Axisymmetric(np.stack([phi, xi], axis=1)), params,
        FlowConfig(epsilon=0.01, t_max=0.02),
    )
    flagged = bool(np.all(probe.monitors.U_max > 0.0))
    ok = runs >= 20 and not violations and worst_weak <= 1e-7 and flagged
    report(
        "AC7", ok,
        f"{runs} strictly pinched flows with U < 0 (violations: {violations or 'none'}); "
        f"weak-equality tracking {worst_weak:.2e}; boundary probe flagged: {flagged}",
    )


def test_ac8_decay_monitor():
    results = []
    ok = True
    for n in (10, 6):
        params = PinchingParams(n=n, c=1.0)
        minimal_r1sq = (n - 1.0) / n
        phi, xi = perturbed_product_profile(
            params, minimal_r1sq, amplitude=0.005, mode=2, n_points=96
        )
        trace = flow_axisymmetric(
            Axisymmetric(np.stack([phi, xi], axis=1)), params,
            FlowConfig(epsilon=0.0, sigma=0.1, t_max=0.25),
        )
        ts = trace.times
        i1 = int(np.searchsorted(ts, 0.1))
        g_sigma, c0 = trace.monitors.g_sigma, trace.monitors.C0_fit
        g_ratio = float(g_sigma[i1:].max() / g_sigma[i1])
        c0_ratio = float(c0[-1] / c0[i1])
        ok &= g_ratio <= 1.05 and c0_ratio <= 1.05
        results.append(f"n={n}: g ratio {g_ratio:.4f}, C0 ratio {c0_ratio:.4f}")
    report("AC8", ok, "; ".join(results) + " (bounds 1.05)")


def test_ac9_curvature_engine():
    params = PinchingParams(n=10, c=1.0)
    # closed-form reproduction at grid 512: product family
    lam = np.sqrt(1.0 / 0.75 - 1.0)
    phi, xi = product_profile(params, 0.75, n_points=512)
    geom = curvature_of_profile(phi, xi, params)
    err_product = max(
        float(np.max(np.abs(geom.kappa_orbit - lam))),
        float(np.max(np.abs(geom.kappa_profile + 1.0 / lam))),
    )
    # closed-form reproduction at grid 512: geodesic spheres
    err_sphere = 0.0
    for rho in (0.7, 0.9):
        phi, xi = sphere_profile(params, rho, n_points=512)
        g = curvature_of_profile(phi, xi, params)
        k = 1.0 / np.tan(rho)
        err_sphere = max(
            err_sphere,
            float(np.max(np.abs(g.kappa_orbit - k))),
            float(np.max(np.abs(g.kappa_profile - k))),
        )
    # order-2 convergence under refinement
    k = 1.0 / np.tan(0.9)
    errors = {}
    for n_points in (256, 512, 1024, 2048):
        phi, xi = sphere_profile(params, 0.9, n_points=n_points, warp=0.25)
        g = curvature_of_profile(phi, xi, params)
        errors[n_points] = max(
            float(np.max(np.abs(g.kappa_orbit - k))),
            float(np.max(np.abs(g.kappa_profile - k))),
        )
    sizes = sorted(errors)
    ratios = [errors[a] / errors[b] for a, b in zip(sizes, sizes[1:])]
    ok = err_product <= 1e-6 and err_sphere <= 1e-6 and all(3.5 <= r <= 4.5 for r in ratios)
    report(
        "AC9", ok,
        f"grid-512 errors: product {err_product:.2e}, sphere {err_sphere:.2e}; "
        f"refinement ratios {[round(r, 3) for r in ratios]}",
    )
