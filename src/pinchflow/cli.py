"""Command-line entry point.

Subcommands: ``thresholds`` (threshold table CSV), ``constants`` (certified
constants JSON), ``verify`` (run the certification suite), ``simulate`` (flow
a state and write the trace).  Exit codes: 0 success, 1 check or run failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import export
from .errors import DomainError, PinchflowError
from .flow import FlowConfig, flow_axisymmetric, flow_ode_numeric, flow_product_exact
from .geometry import Axisymmetric, GeodesicSphere, ProductSn1S1
from .thresholds import PinchingParams, family
from .verify import DEFAULT_CS, DEFAULT_GRID_POINTS, DEFAULT_NS, DEFAULT_SEED, default_suite


def _add_params(parser):
    parser.add_argument("--n", type=int, default=10, help="ambient dimension (default 10)")
    parser.add_argument("--c", type=float, default=1.0, help="ambient curvature (default 1)")


@functools.cache  # parse_args leaves the parser unchanged, so main reuses one per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pinchflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_thr = sub.add_parser("thresholds", help="write the threshold table")
    _add_params(p_thr)
    p_thr.add_argument("--x", type=float, default=None, help="single abscissa x = H^2")
    p_thr.add_argument("--x-min", type=float, default=None)
    p_thr.add_argument("--x-max", type=float, default=None)
    p_thr.add_argument("--points", type=int, default=1001)
    p_thr.add_argument("--output", default="thresholds.csv")

    p_const = sub.add_parser("constants", help="write the certified constants")
    _add_params(p_const)
    p_const.add_argument("--output", default="constants.json")

    p_ver = sub.add_parser("verify", help="run the certification suite")
    p_ver.add_argument("--n-values", type=int, nargs="+", default=list(DEFAULT_NS))
    p_ver.add_argument("--c-values", type=float, nargs="+", default=list(DEFAULT_CS))
    p_ver.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_ver.add_argument("--output", default=None, help="JSON report path")

    p_sim = sub.add_parser("simulate", help="integrate the flow for one state")
    _add_params(p_sim)
    p_sim.add_argument(
        "--family",
        choices=["sphere", "product", "product-exact", "axisymmetric"],
        default="product",
    )
    p_sim.add_argument("--rho", type=float, default=None, help="geodesic sphere radius")
    p_sim.add_argument("--r1sq", type=float, default=None, help="product squared radius r1^2")
    p_sim.add_argument("--lam", type=float, default=None, help="product principal curvature")
    p_sim.add_argument("--profile", default=None, help="JSON state file for axisymmetric runs")
    p_sim.add_argument("--epsilon", type=float, default=None)
    p_sim.add_argument("--sigma", type=float, default=0.1)
    p_sim.add_argument("--t-max", type=float, default=None)
    p_sim.add_argument("--tol", type=float, default=1e-10)
    p_sim.add_argument("--output", default="trace.csv")
    p_sim.add_argument("--terminal-json", default=None)
    p_sim.add_argument(
        "--curvature-csv", default=None, help="write the initial state's pointwise report"
    )
    return parser


def state_from_json(payload: dict):
    """State from its JSON schema: product (lambda), sphere (rho), or profile."""
    if not isinstance(payload, dict):
        raise PinchflowError(f"a state must be a JSON object, got {type(payload).__name__}")
    fam_name = payload.get("family", "axisymmetric")
    if fam_name == "product":
        return ProductSn1S1(lam=float(payload["lambda"]))
    if fam_name == "sphere":
        return GeodesicSphere(rho=float(payload["rho"]))
    return Axisymmetric(profile=np.asarray(payload["profile"], dtype=float))


# The state type each --family flows.
_FAMILY_STATES = {
    "sphere": GeodesicSphere,
    "product": ProductSn1S1,
    "product-exact": ProductSn1S1,
    "axisymmetric": Axisymmetric,
}


def _load_state(args, params):
    if args.profile is not None:
        try:
            with open(args.profile, "r", encoding="utf-8") as fh:
                state = state_from_json(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise PinchflowError(f"cannot read state file {args.profile!r}: {exc}") from exc
        if not isinstance(state, _FAMILY_STATES[args.family]):
            raise PinchflowError(
                f"--family {args.family} does not match the {type(state).__name__} state "
                f"in {args.profile!r}"
            )
        return state
    if args.family == "sphere":
        rho = args.rho if args.rho is not None else 0.3 * np.pi / np.sqrt(params.c)
        return GeodesicSphere(rho=rho)
    if args.family in ("product", "product-exact"):
        if args.lam is not None:
            return ProductSn1S1(lam=args.lam)
        r1sq = args.r1sq
        if r1sq is None:  # five sixths of the stationary torus (n-1)/(nc); 0.75/c at n = 10
            r1sq = 5 * (params.n - 1) / (6 * params.n) / params.c
        return ProductSn1S1.from_r1sq(r1sq, params)
    raise PinchflowError("axisymmetric runs need --profile pointing to a state file")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    echo = {k: v for k, v in vars(args).items() if k != "command"}
    echo["command"] = args.command
    try:
        if args.command == "thresholds":
            params = PinchingParams(n=args.n, c=args.c)
            fam = family(params)
            if args.x is not None:
                xs = np.array([args.x])
            else:
                if args.points < 1:
                    parser.error(f"--points must be >= 1, got {args.points}")
                lo = args.x_min if args.x_min is not None else 0.0
                hi = args.x_max if args.x_max is not None else 100.0 * params.c
                # inf or nan, silently in Python floats, where np.linspace would warn
                if not np.isfinite(hi - lo):
                    raise DomainError(
                        f"--x-min {lo!r} and --x-max {hi!r} must be finite and a finite "
                        "distance apart"
                    )
                xs = np.linspace(lo, hi, args.points)
            export.write_threshold_csv(args.output, fam, xs, echo)
            print(f"wrote {args.output} ({len(xs)} rows)")
            return 0

        if args.command == "constants":
            params = PinchingParams(n=args.n, c=args.c)
            consts = family(params).constants
            export.write_constants_json(args.output, params, consts, echo)
            print(
                f"n={params.n} c={params.c}: y_n={consts.y_n!r} x0={consts.x0!r} "
                f"k_n={consts.k_n!r}"
            )
            return 0

        if args.command == "verify":
            if args.grid_points < 3:
                parser.error(f"--grid-points must be >= 3, got {args.grid_points}")
            reports = default_suite(
                ns=tuple(args.n_values),
                cs=tuple(args.c_values),
                grid_points=args.grid_points,
                seed=args.seed,
            )
            print(export.render_report_table(reports))
            if args.output:
                export.write_reports_json(args.output, reports, echo)
            failed = [r for r in reports if not r.passed]
            print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
            if failed:
                worst = failed[0]
                print(
                    f"FIRST FAILURE: {worst.check_id} (n={worst.n}, c={worst.c}) "
                    f"worst x = {worst.worst_x!r}, margin = {worst.worst_margin!r}"
                )
                return 1
            return 0

        if args.command == "simulate":
            params = PinchingParams(n=args.n, c=args.c)
            state = _load_state(args, params)
            config = FlowConfig(
                epsilon=args.epsilon,
                sigma=args.sigma,
                t_max=args.t_max,
                tol=args.tol,
            )
            config.validate()  # before any file is written
            if args.curvature_csv:
                export.write_curvature_csv(args.curvature_csv, state, params, echo)
            if args.family == "product-exact":
                trace = flow_product_exact(state, params, config)
            elif args.family == "axisymmetric":
                trace = flow_axisymmetric(state, params, config)
            else:
                trace = flow_ode_numeric(state, params, config)
            export.write_trace_csv(args.output, trace, echo)
            if args.terminal_json:
                export.write_terminal_json(args.terminal_json, trace, echo)
            print(
                f"terminal: {trace.terminal.kind.value} at T = {trace.terminal.time!r} "
                f"({len(trace.monitors)} recorded steps)"
            )
            return 0
    except PinchflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's _ArrayMemoryError names the size refused
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
