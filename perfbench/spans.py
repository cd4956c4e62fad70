"""Spans taken from outside the package, and the per-layer metrics built from them.

``Tracer.install`` replaces module attributes of ``pinchflow`` with timing
wrappers; nothing in the package changes.  A function imported by name into
another module (``from .geometry import curvature_of``) is replaced in every
``pinchflow`` module that binds it, so calls through any of those names are
seen.  Each span records (id, name, start, end, parent id, thread id); the
parent is the innermost open span of the same thread.  Spans stay in memory
until ``dump``.

Self time is a span's duration minus the part of it covered by its children
on the same thread.  ``verify`` runs checks on pool threads, whose spans have
no parent; a parent blocked on the pool keeps that wait as its own self time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

VERIFY_CHECKS = ("lemma_app", "wpp", "constants", "derivative_oracles", "okumura", "flow_oracles")
FLOW_DRIVERS = ("flow_product_exact", "flow_ode_numeric", "flow_axisymmetric")
FAMILY_METHODS = ("alpha", "beta", "gamma", "omega")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._families = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name, amount=1):
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name, fn, after=None):
        """fn timed as a span called name; after(args, result) runs outside the span."""
        local, spans, ids = self._local, self.spans, self._ids
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, ident()))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # ------------------------------------------------------------ install

    def install(self):
        """Wrap the public layer functions of the imported pinchflow package."""
        mod = {name: importlib.import_module(f"pinchflow.{name}")
               for name in ("thresholds", "geometry", "axisym", "flow", "verify", "export", "cli")}

        fam = mod["thresholds"].ThresholdFamily
        fam.__init__ = self.wrap("thresholds.family_build", fam.__init__, self._built)
        for meth in FAMILY_METHODS:
            setattr(fam, meth, self.wrap(f"thresholds.{meth}", getattr(fam, meth)))

        self._replace(mod["geometry"].curvature_of, "geometry.curvature_of")
        self._replace(mod["flow"].monitors_update, "flow.monitors")
        self._replace(mod["flow"].solve_ivp, "flow.solve_ivp", self._solved)
        for name in FLOW_DRIVERS:
            after = self._profile_steps if name == "flow_axisymmetric" else None
            self._replace(getattr(mod["flow"], name), f"flow.{name}", after)
        self._replace(mod["axisym"].resample_profile, "axisym.resample")
        self._replace(mod["axisym"].profile_geometry, "axisym.profile_geometry")
        for check in VERIFY_CHECKS:
            self._replace(getattr(mod["verify"], f"check_{check}"), f"verify.{check}")
        self._replace_timed_cpu(mod["verify"].default_suite, "verify.default_suite")
        for name in dir(mod["export"]):
            if name.startswith(("write_", "render_")):
                after = self._bytes if name.startswith("write_") else None
                self._replace(getattr(mod["export"], name), f"export.{name}", after)
        self._replace(mod["cli"].main, "cli.main")

    def _replace(self, original, name, after=None):
        self._rebind(original, self.wrap(name, original, after))

    def _replace_timed_cpu(self, original, name):
        """Also count the process CPU time (all threads) and the reports returned."""

        def timed(*args, **kwargs):
            cpu = time.process_time()
            reports = original(*args, **kwargs)
            self.count("verify.cpu_s", time.process_time() - cpu)
            self.count("verify.checks", len(reports))
            return reports

        self._rebind(original, self.wrap(name, functools.wraps(original)(timed)))

    @staticmethod
    def _rebind(original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "pinchflow" and not mod_name.startswith("pinchflow."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    # ------------------------------------------------------------- counts

    def _built(self, args, _result):
        params = args[1]
        with self._lock:
            self._families.add((params.n, params.c))
            self.counts["thresholds.family_distinct"] = len(self._families)

    def _solved(self, _args, sol):
        self.count("flow.solve_ivp_nfev", int(sol.nfev))
        self.count("flow.ode_steps", len(sol.t) - 1)

    def _profile_steps(self, _args, trace):
        # one monitor record per loop pass: the initial state plus one per RK4 step
        self.count("flow.rk4_steps", len(trace.monitors) - 1)

    def _bytes(self, args, _result):
        self.count("export.bytes_written", os.path.getsize(args[0]))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


# -------------------------------------------------------------- arithmetic


def _covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """{span id: duration minus the time its same-thread children cover}."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for sid, _name, start, end, parent, tid in spans:
        if parent is not None and parent in by_id and by_id[parent][5] == tid:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(start, end, children[sid])
        for sid, _name, start, end, _parent, _tid in spans
    }


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced round, keyed by metric name."""
    own = self_times(spans)
    self_s, incl_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for sid, name, start, end, _parent, _tid in spans:
        self_s[name] += own[sid]
        incl_s[name] += end - start
        calls[name] += 1

    out = {}
    for meth in FAMILY_METHODS:
        out[f"thresholds.{meth}_s"] = self_s[f"thresholds.{meth}"]
        out[f"thresholds.{meth}_calls"] = calls[f"thresholds.{meth}"]
    builds = calls["thresholds.family_build"]
    out["thresholds.family_build_s"] = incl_s["thresholds.family_build"]
    out["thresholds.family_builds"] = builds
    out["thresholds.family_builds_wasted"] = builds - int(counts.get("thresholds.family_distinct", 0))
    out["geometry.curvature_of_s"] = self_s["geometry.curvature_of"]
    out["geometry.curvature_of_calls"] = calls["geometry.curvature_of"]
    out["flow.monitors_s"] = self_s["flow.monitors"]
    out["flow.monitors_calls"] = calls["flow.monitors"]
    out["flow.solve_ivp_s"] = self_s["flow.solve_ivp"]
    out["flow.solve_ivp_nfev"] = int(counts.get("flow.solve_ivp_nfev", 0))
    out["flow.ode_steps"] = int(counts.get("flow.ode_steps", 0))
    out["axisym.resample_s"] = self_s["axisym.resample"]
    out["axisym.resample_calls"] = calls["axisym.resample"]
    out["axisym.profile_geometry_s"] = self_s["axisym.profile_geometry"]
    out["axisym.profile_geometry_calls"] = calls["axisym.profile_geometry"]
    steps = int(counts.get("flow.rk4_steps", 0))
    out["flow.rk4_steps"] = steps
    out["flow.step_s"] = incl_s["flow.flow_axisymmetric"] / steps if steps else 0.0
    out["flow.driver_s"] = sum(self_s[f"flow.{name}"] for name in FLOW_DRIVERS)
    for check in VERIFY_CHECKS:
        out[f"verify.{check}_s"] = incl_s[f"verify.{check}"]
    out["verify.checks"] = int(counts.get("verify.checks", 0))
    out["verify.cpu_s"] = counts.get("verify.cpu_s", 0.0)
    out["export.write_s"] = sum(v for k, v in self_s.items() if k.startswith("export."))
    out["export.bytes_written"] = int(counts.get("export.bytes_written", 0))
    out["cli.self_s"] = self_s["cli.main"]
    return out
