"""One round of a workload in a fresh interpreter.

Usage: python3 perfbench/child.py WORKLOAD SEED TRACE WORKDIR RESULT_JSON

Set-up is everything before the first CLI call: ``import pinchflow`` (and
through it numpy, scipy and mpmath), writing the seeded inputs into WORKDIR,
and, when TRACE is 1, installing the tracer.  The round then runs the
workload's ``pinchflow.cli.main`` calls one after another in this process,
validates their outputs, and writes RESULT_JSON.  ``PYTHONPATH`` must put the
checkout's ``src`` first.
"""

import hashlib
import json
import os
import resource
import sys
import time
import traceback

import pinchflow.cli
import pinchflow.verify

import workloads


def _run_cli(argv):
    """Exit code of one ``pinchflow.cli.main`` call, as the console script returns it."""
    try:
        return pinchflow.cli.main(argv), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), None
    except Exception:  # a traceback is a failed operation, not a benchmark crash
        return 1, traceback.format_exc()


def _sha256(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def main(workload, seed, trace, workdir, result_path):
    pools = []
    pool_cls = getattr(pinchflow.verify, "ThreadPoolExecutor", None)
    if pool_cls is not None:
        # Record the worker count verify resolves, without changing it.
        class RecordingPool(pool_cls):
            def __init__(self, max_workers=None, *args, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        pinchflow.verify.ThreadPoolExecutor = RecordingPool

    os.chdir(workdir)
    calls = workloads.BUILDERS[workload](seed)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    first_call = time.monotonic()
    start, cpu = time.perf_counter(), time.process_time()
    exits = [_run_cli(call.argv) for call in calls]
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    attempted = failed = 0
    reasons = []
    for call, (code, tb) in zip(calls, exits):
        a, f, why = call.check(code)
        attempted, failed = attempted + a, failed + f
        reasons.extend(why)
        if tb:
            reasons.append(tb)
    digests = {name: _sha256(name) for call in calls for name in call.outputs}
    result = {
        "first_call_monotonic": first_call,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kib / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "digests": digests,
        # verify runs serially when it makes no pool
        "verify_workers": (pools[0] if pools else 1)
        if workload == "verify_lattice" and pool_cls is not None else None,
        "pinchflow_file": pinchflow.cli.__file__,
        "versions": {name: sys.modules[name].__version__ for name in ("numpy", "scipy", "mpmath")},
    }
    if tracer is not None:
        tracer.dump("spans.json")
        result["spans"] = os.path.join(workdir, "spans.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    w, s, t, d, r = sys.argv[1:6]
    main(w, int(s), t == "1", d, r)
