"""pinchflow benchmark: end-to-end and per-layer metrics of the CLI workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify_lattice --seed 1 --seconds 40 --trace 0

The run repeats rounds of the workload for about ``--seconds`` seconds.
Each round is a fresh interpreter (``perfbench/child.py``), started one at a
time, so the threshold-family cache and scipy's lazy imports start cold, as on
every ``pinchflow`` command.  A round makes the workload's
``pinchflow.cli.main`` calls and validates every output.

``--trace 0`` reports the end-to-end metrics, each the median over the run's
rounds.  ``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics, each the median over the traced rounds, plus the tracing
overhead.  The last line of standard output is the JSON result; the lines
before it give the sample counts, provenance and output digests.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work" / str(os.getpid())
MIN_ROUNDS = 3  # untraced rounds of a --trace 0 run: setup_s and wall_s are medians
MIN_TRACED_PAIRS = 2  # untraced + traced rounds of a --trace 1 run
RUN_LIMIT_S = 165.0  # a run must end within 180 s

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from spans import layer_metrics  # noqa: E402


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "pinchflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Round:
    """One child interpreter running one round of the workload."""

    def __init__(self, workload, seed, traced, index, env, deadline):
        workdir = WORK / f"round{index}"
        workdir.mkdir(parents=True)
        result_path = workdir / "result.json"
        argv = [sys.executable, str(HERE / "child.py"), workload, str(seed),
                "1" if traced else "0", str(workdir), str(result_path)]
        with open(workdir / "log.txt", "w", encoding="utf-8") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=max(1.0, deadline - spawned))
            except subprocess.TimeoutExpired:
                pass
            finally:  # also on SIGTERM or Ctrl-C: leave no child running
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        self.seconds = time.monotonic() - spawned
        self.traced = traced
        if proc.returncode != 0 or not result_path.exists():
            log_tail = (workdir / "log.txt").read_text(errors="replace")[-2000:]
            self.result = None
            self.reasons = [f"round {index} exited {proc.returncode}:\n{log_tail}"]
        else:
            self.result = json.loads(result_path.read_text())
            self.reasons = self.result["reasons"]
            self.result["setup_s"] = self.result["first_call_monotonic"] - spawned
            if traced:
                payload = json.loads(Path(self.result["spans"]).read_text())
                self.layers = layer_metrics(payload["spans"], payload["counts"])
        shutil.rmtree(workdir)

    @property
    def ok(self):
        return self.result is not None


def run_rounds(args, env):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    rounds = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(Round(args.workload, args.seed, traced, len(rounds), env, deadline))
        if not rounds[-1].ok:
            break
        plain = sum(1 for r in rounds if not r.traced)
        need = MIN_TRACED_PAIRS * 2 if args.trace else MIN_ROUNDS
        typical = statistics.median(r.seconds for r in rounds)
        now = time.monotonic()
        if now + typical > deadline:
            break
        if len(rounds) >= need and (not args.trace or plain * 2 == len(rounds)):
            if now - start + typical > args.seconds:
                break
    return rounds


def end_to_end(rounds):
    plain = [r.result for r in rounds if r.ok and not r.traced]
    return {
        "wall_s": statistics.median([r["wall_s"] for r in plain]),
        "setup_s": statistics.median([r["setup_s"] for r in plain]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
    }, len(plain)


def per_layer(rounds, attempted, failed):
    traced = [r for r in rounds if r.ok and r.traced]
    plain = [r.result["wall_s"] for r in rounds if r.ok and not r.traced]
    out = {name: statistics.median([r.layers[name] for r in traced]) for name in traced[0].layers}
    wasted = [r.layers["thresholds.family_builds_wasted"] for r in traced]
    out["thresholds.family_builds_wasted_spread"] = max(wasted) - min(wasted)
    traced_wall = statistics.median([r.result["wall_s"] for r in traced])
    out["trace_overhead_s"] = traced_wall - statistics.median(plain)
    out["failed_ratio"] = failed / attempted
    return out, len(traced)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pinchflow" / "cli.py").is_file():
        print(f"error: no pinchflow sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # Building a Python package is byte-compiling it; do it before any timing.
    compileall.compile_dir(str(SRC), quiet=1)
    env = dict(os.environ)
    env.pop("PINCHFLOW_THREADS", None)  # verify resolves its default pool
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(WORK)

    WORK.mkdir(parents=True)
    try:
        rounds = run_rounds(args, env)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    good = [r.result for r in rounds if r.ok]
    if not any(r.ok and r.traced == bool(args.trace) for r in rounds):
        # No round the metrics come from finished (the loop stops at the first crash).
        print("\n".join(rounds[-1].reasons), file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in good) + sum(1 for r in rounds if not r.ok)
    failed = sum(r["failed"] for r in good) + sum(1 for r in rounds if not r.ok)
    if args.trace:
        values, samples = per_layer(rounds, attempted, failed)
    else:
        values, samples = end_to_end(rounds)
    digests = sorted({json.dumps(r["digests"], sort_keys=True) for r in good})

    for i, r in enumerate(rounds):
        if r.ok:
            res = r.result
            print(f"round {i} {'traced' if r.traced else 'untraced'}: wall {res['wall_s']:.4f} s "
                  f"(cpu {res['cpu_s']:.4f} s), setup {res['setup_s']:.4f} s, rss {res['peak_rss_mb']:.1f} MB, "
                  f"{res['failed']}/{res['attempted']} failed")
    for reason in [x for r in rounds for x in r.reasons][:20]:
        print(f"FAILED: {reason}")
    print(f"samples: {samples} {'traced' if args.trace else 'untraced'} rounds (metrics are medians)")
    first = good[0]
    print("provenance: " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **first["versions"],
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "verify_workers": first["verify_workers"],
        "pinchflow_file": first["pinchflow_file"],
    }, sort_keys=True))
    if len(digests) > 1:
        print("NOTE: output digests differ between rounds of this run")
    for d in digests:
        print("digests: " + d)

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
    print(json.dumps({
        "correct": failed == 0 and all(r.ok for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _stop(signum, _frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _stop)
    sys.exit(main())
