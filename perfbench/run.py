#!/usr/bin/env python3
"""fundselect benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the checkout root is the parent of this
directory. Inputs are generated from --seed into .bench_work/ (removed at the
end of the run) and the CLI runs as `python -m fundselect.cli` with src/ on
PYTHONPATH, every call with an explicit --out under .bench_work/.

--trace 0 prints the end-to-end metrics. setup_s is the median of several
fresh-interpreter imports of fundselect.cli. Then the workload's CLI calls run
as subprocesses, repeated for as long as another repeat fits in --seconds
(at least twice); each figure is the median over the repeats.

--trace 1 prints the per-layer metrics: the same calls run in-process once
traced (tracer.py) between two untraced runs, all with --workers 1 so that
every layer runs in this process; trace.overhead_s is the traced time minus
the mean of the two untraced ones.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. Lines before it describe the environment and the samples.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
import warnings
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_SAMPLES = 5  # fresh imports per run; the median is setup_s
MIN_REPEATS = 2  # the repeat-hash check needs two runs of each call
CALL_TIMEOUT_S = 150


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", in the order
    BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class CallResult(NamedTuple):
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mib: float


def run_cli(argv: list[str], env: dict, cwd: str, log) -> CallResult:
    """One CLI call as a child process, in `cwd` so that a stray file cannot
    land in the checkout. CPU time and peak RSS come from the child's own
    rusage (wait4), which includes the workers it reaped."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "fundselect.cli", *argv], env=env, cwd=cwd,
                            stdin=subprocess.DEVNULL, stdout=log, stderr=log)
    timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CallResult(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0)


def measure_setup(env: dict) -> list[float]:
    """Wall times of fresh interpreters importing fundselect.cli. One extra
    import first compiles the bytecode and is not counted."""
    times = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fundselect.cli"], env=env, check=True,
                       stdin=subprocess.DEVNULL, timeout=60)
        if i:
            times.append(time.perf_counter() - start)
    return times


def fdp_excess(wl, fdps: list[float]) -> float:
    """Mean over the workload's d-value selections of max(0, FDP - theta);
    a selection that was never made counts as FDP 1."""
    padded = list(fdps) + [1.0] * (wl.selections - len(fdps))
    return statistics.fmean(max(0.0, f - wl.theta) for f in padded)


def timed_run(wl, seed: int, seconds: float, run_dir: str, workers: int) -> tuple[dict, dict]:
    env = _cli_env()
    setup = measure_setup(env)
    inputs = wl.make_inputs(os.path.join(run_dir, "inputs"), seed)
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": []}
    attempted = failed = 0
    findings: list[str] = []
    references = fdps = None
    with open(os.path.join(run_dir, "cli.log"), "ab") as log:
        start = time.perf_counter()
        rep = 0
        # Start another repeat only if it should end within --seconds.
        while rep < MIN_REPEATS or (
                (time.perf_counter() - start) * (rep + 1) / rep <= seconds):
            out_root = os.path.join(run_dir, f"rep{rep}")
            calls = wl.calls(inputs, out_root, seed, workers)
            results = [run_cli(c.argv, env, run_dir, log) for c in calls]
            outcome = wl.check(inputs, calls, [r.returncode for r in results],
                               references or [None] * len(calls))
            if references is None:
                references, fdps = outcome.hashes, outcome.fdps
            attempted += outcome.attempted
            failed += outcome.failed
            findings += outcome.findings
            samples["wall_s"].append(sum(r.wall_s for r in results))
            samples["cpu_s"].append(sum(r.cpu_s for r in results))
            samples["peak_rss_mb"].append(max(r.rss_mib for r in results))
            shutil.rmtree(out_root)
            rep += 1

    metrics = {name: statistics.median(vals) for name, vals in samples.items()}
    metrics["setup_s"] = statistics.median(setup)
    metrics["one_plus_fdp_excess"] = 1.0 + fdp_excess(wl, fdps)
    metrics["ok_frac"] = (attempted - failed) / attempted
    detail = {"repeats": rep, "samples": {**samples, "setup_s": setup},
              "fdp": fdps, "findings": findings}
    return _result(attempted, failed, metrics, declared_units("end_to_end")), detail


def traced_run(wl, seed: int, run_dir: str) -> tuple[dict, dict]:
    from fundselect import cli
    import tracer as tracing

    inputs = wl.make_inputs(os.path.join(run_dir, "inputs"), seed)

    def run_calls(label: str, tracer=None):
        calls = wl.calls(inputs, os.path.join(run_dir, label), seed, workers=1)
        codes = []
        start = time.perf_counter()
        for call in calls:
            span = tracer.root("cli.main") if tracer else contextlib.nullcontext()
            try:
                with span:
                    codes.append(cli.main(call.argv))
            except Exception:  # the CLI would have died with a traceback
                traceback.print_exc()
                codes.append(1)
        return calls, codes, time.perf_counter() - start

    with open(os.path.join(run_dir, "cli.log"), "w") as log, \
            contextlib.redirect_stderr(log), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # Untraced runs before and after the traced one, so that warm-up and
        # drift in machine speed do not land in the overhead.
        plain_calls, plain_codes, before_s = run_calls("untraced")
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced_calls, traced_codes, traced_s = run_calls("traced", tracer)
        again_calls, again_codes, after_s = run_calls("untraced-again")
    plain_s = (before_s + after_s) / 2

    plain = wl.check(inputs, plain_calls, plain_codes, [None] * len(plain_calls))
    traced = wl.check(inputs, traced_calls, traced_codes, plain.hashes)
    again = wl.check(inputs, again_calls, again_codes, plain.hashes)
    layers = tracing.layer_metrics(tracer.spans)
    layers["panel.load_s"] = (layers["panel.parse_s"] + layers["panel.assemble_s"]
                              + layers["panel.carhart_s"])
    layers["selection.fdp_excess"] = fdp_excess(wl, traced.fdps)
    layers["cli.bytes_written"] = sum(
        os.path.getsize(os.path.join(c.out_dir, name))
        for c in traced_calls for name in os.listdir(c.out_dir))
    layers["trace.overhead_s"] = traced_s - plain_s
    tracer.write(os.path.join(WORK, f"spans-{wl.name}.jsonl"))

    outcomes = (plain, traced, again)
    detail = {"untraced_s": [before_s, after_s], "traced_s": traced_s, "workers": 1,
              "spans": len(tracer.spans), "layers": layers,
              "findings": [f for o in outcomes for f in o.findings]}
    return _result(sum(o.attempted for o in outcomes), sum(o.failed for o in outcomes),
                   layers, declared_units("per_layer")), detail


def _result(attempted: int, failed: int, metrics: dict, units: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in units},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="fundselect benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "fundselect", "cli.py")):
        print(f"perfbench: no fundselect sources under {SRC}; run inside a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import envstamp
    import selftest
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    problems = selftest.run(WORK)
    if problems:
        print("perfbench: output checker self-test failed: " + "; ".join(problems),
              file=sys.stderr)
        return 3

    env = envstamp.stamp(ROOT)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    run_dir = tempfile.mkdtemp(prefix=f"{wl.name}-{args.seed}-", dir=WORK)
    try:
        if args.trace:
            result, detail = traced_run(wl, args.seed, run_dir)
        else:
            result, detail = timed_run(wl, args.seed, args.seconds, run_dir, env["nproc"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("detail " + json.dumps({"workload": wl.name, "seed": args.seed, **detail}), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
