#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mf-pool --seed 1 --seconds 45 --trace 0

Builds the driver (perfbench/bench.ml) and the distributed worker with
dune, runs the driver for one workload, adds the peak resident set of
the driver and every worker it started, and prints
{"correct", "attempted", "failed", "metrics"} as the last stdout line.
Everything it writes stays under .perfbench/ and _build/ in the checkout.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["mf-pool", "mf-dist"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(env):
    """Build the driver and the worker from the checkout's sources."""
    cmd = ["dune", "build", "--root", ROOT,
           "./perfbench/bench.exe", "./bin/orion_worker.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        fail(f"build failed with code {proc.returncode}")


def run_driver(args, env, workdir, trace_out):
    """Run the driver in its own process group; return (exit code, stdout,
    peak RSS in MB over the driver and the workers it waited for)."""
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", workdir, "--trace-out", trace_out]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)

    def kill():
        print("perfbench: run timed out, killing it", file=sys.stderr)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(RUN_TIMEOUT_S, kill)
    timer.start()
    try:
        out = proc.stdout.read().decode()
        # wait4 reports the child's peak RSS, including every descendant
        # it waited for (the distributed workers)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    # reaped by wait4: tell Popen, so it never waits again
    proc.returncode = os.waitstatus_to_exitcode(status)
    # a worker left behind by a failed run must not outlive us
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} at {ROOT}: run from the root of a full checkout")

    state = os.path.join(ROOT, ".perfbench")
    # this run's shards and temporary files (sockets among them)
    workdir = os.path.join(state, f"run-{os.getpid()}")
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp)
    try:
        result, code = build_and_run(args, state, workdir, tmp)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    sys.exit(code if code != 0 else (0 if result["correct"] else 1))


def build_and_run(args, state, workdir, tmp):
    env = dict(os.environ)
    # the program's own knobs take their defaults
    for var in ("ORION_COMMS", "ORION_DIST_SPAWN", "ORION_NO_COMPILE",
                "ORION_BENCH_SCALE", "ORION_TELEMETRY", "ORION_LOG",
                "ORION_DIST_ABORT_RANK", "ORION_DATA_RATINGS",
                "ORION_DATA_FEATURES", "ORION_DATA_CORPUS"):
        env.pop(var, None)
    # keep every file the build and the run write inside the checkout
    env["DUNE_CACHE"] = "disabled"
    env["TMPDIR"] = tmp
    build(env)

    # workers are exec'd from the built executable, not forked from the
    # driver, whose heap holds the baseline instance
    env["ORION_WORKER_EXE"] = os.path.join(
        ROOT, "_build", "default", "bin", "orion_worker.exe")
    # socket paths must stay short: relative to the driver's cwd (ROOT)
    env["TMPDIR"] = os.path.relpath(tmp, ROOT)
    traces = os.path.join(state, "traces")
    os.makedirs(traces, exist_ok=True)
    trace_out = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
    code, out, rss_mb = run_driver(args, env, workdir, trace_out)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail(f"driver printed no result (exit code {code})", 1)
    result = json.loads(lines[-1])
    if args.trace == 0:
        result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    else:
        print(f"perfbench: trace written to {trace_out}", file=sys.stderr)
    return result, code


if __name__ == "__main__":
    main()
