#!/usr/bin/env python3
"""Smoke check of the benchmark, in a few minutes.

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json for one second, untraced and
traced, and checks the result line: exactly the keys correct, attempted,
failed and metrics; every run correct; exactly the metrics BENCHMARK.json
names, with its units. On mf-pool the traced run must report
net.bytes_per_sample = 0 and on the distributed workloads more than 0.
Finally runs the benchmark in a directory holding only BENCHMARK.json and
perfbench/, where it must fail without printing a result. Exits 1 on the
first failed check.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check(ok, what):
    if not ok:
        print(f"smoke: FAILED: {what}")
        sys.exit(1)


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{workload} --trace {trace}"
            proc = run(ROOT, workload, trace)
            check(proc.returncode == 0,
                  f"{what} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{what} result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, f"{what} result {result}")
            metrics = result["metrics"]
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            check(sorted(metrics) == sorted(expected),
                  f"{what} metrics {sorted(metrics)}")
            for name, m in metrics.items():
                check(m["unit"] == expected[name] and math.isfinite(m["value"]),
                      f"{what} {name} = {m}")
                if kind == "end_to_end":
                    check(m["value"] > 0, f"{what} {name} = {m['value']}")
            if trace == 1:
                wire = metrics["net.bytes_per_sample"]["value"]
                check(wire == 0 if workload == "mf-pool" else wire > 0,
                      f"{what} net.bytes_per_sample = {wire}")
            print(f"smoke: {what} ok")

    # without the repository's sources the benchmark must refuse to run
    stripped = os.path.join(ROOT, ".perfbench", "smoke-stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    os.makedirs(stripped)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(stripped, "perfbench"))
    proc = run(stripped, spec["workloads"][0]["name"], 0)
    shutil.rmtree(stripped, ignore_errors=True)
    check(proc.returncode != 0 and proc.stdout.strip() == "",
          f"stripped directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("smoke: stripped directory refused ok")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
