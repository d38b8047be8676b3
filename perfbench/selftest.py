#!/usr/bin/env python3
"""Self-tests of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

1. A smoke-sized run of every workload, in both modes, exits 0 and prints
   every metric BENCHMARK.json names for the mode (run.py checks the names
   and units; this test checks the result is correct and nothing failed).
2. A deliberately perturbed output (--perturb flips one bit of the first
   access-tree run's output) is caught by the checker: the command exits
   non-zero and reports correct = false with failed operations.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["barneshut", "serve-churn", "hier-scale"]


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=ROOT, timeout=600)
    lines = proc.stdout.splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, result, err = run(workload, trace)
            names = {m["name"] for m in bench[key]}
            expect(rc == 0 and result is not None and result["correct"] and
                   result["failed"] == 0 and set(result["metrics"]) == names,
                   f"{workload} --trace {trace}: smoke run prints every {key} metric"
                   + ("" if rc == 0 else f" (exit {rc}: {err.strip()[-200:]})"))
        rc, result, _ = run(workload, 0, "--perturb")
        expect(rc != 0 and result is not None and not result["correct"] and
               result["failed"] > 0,
               f"{workload}: perturbed output is caught by the checker")

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
