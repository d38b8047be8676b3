#!/usr/bin/env python3
"""Build and run the DIVA same-box benchmark (perfbench/METRICS.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload barneshut --seed 1 --seconds 30 --trace 0

Configures and builds perfbench/ (which builds libdiva from the repository's
own CMake project) into $CARGO_TARGET_DIR, default .bench_build, then runs the
benchmark binary for one workload in its own process. The binary's last
stdout line is the result object; this script checks that it names exactly
the metrics BENCHMARK.json lists for the mode (--trace 0: end_to_end,
--trace 1: per_layer), with their units, and prints it as its own last line.
With --trace 1 the host-time spans and the simulated-time trace are written
as Chrome trace JSON under <build dir>/traces/.

Exit code: the binary's (0 = every output check passed), or 1 when the build
fails or the result does not match BENCHMARK.json. Build output goes to
stderr.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configure and build the benchmark binary; returns its path."""
    cfg = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
        fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def check_result(line, expected):
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"last line is not JSON: {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
             "or units differ")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        fail("attempted must be a whole number >= 1")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["barneshut", "serve-churn", "hier-scale"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--smoke", action="store_true", help="small inputs (self-tests)")
    ap.add_argument("--perturb", action="store_true",
                    help="corrupt one output so the checks must fail (self-tests)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    expected = expected_metrics(args.trace)
    out = build_dir()
    binary = build(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-dir", traces]
    if args.smoke:
        cmd.append("--smoke")
    if args.perturb:
        cmd.append("--perturb")
    # The binary stops starting repetitions at --seconds; the slack covers
    # the repetition in progress and the untimed checks.
    timeout = 2 * args.seconds + 60
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {timeout:g} s")
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"benchmark printed no result (exit {proc.returncode})")
    check_result(lines[-1], expected)
    print("\n".join(lines))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
