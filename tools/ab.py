#!/usr/bin/env python3
"""Same-box interleaved A/B of two perfbench binaries.

    python3 tools/ab.py <perfbench-A> <perfbench-B> --workload hier-scale \\
        --seeds 1 2 3 [--seconds 30] [--rounds 1] [--no-trace]

A and B are perfbench binaries, e.g. the parent's and the change's
`$CARGO_TARGET_DIR/perfbench` as `perfbench/run.py` builds them. For every
round and seed the two binaries run back to back with `--trace 0`; the order
flips from one pair to the next, so a slow drift of the box's speed loads
both sides alike. For each end-to-end metric the tool prints, per side, the
median over all runs and the spread (q3 - q1) / median, then B's median
change against A, how many pairs B won, and whether the change exceeds A's
interquartile range.

Then (unless --no-trace) each seed runs once more per side with `--trace 1`
and the per-layer metrics whose basis perfbench/METRICS.md gives as `sim`
(outputs of the simulated model) or `count` (exact counts of the
simulator's own work) are diffed. Sim metrics must be equal for a change
that only alters performance; count metrics may move on purpose and are
listed. Host metrics are skipped: they are noise for a diff.

Exit code: 0, or 1 when a run fails, an operation fails, or a sim metric
differs.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=2 * seconds + 60)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"ab: {' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics.setdefault("ops_failed_share", result["failed"] / result["attempted"])
    return metrics


def metric_basis(path):
    """Maps each per-layer metric to its basis column (host, sim or count)."""
    basis = {}
    section = ""
    with open(path) as f:
        for line in f:
            if line.startswith("## "):
                section = line
            if "Per-layer" not in section or not line.startswith("| `"):
                continue
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            for name in re.findall(r"`([^`]+)`", cells[0]):
                basis[name] = cells[2]
    return basis


def spread(values):
    """(median, (q3 - q1) / median, q3 - q1)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, (q3 - q1) / med if med else 0.0, q3 - q1


def end_to_end(args, better):
    pairs = []
    for rnd in range(args.rounds):
        for i, seed in enumerate(args.seeds):
            flip = (rnd * len(args.seeds) + i) % 2 == 1
            order = [("B", args.b), ("A", args.a)] if flip else [("A", args.a), ("B", args.b)]
            got = {}
            for side, binary in order:
                got[side] = run(binary, args.workload, seed, args.seconds, 0)
                print(f"  round {rnd} seed {seed} {side}: " +
                      " ".join(f"{k}={v:.4g}" for k, v in got[side].items()), flush=True)
            pairs.append((got["A"], got["B"]))

    print(f"\n{args.workload}: {len(pairs)} interleaved pairs, seeds {args.seeds}")
    print(f"{'metric':<18}{'A median':>12}{'A iqr/med':>11}{'B median':>12}{'B iqr/med':>11}"
          f"{'B vs A':>9}{'B won':>8}  beyond A iqr")
    ok = True
    for name in pairs[0][0]:
        a = [p[0][name] for p in pairs]
        b = [p[1][name] for p in pairs]
        ma, sa, iqr_a = spread(a)
        mb, sb, _ = spread(b)
        change = (mb - ma) / ma if ma else 0.0
        lower = better.get(name, "lower") == "lower"
        won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        beyond = "yes" if abs(mb - ma) > iqr_a else "no"
        print(f"{name:<18}{ma:>12.4g}{sa:>10.1%}{mb:>12.4g}{sb:>10.1%}{change:>+9.1%}"
              f"{won:>5}/{len(pairs):<2}  {beyond}")
        if name == "ops_failed_share" and (ma > 0 or mb > 0):
            ok = False
    return ok


def trace_diff(args):
    basis = metric_basis(os.path.join(ROOT, "perfbench", "METRICS.md"))
    ok = True
    for i, seed in enumerate(args.seeds):
        order = [("A", args.a), ("B", args.b)]
        if i % 2:
            order.reverse()
        got = {side: run(binary, args.workload, seed, args.seconds, 1) for side, binary in order}
        same, moved = 0, []
        for name, va in got["A"].items():
            kind = basis.get(name)
            if kind not in ("sim", "count"):
                continue
            vb = got["B"][name]
            if va == vb:
                same += 1
            else:
                moved.append((kind, name, va, vb))
                ok = ok and kind != "sim"
        print(f"\n{args.workload} seed {seed} --trace 1: {same} sim/count metrics equal, "
              f"{len(moved)} differ")
        for kind, name, va, vb in moved:
            print(f"  {kind:<5} {name:<28} A={va:.17g} B={vb:.17g}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="perfbench binary A (the baseline)")
    ap.add_argument("b", help="perfbench binary B (the change)")
    ap.add_argument("--workload", required=True,
                    choices=["barneshut", "serve-churn", "hier-scale"])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="host seconds per run (BENCHMARK.json's run_seconds is 30)")
    ap.add_argument("--rounds", type=int, default=1, help="passes over the seeds")
    ap.add_argument("--no-trace", action="store_true", help="skip the --trace 1 diff")
    args = ap.parse_args()
    for binary in (args.a, args.b):
        if not os.access(binary, os.X_OK):
            sys.exit(f"ab: {binary} is not an executable")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    ok = end_to_end(args, better)
    if not args.no_trace:
        ok = trace_diff(args) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
