#!/usr/bin/env python3
"""Self time per span of a traced benchmark-suite run.

    python3 bench/suite/trace_report.py .bench_build/suite/traces/<workload>-<seed>-1.json

A span's self time is its duration minus the part of it that its child
spans cover (their union, so concurrent children count once).  Prints one
row per span name, sorted by total self time, then trace.overhead: 1 minus
the traced pass's wall GFLOP/s over the untraced passes' (the untraced
passes run before and after the traced one in the same process).
"""
import json
import sys
from collections import defaultdict


def covered(start, end, intervals):
    """Length of the union of `intervals` clipped to [start, end]."""
    total, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    trace = json.load(open(sys.argv[1]))
    spans = trace["spans"]
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start_us"], s["end_us"]))

    rows = defaultdict(lambda: [0, 0.0, 0.0])  # count, total us, self us
    for s in spans:
        duration = s["end_us"] - s["start_us"]
        row = rows[s["name"]]
        row[0] += 1
        row[1] += duration
        row[2] += duration - covered(s["start_us"], s["end_us"], children[s["id"]])

    print(f"{trace['workload']} seed {trace['seed']}: {len(spans)} spans")
    print(f"{'span':<34} {'count':>7} {'total ms':>11} {'self ms':>11} {'self us/span':>13}")
    for name, (count, total, self_us) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:<34} {count:>7} {total / 1e3:>11.2f} {self_us / 1e3:>11.2f} "
              f"{self_us / count:>13.1f}")
    overhead = 1.0 - trace["wall_gflops_traced"] / trace["wall_gflops_untraced"]
    print(f"trace.overhead {overhead:.4f} (wall GFLOP/s traced "
          f"{trace['wall_gflops_traced']:.6g} vs untraced {trace['wall_gflops_untraced']:.6g})")


if __name__ == "__main__":
    main()
