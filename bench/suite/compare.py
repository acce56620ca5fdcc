#!/usr/bin/env python3
"""Compares two sets of benchmark-suite results, parent against change.

    python3 bench/suite/compare.py BASE NEW

BASE and NEW are JSON-lines files written by `run.py --record`, or
directories of such *.jsonl files.  For every (workload, end-to-end metric)
row it prints each side's median and quartiles over the untraced runs and a
verdict, using the bounds in BENCHMARK.json:

  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  better      the change wins at least 9 of 10 seed-paired runs (ties count
              for neither) and the medians differ by more than the parent's
              interquartile range;
  unresolved  neither, and either side's spread (IQR / median) is wider
              than the bound, unless every change run beats every parent
              run;
  unchanged   otherwise.

For a worse row it names the per-layer metrics that moved most, taken from
the traced runs of that workload among the layer metrics that moves.json
maps to the row.  Exits 1 when any row is worse.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path):
    path = Path(path)
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    return [json.loads(line) for f in files for line in f.read_text().splitlines()
            if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def describe(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def by_seed(records, workload, trace):
    return {r["seed"]: r for r in records
            if r["workload"] == workload and r["trace"] == trace}


def verdict(base, new, better, bound):
    """base/new: values paired by position."""
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    n_q1, n_med, n_q3 = quartiles(new)
    gain = sign * (n_med - b_med)
    if -gain > bound * abs(b_med):
        return "worse"
    wins = sum(1 for b, n in zip(base, new) if sign * (n - b) > 0)
    if wins >= 0.9 * len(base) and gain > b_q3 - b_q1:
        return "better"
    spread = max((b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
                 (n_q3 - n_q1) / abs(n_med) if n_med else 0.0)
    every_run_better = min(sign * n for n in new) > max(sign * b for b in base)
    if spread > bound and not every_run_better:
        return "unresolved"
    return "unchanged"


def layer_movers(base_recs, new_recs, workload, row, moves, top=3):
    base = by_seed(base_recs, workload, 1)
    new = by_seed(new_recs, workload, 1)
    if not base or not new:
        return ["(no traced runs of this workload on both sides)"]
    moved = []
    for name, targets in moves.items():
        if row not in targets:
            continue
        b = statistics.median(r["metrics"][name]["value"] for r in base.values())
        n = statistics.median(r["metrics"][name]["value"] for r in new.values())
        rel = (n - b) / abs(b) if b else (0.0 if n == b else float("inf"))
        moved.append((abs(rel), name, b, n, rel))
    moved.sort(reverse=True)
    return [f"{name}: {b:.6g} -> {n:.6g} ({100 * rel:+.1f}%)"
            for _, name, b, n, rel in moved[:top]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=str(HERE.parents[1] / "BENCHMARK.json"))
    args = parser.parse_args()
    spec = json.loads(Path(args.benchmark).read_text())
    moves = json.loads((HERE / "moves.json").read_text())["moves"]
    base_recs, new_recs = load(args.base), load(args.new)

    print(f"{'workload':<16} {'metric':<22} {'base median [q1, q3]':<34} "
          f"{'new median [q1, q3]':<34} {'n':>5}  verdict")
    any_worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        base, new = by_seed(base_recs, workload, 0), by_seed(new_recs, workload, 0)
        seeds = sorted(set(base) & set(new))
        if seeds:
            base_runs = [base[s] for s in seeds]
            new_runs = [new[s] for s in seeds]
        else:  # no common seeds: pair in record order
            base_runs, new_runs = list(base.values()), list(new.values())
            k = min(len(base_runs), len(new_runs))
            base_runs, new_runs = base_runs[:k], new_runs[:k]
        if not base_runs:
            print(f"{workload:<16} (no untraced runs on both sides)")
            continue
        for m in spec["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for r in base_runs]
            n = [r["metrics"][m["name"]]["value"] for r in new_runs]
            v = verdict(b, n, m["better"], m["bound"])
            print(f"{workload:<16} {m['name']:<22} {describe(b):<34} "
                  f"{describe(n):<34} {len(b):>5}  {v}")
            if v == "worse":
                any_worse = True
                for line in layer_movers(base_recs, new_recs, workload,
                                         f"{m['name']}@{workload}", moves):
                    print(f"{'':<18}moved: {line}")
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
