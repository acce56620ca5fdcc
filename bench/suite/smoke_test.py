#!/usr/bin/env python3
"""Smoke test of one benchmark-suite workload (run by ctest).

Runs oocgemm_suite at smoke size (--seconds=1: one round per segment, a few
hundred jobs per phase) untraced and traced, with verification on as always,
and checks that:
  * both runs exit 0 with every output verified and nothing failed;
  * every BENCHMARK.json end-to-end metric is printed, with its unit, by the
    untraced run, and is non-zero; every per-layer metric by the traced run;
    and no run prints a metric BENCHMARK.json does not name;
  * the result files and the span file parse.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path


def check_run(args, spec, traced):
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / f"{args.workload}-{int(traced)}.json"
    trace = workdir / f"{args.workload}-trace.json"
    cmd = [args.binary, f"--workload={args.workload}", "--seed=1", "--seconds=1",
           f"--out={out}"] + ([f"--trace={trace}"] if traced else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    errors = []
    if proc.returncode != 0:
        errors.append(f"{' '.join(cmd)} exited {proc.returncode}")
    printed = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[1] == args.workload:
            printed[parts[0]] = (float(parts[2]), parts[3])
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(set(printed) - known):
        errors.append(f"{name} is printed but not in BENCHMARK.json")
    for m in spec["per_layer" if traced else "end_to_end"]:
        got = printed.get(m["name"])
        if got is None or got[1] != m["unit"]:
            errors.append(f"{m['name']} [{m['unit']}] not printed: {got}")
        elif not traced and got[0] == 0:
            errors.append(f"end-to-end metric {m['name']} is 0")
    result = json.loads(out.read_text())
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"result not clean: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
    if traced and not json.loads(trace.read_text())["spans"]:
        errors.append("trace holds no spans")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--benchmark", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    spec = json.loads(Path(args.benchmark).read_text())
    errors = check_run(args, spec, False) + check_run(args, spec, True)
    for e in errors:
        print(f"FAIL {args.workload}: {e}")
    if not errors:
        print(f"ok {args.workload}")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
