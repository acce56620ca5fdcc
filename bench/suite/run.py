#!/usr/bin/env python3
"""Builds and runs one workload of the oocgemm benchmark suite.

Run from the repository root:

    python3 bench/suite/run.py --workload serve-mixed --seed 1 --seconds 20 \
        --trace 0 [--record results.jsonl]

The first call configures and builds bench/suite (the library plus the
`oocgemm_suite` binary, Release) into .bench_build/suite; later calls only
rebuild what changed.  The binary's metric lines are relayed to stdout, and
the last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, measured
untraced; with --trace 1 they are its per_layer set, from the traced run
(whose spans land in .bench_build/suite/traces/).  --record appends the
run's full result (every metric the binary measured) as one JSON line, the
input format of compare.py.  The exit status is the binary's: non-zero when
an output mismatched its reference or a paper-shape claim broke.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SUITE = ROOT / "bench" / "suite"
BUILD = ROOT / ".bench_build" / "suite"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(SUITE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "oocgemm_suite",
                    "-j", jobs], stdout=sys.stderr, check=True, env=env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full result here (JSON lines)")
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"library sources not found under {ROOT}: run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}", 1)

    tag = f"{args.workload}-{args.seed}-{args.trace}"
    out = BUILD / "results" / f"{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    cmd = [str(BUILD / "oocgemm_suite"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}", f"--out={out}"]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd.append(f"--trace={traces / (tag + '.json')}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stdout.write(proc.stdout)
    if not out.is_file():
        fail(f"oocgemm_suite exited {proc.returncode} without a result", proc.returncode or 1)
    result = json.loads(out.read_text())

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} [{m['unit']}] missing from the result: {got}", 1)
        metrics[m["name"]] = got
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps(result) + "\n")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
