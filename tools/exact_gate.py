#!/usr/bin/env python3
"""Exact gate: paper-square's virtual and count metrics match the baseline.

Run from the repository root:

    python3 tools/exact_gate.py

For seeds 1, 2 and 3 this runs `bench/suite/run.py --workload paper-square
--seed S --seconds 1 --trace 0 --record FILE` and compares the exact keys of
the result with the untraced row of the same seed in
bench/suite/baseline/set1.jsonl.  The exact keys are the virtual-time and
count metrics: core.virtual_s.*, paper.*, vgpu.*, virtual_gflops,
virtual_jobs_per_s, partition.chunks and core.hybrid_gpu_chunk_share.  They
come from the simulated device and the cost model, so they do not depend on
the host or on --seconds, and any difference at all is a change in
behaviour.  Wall-clock metrics are not compared.

Exit status: 0 when every exact key of every seed matches bit for bit; 1
when a key is missing or differs, or a run fails.
"""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BASELINE = ROOT / "bench" / "suite" / "baseline" / "set1.jsonl"
SEEDS = (1, 2, 3)
PREFIXES = ("core.virtual_s.", "paper.", "vgpu.")
NAMES = {"virtual_gflops", "virtual_jobs_per_s", "partition.chunks",
         "core.hybrid_gpu_chunk_share"}


def exact_keys(metrics):
    return sorted(k for k in metrics if k in NAMES or k.startswith(PREFIXES))


def baseline_row(seed):
    for line in BASELINE.read_text().splitlines():
        row = json.loads(line)
        if (row["workload"] == "paper-square" and row["seed"] == seed
                and row["trace"] == 0):
            return row
    return None


def run_seed(seed, record):
    cmd = [sys.executable, str(ROOT / "bench" / "suite" / "run.py"),
           "--workload", "paper-square", "--seed", str(seed),
           "--seconds", "1", "--trace", "0", "--record", str(record)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    if proc.returncode != 0 or not record.is_file():
        return None
    return json.loads(record.read_text().splitlines()[-1])


def main():
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            base = baseline_row(seed)
            if base is None:
                print(f"seed {seed}: no untraced paper-square row in "
                      f"{BASELINE}")
                failures += 1
                continue
            keys = exact_keys(base["metrics"])
            if not keys:
                print(f"seed {seed}: the baseline row holds no exact keys")
                failures += 1
                continue
            got = run_seed(seed, Path(tmp) / f"seed{seed}.jsonl")
            if got is None:
                print(f"seed {seed}: paper-square run failed")
                failures += 1
                continue
            bad = 0
            for key in keys:
                want = base["metrics"][key]["value"]
                have = got["metrics"].get(key, {}).get("value")
                if have is None:
                    print(f"seed {seed}: {key} missing (baseline {want!r})")
                    bad += 1
                elif have != want:
                    print(f"seed {seed}: {key} {have!r} != baseline {want!r}")
                    bad += 1
            print(f"seed {seed}: {len(keys) - bad}/{len(keys)} exact keys match")
            failures += bad
    if failures:
        print(f"exact gate FAILED: {failures} problem(s)")
        return 1
    print("exact gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
