"""Record the baseline: every workload once untraced and twice traced, seed 1.

    python3 bench/baseline.py

Runs last BENCHMARK.json's run_seconds.  The two traced runs of each workload
use the same seed; the script exits 1 unless every per-layer count (every
metric that is not a time) agrees exactly between them.  bench/baseline/seed.json
keeps each run's result line and report.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SEED = 1
SECONDS = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"]
OUT = BENCH_DIR / "baseline" / "seed.json"
# The counts ROADMAP item 1 asks every result to carry.
ROADMAP_COUNTS = ("qseries.term_pairs", "cycloq.mul_calls", "cycloq.max_order",
                  "cycloq.max_coeff_bits", "thetag.points_summed")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "report": lines[:-1]}


def counts(traced):
    metrics = traced["result"]["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] != "s"}


def main() -> int:
    out = {"seed": SEED, "seconds": SECONDS, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        untraced = run(workload, SEED, SECONDS, 0)
        traced = [run(workload, SEED, SECONDS, 1) for _ in range(2)]
        a, b = counts(traced[0]), counts(traced[1])
        differ = sorted(name for name in a if a[name] != b.get(name))
        ok = ok and not differ
        out["workloads"][workload] = {
            "untraced": untraced,
            "traced": traced,
            "roadmap_counts": {name: a[name] for name in ROADMAP_COUNTS},
            "counts_differing_between_traced_runs": differ,
        }
        status = "identical" if not differ else f"DIFFER: {', '.join(differ)}"
        print(f"{workload}: correct={untraced['result']['correct']} "
              f"failed={untraced['result']['failed']}/{untraced['result']['attempted']} counts {status}",
              flush=True)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
