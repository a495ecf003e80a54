"""modunits benchmark: one workload, one seed, every metric by name and unit.

    python3 bench/run.py --workload series_q --seed 1 --seconds 15 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
traced run (see bench/README.md).  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0 only
when that line is printed.

The launcher pins the environment of every process it starts (BLAS/OpenMP
threads, PYTHONHASHSEED, PYTHONPATH=<checkout>/src), measures set-up time in
fresh processes, and hands the timed loop to bench/worker.py.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 170
THREADS = "1"


def metric_units() -> dict:
    """Each metric's unit, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = THREADS
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def worker(args, env) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *map(str, args)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(map(str, args))} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies):
    """(percentile, value, beyond): the highest integer percentile >= 50 that
    still has at least ten samples beyond it, by nearest rank."""
    xs = sorted(latencies)
    n = len(xs)
    best = 50
    for p in range(50, 100):
        if n - math.ceil(p * n / 100) >= 10:
            best = p
    rank = max(1, math.ceil(best * n / 100))
    return best, xs[rank - 1], n - rank


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "modunits" / "__init__.py").is_file():
        print(f"error: no modunits sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = metric_units()
    env = pinned_env()

    # One untimed cold import first, so every timed process finds the bytecode cache filled.
    subprocess.run([sys.executable, "-c", "import modunits.cli"], env=env, cwd=ROOT, check=True,
                   timeout=CHILD_TIMEOUT_S)
    setups = []
    setup_failures = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            out = worker(["setup", args.workload], env)
            setups.append(out["setup_s"])
            setup_failures += out["failures"]
    raw = worker(["run", args.workload, args.seed, args.seconds, args.trace], env)

    failures = setup_failures + raw["failures"]
    attempted = raw["attempted"] + len(setups)
    failed = len(failures)
    unexpected = [f for f in failures if not f["known_defect"]]
    e = raw["env"]
    lines = [
        f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}",
        f"env python {e['python']} numpy {e['numpy']} sympy {e['sympy']} nproc {e['nproc']} "
        f"threads {e['threads']} PYTHONHASHSEED {e['pythonhashseed']}",
    ]
    if args.trace:
        metrics = raw["layers"]
        overhead = raw["traced_pass_s"] / raw["untraced_pass_s"]
        lines.append(
            f"tracing overhead: traced pass_s {raw['traced_pass_s']:.4f} s vs untraced "
            f"{raw['untraced_pass_s']:.4f} s (x{overhead:.3f}); tracer bookkeeping "
            f"{raw['tracer_overhead_s']:.3f} s"
        )
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"args": vars(args), "env": e, "layers": raw["layers"],
                                          "spans": raw["spans"]}))
        lines.append(f"spans: {len(raw['spans'])} written to {trace_file.relative_to(ROOT)}")
    else:
        lat = raw["latencies"]
        p, tail_value, beyond = tail(lat)
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(raw["pass_walls"]),
            "job_s_p50": statistics.median(lat),
            "job_s_tail": tail_value,
            "peak_rss_mib": raw["peak_rss_mib"],
            "ok_frac": (attempted - failed) / attempted,
        }
        lines.append(f"setup_s: median of {len(setups)} cold starts")
        lines.append(f"pass_s: median of {len(raw['pass_walls'])} timed passes: "
                     + " ".join(f"{w:.3f}" for w in raw["pass_walls"]))
        lines.append(f"job_s_tail: p{p} of {len(lat)} job latencies, {beyond} beyond it")
        lines.append(f"fail_frac {failed / attempted:.4f}: {failed} failed of {attempted} attempted "
                     f"({failed - len(unexpected)} with the known off-lattice inverse defect)")
    for f in failures[:20]:
        tag = " [known defect]" if f["known_defect"] else ""
        lines.append(f"FAIL {f['job']} {f['kind']}{f['args']}: {f['reason']}{tag}")
    for name, value in metrics.items():
        lines.append(f"{name} = {value!r} {units[name]}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
