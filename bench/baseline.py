"""Measure the benchmark's baseline and check that it is steady.

    python3 bench/baseline.py [--out FILE]

For every workload in BENCHMARK.json it runs `bench/run.py --trace 0` once
per seed (1..10) and
reports, per end-to-end metric, the median, the quartiles and the spread
(distance between the quartiles as a share of the median) next to the bound
in BENCHMARK.json.  It then makes one traced run (seed 1) for the per-layer
numbers and the tracing overhead.  With --out it writes everything, with the
Python version, CPU count, CPU model and measured commit, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "cpu_model": cpu_model(), "commit": commit(),
              "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            res = bench_run(workload, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                         "failed": res["failed"],
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            print(workload, seed, res["correct"],
                  {k: round(v, 4) for k, v in runs[-1]["metrics"].items()}, flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "bound": bound}
            print("  %-16s median %-12.6g spread %.3f  bound %.2f%s" % (
                name, med, (q3 - q1) / med, bound,
                "" if (q3 - q1) / med < bound / 3 else "  (above a third of the bound)"))
        traced = bench_run(workload, 1, spec["run_seconds"], 1)
        record["workloads"][workload] = {
            "end_to_end": summary, "runs": runs,
            "failed_frac": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "traced": {"seed": 1, "correct": traced["correct"],
                       "metrics": {k: v["value"] for k, v in traced["metrics"].items()}},
            "trace_overhead_s": traced["metrics"]["trace.overhead_s"]["value"]}
        print("  trace.overhead_s %.4g" % traced["metrics"]["trace.overhead_s"]["value"])
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
