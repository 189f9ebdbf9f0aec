#!/usr/bin/env python3
"""Measure a baseline set and write it to perfbench/baseline.json.

    python3 perfbench/baseline.py --seeds 101-110

Runs every workload of BENCHMARK.json once per seed with tracing off, then
once with tracing on (first seed), and records each end-to-end metric's
median, quartiles and spread (quartile distance over median), the
per-layer figures of the traced run, and the environment.  Takes about
(3 workloads x (seeds + 1) x run_seconds) plus corpus generation.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import date
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def environment() -> dict:
    import networkx
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_in_children": {"OMP_NUM_THREADS": "1",
                                     "OPENBLAS_NUM_THREADS": "1",
                                     "MKL_NUM_THREADS": "1"},
    }


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="101-110",
                        help="inclusive range FIRST-LAST")
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    workloads = {}
    for w in spec["workloads"]:
        runs = [bench(w["name"], seed, seconds, 0) for seed in seeds]
        traced = bench(w["name"], seeds[0], seconds, 1)
        workloads[w["name"]] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "error_rate": (sum(r["failed"] for r in runs)
                           / sum(r["attempted"] for r in runs)),
            "end_to_end": {m["name"]: summary(
                [r["metrics"][m["name"]]["value"] for r in runs])
                for m in spec["end_to_end"]},
            "per_layer": {name: m["value"]
                          for name, m in traced["metrics"].items()},
        }
        print(w["name"], json.dumps(workloads[w["name"]]["end_to_end"]),
              flush=True)

    baseline = {"date": date.today().isoformat(), "seeds": seeds,
                "run_seconds": seconds, "environment": environment(),
                "times": "seconds at the reference CPU speed of speed.py "
                         f"(the probe loop taking {speed.P_REF} s)",
                "workloads": workloads}
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
