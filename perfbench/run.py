#!/usr/bin/env python3
"""Pipeline benchmark: seeded corpora through polmon's public pipeline API.

    python3 perfbench/run.py --workload full-report --seed 1 --seconds 30 \\
        --trace 0

Run from the root of a polmon checkout; the program is imported from its
``src/``.  Each workload is repeated in fresh single-threaded child
processes until ``--seconds`` is used up (at least three children), and
each end-to-end metric is the median over them.  The corpus for a seed is
generated once and cached under ``perfbench/.work``; generation is not
timed.  The first child's outputs go through the correctness gate
(gate.py), and every child's bundle must be byte-identical to the first.

The run pins itself and its children to one CPU, where speed.py samples
the CPU's speed; ``setup_s``, ``wall_s`` and every per-layer time are
given in seconds at speed.py's reference speed, so that a shared host's
changing speed does not swamp the program's own changes.  The raw wall
time is printed beside the result.

``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of tracer.py (medians over traced children) plus
``trace.overhead_s``, the median traced minus untraced ``wall_s``.

``--fixture`` runs the workload's steps on the 259-tweet fixture under
``tests/data`` instead of a generated corpus (the smoke test uses it).

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from datetime import date, timedelta
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

# Why these workloads (sizes and shares measured when they were added):
#  full-report    the paper's whole report; FJ solves of the threshold sweep
#                 and Louvain dominate, so polarization and structure move it.
#  monitor-window a two-day query against a 30-day archive: the whole archive
#                 is parsed and ~93% of it is dropped by the window before
#                 any rule is matched, so corpus parsing dominates; it
#                 bypasses what full-report exercises (large solves, Louvain,
#                 rule matching).
#  daily-series   monitoring series over half a year: ~900 small FJ solves
#                 and ~540 node removals, no sweep and no Louvain; a solver
#                 change aimed at large graphs should not move it, and
#                 per-call overhead shows here.
WORKLOADS = {
    "full-report": {
        "corpus": {"tweets": 10_000, "users": 2_800, "days": 30,
                   "start": "2022-08-01"},
        "actions": ["run_all"],
    },
    "daily-series": {
        "corpus": {"tweets": 27_000, "users": 6_000, "days": 180,
                   "start": "2022-06-01"},
        "actions": ["write_stats", "write_pi_series", "write_ablation"],
    },
    "monitor-window": {
        "corpus": {"tweets": 120_000, "users": 20_000, "days": 30,
                   "start": "2022-08-01"},
        "actions": ["write_pi_series", "write_ablation"],
        "window_days": 2,
    },
}
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
MIN_CHILDREN = 3
SETUP_PROBES = 1  # extra set-up-only children per workload child
CORPORA_KEPT = 3  # per workload; a monitor-window corpus is ~55 MB
RUN_LIMIT_S = 170  # a run must end within 180 s


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name == "corpus.us_per_line":
        return "us"
    if name == "structure.louvain_q":
        return "1"
    return "count"


def corpus_for(workload: str, seed: int) -> tuple[Path, dict]:
    """The workload's corpus for seed: cached, else generated (untimed)."""
    shape = WORKLOADS[workload]["corpus"]
    home = WORK / "corpus"
    path = home / f"{workload}-{seed}"
    meta_file = path / "meta.json"
    if not meta_file.exists():
        tmp = home / f".{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        # in a process of its own: a child's peak RSS starts from the peak
        # RSS of the process that spawned it, so this one must stay small
        subprocess.run(
            [sys.executable, str(HERE / "gencorpus.py"), "--seed", str(seed),
             "--out", str(tmp)] + [f"--{key}={value}"
                                   for key, value in shape.items()],
            check=True, stdout=subprocess.DEVNULL, timeout=RUN_LIMIT_S)
        shutil.rmtree(path, ignore_errors=True)
        tmp.rename(path)
        cached = sorted(home.glob(f"{workload}-*"),
                        key=lambda p: p.stat().st_mtime)
        for old in cached[:-CORPORA_KEPT]:
            shutil.rmtree(old, ignore_errors=True)
    meta = json.loads(meta_file.read_text(encoding="utf-8"))
    return path, meta


def fixture_corpus() -> tuple[Path, dict]:
    data = ROOT / "tests" / "data"
    lines = (data / "fixture_tweets.jsonl").read_text(encoding="utf-8")
    days = sorted({json.loads(line)["timestamp"][:10]
                   for line in lines.splitlines()})
    return data, {"end": days[-1], "truncated_lines": 0}


def write_config(run_dir: Path, workload: str, seed: int,
                 fixture: bool) -> dict:
    """Write the run config; returns the child spec that points at it."""
    if fixture:
        corpus, meta = fixture_corpus()
        names = ("fixture_tweets.jsonl", "fixture_annotations.csv",
                 "fixture_follows.csv")
    else:
        corpus, meta = corpus_for(workload, seed)
        names = ("tweets.jsonl", "annotations.csv", "follows.csv")
    config = {
        "tweets": str(corpus / names[0]),
        "annotations": str(corpus / names[1]),
        "follows": str(corpus / names[2]),
        "out_dir": str(run_dir / "out"),
        "threshold": 0.0,
        "sweep_thresholds": [0.0, 0.5, 0.7],
        # the fixture has ~40 users; k = 500 would select all of them
        "k": 10 if fixture else 500,
        "drop_isolated": True,
        "workers": 1,
    }
    window = WORKLOADS[workload].get("window_days")
    if window:
        end = date.fromisoformat(meta["end"])
        config["date_from"] = (end - timedelta(days=window - 1)).isoformat()
        config["date_to"] = end.isoformat()
    path = run_dir / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return {"config": str(path), "actions": WORKLOADS[workload]["actions"],
            "expected_malformed": meta["truncated_lines"]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    # single-threaded numerics; bytecode is compiled afresh in every child
    # so that set-up time does not depend on what an earlier run cached
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Child:
    """Starts child.py for one repetition and collects its result."""

    def __init__(self, run_dir: Path, spec: dict, deadline: float):
        self.run_dir = run_dir
        self.spec = spec
        self.deadline = deadline
        self.count = 0
        self.env = child_env()

    def run(self, trace: bool = False, gate: bool = False,
            setup_only: bool = False) -> dict:
        self.count += 1
        spec_file = self.run_dir / f"spec-{self.count}.json"
        result_file = self.run_dir / f"result-{self.count}.json"
        spec_file.write_text(json.dumps(dict(
            self.spec, trace=trace, gate=gate, setup_only=setup_only)),
            encoding="utf-8")
        shutil.rmtree(self.run_dir / "out", ignore_errors=True)
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_file),
             repr(spawned), str(result_file)],
            env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, self.deadline - spawned))
        if proc.returncode != 0 or not result_file.exists():
            raise RuntimeError(f"child exited with {proc.returncode}:\n"
                               f"{proc.stderr[-3000:]}")
        result = json.loads(result_file.read_text(encoding="utf-8"))
        result["spawned"] = spawned
        return result


class Sampler:
    """speed.py on the CPU this process is pinned to."""

    def __init__(self, run_dir: Path):
        self.path = run_dir / "speed.txt"
        self.path.touch()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "speed.py"), str(self.path)],
            stdin=subprocess.DEVNULL)
        deadline = time.monotonic() + 30
        while not speed.load(self.path):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("the speed sampler did not start")
            time.sleep(0.01)

    def stop(self) -> list[tuple[float, float]]:
        self.proc.kill()
        self.proc.wait()
        return speed.load(self.path)


def pin_to_one_cpu() -> None:
    """Children inherit the affinity, so they share the sampler's CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def on_reference_speed(children: list[dict],
                       samples: list[tuple[float, float]]) -> None:
    """Replace each child's raw times by times at the reference speed."""
    for c in children:
        c["setup_s"] = speed.reference_s(samples, c["spawned"], c["ready"])
        if "start" in c:
            c["raw_wall_s"] = c["wall_s"]
            c["wall_s"] = speed.reference_s(samples, c["start"], c["end"])
            factor = c["wall_s"] / c["raw_wall_s"]
            for name, value in c.get("layers", {}).items():
                if name.endswith("_s") or name == "corpus.us_per_line":
                    c["layers"][name] = value * factor


def check_program() -> None:
    """Fail unless polmon imports from this checkout's src/."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import polmon.pipeline; print(polmon.__file__)"],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=60)
    where = Path(proc.stdout.strip() or "/").resolve()
    if proc.returncode != 0 or (ROOT / "src") not in where.parents:
        sys.exit(f"error: polmon does not import from {ROOT / 'src'}\n"
                 f"{proc.stderr[-2000:]}")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            fixture: bool) -> dict:
    started = time.monotonic()
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spec = write_config(run_dir, workload, seed, fixture)
    check_program()
    pin_to_one_cpu()
    child = Child(run_dir, spec, started + RUN_LIMIT_S)

    plain, traced, setups = [], [], []
    sampler = Sampler(run_dir)
    try:
        window_end = time.monotonic() + seconds
        while True:
            t0 = time.monotonic()
            plain.append(child.run(gate=not plain))
            if trace:
                traced.append(child.run(trace=True))
            else:
                setups += [child.run(setup_only=True)
                           for _ in range(SETUP_PROBES)]
            step = time.monotonic() - t0
            done = len(plain) >= (1 if trace else MIN_CHILDREN)
            if done and time.monotonic() + step > window_end:
                break
            if time.monotonic() + step > started + RUN_LIMIT_S - 10:
                break
    finally:
        samples = sampler.stop()

    children = plain + traced
    on_reference_speed(children + setups, samples)
    attempted = sum(c["attempted"] for c in children) + 1
    failed = sum(c["failed"] for c in children)
    failures = [f for c in children for f in c["failures"]]
    if any(c.get("digests") != plain[0].get("digests") for c in children):
        failed += 1
        failures.append("bundle differs between repetitions")

    def median(rows, key):
        return statistics.median(r[key] for r in rows)

    if trace:
        metrics = {name: median([c["layers"] for c in traced], name)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (median(traced, "wall_s")
                                       - median(plain, "wall_s"))
    else:
        metrics = {name: median(plain + setups, name)
                   if name == "setup_s" else median(plain, name)
                   for name in END_TO_END}
    shutil.rmtree(run_dir, ignore_errors=True)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "failures": failures, "children": len(children),
            "louvain_q": plain[0].get("louvain_q"),
            "raw_wall_s": median(plain, "raw_wall_s")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixture", action="store_true",
                        help="use the shipped test fixture as the corpus")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "polmon" / "pipeline.py").is_file():
        sys.exit(f"error: no polmon sources under {ROOT / 'src'}")

    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.fixture)
    metrics = result["metrics"]
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    if result["louvain_q"] is not None:
        print(f"louvain_q {result['louvain_q']:.6g} (modularity of the "
              "returned partition)")
    print(f"raw_wall_s {result['raw_wall_s']:.6g} s (median wall time at "
          "the CPU's own speed; wall_s is at the reference speed)")
    print(f"error_rate {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']} operations, "
          f"{result['children']} children)")
    for failure in result["failures"][:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
