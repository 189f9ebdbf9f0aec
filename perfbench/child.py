"""One workload in a fresh process; started by run.py, not by hand.

    python3 child.py SPEC.json SPAWN_TIME RESULT.json

SPEC names the run config, the Runner writers to call (or ``run_all``),
whether to trace, whether to run the correctness gate afterwards, and
whether to stop once the Runner is ready (a set-up probe).
SPAWN_TIME is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start, imports, config
parsing and Runner construction.  The result also carries the
``time.monotonic()`` stamps of those spans (``ready``, ``start``, ``end``),
which run.py puts on the reference CPU speed (speed.py).
"""

from __future__ import annotations

import hashlib
import json
import logging
import resource
import sys
import time
from pathlib import Path


def _digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def main(spec_path: str, spawn_time: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    # the malformed lines the corpus carries on purpose would otherwise be
    # logged one by one
    logging.disable(logging.WARNING)

    from polmon import pipeline

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        missing = tracer.install()
        if missing:
            print("not traced: " + ", ".join(missing), file=sys.stderr)

    # run_all builds its own Runner; keep a handle on it for the gate
    runners = []

    class Runner(pipeline.Runner):
        def __init__(self, config):
            super().__init__(config)
            runners.append(self)

    pipeline.Runner = Runner
    config = pipeline.RunConfig.from_file(spec["config"])
    runner = Runner(config)
    ready = time.monotonic()
    setup_s = ready - float(spawn_time)
    if spec["setup_only"]:
        Path(result_path).write_text(
            json.dumps({"setup_s": setup_s, "ready": ready}),
            encoding="utf-8")
        return 0

    full_report = spec["actions"] == ["run_all"]
    failed_stage = None
    start = time.monotonic()
    try:
        if full_report:
            outputs = len(pipeline.run_all(config))
            runner = runners[-1]
        else:
            for action in spec["actions"]:
                getattr(runner, action)()
            outputs = len(spec["actions"])
    except pipeline.StageError as exc:
        failed_stage = str(exc)
    end = time.monotonic()
    wall_s = end - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mb": peak_rss_mb, "failures": [], "ready": ready,
              "start": start, "end": end}
    if tracer is not None:
        result["layers"] = tracer.metrics(wall_s)
    if failed_stage is not None:
        result.update(attempted=1, failed=1, failures=[failed_stage])
    else:
        # operations: each output the workload writes, and each per-day
        # (or per-threshold) result inside it; a gap day counts as failed
        series = runner.series
        ablation = runner.ablation_rows
        sweep = runner.sweep.entries if full_report else []
        gaps = (sum(r is None for _, r in series)
                + sum(isinstance(r, tuple) for r in ablation))
        result["attempted"] = outputs + len(series) + len(ablation) + len(
            sweep)
        result["failed"] = gaps
        out_dir = Path(config.out_dir)
        result["digests"] = _digests(out_dir)
        if spec["gate"]:
            from gate import check_bundle
            gate = check_bundle(runner, out_dir, spec["expected_malformed"])
            result["attempted"] += gate.checks
            result["failed"] += len(gate.failures)
            result["failures"] = gate.failures
        if full_report and runner.communities is not None:
            result["louvain_q"] = runner.communities.modularity
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
